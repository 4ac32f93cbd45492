"""reprolint: fixture corpus, reporters, CLI, and the live-tree gate.

Three layers of coverage:

1. every rule fires on its ``*_fires.py`` fixture and is silenced by
   the pragma in its ``*_suppressed.py`` twin (with the suppression
   recorded, not dropped);
2. the reporters and the CLI honour the exit-code protocol
   (0 clean / 1 findings / 2 usage) and the JSON schema;
3. the real tree stays clean — ``run_lint`` over ``src/repro``,
   ``benchmarks`` and ``examples`` is the same gate CI runs — and the
   progress-phase registry agrees with its documentation table.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro.runtime.progress as progress_mod
from repro.analysis import (
    FAMILIES,
    JSON_SCHEMA_VERSION,
    RULE_IDS,
    RULES,
    render_json,
    render_text,
    run_lint,
)
from repro.cli import main
from repro.exceptions import ParameterError
from repro.runtime.progress import KNOWN_PHASES, ProgressEvent

REPO = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

#: rule id -> fixture that must make exactly that rule fire.
FIRES = {
    "DET001": "plain/det001_fires.py",
    "DET002": "repro/core/det002_fires.py",
    "DET003": "plain/det003_fires.py",
    "PAR001": "plain/par001_fires.py",
    "PAR002": "plain/par002_fires.py",
    "PAR003": "plain/par003_fires.py",
    "PAR004": "repro/core/par004_fires.py",
    "EVT001": "plain/evt001_fires.py",
    "EVT002": "plain/evt002_fires.py",
    "EXC001": "repro/exc001_fires.py",
    "EXC002": "plain/exc002_fires.py",
    "EXC003": "plain/exc003_fires.py",
    "CONC001": "plain/conc001_fires.py",
    "CONC002": "plain/conc002_fires.py",
    "CONC003": "plain/conc003_fires.py",
    "CONC004": "plain/conc004_fires.py",
    "SUP001": "plain/sup001_fires.py",
    "SUP002": "plain/sup002_fires.py",
}

#: rule id -> fixture where the same violation sits behind a pragma.
#: SUP001/SUP002 (and LNT001) are findings about the pragmas
#: themselves, so they cannot be suppressed and have no twin.
SUPPRESSED = {
    rule: path.replace("_fires", "_suppressed")
    for rule, path in FIRES.items()
    if rule not in ("SUP001", "SUP002")
}

#: fixtures that exercise the rule's *negative* space: idioms close to
#: a violation that must not fire.
CLEAN = [
    "plain/det003_clean.py",
    "plain/par001_clean.py",
    "plain/exc003_clean.py",
    "plain/conc001_clean.py",
    "plain/conc002_clean.py",
    "plain/conc003_clean.py",
    "plain/conc004_clean.py",
    # Resolves to the module repro.core.kernels, the whitelisted home
    # of np.unpackbits — PAR004 must stay quiet there.
    "repro/core/kernels.py",
]


def lint(*relpaths: str, select=None):
    return run_lint([str(FIXTURES / p) for p in relpaths], select=select)


# --------------------------------------------------------------------------
# corpus completeness


def test_every_rule_has_a_fires_fixture():
    assert set(FIRES) == set(RULE_IDS) - {"LNT001"}


def test_fixture_files_exist():
    for rel in [*FIRES.values(), *SUPPRESSED.values(), *CLEAN]:
        assert (FIXTURES / rel).is_file(), rel


def test_rule_catalogue_is_consistent():
    assert set(RULE_IDS) == set(RULES)
    for rule_id, rule in RULES.items():
        assert rule.family in FAMILIES
        assert rule_id.startswith(rule.family)
        assert rule.summary


# --------------------------------------------------------------------------
# every rule fires / suppresses


@pytest.mark.parametrize("rule", sorted(FIRES))
def test_rule_fires(rule):
    result = lint(FIRES[rule])
    counts = result.counts_by_rule()
    assert counts.get(rule, 0) >= 1, (
        f"{rule} did not fire on {FIRES[rule]}: {counts}")
    # The fixture is single-purpose: nothing *else* may fire, or the
    # corpus no longer demonstrates what it claims to.
    assert set(counts) == {rule}, counts
    for finding in result.findings:
        assert finding.path.endswith(FIRES[rule].rsplit("/", 1)[-1])
        assert finding.line >= 1


@pytest.mark.parametrize("rule", sorted(SUPPRESSED))
def test_rule_suppressed(rule):
    result = lint(SUPPRESSED[rule])
    assert result.clean, (
        f"{rule} pragma did not silence {SUPPRESSED[rule]}: "
        f"{[f.render() for f in result.findings]}")
    silenced = [f for f in result.suppressed if f.rule == rule]
    assert silenced, "suppression must be recorded, not dropped"
    for finding in silenced:
        assert finding.suppressed
        assert finding.suppression_reason


@pytest.mark.parametrize("rel", CLEAN)
def test_clean_fixture_is_clean(rel):
    result = lint(rel)
    assert result.clean, [f.render() for f in result.findings]
    assert not result.suppressed


def test_sup001_reports_the_stale_rule():
    result = lint(FIRES["SUP001"])
    [finding] = result.findings
    assert finding.rule == "SUP001"
    assert "DET003" in finding.message


def test_sup002_catches_every_malformed_shape():
    result = lint(FIRES["SUP002"])
    assert len(result.findings) == 3
    messages = " | ".join(f.message for f in result.findings)
    assert "unknown rule id" in messages
    assert "missing its justification" in messages
    assert "expected '# repro: allow" in messages


def test_lnt001_on_unparsable_file(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n    pass\n")
    result = run_lint([str(bad)])
    [finding] = result.findings
    assert finding.rule == "LNT001"


# --------------------------------------------------------------------------
# engine semantics


def test_select_restricts_rules():
    result = lint(FIRES["DET001"], FIRES["EXC002"], select=["DET001"])
    assert set(result.counts_by_rule()) == {"DET001"}


def test_select_rejects_unknown_rule():
    with pytest.raises(ParameterError, match="unknown rule id"):
        lint(FIRES["DET001"], select=["BOGUS99"])


def test_missing_path_is_a_usage_error():
    with pytest.raises(ParameterError, match="does not exist"):
        run_lint([str(FIXTURES / "no-such-dir")])


def test_findings_are_sorted_and_stable():
    result = lint("plain", "repro")
    keys = [(f.path, f.line, f.col, f.rule) for f in result.findings]
    assert keys == sorted(keys)
    again = lint("plain", "repro")
    assert [f.render() for f in again.findings] == [
        f.render() for f in result.findings]


# --------------------------------------------------------------------------
# reporters


def test_text_reporter_lines_are_clickable():
    result = lint(FIRES["DET001"])
    text = render_text(result)
    assert re.search(r"det001_fires\.py:\d+:\d+: DET001 ", text)
    assert "finding" in text


def test_text_reporter_verbose_lists_suppressions():
    result = lint(SUPPRESSED["EXC003"])
    text = render_text(result, verbose=True)
    assert "EXC003" in text
    assert "best-effort probe" in text


def test_json_reporter_schema():
    result = lint(FIRES["DET001"], SUPPRESSED["EXC003"])
    payload = json.loads(render_json(result))
    assert payload["schema_version"] == JSON_SCHEMA_VERSION == 1
    for key in ("tool", "paths", "files_scanned", "clean",
                "summary", "rules", "findings", "suppressed"):
        assert key in payload, key
    assert payload["clean"] is False
    assert payload["summary"]["active"] == len(result.findings)
    assert payload["summary"]["suppressed"] == len(result.suppressed)
    assert payload["summary"]["by_rule"]["DET001"] >= 1
    for entry in payload["findings"]:
        for key in ("rule", "path", "line", "col", "message"):
            assert key in entry, key
    assert any(e["rule"] == "EXC003" and e["suppression_reason"]
               for e in payload["suppressed"])
    # Every rule that appears is documented in the embedded catalogue.
    seen = {e["rule"] for e in payload["findings"] + payload["suppressed"]}
    assert seen <= set(payload["rules"])


# --------------------------------------------------------------------------
# CLI exit-code protocol


def test_cli_exit_0_on_clean_tree(capsys):
    code = main(["lint", str(FIXTURES / "plain" / "det003_clean.py")])
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_cli_exit_1_on_findings(capsys):
    code = main(["lint", str(FIXTURES / FIRES["DET001"])])
    assert code == 1
    assert "DET001" in capsys.readouterr().out


def test_cli_exit_2_on_usage_error(capsys):
    code = main(["lint", "--select", "NOPE999",
                 str(FIXTURES / FIRES["DET001"])])
    assert code == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_cli_json_format(capsys):
    code = main(["lint", "--format", "json",
                 str(FIXTURES / FIRES["EXC002"])])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["by_rule"] == {"EXC002": 1}


# --------------------------------------------------------------------------
# the live tree stays clean (same gate CI runs)


def test_self_lint_repo_tree_is_clean():
    paths = [str(REPO / "src" / "repro"), str(REPO / "benchmarks"),
             str(REPO / "examples")]
    result = run_lint([p for p in paths if Path(p).exists()])
    assert result.clean, "\n".join(f.render() for f in result.findings)
    # Suppressions in the live tree all carry their justification.
    for finding in result.suppressed:
        assert finding.suppression_reason


# --------------------------------------------------------------------------
# progress-phase registry (satellite: promoted vocabulary)


def _table_phases() -> set[str]:
    """Phase names from the docstring table in runtime/progress.py."""
    doc = progress_mod.__doc__
    lines = doc.splitlines()
    rules = [i for i, line in enumerate(lines)
             if re.fullmatch(r"=+\s+=+", line.strip())]
    assert len(rules) >= 2, "docstring table delimiters missing"
    table = lines[rules[0] + 1:rules[-1]]
    # Phase rows start at column 0; continuation lines are indented.
    return {m.group(1) for line in table
            if (m := re.match(r"``([a-z0-9-]+)``", line))}


def test_docstring_table_matches_registry():
    assert _table_phases() == set(KNOWN_PHASES)


def test_service_phases_are_registered():
    """The ``repro serve`` vocabulary is part of the one registry."""
    assert {
        "service-request", "service-response", "service-shed",
        "service-degraded", "service-build", "service-breaker",
        "service-drain",
    } <= set(KNOWN_PHASES)


def test_nucleus_phases_are_registered():
    """The nucleus decomposition vocabulary is part of the one registry."""
    assert "nucleus-peel" in KNOWN_PHASES


def test_unregistered_nucleus_phase_fires_evt001():
    """An invented ``nucleus-*`` literal at an emission site is a lint
    error (and the pragma twin records its justification)."""
    result = lint("plain/evt001_nucleus_fires.py")
    assert set(result.counts_by_rule()) == {"EVT001"}
    twin = lint("plain/evt001_nucleus_suppressed.py")
    assert twin.clean
    assert any(f.rule == "EVT001" for f in twin.suppressed)


def test_unregistered_service_phase_fires_evt001():
    """An invented ``service-*`` literal at an emission site is a lint
    error (and the pragma twin records its justification)."""
    result = lint("plain/evt001_service_fires.py")
    assert set(result.counts_by_rule()) == {"EVT001"}
    twin = lint("plain/evt001_service_suppressed.py")
    assert twin.clean
    assert any(f.rule == "EVT001" for f in twin.suppressed)


def test_debug_validation_rejects_unknown_phase(monkeypatch):
    monkeypatch.setattr(progress_mod, "_VALIDATE_PHASES", True)
    with pytest.raises(ParameterError, match="unknown progress phase"):
        ProgressEvent("warp-core-align", step=0)
    ProgressEvent("sample-batch", step=0)  # registered: fine


def test_validation_off_by_default(monkeypatch):
    monkeypatch.setattr(progress_mod, "_VALIDATE_PHASES", False)
    ProgressEvent("forward-compatible-phase", step=0)


def test_repro_debug_env_enables_validation():
    env = dict(os.environ, REPRO_DEBUG="1",
               PYTHONPATH=str(REPO / "src"))
    probe = ("import repro.runtime.progress as p; "
             "p.ProgressEvent('bogus-phase', step=0)")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, cwd=str(REPO))
    assert proc.returncode != 0
    assert "unknown progress phase" in proc.stderr
