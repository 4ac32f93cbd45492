"""Runs ``repro serve`` with the benchmark's probes installed.

Usage::

    python3 perfbench/serve_launcher.py OUT TRACE -- <repro CLI args>

The server runs through ``repro.cli.main``, the code path of
``python -m repro``.  Two probes sit around ``TrussService.handle_http``:

* a request carrying ``X-Bench-Alloc`` is handled under ``tracemalloc``
  and its peak recorded (set-up and the end of the load send these;
  the measured load never does);
* with ``TRACE`` = 1 every layer boundary records spans, and a request
  carrying ``X-Bench-Rid`` tags its ``handle_http`` span with that id.

On exit the launcher writes ``OUT`` (JSON: the allocation peaks) and,
when tracing, ``OUT.spans.gz``.
"""

from __future__ import annotations

import json
import sys
import tracemalloc

import common  # also puts the sources on sys.path
import tracer


def _rid(args) -> str | None:
    return args[1].headers.get("X-Bench-Rid")


def main(argv: list[str]) -> int:
    out, trace, cli_args = argv[0], argv[1] == "1", argv[3:]
    from repro import cli
    from repro.service.server import TrussService

    spans = tracer.Tracer()
    if trace:
        tracer.Patches(spans, tracer.layer_targets(),
                       taggers={"service.handle_http": _rid}).install()
    peaks: dict[str, int] = {}
    inner = TrussService.handle_http

    def handle_http(self, handler):
        if handler.headers.get("X-Bench-Alloc") is None:
            return inner(self, handler)
        tracemalloc.start()
        try:
            return inner(self, handler)
        finally:
            peaks[handler.path] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    TrussService.handle_http = handle_http
    try:
        code = cli.main(cli_args)
    finally:
        common.end_children()
    with open(out, "w") as dst:
        json.dump({"alloc_peaks": peaks}, dst)
    if trace:
        spans.dump(out + ".spans.gz")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
