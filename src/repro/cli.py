"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands
-----------
* ``repro datasets`` — list the bundled synthetic datasets with stats.
* ``repro stats GRAPH`` — Table 1 statistics of a graph (file or dataset).
* ``repro local GRAPH --gamma G`` — local (k, gamma)-truss decomposition.
* ``repro global GRAPH --gamma G [--method gbu|gtd]`` — global trusses.
* ``repro nucleus GRAPH --gamma G [--r 3 --s 4]`` — probabilistic
  (r, s)-nucleus decomposition; ``(2, 3)`` coincides with ``local`` and
  ``(1, 2)`` is the (k, eta)-core with ``eta = gamma``, offset by 2.
* ``repro team --keywords data algorithm --gamma G`` — the Section 6.5
  team-formation case study on the synthetic collaboration network.
* ``repro lint [PATHS...]`` — run the reprolint static invariant
  checker (determinism / parallel safety / progress protocol /
  exception taxonomy); exits 0 clean, 1 with findings, 2 on usage
  errors. See ``docs/static-analysis.md``.
* ``repro serve --state-dir DIR`` — the fault-tolerant HTTP query
  service over persistent decomposition indexes; see
  ``docs/serving.md``.

``GRAPH`` is either a dataset name (see ``repro datasets``) or a path to
an edge-list / JSON graph file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.datasets import DATASET_NAMES, dataset_statistics, load_dataset
from repro.exceptions import (
    CheckpointError,
    ComputationInterrupted,
    DatasetError,
    ParameterError,
)
from repro.graphs.io import read_edge_list, read_json_graph
from repro.graphs.probabilistic import ProbabilisticGraph
from repro.core.local import local_truss_decomposition
from repro.core.metrics import probabilistic_density
from repro.runtime import (
    Budget,
    InterruptGuard,
    run_global,
    run_local,
    run_nucleus,
    run_reliability,
)

__all__ = ["main", "build_parser"]


def _load_graph(spec: str, seed: int | None) -> ProbabilisticGraph:
    """Resolve ``spec`` as a dataset name or a graph file path."""
    if spec.lower() in DATASET_NAMES:
        return load_dataset(spec, seed=seed)
    path = Path(spec)
    if not path.exists():
        raise SystemExit(
            f"error: {spec!r} is neither a dataset name "
            f"({', '.join(DATASET_NAMES)}) nor an existing file"
        )
    if path.suffix == ".json":
        return read_json_graph(path)
    return read_edge_list(path)


def _cmd_datasets(args: argparse.Namespace) -> int:
    if args.write:
        from repro.datasets.registry import export_datasets

        paths = export_datasets(args.write, seed=args.seed,
                                scale=args.scale, compress=args.compress)
        for path in paths:
            print(path)
        return 0
    print(f"{'name':<12} {'nodes':>7} {'edges':>8} {'d_max':>6} "
          f"{'largest CC':>11} {'#comp':>6}")
    for name in DATASET_NAMES:
        graph = load_dataset(name, seed=args.seed, scale=args.scale)
        stats = dataset_statistics(graph)
        print(f"{name:<12} {stats['nodes']:>7} {stats['edges']:>8} "
              f"{stats['max_degree']:>6} {stats['largest_cc_edges']:>11} "
              f"{stats['components']:>6}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.core.stats import profile_graph

    graph = _load_graph(args.graph, args.seed)
    stats = dataset_statistics(graph)
    for key, value in stats.items():
        print(f"{key}: {value}")
    profile = profile_graph(graph)
    print(f"mean_degree: {profile.mean_degree:.3f}")
    print(f"expected_edges: {profile.expected_edges:.1f}")
    print(f"expected_triangles: {profile.expected_triangles:.1f}")
    print(f"structural_triangles: {profile.structural_triangles}")
    print(f"probability_median: {profile.probability_median:.4f}")
    print(f"density: {profile.density:.6f}")
    print(f"pcc: {profile.pcc:.6f}")
    print(f"clustering: {profile.clustering:.6f}")
    return 0


def _workers_arg(value: str) -> int | str:
    """Parse ``--workers``: a positive integer or the literal ``auto``."""
    if value == "auto":
        return value
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {value!r}"
        ) from None


def _make_budget(args: argparse.Namespace) -> Budget | None:
    """Build the cooperative budget requested on the command line."""
    deadline = getattr(args, "deadline", None)
    max_samples = getattr(args, "max_samples", None)
    max_memory = getattr(args, "max_memory", None)
    if deadline is None and max_samples is None and max_memory is None:
        return None
    return Budget(
        deadline=deadline, max_samples=max_samples,
        max_memory_bytes=(
            None if max_memory is None else int(max_memory * 1024 * 1024)
        ),
    )


def _make_progress(guard: InterruptGuard, args: argparse.Namespace):
    """The progress hook: the interrupt guard plus an optional watchdog.

    Returns ``(hook, watchdog)``; the watchdog is None unless
    ``--watchdog SECONDS`` was given, in which case its one-line status
    summary is printed after the run.
    """
    watchdog_interval = getattr(args, "watchdog", None)
    if watchdog_interval is None:
        return guard.check, None
    from repro.runtime import chain_hooks
    from repro.runtime.pressure import ResourceWatchdog

    max_memory = getattr(args, "max_memory", None)
    watchdog = ResourceWatchdog(
        probe_dir=getattr(args, "checkpoint", None),
        interval=watchdog_interval,
        memory_limit_bytes=(
            None if max_memory is None else int(max_memory * 1024 * 1024)
        ),
    )
    return chain_hooks(guard.check, watchdog), watchdog


def _cmd_local(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph, args.seed)
    with InterruptGuard() as guard:
        progress, watchdog = _make_progress(guard, args)
        partial = run_local(
            graph, args.gamma, method=args.method,
            budget=_make_budget(args), checkpoint_dir=args.checkpoint,
            resume=args.resume, progress=progress,
        )
    if watchdog is not None:
        print(watchdog.status())
    result = partial.result
    print(f"gamma={args.gamma} k_max={result.k_max}")
    for k in range(2, result.k_max + 1):
        trusses = result.maximal_trusses(k)
        sizes = sorted(
            (t.number_of_nodes(), t.number_of_edges()) for t in trusses
        )
        print(f"k={k}: {len(trusses)} maximal local trusses "
              f"(largest: {sizes[-1][0]} nodes / {sizes[-1][1]} edges)")
        if args.verbose:
            for t in trusses:
                print(f"    nodes={sorted(map(str, t.nodes()))}")
    if partial.degraded or not partial.complete:
        print(partial.summary())
    return 0


def _cmd_nucleus(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph, args.seed)
    with InterruptGuard() as guard:
        progress, watchdog = _make_progress(guard, args)
        partial = run_nucleus(
            graph, args.r, args.s, args.gamma, method=args.method,
            budget=_make_budget(args), checkpoint_dir=args.checkpoint,
            resume=args.resume, progress=progress,
        )
    if watchdog is not None:
        print(watchdog.status())
    result = partial.result
    print(f"({args.r},{args.s})-nucleus gamma={args.gamma} "
          f"cliques={len(result.scores)} k_max={result.k_max}")
    for k in range(2, result.k_max + 1):
        cliques = result.nucleus_cliques(k)
        edges = result.nucleus_edges(k)
        nodes = {w for cell in cliques for w in cell}
        print(f"k={k}: {len(cliques)} r-cliques over {len(nodes)} nodes / "
              f"{len(edges)} edges")
        if args.verbose:
            for cell in sorted(cliques, key=lambda c: tuple(map(str, c))):
                print(f"    {tuple(map(str, cell))} "
                      f"nu={result.scores[cell]}")
    if partial.degraded or not partial.complete:
        print(partial.summary())
    return 0


def _cmd_global(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph, args.seed)
    with InterruptGuard() as guard:
        progress, watchdog = _make_progress(guard, args)
        partial = run_global(
            graph, args.gamma, epsilon=args.epsilon, delta=args.delta,
            method=args.method, seed=args.seed, max_k=args.max_k,
            max_states=args.max_states,
            batch_size=args.batch_size, budget=_make_budget(args),
            checkpoint_dir=args.checkpoint, resume=args.resume,
            progress=progress, workers=args.workers,
            task_timeout=args.task_timeout,
            task_cpu_timeout=args.task_cpu_timeout,
            max_task_retries=args.max_task_retries,
            spill_dir=args.spill_dir,
        )
    if watchdog is not None:
        print(watchdog.status())
    result = partial.result
    if result is None:
        print(partial.summary())
        return 1
    print(f"gamma={args.gamma} method={result.method} "
          f"N={result.n_samples} k_max={result.k_max}")
    for k in sorted(result.trusses):
        trusses = result.trusses[k]
        print(f"k={k}: {len(trusses)} maximal approximate global trusses")
        if args.verbose:
            for t in trusses:
                print(f"    nodes={sorted(map(str, t.nodes()))} "
                      f"density={probabilistic_density(t):.4f}")
    if partial.degraded or not partial.complete:
        print(partial.summary())
    return 0


def _cmd_frontier(args: argparse.Namespace) -> int:
    from repro.core.frontier import truss_frontier

    graph = _load_graph(args.graph, args.seed)
    frontier = truss_frontier(graph)
    print(f"structural k_max = {frontier.k_max}")
    if args.edge:
        u, v = args.edge
        node_u: object = u
        node_v: object = v
        if not graph.has_edge(node_u, node_v):
            try:
                node_u, node_v = int(u), int(v)
            except ValueError:
                pass
        if not graph.has_edge(node_u, node_v):
            raise SystemExit(f"error: edge ({u!r}, {v!r}) is not in the graph")
        print(f"edge ({u}, {v}) cohesion/confidence curve:")
        for k, gamma in frontier.edge_profile(node_u, node_v):
            print(f"  k={k}: gamma_k = {gamma:.6g}")
    else:
        for k in range(3, frontier.k_max + 1):
            for gamma in (0.2, 0.5, 0.8):
                trusses = frontier.maximal_trusses(k, gamma)
                if trusses:
                    largest = max(t.number_of_nodes() for t in trusses)
                    print(f"k={k} gamma={gamma}: {len(trusses)} maximal "
                          f"trusses (largest {largest} nodes)")
    return 0


def _cmd_modules(args: argparse.Namespace) -> int:
    from repro.apps.modules import detect_modules

    graph = _load_graph(args.graph, args.seed)
    modules = detect_modules(
        graph, args.gamma, min_k=args.min_k, min_nodes=args.min_nodes,
        refine_global=args.refine, seed=args.seed,
        max_modules=args.top,
    )
    print(f"{len(modules)} modules (gamma={args.gamma}, "
          f"min_k={args.min_k}{', globally refined' if args.refine else ''})")
    for i, m in enumerate(modules, start=1):
        print(f"{i:>3}. k={m.k} kind={m.kind} members={m.n_nodes} "
              f"edges={m.n_edges} density={m.density:.3f} "
              f"pcc={m.pcc:.3f} score={m.score:.3f}")
        if args.verbose:
            print(f"     {sorted(map(str, m.nodes))}")
    return 0


def _cmd_clique(args: argparse.Namespace) -> int:
    from repro.apps.cliques import (
        clique_probability,
        maximum_clique,
        maximum_reliable_clique,
    )

    graph = _load_graph(args.graph, args.seed)
    clique = maximum_clique(graph)
    prob = clique_probability(graph, clique) if len(clique) >= 2 else 1.0
    print(f"maximum clique: {len(clique)} nodes "
          f"(existence probability {prob:.4f})")
    if args.verbose:
        print(f"  {sorted(map(str, clique))}")
    if args.gamma is not None:
        reliable, rprob = maximum_reliable_clique(graph, args.gamma)
        print(f"largest clique with probability >= {args.gamma}: "
              f"{len(reliable)} nodes (probability {rprob:.4f})")
        if args.verbose and reliable:
            print(f"  {sorted(map(str, reliable))}")
    return 0


def _cmd_community(args: argparse.Namespace) -> int:
    from repro.apps.community import community_hierarchy

    graph = _load_graph(args.graph, args.seed)
    node: object = args.node
    if not graph.has_node(node):
        try:
            node = int(args.node)
        except ValueError:
            pass
    if not graph.has_node(node):
        raise SystemExit(f"error: node {args.node!r} is not in the graph")
    hierarchy = community_hierarchy(graph, node, args.gamma)
    if not hierarchy:
        print(f"node {args.node!r}: no community at gamma={args.gamma}")
        return 0
    print(f"community hierarchy of {args.node!r} (gamma={args.gamma}):")
    for k in sorted(hierarchy):
        c = hierarchy[k]
        print(f"  k={k}: {c.number_of_nodes()} nodes, "
              f"{c.number_of_edges()} edges")
        if args.verbose:
            print(f"     {sorted(map(str, c.nodes()))}")
    return 0


def _cmd_reliability(args: argparse.Namespace) -> int:
    from repro.core.reliability import network_reliability_exact

    graph = _load_graph(args.graph, args.seed)
    with InterruptGuard() as guard:
        progress, watchdog = _make_progress(guard, args)
        partial = run_reliability(
            graph, n_samples=args.samples, seed=args.seed,
            budget=_make_budget(args), checkpoint_dir=args.checkpoint,
            resume=args.resume, progress=progress, workers=args.workers,
            task_timeout=args.task_timeout,
            task_cpu_timeout=args.task_cpu_timeout,
            max_task_retries=args.max_task_retries,
        )
    if watchdog is not None:
        print(watchdog.status())
    if partial.result is None:
        print(partial.summary())
        return 1
    print(f"Monte-Carlo reliability ({partial.n_samples_drawn} samples): "
          f"{partial.result:.4f}")
    if graph.number_of_edges() <= 22:
        exact = network_reliability_exact(graph)
        print(f"exact reliability: {exact:.6f}")
    if partial.degraded or not partial.complete:
        print(partial.summary())
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.graphs.export import hierarchy_to_json, to_dot, write_gexf
    from repro.truss.decomposition import truss_decomposition

    graph = _load_graph(args.graph, args.seed)
    if args.format == "dot":
        tau = truss_decomposition(graph)
        text = to_dot(graph, trussness=tau)
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            print(text, end="")
    elif args.format == "gexf":
        if not args.output:
            raise SystemExit("error: --output is required for gexf")
        tau = truss_decomposition(graph)
        write_gexf(graph, args.output, trussness=tau)
    else:  # hierarchy
        result = local_truss_decomposition(graph, args.gamma)
        text = hierarchy_to_json(result)
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            print(text)
    return 0


def _cmd_gamma(args: argparse.Namespace) -> int:
    from repro.core.gamma_decomp import gamma_truss_decomposition

    graph = _load_graph(args.graph, args.seed)
    result = gamma_truss_decomposition(graph, args.k)
    thresholds = result.thresholds()
    print(f"k={args.k}: {len(thresholds)} distinct gamma thresholds")
    shown = thresholds if args.verbose else thresholds[: args.top]
    for gamma in shown:
        trusses = result.maximal_trusses_at(gamma)
        largest = max(t.number_of_nodes() for t in trusses)
        print(f"gamma >= {gamma:.6g}: {len(trusses)} maximal trusses "
              f"(largest: {largest} nodes)")
    if not args.verbose and len(thresholds) > args.top:
        print(f"... {len(thresholds) - args.top} more (use --verbose)")
    return 0


def _cmd_team(args: argparse.Namespace) -> int:
    from repro.apps.team_formation import (
        generate_collaboration_network,
        team_by_eta_core,
        team_by_global_truss,
        team_by_local_truss,
    )

    network = generate_collaboration_network(seed=args.seed)
    query = list(args.query)
    task_graph = network.task_graph(args.keywords)
    print(f"query={query} keywords={args.keywords} gamma={args.gamma}")

    local = team_by_local_truss(task_graph, query, args.gamma)
    if local is None:
        print("local truss: no team found")
    else:
        print(f"local truss:  k={local.k} members={local.n_members} "
              f"edges={local.n_edges} density={local.density:.4f} "
              f"pcc={local.pcc:.4f}")
    for team in team_by_global_truss(task_graph, query, args.gamma,
                                     seed=args.seed)[:3]:
        print(f"global truss: k={team.k} members={team.n_members} "
              f"edges={team.n_edges} density={team.density:.4f} "
              f"pcc={team.pcc:.4f} contains_query={team.contains_query}")
    core = team_by_eta_core(task_graph, query, args.gamma)
    if core is None:
        print("eta-core: no team found")
    else:
        print(f"eta-core:     k={core.k} members={core.n_members} "
              f"edges={core.n_edges} density={core.density:.4f} "
              f"pcc={core.pcc:.4f}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServeConfig, serve

    config = ServeConfig(
        state_dir=args.state_dir,
        host=args.host,
        port=args.port,
        seed=args.seed,
        workers=args.workers,
        default_deadline=args.default_deadline,
        max_deadline=args.max_deadline,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        grace=args.grace,
        breaker_threshold=args.breaker_threshold,
        backoff_base=args.backoff_base,
        backoff_cap=args.backoff_cap,
        watchdog_interval=args.watchdog,
        max_memory_mb=args.max_memory,
        min_free_mb=args.min_free,
        batch_size=args.batch_size,
        build_throttle=args.build_throttle,
        trace=args.trace,
    )
    return serve(config)


def _changed_py_files(ref: str) -> list[Path] | None:
    """Python files changed vs ``ref`` plus untracked ones, as absolute
    paths; None when the current directory is not inside a git checkout
    (the caller falls back to a full lint)."""
    import subprocess

    def git(*argv: str):
        return subprocess.run(
            ["git", *argv], capture_output=True, text=True, check=False)

    probe = git("rev-parse", "--show-toplevel")
    if probe.returncode != 0:
        return None
    toplevel = Path(probe.stdout.strip())
    diff = git("diff", "--name-only", "--diff-filter=d", ref, "--")
    if diff.returncode != 0:
        raise ParameterError(
            f"git diff against {ref!r} failed: "
            f"{diff.stderr.strip() or 'unknown git error'}")
    untracked = git("ls-files", "--others", "--exclude-standard")
    names = set(diff.stdout.splitlines())
    if untracked.returncode == 0:
        names |= set(untracked.stdout.splitlines())
    return sorted(
        toplevel / name for name in names if name.endswith(".py"))


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import render_json, render_text, run_lint

    if args.paths:
        paths = list(args.paths)
    else:
        # Default to the tree the CI gate lints, relative to cwd;
        # only complain when *nothing* is found.
        paths = [p for p in ("src/repro", "benchmarks", "examples")
                 if Path(p).exists()]
        if not paths:
            raise ParameterError(
                "no lint paths given and none of src/repro, "
                "benchmarks, examples exist under the current "
                "directory"
            )
    if args.changed is not None:
        changed = _changed_py_files(args.changed)
        if changed is None:
            print("repro lint: not inside a git checkout; --changed "
                  "ignored, running a full lint", file=sys.stderr)
        else:
            roots = [Path(p).resolve() for p in paths]
            paths = [
                str(file) for file in changed
                if file.exists() and any(
                    file.resolve() == root or root in file.resolve().parents
                    for root in roots)
            ]
            if not paths:
                print(f"0 changed file(s) vs {args.changed} under the "
                      "lint paths; clean")
                return 0
    select = None
    if args.select:
        select = [token.strip() for chunk in args.select
                  for token in chunk.split(",") if token.strip()]
    result = run_lint(paths, select=select)
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return 0 if result.clean else 1


def _add_runtime_options(p: argparse.ArgumentParser) -> None:
    """Robustness options shared by the long-running subcommands."""
    g = p.add_argument_group("robustness")
    g.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="wall-clock budget; on breach, return an honestly "
                        "degraded partial result instead of failing")
    g.add_argument("--max-samples", type=int, default=None, metavar="N",
                   help="cap on Monte-Carlo samples actually drawn")
    g.add_argument("--max-memory", type=float, default=None, metavar="MIB",
                   help="peak-RSS budget in MiB checked at batch "
                        "boundaries; on breach the run degrades, except "
                        "that 'global' sampling moves its samples to disk "
                        "and keeps the output byte-identical")
    g.add_argument("--watchdog", type=float, default=None, metavar="SECONDS",
                   help="probe memory/disk/CPU pressure at most every "
                        "SECONDS during the run, emit resource-pressure "
                        "events, and print a one-line summary at the end")
    g.add_argument("--checkpoint", default=None, metavar="DIR",
                   help="write resumable snapshots to DIR at every batch "
                        "boundary")
    g.add_argument("--resume", action="store_true",
                   help="continue from the checkpoint in --checkpoint DIR "
                        "(bit-identical to an uninterrupted run)")


def _add_workers_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=_workers_arg, default=None, metavar="N",
                   help="fan compute-bound stages across N worker processes "
                        "('auto' = CPU count); output is bit-identical for "
                        "every N and without the flag — see "
                        "docs/performance.md")
    p.add_argument("--task-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="kill a worker that holds one parallel task longer "
                        "than this and retry the task (default: no timeout); "
                        "see docs/robustness.md")
    p.add_argument("--task-cpu-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="kill a worker whose CPU clock stands still for "
                        "this many wall seconds while it holds a task "
                        "(wedged), but keep extending grace while CPU "
                        "advances (merely busy); default: no CPU "
                        "supervision")
    p.add_argument("--max-task-retries", type=int, default=None, metavar="K",
                   help="crashes/timeouts one task payload survives before "
                        "it is quarantined and the run degrades around it "
                        "(default 2)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Truss decomposition of probabilistic graphs "
                    "(SIGMOD 2016 reproduction)",
    )
    parser.add_argument("--seed", type=int, default=42,
                        help="RNG seed for datasets and sampling")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="list bundled synthetic datasets")
    p.add_argument("--write", metavar="DIR", default=None,
                   help="materialise all datasets as edge lists in DIR")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--compress", action="store_true",
                   help="gzip the written edge lists")
    p.set_defaults(func=_cmd_datasets)

    p = sub.add_parser("stats", help="graph statistics (Table 1 columns)")
    p.add_argument("graph", help="dataset name or graph file")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("local", help="local (k, gamma)-truss decomposition")
    p.add_argument("graph", help="dataset name or graph file")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--method", choices=["dp", "baseline"], default="dp")
    p.add_argument("--verbose", action="store_true")
    _add_runtime_options(p)
    p.set_defaults(func=_cmd_local)

    p = sub.add_parser(
        "nucleus",
        help="probabilistic (r, s)-nucleus decomposition "
             "((1,2) = (k, eta)-core, (2,3) = truss oracle, "
             "(3,4) = triangles in 4-cliques)",
    )
    p.add_argument("graph", help="dataset name or graph file")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--r", type=int, default=3, dest="r",
                   help="clique size being scored (1, 2 or 3; default 3)")
    p.add_argument("--s", type=int, default=4, dest="s",
                   help="supporting clique size (must be r + 1; default 4)")
    p.add_argument("--method", choices=["dp", "baseline"], default="dp")
    p.add_argument("--verbose", action="store_true")
    _add_runtime_options(p)
    p.set_defaults(func=_cmd_nucleus)

    p = sub.add_parser("global", help="global (k, gamma)-truss decomposition")
    p.add_argument("graph", help="dataset name or graph file")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--method", choices=["gbu", "gtd"], default="gbu")
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument("--max-states", type=int, default=None,
                   help="abort the exact GTD search once one component's "
                        "explored state closure exceeds this many residual "
                        "subgraphs (default: the library's built-in cap)")
    p.add_argument("--batch-size", type=int, default=25,
                   help="sampling rows per checkpoint/budget boundary")
    p.add_argument("--spill-dir", default=None, metavar="DIR",
                   help="directory for spilled sample files (default: a "
                        "private temp directory, removed after the run)")
    p.add_argument("--verbose", action="store_true")
    _add_runtime_options(p)
    _add_workers_option(p)
    p.set_defaults(func=_cmd_global)

    p = sub.add_parser(
        "frontier",
        help="full (k, gamma) truss frontier; optionally one edge's curve",
    )
    p.add_argument("graph", help="dataset name or graph file")
    p.add_argument("--edge", nargs=2, metavar=("U", "V"), default=None,
                   help="print the cohesion/confidence curve of one edge")
    p.set_defaults(func=_cmd_frontier)

    p = sub.add_parser("modules", help="detect and rank cohesive modules")
    p.add_argument("graph", help="dataset name or graph file")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--min-k", type=int, default=3)
    p.add_argument("--min-nodes", type=int, default=3)
    p.add_argument("--refine", action="store_true",
                   help="refine with the global decomposition (GBU)")
    p.add_argument("--top", type=int, default=20)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_modules)

    p = sub.add_parser("clique", help="maximum (reliable) clique")
    p.add_argument("graph", help="dataset name or graph file")
    p.add_argument("--gamma", type=float, default=None,
                   help="also find the largest gamma-reliable clique")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_clique)

    p = sub.add_parser("community", help="truss community search")
    p.add_argument("graph", help="dataset name or graph file")
    p.add_argument("node", help="query node label")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_community)

    p = sub.add_parser("reliability", help="network reliability estimate")
    p.add_argument("graph", help="dataset name or graph file")
    p.add_argument("--samples", type=int, default=2000)
    _add_runtime_options(p)
    _add_workers_option(p)
    p.set_defaults(func=_cmd_reliability)

    p = sub.add_parser("export", help="export a graph for visualization")
    p.add_argument("graph", help="dataset name or graph file")
    p.add_argument("--format", choices=["dot", "gexf", "hierarchy"],
                   default="dot")
    p.add_argument("--gamma", type=float, default=0.5,
                   help="gamma for the hierarchy format (default 0.5)")
    p.add_argument("--output", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser(
        "gamma",
        help="fixed-k decomposition over all gamma thresholds (paper §7)",
    )
    p.add_argument("graph", help="dataset name or graph file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--top", type=int, default=10,
                   help="show only the top thresholds (default 10)")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser(
        "lint",
        help="static invariant checker (determinism, parallel safety, "
             "progress/exception protocols)",
    )
    p.add_argument("paths", nargs="*",
                   help="files or directories to lint (default: "
                        "src/repro benchmarks examples)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--select", action="append", metavar="RULES",
                   default=None,
                   help="comma-separated rule ids or families to check "
                        "(e.g. DET001,EXC003 or CONC); default: all "
                        "rules")
    p.add_argument("--changed", nargs="?", const="HEAD", default=None,
                   metavar="REF",
                   help="lint only files changed vs the given git ref "
                        "(default HEAD) — fast pre-commit runs; falls "
                        "back to a full lint outside a git checkout")
    p.add_argument("--verbose", action="store_true",
                   help="also list suppressed findings with their "
                        "pragma justifications")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "serve",
        help="fault-tolerant HTTP query service over persistent "
             "decomposition indexes (see docs/serving.md)",
    )
    p.add_argument("--state-dir", required=True, metavar="DIR",
                   help="directory holding the persistent indexes and "
                        "build checkpoints; a warm restart resumes "
                        "interrupted builds from here byte-identically")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default 0 = ephemeral; the bound "
                        "address is printed on startup)")
    p.add_argument("--workers", type=_workers_arg, default=None, metavar="N",
                   help="worker processes for background global index "
                        "builds ('auto' = CPU count); results are "
                        "bit-identical for every N")
    p.add_argument("--default-deadline", type=float, default=5.0,
                   metavar="SECONDS",
                   help="per-request deadline when the client sends none; "
                        "slow queries return honestly degraded partial "
                        "payloads instead of hanging")
    p.add_argument("--max-deadline", type=float, default=60.0,
                   metavar="SECONDS",
                   help="ceiling on client-requested ?deadline= values")
    p.add_argument("--max-inflight", type=int, default=8,
                   help="requests processed concurrently before arrivals "
                        "queue")
    p.add_argument("--max-queue", type=int, default=16,
                   help="requests allowed to queue for a slot; beyond "
                        "this, arrivals are shed with 503 + Retry-After")
    p.add_argument("--grace", type=float, default=10.0, metavar="SECONDS",
                   help="drain budget on SIGTERM/SIGINT: finish in-flight "
                        "requests and checkpoint the in-progress build "
                        "within this window, then exit 143/130")
    p.add_argument("--breaker-threshold", type=int, default=3,
                   help="consecutive build failures before an index's "
                        "circuit breaker opens and rebuilds back off "
                        "exponentially")
    p.add_argument("--backoff-base", type=float, default=0.5,
                   metavar="SECONDS",
                   help="initial rebuild backoff when a breaker opens "
                        "(doubles per failure, capped)")
    p.add_argument("--backoff-cap", type=float, default=30.0,
                   metavar="SECONDS",
                   help="ceiling on the breaker's exponential rebuild "
                        "backoff")
    p.add_argument("--watchdog", type=float, default=None, metavar="SECONDS",
                   help="probe memory/disk pressure at this cadence and "
                        "shed requests (503) while thresholds are "
                        "exceeded")
    p.add_argument("--max-memory", type=float, default=None, metavar="MIB",
                   help="peak-RSS pressure threshold for --watchdog "
                        "shedding")
    p.add_argument("--min-free", type=float, default=None, metavar="MIB",
                   help="free-disk pressure threshold for --watchdog "
                        "shedding")
    p.add_argument("--batch-size", type=int, default=25,
                   help="sampling rows per checkpoint boundary in "
                        "background builds")
    p.add_argument("--build-throttle", type=float, default=0.0,
                   metavar="SECONDS",
                   help="sleep this long per sample batch during builds "
                        "(testing aid: makes a kill land mid-build "
                        "deterministically)")
    p.add_argument("--trace", action="store_true",
                   help="print one line per service event (request, "
                        "response, shed, build, breaker, drain)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("team", help="task-driven team formation case study")
    p.add_argument("--query", nargs="+",
                   default=["Jeffrey D. Ullman", "Piotr Indyk"])
    p.add_argument("--keywords", nargs="+", default=["data", "algorithm"])
    p.add_argument("--gamma", type=float, default=1e-3)
    p.set_defaults(func=_cmd_team)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    An interrupted computation (cooperative) exits with the signal's
    conventional status — 130 for SIGINT, 143 for SIGTERM — and a
    one-line pointer to the checkpoint instead of a traceback; a corrupt
    or malformed input graph exits 2 with the parser's diagnostic.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ComputationInterrupted as err:
        where = err.checkpoint_path
        if where:
            print(f"interrupted — partial results at {where}",
                  file=sys.stderr)
        else:
            print("interrupted — no checkpoint written "
                  "(rerun with --checkpoint DIR to make runs resumable)",
                  file=sys.stderr)
        return getattr(err, "exit_code", None) or 130
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (DatasetError, CheckpointError, ParameterError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
