"""Ablation — GBU seed ordering: probability-desc vs random vs asc.

Section 5.3 of the paper ranks seed edges in descending probability "as
a heuristic". This ablation quantifies the choice on FruitFly: the
descending order should find trusses at least as dense as random or
ascending orders, at comparable cost.
"""

import time

import pytest

from repro import (
    GlobalTrussOracle,
    WorldSampleSet,
    local_truss_decomposition,
    probabilistic_density,
)
from repro.core.global_decomp import global_truss_decomposition

from benchmarks.conftest import cached_dataset, print_header, run_once

_GAMMA = 0.5
_ORDERS = ("probability-desc", "probability-asc", "random")


def test_ablation_gbu_seed_order(benchmark):
    graph = cached_dataset("fruitfly")
    local = local_truss_decomposition(graph, _GAMMA)
    rows = []

    def sweep():
        from repro.core.global_decomp import bottom_up_search
        from repro.core.global_decomp import _edge_subgraphs_of_components
        from repro.parallel import ParallelExecutor

        samples = WorldSampleSet.from_graph(graph, 150, seed=1)
        oracle = GlobalTrussOracle(samples)
        k = 4
        candidate_edges = {
            e for e, tau in local.trussness.items() if tau >= k
        }
        components = _edge_subgraphs_of_components(graph, candidate_edges)
        for order in _ORDERS:
            t0 = time.perf_counter()
            found = []
            with ParallelExecutor(1, graph=graph, oracle=oracle) as executor:
                for comp_index, piece in enumerate(components):
                    found.extend(bottom_up_search(
                        executor, oracle, k, piece, _GAMMA, root=7,
                        comp_index=comp_index, seed_order=order,
                    ))
            elapsed = time.perf_counter() - t0
            density = (
                sum(probabilistic_density(t) for t in found) / len(found)
                if found else 0.0
            )
            rows.append((order, len(found), density, elapsed))
        return rows

    run_once(benchmark, sweep)

    print_header(
        f"Ablation (fruitfly, k=4, gamma={_GAMMA}): GBU seed ordering",
        f"{'order':<18} {'#found':>7} {'avg density':>12} {'time':>7}",
    )
    for order, n, density, elapsed in rows:
        print(f"{order:<18} {n:>7} {density:>12.4f} {elapsed:>7.2f}")

    by_order = {r[0]: r for r in rows}
    # The paper's heuristic should not lose to ascending order on density.
    if by_order["probability-desc"][1] and by_order["probability-asc"][1]:
        assert (
            by_order["probability-desc"][2]
            >= by_order["probability-asc"][2] * 0.95
        )
    # All orders find at least one satisfying truss at k = 4 here.
    assert all(r[1] >= 1 for r in rows)
