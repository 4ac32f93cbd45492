"""Unit tests for the task-driven team-formation application (Section 6.5)."""

import pytest

from repro import ParameterError
from repro.apps.team_formation import (
    CollaborationNetwork,
    generate_collaboration_network,
    team_by_eta_core,
    team_by_global_truss,
    team_by_local_truss,
)

QUERY = ["Jeffrey D. Ullman", "Piotr Indyk"]
KEYWORDS = ["data", "algorithm"]
GAMMA = 1e-3


@pytest.fixture(scope="module")
def network() -> CollaborationNetwork:
    return generate_collaboration_network(seed=11)


@pytest.fixture(scope="module")
def task_graph(network):
    return network.task_graph(KEYWORDS)


class TestNetworkGeneration:
    def test_query_authors_planted(self, network):
        g = network.structure
        assert g.has_node(QUERY[0]) and g.has_node(QUERY[1])
        assert g.has_edge(QUERY[0], QUERY[1])

    def test_keyword_bags_exist(self, network):
        assert network.keywords
        some_bag = next(iter(network.keywords.values()))
        assert sum(some_bag.values()) > 0

    def test_deterministic(self):
        a = generate_collaboration_network(seed=5)
        b = generate_collaboration_network(seed=5)
        assert a.structure == b.structure
        assert a.keywords == b.keywords

    def test_unknown_area_rejected(self):
        with pytest.raises(ParameterError):
            generate_collaboration_network(seed=1, query_areas=("quantum",))


class TestTaskGraph:
    def test_probabilities_valid(self, task_graph):
        assert all(
            0.0 < p <= 1.0 for _, _, p in task_graph.edges_with_probabilities()
        )

    def test_relevant_edges_stronger(self, network, task_graph):
        # The planted bridge edge must beat the median off-topic edge.
        bridge_p = task_graph.probability(QUERY[0], QUERY[1])
        probs = sorted(p for _, _, p in task_graph.edges_with_probabilities())
        median = probs[len(probs) // 2]
        assert bridge_p > median

    def test_different_keywords_change_probabilities(self, network):
        g1 = network.task_graph(["data"])
        g2 = network.task_graph(["logic"])
        diffs = sum(
            1
            for u, v, p in g1.edges_with_probabilities()
            if abs(p - g2.probability(u, v)) > 1e-12
        )
        assert diffs > 0

    def test_empty_keywords_rejected(self, network):
        with pytest.raises(ParameterError):
            network.task_graph([])


class TestLocalTeam:
    def test_finds_team_with_query(self, task_graph):
        team = team_by_local_truss(task_graph, QUERY, GAMMA)
        assert team is not None
        assert team.contains_query
        assert team.k >= 3
        for q in QUERY:
            assert team.subgraph.has_node(q)

    def test_missing_query_node_rejected(self, task_graph):
        with pytest.raises(ParameterError):
            team_by_local_truss(task_graph, ["Nobody"], GAMMA)

    def test_impossible_gamma_returns_none(self, task_graph):
        assert team_by_local_truss(task_graph, QUERY, 1.0) is None

    def test_quality_metrics_available(self, task_graph):
        team = team_by_local_truss(task_graph, QUERY, GAMMA)
        assert 0.0 <= team.density <= 1.0
        assert 0.0 <= team.pcc <= 1.0 + 1e-9
        assert team.n_members == team.subgraph.number_of_nodes()
        assert team.n_edges == team.subgraph.number_of_edges()


class TestGlobalTeam:
    def test_global_refines_local(self, task_graph):
        local = team_by_local_truss(task_graph, QUERY, GAMMA)
        teams = team_by_global_truss(task_graph, QUERY, GAMMA, seed=2)
        assert teams
        for team in teams:
            # Global teams are subgraphs of the local team (the paper
            # feeds the local truss into the global decomposition).
            assert set(team.subgraph.nodes()) <= set(local.subgraph.nodes())
            assert team.n_members <= local.n_members

    def test_global_no_less_cohesive_than_local(self, task_graph):
        # Figure 10's headline: global trusses are at most as large and
        # (essentially) at least as dense. Density equality happens when
        # the global refinement confirms the whole local team; a small
        # slack absorbs heuristic tie-breaking.
        local = team_by_local_truss(task_graph, QUERY, GAMMA)
        teams = team_by_global_truss(task_graph, QUERY, GAMMA, seed=2)
        best = teams[0]
        assert best.n_members <= local.n_members
        assert best.density >= local.density * 0.9

    def test_impossible_gamma_returns_empty(self, task_graph):
        assert team_by_global_truss(task_graph, QUERY, 1.0, seed=2) == []


class TestCoreTeam:
    def test_core_team_exists_and_is_larger(self, task_graph):
        core = team_by_eta_core(task_graph, QUERY, GAMMA)
        truss = team_by_local_truss(task_graph, QUERY, GAMMA)
        assert core is not None
        assert core.contains_query
        # The paper's comparison: cores balloon, trusses stay tight.
        assert core.n_members >= truss.n_members

    def test_truss_denser_than_core(self, task_graph):
        core = team_by_eta_core(task_graph, QUERY, GAMMA)
        truss = team_by_local_truss(task_graph, QUERY, GAMMA)
        assert truss.density >= core.density

    def test_missing_query_rejected(self, task_graph):
        with pytest.raises(ParameterError):
            team_by_eta_core(task_graph, ["Nobody"], GAMMA)


class TestTeamAcrossHashSeeds:
    def test_repro_team_output_is_hash_seed_independent(self):
        # The team study's graphs have string nodes. Maximal trusses are
        # built from edge clusters and node subgraphs, so cluster and
        # subgraph order must not follow set order: otherwise GBU seeds
        # components in a different order and reports different teams.
        import os
        import pathlib
        import subprocess
        import sys

        repo_root = pathlib.Path(__file__).resolve().parent.parent
        outputs = set()
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=str(repo_root / "src"))
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "--seed", "42", "team"],
                capture_output=True, text=True, check=True,
                env=env, cwd=repo_root, timeout=120,
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1, outputs
