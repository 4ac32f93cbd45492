"""repro — truss decomposition of probabilistic graphs.

A from-scratch reproduction of *"Truss Decomposition of Probabilistic
Graphs: Semantics and Algorithms"* (Huang, Lu, Lakshmanan — SIGMOD 2016).

Quickstart
----------
>>> from repro import ProbabilisticGraph, local_truss_decomposition
>>> g = ProbabilisticGraph()
>>> for u, v in [(0, 1), (1, 2), (0, 2), (2, 3)]:
...     g.add_edge(u, v, 0.9)
>>> result = local_truss_decomposition(g, gamma=0.5)
>>> result.trussness_of(0, 1)
3

See README.md for the full tour and DESIGN.md for the paper mapping.
"""

from repro.exceptions import (
    BudgetExceededError,
    CheckpointError,
    ComputationInterrupted,
    DatasetError,
    DecompositionError,
    EdgeNotFoundError,
    GraphError,
    GraphParseError,
    InvalidProbabilityError,
    NodeNotFoundError,
    ParameterError,
    ReproError,
)
from repro.graphs import (
    ProbabilisticGraph,
    WorldSampleSet,
    connected_components,
    edge_key,
    generators,
    hoeffding_sample_size,
    is_connected,
    largest_connected_component,
    read_edge_list,
    read_json_graph,
    write_edge_list,
    write_json_graph,
)
from repro.truss import (
    core_decomposition,
    edge_supports,
    structural_nucleus_decomposition,
    is_k_truss,
    k_core_subgraph,
    k_truss_subgraph,
    max_core_number,
    max_trussness,
    maximal_k_trusses,
    truss_decomposition,
    truss_hierarchy,
)
from repro.core import (
    EtaDegree,
    GammaTrussResult,
    GlobalTrussOracle,
    GlobalTrussResult,
    LocalTrussResult,
    NucleusResult,
    SupportProbability,
    alpha_exact,
    bottom_up_search,
    clustering_coefficient,
    eta_core_decomposition,
    eta_core_subgraph,
    gamma_truss_decomposition,
    global_truss_decomposition,
    is_global_truss_exact,
    local_truss_decomposition,
    max_eta_core_number,
    maximal_local_trusses,
    nucleus_decomposition,
    probabilistic_clustering_coefficient,
    probabilistic_density,
    support_pmf,
    support_pmf_bruteforce,
    support_tail,
    top_down_search,
    triangle_probabilities,
)
from repro.datasets import DATASET_NAMES, dataset_statistics, load_dataset
from repro.runtime import (
    Budget,
    InterruptGuard,
    PartialResult,
    run_global,
    run_local,
    run_nucleus,
    run_reliability,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # exceptions
    "ReproError", "GraphError", "NodeNotFoundError", "EdgeNotFoundError",
    "InvalidProbabilityError", "ParameterError", "DatasetError",
    "GraphParseError", "DecompositionError", "BudgetExceededError",
    "CheckpointError", "ComputationInterrupted",
    # graphs
    "ProbabilisticGraph", "edge_key", "connected_components", "is_connected",
    "largest_connected_component", "WorldSampleSet", "hoeffding_sample_size",
    "read_edge_list", "write_edge_list", "read_json_graph", "write_json_graph",
    "generators",
    # deterministic substrate
    "edge_supports", "truss_decomposition", "is_k_truss", "k_truss_subgraph",
    "max_trussness", "maximal_k_trusses", "truss_hierarchy",
    "core_decomposition", "k_core_subgraph", "max_core_number",
    "structural_nucleus_decomposition",
    # paper core
    "SupportProbability", "support_pmf", "support_pmf_bruteforce",
    "support_tail", "triangle_probabilities", "LocalTrussResult",
    "local_truss_decomposition", "maximal_local_trusses",
    "NucleusResult", "nucleus_decomposition",
    "GlobalTrussOracle", "alpha_exact", "is_global_truss_exact",
    "GlobalTrussResult", "global_truss_decomposition", "top_down_search",
    "GammaTrussResult", "gamma_truss_decomposition",
    "bottom_up_search", "EtaDegree", "eta_core_decomposition",
    "eta_core_subgraph", "max_eta_core_number", "probabilistic_density",
    "probabilistic_clustering_coefficient", "clustering_coefficient",
    # datasets
    "DATASET_NAMES", "load_dataset", "dataset_statistics",
    # runtime (budgets, checkpoint/resume, graceful degradation)
    "Budget", "InterruptGuard", "PartialResult",
    "run_global", "run_local", "run_nucleus", "run_reliability",
]
