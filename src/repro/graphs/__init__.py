"""Probabilistic-graph substrate: data structure, I/O, generators, sampling.

The central type is :class:`~repro.graphs.probabilistic.ProbabilisticGraph`,
an undirected simple graph in which every edge carries an independent
existence probability (the model of Section 3 of the paper). The other
modules in this package provide connected components and projections
(:mod:`~repro.graphs.components`), edge-list I/O (:mod:`~repro.graphs.io`),
seedable random-graph generators (:mod:`~repro.graphs.generators`) and the
possible-world sampling engine (:mod:`~repro.graphs.sampling`).
"""

from repro.graphs.probabilistic import ProbabilisticGraph, edge_key
from repro.graphs.components import (
    connected_components,
    is_connected,
    largest_connected_component,
    edge_connected_components,
)
from repro.graphs.sampling import (
    WorldSampleSet,
    hoeffding_sample_size,
)
from repro.graphs.io import (
    read_edge_list,
    write_edge_list,
    read_json_graph,
    write_json_graph,
)
from repro.graphs import generators, export

__all__ = [
    "ProbabilisticGraph",
    "edge_key",
    "connected_components",
    "is_connected",
    "largest_connected_component",
    "edge_connected_components",
    "WorldSampleSet",
    "hoeffding_sample_size",
    "read_edge_list",
    "write_edge_list",
    "read_json_graph",
    "write_json_graph",
    "generators",
    "export",
]
