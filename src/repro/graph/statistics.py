"""Descriptive statistics over labelled graphs.

The experiment harness reports the size and shape of every dataset it
runs on (node / edge counts, alphabet, degree distribution, reachability)
so that the tables in EXPERIMENTS.md are self-describing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.graph.labeled_graph import LabeledGraph
from repro.graph.paths import reachable_nodes

#: nodes sampled by :func:`reachability_fractions` (the first, in sorted order)
REACHABILITY_SAMPLE = 200


@dataclass(frozen=True)
class GraphStatistics:
    """Summary statistics of a labelled graph."""

    name: str
    node_count: int
    edge_count: int
    label_count: int
    label_histogram: Tuple[Tuple[str, int], ...]
    max_out_degree: int
    max_in_degree: int
    average_out_degree: float
    sink_count: int
    source_count: int

    def as_dict(self) -> dict:
        """Dictionary view (used when rendering experiment tables)."""
        return {
            "name": self.name,
            "nodes": self.node_count,
            "edges": self.edge_count,
            "labels": self.label_count,
            "max_out_degree": self.max_out_degree,
            "max_in_degree": self.max_in_degree,
            "avg_out_degree": round(self.average_out_degree, 3),
            "sinks": self.sink_count,
            "sources": self.source_count,
        }


def compute_statistics(graph: LabeledGraph) -> GraphStatistics:
    """Compute :class:`GraphStatistics` for ``graph``."""
    node_count = graph.node_count
    out_degrees = [graph.out_degree(node) for node in graph.nodes()]
    in_degrees = [graph.in_degree(node) for node in graph.nodes()]
    histogram = tuple(sorted(graph.label_counts().items()))
    return GraphStatistics(
        name=graph.name,
        node_count=node_count,
        edge_count=graph.edge_count,
        label_count=len(graph.alphabet()),
        label_histogram=histogram,
        max_out_degree=max(out_degrees, default=0),
        max_in_degree=max(in_degrees, default=0),
        average_out_degree=(sum(out_degrees) / node_count) if node_count else 0.0,
        sink_count=sum(1 for degree in out_degrees if degree == 0),
        source_count=sum(1 for degree in in_degrees if degree == 0),
    )


def reachability_fractions(graph: LabeledGraph) -> Dict[str, float]:
    """Average fraction of the graph reachable from a node (sampled).

    For large graphs only the first :data:`REACHABILITY_SAMPLE` nodes (in
    sorted order, deterministic) are sampled.
    """
    nodes = sorted(graph.nodes(), key=str)[:REACHABILITY_SAMPLE]
    if not nodes or graph.node_count == 0:
        return {"average": 0.0, "max": 0.0, "min": 0.0}
    fractions = [
        len(reachable_nodes(graph, node)) / graph.node_count for node in nodes
    ]
    return {
        "average": sum(fractions) / len(fractions),
        "max": max(fractions),
        "min": min(fractions),
    }


def degree_histogram(graph: LabeledGraph) -> Dict[int, int]:
    """Mapping out-degree -> number of nodes with that out-degree."""
    histogram: Dict[int, int] = {}
    for node in graph.nodes():
        degree = graph.out_degree(node)
        histogram[degree] = histogram.get(degree, 0) + 1
    return histogram
