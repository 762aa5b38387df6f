"""Churn workload family: sliding-window edge streams with seeded ticks.

The interactive-learning experiments all run on frozen graphs; the
serving north-star does not.  This module generates the *streaming*
counterpart: a fixed node universe over which a deterministic stream of
labelled edges slides.  A :class:`ChurnStream` holds ``window`` live
edges; every :class:`ChurnTick` retires the oldest ``churn`` edges and
admits ``churn`` fresh ones, applied to a graph atomically (one version
bump) through :meth:`~repro.graph.labeled_graph.LabeledGraph.apply_delta`
so downstream caches can follow the delta journal instead of rebuilding.

Everything is seeded the same way the rest of the workload layer is
(:func:`~repro.workloads.generator.stable_name_hash` + an explicit
integer seed), so a stream is identical across processes and
``PYTHONHASHSEED`` values: the tick sequence is part of an experiment's
identity, exactly like a goal query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Set, Tuple

import random

from repro.graph.labeled_graph import Edge, LabeledGraph
from repro.workloads.generator import stable_name_hash

#: Default geometry: enough churn to touch most labels over a run while
#: each individual tick stays small relative to the window.
CHURN_DEFAULTS = {"window": 60, "churn": 4, "tick_count": 12}


@dataclass(frozen=True)
class ChurnTick:
    """One sliding-window step: retire the oldest edges, admit fresh ones."""

    tick: int
    admit: Tuple[Edge, ...]
    retire: Tuple[Edge, ...]

    def apply(self, graph: LabeledGraph):
        """Apply this tick atomically; returns the recorded GraphDelta."""
        return graph.apply_delta(add_edges=self.admit, remove_edges=self.retire)


@dataclass(frozen=True)
class ChurnStream:
    """A deterministic sliding-window edge stream over a fixed node set.

    The node universe never changes (nodes are created up front), so
    every tick is an edges-only delta — the case the delta-refresh paths
    are built for.  The stream itself is generated lazily but
    deterministically: two instances with equal parameters produce
    byte-identical initial graphs and tick sequences.
    """

    node_count: int
    alphabet: Sequence[str]
    window: int = CHURN_DEFAULTS["window"]
    churn: int = CHURN_DEFAULTS["churn"]
    tick_count: int = CHURN_DEFAULTS["tick_count"]
    seed: int = 11
    name: str = "churn"
    _initial: Tuple[Edge, ...] = field(init=False, repr=False)
    _ticks: Tuple[ChurnTick, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.node_count <= 0:
            raise ValueError("node_count must be positive")
        if not self.alphabet:
            raise ValueError("alphabet must not be empty")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if not 0 < self.churn <= self.window:
            raise ValueError("churn must be in 1..window")
        possible = self.node_count * self.node_count * len(self.alphabet)
        if self.window > possible:
            raise ValueError(
                f"window {self.window} exceeds the {possible} possible triples"
            )
        initial, ticks = self._generate()
        object.__setattr__(self, "_initial", initial)
        object.__setattr__(self, "_ticks", ticks)

    @property
    def nodes(self) -> List[str]:
        return [f"n{index}" for index in range(self.node_count)]

    @property
    def initial_edges(self) -> Tuple[Edge, ...]:
        return self._initial

    def _generate(self) -> Tuple[Tuple[Edge, ...], Tuple[ChurnTick, ...]]:
        rng = random.Random(self.seed + stable_name_hash(self.name) % 1000)
        nodes = self.nodes
        labels = list(self.alphabet)
        live: List[Edge] = []  # oldest first — the sliding window
        live_set: Set[Edge] = set()

        def draw() -> Edge:
            # rejection-sample a triple not currently live; the window is
            # bounded away from the full triple space, so this terminates
            while True:
                edge = (rng.choice(nodes), rng.choice(labels), rng.choice(nodes))
                if edge not in live_set:
                    live_set.add(edge)
                    return edge

        initial = tuple(draw() for _ in range(self.window))
        live.extend(initial)
        ticks: List[ChurnTick] = []
        for tick in range(self.tick_count):
            retire = tuple(live[: self.churn])
            del live[: self.churn]
            live_set.difference_update(retire)
            admit = tuple(draw() for _ in range(self.churn))
            live.extend(admit)
            ticks.append(ChurnTick(tick=tick, admit=admit, retire=retire))
        return initial, tuple(ticks)

    def initial_graph(self, *, journal_limit: Optional[int] = None) -> LabeledGraph:
        """The window's starting graph, with every node pre-created.

        ``journal_limit=0`` builds the whole-invalidation baseline: with
        no journal, every refresh path falls back to drop-and-rebuild,
        which is exactly the pre-delta behaviour benchmarks compare
        against.
        """
        graph = LabeledGraph(self.name, journal_limit=journal_limit)
        graph.add_edges_bulk(self._initial, nodes=self.nodes)
        return graph

    def ticks(self) -> Iterator[ChurnTick]:
        """The seeded tick sequence (always the same for equal parameters)."""
        return iter(self._ticks)

    def replay(self, graph: LabeledGraph) -> LabeledGraph:
        """Apply every tick to ``graph`` in order; returns the graph."""
        for tick in self._ticks:
            tick.apply(graph)
        return graph

    def final_edges(self) -> Set[Edge]:
        """The live window after the last tick (for end-state checks)."""
        edges: List[Edge] = list(self._initial)
        for tick in self._ticks:
            edges = edges[self.churn :] + list(tick.admit)
        return set(edges)
