"""Structural deltas: the per-version change records of the graph journal.

Every structural mutation of a :class:`~repro.graph.labeled_graph.LabeledGraph`
bumps its monotone :attr:`~repro.graph.labeled_graph.LabeledGraph.version`
counter.  Since the delta-journal PR the graph also records *what* each
bump changed — a :class:`GraphDelta` holding the edges and nodes added
and removed — in a bounded journal, so derived structures (the engine's
answer cache, the language index bitsets, the neighbourhood BFS layers)
can invalidate **proportionally to the delta** instead of rebuilding
whole:

* a cached query answer survives when the plan's alphabet is disjoint
  from :attr:`GraphDelta.labels_touched`;
* a language index rescoring only needs the nodes within ``bound`` BFS
  hops of a changed edge's source;
* a cached BFS layer stack survives when no member of
  :attr:`GraphDelta.touched_nodes` appears in its distance map.

Deltas are value objects: once recorded they are never mutated.  A step
too large to be worth replaying (a generator-scale bulk insert) is
journaled as an *opaque* delta, which exists only in the journal —
:meth:`LabeledGraph.deltas_since
<repro.graph.labeled_graph.LabeledGraph.deltas_since>` refuses to bridge
across one, and every consumer falls back to the whole-drop rebuild the
pre-journal code always performed.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Optional, Tuple

Node = Hashable
Label = str
Edge = Tuple[Node, Label, Node]

__all__ = ["GraphDelta"]


class GraphDelta:
    """One version step of a :class:`LabeledGraph`: what changed, exactly.

    ``old_version`` → ``new_version`` is always a single bump
    (``new_version == old_version + 1``); a journal is a contiguous chain
    of these.  ``opaque`` marks a journal record whose step was too large
    to record — its edge/node tuples are empty and consumers must treat
    the whole graph as touched.  Mutators always return the exact delta.
    """

    __slots__ = (
        "old_version",
        "new_version",
        "edges_added",
        "edges_removed",
        "nodes_added",
        "nodes_removed",
        "opaque",
        "_labels_touched",
        "_touched_nodes",
    )

    def __init__(
        self,
        old_version: int,
        new_version: int,
        *,
        edges_added: Tuple[Edge, ...] = (),
        edges_removed: Tuple[Edge, ...] = (),
        nodes_added: Tuple[Node, ...] = (),
        nodes_removed: Tuple[Node, ...] = (),
        opaque: bool = False,
    ):
        # repro-lint: disable=REP302 -- a GraphDelta IS the journal record: an immutable value object describing one version step, not a cache that could serve stale state
        self.old_version = old_version
        # repro-lint: disable=REP302 -- same: the version pair is the delta's identity, never a freshness witness
        self.new_version = new_version
        self.edges_added = tuple(edges_added)
        self.edges_removed = tuple(edges_removed)
        self.nodes_added = tuple(nodes_added)
        self.nodes_removed = tuple(nodes_removed)
        self.opaque = opaque
        self._labels_touched: Optional[FrozenSet[Label]] = None
        self._touched_nodes: Optional[FrozenSet[Node]] = None

    # ------------------------------------------------------------------
    # derived views (computed once, cached)
    # ------------------------------------------------------------------
    @property
    def labels_touched(self) -> FrozenSet[Label]:
        """Labels carried by any edge this delta added or removed."""
        labels = self._labels_touched
        if labels is None:
            labels = frozenset(
                label for _, label, _ in self.edges_added
            ) | frozenset(label for _, label, _ in self.edges_removed)
            self._labels_touched = labels
        return labels

    @property
    def touched_nodes(self) -> FrozenSet[Node]:
        """Every node named by this delta: changed-edge endpoints plus
        nodes added or removed outright."""
        touched = self._touched_nodes
        if touched is None:
            nodes = set(self.nodes_added)
            nodes.update(self.nodes_removed)
            for source, _, target in self.edges_added:
                nodes.add(source)
                nodes.add(target)
            for source, _, target in self.edges_removed:
                nodes.add(source)
                nodes.add(target)
            touched = frozenset(nodes)
            self._touched_nodes = touched
        return touched

    @property
    def nodes_changed(self) -> bool:
        """True when the node set itself changed (not just edges)."""
        return bool(self.nodes_added or self.nodes_removed)

    @property
    def is_empty(self) -> bool:
        """True for the no-op delta (``apply_delta`` with nothing to do)."""
        return self.old_version == self.new_version

    def __repr__(self) -> str:
        if self.opaque:
            body = "opaque"
        else:
            body = (
                f"+{len(self.edges_added)}e -{len(self.edges_removed)}e "
                f"+{len(self.nodes_added)}n -{len(self.nodes_removed)}n"
            )
        return f"<GraphDelta v{self.old_version}->{self.new_version} {body}>"
