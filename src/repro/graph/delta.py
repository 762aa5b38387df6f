"""Structural deltas: the per-version change records of the graph journal.

Every structural mutation of a :class:`~repro.graph.labeled_graph.LabeledGraph`
bumps its monotone :attr:`~repro.graph.labeled_graph.LabeledGraph.version`
counter.  Since the delta-journal PR the graph also records *what* each
bump changed — a :class:`GraphDelta` holding the edges and nodes added
and removed — in a bounded journal.  Two derived structures read it to
catch up **proportionally to the delta** instead of rebuilding whole:

* the graph's label index reuses the reverse CSR of every label no
  changed edge carries, and splices the touched ones;
* a language index rescores only the nodes within ``bound - 1`` backward
  hops of a changed edge's source.

The engine's answer cache and the neighbourhood BFS states do not read
it: a version change drops them outright, since an answer set or a
radius-3 ball is usually touched by a tick anyway.

Deltas are value objects: once recorded they are never mutated.  A step
too large to be worth replaying (a generator-scale bulk insert) is
journaled as an *opaque* delta, which exists only in the journal —
:meth:`LabeledGraph.deltas_since
<repro.graph.labeled_graph.LabeledGraph.deltas_since>` refuses to bridge
across one, and both readers then rebuild from scratch.
"""

from __future__ import annotations

from typing import Hashable, Tuple

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
