"""Edge-labelled directed multigraph — the graph-database model of the paper.

The paper models a graph database as a finite, directed graph whose edges
carry labels drawn from a finite alphabet (e.g. ``tram``, ``bus``,
``cinema``).  Nodes are opaque identifiers (hashable values); parallel
edges with distinct labels are allowed, and the same (source, label,
target) triple is stored only once (the semantics of regular path queries
never depend on edge multiplicity).

:class:`LabeledGraph` is a plain-Python adjacency-indexed structure.  It
is deliberately dependency-free because it sits on the hot path of every
algorithm in the library (path enumeration, neighbourhood extraction,
product-automaton evaluation, informativeness computation).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.exceptions import DuplicateNodeError, EdgeNotFoundError, NodeNotFoundError
from repro.graph.delta import GraphDelta

Node = Hashable
Label = str
Edge = Tuple[Node, Label, Node]


class LabeledGraph:
    """A directed graph with labelled edges.

    Nodes may carry an optional attribute dictionary (used by the dataset
    generators to store, for instance, whether a node is a neighbourhood,
    a cinema or a restaurant); the query semantics ignore attributes.

    The structure maintains both forward and backward adjacency indexes so
    that neighbourhood extraction (which is symmetric) and query
    evaluation (which is forward-only) are both efficient.

    Every structural mutation (node or edge added / removed) bumps the
    monotone :attr:`version` counter.  Derived structures — most notably
    the per-label reverse index and answer caches of
    :class:`repro.query.engine.QueryEngine` — snapshot the version they
    were built against and rebuild lazily when it moves, so callers never
    observe stale answers after mutating a graph.

    Alongside the counter the graph keeps a bounded **delta journal**: a
    :class:`~repro.graph.delta.GraphDelta` per version step recording the
    edges/nodes the step added and removed.  Every mutator is at most one
    version step, written by the one private write path :meth:`_apply`.
    :meth:`deltas_since` replays the journal so the label index and the
    language indexes can rework *only* what a delta can reach — see
    :meth:`repro.serving.workspace.GraphWorkspace.refresh`.  The journal
    holds the last ``journal_limit`` steps (``0`` disables it); a step of
    more than :attr:`JOURNAL_EDGE_LIMIT` elements is recorded opaquely —
    both cases make :meth:`deltas_since` return ``None`` and consumers
    fall back to whole-drop rebuilds, so the journal is purely an
    optimisation, never a correctness requirement.
    """

    #: journal window: how many version steps :meth:`deltas_since` can bridge
    JOURNAL_LIMIT = 32
    #: per-step size cap (edges and nodes, added and removed): larger
    #: steps are journaled opaquely
    JOURNAL_EDGE_LIMIT = 4096

    __slots__ = (
        "_succ",
        "_pred",
        "_node_attrs",
        "_labels",
        "_edge_count",
        "_version",
        "_label_index",
        "_journal",
        "name",
        "__weakref__",
    )

    def __init__(self, name: str = "graph", *, journal_limit: Optional[int] = None):
        #: forward adjacency: node -> label -> set of successors
        self._succ: Dict[Node, Dict[Label, Set[Node]]] = {}
        #: backward adjacency: node -> label -> set of predecessors
        self._pred: Dict[Node, Dict[Label, Set[Node]]] = {}
        self._node_attrs: Dict[Node, dict] = {}
        self._labels: Dict[Label, int] = {}
        self._edge_count = 0
        self._version = 0
        self._label_index: Optional["GraphLabelIndex"] = None
        limit = self.JOURNAL_LIMIT if journal_limit is None else max(0, int(journal_limit))
        self._journal: Deque[GraphDelta] = deque(maxlen=limit)
        self.name = name

    @property
    def version(self) -> int:
        """Monotone counter bumped by every structural mutation.

        ``(graph, graph.version)`` identifies an immutable snapshot of the
        graph's structure: as long as the version is unchanged, node and
        edge sets are unchanged, so cached indexes and query answers keyed
        on it remain valid.
        """
        return self._version

    # ------------------------------------------------------------------
    # delta journal
    # ------------------------------------------------------------------
    @property
    def journal_limit(self) -> int:
        """How many version steps the journal retains (0 = disabled)."""
        return self._journal.maxlen or 0

    def deltas_since(self, version: int) -> Optional[Tuple[GraphDelta, ...]]:
        """The contiguous delta chain from ``version`` to :attr:`version`.

        Returns ``()`` when ``version`` is already current, and ``None``
        when the journal cannot bridge the gap — the window was exceeded,
        the journal is disabled, an oversized step in the range was
        recorded opaquely, or ``version`` never belonged to this graph.
        A ``None`` answer is the consumer's cue to fall back to a
        whole-drop rebuild.
        """
        current = self._version
        if version == current:
            return ()
        if version > current:
            return None
        collected: List[GraphDelta] = []
        for delta in reversed(self._journal):
            if delta.new_version <= version:
                break
            if delta.opaque:
                return None
            collected.append(delta)
        if not collected or collected[-1].old_version != version:
            return None
        collected.reverse()
        return tuple(collected)

    # ------------------------------------------------------------------
    # mutation: every mutator is one call into _apply
    # ------------------------------------------------------------------
    def _apply(
        self,
        *,
        add_edges: Iterable[Edge] = (),
        remove_edges: Iterable[Edge] = (),
        add_nodes: Iterable[Node] = (),
        remove_nodes: Iterable[Node] = (),
    ) -> GraphDelta:
        """The one write path: change the adjacency as **one** version step.

        Only this method bumps :attr:`version` and appends to the journal;
        :meth:`apply_delta` documents the semantics.  The other mutators
        call it directly, never through :meth:`apply_delta`: the perf
        tracer wraps ``apply_delta`` as layer
        ``graph.labeled_graph.apply_delta``, and building the Figure 1
        graph with ``add_node`` / ``add_edge`` under the tracer must show
        session layers only (``benchmarks/perf/test_tracer.py``).
        """
        succ = self._succ
        pred = self._pred
        edges_removed = self._remove_edge_batch(remove_edges)
        nodes_removed: List[Node] = []
        for node in remove_nodes:
            if node not in succ:
                continue
            edges_removed.extend(self._remove_edge_batch(self._incident_edges(node)))
            del succ[node]
            del pred[node]
            self._node_attrs.pop(node, None)
            nodes_removed.append(node)
        nodes_added: List[Node] = []
        for node in add_nodes:
            if node not in succ:
                succ[node] = {}
                pred[node] = {}
                nodes_added.append(node)
        edges_added = self._add_edge_batch(add_edges, nodes_added)
        old_version = self._version
        size = len(edges_added) + len(edges_removed) + len(nodes_added) + len(nodes_removed)
        if not size:
            return GraphDelta(old_version, old_version)
        self._version += 1
        delta = GraphDelta(
            old_version,
            self._version,
            edges_added=edges_added,
            edges_removed=edges_removed,
            nodes_added=nodes_added,
            nodes_removed=nodes_removed,
        )
        if size > self.JOURNAL_EDGE_LIMIT:
            self._journal.append(GraphDelta(old_version, self._version, opaque=True))
        else:
            self._journal.append(delta)
        return delta

    def _add_edge_batch(self, edges: Iterable[Edge], created: List[Node]) -> List[Edge]:
        """Insert ``edges`` without bumping :attr:`version`.

        Returns the edges that were new, in order; endpoints created on
        the way are appended to ``created``.
        """
        succ = self._succ
        pred = self._pred
        labels = self._labels
        added: List[Edge] = []
        for source, label, target in edges:
            by_label = succ.get(source)
            if by_label is None:
                by_label = succ[source] = {}
                pred[source] = {}
                created.append(source)
            targets = by_label.get(label)
            if targets is None:
                targets = by_label[label] = set()
            elif target in targets:
                continue
            targets.add(target)
            if target not in succ:
                succ[target] = {}
                pred[target] = {}
                created.append(target)
            by_label_pred = pred[target]
            sources = by_label_pred.get(label)
            if sources is None:
                by_label_pred[label] = {source}
            else:
                sources.add(source)
            labels[label] = labels.get(label, 0) + 1
            added.append((source, label, target))
        self._edge_count += len(added)
        return added

    def _remove_edge_batch(self, edges: Iterable[Edge]) -> List[Edge]:
        """Remove ``edges`` without bumping :attr:`version`.

        Returns the edges that were present, in order; absent edges (and
        duplicates within ``edges``) are skipped.
        """
        succ = self._succ
        pred = self._pred
        labels = self._labels
        removed: List[Edge] = []
        for source, label, target in edges:
            by_label = succ.get(source)
            if by_label is None:
                continue
            targets = by_label.get(label)
            if targets is None or target not in targets:
                continue
            targets.remove(target)
            if not targets:
                del by_label[label]
            sources = pred[target][label]
            sources.remove(source)
            if not sources:
                del pred[target][label]
            labels[label] -= 1
            if labels[label] == 0:
                del labels[label]
            removed.append((source, label, target))
        self._edge_count -= len(removed)
        return removed

    def _incident_edges(self, node: Node) -> List[Edge]:
        """Every edge touching ``node`` (self-loops listed once)."""
        incident = [
            (node, label, target)
            for label, targets in self._succ[node].items()
            for target in targets
        ]
        incident.extend(
            (source, label, node)
            for label, sources in self._pred[node].items()
            for source in sources
            # self-loops already appear in the successor sweep
            if source != node
        )
        return incident

    def apply_delta(
        self,
        *,
        add_edges: Iterable[Edge] = (),
        remove_edges: Iterable[Edge] = (),
        add_nodes: Iterable[Node] = (),
        remove_nodes: Iterable[Node] = (),
    ) -> GraphDelta:
        """Apply one mixed add/remove batch under a **single** version bump.

        The streaming mutation primitive: a sliding-window tick retires
        old edges and admits new ones in one atomic step, so every
        derived cache is invalidated exactly once — and, via the journal,
        only where the batch can reach.

        Application order: edge removals, node removals (incident edges
        folded into the recorded delta), node additions, edge additions.
        Removals of absent elements are skipped silently (bulk
        semantics); re-added elements are no-ops.  New nodes are listed
        explicit ones first, then created endpoints in edge order.

        Returns the :class:`GraphDelta` describing what actually changed
        (with ``old_version == new_version`` when nothing did).  The
        returned delta reports precise contents even when the journal
        recorded the step opaquely or is disabled.
        """
        return self._apply(
            add_edges=add_edges,
            remove_edges=remove_edges,
            add_nodes=add_nodes,
            remove_nodes=remove_nodes,
        )

    def add_node(self, node: Node, *, strict: bool = False, **attrs) -> Node:
        """Add ``node`` to the graph and return it.

        Adding an existing node is a no-op (its attributes are updated)
        unless ``strict`` is true, in which case :class:`DuplicateNodeError`
        is raised.
        """
        if strict and node in self._succ:
            raise DuplicateNodeError(node)
        self._apply(add_nodes=(node,))
        if attrs:
            self._node_attrs.setdefault(node, {}).update(attrs)
        return node

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        """Add every node of ``nodes`` in one step (existing nodes are left untouched)."""
        self._apply(add_nodes=nodes)

    def add_edge(self, source: Node, label: Label, target: Node) -> Edge:
        """Add the edge ``source -[label]-> target`` and return the triple.

        Missing endpoints are created in the same version step.  Re-adding
        an existing edge is a no-op.
        """
        edge = (source, label, target)
        self._apply(add_edges=(edge,))
        return edge

    def add_edges(self, edges: Iterable[Edge]) -> None:
        """Add every ``(source, label, target)`` triple of ``edges`` in one step."""
        self._apply(add_edges=edges)

    def add_edges_bulk(self, edges: Iterable[Edge], *, nodes: Iterable[Node] = ()) -> int:
        """Add many edges (and optionally isolated ``nodes``) in one step.

        This is the construction hot path used by every synthetic
        generator: existing edges are skipped, and :attr:`version` is
        bumped **once** for the whole batch, so derived caches (label
        index, query answers, neighbourhood layers) are invalidated a
        single time.  A generator-scale batch (more than
        :attr:`JOURNAL_EDGE_LIMIT` elements) is journaled opaquely.

        Returns the number of edges that were actually new.
        """
        return len(self._apply(add_edges=edges, add_nodes=nodes).edges_added)

    def remove_edge(self, source: Node, label: Label, target: Node) -> None:
        """Remove an edge; raise :class:`EdgeNotFoundError` if absent."""
        if not self._apply(remove_edges=((source, label, target),)).edges_removed:
            raise EdgeNotFoundError(source, label, target)

    def remove_edges_bulk(self, edges: Iterable[Edge]) -> int:
        """Remove many edges in one step — the mirror of :meth:`add_edges_bulk`.

        Edges not present (and duplicates within ``edges``) are skipped
        silently.  Returns the number of edges that were actually removed.
        """
        return len(self._apply(remove_edges=edges).edges_removed)

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and every incident edge in one step.

        Raises :class:`NodeNotFoundError` when ``node`` is absent.
        """
        self._require(node)
        self._apply(remove_nodes=(node,))

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def _require(self, node: Node) -> None:
        if node not in self._succ:
            raise NodeNotFoundError(node)

    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._succ)

    def __repr__(self) -> str:
        return (
            f"<LabeledGraph {self.name!r}: {self.node_count} nodes, "
            f"{self.edge_count} edges, {len(self._labels)} labels>"
        )

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._succ)

    @property
    def edge_count(self) -> int:
        """Number of distinct labelled edges."""
        return self._edge_count

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes."""
        return iter(self._succ)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges as ``(source, label, target)`` triples."""
        for source, by_label in self._succ.items():
            for label, targets in by_label.items():
                for target in targets:
                    yield (source, label, target)

    def has_edge(self, source: Node, label: Label, target: Node) -> bool:
        """Return True when the edge ``source -[label]-> target`` exists."""
        return (
            source in self._succ
            and label in self._succ[source]
            and target in self._succ[source][label]
        )

    def alphabet(self) -> FrozenSet[Label]:
        """The set of edge labels used in the graph."""
        return frozenset(self._labels)

    def label_counts(self) -> Dict[Label, int]:
        """Return a mapping label -> number of edges carrying it."""
        return dict(self._labels)

    def node_attributes(self, node: Node) -> dict:
        """Return the attribute dictionary of ``node`` (possibly empty)."""
        self._require(node)
        return dict(self._node_attrs.get(node, {}))

    def set_node_attributes(self, node: Node, **attrs) -> None:
        """Update the attribute dictionary of ``node``."""
        self._require(node)
        self._node_attrs.setdefault(node, {}).update(attrs)

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    def out_edges(self, node: Node) -> Iterator[Tuple[Label, Node]]:
        """Iterate over the outgoing ``(label, target)`` pairs of ``node``."""
        self._require(node)
        for label, targets in self._succ[node].items():
            for target in targets:
                yield (label, target)

    def in_edges(self, node: Node) -> Iterator[Tuple[Label, Node]]:
        """Iterate over the incoming ``(label, source)`` pairs of ``node``."""
        self._require(node)
        for label, sources in self._pred[node].items():
            for source in sources:
                yield (label, source)

    def successors(self, node: Node, label: Optional[Label] = None) -> Set[Node]:
        """Return the successors of ``node`` (optionally via ``label`` only)."""
        self._require(node)
        if label is not None:
            return set(self._succ[node].get(label, ()))
        result: Set[Node] = set()
        for targets in self._succ[node].values():
            result.update(targets)
        return result

    def predecessors(self, node: Node, label: Optional[Label] = None) -> Set[Node]:
        """Return the predecessors of ``node`` (optionally via ``label`` only)."""
        self._require(node)
        if label is not None:
            return set(self._pred[node].get(label, ()))
        result: Set[Node] = set()
        for sources in self._pred[node].values():
            result.update(sources)
        return result

    def out_degree(self, node: Node) -> int:
        """Number of outgoing edges of ``node``."""
        self._require(node)
        return sum(len(targets) for targets in self._succ[node].values())

    def in_degree(self, node: Node) -> int:
        """Number of incoming edges of ``node``."""
        self._require(node)
        return sum(len(sources) for sources in self._pred[node].values())

    def degree(self, node: Node) -> int:
        """Total degree (in + out) of ``node``."""
        return self.in_degree(node) + self.out_degree(node)

    def out_labels(self, node: Node) -> Set[Label]:
        """The set of labels on outgoing edges of ``node``."""
        self._require(node)
        return set(self._succ[node])

    # ------------------------------------------------------------------
    # indexed snapshot (hot-path acceleration)
    # ------------------------------------------------------------------
    def label_index(self) -> "GraphLabelIndex":
        """Return the cached integer-id / per-label CSR index of the graph.

        The index is built once per :attr:`version` and reused by every
        caller until the next structural mutation; see
        :class:`GraphLabelIndex`.
        """
        index = self._label_index
        if index is None or index.version != self._version:
            refreshed = None
            if index is not None:
                deltas = self.deltas_since(index.version)
                if deltas:
                    refreshed = index._refreshed(self, deltas)
            index = refreshed if refreshed is not None else GraphLabelIndex(self)
            self._label_index = index
        return index

    # ------------------------------------------------------------------
    # copies / views
    # ------------------------------------------------------------------
    @staticmethod
    def _copy_adjacency(
        adjacency: Dict[Node, Dict[Label, Set[Node]]]
    ) -> Dict[Node, Dict[Label, Set[Node]]]:
        return {
            node: {label: set(others) for label, others in by_label.items()}
            for node, by_label in adjacency.items()
        }

    def copy(self, name: Optional[str] = None) -> "LabeledGraph":
        """Return an independent copy of the graph."""
        clone = LabeledGraph(name or self.name, journal_limit=self.journal_limit)
        clone._succ = self._copy_adjacency(self._succ)
        clone._pred = self._copy_adjacency(self._pred)
        clone._node_attrs = {node: dict(attrs) for node, attrs in self._node_attrs.items()}
        clone._labels = dict(self._labels)
        clone._edge_count = self._edge_count
        clone._version = 1
        return clone

    def subgraph(self, nodes: Iterable[Node], name: Optional[str] = None) -> "LabeledGraph":
        """Return the subgraph induced by ``nodes``.

        Unknown nodes in ``nodes`` are ignored, so callers can pass
        speculative node sets (e.g. a neighbourhood frontier) without
        pre-filtering.
        """
        # dedup in first-seen order (a dict, not a set) so the induced
        # subgraph's node/edge insertion order follows the caller's order
        keep = dict.fromkeys(node for node in nodes if node in self._succ)
        sub = LabeledGraph(name or f"{self.name}-sub")
        succ = sub._succ
        pred = sub._pred
        labels = sub._labels
        attrs = self._node_attrs
        edge_count = 0
        for node in keep:
            succ[node] = {}
            pred[node] = {}
            node_attrs = attrs.get(node)
            if node_attrs:
                sub._node_attrs[node] = dict(node_attrs)
        for node in keep:
            by_label = succ[node]
            for label, targets in self._succ[node].items():
                kept = targets & keep.keys()
                if not kept:
                    continue
                by_label[label] = kept
                for target in kept:
                    by_label_pred = pred[target]
                    sources = by_label_pred.get(label)
                    if sources is None:
                        by_label_pred[label] = {node}
                    else:
                        sources.add(node)
                labels[label] = labels.get(label, 0) + len(kept)
                edge_count += len(kept)
        sub._edge_count = edge_count
        sub._version = 1 if keep else 0
        return sub

    def reverse(self, name: Optional[str] = None) -> "LabeledGraph":
        """Return a copy with every edge direction flipped."""
        rev = LabeledGraph(name or f"{self.name}-reversed")
        rev._succ = self._copy_adjacency(self._pred)
        rev._pred = self._copy_adjacency(self._succ)
        rev._node_attrs = {node: dict(attrs) for node, attrs in self._node_attrs.items()}
        rev._labels = dict(self._labels)
        rev._edge_count = self._edge_count
        rev._version = 1
        return rev

    # ------------------------------------------------------------------
    # equality (structural)
    # ------------------------------------------------------------------
    def structurally_equal(self, other: "LabeledGraph") -> bool:
        """True when both graphs have the same node set and edge set."""
        if set(self.nodes()) != set(other.nodes()):
            return False
        return set(self.edges()) == set(other.edges())

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[Edge], name: str = "graph") -> "LabeledGraph":
        """Build a graph from an iterable of ``(source, label, target)`` triples."""
        graph = cls(name)
        graph.add_edges(edges)
        return graph

    def to_edge_list(self) -> List[Edge]:
        """Return a sorted list of all edges (stable across runs)."""
        return sorted(self.edges(), key=lambda edge: (str(edge[0]), edge[1], str(edge[2])))


class GraphLabelIndex:
    """Immutable integer-id reverse adjacency of a :class:`LabeledGraph`.

    The backward batch evaluator of :mod:`repro.query.engine` spends
    nearly all of its time asking "who are the ``label``-predecessors of
    this node?".  Answering that from the dict-of-sets adjacency allocates
    a fresh set per question; this snapshot instead stores, per label, a
    CSR-style pair of flat lists — ``indptr`` (length ``node_count + 1``)
    and ``indices`` — so the predecessors of node id ``v`` via ``label``
    are the slice ``indices[indptr[v]:indptr[v + 1]]``: zero allocation,
    integer ids.  The reverse CSR is all it holds: forward searches walk
    the graph's own adjacency, and the snapshot keeps no reference to its
    graph.

    Instances are value snapshots: they record the :attr:`version` of the
    graph they were built from and are replaced by
    :meth:`LabeledGraph.label_index` once the graph mutates.  When the
    delta journal can bridge the gap and only edges changed, the
    replacement reuses the CSR pairs of every untouched label and, for a
    touched one, every segment but those of its changed edges' targets
    (see :meth:`_refreshed`) instead of rebuilding the whole snapshot.
    """

    __slots__ = ("version", "nodes", "node_ids", "node_count", "_rev")

    #: owned by the graph itself; LabeledGraph.label_index() performs the
    #: delta refresh, so no workspace registration is needed beyond this.
    __workspace_hook__ = "graph.label_index"

    def __init__(self, graph: "LabeledGraph"):
        self.version: int = graph.version
        self.nodes: Tuple[Node, ...] = tuple(graph._succ)
        self.node_ids: Dict[Node, int] = {node: i for i, node in enumerate(self.nodes)}
        self.node_count: int = len(self.nodes)
        # per-label CSR reverse adjacency: label -> (indptr, indices)
        self._rev: Dict[Label, Tuple[List[int], List[int]]] = {
            label: self._reverse_csr(graph, label) for label in graph._labels
        }

    def _reverse_csr(self, graph: "LabeledGraph", label: Label) -> Tuple[List[int], List[int]]:
        """The ``(indptr, indices)`` pair of ``label``'s predecessors per node id."""
        node_ids = self.node_ids
        pred = graph._pred
        indptr: List[int] = [0]
        indices: List[int] = []
        for node in self.nodes:
            sources = pred[node].get(label)
            if sources:
                indices.extend([node_ids[source] for source in sources])
            indptr.append(len(indices))
        return indptr, indices

    def _spliced_csr(
        self, graph: "LabeledGraph", label: Label, targets: Set[Node]
    ) -> Tuple[List[int], List[int]]:
        """``label``'s pair on ``graph``, re-reading only the segments of ``targets``.

        Every other node's segment is copied from this snapshot's pair
        and its offsets shifted, so the result equals
        :meth:`_reverse_csr` whenever no edge into any other node changed.
        """
        old_indptr, old_indices = self._rev[label]
        node_ids = self.node_ids
        pred = graph._pred
        indptr: List[int] = [0]
        indices: List[int] = []
        copied = 0  # the first node id whose segment is not written yet
        for target_id in sorted(node_ids[target] for target in targets):
            shift = len(indices) - old_indptr[copied]
            indices.extend(old_indices[old_indptr[copied] : old_indptr[target_id]])
            indptr.extend([end + shift for end in old_indptr[copied + 1 : target_id + 1]])
            sources = pred[self.nodes[target_id]].get(label)
            if sources:
                indices.extend([node_ids[source] for source in sources])
            indptr.append(len(indices))
            copied = target_id + 1
        shift = len(indices) - old_indptr[copied]
        indices.extend(old_indices[old_indptr[copied] :])
        indptr.extend([end + shift for end in old_indptr[copied + 1 :]])
        return indptr, indices

    def labels(self) -> FrozenSet[Label]:
        """Labels present in the snapshot."""
        return frozenset(self._rev)

    def reverse_csr(self, label: Label) -> Optional[Tuple[List[int], List[int]]]:
        """The ``(indptr, indices)`` reverse-adjacency pair of ``label``.

        Returns ``None`` when no edge carries ``label`` — callers skip the
        label entirely, which is what makes plans whose alphabet barely
        intersects the graph's cheap to run.
        """
        return self._rev.get(label)

    def predecessor_ids(self, node_id: int, label: Label) -> List[int]:
        """Ids of ``label``-predecessors of ``node_id`` (possibly empty)."""
        csr = self._rev.get(label)
        if csr is None:
            return []
        indptr, indices = csr
        return indices[indptr[node_id] : indptr[node_id + 1]]

    def _refreshed(
        self, graph: "LabeledGraph", deltas: Tuple["GraphDelta", ...]
    ) -> Optional["GraphLabelIndex"]:
        """A snapshot at ``graph.version`` reusing untouched-label CSRs.

        Node ids are positional, so any delta that changed the node set
        forces a full rebuild (returns ``None``).  Otherwise every label
        the deltas do not name keeps its ``(indptr, indices)`` pair, shared
        by identity with this (now superseded) snapshot — sharing is safe
        because CSR pairs are never mutated after construction.  A named
        label is spliced (:meth:`_spliced_csr`): only the segments of the
        targets of its changed edges are read again.  A label new to the
        snapshot is built whole, and one whose last edge went is dropped.
        """
        targets_by_label: Dict[Label, Set[Node]] = {}
        for delta in deltas:
            if delta.nodes_changed:
                return None
            for edges in (delta.edges_added, delta.edges_removed):
                for _, label, target in edges:
                    targets_by_label.setdefault(label, set()).add(target)
        fresh = object.__new__(GraphLabelIndex)
        fresh.version = graph.version
        fresh.nodes = self.nodes
        fresh.node_ids = self.node_ids
        fresh.node_count = self.node_count
        rev = dict(self._rev)
        for label, targets in targets_by_label.items():
            if label not in graph._labels:
                rev.pop(label, None)
            elif label in rev:
                rev[label] = self._spliced_csr(graph, label, targets)
            else:
                rev[label] = fresh._reverse_csr(graph, label)
        fresh._rev = rev
        return fresh
