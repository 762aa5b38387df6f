"""Informativeness of nodes and pruning of uninformative ones.

"After each interaction, the system prunes the uninformative nodes i.e.,
those that do not add any information about the user's goal query."

Under the paper's semantics a node is **uninformative** when its label can
already be deduced from the current examples, so asking the user about it
would waste an interaction:

* every word of the node (up to the exploration bound) is covered by a
  negative node — no consistent query may select it, so its label is
  forced to negative (it brings no new constraint either way); or
* the node can spell one of the *validated* positive words — every query
  consistent with the validated paths necessarily selects it, so its
  label is forced to positive.

Nodes that are already labelled are trivially uninformative.  The
remaining nodes are *informative*; the strategies in
:mod:`repro.interactive.strategies` only ever propose informative nodes,
and rank them by an informativeness score: the number of short uncovered
words the node has (nodes with many uncovered short paths constrain the
learner the most).

The from-scratch path (:func:`classify_node`, :func:`classify_all_scratch`)
re-derives every word set per call with :func:`~repro.graph.paths.words_from`
and shares no structure with the session path.  It is the readable
reference and the oracle the session path is tested against.

The session path is :class:`SessionClassifier`, which each
:class:`~repro.interactive.session.InteractiveSession` builds and owns,
served through :func:`classify_all`, :func:`informative_nodes`,
:func:`most_informative_node` and :func:`pruned_nodes`.  It rests on two
facts about a session: the example set only grows, and so a node's score
never improves and an uninformative node never becomes informative again.
It therefore reads only the labels added since its last look, keeps one
informative bit per node instead of a status per node, and finds the top
node on a heap of stale scores, rescoring only the nodes it pops.  Every
session on one ``(graph, version, bound)`` starts from the same empty
example set, so the first one stores its informative bits and initial
heap on the language index and the others copy them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple


from repro.graph.labeled_graph import LabeledGraph, Node
from repro.graph.paths import words_from
from repro.learning.examples import ExampleSet, LabeledExample, Word
from repro.learning.language_index import (
    LanguageIndex,
    _workspace_index,
    iter_bits,
    popcount,
)


@dataclass(frozen=True)
class NodeStatus:
    """Classification of one node with respect to the current examples."""

    node: Node
    labeled: bool
    implied_positive: bool
    implied_negative: bool
    uncovered_word_count: int
    shortest_uncovered_length: Optional[int]

    @property
    def informative(self) -> bool:
        """True when asking the user about this node could add information."""
        return not (self.labeled or self.implied_positive or self.implied_negative)

    @property
    def score(self) -> Tuple[int, bool, int]:
        """Ranking key used by the most-informative strategy.

        Higher is better: many uncovered words first, then shorter
        shortest-uncovered word.  The middle component makes the absence
        of an uncovered word self-describing — ``(count, False, 0)``
        sorts below any node that still has one — instead of encoding
        ``None`` as a magic sentinel length.
        """
        shortest = self.shortest_uncovered_length
        if shortest is None:
            return (self.uncovered_word_count, False, 0)
        return (self.uncovered_word_count, True, -shortest)


def classify_node(
    graph: LabeledGraph,
    node: Node,
    examples: ExampleSet,
    *,
    max_length: int,
    banned: Optional[Set[Word]] = None,
    validated: Optional[Set[Word]] = None,
) -> NodeStatus:
    """Compute the :class:`NodeStatus` of ``node`` from scratch.

    ``banned`` (words covered by negatives) and ``validated`` (validated
    positive words) can be precomputed by the caller when classifying many
    nodes against the same example set.
    """
    if banned is None:
        banned = _scratch_cover(graph, examples, max_length)
    if validated is None:
        validated = set(examples.validated_words().values())

    labeled = examples.label_of(node) is not None
    own_words = words_from(graph, node, max_length)
    uncovered = [word for word in own_words if word not in banned]
    implied_positive = not labeled and any(word in validated for word in own_words)
    implied_negative = not labeled and not implied_positive and not uncovered
    shortest = min((len(word) for word in uncovered), default=None)
    return NodeStatus(
        node=node,
        labeled=labeled,
        implied_positive=implied_positive,
        implied_negative=implied_negative,
        uncovered_word_count=len(uncovered),
        shortest_uncovered_length=shortest,
    )


def _scratch_cover(graph: LabeledGraph, examples: ExampleSet, max_length: int) -> Set[Word]:
    """The words of every negative, walked from the graph (unknown negatives raise)."""
    banned: Set[Word] = set()
    for node in examples.negative_nodes:
        banned |= words_from(graph, node, max_length)
    return banned


def classify_all_scratch(
    graph: LabeledGraph,
    examples: ExampleSet,
    *,
    max_length: int,
) -> Dict[Node, NodeStatus]:
    """Classify every node by full recomputation.

    This is the pre-index reference implementation; it is kept as the
    oracle that :class:`SessionClassifier` is verified against.
    """
    banned = _scratch_cover(graph, examples, max_length)
    validated = set(examples.validated_words().values())
    return {
        node: classify_node(
            graph, node, examples, max_length=max_length, banned=banned, validated=validated
        )
        for node in graph.nodes()
    }


def _ranked_informative(statuses: Iterable[NodeStatus]) -> List[Node]:
    """Informative nodes by decreasing score, ties by node id ascending.

    The reference ranking contract: :meth:`SessionClassifier.informative`
    and :meth:`SessionClassifier.most_informative` must agree with it.
    """
    ranked = [status for status in statuses if status.informative]
    ranked.sort(key=lambda status: (status.score, str(status.node)), reverse=False)
    ranked.sort(key=lambda status: status.score, reverse=True)
    return [status.node for status in ranked]


class SessionClassifier:
    """Informativeness of every node for one growing example set.

    The classifier keeps the negative cover and the validated-word bits
    over the shared :class:`~repro.learning.language_index.LanguageIndex`,
    plus two bitsets over node positions: the labelled nodes and the
    informative ones.  Every public accessor first calls :meth:`refresh`,
    which keeps a position in the example set's history as its cursor:

    * when no label was appended since, it returns at once;
    * otherwise it reads only the appended labels.  A label clears its
      node's informative bit, a new validated word clears its spellers'
      bits, and a grown cover clears the informative spellers of the new
      words whose whole language now lies inside the cover;
    * a positive re-added with another validated word, or a new graph
      version, rebuilds from the example set.

    A propagation pass is appended by :meth:`propagate`, which records it
    in the labelled bits and moves the cursor past it, so a refresh reads
    only the labels others append, a caller's ``propagated=True`` too.
    A pass is all or nothing: :meth:`ExampleSet.add_propagated
    <repro.learning.examples.ExampleSet.add_propagated>` raises before it
    changes anything, and the flags and cursor move only once it is in.

    Scores are never stored.  Because the cover only grows, a node's
    score ``(uncovered word count, shortest uncovered length)`` never
    improves, so :meth:`most_informative` keeps one packed int key per
    informative node in a min-heap of stale keys and rescores only the
    nodes it pops: a popped node whose exact key equals its stored key
    is the exact top.  Statuses are built only by :meth:`statuses`.

    With no cover, no validated word and no labelled node, the state
    depends on the index alone, so it lives there
    (:attr:`~repro.learning.language_index.LanguageIndex.start_informative`,
    :attr:`~repro.learning.language_index.LanguageIndex.start_keys`): the
    first classifier stores it, and later ones copy the bits and the key
    tuple instead of scoring every node.  Each pops its own list.

    Results equal :func:`classify_all_scratch` and
    :func:`_ranked_informative` at all times; the property tests in
    ``tests/learning/test_language_index.py`` pin this.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        examples: ExampleSet,
        *,
        max_length: int,
        index_provider=None,
    ):
        self.graph = graph
        self.examples = examples
        self.max_length = max_length
        #: ``(graph, max_length) -> LanguageIndex`` — a session threads its
        #: workspace's accessor here so index (re)builds go through the
        #: workspace's build-once locks and accounting
        self._index_provider = index_provider if index_provider is not None else _workspace_index
        self._rebuild()

    @property
    def index(self) -> LanguageIndex:
        """The language index backing the current flags."""
        return self._index

    # ------------------------------------------------------------------
    # state maintenance
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        index = self._index_provider(self.graph, self.max_length)
        examples = self.examples
        cover = index.cover(examples.negative_nodes)
        validated = examples.validated_words()
        validated_bits = index.words_bitset(validated.values())
        validated_spellers = 0
        for word_id in iter_bits(validated_bits):
            validated_spellers |= index.spellers(word_id)
        labeled = 0
        for position in map(index.node_positions.get, examples.labeled_nodes):
            if position is not None:  # a label outside the graph classifies nothing
                labeled |= 1 << position
        at_start = not (cover or validated_bits or labeled)
        informative = index.start_informative if at_start else None
        if informative is None:
            informative = 0
            uncovered_mask = ~cover
            language_of = index.language
            for position, node in enumerate(index.nodes):
                language = language_of(node)
                if language & uncovered_mask and not language & validated_bits:
                    informative |= 1 << position
            if at_start:
                index.start_informative = informative
        self._index: LanguageIndex = index
        self._position = len(examples)
        self._cover = cover
        self._validated = validated
        self._validated_bits = validated_bits
        #: the nodes that spell a validated word: the implied positives' superset
        self._validated_spellers = validated_spellers
        self._labeled = labeled
        self._informative = informative & ~labeled
        # packed heap keys: (-count << count_shift) + (shortest << rank_bits) + rank
        self._rank_bits = len(index.nodes).bit_length()
        self._count_shift = self._rank_bits + index.max_length.bit_length()
        self._heap: Optional[List[int]] = None

    def refresh(self) -> None:
        """Bring the flags up to date with the examples and the graph."""
        if self._index.version != self.graph.version:
            self._rebuild()
            return
        events = self.examples.events_since(self._position)
        if not events:
            return
        if not self._apply(events):
            self._rebuild()
            return
        self._position += len(events)

    def _apply(self, events: Sequence[LabeledExample]) -> bool:
        """Fold the new labels into the flags; False when they need a rebuild.

        Nothing is committed until every label is read, so a negative
        outside the graph (:class:`NodeNotFoundError`) leaves the cursor
        where it was and the next refresh raises again.
        """
        index = self._index
        positions = index.node_positions
        language_of = index.language
        validated = self._validated
        cover = self._cover
        validated_bits = self._validated_bits
        validated_spellers = self._validated_spellers
        labeled = self._labeled
        informative = self._informative
        grown = 0
        for example in events:
            node = example.node
            if example.positive:
                word = example.validated_word
                if word is not None:
                    previous = validated.setdefault(node, word)
                    if previous != word:
                        return False  # a replaced validated word
                    word_id = index.arena.lookup(word)
                    if word_id is not None and not validated_bits >> word_id & 1:
                        validated_bits |= 1 << word_id
                        spellers = index.spellers(word_id)
                        validated_spellers |= spellers
                        informative &= ~spellers
            else:
                language = language_of(node)
                grown |= language & ~cover
                cover |= language
            position = positions.get(node)
            if position is not None:
                labeled |= 1 << position
        informative &= ~labeled
        if grown:
            spellers = 0
            for word_id in iter_bits(grown):
                spellers |= index.spellers(word_id)
            uncovered_mask = ~cover
            nodes = index.nodes
            for position in iter_bits(spellers & informative):
                if not language_of(nodes[position]) & uncovered_mask:
                    informative ^= 1 << position
        self._cover = cover
        self._validated_bits = validated_bits
        self._validated_spellers = validated_spellers
        self._labeled = labeled
        self._informative = informative
        return True

    def _initial_heap(self) -> List[int]:
        """A new heap of the exact keys of the informative nodes.

        With no cover, no validated word and no labelled node the
        classifier is at its index's start state, so the heap is a copy
        of the index's stored one; the first classifier there stores it.
        """
        index = self._index
        at_start = not (self._cover or self._validated_bits or self._labeled)
        if at_start and index.start_keys is not None:
            return list(index.start_keys)
        heap = list(map(self._key, iter_bits(self._informative)))
        heapq.heapify(heap)
        if at_start:
            index.start_keys = tuple(heap)
        return heap

    def _key(self, position: int) -> int:
        """The exact packed heap key of the node at ``position``."""
        index = self._index
        uncovered = index.language(index.nodes[position]) & ~self._cover
        return (
            (-popcount(uncovered) << self._count_shift)
            + (index.shortest_length(uncovered) << self._rank_bits)
            + index.str_ranks[position]
        )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def statuses(self) -> Dict[Node, NodeStatus]:
        """Current classification of every node, built on request."""
        self.refresh()
        index = self._index
        cover = self._cover
        validated_bits = self._validated_bits
        labeled = self._labeled
        statuses: Dict[Node, NodeStatus] = {}
        for position, node in enumerate(index.nodes):
            language = index.language(node)
            uncovered = language & ~cover
            count = popcount(uncovered)
            is_labeled = bool(labeled >> position & 1)
            implied_positive = not is_labeled and bool(language & validated_bits)
            statuses[node] = NodeStatus(
                node=node,
                labeled=is_labeled,
                implied_positive=implied_positive,
                implied_negative=not is_labeled and not implied_positive and count == 0,
                uncovered_word_count=count,
                shortest_uncovered_length=index.shortest_length(uncovered),
            )
        return statuses

    def informative(self) -> List[Node]:
        """Informative nodes sorted by decreasing score (ties by node id)."""
        self.refresh()
        order = self._index.str_order
        nodes = self._index.nodes
        rank_mask = (1 << self._rank_bits) - 1
        keys = sorted(map(self._key, iter_bits(self._informative)))
        return [nodes[order[key & rank_mask]] for key in keys]

    def most_informative(self) -> Optional[Node]:
        """The first node of :meth:`informative`, or ``None`` when none is left.

        Stored keys only underestimate exact keys, so the heap top is the
        exact top once its rescored key equals its stored one.
        """
        self.refresh()
        heap = self._heap
        if heap is None:
            heap = self._heap = self._initial_heap()
        informative = self._informative
        order = self._index.str_order
        rank_mask = (1 << self._rank_bits) - 1
        while heap:
            stored = heap[0]
            position = order[stored & rank_mask]
            if not informative >> position & 1:
                heapq.heappop(heap)  # pruned or labelled since it was pushed
                continue
            exact = self._key(position)
            if exact == stored:
                return self._index.nodes[position]
            heapq.heapreplace(heap, exact)
        return None

    def informative_count(self) -> int:
        """Number of informative nodes remaining."""
        self.refresh()
        return popcount(self._informative)

    def _implied(self) -> Tuple[int, int]:
        """The implied nodes and the implied positives among them, as position bitsets.

        An implied node is unlabelled and not informative.  It is positive
        when it spells a validated word and negative otherwise (its
        language then lies inside the negative cover).
        """
        self.refresh()
        implied = ((1 << len(self._index.nodes)) - 1) & ~(self._labeled | self._informative)
        return implied, implied & self._validated_spellers

    def implied_labels(self) -> List[Tuple[Node, bool]]:
        """Every unlabelled node whose label is implied, with that label, in node-table order."""
        implied, positive = self._implied()
        nodes = self._index.nodes
        return [(nodes[position], bool(positive >> position & 1)) for position in iter_bits(implied)]

    def propagate(self) -> Tuple[List[Node], List[Node]]:
        """Append the implied labels as one propagation pass, and record it.

        Returns the pass's nodes and its positive ones, both in node-table
        order.  While the classifier is current an implied negative's
        language lies inside the cover and an implied positive carries no
        validated word, so the pass changes only the labelled bits: after
        it every node not informative is labelled.  The pass is written
        whole or not at all, so the cursor moves past it only once it is in.
        """
        implied, positive = self._implied()
        index = self._index
        nodes = index.nodes_of(implied)
        positives = index.nodes_of(positive)
        self.examples.add_propagated(nodes, positives)
        self._labeled |= implied
        self._position += len(nodes)
        return nodes, positives

    def __repr__(self) -> str:
        return (
            f"<SessionClassifier bound={self.max_length} "
            f"{len(self._index.nodes)} nodes, cover={popcount(self._cover)} words>"
        )


def _resolve_classifier(
    graph: LabeledGraph,
    examples: ExampleSet,
    max_length: int,
    classifier: Optional[SessionClassifier],
) -> SessionClassifier:
    """``classifier`` when it tracks exactly this triple, else a throwaway one."""
    if (
        classifier is not None
        and classifier.graph is graph
        and classifier.max_length == max_length
        and classifier.examples is examples
    ):
        return classifier
    return SessionClassifier(graph, examples, max_length=max_length)


def classify_all(
    graph: LabeledGraph,
    examples: ExampleSet,
    *,
    max_length: int,
    classifier: Optional[SessionClassifier] = None,
) -> Dict[Node, NodeStatus]:
    """Classify every node against the examples.

    Served from ``classifier`` when it tracks ``(graph, examples,
    max_length)`` — a session passes its own — and otherwise from a
    :class:`SessionClassifier` built for this call.  Results are
    identical to :func:`classify_all_scratch`.
    """
    return _resolve_classifier(graph, examples, max_length, classifier).statuses()


def informative_nodes(
    graph: LabeledGraph,
    examples: ExampleSet,
    *,
    max_length: int,
    classifier: Optional[SessionClassifier] = None,
) -> List[Node]:
    """The informative nodes, sorted by decreasing informativeness score.

    Ties are broken by node identifier so the ordering is deterministic.
    """
    return _resolve_classifier(graph, examples, max_length, classifier).informative()


def most_informative_node(
    graph: LabeledGraph,
    examples: ExampleSet,
    *,
    max_length: int,
    classifier: Optional[SessionClassifier] = None,
) -> Optional[Node]:
    """The first node of :func:`informative_nodes`, or ``None`` when none is left."""
    return _resolve_classifier(graph, examples, max_length, classifier).most_informative()


def pruned_nodes(
    graph: LabeledGraph,
    examples: ExampleSet,
    *,
    max_length: int,
) -> FrozenSet[Node]:
    """Unlabelled nodes whose label is already implied (the pruned set).

    The size of this set after each interaction is the quantity tracked by
    experiment E2 (pruning effectiveness).
    """
    classifier = SessionClassifier(graph, examples, max_length=max_length)
    return frozenset(node for node, _positive in classifier.implied_labels())


def pruning_fraction(
    graph: LabeledGraph,
    examples: ExampleSet,
    *,
    max_length: int,
) -> float:
    """Fraction of unlabelled nodes that are pruned (0.0 when all nodes are labelled)."""
    unlabeled = [node for node in graph.nodes() if examples.label_of(node) is None]
    if not unlabeled:
        return 0.0
    pruned = pruned_nodes(graph, examples, max_length=max_length)
    return len(pruned) / len(unlabeled)
