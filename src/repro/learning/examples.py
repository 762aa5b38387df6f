"""Example sets: the positive / negative node labels provided by the user.

An :class:`ExampleSet` records

* the nodes the user labelled **positive** (she wants them in the answer),
* the nodes the user labelled **negative** (she does not),
* optionally, for each positive node, the **validated word** — the path of
  interest the user confirmed in the prefix-tree step (Figure 3(c)), and
* the nodes whose labels were *propagated* automatically (implied by the
  user-provided labels), kept separately so interaction counts only
  reflect genuine user effort.

The set is mutable (the session enriches it) but exposes immutable views.
Every mutation appends a label to the history, so an incremental
consumer can keep a position in it and read only the labels added since
it last looked (:meth:`ExampleSet.events_since`, or
:meth:`ExampleSet.labels_since` for the bare nodes).  A propagation pass
(:meth:`ExampleSet.add_propagated`) appends one entry that covers all of
its labels; the history shows them one :class:`LabeledExample` each,
built when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Collection, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.exceptions import InconsistentExamplesError
from repro.graph.labeled_graph import Node

Word = Tuple[str, ...]


@dataclass(frozen=True)
class LabeledExample:
    """One labelling interaction: a node, its label, and an optional validated word."""

    node: Node
    positive: bool
    validated_word: Optional[Word] = None
    propagated: bool = False

    @property
    def sign(self) -> str:
        """``"+"`` or ``"-"`` (handy for rendering transcripts)."""
        return "+" if self.positive else "-"


@dataclass(frozen=True)
class _Pass:
    """One propagation pass: its nodes in order, its positive subset, its first position."""

    nodes: Tuple[Node, ...]
    positive: FrozenSet[Node]
    start: int

    def examples(self, offset: int) -> List[LabeledExample]:
        """The pass's labels from its ``offset``-th on, as history values."""
        positive = self.positive
        return [LabeledExample(node, node in positive, None, True) for node in self.nodes[offset:]]


class ExampleSet:
    """The evolving set of examples gathered during a session."""

    def __init__(self):
        self._positive: Dict[Node, Optional[Word]] = {}
        self._negative: set = set()
        self._propagated_positive: set = set()
        self._propagated_negative: set = set()
        #: one slot per label; every slot of a propagation pass holds its _Pass
        self._history: list = []

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_positive(
        self,
        node: Node,
        *,
        validated_word: Optional[Iterable[str]] = None,
        propagated: bool = False,
    ) -> LabeledExample:
        """Record ``node`` as a positive example (optionally with its validated path)."""
        if node in self._negative or node in self._propagated_negative:
            raise InconsistentExamplesError(
                f"node {node!r} is already a negative example", conflicting=[node]
            )
        word = tuple(validated_word) if validated_word is not None else None
        previous = self._positive.get(node)
        if node in self._positive and word is None:
            word = previous
        if propagated:
            if node not in self._positive:  # a user's positive stays the user's
                self._propagated_positive.add(node)
        else:
            self._propagated_positive.discard(node)
        self._positive[node] = word
        example = LabeledExample(node, True, word, propagated)
        self._history.append(example)
        return example

    def add_negative(self, node: Node, *, propagated: bool = False) -> LabeledExample:
        """Record ``node`` as a negative example."""
        if node in self._positive:
            raise InconsistentExamplesError(
                f"node {node!r} is already a positive example", conflicting=[node]
            )
        if propagated:
            if node not in self._negative:  # a user's negative stays the user's
                self._propagated_negative.add(node)
        else:
            self._propagated_negative.discard(node)
        self._negative.add(node)
        example = LabeledExample(node, False, None, propagated)
        self._history.append(example)
        return example

    def add_propagated(self, nodes: Sequence[Node], positive: Collection[Node]) -> None:
        """Record one propagation pass: ``nodes`` in order, ``positive`` the positive ones.

        Every node must be unlabelled; otherwise
        :class:`InconsistentExamplesError` is raised before anything
        changes, so a pass is recorded whole or not at all.  The pass
        appends one history entry covering ``len(nodes)`` positions.
        Reads rebuild its :class:`LabeledExample` values (positive ones
        without a validated word, all of them ``propagated``) on every
        call, so they are equal across reads but not the same objects.
        """
        positive = frozenset(positive)
        members = set(nodes)
        if not positive <= members:
            raise ValueError("the positive nodes of a pass must be among its nodes")
        if not (members.isdisjoint(self._negative) and members.isdisjoint(self._positive)):
            labeled = [node for node in nodes if self.label_of(node) is not None]
            raise InconsistentExamplesError(
                f"node {labeled[0]!r} is already labelled", conflicting=labeled
            )
        if not members:
            return
        record = _Pass(tuple(nodes), positive, len(self._history))
        negative = members - positive
        self._negative |= negative
        self._propagated_negative |= negative
        if positive:
            self._positive.update(dict.fromkeys(node for node in record.nodes if node in positive))
            self._propagated_positive |= positive
        self._history.extend(repeat(record, len(record.nodes)))

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def positive_nodes(self) -> FrozenSet[Node]:
        """All positive nodes (user-labelled and propagated)."""
        return frozenset(self._positive)

    @property
    def negative_nodes(self) -> FrozenSet[Node]:
        """All negative nodes (user-labelled and propagated)."""
        return frozenset(self._negative)

    @property
    def user_positive_nodes(self) -> FrozenSet[Node]:
        """Positive nodes explicitly labelled by the user."""
        return frozenset(node for node in self._positive if node not in self._propagated_positive)

    @property
    def user_negative_nodes(self) -> FrozenSet[Node]:
        """Negative nodes explicitly labelled by the user."""
        return frozenset(self._negative - self._propagated_negative)

    @property
    def labeled_nodes(self) -> FrozenSet[Node]:
        """Every node carrying a label of either sign."""
        return self.positive_nodes | self.negative_nodes

    def label_of(self, node: Node) -> Optional[bool]:
        """True / False / None for positive / negative / unlabelled."""
        if node in self._positive:
            return True
        if node in self._negative:
            return False
        return None

    def validated_word(self, node: Node) -> Optional[Word]:
        """The validated word of a positive node (``None`` when not validated)."""
        return self._positive.get(node)

    def validated_words(self) -> Dict[Node, Word]:
        """Mapping of every positive node that has a validated word."""
        return {node: word for node, word in self._positive.items() if word is not None}

    @property
    def history(self) -> Tuple[LabeledExample, ...]:
        """The full labelling history, in order (see :meth:`events_since`)."""
        return tuple(self.events_since(0))

    def __len__(self) -> int:
        """Number of labels in the history, read without copying it."""
        return len(self._history)

    def _entries_since(self, position: int) -> Iterator[Tuple[Union[LabeledExample, _Pass], int]]:
        """Each history entry from ``position`` on, with ``position``'s offset inside it."""
        history = self._history
        position = max(position, 0)
        while position < len(history):
            entry = history[position]
            if isinstance(entry, _Pass):
                yield entry, position - entry.start
                position = entry.start + len(entry.nodes)
            else:
                yield entry, 0
                position += 1

    def events_since(self, position: int) -> List[LabeledExample]:
        """The labels appended to the history after its first ``position`` entries.

        A propagation pass's labels are rebuilt on each read, so their
        values repeat across reads but their identity does not.  Nothing
        is read when ``position`` is at the end of the history.
        """
        if position >= len(self._history):
            return []
        events: List[LabeledExample] = []
        for entry, offset in self._entries_since(position):
            if isinstance(entry, _Pass):
                events.extend(entry.examples(offset))
            else:
                events.append(entry)
        return events

    def labels_since(self, position: int) -> Tuple[List[Node], List[Node]]:
        """The positive and the negative nodes of :meth:`events_since`, in history order.

        Equal to splitting ``events_since(position)`` by sign, but builds
        no :class:`LabeledExample`; each read builds two new lists.
        """
        positives: List[Node] = []
        negatives: List[Node] = []
        for entry, offset in self._entries_since(position):
            if isinstance(entry, _Pass):
                nodes = entry.nodes[offset:]
                positive = entry.positive
                if positive:
                    positives.extend(node for node in nodes if node in positive)
                    negatives.extend(node for node in nodes if node not in positive)
                else:
                    negatives.extend(nodes)
            elif entry.positive:
                positives.append(entry.node)
            else:
                negatives.append(entry.node)
        return positives, negatives

    def interaction_count(self) -> int:
        """Number of *user* labelling actions (propagated labels excluded)."""
        return sum(
            1 for entry in self._history if isinstance(entry, LabeledExample) and not entry.propagated
        )

    def is_empty(self) -> bool:
        """True when no example has been provided yet."""
        return not self._positive and not self._negative

    def copy(self) -> "ExampleSet":
        """Independent copy (used by strategies doing what-if analysis)."""
        clone = ExampleSet()
        clone._positive = dict(self._positive)
        clone._negative = set(self._negative)
        clone._propagated_positive = set(self._propagated_positive)
        clone._propagated_negative = set(self._propagated_negative)
        clone._history = list(self._history)
        return clone

    def __repr__(self) -> str:
        return (
            f"<ExampleSet +{len(self._positive)} / -{len(self._negative)} "
            f"({self.interaction_count()} user interactions)>"
        )
