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
it last looked (:meth:`ExampleSet.events_since`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

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


class ExampleSet:
    """The evolving set of examples gathered during a session."""

    def __init__(self):
        self._positive: Dict[Node, Optional[Word]] = {}
        self._negative: set = set()
        self._propagated_positive: set = set()
        self._propagated_negative: set = set()
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
        self._positive[node] = word
        if propagated:
            self._propagated_positive.add(node)
        else:
            self._propagated_positive.discard(node)
        example = LabeledExample(node, True, word, propagated)
        self._history.append(example)
        return example

    def add_negative(self, node: Node, *, propagated: bool = False) -> LabeledExample:
        """Record ``node`` as a negative example."""
        if node in self._positive:
            raise InconsistentExamplesError(
                f"node {node!r} is already a positive example", conflicting=[node]
            )
        self._negative.add(node)
        if propagated:
            self._propagated_negative.add(node)
        else:
            self._propagated_negative.discard(node)
        example = LabeledExample(node, False, None, propagated)
        self._history.append(example)
        return example

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
        """The full labelling history, in order."""
        return tuple(self._history)

    def __len__(self) -> int:
        """Number of labels in the history, read without copying it."""
        return len(self._history)

    def events_since(self, position: int) -> List[LabeledExample]:
        """The labels appended to the history after its first ``position`` entries."""
        return self._history[position:]

    def interaction_count(self) -> int:
        """Number of *user* labelling actions (propagated labels excluded)."""
        return sum(1 for example in self._history if not example.propagated)

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
