"""Node-proposal strategies Υ.

A strategy is "a function that takes as input a graph G and a set of
examples S, and returns a node from G" (Section 2).  A good practical
strategy must (i) be time-efficient between interactions and (ii) minimise
the number of interactions by proposing only the most informative nodes.

Implemented strategies:

* :class:`RandomStrategy` — uniform choice among *unlabelled* nodes
  (ignores informativeness; the weakest baseline, models static labelling
  where the user wanders through the graph);
* :class:`RandomInformativeStrategy` — uniform choice among informative
  nodes (pruning on, ranking off);
* :class:`BreadthStrategy` — nearest informative node to the already
  labelled ones (locality heuristic: the user keeps looking around the
  same area of the graph);
* :class:`MostInformativePathsStrategy` — the paper's practical strategy:
  rank informative nodes by the number of short uncovered words they have
  ("nodes having an important number of paths that are shorter than a
  fixed bound and not covered by any negative node").

All informativeness lookups go through the session's incremental
:class:`~repro.learning.informativeness.SessionClassifier`, threaded in
with :meth:`Strategy.use_classifier`.  The most-informative strategy
asks it for the top node alone, which it finds on a heap of stale
scores; the other informative strategies get the full ranking.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections import deque
from typing import List, Optional

from repro.exceptions import NoCandidateNodeError
from repro.graph.labeled_graph import LabeledGraph, Node
from repro.learning.examples import ExampleSet
from repro.learning.informativeness import (
    SessionClassifier,
    classify_all,
    informative_nodes,
    most_informative_node,
)


class Strategy(ABC):
    """Base class for node-proposal strategies."""

    #: short identifier used in experiment tables
    name: str = "abstract"

    def __init__(self, *, max_path_length: int = 4):
        self.max_path_length = max_path_length
        #: the session's incremental classifier (threaded via
        #: :meth:`use_classifier`); informativeness lookups go through it
        self._classifier: Optional[SessionClassifier] = None

    def use_classifier(self, classifier: SessionClassifier) -> None:
        """Thread the session's classifier into this strategy.

        The classifier is only consulted when it tracks exactly the
        ``(graph, examples, max_path_length)`` triple being ranked, so
        binding is always safe; a mismatching call classifies with a
        classifier built for that call.
        """
        self._classifier = classifier

    def _informative(self, graph: LabeledGraph, examples: ExampleSet) -> List[Node]:
        """Ranked informative nodes via the bound classifier when it fits."""
        return informative_nodes(
            graph, examples, max_length=self.max_path_length, classifier=self._classifier
        )

    def _statuses(self, graph: LabeledGraph, examples: ExampleSet):
        """Per-node statuses via the bound classifier when it fits."""
        return classify_all(
            graph, examples, max_length=self.max_path_length, classifier=self._classifier
        )

    def signature(self) -> Optional[tuple]:
        """Hashable description of this strategy's proposal behaviour.

        Used by cross-session deduplication: two strategies with equal
        signatures propose identical node sequences on identical session
        states.  ``None`` (the base default for unknown subclasses, and
        unseeded random strategies) means "not reproducible — never
        dedup".  Deterministic built-ins return ``(name, bound)``.
        """
        return None

    @abstractmethod
    def propose(self, graph: LabeledGraph, examples: ExampleSet) -> Node:
        """Return the next node to show to the user.

        Raises :class:`NoCandidateNodeError` when no candidate remains.
        """

    def _unlabeled(self, graph: LabeledGraph, examples: ExampleSet) -> List[Node]:
        return sorted(
            (node for node in graph.nodes() if examples.label_of(node) is None), key=str
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} max_path_length={self.max_path_length}>"


class RandomStrategy(Strategy):
    """Uniformly random unlabelled node (no pruning, no ranking)."""

    name = "random"

    def __init__(self, *, seed: Optional[int] = None, max_path_length: int = 4):
        super().__init__(max_path_length=max_path_length)
        self.seed = seed
        self._rng = random.Random(seed)

    def signature(self) -> Optional[tuple]:
        if self.seed is None:
            return None  # unseeded: proposals are not reproducible
        return (self.name, self.max_path_length, self.seed)

    def propose(self, graph: LabeledGraph, examples: ExampleSet) -> Node:
        candidates = self._unlabeled(graph, examples)
        if not candidates:
            raise NoCandidateNodeError("every node is already labelled")
        return self._rng.choice(candidates)


class RandomInformativeStrategy(Strategy):
    """Uniformly random *informative* node (pruning on, ranking off)."""

    name = "random-informative"

    def __init__(self, *, seed: Optional[int] = None, max_path_length: int = 4):
        super().__init__(max_path_length=max_path_length)
        self.seed = seed
        self._rng = random.Random(seed)

    def signature(self) -> Optional[tuple]:
        if self.seed is None:
            return None  # unseeded: proposals are not reproducible
        return (self.name, self.max_path_length, self.seed)

    def propose(self, graph: LabeledGraph, examples: ExampleSet) -> Node:
        candidates = self._informative(graph, examples)
        if not candidates:
            raise NoCandidateNodeError("no informative node remains")
        return self._rng.choice(sorted(candidates, key=str))


class BreadthStrategy(Strategy):
    """Nearest informative node to the labelled region (undirected BFS)."""

    name = "breadth"

    def signature(self) -> Optional[tuple]:
        return (self.name, self.max_path_length)

    def propose(self, graph: LabeledGraph, examples: ExampleSet) -> Node:
        candidates = set(self._informative(graph, examples))
        if not candidates:
            raise NoCandidateNodeError("no informative node remains")
        seeds = sorted(examples.labeled_nodes & frozenset(graph.nodes()), key=str)
        if not seeds:
            return sorted(candidates, key=str)[0]
        seen = set(seeds)
        queue = deque(seeds)
        while queue:
            node = queue.popleft()
            if node in candidates:
                return node
            neighbors = sorted(graph.successors(node) | graph.predecessors(node), key=str)
            for other in neighbors:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        # labelled region does not reach any candidate: fall back to global order
        return sorted(candidates, key=str)[0]


class MostInformativePathsStrategy(Strategy):
    """The paper's practical strategy: most short uncovered words first."""

    name = "most-informative"

    def signature(self) -> Optional[tuple]:
        return (self.name, self.max_path_length)

    def propose(self, graph: LabeledGraph, examples: ExampleSet) -> Node:
        node = most_informative_node(
            graph, examples, max_length=self.max_path_length, classifier=self._classifier
        )
        if node is None:
            raise NoCandidateNodeError("no informative node remains")
        return node


class DegreeStrategy(Strategy):
    """Highest out-degree informative node (cheap proxy for informativeness).

    Included as an ablation point between random and most-informative: it
    needs no path enumeration at all, so it is the fastest ranking
    strategy, but it ignores how many of a node's paths are already
    covered by negatives.
    """

    name = "degree"

    def signature(self) -> Optional[tuple]:
        return (self.name, self.max_path_length)

    def propose(self, graph: LabeledGraph, examples: ExampleSet) -> Node:
        statuses = self._statuses(graph, examples)
        candidates = [node for node, status in statuses.items() if status.informative]
        if not candidates:
            raise NoCandidateNodeError("no informative node remains")
        return max(sorted(candidates, key=str), key=lambda node: graph.out_degree(node))


#: Registry used by experiments and the console front-end.
STRATEGY_REGISTRY = {
    cls.name: cls
    for cls in (
        RandomStrategy,
        RandomInformativeStrategy,
        BreadthStrategy,
        MostInformativePathsStrategy,
        DegreeStrategy,
    )
}


def make_strategy(
    name: str, *, seed: Optional[int] = None, max_path_length: int = 4
) -> Strategy:
    """Instantiate a strategy by registry name."""
    if name not in STRATEGY_REGISTRY:
        raise ValueError(f"unknown strategy {name!r}; known: {sorted(STRATEGY_REGISTRY)}")
    cls = STRATEGY_REGISTRY[name]
    if cls in (RandomStrategy, RandomInformativeStrategy):
        return cls(seed=seed, max_path_length=max_path_length)
    return cls(max_path_length=max_path_length)
