"""Simulated users (oracles).

The demo lets EDBT attendees answer the interactive questions; for an
offline, repeatable evaluation we replace the human with a
:class:`SimulatedUser` that holds a hidden *goal query* and answers
exactly the questions the GPS front-end would ask a person:

* ``label(node)`` — "Yes/No": is the node part of the intended result?
  Answered by evaluating the goal query on the graph.
* ``wants_zoom(node, neighborhood)`` — would the user zoom out before
  answering?  The simulated user zooms while the currently visible
  fragment contains no witness path for her decision (positive nodes) or
  until a configurable patience runs out (negative nodes), mirroring how a
  person keeps zooming until she can see why a node is (not) interesting.
* ``validate_path(node, tree)`` — given the prefix tree of candidate
  words, confirm the highlighted one or pick the word that the goal query
  accepts (the user corrects the system, Figure 3(c)).

A :class:`NoisyUser` wrapper flips labels with a configurable probability
to study robustness (used by an ablation benchmark), and an
:class:`UnreliableUser` wrapper turns any oracle into a *failing* one —
its answers raise :class:`~repro.exceptions.InjectedFault` on a
deterministic, seeded schedule, which is how the chaos harness exercises
the supervision layer.
"""

from __future__ import annotations

import random
import zlib
from typing import Optional, Tuple, Union

from repro.automata.dfa import word_sort_key
from repro.automata.prefix_tree import PathPrefixTree
from repro.exceptions import InjectedFault, OracleError
from repro.graph.labeled_graph import LabeledGraph, Node
from repro.graph.neighborhood import Neighborhood
from repro.query.engine import QueryEngine
from repro.query.evaluation import witness_path
from repro.query.rpq import PathQuery
from repro.regex.ast import Regex
from repro.serving.workspace import default_workspace

Word = Tuple[str, ...]


class SimulatedUser:
    """An oracle answering interactive questions according to a goal query."""

    def __init__(
        self,
        graph: LabeledGraph,
        goal: Union[str, Regex, PathQuery],
        *,
        zoom_patience: int = 2,
        engine: Optional[QueryEngine] = None,
        workspace=None,
    ):
        self.graph = graph
        self.goal = goal if isinstance(goal, PathQuery) else PathQuery(goal)
        self.zoom_patience = zoom_patience
        if engine is None:
            engine = workspace.engine if workspace is not None else default_workspace().engine
        self.engine = engine
        self._answer = frozenset(self.engine.evaluate(graph, self.goal))
        #: statistics the experiment harness reads back
        self.labels_answered = 0
        self.zooms_requested = 0
        self.paths_validated = 0
        self.paths_corrected = 0

    # ------------------------------------------------------------------
    # the three question types
    # ------------------------------------------------------------------
    @property
    def goal_answer(self) -> frozenset:
        """The set of nodes the user ultimately wants."""
        return self._answer

    def label(self, node: Node) -> bool:
        """Positive / negative answer for ``node``."""
        if node not in self.graph:
            raise OracleError(f"asked to label unknown node {node!r}")
        self.labels_answered += 1
        return node in self._answer

    def wants_zoom(self, node: Node, neighborhood: Neighborhood) -> bool:
        """Whether the user asks to zoom out before labelling ``node``.

        For a positive node the user zooms until the visible fragment
        contains a full witness path of the goal query; for a negative node
        she zooms at most ``zoom_patience`` times (modelling "I looked
        around a bit and found nothing of interest").
        """
        if node in self._answer:
            witness = witness_path(self.graph, self.goal, node)
            if witness is None:
                return False
            # membership goes through the fragment's node set, so asking
            # "can I see the witness?" never materialises the subgraph
            visible = all(neighborhood.contains(step_node) for step_node in witness.nodes)
            if not visible and neighborhood.radius < len(witness) :
                self.zooms_requested += 1
                return True
            return False
        if neighborhood.radius < self.zoom_patience:
            self.zooms_requested += 1
            return True
        return False

    def validate_path(self, node: Node, tree: PathPrefixTree) -> Optional[Word]:
        """Pick the path of interest in the prefix tree (Figure 3(c)).

        Returns the highlighted word when the goal query accepts it,
        otherwise the shortest word of the tree accepted by the goal query;
        ``None`` when no word of the tree is accepted (the session will
        then fall back to the shortest uncovered word).
        """
        self.paths_validated += 1
        highlighted = tree.highlighted_word()
        if highlighted is not None and self.goal.accepts_word(highlighted):
            return highlighted
        accepted = [word for word in tree.words() if self.goal.accepts_word(word)]
        if not accepted:
            return None
        accepted.sort(key=lambda word: (len(word), word_sort_key(word)))
        self.paths_corrected += 1
        return accepted[0]

    def satisfied_with(self, hypothesis: PathQuery) -> bool:
        """Instance-level satisfaction: the hypothesis returns her answer set."""
        return frozenset(self.engine.evaluate(self.graph, hypothesis)) == self._answer

    def dedup_signature(self) -> Optional[tuple]:
        """Hashable description of every answer this oracle can give.

        This is the *example signature* of cross-session deduplication:
        together with the graph fingerprint it determines the labels,
        zoom answers and path validations of the whole session, so two
        oracles with equal signatures drive byte-identical sessions.
        ``None`` (e.g. an unseeded :class:`NoisyUser`) disables dedup.
        """
        return (
            type(self).__name__,
            str(self.goal),
            self.zoom_patience,
            tuple(sorted(self._answer, key=str)),
        )

    def statistics(self) -> dict:
        """Interaction counters (for experiment reports)."""
        return {
            "labels": self.labels_answered,
            "zooms": self.zooms_requested,
            "validations": self.paths_validated,
            "corrections": self.paths_corrected,
        }


class NoisyUser(SimulatedUser):
    """A simulated user that flips node labels with probability ``noise``.

    Path validation stays faithful (the user sees the paths in front of
    her); only the quick Yes/No node answers are noisy.  Used to study how
    the learner degrades with labelling mistakes.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        goal: Union[str, Regex, PathQuery],
        *,
        noise: float = 0.1,
        seed: Optional[int] = None,
        zoom_patience: int = 2,
        engine: Optional[QueryEngine] = None,
        workspace=None,
    ):
        super().__init__(
            graph, goal, zoom_patience=zoom_patience, engine=engine, workspace=workspace
        )
        if not 0.0 <= noise <= 1.0:
            raise ValueError("noise must be within [0, 1]")
        self.noise = noise
        self.seed = seed
        self._rng = random.Random(seed)
        self.flipped_labels = 0

    def dedup_signature(self) -> Optional[tuple]:
        if self.seed is None:
            return None  # unseeded flips are not reproducible: never dedup
        base = super().dedup_signature()
        # the rng-state digest distinguishes a fresh oracle from one whose
        # stream was already consumed by an earlier session, so reusing
        # one oracle object across sessions can never dedup incorrectly
        # (crc32, not hash(): builtin hash is PYTHONHASHSEED-salted)
        rng_state = zlib.crc32(repr(self._rng.getstate()).encode("utf-8"))
        return base + (self.noise, self.seed, rng_state)

    def label(self, node: Node) -> bool:
        truthful = super().label(node)
        if self._rng.random() < self.noise:
            self.flipped_labels += 1
            return not truthful
        return truthful


class UnreliableUser:
    """Chaos wrapper: any oracle, but its answers fail on a seeded schedule.

    Label and path-validation calls first consult the
    :class:`~repro.reliability.FaultInjector` (sites ``"oracle.label"``
    and ``"oracle.validate_path"``) and raise
    :class:`~repro.exceptions.InjectedFault` when the site's draw fires —
    *before* delegating, so a failed attempt never consumes the inner
    oracle's state (e.g. a :class:`NoisyUser`'s rng stream).  That is
    what makes retry-until-success produce the same answers, hence the
    same final hypothesis, as the fault-free run.
    """

    def __init__(self, inner: SimulatedUser, injector):
        self.inner = inner
        self.injector = injector
        self.injected_failures = 0

    def _gate(self, site: str) -> None:
        """Raise (and count) the injected fault when ``site`` fires."""
        if self.injector is None:
            return
        try:
            self.injector.check(site)
        except InjectedFault:
            self.injected_failures += 1
            raise

    def label(self, node: Node) -> bool:
        """The inner oracle's label, behind the ``oracle.label`` fault gate."""
        self._gate("oracle.label")
        return self.inner.label(node)

    def wants_zoom(self, node: Node, neighborhood: Neighborhood) -> bool:
        """Zoom decisions pass through unfaulted (they are UI, not answers)."""
        return self.inner.wants_zoom(node, neighborhood)

    def validate_path(self, node: Node, tree: PathPrefixTree) -> Optional[Word]:
        """The inner validation, behind the ``oracle.validate_path`` gate."""
        self._gate("oracle.validate_path")
        return self.inner.validate_path(node, tree)

    def satisfied_with(self, hypothesis: PathQuery) -> bool:
        """Satisfaction checks delegate unfaulted (used by halt conditions)."""
        return self.inner.satisfied_with(hypothesis)

    def dedup_signature(self) -> Optional[tuple]:
        """Always ``None``: a faulty oracle's session must never be shared."""
        return None

    def statistics(self) -> dict:
        """Inner counters plus the injected failure count."""
        stats = dict(self.inner.statistics())
        stats["injected_failures"] = self.injected_failures
        return stats

    def __getattr__(self, name: str):
        # everything else (graph, goal, goal_answer, engine, …) reads
        # through to the wrapped oracle
        return getattr(self.inner, name)
