"""The two-step learning algorithm (Section 2 of the paper).

Given a graph and a set of positive / negative node examples (plus, when
available, the validated path of each positive node):

(i)  for each positive example, find a path (word) that is not covered by
     any negative example — the validated word when the user confirmed
     one, otherwise the shortest uncovered word;
(ii) construct an automaton recognising precisely those words (a prefix
     tree acceptor) and generalise it by state merges while no negative
     example is covered — i.e. while the hypothesis selects no negative
     node of the graph.

The result is wrapped as a :class:`~repro.query.rpq.PathQuery` whose
regular expression is synthesised from the learned DFA.

Neither step evaluates a query over the graph.  The learner certifies
the consistency of its result with a few bit tests against the language
index, and :func:`check_consistency` runs only to explain a result whose
certificate fails.  Between interactions the learner re-learns only when
a label can change the hypothesis: negatives the current hypothesis
already rejects leave both steps' result unchanged.

:class:`PathQueryLearner` keeps the graph and options; :func:`learn_query`
is a functional convenience wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.automata.dfa import DFA, word_sort_key
from repro.automata.state_merging import generalize_pta
from repro.exceptions import InconsistentExamplesError, NoConsistentPathError, NodeNotFoundError
from repro.graph.labeled_graph import LabeledGraph, Node
from repro.learning.consistency import ConsistencyReport, check_consistency
from repro.learning.examples import ExampleSet, Word
from repro.learning.language_index import CompatibilityOracle
from repro.learning.path_selection import select_paths
from repro.query.engine import QueryEngine
from repro.query.rpq import PathQuery

#: Default bound on the length of candidate paths considered in step (i).
DEFAULT_MAX_PATH_LENGTH = 6


@dataclass
class LearningOutcome:
    """Everything the learner produced for one example set."""

    query: PathQuery
    dfa: DFA
    sample_words: Tuple[Word, ...]
    consistency: ConsistencyReport
    merges_allowed: bool = True

    @property
    def consistent(self) -> bool:
        """True when the learned query is consistent with the examples."""
        return self.consistency.consistent


class PathQueryLearner:
    """Learns a path query consistent with node examples on a fixed graph."""

    def __init__(
        self,
        graph: LabeledGraph,
        *,
        max_path_length: int = DEFAULT_MAX_PATH_LENGTH,
        generalize: bool = True,
        engine: Optional[QueryEngine] = None,
        workspace=None,
    ):
        self.graph = graph
        self.max_path_length = max_path_length
        #: when False the learner returns the ungeneralised disjunction of
        #: sample words (used by ablation experiments)
        self.generalize = generalize
        #: the GraphWorkspace providing the language index and canonical
        #: cache; defaults to the process workspace so standalone learners
        #: keep sharing state with everything else
        if workspace is None:
            from repro.serving.workspace import default_workspace

            workspace = default_workspace()
        self.workspace = workspace
        #: query engine that explains a learned query whose consistency
        #: certificate fails (:func:`check_consistency`); an explicit
        #: ``engine`` wins over the workspace's (benchmarks isolate the
        #: engine while sharing the workspace's language index this way)
        self.engine = engine if engine is not None else workspace.engine
        #: the last successful call: ``((examples, graph, graph.version,
        #: max_path_length, generalize), history length, outcome)``;
        #: ExampleSet and LabeledGraph compare by identity
        self._last_call: Optional[Tuple[tuple, int, LearningOutcome]] = None

    # ------------------------------------------------------------------
    # step (i): choose one uncovered word per positive node
    # ------------------------------------------------------------------
    def select_sample_words(
        self, examples: ExampleSet, negatives: CompatibilityOracle
    ) -> Dict[Node, Word]:
        """Pick the sample word of every positive node.

        Validated words are honoured verbatim; for the remaining positive
        nodes the shortest word outside the cover of the negative view
        ``negatives`` is selected, all of them in one sweep of the
        language index (:func:`select_paths`).  Raises
        :class:`InconsistentExamplesError` when some positive node has no
        uncovered word at all (no consistent query exists within the
        length bound); the first such node in ``str`` order is reported.
        """
        validated = examples.validated_words()
        try:
            chosen = select_paths(
                [node for node in examples.positive_nodes if node not in validated], negatives
            )
        except NoConsistentPathError as error:
            raise InconsistentExamplesError(
                f"positive node {error.node!r} has no path uncovered by the negative examples "
                f"(searched up to length {self.max_path_length})",
                conflicting=[error.node],
            ) from error
        chosen.update(validated)
        return chosen

    # ------------------------------------------------------------------
    # step (ii): PTA + state-merging generalisation
    # ------------------------------------------------------------------
    def _compatible(self, negatives: CompatibilityOracle):
        """Step (ii)'s predicate: the hypothesis selects no node of the negative view."""
        return negatives.compatible

    def _negative_view(self, negatives: Iterable[Node]) -> CompatibilityOracle:
        """The negatives, their cover and this learner's language index in one oracle."""
        return CompatibilityOracle(
            self.graph,
            negatives,
            max_length=self.max_path_length,
            index=self.workspace.language_index(self.graph, self.max_path_length),
        )

    def learn(self, examples: ExampleSet) -> LearningOutcome:
        """Run both steps and return the learned query with diagnostics.

        With an empty positive set the learner returns the empty query
        (selects nothing), which is trivially consistent with any set of
        negative-only examples.  A negative absent from the graph raises
        :class:`NodeNotFoundError` (the first one in ``str`` order).

        When every label added to the same example set since the last
        call is a negative that the last hypothesis does not select, and
        the graph version and options are unchanged, the last outcome is
        returned as it is.  This is exact: such negatives spell no sample
        word, so step (i) picks the same words; and every merge step (ii)
        accepted has a language inside the hypothesis, so it still selects
        no negative, while a rejected merge stays rejected.
        """
        last_call, self._last_call = self._last_call, None  # a call that raises forgets it
        # read before the examples are: a label appended meanwhile is left to the next call
        position = len(examples)
        graph = self.graph
        key = (examples, graph, graph.version, self.max_path_length, self.generalize)
        same_key = last_call is not None and last_call[0] == key
        if same_key and self._only_rejected_negatives(examples, last_call[1], last_call[2].dfa):
            outcome = last_call[2]
        else:
            _raise_first_absent(graph, examples.negative_nodes)
            outcome = self._learn(examples)
        self._last_call = (key, position, outcome)
        return outcome

    def _only_rejected_negatives(self, examples: ExampleSet, position: int, dfa: DFA) -> bool:
        """True when every label after ``position`` is a negative ``dfa`` does not select.

        Every negative since goes into the view, a propagated one too: a
        cyclic hypothesis can select it through a path beyond the bound.
        """
        positives, negatives = examples.labels_since(position)
        if positives:
            return False
        _raise_first_absent(self.graph, negatives)
        return self._negative_view(negatives).compatible(dfa)

    def _learn(self, examples: ExampleSet) -> LearningOutcome:
        """Both steps and the consistency certificate, all reading one negative view."""
        negatives = self._negative_view(examples.negative_nodes)
        sample_words = self.select_sample_words(examples, negatives)
        words = tuple(
            sorted(set(sample_words.values()), key=lambda word: (len(word), word_sort_key(word)))
        )

        if not words:
            # no positive: the empty query selects nothing, so it misses
            # no positive and selects no negative
            dfa = DFA(0)  # empty language
            query = PathQuery.from_dfa(dfa, name="empty", cache=self.workspace.canonical)
            return LearningOutcome(
                query, query.dfa, words, ConsistencyReport(consistent=True), self.generalize
            )

        if self.generalize:
            learned = generalize_pta(words, self._compatible(negatives))
        else:
            from repro.automata.prefix_tree import build_pta

            learned = build_pta(words)
        # from_dfa serves minimisation and regex synthesis from the
        # workspace's canonical-form cache, so a re-learn that returns a
        # hypothesis seen before does no automata work
        query = PathQuery.from_dfa(learned, cache=self.workspace.canonical)
        if self._certified(examples, negatives):
            report = ConsistencyReport(consistent=True)
        else:
            report = check_consistency(self.graph, query, examples, engine=self.engine)
        return LearningOutcome(query, query.dfa, words, report, self.generalize)

    def _certified(self, examples: ExampleSet, negatives: CompatibilityOracle) -> bool:
        """True when the construction proves the learned query consistent.

        The learned DFA accepts every sample word, since merges only add
        words.  It is the PTA or a merge the exact
        :class:`CompatibilityOracle` accepted, and every merge contains
        the PTA, so it selects a negative exactly when a negative spells a
        sample word.  Step (i) picks words in their node's language and
        outside the negative cover; a validated word needs the same two
        bit tests, read off the learn's negative view.  A word the index
        cannot decide (the empty word beside a negative, a word beyond
        the bound, a node absent from the graph) fails the certificate.
        """
        validated = examples.validated_words()
        if not validated:
            return True
        index = negatives.index
        cover = negatives.cover_bits
        for node, word in validated.items():
            if node not in index or len(word) > self.max_path_length:
                return False
            if not word:
                if negatives.negatives:
                    return False  # every node spells the empty word
                continue
            word_id = index.arena.lookup(word)
            if word_id is None or not index.language(node) >> word_id & 1 or cover >> word_id & 1:
                return False
        return True


def _raise_first_absent(graph: LabeledGraph, negatives: Iterable[Node]) -> None:
    """Raise :class:`NodeNotFoundError` for the first absent negative in ``str`` order.

    Ignoring it would shrink the negative cover without a signal (see
    :func:`~repro.learning.path_selection.covered_words`).
    """
    absent = sorted((node for node in negatives if node not in graph), key=str)
    if absent:
        raise NodeNotFoundError(absent[0])


def learn_query(
    graph: LabeledGraph,
    positive: Dict[Node, Optional[Word]] = None,
    negative: Optional[List[Node]] = None,
    *,
    max_path_length: int = DEFAULT_MAX_PATH_LENGTH,
    generalize: bool = True,
) -> PathQuery:
    """Functional one-shot API: learn a query from plain positive / negative lists.

    ``positive`` maps positive nodes to an optional validated word (pass
    ``None`` values when no path was validated); ``negative`` lists the
    negative nodes.
    """
    examples = ExampleSet()
    for node, word in (positive or {}).items():
        examples.add_positive(node, validated_word=word)
    for node in negative or []:
        examples.add_negative(node)
    learner = PathQueryLearner(graph, max_path_length=max_path_length, generalize=generalize)
    return learner.learn(examples).query
