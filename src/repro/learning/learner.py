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

:class:`PathQueryLearner` keeps the graph and options; :func:`learn_query`
is a functional convenience wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.automata.dfa import DFA, word_sort_key
from repro.automata.state_merging import generalize_pta
from repro.exceptions import InconsistentExamplesError, NoConsistentPathError
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
        #: query engine used for the consistency check of every learned
        #: query; an explicit ``engine`` wins over the workspace's
        #: (benchmarks isolate the engine while sharing the workspace's
        #: language index this way)
        self.engine = engine if engine is not None else workspace.engine

    # ------------------------------------------------------------------
    # step (i): choose one uncovered word per positive node
    # ------------------------------------------------------------------
    def select_sample_words(self, examples: ExampleSet) -> Dict[Node, Word]:
        """Pick the sample word of every positive node.

        Validated words are honoured verbatim; for the remaining positive
        nodes the shortest uncovered word is selected, all of them in one
        sweep of the language index (:func:`select_paths`).  Raises
        :class:`InconsistentExamplesError` when some positive node has no
        uncovered word at all (no consistent query exists within the
        length bound); the first such node in ``str`` order is reported.
        """
        validated = examples.validated_words()
        try:
            chosen = select_paths(
                self.graph,
                [node for node in examples.positive_nodes if node not in validated],
                examples.negative_nodes,
                max_length=self.max_path_length,
                index=self.workspace.language_index(self.graph, self.max_path_length),
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
    def _compatible(self, examples: ExampleSet):
        """Compatibility predicate: the hypothesis must select no negative node.

        Each merge candidate is intersected with the precompiled negative
        word-id cover of the shared language index (one graph product pass
        at most, shared by all negatives).
        """
        oracle = CompatibilityOracle(
            self.graph,
            sorted(examples.negative_nodes, key=str),
            max_length=self.max_path_length,
            index=self.workspace.language_index(self.graph, self.max_path_length),
        )
        return oracle.compatible

    def learn(self, examples: ExampleSet) -> LearningOutcome:
        """Run both steps and return the learned query with diagnostics.

        With an empty positive set the learner returns the empty query
        (selects nothing), which is trivially consistent with any set of
        negative-only examples.
        """
        sample_words = self.select_sample_words(examples)
        words = tuple(
            sorted(set(sample_words.values()), key=lambda word: (len(word), word_sort_key(word)))
        )

        if not words:
            dfa = DFA(0)  # empty language
            query = PathQuery.from_dfa(dfa, name="empty", cache=self.workspace.canonical)
            report = check_consistency(self.graph, query, examples, engine=self.engine)
            return LearningOutcome(query, query.dfa, words, report, self.generalize)

        if self.generalize:
            learned = generalize_pta(words, self._compatible(examples))
        else:
            from repro.automata.prefix_tree import build_pta

            learned = build_pta(words)
        # from_dfa serves minimisation and regex synthesis from the
        # workspace's canonical-form cache, so re-learning an unchanged
        # hypothesis — the common case between interactions — does no
        # automata work
        query = PathQuery.from_dfa(learned, cache=self.workspace.canonical)
        report = check_consistency(self.graph, query, examples, engine=self.engine)
        return LearningOutcome(query, query.dfa, words, report, self.generalize)


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
