"""Unit tests for the two-step learner."""

import random

import pytest

from repro.automata.equivalence import equivalent
from repro.exceptions import InconsistentExamplesError, NodeNotFoundError
from repro.graph.datasets import dataset_catalog
from repro.graph.generators import random_graph
from repro.graph.paths import words_from
from repro.interactive.oracle import NoisyUser, SimulatedUser
from repro.interactive.session import InteractiveSession
from repro.learning.consistency import check_consistency
from repro.learning.examples import ExampleSet
from repro.learning.learner import PathQueryLearner, learn_query
from repro.learning.propagation import propagate_to_fixpoint
from repro.query.engine import QueryEngine
from repro.serving.workspace import GraphWorkspace, default_workspace
from repro.workloads.queries import generate_workload


def evaluate(graph, query):
    """Workspace-engine evaluation (the module-level evaluate() shim now warns)."""
    return default_workspace().engine.evaluate(graph, query)


def sample_words(learner, examples):
    """Step (i) against the negative view a full learn builds."""
    return learner.select_sample_words(examples, learner._negative_view(examples.negative_nodes))


class TestSelectSampleWords:
    def test_validated_words_honoured(self, figure1_graph):
        learner = PathQueryLearner(figure1_graph)
        examples = ExampleSet()
        examples.add_positive("N2", validated_word=("bus", "tram", "cinema"))
        examples.add_negative("N5")
        chosen = sample_words(learner, examples)
        assert chosen["N2"] == ("bus", "tram", "cinema")

    def test_shortest_uncovered_fallback(self, figure1_graph):
        learner = PathQueryLearner(figure1_graph)
        examples = ExampleSet()
        examples.add_positive("N4")
        examples.add_negative("N5")
        chosen = sample_words(learner, examples)
        assert chosen["N4"] == ("cinema",)

    def test_inconsistent_positive_raises(self, figure1_graph):
        learner = PathQueryLearner(figure1_graph, max_path_length=3)
        examples = ExampleSet()
        examples.add_positive("N4")
        examples.add_negative("N6")  # N6 covers 'cinema', N4's only word
        with pytest.raises(InconsistentExamplesError):
            sample_words(learner, examples)


class TestLearn:
    def test_paper_running_example(self, figure1_graph, figure1_query):
        """Sample words bus.tram.cinema + cinema generalise to the goal query."""
        query = learn_query(
            figure1_graph,
            positive={"N2": ("bus", "tram", "cinema"), "N6": ("cinema",)},
            negative=["N5"],
        )
        assert query.same_language(figure1_query)
        assert evaluate(figure1_graph, query) == {"N1", "N2", "N4", "N6"}

    def test_without_validation_yields_consistent_but_different_query(self, figure1_graph):
        """Section 3: without path validation the learner may return `bus`."""
        query = learn_query(figure1_graph, positive={"N2": None, "N6": None}, negative=["N5"])
        answer = evaluate(figure1_graph, query)
        assert "N2" in answer and "N6" in answer and "N5" not in answer
        assert not query.same_language("(tram + bus)* . cinema")

    def test_learned_query_never_selects_negatives(self, figure1_graph):
        outcome = PathQueryLearner(figure1_graph).learn(_examples(figure1_graph))
        answer = evaluate(figure1_graph, outcome.query)
        assert not (answer & {"N3", "N5"})

    def test_outcome_reports_consistency_and_sample(self, figure1_graph):
        outcome = PathQueryLearner(figure1_graph).learn(_examples(figure1_graph))
        assert outcome.consistent
        assert ("cinema",) in outcome.sample_words

    def test_empty_positive_set_learns_empty_query(self, figure1_graph):
        learner = PathQueryLearner(figure1_graph)
        examples = ExampleSet()
        examples.add_negative("N5")
        outcome = learner.learn(examples)
        assert outcome.query.is_empty()
        assert outcome.consistent

    def test_no_examples_at_all(self, figure1_graph):
        outcome = PathQueryLearner(figure1_graph).learn(ExampleSet())
        assert outcome.query.is_empty()
        assert outcome.consistent

    def test_generalize_false_returns_disjunction_of_samples(self, figure1_graph):
        query = learn_query(
            figure1_graph,
            positive={"N2": ("bus", "tram", "cinema"), "N6": ("cinema",)},
            negative=["N5"],
            generalize=False,
        )
        assert query.accepts_word(("cinema",))
        assert query.accepts_word(("bus", "tram", "cinema"))
        # no generalisation: unseen repetitions are rejected
        assert not query.accepts_word(("bus", "bus", "cinema"))

    def test_sink_positive_with_no_negatives(self, figure1_graph):
        query = learn_query(figure1_graph, positive={"C1": None})
        # only consistent choice is the empty word: query selects everything
        assert evaluate(figure1_graph, query) == set(figure1_graph.nodes())

    def test_more_negatives_tighten_the_query(self, figure1_graph):
        loose = learn_query(figure1_graph, positive={"N6": None}, negative=["N5"])
        tight = learn_query(figure1_graph, positive={"N6": None}, negative=["N5", "N3", "N1"])
        loose_answer = evaluate(figure1_graph, loose)
        tight_answer = evaluate(figure1_graph, tight)
        assert "N1" not in tight_answer
        assert not ({"N5", "N3", "N1"} & tight_answer)
        assert "N6" in loose_answer and "N6" in tight_answer

    def test_learning_on_transit_graph_is_consistent(self, small_transit_graph):
        goal = "(tram + bus)* . cinema"
        answer = evaluate(small_transit_graph, goal)
        if not answer:
            pytest.skip("seeded transit graph has no cinema reachable")
        positives = {node: None for node in sorted(answer, key=str)[:2]}
        negatives = sorted(set(small_transit_graph.nodes()) - answer, key=str)[:3]
        learner = PathQueryLearner(small_transit_graph, max_path_length=5)
        examples = ExampleSet()
        for node in positives:
            examples.add_positive(node)
        for node in negatives:
            examples.add_negative(node)
        outcome = learner.learn(examples)
        assert outcome.consistent


def _examples(graph) -> ExampleSet:
    examples = ExampleSet()
    examples.add_positive("N2", validated_word=("bus", "tram", "cinema"))
    examples.add_positive("N6", validated_word=("cinema",))
    examples.add_negative("N5")
    examples.add_negative("N3")
    return examples


class TestAbsentNegatives:
    """A negative outside the graph raises NodeNotFoundError in every mode."""

    def test_raises_before_step_one(self, figure1_graph):
        # N6 covers 'cinema', N4's only word: step (i) alone would report
        # the examples inconsistent instead
        with pytest.raises(NodeNotFoundError) as raised:
            learn_query(figure1_graph, {"N4": None}, ["N6", "zz", "typo"], max_path_length=3)
        assert raised.value.node == "typo"

    def test_raises_without_positives(self, figure1_graph):
        with pytest.raises(NodeNotFoundError):
            learn_query(figure1_graph, {}, ["typo"])

    def test_raises_without_generalisation(self, figure1_graph):
        with pytest.raises(NodeNotFoundError):
            learn_query(figure1_graph, {"N2": None}, ["typo"], generalize=False)

    def test_raises_on_a_negative_only_batch(self, figure1_graph):
        learner = PathQueryLearner(figure1_graph)
        examples = _examples(figure1_graph)
        learner.learn(examples)
        examples.add_negative("typo")
        with pytest.raises(NodeNotFoundError):
            learner.learn(examples)


class _CountingLearner(PathQueryLearner):
    """Counts full learns through the step (i) seam."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.full_learns = 0

    def select_sample_words(self, examples, negatives):
        self.full_learns += 1
        return super().select_sample_words(examples, negatives)


class TestLearnCursor:
    """learn() re-runs both steps only when a label can change the hypothesis."""

    def test_negative_only_batch_returns_the_last_outcome(self, figure1_graph):
        learner = _CountingLearner(figure1_graph)
        examples = _examples(figure1_graph)
        first = learner.learn(examples)
        # (bus + tram)* . cinema selects neither
        examples.add_negative("R1")
        examples.add_negative("C1", propagated=True)
        assert learner.learn(examples) is first
        assert learner.learn(examples) is first
        assert learner.full_learns == 1

    def test_a_selected_negative_runs_a_full_learn(self, figure1_graph):
        learner = _CountingLearner(figure1_graph)
        examples = ExampleSet()
        examples.add_positive("N2")
        examples.add_positive("N6")
        examples.add_negative("N5")
        first = learner.learn(examples)
        assert str(first.query) == "bus"
        examples.add_negative("N1")  # N1 spells 'bus'
        second = learner.learn(examples)
        assert learner.full_learns == 2
        assert not second.query.same_language(first.query)
        assert second.consistency == check_consistency(
            figure1_graph, second.query, examples, engine=QueryEngine()
        )

    @pytest.mark.parametrize(
        "change",
        ["positive", "re-added positive", "graph mutation", "copy", "generalize", "bound"],
    )
    def test_changes_run_a_full_learn(self, figure1_graph, change):
        learner = _CountingLearner(figure1_graph)
        examples = _examples(figure1_graph)
        learner.learn(examples)
        if change == "positive":
            examples.add_positive("N4")
        elif change == "re-added positive":
            examples.add_positive("N2", validated_word=("bus", "bus", "cinema"))
        elif change == "graph mutation":
            figure1_graph.add_edge("R1", "tram", "R2")
        elif change == "copy":
            examples = examples.copy()
        elif change == "generalize":
            learner.generalize = False
        else:
            learner.max_path_length = 4
        outcome = learner.learn(examples)
        assert learner.full_learns == 2
        assert outcome.consistency == check_consistency(
            figure1_graph, outcome.query, examples, engine=QueryEngine()
        )

    def test_a_call_that_raises_forgets_the_last_call(self, figure1_graph):
        learner = _CountingLearner(figure1_graph, max_path_length=3)
        examples = _examples(figure1_graph)
        first = learner.learn(examples)
        inconsistent = ExampleSet()
        inconsistent.add_positive("N4")
        inconsistent.add_negative("N6")  # covers 'cinema', N4's only word
        with pytest.raises(InconsistentExamplesError):
            learner.learn(inconsistent)
        again = learner.learn(examples)
        assert learner.full_learns == 3
        assert str(again.query) == str(first.query)


class TestConsistencyCertificate:
    """Every learned report equals the full check, whether certified or not."""

    @staticmethod
    def _assert_report(graph, examples, **options):
        outcome = PathQueryLearner(graph, **options).learn(examples)
        expected = check_consistency(graph, outcome.query, examples, engine=QueryEngine())
        assert outcome.consistency == expected
        return outcome

    def test_validated_word_the_node_cannot_spell(self, figure1_graph):
        examples = ExampleSet()
        examples.add_positive("N6", validated_word=("bus", "tram", "cinema"))
        examples.add_negative("N5")
        self._assert_report(figure1_graph, examples)

    def test_negative_covering_a_validated_word(self, figure1_graph):
        examples = ExampleSet()
        examples.add_positive("N2", validated_word=("bus",))
        examples.add_negative("N6")
        outcome = self._assert_report(figure1_graph, examples)
        assert outcome.consistency.covered_negatives == {"N6"}

    def test_no_positives(self, figure1_graph):
        examples = ExampleSet()
        examples.add_negative("N5")
        examples.add_negative("N1")
        assert self._assert_report(figure1_graph, examples).consistent

    def test_without_generalisation(self, figure1_graph):
        outcome = self._assert_report(figure1_graph, _examples(figure1_graph), generalize=False)
        assert outcome.consistent

    def test_validated_word_longer_than_the_bound(self, figure1_graph):
        examples = ExampleSet()
        examples.add_positive("N2", validated_word=("bus", "tram", "cinema"))
        examples.add_negative("N5")
        assert self._assert_report(figure1_graph, examples, max_path_length=2).consistent

    @pytest.mark.parametrize("negatives", [[], ["N5"]])
    def test_validated_empty_word(self, figure1_graph, negatives):
        examples = ExampleSet()
        examples.add_positive("C1", validated_word=())
        for node in negatives:
            examples.add_negative(node)
        outcome = self._assert_report(figure1_graph, examples)
        assert outcome.consistent == (not negatives)

    def test_validated_positive_absent_from_the_graph(self, figure1_graph):
        examples = ExampleSet()
        examples.add_positive("ghost", validated_word=("cinema",))
        examples.add_positive("N6")
        examples.add_negative("N5")
        outcome = self._assert_report(figure1_graph, examples)
        assert outcome.consistency.missed_positives == {"ghost"}


class _DifferentialLearner(PathQueryLearner):
    """Checks every outcome against a fresh learner and the full consistency check."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reference_engine = QueryEngine()
        self.calls = 0

    def learn(self, examples):
        self.calls += 1
        fresh = PathQueryLearner(
            self.graph,
            max_path_length=self.max_path_length,
            generalize=self.generalize,
            workspace=self.workspace,
        )
        try:
            expected = fresh.learn(examples)
        except InconsistentExamplesError:
            expected = None
        try:
            outcome = super().learn(examples)
        except InconsistentExamplesError:
            assert expected is None
            raise
        assert expected is not None
        assert str(outcome.query) == str(expected.query)
        assert equivalent(outcome.dfa, expected.dfa)
        assert outcome.sample_words == expected.sample_words
        assert outcome.consistency == check_consistency(
            self.graph, outcome.query, examples, engine=self.reference_engine
        )
        return outcome


def _random_word(rng, graph, node, bound):
    """A word ``node`` spells, at most one label beyond ``bound``."""
    words = sorted(words_from(graph, node, bound + 1))
    return rng.choice(words) if words else ()


def _random_batch(rng, graph, examples, bound):
    """Append one to three random labels, or one propagation pass."""
    nodes = sorted(graph.nodes(), key=str)
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        node = rng.choice(nodes)
        if roll < 0.5:
            if examples.label_of(node) is not True:
                examples.add_negative(node)
        elif roll < 0.75:
            if examples.label_of(node) is not False:
                word = _random_word(rng, graph, node, bound) if rng.random() < 0.5 else None
                examples.add_positive(node, validated_word=word)
        elif roll < 0.9:
            positives = sorted(examples.positive_nodes, key=str)
            if positives:
                node = rng.choice(positives)
                examples.add_positive(node, validated_word=_random_word(rng, graph, node, bound))
        else:
            propagate_to_fixpoint(graph, examples, max_length=bound)


class TestIncrementalEqualsFresh:
    """On every learn call, the outcome equals a fresh learner's (seeded property)."""

    def test_sessions(self):
        catalog = dataset_catalog()
        graphs = [catalog["figure-1"], catalog["transit-small"]]
        graphs += [random_graph(24, 60, "abc", seed=seed) for seed in range(2)]
        rng = random.Random(22)
        workspace = GraphWorkspace()
        calls = 0
        for graph in graphs:
            goals = [goal.query for goal in generate_workload(graph, per_family=1, seed=0)]
            for bound in (2, 3, 4):
                for noisy in (False, True):
                    for validation in (True, False):
                        goal = rng.choice(goals)
                        if noisy:
                            user = NoisyUser(
                                graph, goal, noise=0.15, seed=rng.randrange(100), workspace=workspace
                            )
                        else:
                            user = SimulatedUser(graph, goal, workspace=workspace)
                        session = InteractiveSession(
                            graph,
                            user,
                            path_validation=validation,
                            max_path_length=bound,
                            max_interactions=20,
                            workspace=workspace,
                        )
                        session.learner = _DifferentialLearner(
                            graph, max_path_length=bound, workspace=workspace
                        )
                        session.run()
                        calls += session.learner.calls
        assert calls > 300

    def test_noisy_session_with_a_covered_validated_word(self, figure1_graph):
        workspace = GraphWorkspace()
        user = NoisyUser(figure1_graph, "tram", noise=0.15, seed=1, workspace=workspace)
        session = InteractiveSession(figure1_graph, user, max_path_length=3, workspace=workspace)
        session.learner = _DifferentialLearner(figure1_graph, max_path_length=3, workspace=workspace)
        result = session.run()
        assert not all(record.hypothesis_consistent for record in result.records)

    def test_random_event_sequences(self):
        rng = random.Random(7)
        workspace = GraphWorkspace()
        for seed in range(12):
            graph = random_graph(10, 24, "ab", seed=seed)
            bound = rng.choice((2, 3, 4))
            learner = _DifferentialLearner(
                graph, max_path_length=bound, generalize=seed % 4 != 3, workspace=workspace
            )
            examples = ExampleSet()
            for _ in range(14):
                _random_batch(rng, graph, examples, bound)
                try:
                    learner.learn(examples)
                except InconsistentExamplesError:
                    pass
