"""Tests for the indexed, cached RPQ evaluation engine."""

import random

import pytest

from repro.graph.generators import random_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.query.engine import QueryEngine, compile_plan
from repro.query.rpq import PathQuery

EXPRESSIONS = [
    "(a + b)* . c",
    "a . b",
    "c*",
    "a . (b + c)* . a",
    "b",
    "(a . a)* . b",
    "c . c",
    "a*",
    "(b . c)* . a",
]


def _reference_evaluate(graph, dfa):
    """Independent naive product fixed point (the seed algorithm)."""
    from collections import deque

    if dfa.is_empty():
        return frozenset()
    successful = set()
    queue = deque()
    for node in graph.nodes():
        for state in dfa.accepting_states:
            successful.add((node, state))
            queue.append((node, state))
    reverse = {}
    for source, symbol, target in dfa.transitions():
        reverse.setdefault(target, []).append((symbol, source))
    while queue:
        node, state = queue.popleft()
        for symbol, dfa_source in reverse.get(state, ()):
            for graph_source in graph.predecessors(node, symbol):
                pair = (graph_source, dfa_source)
                if pair not in successful:
                    successful.add(pair)
                    queue.append(pair)
    initial = dfa.initial_state
    return frozenset(node for node in graph.nodes() if (node, initial) in successful)


def _three_or_more(label):
    """The DFA of ``label . label . label . label*`` (cyclic, no empty word)."""
    from repro.automata.dfa import DFA

    dfa = DFA(0)
    for state in (1, 2, 3):
        dfa.add_state(state)
        dfa.add_transition(state - 1, label, state)
    dfa.add_transition(3, label, 3)
    dfa.set_accepting(3)
    return dfa


class TestGraphVersion:
    def test_new_graph_version_zero(self):
        assert LabeledGraph().version == 0

    def test_add_edge_bumps_version(self):
        graph = LabeledGraph()
        before = graph.version
        graph.add_edge("a", "x", "b")
        assert graph.version > before

    def test_readd_existing_edge_keeps_version(self):
        graph = LabeledGraph.from_edges([("a", "x", "b")])
        before = graph.version
        graph.add_edge("a", "x", "b")
        assert graph.version == before

    def test_readd_existing_node_keeps_version(self):
        graph = LabeledGraph()
        graph.add_node("a")
        before = graph.version
        graph.add_node("a")
        assert graph.version == before

    def test_remove_edge_bumps_version(self):
        graph = LabeledGraph.from_edges([("a", "x", "b")])
        before = graph.version
        graph.remove_edge("a", "x", "b")
        assert graph.version > before

    def test_remove_node_bumps_version(self):
        graph = LabeledGraph.from_edges([("a", "x", "b")])
        before = graph.version
        graph.remove_node("b")
        assert graph.version > before

    def test_version_monotone_across_mutations(self):
        graph = LabeledGraph()
        seen = [graph.version]
        graph.add_edge("a", "x", "b")
        seen.append(graph.version)
        graph.add_edge("b", "y", "c")
        seen.append(graph.version)
        graph.remove_edge("a", "x", "b")
        seen.append(graph.version)
        assert seen == sorted(seen) and len(set(seen)) == len(seen)


class TestLabelIndex:
    def test_index_cached_until_mutation(self):
        graph = LabeledGraph.from_edges([("a", "x", "b"), ("b", "x", "c")])
        first = graph.label_index()
        assert graph.label_index() is first
        graph.add_edge("c", "y", "a")
        rebuilt = graph.label_index()
        assert rebuilt is not first
        assert rebuilt.version == graph.version

    def test_reverse_csr_contents(self):
        graph = LabeledGraph.from_edges([("a", "x", "c"), ("b", "x", "c"), ("a", "y", "b")])
        index = graph.label_index()
        c = index.node_ids["c"]
        preds = {index.nodes[i] for i in index.predecessor_ids(c, "x")}
        assert preds == {"a", "b"}
        assert index.predecessor_ids(c, "y") == []
        assert index.reverse_csr("missing-label") is None

    def test_forward_searches_leave_the_label_index_unbuilt(self):
        # x -a-> y -a-> z -a-> w: only a path of three labels reaches
        # acceptance, beyond the oracle's bound, so only its exact
        # forward fallback can find that x is selected
        from repro.learning.language_index import CompatibilityOracle, LanguageIndex

        graph = LabeledGraph.from_edges([("x", "a", "y"), ("y", "a", "z"), ("z", "a", "w")])
        dfa = _three_or_more("a")
        engine = QueryEngine()
        assert engine.selects(graph, dfa, "x")
        assert not engine.selects(graph, dfa, "y")
        assert engine.selects(graph, PathQuery("a . a . a"), "x")
        oracle = CompatibilityOracle(graph, ["x"], max_length=2, index=LanguageIndex(graph, 2))
        assert not oracle.compatible(dfa)
        assert CompatibilityOracle(graph, ["y", "w"], max_length=2).compatible(dfa)
        assert graph._label_index is None

    def test_an_evaluated_graph_dies_with_its_last_reference(self):
        # the label index holds no reference back to its graph, so the
        # graph is freed by reference counting alone, without a cycle
        import gc
        import weakref

        engine = QueryEngine()
        graph = random_graph(200, 600, ("a", "b", "c"), seed=5)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            assert engine.evaluate(graph, "a . b*")
            assert graph._label_index is not None
            graph_ref = weakref.ref(graph)
            del graph
            assert graph_ref() is None
        finally:
            if was_enabled:
                gc.enable()


class TestPlanFingerprints:
    def test_equivalent_regexes_share_fingerprint(self):
        pairs = [
            ("(a + b)* . c", "(b + a)* . c"),
            ("a . (b . c)", "(a . b) . c"),
            ("a + a", "a"),
            ("(a*)*", "a*"),
            ("a . b + a . c", "a . (b + c)"),
        ]
        for left, right in pairs:
            assert compile_plan(left).fingerprint == compile_plan(right).fingerprint, (left, right)

    def test_different_languages_differ(self):
        assert compile_plan("a . b").fingerprint != compile_plan("b . a").fingerprint

    def test_fingerprint_ignores_dead_alphabet(self):
        # `b` can never reach acceptance on the right-hand expression
        query = PathQuery("a")
        padded = query.dfa.copy()
        padded.declare_alphabet({"b"})
        assert compile_plan(padded).fingerprint == compile_plan("a").fingerprint

    def test_non_minimal_dfa_gets_canonical_fingerprint(self):
        from repro.automata.dfa import DFA

        # two equivalent accepting states for the language {a}
        redundant = DFA(0)
        for state in (1, 2):
            redundant.add_state(state)
            redundant.set_accepting(state)
        redundant.add_transition(0, "a", 1)
        bloated = DFA(0)
        for state in (1, 2):
            bloated.add_state(state)
        bloated.set_accepting(2)
        bloated.add_transition(0, "a", 2)
        assert (
            compile_plan(redundant).fingerprint
            == compile_plan(bloated).fingerprint
            == compile_plan("a").fingerprint
        )

    def test_plan_cached_on_path_query(self):
        engine = QueryEngine()
        query = PathQuery("(a + b)* . c")
        first = engine.plan(query)
        assert engine.plan(query) is first
        assert engine.stats()["plan_hits"] == 1

    def test_empty_query_plan(self):
        from repro.automata.dfa import DFA

        plan = compile_plan(DFA(0))  # no accepting state: the empty language
        assert plan.is_empty
        assert plan.fingerprint == "empty"
        graph = LabeledGraph.from_edges([("a", "x", "b")])
        assert QueryEngine().evaluate(graph, DFA(0)) == frozenset()

    def test_expression_plan_cache_bounded(self, monkeypatch):
        monkeypatch.setattr(QueryEngine, "MAX_EXPRESSION_PLANS", 2)
        engine = QueryEngine()
        engine.plan("a")
        engine.plan("b")
        engine.plan("c")
        assert len(engine._expression_plans) <= 2

    def test_expression_plan_eviction_is_lru(self, monkeypatch):
        # a repeatedly-used plan must survive eviction pressure: each hit
        # refreshes its position, so the cold entry is evicted instead
        monkeypatch.setattr(QueryEngine, "MAX_EXPRESSION_PLANS", 2)
        engine = QueryEngine()
        hot = engine.plan("a")
        engine.plan("b")
        for filler in ("c", "d", "e"):
            assert engine.plan("a") is hot  # hit refreshes recency
            engine.plan(filler)  # evicts the cold entry, never "a"
        assert "a" in engine._expression_plans
        misses_before = engine.stats()["plan_misses"]
        assert engine.plan("a") is hot
        assert engine.stats()["plan_misses"] == misses_before

    def test_expression_plan_eviction_drops_least_recent(self, monkeypatch):
        monkeypatch.setattr(QueryEngine, "MAX_EXPRESSION_PLANS", 2)
        engine = QueryEngine()
        engine.plan("a")
        engine.plan("b")
        engine.plan("b")  # "a" is now the least recently used
        engine.plan("c")
        assert "a" not in engine._expression_plans
        assert set(engine._expression_plans) == {"b", "c"}


class TestAnswerCache:
    def test_second_evaluation_is_a_cache_hit(self):
        engine = QueryEngine()
        graph = LabeledGraph.from_edges([("a", "x", "b")])
        query = PathQuery("x")
        first = engine.evaluate(graph, query)
        assert engine.stats()["answer_misses"] == 1
        second = engine.evaluate(graph, query)
        assert second == first == frozenset({"a"})
        assert engine.stats()["answer_hits"] == 1

    def test_equivalent_queries_share_cache_entry(self):
        engine = QueryEngine()
        graph = LabeledGraph.from_edges([("a", "x", "b")])
        engine.evaluate(graph, PathQuery("x + x"))
        engine.evaluate(graph, PathQuery("x"))
        stats = engine.stats()
        assert stats["answer_misses"] == 1 and stats["answer_hits"] == 1

    def test_add_edge_invalidates(self):
        engine = QueryEngine()
        graph = LabeledGraph.from_edges([("a", "x", "b")])
        query = PathQuery("x . y")
        assert engine.evaluate(graph, query) == frozenset()
        graph.add_edge("b", "y", "c")
        assert engine.evaluate(graph, query) == frozenset({"a"})
        assert engine.stats()["answer_misses"] == 2

    def test_remove_edge_invalidates(self):
        engine = QueryEngine()
        graph = LabeledGraph.from_edges([("a", "x", "b"), ("b", "y", "c")])
        query = PathQuery("x . y")
        assert engine.evaluate(graph, query) == frozenset({"a"})
        graph.remove_edge("b", "y", "c")
        assert engine.evaluate(graph, query) == frozenset()

    def test_unrelated_graphs_do_not_share_answers(self):
        engine = QueryEngine()
        one = LabeledGraph.from_edges([("a", "x", "b")], name="one")
        two = LabeledGraph.from_edges([("c", "x", "d")], name="two")
        assert engine.evaluate(one, "x") == frozenset({"a"})
        assert engine.evaluate(two, "x") == frozenset({"c"})

    def test_refresh_drops_a_stale_answer(self):
        engine = QueryEngine()
        graph = LabeledGraph.from_edges([("a", "x", "b")])
        engine.evaluate(graph, "x")
        assert engine.refresh(graph) == {"answers_dropped": 0}
        graph.add_edge("c", "x", "a")  # the answer of x changes
        assert engine.refresh(graph) == {"answers_dropped": 1}
        assert engine.evaluate(graph, "x") == frozenset({"a", "c"})
        assert engine.stats()["answer_misses"] == 2

    def test_mutated_dfa_is_recompiled(self):
        # regression: plans were cached per DFA object with no
        # invalidation, so mutating the automaton served stale answers
        from repro.automata.dfa import DFA

        engine = QueryEngine()
        graph = LabeledGraph.from_edges([("x", "a", "y")])
        dfa = DFA(0)
        dfa.add_state(1)
        dfa.set_accepting(1)
        dfa.add_transition(0, "a", 1)
        assert engine.evaluate(graph, dfa) == frozenset({"x"})
        dfa.set_accepting(0)  # now also accepts the empty word
        assert engine.evaluate(graph, dfa) == frozenset({"x", "y"})
        assert engine.selects(graph, dfa, "y")

    def test_selects_uses_cached_answer_after_mutation_guard(self):
        engine = QueryEngine()
        graph = LabeledGraph.from_edges([("a", "x", "b")])
        query = PathQuery("x")
        engine.evaluate(graph, query)
        assert engine.selects(graph, query, "a")
        graph.add_edge("c", "x", "a")
        # stale cache must not be consulted after the version bump
        assert engine.selects(graph, query, "c")


class TestBatchEvaluator:
    @pytest.mark.parametrize("seed", range(5))
    def test_batch_agrees_with_reference_on_random_graphs(self, seed):
        graph = random_graph(60, 220, ("a", "b", "c"), seed=seed)
        queries = [PathQuery(expression) for expression in EXPRESSIONS]
        engine = QueryEngine()
        batch = engine.evaluate_many(graph, queries)
        for query, answer in zip(queries, batch):
            assert answer == _reference_evaluate(graph, query.dfa), str(query)

    def test_batch_agrees_with_single_evaluate(self):
        graph = random_graph(40, 150, ("a", "b", "c"), seed=99)
        queries = [PathQuery(expression) for expression in EXPRESSIONS]
        batch = QueryEngine().evaluate_many(graph, queries)
        singles = [QueryEngine().evaluate(graph, query) for query in queries]
        assert batch == singles

    def test_batch_runs_one_pass_for_distinct_plans(self):
        engine = QueryEngine()
        graph = random_graph(30, 100, ("a", "b"), seed=3)
        engine.evaluate_many(graph, ["a . b", "b . a", "a*", "b*"])
        assert engine.stats()["batch_passes"] == 1

    def test_batch_on_random_word_queries(self):
        rng = random.Random(11)
        graph = random_graph(50, 180, ("a", "b", "c"), seed=11)
        queries = [
            PathQuery.from_word([rng.choice("abc") for _ in range(rng.randint(1, 4))])
            for _ in range(12)
        ]
        batch = QueryEngine().evaluate_many(graph, queries)
        for query, answer in zip(queries, batch):
            assert answer == _reference_evaluate(graph, query.dfa)

    def test_empty_query_list(self):
        assert QueryEngine().evaluate_many(LabeledGraph(), []) == []

    def test_empty_graph(self):
        assert QueryEngine().evaluate_many(LabeledGraph(), ["a", "b*"]) == [
            frozenset(),
            frozenset(),
        ]

    def test_mixed_label_types_evaluate(self):
        # regression: plan canonicalisation used to sort raw symbols,
        # raising TypeError on graphs whose labels mix int and str
        from repro.automata.dfa import DFA

        graph = LabeledGraph.from_edges([("s", 1, "m"), ("s", "a", "m"), ("m", "a", "t")])
        dfa = DFA(0)
        dfa.add_state(1)
        dfa.add_state(2)
        dfa.set_accepting(2)
        dfa.add_transition(0, 1, 1)
        dfa.add_transition(0, "a", 1)
        dfa.add_transition(1, "a", 2)
        assert QueryEngine().evaluate(graph, dfa) == frozenset({"s"})

    def test_batch_deduplicates_equivalent_cold_misses(self):
        engine = QueryEngine()
        graph = LabeledGraph.from_edges([("a", "x", "b")])
        answers = engine.evaluate_many(graph, [PathQuery("x"), PathQuery("x + x")])
        assert answers[0] == answers[1] == frozenset({"a"})
        assert engine.stats()["answer_misses"] == 1

    def test_mixed_node_types_evaluate(self):
        # int and str node ids in one graph (the witness-path sort-key bug
        # scenario) must evaluate fine through the integer-id index
        graph = LabeledGraph.from_edges([(1, "x", "b"), ("b", "y", 2), (1, "y", 2)])
        assert QueryEngine().evaluate(graph, "x . y") == frozenset({1})


def _random_multigraph(rng, labels):
    """A random graph with self-loops and parallel edges under several labels."""
    graph = LabeledGraph()
    node_count = rng.randint(1, 9)
    for node in range(node_count):
        graph.add_node(node)
    for _ in range(rng.randint(0, 3 * node_count)):
        source = rng.randrange(node_count)
        target = source if rng.random() < 0.2 else rng.randrange(node_count)
        for label in rng.sample(labels, rng.randint(1, len(labels))):
            graph.add_edge(source, label, target)
    return graph


def _random_dfa(rng, labels, kind):
    """A random DFA over ``labels`` of one ``kind``.

    ``acyclic`` moves only to higher states, ``cyclic`` adds a move back
    to the initial state, ``empty-word`` accepts its initial state and
    ``empty-language`` accepts nothing.
    """
    from repro.automata.dfa import DFA

    state_count = rng.randint(1, 4)
    dfa = DFA(0)
    for state in range(1, state_count):
        dfa.add_state(state)
    for state in range(state_count):
        for label in labels:
            if rng.random() < 0.5:
                low = state + 1 if kind == "acyclic" else 0
                if low < state_count:
                    dfa.add_transition(state, label, rng.randrange(low, state_count))
    if kind == "cyclic":
        dfa.add_transition(state_count - 1, rng.choice(labels), 0)
    if kind != "empty-language":
        for state in range(state_count):
            if rng.random() < 0.4:
                dfa.set_accepting(state)
        dfa.set_accepting(0 if kind == "empty-word" else state_count - 1)
    if kind != "empty-word":
        dfa.set_accepting(0, False)
    return dfa


class TestSelectsAny:
    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_batch_evaluation(self, seed):
        from repro.query.engine import selects_any

        rng = random.Random(seed)
        labels = ["a", "b", "c"]
        for _ in range(40):
            graph = _random_multigraph(rng, labels)
            nodes = list(graph.nodes())
            for kind in ("acyclic", "cyclic", "empty-word", "empty-language"):
                dfa = _random_dfa(rng, labels, kind)
                answer = QueryEngine().evaluate(graph, dfa)
                repeated = [rng.choice(nodes)] * 2 + rng.sample(nodes, rng.randint(0, len(nodes)))
                for starts in ([], [rng.choice(nodes)], repeated):
                    expected = any(start in answer for start in starts)
                    assert selects_any(graph, dfa, starts) == expected, (kind, starts)

    def test_each_kind_is_drawn(self):
        # the generator really produces every kind the property test names
        from repro.learning.language_index import _longest_accepted_length

        rng = random.Random(0)
        for kind in ("acyclic", "cyclic", "empty-word", "empty-language"):
            empty_word, plans, longest = [], [], []
            for _ in range(20):
                dfa = _random_dfa(rng, ["a", "b"], kind)
                empty_word.append(dfa.accepts_empty_word())
                plans.append(QueryEngine().plan(dfa))
                longest.append(_longest_accepted_length(dfa))
            assert all(accepts == (kind == "empty-word") for accepts in empty_word)
            assert all(plan.is_empty for plan in plans) == (kind == "empty-language")
            assert (None in longest) == (kind in ("cyclic", "empty-word"))


class TestSharedEngineWiring:
    def test_session_threads_one_engine(self):
        from repro.graph.datasets import motivating_example
        from repro.interactive.oracle import NoisyUser, SimulatedUser
        from repro.interactive.session import InteractiveSession
        from repro.serving.workspace import GraphWorkspace

        def evaluations(engine):
            stats = engine.stats()
            return stats["answer_hits"] + stats["answer_misses"]

        engine = QueryEngine()
        graph = motivating_example()
        workspace = GraphWorkspace(engine=engine)
        user = SimulatedUser(graph, "(tram + bus)* . cinema", workspace=workspace)
        before = evaluations(engine)
        session = InteractiveSession(graph, user, workspace=workspace)
        result = session.run()
        assert session.engine is engine
        assert session.learner.engine is engine
        # a truthful user's labels certify every hypothesis consistent
        assert evaluations(engine) == before
        assert engine.evaluate(graph, result.learned_query) == user.goal_answer

        # a noisy negative covering a validated word fails the certificate,
        # and the learner explains the hypothesis through the shared engine
        engine = QueryEngine()
        workspace = GraphWorkspace(engine=engine)
        user = NoisyUser(graph, "tram", noise=0.15, seed=1, workspace=workspace)
        misses = engine.stats()["answer_misses"]
        session = InteractiveSession(graph, user, max_path_length=3, workspace=workspace)
        result = session.run()
        assert not all(record.hypothesis_consistent for record in result.records)
        assert engine.stats()["answer_misses"] > misses


class TestMixedLabelLearning:
    def test_check_consistency_with_mixed_label_validated_words(self):
        # regression: validated words were sorted by raw comparison,
        # raising TypeError when words mix int and str symbols
        from repro.learning.consistency import check_consistency
        from repro.learning.examples import ExampleSet

        graph = LabeledGraph.from_edges([("s", 1, "m"), ("s", "a", "m"), ("m", "a", "t")])
        examples = ExampleSet()
        examples.add_positive("s", validated_word=(1, "a"))
        examples.add_positive("m", validated_word=("a",))
        report = check_consistency(graph, "a . a", examples)
        assert report.rejected_words  # (1, 'a') is not in L(a . a)
