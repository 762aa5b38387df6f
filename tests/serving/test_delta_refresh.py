"""Property tests: delta-refreshed language indexes are bit-identical to
scratch rebuilds over random graphs x random add/remove tick sequences,
engine answers and neighbourhood balls of an older version are dropped
and rebuilt equal to scratch, and refresh stays precise when two graphs
mutate interleaved."""

import random

import pytest

from repro.graph.generators import random_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.neighborhood import NeighborhoodIndex
from repro.graph.paths import words_from
from repro.learning.language_index import LanguageIndex
from repro.query.engine import QueryEngine
from repro.serving.workspace import GraphWorkspace

ALPHABET = ("x", "y", "z")
QUERIES = ("x", "x.y", "(x|y)*.z", "y*", "z.z")
BOUND = 3


def random_tick(rng: random.Random, graph: LabeledGraph, *, churn: int = 4):
    """One random sliding-window tick: retire some edges, admit some new."""
    current = sorted(graph.edges())
    nodes = sorted(graph.nodes(), key=str)
    retire = rng.sample(current, min(churn, len(current)))
    admit = [
        (rng.choice(nodes), rng.choice(ALPHABET), rng.choice(nodes))
        for _ in range(churn)
    ]
    graph.apply_delta(add_edges=admit, remove_edges=retire)


def mixed_ticks(rng: random.Random, graph: LabeledGraph, keep):
    """Edge ticks, a node added with an edge, a node outside ``keep``
    removed, and one run of ticks the journal cannot bridge; yields after each."""
    for tick in range(6):
        if tick == 1:
            anchor = rng.choice(sorted(graph.nodes(), key=str))
            graph.apply_delta(add_edges=[("fresh", rng.choice(ALPHABET), anchor)])
        elif tick == 2:
            graph.remove_node(rng.choice(sorted(set(graph.nodes()) - set(keep), key=str)))
        elif tick == 4:
            version = graph.version
            for _ in range(graph.journal_limit + 1):
                random_tick(rng, graph, churn=1)
            assert graph.deltas_since(version) is None
        else:
            random_tick(rng, graph, churn=2)
        yield tick


def picked_by_node(index: LanguageIndex, banned_nodes) -> dict:
    """``pick_words`` over every node, outside the cover of ``banned_nodes``."""
    everyone = (1 << len(index.nodes)) - 1
    picked = index.pick_words(everyone, index.cover(banned_nodes))
    return {index.nodes[position]: word for position, word in picked.items()}


def assert_language_index_matches_scratch(index: LanguageIndex, graph: LabeledGraph):
    scratch = LanguageIndex(graph, index.max_length)
    assert index.version == graph.version
    assert set(index.nodes) == set(scratch.nodes)
    for node in scratch.nodes:
        assert index.decode(index.language(node)) == scratch.decode(
            scratch.language(node)
        ), f"language of {node!r} diverged from scratch rebuild"
        # the scratch build runs the walk under test too, so also check
        # against the per-node reference walk
        assert index.decode(index.language(node)) == words_from(
            graph, node, index.max_length
        ), f"language of {node!r} diverged from words_from"
        for length in range(index.max_length + 2):
            assert index.decode(index.language(node) & index.length_mask(length)) == (
                scratch.decode(scratch.language(node) & scratch.length_mask(length))
            ), f"length-{length} words of {node!r} diverged from scratch rebuild"
    # the arena may also hold words no node spells any more, or longer
    # words of a parent index: nobody spells those within the bound
    for word_id in range(1, len(index.arena)):
        scratch_id = scratch.arena.lookup(index.arena.word_of(word_id))
        expected = set() if scratch_id is None else set(scratch.nodes_of(scratch.spellers(scratch_id)))
        assert set(index.nodes_of(index.spellers(word_id))) == expected
    banned = sorted(scratch.nodes, key=str)[:3]
    for banned_nodes in ((), banned):
        assert picked_by_node(index, banned_nodes) == picked_by_node(scratch, banned_nodes)
    # internal consistency: spellers must mirror the languages exactly
    for position, node in enumerate(index.nodes):
        language = index.language(node)
        for word_id in range(1, len(index.arena)):
            spells = bool(index.spellers(word_id) & (1 << position))
            has = bool(language & (1 << word_id))
            assert spells == has, (
                f"spellers/language disagree for node {node!r}, "
                f"word {index.arena.word_of(word_id)!r}"
            )


def assert_same_fragment(kept, fresh):
    assert kept.nodes == fresh.nodes, f"ball of {kept.center!r} diverged"
    assert kept.distances == fresh.distances
    assert kept.frontier == fresh.frontier


class TestLanguageIndexProperty:
    @pytest.mark.parametrize("seed", [7, 23, 91])
    def test_refresh_equals_scratch_over_random_ticks(self, seed, monkeypatch):
        rng = random.Random(seed)
        graph = random_graph(18, 40, ALPHABET, seed=seed)
        workspace = GraphWorkspace()
        refreshed = LanguageIndex.refreshed

        def refreshed_at_largest_bound(index, target, *args):
            # every smaller bound is a restriction of the largest one held,
            # never walked through the journal on its own
            assert index.max_length == max(workspace._language[target])
            return refreshed(index, target, *args)

        monkeypatch.setattr(LanguageIndex, "refreshed", refreshed_at_largest_bound)
        bounds = [1, 2, 3, 4]
        for tick in range(7):
            if tick:
                if seed == 91 and tick in (3, 4):
                    # the node set changes: every bound is built again
                    graph.apply_delta(add_nodes=[f"fresh{tick}"], remove_nodes=[f"n{tick}"])
                else:
                    random_tick(rng, graph)
                if tick % 2:  # odd ticks refresh, even ones upgrade on access
                    workspace.refresh(graph)
                    for index in workspace._language[graph].values():
                        assert_language_index_matches_scratch(index, graph)
            rng.shuffle(bounds)
            for bound in bounds:
                index = workspace.language_index(graph, bound)
                assert_language_index_matches_scratch(index, graph)
        assert sorted(workspace._language[graph]) == [1, 2, 3, 4]
        # at least some ticks must have taken the delta path, or this
        # test silently degrades into rebuild-vs-rebuild
        assert workspace.stats()["language_index_refreshes"] > 0

    @pytest.mark.parametrize("seed", [5, 40])
    def test_node_churn_falls_back_and_stays_correct(self, seed):
        rng = random.Random(seed)
        graph = random_graph(12, 26, ALPHABET, seed=seed)
        workspace = GraphWorkspace()
        workspace.language_index(graph, BOUND)
        for tick in range(4):
            if tick % 2:
                graph.apply_delta(add_nodes=[f"fresh{tick}"])
            else:
                random_tick(rng, graph, churn=3)
            workspace.refresh(graph)
            index = workspace.language_index(graph, BOUND)
            assert_language_index_matches_scratch(index, graph)

    def test_access_path_refreshes_without_explicit_refresh(self):
        graph = random_graph(14, 30, ALPHABET, seed=3)
        workspace = GraphWorkspace()
        workspace.language_index(graph, BOUND)
        rng = random.Random(3)
        random_tick(rng, graph)
        index = workspace.language_index(graph, BOUND)  # lazy upgrade
        assert workspace.stats()["language_index_refreshes"] == 1
        assert_language_index_matches_scratch(index, graph)


class TestEngineAnswersProperty:
    @pytest.mark.parametrize("seed", [11, 57])
    def test_answers_equal_fresh_evaluation(self, seed):
        rng = random.Random(seed)
        graph = random_graph(16, 36, ALPHABET, seed=seed)
        engine = QueryEngine()
        engine.evaluate_many(graph, QUERIES)
        for tick in mixed_ticks(rng, graph, ()):
            stale = engine._answer_caches[graph]
            held = len(stale.answers)
            before = engine.stats()
            if tick % 2:  # odd ticks refresh, even ones drop on access
                assert engine.refresh(graph) == {"answers_dropped": held}
                assert engine._answer_caches[graph].answers == {}
            answers = engine.evaluate_many(graph, QUERIES)
            cache = engine._answer_caches[graph]
            assert cache is not stale and cache.version == graph.version
            # no answer of the older version served: every query evaluated again
            after = engine.stats()
            assert after["answer_hits"] == before["answer_hits"]
            assert after["answer_misses"] == before["answer_misses"] + len(QUERIES)
            assert after["answers_dropped"] == before["answers_dropped"] + held
            cold = QueryEngine()
            expected = cold.evaluate_many(graph, QUERIES)
            assert answers == expected

    def test_label_disjoint_answer_is_evaluated_again(self):
        graph = LabeledGraph.from_edges(
            [("a", "x", "b"), ("b", "y", "c"), ("c", "z", "a")]
        )
        engine = QueryEngine()
        answer_before = engine.evaluate(graph, "y")
        graph.add_edge("b", "x", "c")  # touches only label x
        engine.refresh(graph)
        misses_before = engine.stats()["answer_misses"]
        answer_after = engine.evaluate(graph, "y")
        assert engine.stats()["answer_misses"] == misses_before + 1
        assert answer_after == answer_before
        assert answer_after is not answer_before

    def test_empty_word_plans_drop_on_node_change(self):
        graph = LabeledGraph.from_edges([("a", "x", "b")])
        engine = QueryEngine()
        assert engine.evaluate(graph, "x*") == {"a", "b"}
        graph.add_node("c")  # no labels touched, but the node set grew
        engine.refresh(graph)
        assert engine.evaluate(graph, "x*") == {"a", "b", "c"}


class TestNeighborhoodProperty:
    @pytest.mark.parametrize("seed", [13, 77])
    def test_balls_equal_scratch_bfs(self, seed):
        rng = random.Random(seed)
        graph = random_graph(20, 30, ALPHABET, seed=seed)
        index = NeighborhoodIndex(graph)
        centers = sorted(graph.nodes(), key=str)[:6]
        for center in centers:
            index.neighborhood(center, 2)
        for tick in mixed_ticks(rng, graph, centers):
            stale = list(index._states.values())
            if tick % 2:  # odd ticks refresh, even ones drop on access
                assert index.refresh(graph) == len(centers)
                assert not index._states
            scratch = NeighborhoodIndex(graph)
            for center in centers:
                for radius in (2, 3, 5):
                    assert_same_fragment(
                        index.neighborhood(center, radius), scratch.neighborhood(center, radius)
                    )
                assert index.eccentricity_bound(center) == scratch.eccentricity_bound(center)
            # no BFS state of the older version survived the access
            assert not any(state is old for state in index._states.values() for old in stale)

    def test_disjoint_state_is_dropped_by_refresh(self):
        graph = LabeledGraph.from_edges([("a", "x", "b"), ("c", "y", "d")])
        index = NeighborhoodIndex(graph)
        index.neighborhood("a", 1)
        index.neighborhood("c", 1)
        graph.add_edge("c", "z", "d")  # far from the ball of a
        assert index.refresh(graph) == 2
        assert "a" not in index._states


class TestInterleavedPrecision:
    """refresh() must scope to the mutated graph only."""

    def _warm(self, workspace, graph):
        workspace.language_index(graph, BOUND)
        workspace.neighborhoods(graph).neighborhood(next(iter(graph.nodes())), 1)
        workspace.engine.evaluate(graph, "x")
        workspace.graph_fingerprint(graph)

    def test_refresh_scopes_to_the_mutated_graph(self):
        workspace = GraphWorkspace()
        left = random_graph(10, 20, ALPHABET, seed=1, name="left")
        right = random_graph(10, 20, ALPHABET, seed=2, name="right")
        self._warm(workspace, left)
        self._warm(workspace, right)
        right_index = workspace.language_index(right, BOUND)
        left.apply_delta(add_edges=[("n0", "z", "n1")])
        counters = workspace.refresh(left)
        assert counters["language_indexes_refreshed"] + counters[
            "language_indexes_dropped"
        ] == 1
        # the other graph's entry is untouched, same object
        assert workspace.language_index(right, BOUND) is right_index

    def test_refresh_shape_is_pinned_and_scoped(self):
        workspace = GraphWorkspace()
        left = random_graph(8, 14, ALPHABET, seed=4, name="left")
        right = random_graph(8, 14, ALPHABET, seed=5, name="right")
        self._warm(workspace, left)
        self._warm(workspace, right)
        left.add_edge("n0", "x", "n1")
        counters = workspace.refresh(left)
        assert set(counters) == {
            "language_indexes_refreshed",
            "language_indexes_dropped",
            "fingerprints_dropped",
            "answers_dropped",
            "neighborhood_states_dropped",
        }
        assert counters["language_indexes_refreshed"] == 1
        assert counters["fingerprints_dropped"] == 1
        assert counters["answers_dropped"] == 1
        assert counters["neighborhood_states_dropped"] == 1
        # the unmutated graph loses nothing
        assert workspace.refresh(right) == dict.fromkeys(counters, 0)

    def test_refresh_without_graph_reaches_engine_only_graphs(self):
        """A graph that only the engine holds answers for is refreshed by
        ``refresh()`` exactly as by ``refresh(graph)``."""

        def engine_only_graph_after_a_mutation():
            workspace = GraphWorkspace()
            graph = LabeledGraph.from_edges([("a", "x", "b"), ("b", "y", "c")])
            workspace.engine.evaluate(graph, "y")
            workspace.engine.evaluate(graph, "x")
            graph.add_edge("c", "x", "a")
            return workspace, graph

        workspace, graph = engine_only_graph_after_a_mutation()
        scoped = workspace.refresh(graph)
        workspace, graph = engine_only_graph_after_a_mutation()
        unscoped = workspace.refresh()
        assert unscoped == scoped
        assert unscoped["answers_dropped"] == 2
        assert workspace.engine.stats()["answers_dropped"] == 2
        assert workspace.engine.evaluate(graph, "x") == {"a", "c"}

    def test_interleaved_mutations_both_graphs_stay_correct(self):
        workspace = GraphWorkspace()
        rng = random.Random(99)
        graphs = [
            random_graph(12, 24, ALPHABET, seed=31, name="g0"),
            random_graph(12, 24, ALPHABET, seed=32, name="g1"),
        ]
        for graph in graphs:
            workspace.language_index(graph, BOUND)
        for tick in range(6):
            target = graphs[tick % 2]
            random_tick(rng, target, churn=2)
            workspace.refresh(target)
            for graph in graphs:
                index = workspace.language_index(graph, BOUND)
                assert_language_index_matches_scratch(index, graph)
