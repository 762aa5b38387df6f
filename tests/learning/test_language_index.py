"""Tests for the bounded path-language index and the incremental classifier.

The heart of this file is the property-style session replay: random
graphs × random example sequences, asserting after *every* step that the
incremental :class:`SessionClassifier` matches the from-scratch
:func:`classify_all_scratch` oracle exactly, and that indexes rebuilt on
``graph.version`` bumps never serve stale languages.
"""

import os
import random
import sys
import threading

import pytest

from repro.exceptions import InconsistentExamplesError, NoConsistentPathError, NodeNotFoundError
from repro.graph.generators import random_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.paths import words_from
from repro.interactive.oracle import SimulatedUser
from repro.interactive.session import InteractiveSession
from repro.learning.examples import ExampleSet, LabeledExample
from repro.learning.informativeness import (
    NodeStatus,
    SessionClassifier,
    _ranked_informative,
    _resolve_classifier,
    classify_all,
    classify_all_scratch,
    informative_nodes,
)
from repro.learning.language_index import (
    CompatibilityOracle,
    LanguageIndex,
    PrefixIdArena,
    iter_bits,
    popcount,
)
from repro.learning.learner import PathQueryLearner
from repro.learning.path_selection import covered_words, select_path
from repro.learning.propagation import propagate_to_fixpoint
from repro.query.engine import QueryEngine
from repro.query.rpq import PathQuery
from repro.serving.workspace import GraphWorkspace, default_workspace


def language_index_for(graph, max_length):
    """Workspace-backed index accessor (the module-level shim now warns)."""
    return default_workspace().language_index(graph, max_length)


def random_tick(rng, graph, *, churn=2):
    """Retire ``churn`` random edges and admit ``churn`` random ones."""
    nodes = sorted(graph.nodes(), key=str)
    graph.apply_delta(
        add_edges=[(rng.choice(nodes), rng.choice("abc"), rng.choice(nodes)) for _ in range(churn)],
        remove_edges=rng.sample(sorted(graph.edges()), churn),
    )


def session_classifier(workspace, graph, examples, *, max_length):
    """A classifier whose index (re)builds go through ``workspace``, as a session's do."""
    return SessionClassifier(
        graph, examples, max_length=max_length, index_provider=workspace.language_index
    )


# ----------------------------------------------------------------------
# arena
# ----------------------------------------------------------------------
class TestPrefixIdArena:
    def test_root_is_empty_word(self):
        arena = PrefixIdArena()
        assert arena.word_of(0) == ()
        assert arena.lookup(()) == 0
        assert arena.length_of(0) == 0

    def test_extend_interns_once(self):
        arena = PrefixIdArena()
        first = arena.extend(0, "a")
        again = arena.extend(0, "a")
        assert first == again
        assert arena.word_of(first) == ("a",)

    def test_round_trip_and_lengths(self):
        arena = PrefixIdArena()
        ab = arena.extend(arena.extend(0, "a"), "b")
        assert arena.word_of(ab) == ("a", "b")
        assert arena.length_of(ab) == 2
        assert arena.lookup(("a", "b")) == ab
        assert arena.lookup(("b",)) is None

    def test_children_reflect_extensions(self):
        arena = PrefixIdArena()
        a = arena.extend(0, "a")
        b = arena.extend(0, "b")
        assert dict(arena.children(0)) == {"a": a, "b": b}

    def test_concurrent_interning_keeps_ids_dense_and_unique(self):
        """Threads intern overlapping and fresh words at once; every word
        gets one id, the ids are dense and each round-trips."""
        arena = PrefixIdArena()
        thread_count = 4 * (os.cpu_count() or 2)
        per_thread = 600
        interned = [{} for _ in range(thread_count)]
        barrier = threading.Barrier(thread_count)

        def intern(slot):
            barrier.wait(timeout=30)
            seen = interned[slot]
            for step in range(per_thread):
                shared = arena.extend(0, f"s{step % 50}")
                for key in ((0, f"s{step % 50}"), (shared, f"s{step % 7}"), (shared, f"t{slot}.{step}")):
                    seen[key] = arena.extend(*key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=intern, args=(slot,)) for slot in range(thread_count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        ids_by_key = {}
        for seen in interned:
            for key, word_id in seen.items():
                assert ids_by_key.setdefault(key, word_id) == word_id, f"{key!r} got two ids"
        # 50 shared one-label words, 350 shared two-label ones, the rest fresh
        assert len(ids_by_key) == 50 + 350 + thread_count * per_thread
        assert len(set(ids_by_key.values())) == len(ids_by_key), "one id was given to two words"
        assert sorted(ids_by_key.values()) == list(range(1, len(arena)))
        for (parent, label), word_id in ids_by_key.items():
            word = arena.word_of(parent) + (label,)
            assert arena.word_of(word_id) == word
            assert arena.lookup(word) == word_id
            assert (label, word_id) in arena.children(parent)


# ----------------------------------------------------------------------
# language index
# ----------------------------------------------------------------------
class TestLanguageIndex:
    def test_languages_match_words_from(self, figure1_graph):
        index = language_index_for(figure1_graph, 3)
        for node in figure1_graph.nodes():
            decoded = index.decode(index.language(node))
            assert decoded == words_from(figure1_graph, node, 3)

    def test_cover_matches_union(self, figure1_graph):
        index = language_index_for(figure1_graph, 2)
        bits = index.cover(["N5", "N4"])
        expected = words_from(figure1_graph, "N5", 2) | words_from(figure1_graph, "N4", 2)
        assert index.decode(bits) == expected

    def test_unknown_node_raises(self, figure1_graph):
        index = language_index_for(figure1_graph, 2)
        with pytest.raises(NodeNotFoundError):
            index.language("ghost")
        with pytest.raises(NodeNotFoundError):
            index.cover(["N5", "ghost"])

    def test_shortest_length_and_popcount(self, figure1_graph):
        index = language_index_for(figure1_graph, 3)
        bits = index.language("N2")
        words = index.decode(bits)
        assert popcount(bits) == len(words)
        assert index.shortest_length(bits) == min(len(word) for word in words)
        assert index.shortest_length(0) is None

    def test_spellers_transpose_languages(self, figure1_graph):
        index = language_index_for(figure1_graph, 2)
        for node in figure1_graph.nodes():
            position = index.node_positions[node]
            for word_id in iter_bits(index.language(node)):
                assert (index.spellers(word_id) >> position) & 1

    def test_shared_and_rebuilt_on_version_bump(self, figure1_graph):
        first = language_index_for(figure1_graph, 3)
        assert language_index_for(figure1_graph, 3) is first
        figure1_graph.add_edge("N2", "ferry", "N6")
        second = language_index_for(figure1_graph, 3)
        assert second is not first
        assert second.version == figure1_graph.version
        assert ("ferry",) in second.decode(second.language("N2"))

    def test_distinct_bounds_are_distinct_indexes(self, figure1_graph):
        assert language_index_for(figure1_graph, 2) is not language_index_for(figure1_graph, 3)

    def test_restricted_view_equals_fresh_index(self, figure1_graph):
        parent = language_index_for(figure1_graph, 4)
        view = parent.restricted(2)
        fresh = LanguageIndex(figure1_graph, 2)
        assert view.arena is parent.arena
        for node in figure1_graph.nodes():
            assert view.decode(view.language(node)) == fresh.decode(fresh.language(node))
            uncovered = view.language(node)
            assert view.shortest_length(uncovered) == fresh.shortest_length(
                fresh.language(node)
            )
            assert view.pick_word(uncovered) == fresh.pick_word(fresh.language(node))
        # the shared arena and speller table also hold the parent's longer
        # words, which no node spells within the view's bound
        for word_id in range(1, len(view.arena)):
            fresh_id = fresh.arena.lookup(view.arena.word_of(word_id))
            expected = fresh.spellers(fresh_id) if fresh_id is not None else 0
            assert view.spellers(word_id) == expected

    def test_restricted_rejects_larger_bound(self, figure1_graph):
        with pytest.raises(ValueError):
            language_index_for(figure1_graph, 2).restricted(3)

    @pytest.mark.parametrize("bound", [0, -2])
    def test_build_rejects_bound_below_one(self, figure1_graph, bound):
        with pytest.raises(ValueError):
            LanguageIndex(figure1_graph, bound)

    @pytest.mark.parametrize("bound", [0, -2])
    def test_restricted_rejects_bound_below_one(self, figure1_graph, bound):
        # a negative bound used to slice the parent's length masks from
        # the end, leaving a view with words of length 1
        with pytest.raises(ValueError):
            LanguageIndex(figure1_graph, 3).restricted(bound)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_session_and_learner_reject_bound_below_one(self, figure1_graph, warm):
        # a warm workspace serves the bound by restriction, a cold one builds it
        workspace = GraphWorkspace()
        if warm:
            workspace.language_index(figure1_graph, 4)
        user = SimulatedUser(figure1_graph, "bus", workspace=workspace)
        with pytest.raises(ValueError):
            InteractiveSession(figure1_graph, user, max_path_length=-1, workspace=workspace).run()
        examples = ExampleSet()
        examples.add_positive("N2")
        examples.add_negative("N1")
        learner = PathQueryLearner(figure1_graph, max_path_length=-3, workspace=workspace)
        with pytest.raises(ValueError):
            learner.learn(examples)

    def test_smaller_bound_served_from_larger_cached_index(self, figure1_graph):
        larger = language_index_for(figure1_graph, 4)
        smaller = language_index_for(figure1_graph, 3)
        assert smaller.arena is larger.arena  # restricted view, not a rebuild
        assert smaller.max_length == 3
        for node in figure1_graph.nodes():
            assert smaller.decode(smaller.language(node)) == words_from(
                figure1_graph, node, 3
            )

    def test_refreshed_restricted_view_matches_fresh_index(self, figure1_graph):
        # the stale view is re-derived from its delta-refreshed parent, and
        # its length masks come from the parent's over the shared arena,
        # longer words included
        workspace = GraphWorkspace()
        workspace.language_index(figure1_graph, 4)
        workspace.language_index(figure1_graph, 3)
        figure1_graph.add_edge("N2", "ferry", "N6")
        refreshed = workspace.language_index(figure1_graph, 3)
        assert workspace.stats()["language_index_refreshes"] == 1
        fresh = LanguageIndex(figure1_graph, 3)
        for node in figure1_graph.nodes():
            language = refreshed.language(node)
            assert refreshed.decode(language) == fresh.decode(fresh.language(node))
            assert refreshed.shortest_length(language) == fresh.shortest_length(
                fresh.language(node)
            )
            assert refreshed.pick_word(language) == fresh.pick_word(fresh.language(node))

    def test_iter_bits(self):
        assert list(iter_bits(0b101001)) == [0, 3, 5]
        assert list(iter_bits(0)) == []


# ----------------------------------------------------------------------
# the level walk against the per-node reference walk
# ----------------------------------------------------------------------
WALK_LABELS = ("a", "b", "c")


def awkward_graph(seed):
    """A random graph with a self-loop, a sink, an isolated node, parallel
    edges under different labels and one node that carries every label."""
    rng = random.Random(seed)
    nodes = [f"v{number}" for number in range(rng.randint(5, 14))]
    graph = LabeledGraph()
    graph.add_nodes(nodes + ["isolated"])
    graph.add_edges_bulk(
        [(rng.choice(nodes), rng.choice(WALK_LABELS), rng.choice(nodes)) for _ in range(rng.randint(6, 28))]
    )
    looped = rng.choice(nodes)
    graph.add_edge(looped, "a", looped)
    source, target = rng.sample(nodes, 2)
    graph.add_edges([(source, "a", target), (source, "b", target)])
    graph.add_edge(rng.choice(nodes), "c", "sink")
    graph.add_edges([("hub", label, rng.choice(nodes)) for label in WALK_LABELS])
    return graph


def assert_matches_words_from(index, graph):
    """Languages, spellers and arena of ``index`` against :func:`words_from`."""
    languages = {node: words_from(graph, node, index.max_length) for node in graph.nodes()}
    for node, words in languages.items():
        assert index.decode(index.language(node)) == words, f"language of {node!r}"
    arena = index.arena
    for word_id in range(1, len(arena)):
        word = arena.word_of(word_id)
        assert arena.lookup(word) == word_id
        # spellers are the exact transpose of the languages, both ways
        expected = {node for node, words in languages.items() if word in words}
        assert set(index.nodes_of(index.spellers(word_id))) == expected, f"spellers of {word!r}"
    return set().union(*languages.values())


class TestWalkMatchesWordsFrom:
    @pytest.mark.parametrize("bound", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("seed", range(6))
    def test_build_and_refresh(self, seed, bound):
        graph = awkward_graph(seed)
        index = LanguageIndex(graph, bound)
        # a build interns exactly the words some node spells
        assert len(index.arena) - 1 == len(assert_matches_words_from(index, graph))
        rng = random.Random(seed)
        nodes = sorted(graph.nodes())
        for _ in range(4):
            graph.apply_delta(
                add_edges=[(rng.choice(nodes), rng.choice(WALK_LABELS + ("d",)), rng.choice(nodes))],
                remove_edges=rng.sample(sorted(graph.edges()), 2),
            )
            index = index.refreshed(graph)
            assert index.version == graph.version
            assert_matches_words_from(index, graph)

    def test_build_interns_each_word_once(self, monkeypatch):
        graph = random_graph(800, 2400, "abcd", seed=5)
        calls = 0
        extend = PrefixIdArena.extend

        def counted(arena, parent, label):
            nonlocal calls
            calls += 1
            return extend(arena, parent, label)

        monkeypatch.setattr(PrefixIdArena, "extend", counted)
        index = LanguageIndex(graph, 3)
        assert calls == len(index.arena) - 1


# ----------------------------------------------------------------------
# incremental == from-scratch (the tentpole invariant)
# ----------------------------------------------------------------------
def _random_step(rng, graph, examples, max_length):
    """Apply one random labelling action; returns False when saturated."""
    unlabeled = sorted(
        (node for node in graph.nodes() if node not in examples.labeled_nodes), key=str
    )
    if not unlabeled:
        return False
    node = rng.choice(unlabeled)
    if rng.random() < 0.5:
        examples.add_negative(node)
    else:
        words = sorted(words_from(graph, node, max_length), key=lambda w: (len(w), w))
        validated = words[0] if words and rng.random() < 0.6 else None
        examples.add_positive(node, validated_word=validated)
    return True


class TestSessionClassifierMatchesScratch:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_graphs_random_sequences(self, seed):
        rng = random.Random(seed)
        graph = random_graph(
            rng.randint(8, 30), rng.randint(20, 90), ("a", "b", "c"), seed=seed
        )
        max_length = rng.choice((2, 3, 4))
        examples = ExampleSet()
        classifier = SessionClassifier(graph, examples, max_length=max_length)
        assert classifier.statuses() == classify_all_scratch(
            graph, examples, max_length=max_length
        )
        for _ in range(14):
            if not _random_step(rng, graph, examples, max_length):
                break
            incremental = classifier.statuses()
            scratch = classify_all_scratch(graph, examples, max_length=max_length)
            assert incremental == scratch

    def test_informative_ranking_matches_scratch_order(self, figure1_graph):
        examples = ExampleSet()
        examples.add_negative("N5")
        ranked = informative_nodes(figure1_graph, examples, max_length=3)
        statuses = classify_all_scratch(figure1_graph, examples, max_length=3)
        expected = [status for status in statuses.values() if status.informative]
        expected.sort(key=lambda status: (status.score, str(status.node)))
        expected.sort(key=lambda status: status.score, reverse=True)
        assert ranked == [status.node for status in expected]

    def test_graph_mutation_invalidates_classifier(self, figure1_graph):
        examples = ExampleSet()
        examples.add_negative("N5")
        classifier = SessionClassifier(figure1_graph, examples, max_length=3)
        classifier.statuses()
        figure1_graph.add_edge("N4", "tram", "N2")
        assert classifier.statuses() == classify_all_scratch(
            figure1_graph, examples, max_length=3
        )
        assert classifier.index.version == figure1_graph.version

    def test_replaced_validated_word_triggers_rebuild(self, figure1_graph, monkeypatch):
        examples = ExampleSet()
        examples.add_positive("N2", validated_word=("bus",))
        classifier = SessionClassifier(figure1_graph, examples, max_length=3)
        classifier.statuses()
        rebuilds = []
        rebuild = SessionClassifier._rebuild

        def counting_rebuild(self):
            rebuilds.append(self)
            rebuild(self)

        monkeypatch.setattr(SessionClassifier, "_rebuild", counting_rebuild)
        examples.add_positive("N2", validated_word=("bus", "bus", "cinema"))
        assert classifier.statuses() == classify_all_scratch(
            figure1_graph, examples, max_length=3
        )
        assert rebuilds == [classifier]

    def test_shared_classifier_identity(self, figure1_graph):
        # the free functions use the caller's classifier only for the
        # triple it tracks; any other triple gets a throwaway one
        examples = ExampleSet()
        classifier = SessionClassifier(figure1_graph, examples, max_length=3)
        assert _resolve_classifier(figure1_graph, examples, 3, classifier) is classifier
        others = [
            (figure1_graph, examples, 2),
            (figure1_graph, ExampleSet(), 3),
            (LabeledGraph.from_edges([("N1", "tram", "N2")]), examples, 3),
        ]
        for graph, other_examples, max_length in others:
            throwaway = _resolve_classifier(graph, other_examples, max_length, classifier)
            assert throwaway is not classifier
            assert (throwaway.graph, throwaway.examples, throwaway.max_length) == (
                graph,
                other_examples,
                max_length,
            )

    def test_foreign_classifier_answers_for_the_requested_examples(self, figure1_graph):
        tracked = ExampleSet()
        tracked.add_negative("N5")
        foreign = SessionClassifier(figure1_graph, tracked, max_length=3)
        before = foreign.informative()
        examples = ExampleSet()
        examples.add_positive("N2", validated_word=("bus", "cinema"))
        scratch = classify_all_scratch(figure1_graph, examples, max_length=3)
        kwargs = {"max_length": 3, "classifier": foreign}
        assert classify_all(figure1_graph, examples, **kwargs) == scratch
        assert informative_nodes(figure1_graph, examples, **kwargs) == _ranked_informative(
            scratch.values()
        )
        assert foreign.informative() == before

    def test_classifier_keeps_its_examples(self, figure1_graph):
        # a classifier holds its example set strongly: it can never be
        # left reading a collected one
        import gc
        import weakref

        examples = ExampleSet()
        examples.add_negative("N5")
        classifier = SessionClassifier(figure1_graph, examples, max_length=2)
        ref = weakref.ref(examples)
        del examples
        gc.collect()
        assert classifier.examples is ref()
        classifier.examples.add_negative("N6")
        assert classifier.statuses() == classify_all_scratch(
            figure1_graph, ref(), max_length=2
        )

    def test_free_functions_keep_no_example_set_alive(self, figure1_graph):
        # a classifier built for one call must not outlive it, for
        # instance through the default workspace
        import gc
        import weakref

        refs = []
        for _ in range(3):
            examples = ExampleSet()
            examples.add_negative("N5")
            classify_all(figure1_graph, examples, max_length=3)
            informative_nodes(figure1_graph, examples, max_length=3)
            propagate_to_fixpoint(figure1_graph, examples, max_length=3)
            refs.append(weakref.ref(examples))
            del examples
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]

    def test_rebuild_after_mutation_goes_through_the_provider(self, figure1_graph):
        workspace = GraphWorkspace()
        examples = ExampleSet()
        examples.add_negative("N5")
        classifier = session_classifier(workspace, figure1_graph, examples, max_length=3)
        assert classifier.index is workspace.language_index(figure1_graph, 3)
        figure1_graph.add_edge("N4", "tram", "N2")
        classifier.refresh()
        assert classifier.index.version == figure1_graph.version
        assert classifier.index is workspace.language_index(figure1_graph, 3)
        assert classifier.statuses() == classify_all_scratch(
            figure1_graph, examples, max_length=3
        )

    def test_labeled_node_outside_graph_matches_scratch(self, figure1_graph):
        # a labelled node absent from the graph (e.g. examples recorded
        # against a larger graph) classifies nothing; both delta branches
        # of refresh must tolerate it like classify_all_scratch does
        examples = ExampleSet()
        classifier = SessionClassifier(figure1_graph, examples, max_length=3)
        classifier.statuses()
        examples.add_positive("ghost")  # label-only delta, no cover growth
        assert classifier.statuses() == classify_all_scratch(
            figure1_graph, examples, max_length=3
        )
        examples.add_negative("N5")  # cover-delta branch with ghost still labelled
        assert classifier.statuses() == classify_all_scratch(
            figure1_graph, examples, max_length=3
        )


# ----------------------------------------------------------------------
# cursor, flags and lazy heap == scratch after every event
# ----------------------------------------------------------------------
def _random_word(rng, graph, max_length):
    """A word some node spells within one label past the bound, or one no node spells."""
    node = rng.choice(sorted(graph.nodes(), key=str))
    words = sorted(words_from(graph, node, max_length + 1), key=lambda w: (len(w), w))
    return rng.choice(words) if words else ("z",)


def _random_event(rng, graph, examples, max_length, classifier):
    """Apply one random example-set event of any kind a caller can cause."""
    roll = rng.random()
    positives = sorted(examples.positive_nodes, key=str)
    unlabeled = sorted(
        (node for node in graph.nodes() if examples.label_of(node) is None), key=str
    )
    if roll < 0.08:
        # a label on a node absent from the graph (positives only: a
        # negative outside the graph raises NodeNotFoundError)
        word = _random_word(rng, graph, max_length) if rng.random() < 0.5 else None
        examples.add_positive(f"ghost-{rng.randrange(3)}", validated_word=word)
    elif roll < 0.22 and positives:
        # re-adding a positive with another validated word replaces it
        examples.add_positive(
            rng.choice(positives), validated_word=_random_word(rng, graph, max_length)
        )
    elif roll < 0.34:
        propagate_to_fixpoint(graph, examples, max_length=max_length, classifier=classifier)
    elif roll < 0.46 and unlabeled:
        # a caller's own propagated=True label, of either sign, on an
        # implied or an informative node: no classifier wrote it, so each
        # one must read it like a user's label
        statuses = classify_all_scratch(graph, examples, max_length=max_length)
        informative = [node for node in unlabeled if statuses[node].informative]
        implied = [node for node in unlabeled if not statuses[node].informative]
        pool = implied if implied and (rng.random() < 0.5 or not informative) else informative
        node = rng.choice(pool)
        if rng.random() < 0.5:
            examples.add_negative(node, propagated=True)
        else:
            word = _random_word(rng, graph, max_length) if rng.random() < 0.3 else None
            examples.add_positive(node, validated_word=word, propagated=True)
    elif unlabeled:
        node = rng.choice(unlabeled)
        if rng.random() < 0.5:
            examples.add_negative(node)
        else:
            word = _random_word(rng, graph, max_length) if rng.random() < 0.5 else None
            examples.add_positive(node, validated_word=word)


class TestCursorFlagsAndHeapMatchScratch:
    @pytest.mark.parametrize("seed", range(24))
    def test_random_event_sequences(self, seed):
        rng = random.Random(seed)
        graph = random_graph(
            rng.randint(8, 30), rng.randint(20, 90), ("a", "b", "c"), seed=seed
        )
        max_length = rng.choice((2, 3, 4))
        workspace = GraphWorkspace()
        if seed % 2:
            # serve the bound as a restricted view of a larger one, whose
            # shared arena also interns words beyond the bound
            workspace.language_index(graph, max_length + rng.randint(1, 2))
        examples = ExampleSet()
        classifier = session_classifier(workspace, graph, examples, max_length=max_length)
        for _ in range(24):
            scratch = classify_all_scratch(graph, examples, max_length=max_length)
            ranking = _ranked_informative(scratch.values())
            # the top node is asked for only now and then, so the heap's
            # keys go stale across several events
            if rng.random() < 0.4:
                assert classifier.most_informative() == (ranking[0] if ranking else None)
            assert classifier.informative() == ranking
            assert classifier.statuses() == scratch
            assert classifier.informative_count() == sum(
                status.informative for status in scratch.values()
            )
            implied = [
                (node, status.implied_positive)
                for node, status in scratch.items()
                if not status.labeled and not status.informative
            ]
            assert classifier.implied_labels() == implied
            # propagation labels exactly those nodes, and one pass is the fixpoint
            replay = examples.copy()
            replay_classifier = session_classifier(workspace, graph, replay, max_length=max_length)
            first = propagate_to_fixpoint(
                graph, replay, max_length=max_length, classifier=replay_classifier
            )
            assert first.implied_positive == {node for node, positive in implied if positive}
            assert first.implied_negative == {node for node, positive in implied if not positive}
            second = propagate_to_fixpoint(
                graph, replay, max_length=max_length, classifier=replay_classifier
            )
            assert second.total == 0
            _random_event(rng, graph, examples, max_length, classifier)

    def test_validated_word_beyond_a_restricted_bound(self, figure1_graph):
        # a workspace serving two bounds of one graph serves the smaller as
        # a restricted view, whose arena also interns the larger bound's
        # words: a validated word of 4 labels is spelled by no node at
        # bound 3 and so implies nothing
        workspace = GraphWorkspace()
        workspace.language_index(figure1_graph, 4)
        examples = ExampleSet()
        classifier = session_classifier(workspace, figure1_graph, examples, max_length=3)
        assert classifier.index.arena is workspace.language_index(figure1_graph, 4).arena
        classifier.informative()  # the next label goes through the cursor
        examples.add_positive("N2", validated_word=("bus", "tram", "tram", "tram"))
        scratch = classify_all_scratch(figure1_graph, examples, max_length=3)
        ranking = _ranked_informative(scratch.values())
        assert "N6" in ranking
        assert classifier.informative() == ranking
        assert classifier.most_informative() == ranking[0]
        assert classifier.informative_count() == len(ranking)
        implied = [
            (node, status.implied_positive)
            for node, status in scratch.items()
            if not status.labeled and not status.informative
        ]
        assert classifier.implied_labels() == implied
        result = propagate_to_fixpoint(
            figure1_graph, examples, max_length=3, classifier=classifier
        )
        assert result.implied_positive == {node for node, positive in implied if positive}
        assert result.implied_negative == {node for node, positive in implied if not positive}

    def test_negative_outside_graph_keeps_raising(self, figure1_graph):
        examples = ExampleSet()
        classifier = SessionClassifier(figure1_graph, examples, max_length=3)
        examples.add_negative("N5")
        examples.add_negative("ghost")
        for _ in range(2):
            with pytest.raises(NodeNotFoundError):
                classifier.informative_count()

    def test_unchanged_history_reads_nothing(self, figure1_graph, monkeypatch):
        examples = ExampleSet()
        classifier = SessionClassifier(figure1_graph, examples, max_length=3)
        examples.add_negative("N5")
        classifier.refresh()

        def fail(*args):
            raise AssertionError("refresh did work although no label was added")

        monkeypatch.setattr(classifier, "_apply", fail)
        monkeypatch.setattr(classifier, "_rebuild", fail)
        classifier.refresh()
        assert classifier.informative_count() == len(
            _ranked_informative(
                classify_all_scratch(figure1_graph, examples, max_length=3).values()
            )
        )


# ----------------------------------------------------------------------
# a propagation pass journals as its labels appended one at a time
# ----------------------------------------------------------------------
class _PerNodeTwin(ExampleSet):
    """An example set that also feeds every label it accepts to ``twin``, one node at a time."""

    def __init__(self):
        super().__init__()
        self.twin = ExampleSet()

    def add_positive(self, node, **options):
        example = super().add_positive(node, **options)
        self.twin.add_positive(node, **options)
        return example

    def add_negative(self, node, **options):
        example = super().add_negative(node, **options)
        self.twin.add_negative(node, **options)
        return example

    def add_propagated(self, nodes, positive):
        super().add_propagated(nodes, positive)
        for node in nodes:
            if node in positive:
                self.twin.add_positive(node, propagated=True)
            else:
                self.twin.add_negative(node, propagated=True)


def _journal(examples):
    """Everything a reader can observe of an example set, from every history position."""
    positions = range(len(examples) + 2)
    return (
        examples.history,
        len(examples),
        [examples.events_since(position) for position in positions],
        [examples.labels_since(position) for position in positions],
        examples.positive_nodes,
        examples.negative_nodes,
        examples.user_positive_nodes,
        examples.user_negative_nodes,
        list(examples.validated_words().items()),
        examples.interaction_count(),
    )


class TestJournalMatchesPerNodeHistory:
    """A pass reads back exactly as its labels appended one at a time through a twin."""

    def test_random_event_sequences(self):
        mixed_passes = 0
        workspace = GraphWorkspace()
        for seed in range(12):
            rng = random.Random(seed)
            graph = random_graph(rng.randint(8, 30), rng.randint(20, 90), ("a", "b", "c"), seed=seed)
            max_length = rng.choice((2, 3, 4))
            examples = _PerNodeTwin()
            twin = examples.twin
            classifier = session_classifier(workspace, graph, examples, max_length=max_length)
            for _ in range(24):
                start = len(examples)
                _random_event(rng, graph, examples, max_length, classifier)
                # only a pass appends labels of both signs in one event
                mixed_passes += len({event.positive for event in twin.events_since(start)}) == 2
                observed = _journal(examples)
                assert observed == _journal(twin)
                assert _journal(examples.copy()) == _journal(twin.copy()) == observed
                for position in range(len(twin) + 1):
                    events = twin.events_since(position)
                    assert twin.labels_since(position) == (
                        [event.node for event in events if event.positive],
                        [event.node for event in events if not event.positive],
                    )
                labelled = sorted(examples.labeled_nodes, key=str)
                unlabelled = sorted(
                    (node for node in graph.nodes() if examples.label_of(node) is None), key=str
                )
                if labelled and unlabelled and rng.random() < 0.3:
                    # a pass with a labelled node among fresh ones is refused whole
                    nodes = rng.sample(unlabelled, min(2, len(unlabelled))) + [rng.choice(labelled)]
                    rng.shuffle(nodes)
                    with pytest.raises(InconsistentExamplesError):
                        examples.add_propagated(nodes, set(nodes[:1]))
                    assert _journal(examples) == observed
        assert mixed_passes > 0


# ----------------------------------------------------------------------
# the index's shared start state == a private start, after every event
# ----------------------------------------------------------------------
def _assert_same_classifier(shared, private):
    """Equal flags, rankings and implied labels; word sets compared decoded.

    A restricted view's arena also holds its parent's longer words, which a
    validated word may name; no node spells them within the bound.
    """

    def words(classifier, bits):
        decoded = classifier.index.decode(bits)
        return {word for word in decoded if len(word) <= classifier.max_length}

    assert shared.informative() == private.informative()
    assert shared.implied_labels() == private.implied_labels()
    assert shared._informative == private._informative
    assert shared._labeled == private._labeled
    assert words(shared, shared._cover) == words(private, private._cover)
    assert words(shared, shared._validated_bits) == words(private, private._validated_bits)


class TestSharedStartEqualsPrivateStart:
    """Sessions over one workspace start from their index's stored start state.

    Each classifier has a twin over the same example set whose index comes
    from a private workspace, so the twin scores every node itself.
    """

    @pytest.mark.parametrize("seed", range(16))
    def test_interleaved_sessions_across_a_refresh(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng.randint(8, 30), rng.randint(20, 90), ("a", "b", "c"), seed=seed)
        max_length = 1 + seed % 4
        workspace = GraphWorkspace()
        if seed % 3 == 1:
            # the bound is served as a restricted view of a larger one
            workspace.language_index(graph, max_length + rng.randint(1, 2))

        def start(labels=0):
            # a classifier may also be built over labels already given, as
            # the free functions build theirs
            examples = ExampleSet()
            for _ in range(labels):
                _random_event(rng, graph, examples, max_length, None)
            shared = session_classifier(workspace, graph, examples, max_length=max_length)
            private = session_classifier(GraphWorkspace(), graph, examples, max_length=max_length)
            assert shared.index is workspace.language_index(graph, max_length)
            assert shared.most_informative() == private.most_informative()
            _assert_same_classifier(shared, private)
            return examples, shared, private

        # the first session stores the start state, the second copies it
        sessions = [start()]
        index = workspace.language_index(graph, max_length)
        stored = (index.start_informative, index.start_keys)
        assert None not in stored
        sessions.append(start())
        assert (index.start_informative, index.start_keys) == stored
        for step in range(32):
            if step in (6, 12):
                sessions.append(start(labels=rng.randint(1, 2)))
            if step == 10:
                if seed % 2:
                    random_tick(rng, graph)  # the index is caught up through the journal
                else:
                    graph.add_edge(f"fresh{seed}", "a", "n0")  # a new node: it is built again
                workspace.refresh(graph)
                fresh = workspace.language_index(graph, max_length)
                assert fresh is not index
                assert fresh.start_informative is None and fresh.start_keys is None
                sessions.append(start())
                assert fresh.start_keys is not None
            examples, shared, private = rng.choice(sessions)
            _random_event(rng, graph, examples, max_length, shared)
            for _, shared, private in sessions:
                if rng.random() < 0.6:
                    assert shared.most_informative() == private.most_informative()
                _assert_same_classifier(shared, private)

    def test_second_session_pays_only_for_the_nodes_it_pops(self, monkeypatch):
        graph = random_graph(60, 180, ("a", "b", "c"), seed=3)
        workspace = GraphWorkspace()
        keys = []
        languages = []
        key, language = SessionClassifier._key, LanguageIndex.language

        def counted_key(classifier, position):
            keys.append(position)
            return key(classifier, position)

        def counted_language(index, node):
            languages.append(node)
            return language(index, node)

        monkeypatch.setattr(SessionClassifier, "_key", counted_key)
        monkeypatch.setattr(LanguageIndex, "language", counted_language)

        def run_to_first_label():
            """``_key`` calls up to the first label, and node languages read by construction."""
            user = SimulatedUser(graph, "a . b", workspace=workspace)
            answer = user.label
            seen = []

            def label(node):
                seen.append(len(keys))
                return answer(node)

            user.label = label
            languages.clear()
            session = InteractiveSession(graph, user, max_path_length=3, workspace=workspace)
            read = len(languages)
            keys.clear()
            session.step()
            return seen[0], read, session.classifier

        first, first_read, classifier = run_to_first_label()
        informative = popcount(classifier.index.start_informative)
        assert informative > 30
        assert first_read == graph.node_count
        second, second_read, _ = run_to_first_label()
        # the first session keyed every informative node to build the heap; the
        # second copied it and keyed only the node it popped
        assert second == 1
        assert first == informative + second
        assert second_read == 0


def _fleet_like_graph():
    graph = random_graph(700, 2100, "abcde", seed=5, name="guard-700")
    return graph, PathQuery("(a + b)* . c")


class TestSessionDoesOnlyTheWorkAnAnswerNeeds:
    @pytest.mark.parametrize("case", ["figure-1", "random-700"])
    def test_no_status_objects_and_one_rebuild(self, case, figure1_graph, monkeypatch):
        if case == "figure-1":
            graph, goal, bound = figure1_graph, PathQuery("(tram + bus)* . cinema"), 3
        else:
            (graph, goal), bound = _fleet_like_graph(), 3
        built = []
        rebuilds = []
        status_init = NodeStatus.__init__
        rebuild = SessionClassifier._rebuild

        def counting_status_init(self, *args, **kwargs):
            built.append(args[0] if args else kwargs.get("node"))
            status_init(self, *args, **kwargs)

        def counting_rebuild(self):
            rebuilds.append(self)
            rebuild(self)

        monkeypatch.setattr(NodeStatus, "__init__", counting_status_init)
        monkeypatch.setattr(SessionClassifier, "_rebuild", counting_rebuild)
        session = InteractiveSession(
            graph,
            SimulatedUser(graph, goal),
            max_path_length=bound,
            max_interactions=12,
            workspace=GraphWorkspace(),
        )
        result = session.run()
        assert result.interactions >= 3
        assert built == []
        assert rebuilds == [session.classifier]


# ----------------------------------------------------------------------
# score satellite: no magic sentinel
# ----------------------------------------------------------------------
class TestOptionalAwareScore:
    def test_no_uncovered_sorts_below_any_uncovered(self, figure1_graph):
        examples = ExampleSet()
        examples.add_negative("N6")
        statuses = classify_all(figure1_graph, examples, max_length=2)
        exhausted = [s for s in statuses.values() if s.shortest_uncovered_length is None]
        alive = [s for s in statuses.values() if s.shortest_uncovered_length is not None]
        assert exhausted and alive
        assert max(s.score for s in exhausted) < min(s.score for s in alive)

    def test_score_is_self_describing(self, figure1_graph):
        examples = ExampleSet()
        statuses = classify_all(figure1_graph, examples, max_length=3)
        for status in statuses.values():
            count, has_uncovered, negated = status.score
            assert count == status.uncovered_word_count
            assert has_uncovered == (status.shortest_uncovered_length is not None)
            if has_uncovered:
                assert negated == -status.shortest_uncovered_length
            else:
                assert negated == 0


# ----------------------------------------------------------------------
# merge-aware compatibility
# ----------------------------------------------------------------------
class _EngineCompatibilityLearner(PathQueryLearner):
    """Reference learner: re-walks the graph per negative per merge candidate."""

    def _compatible(self, negatives):
        graph = self.graph
        selects = self.engine.selects

        def check(candidate):
            dfa = candidate.to_dfa()
            return not any(selects(graph, dfa, node) for node in negatives.negatives)

        return check


class TestCompatibilityOracle:
    def test_no_negatives_everything_compatible(self, figure1_graph):
        from repro.automata.prefix_tree import build_pta

        oracle = CompatibilityOracle(figure1_graph, [], max_length=3)
        assert oracle.compatible(build_pta([("tram",)]))

    def test_empty_word_acceptance_is_incompatible(self, figure1_graph):
        from repro.automata.dfa import DFA

        dfa = DFA(0)
        dfa.set_accepting(0)
        oracle = CompatibilityOracle(figure1_graph, ["N5"], max_length=3)
        assert not oracle.compatible(dfa)

    def test_matches_engine_predicate_on_random_candidates(self):
        # quotients of random PTAs vs the engine's per-negative check; each
        # folded candidate is judged both as the view generalize_pta passes
        # and as the DFA it builds, on the one oracle path
        from repro.automata.prefix_tree import build_pta
        from repro.automata.state_merging import QuotientView, _Partition, _merge_and_fold
        from repro.learning.language_index import _longest_accepted_length

        engine = QueryEngine()
        for seed in range(8):
            rng = random.Random(seed)
            graph = random_graph(20, 60, ("a", "b", "c"), seed=seed + 50)
            nodes = sorted(graph.nodes(), key=str)
            negatives = rng.sample(nodes, 4)
            oracle = CompatibilityOracle(graph, negatives, max_length=3)

            words = [
                tuple(rng.choice("abc") for _ in range(rng.randint(1, 4)))
                for _ in range(rng.randint(2, 5))
            ]
            pta = build_pta(words)
            candidates = [(pta, pta)]
            states = sorted(pta.states)
            for _ in range(6):
                partition = _Partition(pta.states)
                folded = _merge_and_fold(
                    pta, partition, rng.choice(states), rng.choice(states)
                )
                view = QuotientView(pta, folded)
                dfa = view.to_dfa()
                assert _longest_accepted_length(view) == _longest_accepted_length(dfa)
                # a fresh view, so the oracle gathers the blocks it reads itself
                candidates.append((QuotientView(pta, folded), dfa))
            for candidate, dfa in candidates:
                expected = not any(engine.selects(graph, dfa, node) for node in negatives)
                assert oracle.compatible(candidate) == expected
                assert oracle.compatible(dfa) == expected

    def test_learner_modes_learn_identical_queries(self):
        for seed in range(6):
            rng = random.Random(seed)
            graph = random_graph(25, 75, ("a", "b", "c", "d"), seed=seed + 200)
            examples = ExampleSet()
            nodes = sorted(graph.nodes(), key=str)
            rng.shuffle(nodes)
            for node in nodes[:8]:
                if rng.random() < 0.5:
                    examples.add_negative(node)
                else:
                    examples.add_positive(node)
            indexed = PathQueryLearner(graph, max_path_length=4, engine=QueryEngine())
            via_engine = _EngineCompatibilityLearner(
                graph, max_path_length=4, engine=QueryEngine()
            )
            try:
                learned_indexed = indexed.learn(examples)
            except InconsistentExamplesError:
                with pytest.raises(InconsistentExamplesError):
                    via_engine.learn(examples)
                continue
            learned_engine = via_engine.learn(examples)
            assert str(learned_indexed.query) == str(learned_engine.query)
            assert learned_indexed.dfa.states == learned_engine.dfa.states


class TestIndexIsASnapshot:
    def test_index_results_invalidated_on_version_bump(self):
        graph = random_graph(12, 30, ("a", "b"), seed=3)
        index = language_index_for(graph, 3)
        node = sorted(graph.nodes(), key=str)[0]
        before = index.decode(index.language(node))
        assert before == words_from(graph, node, 3)
        target = sorted(graph.nodes(), key=str)[-1]
        graph.add_edge(node, "z", target)
        rebuilt = language_index_for(graph, 3)
        assert rebuilt is not index
        assert rebuilt.decode(rebuilt.language(node)) == words_from(graph, node, 3)
        assert isinstance(rebuilt, LanguageIndex)

    def test_caller_index_serves_only_its_snapshot_and_bound(self, figure1_graph):
        # every index-taking helper resolves its index the same way: the
        # caller's when it fits, else the default workspace's current one
        private = GraphWorkspace().language_index(figure1_graph, 3)
        assert private is not language_index_for(figure1_graph, 3)
        oracle = CompatibilityOracle(figure1_graph, ["N5"], max_length=3, index=private)
        assert oracle.index is private
        other_bound = CompatibilityOracle(figure1_graph, ["N5"], max_length=2, index=private)
        assert other_bound.index is language_index_for(figure1_graph, 2)
        figure1_graph.add_edge("N5", "tram", "N1")
        stale = CompatibilityOracle(figure1_graph, ["N5"], max_length=3, index=private)
        assert stale.index is language_index_for(figure1_graph, 3)
        assert stale.index.version == figure1_graph.version
        assert covered_words(figure1_graph, ["N5"], 3, index=private) == words_from(
            figure1_graph, "N5", 3
        )


# ----------------------------------------------------------------------
# one-sweep word selection (learner step (i))
# ----------------------------------------------------------------------
def _random_case(seed):
    """A seeded random graph, a path bound 1–4, and the rng that drew them."""
    rng = random.Random(seed)
    graph = random_graph(rng.randint(6, 24), rng.randint(10, 70), ("a", "b", "c"), seed=seed)
    return rng, graph, rng.randint(1, 4)


def _assert_sweep_matches_pick_word(index, rng, rounds=4):
    """pick_words == per-node pick_word(language & ~cover) on random example sets."""
    nodes = sorted(index.nodes, key=str)
    for _ in range(rounds):
        rng.shuffle(nodes)
        negatives = nodes[: rng.randint(0, 3)]
        positives = nodes[len(negatives) : len(negatives) + rng.randint(1, len(nodes))]
        banned = index.cover(negatives)
        node_bits = 0
        expected = {}
        for node in positives:
            position = index.node_positions[node]
            node_bits |= 1 << position
            word = index.pick_word(index.language(node) & ~banned)
            if word is not None:
                expected[position] = word
        assert index.pick_words(node_bits, banned) == expected


class TestPickWordsSweep:
    @pytest.mark.parametrize("seed", range(12))
    def test_fresh_index(self, seed):
        rng, graph, bound = _random_case(seed)
        index = LanguageIndex(graph, bound)
        _assert_sweep_matches_pick_word(index, rng)

    @pytest.mark.parametrize("seed", range(12))
    def test_restricted_view(self, seed):
        rng, graph, bound = _random_case(seed)
        workspace = GraphWorkspace()
        parent = workspace.language_index(graph, bound + 1)
        view = workspace.language_index(graph, bound)
        assert view.arena is parent.arena and view.max_length == bound
        _assert_sweep_matches_pick_word(view, rng)

    @pytest.mark.parametrize("seed", range(12))
    def test_delta_refreshed_index(self, seed):
        rng, graph, bound = _random_case(seed)
        workspace = GraphWorkspace()
        workspace.language_index(graph, bound)
        for _ in range(3):
            nodes = sorted(graph.nodes(), key=str)
            retire = rng.sample(sorted(graph.edges()), min(3, graph.edge_count))
            admit = [(rng.choice(nodes), rng.choice("abcd"), rng.choice(nodes)) for _ in range(3)]
            graph.apply_delta(add_edges=admit, remove_edges=retire)
            workspace.refresh(graph)
            _assert_sweep_matches_pick_word(workspace.language_index(graph, bound), rng, rounds=2)
        assert workspace.stats()["language_index_refreshes"] > 0

    def test_nothing_pending_or_everything_banned(self, figure1_graph):
        index = LanguageIndex(figure1_graph, 3)
        everything = index.cover(index.nodes)
        all_nodes = (1 << len(index.nodes)) - 1
        assert index.pick_words(0, 0) == {}
        assert index.pick_words(all_nodes, everything) == {}


def _reference_sample_words(graph, examples, max_length, index):
    """Step (i) as one select_path call per positive, in str order."""
    negatives = [node for node in examples.negative_nodes if node in graph]
    chosen = {}
    for node in sorted(examples.positive_nodes, key=str):
        validated = examples.validated_word(node)
        if validated is not None:
            chosen[node] = validated
            continue
        try:
            chosen[node] = select_path(graph, node, negatives, max_length=max_length, index=index)
        except NoConsistentPathError:
            return InconsistentExamplesError, node
        except NodeNotFoundError:
            return NodeNotFoundError, node
    return chosen


def _sample_words(learner, examples):
    """Step (i) against the negative view a full learn builds."""
    return learner.select_sample_words(examples, learner._negative_view(examples.negative_nodes))


class TestSelectSampleWordsSweep:
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_per_positive_select_path(self, seed):
        rng, graph, bound = _random_case(seed)
        learner = PathQueryLearner(graph, max_path_length=bound, workspace=GraphWorkspace())
        index = learner.workspace.language_index(graph, bound)
        nodes = sorted(graph.nodes(), key=str)
        for _ in range(6):
            rng.shuffle(nodes)
            examples = ExampleSet()
            for node in nodes[: rng.randint(0, 3)]:
                examples.add_negative(node)
            for node in nodes[len(examples.negative_nodes) :][: rng.randint(1, 10)]:
                words = sorted(words_from(graph, node, bound), key=lambda w: (len(w), w))
                validated = rng.choice(words) if words and rng.random() < 0.3 else None
                examples.add_positive(node, validated_word=validated)
            if rng.random() < 0.2:
                examples.add_positive(rng.choice(("A-ghost", "z-ghost")))
            expected = _reference_sample_words(graph, examples, bound, index)
            if isinstance(expected, tuple):
                error, node = expected
                with pytest.raises(error) as raised:
                    _sample_words(learner, examples)
                if error is InconsistentExamplesError:
                    assert raised.value.conflicting == (node,)
                else:
                    assert raised.value.node == node
            else:
                assert _sample_words(learner, examples) == expected

    def test_validated_words_and_empty_word_fallback(self, figure1_graph):
        learner = PathQueryLearner(figure1_graph, max_path_length=3, workspace=GraphWorkspace())
        examples = ExampleSet()
        examples.add_positive("C1")  # a sink: only the empty word
        examples.add_positive("N2", validated_word=("bus", "tram", "cinema"))
        examples.add_positive("N4")
        assert _sample_words(learner, examples) == {
            "C1": (),
            "N2": ("bus", "tram", "cinema"),
            "N4": ("cinema",),
        }

    def test_first_failing_positive_in_str_order_decides(self, figure1_graph):
        # N6 covers 'cinema', N4's only word within bound 3
        learner = PathQueryLearner(figure1_graph, max_path_length=3, workspace=GraphWorkspace())
        blocked_first = ExampleSet()
        blocked_first.add_positive("ghost")
        blocked_first.add_positive("N4")
        blocked_first.add_negative("N6")
        with pytest.raises(InconsistentExamplesError) as raised:
            _sample_words(learner, blocked_first)
        assert raised.value.conflicting == ("N4",)
        absent_first = ExampleSet()
        absent_first.add_positive("N4")
        absent_first.add_positive("A-ghost")
        absent_first.add_negative("N6")
        with pytest.raises(NodeNotFoundError):
            _sample_words(learner, absent_first)

    def test_negatives_are_filtered_once_per_call(self, figure1_graph, monkeypatch):
        # filtering the negatives again per positive costs |P| x |N| checks;
        # a full learn checks them once, before it builds its negative view
        learner = PathQueryLearner(figure1_graph, max_path_length=3, workspace=GraphWorkspace())
        learner.workspace.language_index(figure1_graph, 3)
        examples = ExampleSet()
        for node in ("N1", "N2", "N4", "N6"):
            examples.add_positive(node)
        for node in ("N5", "C1", "C2"):
            examples.add_negative(node)
        checks = []
        contains = LabeledGraph.__contains__

        def counting(graph, node):
            checks.append(node)
            return contains(graph, node)

        monkeypatch.setattr(LabeledGraph, "__contains__", counting)
        learner.learn(examples)
        assert len(checks) <= len(examples.negative_nodes)


class TestOneNegativeViewPerLearn:
    def test_a_full_learn_builds_one_cover(self, figure1_graph, monkeypatch):
        # step (i), step (ii) and the certificate all read one negative view
        learner = PathQueryLearner(figure1_graph, max_path_length=3, workspace=GraphWorkspace())
        learner.workspace.language_index(figure1_graph, 3)
        examples = ExampleSet()
        examples.add_positive("N2", validated_word=("bus", "tram", "cinema"))
        examples.add_positive("N6", validated_word=("cinema",))
        examples.add_positive("N4")  # step (i) picks its word
        examples.add_negative("N5")
        covers = []
        cover = LanguageIndex.cover

        def counting(index, nodes):
            covers.append(nodes)
            return cover(index, nodes)

        monkeypatch.setattr(LanguageIndex, "cover", counting)
        outcome = learner.learn(examples)
        assert outcome.consistent
        assert outcome.query.same_language("(tram + bus)* . cinema")
        assert len(covers) == 1


class TestOnePassOneEntry:
    def test_a_session_builds_examples_only_for_the_users_labels(self, monkeypatch):
        # each propagation pass is one history entry: no LabeledExample is
        # built for a propagated label, and no reader asks for the history
        graph = random_graph(60, 180, "abc", seed=3)
        workspace = GraphWorkspace()
        built = []
        example_init = LabeledExample.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            example_init(self, *args, **kwargs)

        def read(self):
            raise AssertionError("the history was read")

        monkeypatch.setattr(LabeledExample, "__init__", counting_init)
        monkeypatch.setattr(ExampleSet, "history", property(read))
        user = SimulatedUser(graph, "a . b", workspace=workspace)
        session = InteractiveSession(graph, user, max_path_length=3, workspace=workspace)
        result = session.run()
        assert result.halted_by == "no-informative-node"
        assert result.interactions == 4
        assert len(session.examples) == 60
        assert len(built) == 4
