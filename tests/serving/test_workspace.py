"""Tests for the shared GraphWorkspace (build-once caches, refresh)."""

import gc
import threading
import weakref

from repro.graph.labeled_graph import LabeledGraph
from repro.interactive.oracle import SimulatedUser
from repro.interactive.session import InteractiveSession
from repro.query.engine import QueryEngine
from repro.serving import GraphWorkspace, default_workspace, reset_default_workspace


class TestLanguageIndexRegistry:
    def test_second_request_is_a_hit(self, tiny_graph):
        workspace = GraphWorkspace()
        first = workspace.language_index(tiny_graph, 3)
        second = workspace.language_index(tiny_graph, 3)
        assert first is second
        stats = workspace.stats()
        assert stats["language_index_builds"] == 1
        assert stats["language_index_hits"] == 1

    def test_smaller_bound_derived_by_restriction(self, tiny_graph):
        workspace = GraphWorkspace()
        workspace.language_index(tiny_graph, 4)
        workspace.language_index(tiny_graph, 2)
        stats = workspace.stats()
        assert stats["language_index_builds"] == 1
        assert stats["language_index_restrictions"] == 1

    def test_concurrent_cold_builds_coalesce(self, figure1_graph):
        workspace = GraphWorkspace()
        barrier = threading.Barrier(8)
        indexes = []

        def worker():
            barrier.wait()
            indexes.append(workspace.language_index(figure1_graph, 4))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(index) for index in indexes}) == 1
        assert workspace.stats()["language_index_builds"] == 1

    def test_two_sessions_share_one_index_build(self, figure1_graph, figure1_query):
        workspace = GraphWorkspace()
        for _ in range(2):
            user = SimulatedUser(figure1_graph, figure1_query, workspace=workspace)
            InteractiveSession(
                figure1_graph, user, max_interactions=25, workspace=workspace
            ).run()
        stats = workspace.stats()
        # one true build (at the session bound); every further consumer —
        # the second session included — hits the registry or restricts
        assert stats["language_index_builds"] == 1
        assert stats["language_index_hits"] > 0


class TestRefresh:
    def test_unmutated_graph_is_left_alone(self, tiny_graph):
        workspace = GraphWorkspace()
        index = workspace.language_index(tiny_graph, 3)
        workspace.graph_fingerprint(tiny_graph)
        assert set(workspace.refresh(tiny_graph).values()) == {0}
        assert workspace.language_index(tiny_graph, 3) is index

    def test_stale_fingerprint_is_dropped(self, tiny_graph):
        workspace = GraphWorkspace()
        workspace.graph_fingerprint(tiny_graph)
        tiny_graph.add_edge("c", "z", "a")
        assert workspace.refresh(tiny_graph)["fingerprints_dropped"] == 1
        assert workspace.refresh(tiny_graph)["fingerprints_dropped"] == 0

    def test_refresh_without_a_graph_reaches_every_graph(self, tiny_graph):
        workspace = GraphWorkspace()
        other = LabeledGraph.from_edges([("p", "k", "q")])
        workspace.language_index(tiny_graph, 2)
        workspace.language_index(other, 2)
        tiny_graph.add_edge("c", "z", "a")
        other.add_edge("q", "k", "p")
        counters = workspace.refresh()
        assert counters["language_indexes_refreshed"] + counters["language_indexes_dropped"] == 2
        for graph in (tiny_graph, other):
            assert all(index.version == graph.version for index in workspace._language[graph].values())


class TestFingerprints:
    def test_insertion_order_independent(self):
        edges = [("a", "x", "b"), ("b", "y", "c"), ("a", "y", "c")]
        one = LabeledGraph.from_edges(edges)
        two = LabeledGraph.from_edges(list(reversed(edges)))
        workspace = GraphWorkspace()
        assert workspace.graph_fingerprint(one) == workspace.graph_fingerprint(two)

    def test_nodes_with_equal_str_are_order_independent(self):
        # 1 and "1" tie under str(); the digest must not fall back on
        # insertion order to break the tie
        one = LabeledGraph()
        one.add_node(1)
        one.add_node("1")
        one.add_edges([(1, "x", "1"), ("1", "x", 1)])
        two = LabeledGraph()
        two.add_node("1")
        two.add_node(1)
        two.add_edges([("1", "x", 1), (1, "x", "1")])
        assert one.structurally_equal(two)
        workspace = GraphWorkspace()
        assert workspace.graph_fingerprint(one) == workspace.graph_fingerprint(two)

    def test_changes_on_mutation(self, tiny_graph):
        workspace = GraphWorkspace()
        before = workspace.graph_fingerprint(tiny_graph)
        tiny_graph.add_edge("c", "z", "a")
        assert workspace.graph_fingerprint(tiny_graph) != before


class TestSessionStateStaysOnTheSession:
    def test_session_classifier_reads_the_workspace_index(self, figure1_graph, figure1_query):
        workspace = GraphWorkspace()
        user = SimulatedUser(figure1_graph, figure1_query, workspace=workspace)
        session = InteractiveSession(figure1_graph, user, max_path_length=3, workspace=workspace)
        index = workspace.language_index(figure1_graph, 3)
        assert session.classifier.index is index
        assert session.classifier.examples is session.examples
        assert index is not default_workspace().language_index(figure1_graph, 3)

    def test_finished_sessions_are_collected(self, figure1_graph, figure1_query):
        # a workspace outlives its sessions, so it must hold nothing of
        # theirs: a session's example set (and the classifier over it)
        # dies with the session
        workspace = GraphWorkspace()
        refs = []
        for _ in range(3):
            user = SimulatedUser(figure1_graph, figure1_query, workspace=workspace)
            session = InteractiveSession(
                figure1_graph, user, max_interactions=4, workspace=workspace
            )
            session.run()
            refs.append(weakref.ref(session.examples))
            del session, user
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]


class TestMemo:
    def test_lru_bound(self, monkeypatch):
        monkeypatch.setattr(GraphWorkspace, "MAX_MEMO_ENTRIES", 2)
        workspace = GraphWorkspace()
        workspace.memo_put("a", 1)
        workspace.memo_put("b", 2)
        workspace.memo_put("c", 3)
        assert workspace.memo_get("a") is None
        assert workspace.memo_get("c") == 3
        assert workspace.stats()["memo_entries"] == 2


class TestDefaultWorkspace:
    def test_default_workspace_is_a_stable_singleton(self, tiny_graph):
        reset_default_workspace()
        try:
            workspace = default_workspace()
            assert default_workspace() is workspace
            assert workspace.engine.evaluate(tiny_graph, "x . y") == frozenset({"a"})
        finally:
            reset_default_workspace()

    def test_isolated_workspaces_have_isolated_engines(self):
        assert GraphWorkspace().engine is not GraphWorkspace().engine
        engine = QueryEngine()
        assert GraphWorkspace(engine=engine).engine is engine
