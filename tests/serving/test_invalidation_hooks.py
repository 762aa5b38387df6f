"""Every declared ``__workspace_hook__`` names a registered hook, and the
hooked refresh paths actually run.

The static half of this contract is lint rule REP302 (a class that
snapshots a version must declare a hook or carry a justified
suppression); this module is the runtime half — the declarations and the
registry cannot drift apart, and each hook's advertised refresh path is
exercised once.
"""

from repro.graph.labeled_graph import GraphLabelIndex, LabeledGraph
from repro.graph.neighborhood import NeighborhoodIndex
from repro.learning.language_index import LanguageIndex
from repro.query.engine import QueryEngine, _GraphCache
from repro.serving.invalidation import WORKSPACE_HOOKS, hook_names
from repro.serving.workspace import GraphWorkspace

HOOKED_CLASSES = (GraphLabelIndex, _GraphCache, LanguageIndex, NeighborhoodIndex)


class TestHookDeclarations:
    def test_every_declared_hook_is_registered(self):
        for cls in HOOKED_CLASSES:
            hook = getattr(cls, "__workspace_hook__", None)
            assert isinstance(hook, str), f"{cls.__name__} declares no hook"
            assert hook in hook_names(), (
                f"{cls.__name__}.__workspace_hook__ = {hook!r} is not "
                "registered in repro.serving.invalidation.WORKSPACE_HOOKS"
            )

    def test_registered_hooks_are_all_declared(self):
        declared = {cls.__workspace_hook__ for cls in HOOKED_CLASSES}
        assert declared == set(WORKSPACE_HOOKS), (
            "WORKSPACE_HOOKS and the declaring classes drifted apart; "
            "register new hooks (or retire unused ones) in invalidation.py"
        )

    def test_hooks_are_unique_per_class(self):
        hooks = [cls.__workspace_hook__ for cls in HOOKED_CLASSES]
        assert len(hooks) == len(set(hooks))


class TestHookedPathsRun:
    """Each hook's advertised refresh path fires on a real mutation."""

    @staticmethod
    def _graph() -> LabeledGraph:
        return LabeledGraph.from_edges(
            [("a", "x", "b"), ("b", "y", "c"), ("c", "z", "a"), ("a", "w", "c")]
        )

    def test_graph_label_index_hook(self):
        graph = self._graph()
        before = graph.label_index()
        graph.add_edge("b", "x", "c")
        after = graph.label_index()
        assert after is not before
        assert after.version == graph.version
        # untouched labels share CSR pairs by identity (the delta path ran)
        assert after.reverse_csr("y") is before.reverse_csr("y")

    def test_engine_answers_hook(self):
        engine = QueryEngine()
        graph = self._graph()
        engine.evaluate(graph, "y")
        graph.add_edge("b", "x", "c")
        assert engine.refresh(graph) == {"answers_dropped": 1}
        assert engine._answer_caches[graph].answers == {}

    def test_workspace_language_index_hook(self):
        workspace = GraphWorkspace()
        graph = self._graph()
        workspace.language_index(graph, 2)
        graph.add_edge("b", "x", "c")
        counters = workspace.refresh(graph)
        assert counters["language_indexes_refreshed"] == 1
        assert workspace.stats()["language_index_refreshes"] == 1

    def test_workspace_neighborhoods_hook(self):
        workspace = GraphWorkspace()
        graph = self._graph()
        graph.add_node("far")  # isolated: its ball never sees the churn
        nb = workspace.neighborhoods(graph)
        nb.neighborhood("far", 1)
        nb.neighborhood("a", 1)
        graph.add_edge("a", "q", "b")
        counters = workspace.refresh(graph)
        assert counters["neighborhood_states_dropped"] == 2
        assert not nb._states
