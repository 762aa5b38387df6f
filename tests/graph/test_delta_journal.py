"""The delta journal: recording, replay, atomicity and the label-index
delta-refresh path."""

import random

import pytest

from repro.exceptions import EdgeNotFoundError, NodeNotFoundError
from repro.graph.delta import GraphDelta
from repro.graph.labeled_graph import GraphLabelIndex, LabeledGraph


def edges_of(graph):
    return set(graph.edges())


def labels_named(deltas):
    """Labels carried by any edge the deltas added or removed."""
    return {
        label
        for delta in deltas
        for edges in (delta.edges_added, delta.edges_removed)
        for _, label, _ in edges
    }


class TestRecording:
    def test_add_node_records_delta(self):
        graph = LabeledGraph()
        graph.add_node("a")
        (delta,) = graph.deltas_since(0)
        assert delta.nodes_added == ("a",)
        assert delta.new_version == graph.version

    def test_add_edge_records_chain(self):
        graph = LabeledGraph()
        graph.add_edge("a", "x", "b")  # creates both endpoints in the same step
        (delta,) = graph.deltas_since(0)
        assert graph.version == 1
        assert delta.nodes_added == ("a", "b")
        assert delta.edges_added == (("a", "x", "b"),)

    def test_remove_edge_records_delta(self):
        graph = LabeledGraph.from_edges([("a", "x", "b")])
        before = graph.version
        graph.remove_edge("a", "x", "b")
        (delta,) = graph.deltas_since(before)
        assert delta.edges_removed == (("a", "x", "b"),)
        assert not delta.nodes_changed

    def test_bulk_add_one_delta(self):
        graph = LabeledGraph()
        before = graph.version
        graph.add_edges_bulk([("a", "x", "b"), ("b", "y", "c")], nodes=["lone"])
        (delta,) = graph.deltas_since(before)
        assert set(delta.edges_added) == {("a", "x", "b"), ("b", "y", "c")}
        assert set(delta.nodes_added) == {"lone", "a", "b", "c"}

    def test_bulk_remove_one_delta(self):
        graph = LabeledGraph.from_edges([("a", "x", "b"), ("b", "y", "c")])
        before = graph.version
        graph.remove_edges_bulk([("a", "x", "b"), ("b", "y", "c")])
        (delta,) = graph.deltas_since(before)
        assert set(delta.edges_removed) == {("a", "x", "b"), ("b", "y", "c")}

    def test_remove_node_is_atomic_with_full_contents(self):
        graph = LabeledGraph.from_edges(
            [("a", "x", "b"), ("b", "y", "c"), ("c", "z", "b"), ("b", "w", "b")]
        )
        before = graph.version
        graph.remove_node("b")
        (delta,) = graph.deltas_since(before)
        assert delta.nodes_removed == ("b",)
        assert set(delta.edges_removed) == {
            ("a", "x", "b"),
            ("b", "y", "c"),
            ("c", "z", "b"),
            ("b", "w", "b"),
        }

    def test_nodes_changed(self):
        delta = GraphDelta(
            3,
            4,
            edges_added=(("a", "x", "b"),),
            edges_removed=(("c", "y", "d"),),
            nodes_removed=("e",),
        )
        assert delta.nodes_changed


class TestDeltasSince:
    def test_current_version_returns_empty(self):
        graph = LabeledGraph.from_edges([("a", "x", "b")])
        assert graph.deltas_since(graph.version) == ()

    def test_future_version_returns_none(self):
        graph = LabeledGraph()
        assert graph.deltas_since(99) is None

    def test_chain_is_contiguous(self):
        graph = LabeledGraph.from_edges([("a", "x", "b")])
        anchor = graph.version
        graph.add_edge("b", "y", "c")
        graph.remove_edge("a", "x", "b")
        deltas = graph.deltas_since(anchor)
        assert deltas[0].old_version == anchor
        for earlier, later in zip(deltas, deltas[1:]):
            assert earlier.new_version == later.old_version
        assert deltas[-1].new_version == graph.version

    def test_window_exceeded_returns_none(self):
        graph = LabeledGraph(journal_limit=4)
        graph.add_edges_bulk([("a", "x", "b")])
        anchor = graph.version
        for index in range(5):
            graph.add_edge("a", "x", f"t{index}")  # one step each: 5 steps overflow 4
        assert graph.deltas_since(anchor) is None

    def test_disabled_journal_returns_none(self):
        graph = LabeledGraph(journal_limit=0)
        graph.add_edge("a", "x", "b")
        assert graph.deltas_since(graph.version - 1) is None
        assert graph.deltas_since(graph.version) == ()

    def test_opaque_batch_blocks_replay(self, monkeypatch):
        monkeypatch.setattr(LabeledGraph, "JOURNAL_EDGE_LIMIT", 2)
        graph = LabeledGraph()
        anchor = graph.version
        graph.add_edges_bulk([("a", "x", "b"), ("b", "x", "c"), ("c", "x", "d")])
        assert graph.deltas_since(anchor) is None

    def test_foreign_version_returns_none(self):
        graph = LabeledGraph.from_edges([("a", "x", "b"), ("b", "y", "c")])
        clone = graph.copy()
        # the clone's journal starts fresh; versions before it are opaque
        assert clone.deltas_since(0) is None

    def test_copy_preserves_journal_limits(self):
        graph = LabeledGraph(journal_limit=7)
        assert graph.copy().journal_limit == 7


class TestApplyDelta:
    def test_mixed_batch_one_bump(self):
        graph = LabeledGraph.from_edges([("a", "x", "b"), ("b", "y", "c")])
        before = graph.version
        delta = graph.apply_delta(
            add_edges=[("c", "z", "a")],
            remove_edges=[("a", "x", "b")],
            add_nodes=["lone"],
        )
        assert graph.version == before + 1
        assert delta.old_version == before
        assert delta.edges_added == (("c", "z", "a"),)
        assert delta.edges_removed == (("a", "x", "b"),)
        assert delta.nodes_added == ("lone",)
        assert graph.has_edge("c", "z", "a")
        assert not graph.has_edge("a", "x", "b")
        assert "lone" in graph
        assert graph.deltas_since(before) == (graph._journal[-1],)

    def test_remove_nodes_folds_incident_edges(self):
        graph = LabeledGraph.from_edges([("a", "x", "b"), ("b", "y", "c")])
        before = graph.version
        delta = graph.apply_delta(remove_nodes=["b"])
        assert graph.version == before + 1
        assert delta.nodes_removed == ("b",)
        assert set(delta.edges_removed) == {("a", "x", "b"), ("b", "y", "c")}
        assert "b" not in graph

    def test_noop_returns_empty_delta(self):
        graph = LabeledGraph.from_edges([("a", "x", "b")])
        before = graph.version
        delta = graph.apply_delta(
            add_edges=[("a", "x", "b")],  # already present
            remove_edges=[("a", "z", "b")],  # absent
            remove_nodes=["ghost"],
        )
        assert delta.is_empty
        assert graph.version == before

    def test_matches_sequential_mutations(self):
        batch = LabeledGraph.from_edges([("a", "x", "b"), ("b", "y", "c")])
        sequential = LabeledGraph.from_edges([("a", "x", "b"), ("b", "y", "c")])
        batch.apply_delta(add_edges=[("c", "z", "a")], remove_edges=[("b", "y", "c")])
        sequential.remove_edge("b", "y", "c")
        sequential.add_edge("c", "z", "a")
        assert batch.structurally_equal(sequential)
        assert batch.edge_count == sequential.edge_count
        assert batch.label_counts() == sequential.label_counts()

    def test_oversized_batch_recorded_opaquely_but_returned_precisely(self, monkeypatch):
        monkeypatch.setattr(LabeledGraph, "JOURNAL_EDGE_LIMIT", 2)
        graph = LabeledGraph()
        graph.add_edges_bulk([(f"s{i}", "x", f"t{i}") for i in range(3)])
        anchor = graph.version
        added = [("s0", "y", f"u{i}") for i in range(4)]
        delta = graph.apply_delta(add_edges=added)
        assert not delta.opaque
        assert delta.edges_added == tuple(added)
        assert delta.nodes_added == ("u0", "u1", "u2", "u3")
        assert graph._journal[-1].opaque
        assert graph._journal[-1].new_version == delta.new_version == graph.version
        assert graph.deltas_since(anchor) is None  # journal refuses to bridge


class TestLabelIndexDeltaRefresh:
    def test_untouched_labels_share_csr_by_identity(self):
        graph = LabeledGraph.from_edges(
            [("a", "x", "b"), ("b", "y", "c"), ("c", "z", "a")]
        )
        before = graph.label_index()
        graph.apply_delta(add_edges=[("b", "x", "c")], remove_edges=[("c", "z", "a")])
        after = graph.label_index()
        assert after.version == graph.version
        assert after.reverse_csr("y") is before.reverse_csr("y")
        assert after.reverse_csr("x") is not before.reverse_csr("x")
        assert after.reverse_csr("z") is None  # label vanished with its last edge

    def test_refreshed_equals_scratch(self):
        graph = LabeledGraph.from_edges(
            [("a", "x", "b"), ("b", "y", "c"), ("c", "z", "a"), ("a", "y", "c")]
        )
        graph.label_index()
        graph.apply_delta(add_edges=[("c", "x", "a")], remove_edges=[("a", "y", "c")])
        refreshed = graph.label_index()
        scratch = GraphLabelIndex(graph)
        assert refreshed.nodes == scratch.nodes
        assert refreshed._rev == scratch._rev

    def test_node_change_forces_full_rebuild(self):
        graph = LabeledGraph.from_edges([("a", "x", "b")])
        before = graph.label_index()
        graph.add_node("new")
        after = graph.label_index()
        assert after.node_count == 3
        assert after.reverse_csr("x") is not before.reverse_csr("x")

    def test_journal_overflow_falls_back_to_rebuild(self):
        graph = LabeledGraph(journal_limit=2)
        graph.add_edges_bulk([("a", "x", "b"), ("b", "y", "c")])
        graph.label_index()
        for index in range(4):
            graph.add_edge("a", "x", f"t{index}")
        fresh = graph.label_index()
        assert fresh.version == graph.version
        assert fresh._rev == GraphLabelIndex(graph)._rev

    def test_one_edge_delta_splices_the_label(self, monkeypatch):
        graph = LabeledGraph.from_edges([("a", "x", "b"), ("b", "x", "c"), ("c", "y", "a")])
        before = graph.label_index()
        graph.add_edge("c", "x", "b")

        def rebuilt(index, _graph, label):
            raise AssertionError(f"label {label!r} already had a CSR and was rebuilt whole")

        monkeypatch.setattr(GraphLabelIndex, "_reverse_csr", rebuilt)
        after = graph.label_index()
        monkeypatch.undo()
        assert after._rev == GraphLabelIndex(graph)._rev
        assert after.reverse_csr("y") is before.reverse_csr("y")

    @pytest.mark.parametrize("seed", range(8))
    def test_spliced_refresh_equals_scratch_over_random_bridges(self, seed):
        rng = random.Random(seed)
        nodes = [f"n{number}" for number in range(10)]
        graph = LabeledGraph()
        graph.add_nodes(nodes)
        graph.add_edges_bulk([(rng.choice(nodes), rng.choice("xy"), rng.choice(nodes)) for _ in range(24)])
        before = graph.label_index()

        def random_delta():
            retire = rng.sample(sorted(graph.edges()), min(2, graph.edge_count))
            admit = [(rng.choice(nodes), rng.choice("xyz"), rng.choice(nodes)) for _ in range(2)]
            graph.apply_delta(add_edges=admit, remove_edges=retire)

        # bridges of one to several random deltas, and three kinds of bridge
        # that a random delta rarely makes
        def appear():
            graph.add_edge(rng.choice(nodes), "fresh", rng.choice(nodes))

        def vanish():
            graph.remove_edges_bulk([edge for edge in graph.edges() if edge[1] == "fresh"])

        def remove_and_readd():
            edge = rng.choice(sorted(graph.edges()))
            graph.remove_edge(*edge)
            random_delta()
            graph.add_edge(*edge)

        bridges = [None, None, appear, None, remove_and_readd, None, None, vanish, None]
        for bridge in bridges:
            version = graph.version
            if bridge is None:
                for _ in range(rng.randint(1, 4)):
                    random_delta()
            else:
                bridge()
            named = labels_named(graph.deltas_since(version))
            after = graph.label_index()
            assert after._rev == GraphLabelIndex(graph)._rev
            for label in sorted(before.labels() - named):
                assert after.reverse_csr(label) is before.reverse_csr(label)
            before = after


class TestJournalBounds:
    def test_journal_is_bounded(self):
        graph = LabeledGraph(journal_limit=3)
        for index in range(10):
            graph.add_node(f"n{index}")
        assert len(graph._journal) == 3

    def test_default_limits_from_class_constants(self, monkeypatch):
        assert LabeledGraph().journal_limit == LabeledGraph.JOURNAL_LIMIT
        monkeypatch.setattr(LabeledGraph, "JOURNAL_LIMIT", 5)
        monkeypatch.setattr(LabeledGraph, "JOURNAL_EDGE_LIMIT", 3)
        graph = LabeledGraph()
        assert graph.journal_limit == 5
        graph.add_edge("a", "x", "b")  # 3 elements: journaled precisely
        graph.add_edges_bulk([("b", "x", "c"), ("c", "x", "d")])  # 4: opaque
        assert [delta.opaque for delta in graph._journal] == [False, True]

    def test_disabled_journal_stays_empty(self):
        graph = LabeledGraph(journal_limit=0)
        graph.add_edges_bulk([("a", "x", "b"), ("b", "y", "c")])
        graph.remove_node("b")
        assert len(graph._journal) == 0


class TestOneStepPerMutation:
    """Every mutator is at most one journaled step, and the journal replays
    to the same graph."""

    NODES = [f"n{index}" for index in range(10)]
    LABELS = ["x", "y"]

    def random_edge(self, rng):
        return (rng.choice(self.NODES), rng.choice(self.LABELS), rng.choice(self.NODES))

    def random_edges(self, rng):
        return [self.random_edge(rng) for _ in range(rng.randint(0, 3))]

    def random_nodes(self, rng):
        return [rng.choice(self.NODES) for _ in range(rng.randint(0, 3))]

    def call_random_mutator(self, graph, rng):
        present = sorted(graph.edges())
        # mostly present edges / nodes, sometimes absent ones
        edge = rng.choice(present + [self.random_edge(rng)])
        node = rng.choice(list(graph.nodes()) + ["ghost"])
        name = rng.choice(
            [
                "add_node",
                "add_nodes",
                "add_edge",
                "add_edges",
                "add_edges_bulk",
                "remove_edge",
                "remove_edges_bulk",
                "remove_node",
                "apply_delta",
            ]
        )
        if name == "add_node":
            assert graph.add_node(rng.choice(self.NODES)) in graph
        elif name == "add_nodes":
            assert graph.add_nodes(self.random_nodes(rng)) is None
        elif name == "add_edge":
            edge = self.random_edge(rng)
            assert graph.add_edge(*edge) == edge
        elif name == "add_edges":
            assert graph.add_edges(self.random_edges(rng)) is None
        elif name == "add_edges_bulk":
            edges = self.random_edges(rng)
            new = len(set(edges) - set(present))
            assert graph.add_edges_bulk(edges, nodes=self.random_nodes(rng)) == new
        elif name == "remove_edge":
            if edge in present:
                graph.remove_edge(*edge)
            else:
                with pytest.raises(EdgeNotFoundError):
                    graph.remove_edge(*edge)
        elif name == "remove_edges_bulk":
            edges = rng.sample(present, min(len(present), 2)) + [edge]
            assert graph.remove_edges_bulk(edges) == len(set(edges) & set(present))
        elif name == "remove_node":
            if node in graph:
                graph.remove_node(node)
            else:
                with pytest.raises(NodeNotFoundError):
                    graph.remove_node(node)
        else:
            graph.apply_delta(
                add_edges=self.random_edges(rng),
                remove_edges=[edge],
                add_nodes=self.random_nodes(rng),
                remove_nodes=[node] if rng.random() < 0.3 else [],
            )

    @pytest.mark.parametrize("seed", range(20))
    def test_each_call_is_one_replayable_step(self, seed):
        rng = random.Random(seed)
        graph = LabeledGraph.from_edges([("n0", "x", "n1"), ("n1", "y", "n2")])
        start = graph.copy()
        anchor = graph.version
        for _ in range(25):
            before = graph.version
            self.call_random_mutator(graph, rng)
            assert graph.version - before in (0, 1)
            index = graph.label_index()
            scratch = GraphLabelIndex(graph)
            assert index.nodes == scratch.nodes
            assert index._rev == scratch._rev
        for delta in graph.deltas_since(anchor):
            start.apply_delta(
                add_edges=delta.edges_added,
                remove_edges=delta.edges_removed,
                add_nodes=delta.nodes_added,
                remove_nodes=delta.nodes_removed,
            )
        assert list(start.nodes()) == list(graph.nodes())
        assert edges_of(start) == edges_of(graph)
        assert start.edge_count == graph.edge_count
        assert start.label_counts() == graph.label_counts()
