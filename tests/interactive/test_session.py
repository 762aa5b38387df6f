"""Unit and integration tests for the interactive session (Figure 2 loop)."""

import pytest

from repro.exceptions import SessionFinishedError
from repro.graph.generators import chain_graph, random_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.neighborhood import NeighborhoodIndex, _BfsState
from repro.interactive.halt import UserSatisfied
from repro.interactive.oracle import NoisyUser, SimulatedUser
from repro.interactive.session import (
    DEFAULT_INITIAL_RADIUS,
    DEFAULT_MAX_RADIUS,
    InteractiveSession,
)
from repro.interactive.strategies import RandomStrategy
from repro.serving.workspace import GraphWorkspace, default_workspace


def evaluate(graph, query):
    """Workspace-engine evaluation (the module-level evaluate() shim now warns)."""
    return default_workspace().engine.evaluate(graph, query)

GOAL = "(tram + bus)* . cinema"


class TestFullRun:
    def test_session_learns_instance_equivalent_query(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        session = InteractiveSession(figure1_graph, user)
        result = session.run()
        assert result.learned_query is not None
        assert evaluate(figure1_graph, result.learned_query) == user.goal_answer
        assert result.halted_by == "no-informative-node"

    def test_all_labels_agree_with_oracle(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        session = InteractiveSession(figure1_graph, user)
        result = session.run()
        for node, sign in result.interaction_trace():
            assert (sign == "+") == (node in user.goal_answer)

    def test_nodes_never_proposed_twice(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        result = InteractiveSession(figure1_graph, user).run()
        proposed = [record.node for record in result.records]
        assert len(proposed) == len(set(proposed))

    def test_session_needs_few_interactions_on_figure1(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        result = InteractiveSession(figure1_graph, user).run()
        # 10 nodes but far fewer questions thanks to pruning/propagation
        assert result.interactions <= 6

    def test_user_satisfied_halt(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        session = InteractiveSession(
            figure1_graph, user, halt_condition=UserSatisfied(user.goal_answer)
        )
        result = session.run()
        assert result.halted_by in ("user-satisfied", "no-informative-node")
        assert evaluate(figure1_graph, result.learned_query) == user.goal_answer

    def test_max_interactions_budget(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        session = InteractiveSession(figure1_graph, user, max_interactions=1)
        result = session.run()
        assert result.interactions == 1

    def test_run_twice_raises(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        session = InteractiveSession(figure1_graph, user)
        session.run()
        with pytest.raises(SessionFinishedError):
            session.run()
        with pytest.raises(SessionFinishedError):
            session.step()

    def test_random_strategy_session_also_converges(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        session = InteractiveSession(
            figure1_graph, user, strategy=RandomStrategy(seed=5, max_path_length=4)
        )
        result = session.run()
        assert evaluate(figure1_graph, result.learned_query) == user.goal_answer

    def test_without_path_validation_still_consistent(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        session = InteractiveSession(figure1_graph, user, path_validation=False)
        result = session.run()
        answer = evaluate(figure1_graph, result.learned_query)
        for node, sign in result.interaction_trace():
            if sign == "+":
                assert node in answer
            else:
                assert node not in answer

    def test_session_on_transit_graph(self, small_transit_graph):
        answer = evaluate(small_transit_graph, GOAL)
        if not answer:
            pytest.skip("seeded transit graph has no cinema reachable")
        user = SimulatedUser(small_transit_graph, GOAL)
        session = InteractiveSession(small_transit_graph, user, max_interactions=30)
        result = session.run()
        assert result.learned_query is not None
        learned_answer = evaluate(small_transit_graph, result.learned_query)
        # every explicit label must be honoured
        for node, sign in result.interaction_trace():
            assert (node in learned_answer) == (sign == "+")


class TestStepDetails:
    def test_step_records_zoom_and_validation(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        session = InteractiveSession(figure1_graph, user)
        records = []
        while not session.should_halt():
            records.append(session.step())
        positive_records = [record for record in records if record.positive]
        assert any(record.validated_word for record in positive_records)
        assert all(record.final_radius >= DEFAULT_INITIAL_RADIUS for record in records)
        assert all(record.duration_seconds >= 0 for record in records)

    def test_propagation_counts_recorded(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        session = InteractiveSession(figure1_graph, user)
        first = session.step()
        # labelling the first node prunes the facility sinks at least
        assert first.propagated_negative >= 1 or first.propagated_positive >= 0

    def test_hypothesis_progression_stays_consistent(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        session = InteractiveSession(figure1_graph, user)
        while not session.should_halt():
            record = session.step()
            assert record.hypothesis_consistent
            answer = evaluate(figure1_graph, record.hypothesis)
            for node in session.examples.user_positive_nodes:
                assert node in answer
            for node in session.examples.user_negative_nodes:
                assert node not in answer

    def test_interaction_index_increments(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        session = InteractiveSession(figure1_graph, user)
        indices = []
        while not session.should_halt():
            indices.append(session.step().index)
        assert indices == list(range(1, len(indices) + 1))


class TestNoisyAndEdgeCases:
    def test_noisy_user_session_does_not_crash(self, figure1_graph):
        user = NoisyUser(figure1_graph, GOAL, noise=0.4, seed=3)
        session = InteractiveSession(figure1_graph, user, max_interactions=8)
        result = session.run()
        assert result.interactions <= 8
        # the result object reports whether inconsistency was hit
        assert isinstance(result.inconsistent, bool)

    def test_goal_selecting_nothing(self, figure1_graph):
        user = SimulatedUser(figure1_graph, "metro")
        session = InteractiveSession(figure1_graph, user)
        result = session.run()
        assert result.learned_query is not None
        assert evaluate(figure1_graph, result.learned_query) == frozenset()

    def test_total_time_and_zoom_aggregates(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        result = InteractiveSession(figure1_graph, user).run()
        assert result.total_time >= 0
        assert result.total_zooms == sum(record.zooms for record in result.records)


class TestWorkspaceInjection:
    def test_explicit_workspace_is_the_injection_point(self, figure1_graph):
        from repro.serving import GraphWorkspace

        workspace = GraphWorkspace()
        user = SimulatedUser(figure1_graph, GOAL, workspace=workspace)
        session = InteractiveSession(figure1_graph, user, workspace=workspace)
        assert session.workspace is workspace
        assert session.engine is workspace.engine
        assert session.neighborhoods is workspace.neighborhoods(figure1_graph)
        assert session.learner.workspace is workspace

    def test_advance_finish_equals_run(self, figure1_graph):
        from repro.serving import GraphWorkspace

        direct = InteractiveSession(
            figure1_graph,
            SimulatedUser(figure1_graph, GOAL),
            max_interactions=25,
            workspace=GraphWorkspace(),
        ).run()
        stepped_session = InteractiveSession(
            figure1_graph,
            SimulatedUser(figure1_graph, GOAL),
            max_interactions=25,
            workspace=GraphWorkspace(),
        )
        while stepped_session.advance():
            pass
        stepped = stepped_session.finish()
        assert stepped.interaction_trace() == direct.interaction_trace()
        assert str(stepped.learned_query) == str(direct.learned_query)
        assert stepped.halted_by == direct.halted_by

    def test_advance_after_finish_raises(self, figure1_graph):
        session = InteractiveSession(
            figure1_graph, SimulatedUser(figure1_graph, GOAL), max_interactions=3
        )
        session.run()
        with pytest.raises(SessionFinishedError):
            session.advance()


class AlwaysZoom:
    """A user who asks to zoom whenever offered; counts the questions."""

    def __init__(self):
        self.asked = 0

    def wants_zoom(self, node, neighborhood):
        self.asked += 1
        return True


def eccentricity_capped_ladder(index, node, user):
    """The zoom ladder as it was when the node's eccentricity capped it."""
    cap = min(DEFAULT_MAX_RADIUS, max(DEFAULT_INITIAL_RADIUS, index.eccentricity_bound(node)))
    radius = min(DEFAULT_INITIAL_RADIUS, cap)
    neighborhood = index.neighborhood(node, radius)
    zooms = 0
    while radius < cap and user.wants_zoom(node, neighborhood):
        radius += 1
        neighborhood = index.neighborhood(node, radius)
        zooms += 1
    return neighborhood, zooms


def isolated_node():
    graph = LabeledGraph()
    graph.add_node("alone")
    return graph


#: eccentricities below 2 (chain1, isolated), from 2 to 6 (chain3) and
#: above 6 (chain12): the three branches of the old cap's min/max
LADDER_GRAPHS = {
    "chain1": lambda: chain_graph(1),
    "chain3": lambda: chain_graph(3),
    "chain12": lambda: chain_graph(12),
    "isolated": isolated_node,
    "random-sparse": lambda: random_graph(30, 34, seed=4),
    "random-dense": lambda: random_graph(25, 60, seed=8),
}


class TestZoomLadder:
    @pytest.mark.parametrize("name", sorted(LADDER_GRAPHS))
    def test_frontier_ladder_equals_eccentricity_capped_ladder(self, name):
        graph = LADDER_GRAPHS[name]()
        user = AlwaysZoom()
        session = InteractiveSession(graph, user, workspace=GraphWorkspace())
        reference_user = AlwaysZoom()
        reference_index = NeighborhoodIndex(graph)
        for node in sorted(graph.nodes(), key=str):
            shown, zooms = session._present_neighborhood(node)
            expected, expected_zooms = eccentricity_capped_ladder(
                reference_index, node, reference_user
            )
            assert shown.nodes == expected.nodes
            assert (shown.radius, zooms) == (expected.radius, expected_zooms)
            assert user.asked == reference_user.asked

    def test_ladder_computes_no_frontier_set(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the zoom ladder computed a frontier set")

        monkeypatch.setattr(_BfsState, "boundary", fail)
        graph = random_graph(40, 70, ("a", "b"), seed=6)
        workspace = GraphWorkspace()
        user = SimulatedUser(graph, "a . b", zoom_patience=4, workspace=workspace)
        result = InteractiveSession(graph, user, workspace=workspace).run()
        assert result.total_zooms > 0
        assert result.halted_by == "no-informative-node"

    def test_ladder_explores_one_layer_past_the_fragment_shown(self):
        graph = chain_graph(30)
        workspace = GraphWorkspace()
        user = SimulatedUser(graph, "next . next . next", workspace=workspace)
        session = InteractiveSession(graph, user, workspace=workspace)
        result = session.run()
        shown = {record.node: record.final_radius for record in result.records}
        assert set(shown.values()) == {2, 3}
        states = session.neighborhoods._states
        assert states
        for state in states.values():
            assert len(state.layers) <= shown[state.center] + 2, state.center


#: one session per goal family on a random graph, then a session after
#: each of a few churn ticks; prints every trace as one JSON document
HASH_SEED_PROBE = """
import json
from repro.interactive.oracle import SimulatedUser
from repro.interactive.session import InteractiveSession
from repro.serving.workspace import GraphWorkspace
from repro.workloads.churn import ChurnStream
from repro.workloads.queries import generate_workload

stream = ChurnStream(
    node_count=300, alphabet="abcd", window=900, churn=2, tick_count=5, seed=3, name="hash-seed"
)
graph = stream.initial_graph()
workspace = GraphWorkspace()
goals = [goal.query for goal in generate_workload(graph, per_family=1, seed=3)]


def trace(goal):
    user = SimulatedUser(graph, goal, workspace=workspace)
    result = InteractiveSession(
        graph, user, max_path_length=3, path_validation=True, workspace=workspace
    ).run()
    return {
        "trace": result.interaction_trace(),
        "validated": [record.validated_word for record in result.records],
        "learned": str(result.learned_query),
        "halted_by": result.halted_by,
    }


traces = [trace(goal) for goal in goals]
for tick in stream.ticks():
    tick.apply(graph)
    workspace.refresh(graph)
    traces.append(trace(goals[tick.tick % len(goals)]))
print(json.dumps({"goals": len(goals), "traces": traces}))
"""


class TestHashSeedIndependence:
    def test_session_traces_do_not_depend_on_the_hash_seed(self):
        """Word ids follow set iteration order, which ``PYTHONHASHSEED``
        salts; no session output may depend on them."""
        import json
        import os
        import subprocess
        import sys

        root = os.path.join(os.path.dirname(__file__), "..", "..")
        outputs = []
        for hash_seed in ("0", "1", "7"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH="src")
            result = subprocess.run(
                [sys.executable, "-c", HASH_SEED_PROBE],
                capture_output=True,
                text=True,
                env=env,
                cwd=root,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        probe = json.loads(outputs[0])
        assert probe["goals"] == 7  # one goal per family
        assert any(entry["trace"] for entry in probe["traces"])
        assert any(any(entry["validated"]) for entry in probe["traces"])
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]
