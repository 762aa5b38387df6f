"""Whole sessions against the from-scratch classification oracle.

Each step of a real :class:`InteractiveSession` runs the strategy, the
labelling, propagation and the learner on one example set.  After every
step the session's classifier must equal :func:`classify_all_scratch` of
that set, and every propagation pass must label exactly the nodes the
scratch oracle implied just before it.
"""

import pytest

from repro.graph.datasets import dataset_catalog
from repro.graph.generators import random_graph
from repro.interactive import session as session_module
from repro.interactive.oracle import NoisyUser, SimulatedUser
from repro.interactive.session import InteractiveSession
from repro.learning.informativeness import classify_all_scratch
from repro.serving.workspace import GraphWorkspace

CASES = [
    (dataset_catalog()["figure-1"], "(tram + bus)* . cinema"),
    (random_graph(14, 36, "abc", seed=5), "a . b*"),
    (random_graph(18, 45, "abc", seed=6), "(a + c) . b"),
]


@pytest.mark.parametrize("case", range(len(CASES)))
@pytest.mark.parametrize("bound", (2, 3, 4))
def test_every_step_matches_scratch(case, bound, monkeypatch):
    graph, goal = CASES[case]
    propagate = session_module.propagate_to_fixpoint
    passes = []

    def checked(graph, examples, *, max_length, classifier=None):
        assert classifier is session.classifier
        scratch = classify_all_scratch(graph, examples, max_length=max_length)
        result = propagate(graph, examples, max_length=max_length, classifier=classifier)
        assert result.implied_positive == {
            node for node, status in scratch.items() if status.implied_positive
        }
        assert result.implied_negative == {
            node for node, status in scratch.items() if status.implied_negative
        }
        passes.append(result)
        return result

    monkeypatch.setattr(session_module, "propagate_to_fixpoint", checked)
    # one workspace: the sessions after the first start from its stored start state
    workspace = GraphWorkspace()
    for noisy in (False, True):
        for validation in (True, False):
            if noisy:
                user = NoisyUser(graph, goal, noise=0.2, seed=bound + case, workspace=workspace)
            else:
                user = SimulatedUser(graph, goal, workspace=workspace)
            session = InteractiveSession(
                graph,
                user,
                path_validation=validation,
                max_path_length=bound,
                workspace=workspace,
            )
            steps = len(passes)
            while session.advance():
                assert len(passes) == steps + 1
                steps += 1
                assert session.classifier.statuses() == classify_all_scratch(
                    graph, session.examples, max_length=bound
                )
            assert session.records, "the session asked nothing"
