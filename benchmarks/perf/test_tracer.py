"""Tests of the perf benchmark's tracer and percentile rule.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf``.
"""

from repro.automata.dfa import DFA
from repro.graph.datasets import motivating_example
from repro.interactive.oracle import SimulatedUser
from repro.interactive.session import InteractiveSession
from repro.query.engine import QueryEngine
from repro.query.rpq import PathQuery

from measure import AdvanceTimer, percentile
from tracer import SESSION_LAYERS, Patcher, Tracer, entry_points
from workloads import fresh_workspace


def _fake_clock(*readings):
    values = iter(readings)
    return lambda: next(values)


def test_self_time_subtracts_direct_children():
    # A [0, 10] holds B [1, 4] and C [5, 9]; C holds D [6, 7]
    tracer = Tracer(clock=_fake_clock(0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0))
    tracer.active = True

    def c():
        tracer.call("D", lambda: None, (), {})

    def a():
        tracer.call("B", lambda: None, (), {})
        tracer.call("C", c, (), {})

    tracer.call("A", a, (), {})
    assert tracer.layer("A") == (1, 10.0, 3.0)
    assert tracer.layer("B") == (1, 3.0, 3.0)
    assert tracer.layer("C") == (1, 4.0, 3.0)
    assert tracer.layer("D") == (1, 1.0, 1.0)
    assert tracer.root_seconds == 10.0
    # self times partition the root span
    assert sum(tracer.layer(name)[2] for name in "ABCD") == tracer.root_seconds
    # (id, name, start, end, parent, request), recorded as spans close
    assert sorted(tracer.spans) == [
        (0, "A", 0.0, 10.0, None, 0),
        (1, "B", 1.0, 4.0, 0, 0),
        (2, "C", 5.0, 9.0, 0, 0),
        (3, "D", 6.0, 7.0, 2, 0),
    ]


def test_same_layer_nested_in_itself_counts_self_time_once():
    # X [0, 10] holds X [2, 6]: 10 seconds of self time in total, not 14
    tracer = Tracer(clock=_fake_clock(0.0, 2.0, 6.0, 10.0))
    tracer.active = True
    tracer.call("X", lambda: tracer.call("X", lambda: None, (), {}), (), {})
    calls, total, own = tracer.layer("X")
    assert (calls, total, own) == (2, 14.0, 10.0)


def test_inactive_tracer_records_nothing():
    tracer = Tracer(clock=_fake_clock())  # reading the clock would raise
    assert tracer.call("A", lambda x: x + 1, (1,), {}) == 2
    assert tracer.layers == {} and tracer.spans == []


def test_span_limit_keeps_totals_but_drops_spans():
    tracer = Tracer(clock=_fake_clock(0.0, 1.0, 1.0, 3.0), span_limit=1)
    tracer.active = True
    tracer.call("A", lambda: None, (), {})
    tracer.call("A", lambda: None, (), {})
    assert tracer.layer("A") == (2, 3.0, 3.0)
    assert len(tracer.spans) == 1 and tracer.dropped == 1


class _Sample:
    def method(self):
        return "method"

    @classmethod
    def build(cls):
        return cls


def test_patcher_handles_methods_and_classmethods():
    originals = {name: vars(_Sample)[name] for name in ("method", "build")}
    calls = []

    def wrap(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapped

    with Patcher() as patcher:
        for name in originals:
            patcher.replace(_Sample, name, wrap)
        sample = _Sample()
        assert (sample.method(), _Sample.build()) == ("method", _Sample)
        assert calls == ["method", "build"]
    for name, original in originals.items():
        assert vars(_Sample)[name] is original


def test_instrumenting_restores_every_entry_point():
    points = entry_points()
    before = [(owner, name, vars(owner)[name]) for owner, name, _layer, _count in points]
    advance = vars(InteractiveSession)["advance"]
    with Patcher() as patcher:
        AdvanceTimer().install(patcher)
        Tracer().instrument(patcher)
        for owner, name, original in before:
            assert vars(owner)[name] is not original, f"{owner.__name__}.{name} not wrapped"
        # a wrapped classmethod is still a classmethod
        assert isinstance(PathQuery.from_dfa(DFA(0)), PathQuery)
    for owner, name, original in before:
        assert vars(owner)[name] is original, f"{owner.__name__}.{name} not restored"
    assert vars(InteractiveSession)["advance"] is advance


def _figure1_session_outcome():
    graph = motivating_example()
    workspace = fresh_workspace()
    user = SimulatedUser(graph.copy(), "(tram + bus)* . cinema", engine=QueryEngine())
    session = InteractiveSession(graph, user, workspace=workspace, max_interactions=40)
    result = session.run()
    return (
        result.interaction_trace(),
        [record.validated_word for record in result.records],
        str(result.learned_query),
        result.halted_by,
    )


def test_figure1_trace_identical_with_and_without_tracer():
    untraced = _figure1_session_outcome()
    tracer = Tracer()
    with Patcher() as patcher:
        tracer.instrument(patcher)
        tracer.active = True
        traced = _figure1_session_outcome()
        tracer.active = False
    assert traced == untraced
    assert len(untraced[0]) >= 2
    for layer in ("interactive.session", "interactive.strategies", "learning.learner.select_words"):
        assert tracer.layer(layer)[0] > 0, layer
    assert set(tracer.layers) <= set(SESSION_LAYERS)


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(100)), 90) is not None
    assert percentile(list(range(99)), 90) is None
    assert percentile(list(range(20)), 50) is not None
    assert percentile(list(range(19)), 50) is None
    assert percentile([], 50) is None


def test_percentile_interpolates_between_ranks():
    samples = [float(value) for value in reversed(range(100))]
    assert percentile(samples, 50) == 49.5
    assert abs(percentile(samples, 90) - 89.1) < 1e-9
