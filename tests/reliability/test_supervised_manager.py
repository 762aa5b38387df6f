"""Supervised session driving: retry, quarantine, and chaos determinism.

The two property tests at the heart of the reliability PR live here:

* a session whose oracle faults are injected *and retried* converges to
  the same final hypothesis as the fault-free run (faults are gated
  before the inner oracle, so failed attempts consume no oracle state);
* sessions whose oracle keeps failing are quarantined — retired with a
  partial trace — and their results are never shared through the
  cross-session memo or adopted by dedup followers.
"""

import pytest

from repro.exceptions import OracleError
from repro.graph.datasets import motivating_example
from repro.interactive.oracle import SimulatedUser, UnreliableUser
from repro.reliability import FaultInjector, FaultPlan, RetryPolicy, SupervisionPolicy
from repro.serving import GraphWorkspace, SessionManager

GOAL = "(tram + bus)* . cinema"


def lenient_policy(**overrides):
    """A supervision policy that retries generously and trips late."""
    defaults = dict(
        retry=RetryPolicy(max_attempts=8, backoff_base=0.0001),
        breaker_consecutive_limit=50,
        breaker_total_limit=None,
        jitter_seed=7,
    )
    defaults.update(overrides)
    return SupervisionPolicy(**defaults)


def trace(result):
    return (
        result.interaction_trace(),
        [record.validated_word for record in result.records],
        str(result.learned_query),
        result.halted_by,
    )


class AlwaysFailingUser:
    """An oracle whose label answers always fail (retryably).

    Keeps the inner oracle's dedup signature so quarantine interacts
    with the dedup machinery — exactly the poisoned-cache scenario.
    """

    def __init__(self, inner):
        self.inner = inner

    def label(self, node):
        raise OracleError("oracle is down")

    def dedup_signature(self):
        signature = self.inner.dedup_signature()
        return None if signature is None else ("always-failing",) + signature

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestRetriedFaultsConvergeToFaultFreeHypothesis:
    def test_single_session_same_hypothesis(self):
        graph = motivating_example()
        baseline_manager = SessionManager(GraphWorkspace(), dedup=False)
        baseline_manager.admit(graph, SimulatedUser(graph, GOAL), max_interactions=15)
        baseline = list(baseline_manager.run_all().values())[0]

        manager = SessionManager(
            GraphWorkspace(), dedup=False, supervision=lenient_policy()
        )
        plan = FaultPlan(99, default_rate=0.3)
        user = UnreliableUser(SimulatedUser(graph, GOAL), FaultInjector(plan))
        manager.admit(graph, user, max_interactions=15)
        chaotic = list(manager.run_all().values())[0]

        assert user.injected_failures > 0, "rate 0.3 fired nothing — dead test"
        assert manager.stats()["step_retries"] >= user.injected_failures
        assert not chaotic.quarantined
        assert trace(chaotic) == trace(baseline)

    def test_fleet_under_chaos_matches_fault_free_fleet(self):
        graph = motivating_example()

        def run(rate):
            supervision = lenient_policy() if rate > 0.0 else None
            manager = SessionManager(
                GraphWorkspace(), dedup=False, supervision=supervision
            )
            users = []
            for index in range(6):
                user = SimulatedUser(graph, GOAL)
                if rate > 0.0:
                    user = UnreliableUser(
                        user, FaultInjector(FaultPlan(1000 + index, default_rate=rate))
                    )
                users.append(user)
                manager.admit(graph, user, max_interactions=15)
            results = manager.run_all()
            return [
                trace(results[sid]) for sid in sorted(results, key=lambda s: int(s[1:]))
            ], users

        baseline, _ = run(0.0)
        chaotic, users = run(0.25)
        assert sum(user.injected_failures for user in users) > 0
        assert chaotic == baseline

    def test_chaos_replays_bit_identically(self):
        graph = motivating_example()

        def run():
            manager = SessionManager(
                GraphWorkspace(), dedup=False, supervision=lenient_policy()
            )
            user = UnreliableUser(
                SimulatedUser(graph, GOAL),
                FaultInjector(FaultPlan(5, default_rate=0.3)),
            )
            manager.admit(graph, user, max_interactions=15)
            return trace(list(manager.run_all().values())[0])

        assert run() == run()


class TestQuarantine:
    def test_persistently_failing_session_is_quarantined(self):
        graph = motivating_example()
        manager = SessionManager(
            GraphWorkspace(),
            dedup=False,
            supervision=SupervisionPolicy(
                retry=RetryPolicy(max_attempts=3, backoff_base=0.0001),
                breaker_consecutive_limit=2,
            ),
        )
        manager.admit(graph, AlwaysFailingUser(SimulatedUser(graph, GOAL)))
        result = list(manager.run_all().values())[0]
        assert result.quarantined
        assert result.halted_by.startswith("quarantined")
        stats = manager.stats()
        assert stats["quarantined"] == 1
        assert stats["completed"] == 1  # terminated, not hung

    def test_unsupervised_manager_propagates_the_failure(self):
        graph = motivating_example()
        manager = SessionManager(GraphWorkspace(), dedup=False)
        manager.admit(graph, AlwaysFailingUser(SimulatedUser(graph, GOAL)))
        with pytest.raises(OracleError):
            manager.run_all()

    def test_quarantined_result_never_reaches_memo_or_followers(self):
        graph = motivating_example()
        manager = SessionManager(
            GraphWorkspace(),
            dedup=True,
            supervision=SupervisionPolicy(
                retry=RetryPolicy(max_attempts=2, backoff_base=0.0001),
                breaker_consecutive_limit=2,
            ),
        )
        for _ in range(2):
            manager.admit(graph, AlwaysFailingUser(SimulatedUser(graph, GOAL)))
        results = manager.run_all()
        assert all(result.quarantined for result in results.values())
        # nothing was shared: no memo entry, no adopted (deduped) result
        assert manager.workspace.stats()["memo_entries"] == 0
        assert manager.stats()["deduped"] == 0
        assert all(not result.deduped for result in results.values())

    def test_healthy_dedup_still_shares_results(self):
        graph = motivating_example()
        manager = SessionManager(
            GraphWorkspace(), dedup=True, supervision=lenient_policy()
        )
        for _ in range(2):
            manager.admit(graph, SimulatedUser(graph, GOAL))
        results = manager.run_all()
        assert manager.stats()["deduped"] == 1
        assert sum(result.deduped for result in results.values()) == 1


class TestStepDeadline:
    def test_deadline_overruns_trip_the_breaker(self):
        # a zero budget makes every completed step an overrun; overruns are
        # charged to the breaker rather than retried, so the session is
        # quarantined after exactly breaker_consecutive_limit interactions
        graph = motivating_example()
        manager = SessionManager(
            GraphWorkspace(),
            dedup=True,
            supervision=SupervisionPolicy(
                step_deadline_seconds=0.0, breaker_consecutive_limit=2
            ),
        )
        manager.admit(graph, SimulatedUser(graph, GOAL))
        result = list(manager.run_all().values())[0]
        assert result.quarantined
        assert result.interactions == 2
        assert manager.stats()["deadline_overruns"] == 2
        # a quarantined partial trace is never memoised
        assert manager.workspace.stats()["memo_entries"] == 0


class TestSupervisionInvisibleWithoutFaults:
    def test_supervised_no_fault_trace_is_bit_identical(self):
        graph = motivating_example()

        def run(supervision):
            manager = SessionManager(GraphWorkspace(), dedup=False, supervision=supervision)
            manager.admit(graph, SimulatedUser(graph, GOAL), max_interactions=15)
            return trace(list(manager.run_all().values())[0])

        assert run(lenient_policy()) == run(None)
