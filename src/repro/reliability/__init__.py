"""Fault injection and supervision for the serving and campaign layers.

The serving core (:mod:`repro.serving`) and the campaign runner
(:mod:`repro.experiments.runner`) assume every component call succeeds.
This package makes failure a first-class, *deterministic* input:

* :mod:`repro.reliability.faults` — a seeded :class:`FaultPlan` /
  :class:`FaultInjector` pair that decides, per named *site*
  (``"oracle.label"``, ``"workspace.language_index"``, ``"runner.unit"``,
  …), whether each successive call fails.  Per-site sub-seeds are
  CRC32-derived exactly like the unit seeds of
  :func:`repro.experiments.runner.derive_unit_seed`, so the fault
  schedule is a pure function of ``(seed, site)`` and replays
  bit-identically across processes.
* :mod:`repro.reliability.policy` — bounded :class:`RetryPolicy` with
  exponential backoff and seeded jitter, and a ``time.monotonic``-based
  :class:`Deadline`.
* :mod:`repro.reliability.supervisor` — :class:`SupervisionPolicy` and
  the per-session :class:`CircuitBreaker` that quarantines a session
  whose oracle keeps failing, so one bad client degrades gracefully
  instead of wedging the manager loop.

Everything is off by default: a ``SessionManager`` without a policy and
an oracle without an injector behave bit-identically to the
pre-reliability code paths.
"""

from __future__ import annotations

from repro.reliability.faults import FaultInjector, FaultPlan, null_injector
from repro.reliability.policy import Deadline, RetryPolicy
from repro.reliability.supervisor import CircuitBreaker, SupervisionPolicy

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "null_injector",
    "RetryPolicy",
    "Deadline",
    "CircuitBreaker",
    "SupervisionPolicy",
]
