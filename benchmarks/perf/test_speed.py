"""Tests of the benchmark clock that reads seconds at the reference speed.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf``.
"""

import speed
from speed import REFERENCE_LOOP_SECONDS, SAMPLE_INTERVAL, WINDOW, WorkClock


class _FakeMachine:
    """A wall clock that only moves when told to, on which one reference
    loop takes ``loop_seconds``."""

    def __init__(self, loop_seconds):
        self.now = 100.0
        self.loop_seconds = loop_seconds
        self.loops = 0

    def perf_counter(self):
        return self.now

    def reference_loop(self):
        self.loops += 1
        self.now += self.loop_seconds


def _fake_machine(monkeypatch, loop_seconds):
    machine = _FakeMachine(loop_seconds)
    monkeypatch.setattr(speed, "time", machine)
    monkeypatch.setattr(speed, "reference_loop", machine.reference_loop)
    return machine


def test_clock_stands_still_while_sampling(monkeypatch):
    machine = _fake_machine(monkeypatch, loop_seconds=REFERENCE_LOOP_SECONDS)
    clock = WorkClock()
    clock.refill()
    start = clock()
    machine.now += 1.0  # measured work
    clock.sample(force=True)
    machine.now += 2.0  # measured work
    assert abs((clock() - start) - 3.0) < 1e-9


def test_clock_runs_at_the_reference_speed(monkeypatch):
    machine = _fake_machine(monkeypatch, loop_seconds=2 * REFERENCE_LOOP_SECONDS)
    clock = WorkClock()
    clock.refill()  # a machine at half the reference speed
    start = clock()
    machine.now += 4.0
    assert abs((clock() - start) - 2.0) < 1e-9


def test_speed_is_the_mean_over_the_window(monkeypatch):
    machine = _fake_machine(monkeypatch, loop_seconds=2 * REFERENCE_LOOP_SECONDS)
    clock = WorkClock()
    clock.refill()
    machine.loop_seconds = REFERENCE_LOOP_SECONDS
    clock.sample(force=True)  # one sample at full speed, WINDOW - 1 at half speed
    start = clock()
    machine.now += 1.0
    assert abs((clock() - start) - WINDOW / (2 * (WINDOW - 1) + 1)) < 1e-9


def test_sampling_is_rate_limited(monkeypatch):
    machine = _fake_machine(monkeypatch, loop_seconds=0.001)
    clock = WorkClock()
    clock.refill()
    assert machine.loops == WINDOW
    clock.sample()  # no time has passed since the last sample
    assert machine.loops == WINDOW
    machine.now += 2 * SAMPLE_INTERVAL
    clock.sample()
    assert machine.loops == WINDOW + 1


def test_reference_loop_is_deterministic():
    assert speed.reference_loop() == speed.reference_loop()
