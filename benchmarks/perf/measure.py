"""Samples, correctness checks and metrics of one benchmark run.

A run is a sequence of *passes*.  A pass replays the workload's whole,
seeded input once on freshly prepared state, so every pass does the
same work and must produce the same sessions: the first pass is checked
for correctness in full, and every later pass must reproduce its
outcomes exactly.  Each metric is computed per pass and reported as its
median over the passes, so its value does not depend on how many passes
the time budget held.  Every time is read from one :class:`WorkClock`,
in seconds at the machine's reference speed (see :mod:`speed`).

The simulated users live in a world of their own: every oracle answers
from a private copy of the graph through a private engine, so none of
its work (goal evaluation, label indexes, cached answers) lands in the
state the system under test reads.
"""

from __future__ import annotations

import hashlib
import statistics
import traceback
import weakref
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.interactive.oracle import SimulatedUser
from repro.interactive.session import InteractiveSession
from repro.learning.consistency import check_consistency
from repro.query.engine import QueryEngine

from speed import WorkClock
from tracer import SESSION_LAYERS, WORKLOAD_LAYERS, Patcher, Tracer

#: the one clock every measurement of a run reads
clock = WorkClock()

#: a percentile is reported only when this many samples lie beyond it
MIN_BEYOND = 10

#: the interaction budget of every session (the paper's safety valve)
MAX_INTERACTIONS = 40


class BenchmarkError(RuntimeError):
    """The run cannot produce a metric (for instance: too few samples)."""


def percentile(samples: Sequence[float], percent: int) -> Optional[float]:
    """The ``percent``-th percentile of ``samples``, or ``None``.

    The value is interpolated linearly between the two nearest ranks.
    It is reported only when at least :data:`MIN_BEYOND` samples lie
    beyond it, i.e. when ``n - ceil(percent * n / 100) >= 10``: a p90
    needs 100 samples and a median 20.
    """
    count = len(samples)
    rank = -(-percent * count // 100)  # integer ceil, no float rounding
    if count == 0 or count - rank < MIN_BEYOND:
        return None
    ordered = sorted(samples)
    position = percent * (count - 1) / 100
    low = int(position)
    high = min(low + 1, count - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def required_percentile(samples: Sequence[float], percent: int, what: str) -> float:
    value = percentile(samples, percent)
    if value is None:
        raise BenchmarkError(
            f"{what}: {len(samples)} samples cannot support a p{percent} "
            f"(at least {MIN_BEYOND} must lie beyond it)"
        )
    return value


class ClockedUser(SimulatedUser):
    """A simulated user that notes when it is first asked to label a node.

    ``graph`` is the oracle's own copy of the graph the session runs on,
    and ``engine`` the oracle's own engine (see the module docstring).
    """

    def __init__(self, graph, goal, engine: QueryEngine):
        super().__init__(graph, goal, engine=engine)
        self.first_label_at: Optional[float] = None

    def label(self, node) -> bool:
        if self.first_label_at is None:
            self.first_label_at = clock()
        return super().label(node)


class PassRecord:
    """Everything one pass measured, plus the outcomes it must reproduce."""

    def __init__(self, *, checked: bool, tracer: Optional[Tracer] = None):
        #: only the first pass runs the (untimed) correctness checks
        self.checked = checked
        #: the span recorder of a traced pass (``None``: untraced)
        self.tracer = tracer
        self.interactions: List[float] = []
        self.first_questions: List[float] = []
        self.queue_waits: List[float] = []
        self.ticks: List[float] = []
        #: seconds spent in measured sections
        self.measured = 0.0
        self.advance_seconds = 0.0
        self.driving_seconds = 0.0
        self.sessions = 0
        #: per session, in pass order: ((node, sign), ...), learned query, halt reason
        self.outcomes: List[Tuple[tuple, str, str]] = []
        self.labels: List[int] = []
        self.reached: List[bool] = []
        self.attempted = 0
        self.failures: List[str] = []
        #: workspace / engine / canonical / memo / refresh / manager counters
        self.counters: Counter = Counter()
        self._last_end: "weakref.WeakKeyDictionary[InteractiveSession, float]" = (
            weakref.WeakKeyDictionary()
        )
        self._check_engine: Optional[QueryEngine] = None

    @contextmanager
    def section(self) -> Iterator[List[float]]:
        """Time a measured section; yields a one-item list set to its seconds."""
        seconds = [0.0]
        clock.sample()
        if self.tracer is not None:
            self.tracer.active = True
        start = clock()
        try:
            yield seconds
        finally:
            seconds[0] = clock() - start
            self.measured += seconds[0]
            if self.tracer is not None:
                self.tracer.active = False

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    def on_advance(self, session: InteractiveSession, start: float, end: float, performed: bool) -> None:
        self.advance_seconds += end - start
        if performed:
            self.interactions.append(end - start)
            last = self._last_end.get(session)
            if last is not None:
                self.queue_waits.append(start - last)
        self._last_end[session] = end

    def first_question(self, user: ClockedUser, since: float) -> None:
        if user.first_label_at is not None:
            self.first_questions.append(user.first_label_at - since)

    def add_workspace_counters(self, after: Dict[str, int], before: Optional[Dict[str, int]] = None) -> None:
        delta = Counter(after)
        if before is not None:
            delta.subtract(before)
        self.counters.update(delta)

    def record_session(self, graph, user: SimulatedUser, examples, result) -> None:
        """Record one finished session and, on the checked pass, verify it."""
        self.sessions += 1
        trace = tuple(result.interaction_trace())
        learned = str(result.learned_query)
        self.outcomes.append((trace, learned, result.halted_by))
        if result.deduped:
            return  # a follower replays its representative's outcome
        self.labels.append(result.interactions)
        if not self.checked:
            return
        if self._check_engine is None:
            self._check_engine = QueryEngine()
        problem = session_problem(graph, result, examples, self._check_engine)
        if problem is not None:
            self.failures.append(f"session {len(self.outcomes)}: {problem}")
        answer = (
            self._check_engine.evaluate(graph, result.learned_query)
            if result.learned_query is not None
            else frozenset()
        )
        self.reached.append(answer == user.goal_answer)

    def digest(self) -> str:
        return hashlib.sha256(repr(self.outcomes).encode("utf-8")).hexdigest()


def session_problem(graph, result, examples, engine: QueryEngine) -> Optional[str]:
    """Why a finished session counts as failed, or ``None``."""
    if result.quarantined:
        return f"quarantined ({result.halted_by})"
    if result.inconsistent:
        return "examples became inconsistent"
    if result.learned_query is not None:
        report = check_consistency(graph, result.learned_query, examples, engine=engine)
        if not report.consistent:
            return f"learned {result.learned_query}: {report.explain()}"
    return None


def describe_exception() -> str:
    return traceback.format_exc(limit=4).strip().replace("\n", " | ")


class AdvanceTimer:
    """Times every ``InteractiveSession.advance()`` call from outside.

    Installed for the whole run (the serving workload's manager calls
    ``advance()`` itself, so the timer sits on the class); each sample is
    routed to the pass currently running.
    """

    def __init__(self):
        self.record: Optional[PassRecord] = None

    def install(self, patcher: Patcher) -> None:
        def wrap(advance):
            def timed(session):
                clock.sample()  # between interactions, never inside one
                start = clock()
                performed = advance(session)
                end = clock()
                self.record.on_advance(session, start, end, performed)
                return performed

            timed.__wrapped__ = advance
            return timed

        patcher.replace(InteractiveSession, "advance", wrap)


def drive_session(
    rec: PassRecord,
    graph,
    user: ClockedUser,
    workspace,
    *,
    max_path_length: int,
    since: Optional[float] = None,
):
    """Run one closed-loop session to its halt; returns it (``None`` on failure).

    The caller builds ``user`` outside the measured section: evaluating
    the goal is the user's own cost, not the system's.  The first
    question is timed from ``since`` (default: session construction).
    """
    rec.attempted += 1
    try:
        with rec.section():
            constructed_at = clock()
            session = InteractiveSession(
                graph,
                user,
                workspace=workspace,
                max_path_length=max_path_length,
                max_interactions=MAX_INTERACTIONS,
            )
            loop_start = clock()
            while session.advance():
                pass
            rec.driving_seconds += clock() - loop_start
            result = session.finish()
    except Exception:  # a failing session is counted, the run goes on
        rec.failures.append(f"session raised: {describe_exception()}")
        return None
    rec.first_question(user, constructed_at if since is None else since)
    rec.record_session(graph, user, session.examples, result)
    return session


def workspace_counters(workspace) -> Dict[str, int]:
    """The counters of ``workspace.stats()`` the per-layer metrics use."""
    stats = workspace.stats()
    engine = stats["engine"]
    canonical = stats["canonical"]
    return {
        "language.builds": stats["language_index_builds"],
        "language.restrictions": stats["language_index_restrictions"],
        "language.refreshes": stats["language_index_refreshes"],
        "language.hits": stats["language_index_hits"],
        "memo.hits": stats["memo_hits"],
        "memo.misses": stats["memo_misses"],
        "engine.answer_hits": engine["answer_hits"],
        "engine.answer_misses": engine["answer_misses"],
        "engine.plan_hits": engine["plan_hits"],
        "engine.plan_misses": engine["plan_misses"],
        "canonical.hits": canonical["hits"],
        "canonical.misses": canonical["misses"],
    }


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
Metrics = Dict[str, Tuple[float, str]]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pass_median(passes: Sequence[PassRecord], value: Callable[[PassRecord], float]) -> float:
    """The median over the passes of ``value(pass)``.

    Unlike the least of the readings, the median of the passes does not
    drift as more of them fit in the time budget, so a run that held more
    passes (a faster commit, a longer ``--seconds``) is still compared
    like for like.
    """
    return statistics.median(value(rec) for rec in passes)


def latency_ms(passes: Sequence[PassRecord], samples: str, percent: int) -> float:
    """The median over the passes of the ``percent``-th percentile of the
    per-operation list ``samples`` of :class:`PassRecord`, in ms."""

    def of(rec: PassRecord) -> float:
        return required_percentile(getattr(rec, samples), percent, samples.replace("_", " "))

    return 1000 * pass_median(passes, of)


def median_pass(passes: Sequence[PassRecord]) -> PassRecord:
    """The pass whose measured time is the (lower) median of the passes."""
    ordered = sorted(passes, key=lambda rec: rec.measured)
    return ordered[(len(ordered) - 1) // 2]


def end_to_end_metrics(
    passes: Sequence[PassRecord], setup_seconds: float, peak_rss_mb: float
) -> Metrics:
    """The user-visible metrics of a run.

    Each latency percentile and each throughput is computed within every
    pass and reported as its median over the passes (:func:`pass_median`);
    outcomes are those of the checked first pass.
    """
    first = passes[0]

    def per_second(count: Callable[[PassRecord], int]) -> float:
        return pass_median(passes, lambda rec: count(rec) / rec.measured)

    return {
        "interaction_p50_ms": (latency_ms(passes, "interactions", 50), "ms"),
        "interaction_p90_ms": (latency_ms(passes, "interactions", 90), "ms"),
        "first_question_p50_ms": (latency_ms(passes, "first_questions", 50), "ms"),
        "interactions_per_s": (per_second(lambda rec: len(rec.interactions)), "1/s"),
        "sessions_per_s": (per_second(lambda rec: rec.sessions), "1/s"),
        "labels_per_session": (sum(first.labels) / len(first.labels), "count"),
        "goal_reached_frac": (_ratio(sum(first.reached), len(first.reached)), "frac"),
        "setup_s": (setup_seconds, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer_metrics(
    traced: Sequence[PassRecord], untraced: Sequence[PassRecord], line_counts: Dict[str, int]
) -> Metrics:
    """Per-layer metrics of the median traced pass (:func:`median_pass`).

    Times and counts are per pass, so runs whose budget fit a different
    number of passes stay comparable.  The tracing overhead compares the
    interaction medians of the traced and the untraced passes.
    """
    rec = median_pass(traced)
    tracer = rec.tracer
    measured = rec.measured
    counters = rec.counters
    metrics: Metrics = {}
    for layer in SESSION_LAYERS:
        calls, _total, own = tracer.layer(layer)
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_ms"] = (1000 * own, "ms")
    for layer in WORKLOAD_LAYERS:
        calls, _total, own = tracer.layer(layer)
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_frac"] = (_ratio(own, measured), "frac")

    language_lookups = sum(
        counters[key]
        for key in ("language.hits", "language.builds", "language.restrictions", "language.refreshes")
    )
    prefix = "serving.workspace.language_index"
    metrics[f"{prefix}.builds"] = (counters["language.builds"], "count")
    metrics[f"{prefix}.restrictions"] = (counters["language.restrictions"], "count")
    metrics[f"{prefix}.refreshes"] = (counters["language.refreshes"], "count")
    metrics[f"{prefix}.hit_ratio"] = (_ratio(counters["language.hits"], language_lookups), "ratio")

    compatibility = "learning.language_index.compatibility"
    metrics[f"{compatibility}.accept_ratio"] = (
        _ratio(tracer.true_results.get(compatibility, 0), tracer.layer(compatibility)[0]),
        "ratio",
    )
    for name, part, rest in (
        ("automata.canonical.hit_ratio", "canonical.hits", "canonical.misses"),
        ("query.engine.answer_hit_ratio", "engine.answer_hits", "engine.answer_misses"),
        ("query.engine.plan_hit_ratio", "engine.plan_hits", "engine.plan_misses"),
        (
            "serving.workspace.refresh.answers_retained_ratio",
            "refresh.answers_retained",
            "refresh.answers_dropped",
        ),
        (
            "serving.workspace.refresh.language_refreshed_ratio",
            "refresh.language_indexes_refreshed",
            "refresh.language_indexes_dropped",
        ),
        (
            "serving.workspace.refresh.neighborhood_kept_ratio",
            "refresh.neighborhood_states_kept",
            "refresh.neighborhood_states_dropped",
        ),
        ("serving.manager.memo_hit_ratio", "memo.hits", "memo.misses"),
    ):
        metrics[name] = (_ratio(counters[part], counters[part] + counters[rest]), "ratio")
    metrics["serving.manager.dedup_ratio"] = (
        _ratio(counters["manager.deduped"], counters["manager.admitted"]),
        "ratio",
    )
    metrics["serving.manager.queue_wait_p50_ms"] = (
        1000 * required_percentile(rec.queue_waits, 50, "queue waits"),
        "ms",
    )
    metrics["serving.manager.overhead_ms"] = (1000 * (rec.driving_seconds - rec.advance_seconds), "ms")

    traced_p50 = latency_ms(traced, "interactions", 50)
    untraced_p50 = latency_ms(untraced, "interactions", 50)
    metrics["trace.unattributed_frac"] = (1.0 - _ratio(tracer.root_seconds, measured), "frac")
    metrics["trace.overhead_frac"] = (traced_p50 / untraced_p50 - 1.0, "frac")
    for name, lines in line_counts.items():
        metrics[f"loc.{name}"] = (lines, "lines")
    return metrics


#: the ``src/repro`` subpackages whose size is reported next to the timings
LOC_PACKAGES: Tuple[str, ...] = (
    "automata",
    "devtools",
    "experiments",
    "graph",
    "interactive",
    "learning",
    "query",
    "regex",
    "reliability",
    "serving",
    "workloads",
)


def line_counts(root: Path) -> Dict[str, int]:
    """Lines of Python per ``src/repro`` subpackage, plus ``benchmarks``."""
    trees = {name: root / "src" / "repro" / name for name in LOC_PACKAGES}
    trees["benchmarks"] = root / "benchmarks"
    return {
        name: sum(len(path.read_text(encoding="utf-8").splitlines()) for path in sorted(tree.rglob("*.py")))
        for name, tree in trees.items()
    }
