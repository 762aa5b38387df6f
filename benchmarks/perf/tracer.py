"""Outside-in span tracing for the perf benchmark.

The benchmark measures the program only from outside: a span is recorded
around each call into a layer's public entry point, by replacing that
entry point — on its class, or on the module that looks it up by name —
with a timing wrapper for the length of one traced pass.  Every replaced
attribute is restored afterwards, so untraced passes run the unmodified
code.  Nothing under ``src/`` knows it is being traced.

Self time is computed online: a span's self time is its duration minus
the durations of its direct child spans.  All spans are opened and
closed on one thread inside synchronous calls (the serving workload's
coroutines only await between ``advance()`` calls), so children never
overlap and the subtraction is exact.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: spans kept in memory for the JSONL dump; beyond this only the per-layer
#: totals are updated, which bounds the memory a long traced pass takes
SPAN_LIMIT = 100_000

class Patcher:
    """Replaces attributes of classes or modules and restores every one.

    ``replace`` accepts functions and ``classmethod`` attributes defined
    on ``owner`` itself.
    """

    def __init__(self):
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attribute: str, wrap: Callable[[Callable], Callable]) -> None:
        raw = vars(owner)[attribute]
        if isinstance(raw, classmethod):
            replacement = classmethod(wrap(raw.__func__))
        else:
            replacement = wrap(raw)
        self._saved.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        """Put back every replaced attribute, most recent first."""
        while self._saved:
            owner, attribute, raw = self._saved.pop()
            setattr(owner, attribute, raw)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


class Tracer:
    """Span recorder: per-layer call counts, total and self time.

    Spans are recorded only while :attr:`active` is true — the benchmark
    switches it on for the measured sections of a pass, so work done by
    the simulated user's set-up or by the correctness checks never shows
    up as a layer's time.  A span is ``(id, name, start, end, parent id,
    request id)``; the request id is the id of the root span it descends
    from (one ``advance()`` is one interaction).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter, span_limit: int = SPAN_LIMIT):
        self.clock = clock
        self.span_limit = span_limit
        self.active = False
        #: layer -> [calls, total seconds, self seconds]
        self.layers: Dict[str, List[float]] = {}
        #: layer -> calls that returned a true value (for accept ratios)
        self.true_results: Dict[str, int] = {}
        #: total seconds covered by root spans
        self.root_seconds = 0.0
        self.spans: List[Tuple[int, str, float, float, Optional[int], int]] = []
        self.dropped = 0
        self._stack: List[List[float]] = []
        self._next_id = 0
        self._request = 0

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1] if stack else None
        if parent is None:
            self._request = span_id
        frame = [0.0, span_id]  # child seconds, span id
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            if parent is None:
                self.root_seconds += duration
            else:
                parent[0] += duration
            totals = self.layers.get(name)
            if totals is None:
                totals = self.layers[name] = [0, 0.0, 0.0]
            totals[0] += 1
            totals[1] += duration
            totals[2] += duration - frame[0]
            if len(self.spans) < self.span_limit:
                parent_id = int(parent[1]) if parent is not None else None
                self.spans.append((span_id, name, start, end, parent_id, self._request))
            else:
                self.dropped += 1

    def wrapper(self, name: str, *, count_true: bool = False) -> Callable[[Callable], Callable]:
        """A ``Patcher.replace`` wrap function recording spans named ``name``."""

        def wrap(fn: Callable) -> Callable:
            if count_true:

                def traced(*args, **kwargs):
                    result = self.call(name, fn, args, kwargs)
                    if result and self.active:
                        self.true_results[name] = self.true_results.get(name, 0) + 1
                    return result

            else:

                def traced(*args, **kwargs):
                    return self.call(name, fn, args, kwargs)

            traced.__wrapped__ = fn
            return traced

        return wrap

    def instrument(self, patcher: Patcher) -> None:
        """Wrap every layer entry point of :func:`entry_points`."""
        for owner, attribute, layer, count_true in entry_points():
            patcher.replace(owner, attribute, self.wrapper(layer, count_true=count_true))

    def layer(self, name: str) -> Tuple[int, float, float]:
        """``(calls, total seconds, self seconds)`` of ``name`` (zeros if never called)."""
        calls, total, own = self.layers.get(name, (0, 0.0, 0.0))
        return int(calls), total, own


def entry_points() -> List[Tuple[Any, str, str, bool]]:
    """``(owner, attribute, layer, count_true)`` for every traced entry point.

    Functions the session and the learner import by name are wrapped on
    the importing module, because that is where they are looked up.
    ``NeighborhoodIndex`` uses ``__slots__``, so its methods are wrapped
    on the class (as every method here is).
    """
    from repro.graph.labeled_graph import LabeledGraph
    from repro.graph.neighborhood import NeighborhoodIndex
    from repro.interactive import session as session_module
    from repro.interactive import strategies as strategies_module
    from repro.interactive.oracle import SimulatedUser
    from repro.interactive.session import InteractiveSession
    from repro.learning import learner as learner_module
    from repro.learning.informativeness import SessionClassifier
    from repro.learning.language_index import CompatibilityOracle
    from repro.learning.learner import PathQueryLearner
    from repro.query.engine import QueryEngine
    from repro.query.rpq import PathQuery
    from repro.serving.manager import SessionManager
    from repro.serving.workspace import GraphWorkspace

    strategies = sorted(
        (
            value
            for value in vars(strategies_module).values()
            if isinstance(value, type)
            and issubclass(value, strategies_module.Strategy)
            and "propose" in vars(value)
            and not getattr(vars(value)["propose"], "__isabstractmethod__", False)
        ),
        key=lambda cls: cls.__name__,
    )
    points: List[Tuple[Any, str, str, bool]] = [
        (InteractiveSession, "__init__", "interactive.session", False),
        (InteractiveSession, "advance", "interactive.session", False),
        (InteractiveSession, "should_halt", "interactive.halt", False),
    ]
    points += [(cls, "propose", "interactive.strategies", False) for cls in strategies]
    points += [
        (SimulatedUser, attribute, "interactive.oracle", False)
        for attribute in ("label", "wants_zoom", "validate_path", "satisfied_with")
    ]
    points += [
        (NeighborhoodIndex, "neighborhood", "graph.neighborhood", False),
        (NeighborhoodIndex, "eccentricity_bound", "graph.neighborhood", False),
        (session_module, "candidate_prefix_tree", "learning.path_selection", False),
        (session_module, "propagate_to_fixpoint", "learning.propagation", False),
        (SessionClassifier, "__init__", "learning.informativeness", False),
        (SessionClassifier, "refresh", "learning.informativeness", False),
        (PathQueryLearner, "learn", "learning.learner", False),
        (PathQueryLearner, "select_sample_words", "learning.learner.select_words", False),
        (learner_module, "generalize_pta", "automata.state_merging", False),
        (CompatibilityOracle, "compatible", "learning.language_index.compatibility", True),
        (PathQuery, "from_dfa", "automata.canonical", False),
        (learner_module, "check_consistency", "learning.consistency", False),
        (QueryEngine, "evaluate_many", "query.engine", False),
        (GraphWorkspace, "language_index", "serving.workspace.language_index", False),
        (GraphWorkspace, "refresh", "serving.workspace.refresh", False),
        (LabeledGraph, "apply_delta", "graph.labeled_graph.apply_delta", False),
        (SessionManager, "admit", "serving.manager", False),
    ]
    return points


#: layers every workload exercises: reported as calls and self ms per pass
SESSION_LAYERS: Tuple[str, ...] = (
    "interactive.session",
    "interactive.strategies",
    "interactive.halt",
    "interactive.oracle",
    "graph.neighborhood",
    "learning.path_selection",
    "learning.propagation",
    "learning.informativeness",
    "learning.learner",
    "learning.learner.select_words",
    "automata.state_merging",
    "learning.language_index.compatibility",
    "automata.canonical",
    "learning.consistency",
    "query.engine",
    "serving.workspace.language_index",
)

#: layers only one workload exercises: reported as calls and as a share of
#: measured time, so no workload reports a time that is always zero
WORKLOAD_LAYERS: Tuple[str, ...] = (
    "graph.labeled_graph.apply_delta",
    "serving.workspace.refresh",
    "serving.manager",
)
