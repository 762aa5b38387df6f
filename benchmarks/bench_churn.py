"""Benchmark: streaming churn with delta-scoped cache invalidation.

The delta-journal PR claims a warm tick — apply one sliding-window edge
delta, refresh every workspace layer, re-touch the caches — beats the
pre-delta behaviour of nuking every derived structure whole.  Two
structures are still delta-maintained through the journal: the graph's
label index and the language index (with its restricted bound-2 view).
The engine's answers and the neighbourhood balls are rebuilt on every
new version.  Three gates are asserted here:

* **>= 5x warm-tick latency** against the whole-invalidation baseline.
  The baseline is the same code with the journal disabled
  (``journal_limit=0``): every refresh finds nothing to bridge and
  falls back to drop-and-rebuild, which is exactly what every mutation
  cost before the journal existed.
* **Bit-identical structures** — after every tick, the delta-maintained
  label index and language index (and its bound-2 view), and the
  rebuilt answers and neighbourhood balls, equal scratch rebuilds on the
  mutated graph.
* **Journal-overflow fallback** — a journal too small to bridge the
  accumulated ticks must degrade to the whole-drop path and still be
  correct, never serve stale state.

The measured speedup is written to ``benchmarks/results/churn_speedup.txt``.
"""

import time

from repro.graph.labeled_graph import GraphLabelIndex
from repro.graph.neighborhood import NeighborhoodIndex
from repro.graph.paths import words_from
from repro.learning.language_index import LanguageIndex
from repro.query.engine import QueryEngine
from repro.serving.workspace import GraphWorkspace
from repro.workloads.churn import ChurnStream

from conftest import write_artifact

ALPHABET = ("a", "b", "c", "d")
QUERIES = ("a", "(a + b)* . c", "b . d")
BOUND = 3
#: the path-validation bound below BOUND, served as a restriction of it
VIEW_BOUND = 2

#: the headline stream: big enough that a whole rebuild dwarfs the cone
NODE_COUNT = 1600
WINDOW = 4000
CHURN = 2
TICKS = 12
TRIALS = 2

#: acceptance floor for warm-tick latency vs the nuke-everything baseline
SPEEDUP_FLOOR = 5.0


def _stream(**overrides) -> ChurnStream:
    params = dict(
        node_count=NODE_COUNT,
        alphabet=ALPHABET,
        window=WINDOW,
        churn=CHURN,
        tick_count=TICKS,
        seed=19,
        name="bench-churn",
    )
    params.update(overrides)
    return ChurnStream(**params)


def _touch_layers(workspace: GraphWorkspace, graph, center) -> None:
    """One warm interaction: every cache layer is consulted once."""
    workspace.language_index(graph, BOUND)
    for query in QUERIES:
        workspace.engine.evaluate(graph, query)
    workspace.neighborhoods(graph).neighborhood(center, 2)


def _run_ticks(stream: ChurnStream, *, journal_limit=None) -> float:
    """Total warm-tick seconds over the stream (one workspace, one graph)."""
    graph = stream.initial_graph(journal_limit=journal_limit)
    workspace = GraphWorkspace()
    center = stream.nodes[0]
    _touch_layers(workspace, graph, center)  # cold builds are not measured
    total = 0.0
    for tick in stream.ticks():
        started = time.perf_counter()
        tick.apply(graph)
        workspace.refresh(graph)
        _touch_layers(workspace, graph, center)
        total += time.perf_counter() - started
    return total


# ----------------------------------------------------------------------
# correctness gates
# ----------------------------------------------------------------------
def _assert_language_matches_scratch(workspace: GraphWorkspace, graph, bound: int) -> None:
    """The workspace's language index at ``bound`` equals a from-scratch build.

    A scratch build runs the same walk as the refresh it checks, so every
    language is also compared with the per-node reference walk.
    """
    maintained = workspace.language_index(graph, bound)
    scratch = LanguageIndex(graph, bound)
    assert maintained.version == graph.version
    for node in scratch.nodes:
        language = maintained.decode(maintained.language(node))
        assert language == scratch.decode(
            scratch.language(node)
        ), f"bound-{bound} language of {node!r} diverged from scratch"
        assert language == words_from(
            graph, node, bound
        ), f"bound-{bound} language of {node!r} diverged from words_from"


def _assert_matches_scratch(workspace: GraphWorkspace, graph, centers) -> None:
    """Every structure a warm tick touches equals a from-scratch rebuild."""
    _assert_language_matches_scratch(workspace, graph, BOUND)

    label_index = graph.label_index()
    fresh_label_index = GraphLabelIndex(graph)
    assert label_index._rev == fresh_label_index._rev

    cold = QueryEngine()
    for query in QUERIES:
        assert workspace.engine.evaluate(graph, query) == cold.evaluate(graph, query)

    neighborhoods = workspace.neighborhoods(graph)
    fresh_neighborhoods = NeighborhoodIndex(graph)
    for center in centers:
        kept = neighborhoods.neighborhood(center, 2)
        fresh = fresh_neighborhoods.neighborhood(center, 2)
        assert kept.nodes == fresh.nodes
        assert kept.distances == fresh.distances


def test_delta_refreshed_structures_bit_identical_to_scratch():
    stream = _stream(node_count=60, window=150, churn=3, tick_count=8)
    graph = stream.initial_graph()
    workspace = GraphWorkspace()
    centers = stream.nodes[:4]
    _touch_layers(workspace, graph, centers[0])
    workspace.language_index(graph, VIEW_BOUND)
    delta_refreshes = 0
    for tick in stream.ticks():
        tick.apply(graph)
        counters = workspace.refresh(graph)
        delta_refreshes += counters["language_indexes_refreshed"]
        _assert_language_matches_scratch(workspace, graph, VIEW_BOUND)
        _assert_matches_scratch(workspace, graph, centers)
    # the equality must have been exercised on the delta path, not on
    # rebuilds that happen to be trivially equal to themselves
    assert delta_refreshes > 0


def test_journal_overflow_falls_back_whole_drop_and_stays_correct():
    stream = _stream(node_count=60, window=150, churn=3, tick_count=8)
    graph = stream.initial_graph(journal_limit=2)
    workspace = GraphWorkspace()
    centers = stream.nodes[:4]
    _touch_layers(workspace, graph, centers[0])
    # accumulate more ticks than the journal window can bridge ...
    for tick in stream.ticks():
        tick.apply(graph)
    assert graph.deltas_since(graph.version - stream.tick_count) is None
    # ... so the refresh must take the whole-drop path, not serve stale state
    counters = workspace.refresh(graph)
    assert counters["language_indexes_refreshed"] == 0
    assert counters["language_indexes_dropped"] == 1
    assert counters["answers_dropped"] == len(QUERIES)
    _assert_matches_scratch(workspace, graph, centers)


# ----------------------------------------------------------------------
# the 5x gate
# ----------------------------------------------------------------------
def test_warm_tick_speedup_over_whole_invalidation(results_dir):
    stream = _stream()
    delta_seconds = baseline_seconds = float("inf")
    # best-of-N on both sides: a scheduler stall on a shared CI runner
    # inflates one trial, not the minimum
    for _ in range(TRIALS):
        delta_seconds = min(delta_seconds, _run_ticks(stream))
    for _ in range(TRIALS):
        baseline_seconds = min(baseline_seconds, _run_ticks(stream, journal_limit=0))

    speedup = baseline_seconds / delta_seconds
    write_artifact(
        results_dir,
        "churn_speedup.txt",
        f"nodes={NODE_COUNT} window={WINDOW} churn={CHURN} ticks={TICKS} "
        f"delta={delta_seconds / TICKS * 1000:.2f}ms/tick "
        f"baseline={baseline_seconds / TICKS * 1000:.2f}ms/tick "
        f"speedup={speedup:.1f}x",
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm ticks only {speedup:.1f}x faster than whole invalidation"
    )


# ----------------------------------------------------------------------
# pytest-benchmark timings (recorded in BENCH_churn.json)
# ----------------------------------------------------------------------
def test_churn_delta_ticks(benchmark):
    stream = _stream()
    total = benchmark.pedantic(lambda: _run_ticks(stream), rounds=2)
    assert total > 0.0


def test_churn_whole_invalidation_reference(benchmark):
    stream = _stream()
    total = benchmark.pedantic(lambda: _run_ticks(stream, journal_limit=0), rounds=1)
    assert total > 0.0
