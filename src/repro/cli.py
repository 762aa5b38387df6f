"""Command-line interface to the GPS reproduction.

Four sub-commands cover the typical workflows without writing Python::

    python -m repro.cli evaluate --graph city.json --query "(tram + bus)* . cinema"
    python -m repro.cli learn    --graph city.json --positive N2 N6 --negative N5
    python -m repro.cli simulate --dataset figure-1 --goal "(tram + bus)* . cinema"
    python -m repro.cli figures
    python -m repro.cli datasets
    python -m repro.cli bench --suite quick --workers 4
    python -m repro.cli lint src/repro --format json

* ``evaluate`` — run a path query on a graph (JSON or TSV edge list) and
  print the selected nodes (optionally with a witness path each);
* ``learn`` — one-shot learning from explicit positive / negative nodes;
* ``simulate`` — run the full interactive loop with a simulated user whose
  goal query is given, and print the session transcript;
* ``figures`` — regenerate the paper's figures;
* ``datasets`` — list the built-in dataset generators with their statistics;
* ``bench`` — run the E1–E5 experiment suite through the deterministic,
  parallel, resumable runner; results stream into a JSONL result store
  under ``--results-dir`` and interrupted runs resume automatically;
* ``chaos`` — smoke-test the reliability layer: drive a fleet of
  sessions under seeded fault injection and verify that every session
  terminates, that the chaos run replays bit-identically under the same
  seed, and that disabling faults reproduces the fault-free traces;
* ``lint`` — run the project's invariant checker (``repro.devtools``)
  over source trees; exits non-zero on any unsuppressed diagnostic.

The CLI is intentionally thin: every sub-command maps onto one documented
library call, so scripting against the library directly is always an
option.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.exceptions import GPSError
from repro.graph import io as graph_io
from repro.graph.datasets import dataset_catalog, list_datasets
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.statistics import compute_statistics
from repro.interactive.oracle import SimulatedUser
from repro.interactive.session import InteractiveSession
from repro.interactive.strategies import STRATEGY_REGISTRY, make_strategy
from repro.interactive.transcript import record_session
from repro.learning.learner import learn_query
from repro.query.evaluation import witness_path
from repro.query.rpq import PathQuery
from repro.serving.workspace import default_workspace


def _load_graph(path: Optional[str], dataset: Optional[str]) -> LabeledGraph:
    """Load a graph from ``--graph`` (JSON / TSV by extension) or ``--dataset``."""
    if (path is None) == (dataset is None):
        raise SystemExit("exactly one of --graph and --dataset is required")
    if dataset is not None:
        catalog = dataset_catalog()
        if dataset not in catalog:
            raise SystemExit(f"unknown dataset {dataset!r}; available: {', '.join(list_datasets())}")
        return catalog[dataset]
    file_path = Path(path)
    if not file_path.exists():
        raise SystemExit(f"graph file not found: {file_path}")
    if file_path.suffix.lower() == ".json":
        return graph_io.load_json(file_path)
    return graph_io.load_edge_list(file_path)


def _positive_int(text: str) -> int:
    """Argparse type of a path-length bound: an int of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return int(text)


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", help="path to a graph file (.json or tab-separated edge list)")
    parser.add_argument(
        "--dataset", help=f"name of a built-in dataset ({', '.join(list_datasets())})"
    )


def _cmd_evaluate(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph, args.dataset)
    query = PathQuery(args.query)
    answer = sorted(default_workspace().engine.evaluate(graph, query), key=str)
    print(f"query   : {query}")
    print(f"answer  : {len(answer)} node(s)")
    for node in answer:
        if args.witness:
            print(f"  {node}  via {witness_path(graph, query, node)}")
        else:
            print(f"  {node}")
    return 0


def _cmd_learn(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph, args.dataset)
    positive = {node: None for node in args.positive}
    learned = learn_query(
        graph,
        positive=positive,
        negative=list(args.negative),
        max_path_length=args.max_path_length,
    )
    answer = sorted(default_workspace().engine.evaluate(graph, learned), key=str)
    print(f"learned query : {learned}")
    print(f"selects       : {', '.join(str(node) for node in answer) or '(nothing)'}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph, args.dataset)
    user = SimulatedUser(graph, args.goal)
    strategy = make_strategy(args.strategy, seed=args.seed, max_path_length=args.max_path_length)
    session = InteractiveSession(
        graph,
        user,
        strategy=strategy,
        path_validation=not args.no_validation,
        max_path_length=args.max_path_length,
        max_interactions=args.max_interactions,
    )
    result = session.run()
    print(f"goal query      : {args.goal}")
    print(f"strategy        : {args.strategy}")
    print(f"interactions    : {result.interactions}")
    print(f"halted by       : {result.halted_by}")
    print(f"learned query   : {result.learned_query}")
    learned_answer = (
        sorted(default_workspace().engine.evaluate(graph, result.learned_query), key=str)
        if result.learned_query
        else []
    )
    print(f"learned answer  : {', '.join(str(node) for node in learned_answer) or '(nothing)'}")
    print(f"goal answer     : {', '.join(str(node) for node in sorted(user.goal_answer, key=str))}")
    print("transcript:")
    for record in result.records:
        validated = ".".join(record.validated_word) if record.validated_word else "-"
        print(
            f"  #{record.index} {record.node} -> {'+' if record.positive else '-'}"
            f" (zooms={record.zooms}, validated={validated})"
        )
    if args.save_transcript:
        transcript = record_session(result, graph_name=graph.name)
        transcript.save(args.save_transcript)
        print(f"transcript saved to {args.save_transcript}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.figures import all_figures

    for name, rendering in all_figures().items():
        print(f"===== {name} =====")
        print(rendering)
        print()
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    for name, graph in dataset_catalog().items():
        stats = compute_statistics(graph).as_dict()
        print(f"{name:16s} {stats}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.runner import DEFAULT_EXPERIMENTS, ExperimentRunner, ResultStore

    experiments = list(args.experiments if args.experiments else DEFAULT_EXPERIMENTS)
    if args.churn and "churn" not in experiments:
        experiments.append("churn")
    runner = ExperimentRunner(
        suite=args.suite,
        experiments=experiments,
        datasets=args.datasets,
        seed=args.seed,
        per_family=args.per_family,
        workers=args.workers,
    )
    run_name = args.run or f"{args.suite}-{runner.plan_id[:8]}"
    store_dir = Path(args.results_dir) / run_name
    runner.store = ResultStore(store_dir)

    def progress(unit, record, done, total):
        if args.verbose:
            print(f"[{done}/{total}] {unit.label} ({record['seconds']}s)")

    result = runner.run(fresh=args.fresh, progress=progress)
    print(f"run       : {run_name} (plan {runner.plan_id})")
    print(f"store     : {store_dir}")
    print(
        f"units     : {len(result.units)} planned, {len(result.executed_unit_ids)} executed, "
        f"{len(result.resumed_unit_ids)} resumed from store"
    )
    print(f"workers   : {runner.workers}")
    print(f"wall time : {result.seconds}s")
    tables = result.tables
    tables_dir = store_dir / "tables"
    tables_dir.mkdir(parents=True, exist_ok=True)
    for name, table in tables.items():
        (tables_dir / f"{name}.txt").write_text(table.render() + "\n")
    print()
    for name in sorted(tables):
        if name.endswith("_detail") and not args.detail:
            continue
        print(tables[name].render())
        print()
    latency = _latency_report(result)
    if latency:
        import json as _json

        (store_dir / "latency.json").write_text(_json.dumps(latency, indent=2, sort_keys=True))
        print("per-interaction latency percentiles, worst cell per group (seconds):")
        for group, summary in sorted(latency.items()):
            print(
                f"  {group:28s} worst_p50={summary['worst_p50_seconds']:.4f} "
                f"worst_p95={summary['worst_p95_seconds']:.4f} "
                f"worst_max={summary['worst_max_seconds']:.4f} (rows={summary['rows']})"
            )
        print(f"latency summary written to {store_dir / 'latency.json'}")
        print()
    print(f"tables written to {tables_dir}")
    return 0


def _chaos_fleet(args: argparse.Namespace, *, rate: float) -> dict:
    """Drive one fleet of supervised sessions; returns traces + counters.

    Each session gets its *own* injector seeded from ``(seed, index)``,
    so its fault schedule is independent of how the event loop
    interleaves sessions — the property the replay check relies on.
    """
    from repro.interactive.oracle import UnreliableUser
    from repro.reliability import FaultInjector, FaultPlan, RetryPolicy, SupervisionPolicy
    from repro.serving.manager import SessionManager
    from repro.serving.workspace import GraphWorkspace

    graph = dataset_catalog(seed=args.seed).get(args.dataset)
    if graph is None:
        raise SystemExit(
            f"unknown dataset {args.dataset!r}; available: {', '.join(list_datasets())}"
        )
    supervision = SupervisionPolicy(
        retry=RetryPolicy(max_attempts=args.max_attempts, backoff_base=0.0001),
        breaker_consecutive_limit=args.breaker_limit,
        jitter_seed=args.seed,
    )
    manager = SessionManager(
        GraphWorkspace(), dedup=False, supervision=supervision if rate > 0.0 else None
    )
    users = []
    for index in range(args.sessions):
        user = SimulatedUser(graph, args.goal)
        if rate > 0.0:
            plan = FaultPlan(args.seed + index, default_rate=rate)
            user = UnreliableUser(user, FaultInjector(plan))
        users.append(user)
        manager.admit(graph, user, max_interactions=args.max_interactions)
    results = manager.run_all()
    traces = {
        session_id: (
            str(result.learned_query),
            [(str(record.node), record.positive) for record in result.records],
            result.halted_by,
            result.quarantined,
        )
        for session_id, result in sorted(results.items())
    }
    stats = manager.stats()
    return {
        "traces": traces,
        "completed": stats["completed"],
        "quarantined": stats["quarantined"],
        "step_retries": stats["step_retries"],
        "injected_failures": sum(
            getattr(user, "injected_failures", 0) for user in users
        ),
    }


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json as _json

    baseline = _chaos_fleet(args, rate=0.0)
    chaos_a = _chaos_fleet(args, rate=args.rate)
    chaos_b = _chaos_fleet(args, rate=args.rate)
    disabled = _chaos_fleet(args, rate=0.0)

    checks = {
        # every session terminated (retired or quarantined; none hung):
        # run_all returning with a result per admitted session is the proof
        "all_terminated": len(chaos_a["traces"]) == args.sessions
        and chaos_a["completed"] == args.sessions,
        # same seed, same fleet -> bit-identical run including quarantines
        "replay_identical": chaos_a["traces"] == chaos_b["traces"],
        # faults disabled -> the supervised machinery is invisible
        "disabled_identical": disabled["traces"] == baseline["traces"],
        "faults_fired": chaos_a["injected_failures"] > 0 or args.rate == 0.0,
    }
    report = {
        "sessions": args.sessions,
        "rate": args.rate,
        "seed": args.seed,
        "dataset": args.dataset,
        "goal": args.goal,
        "quarantined": chaos_a["quarantined"],
        "step_retries": chaos_a["step_retries"],
        "injected_failures": chaos_a["injected_failures"],
        "checks": checks,
        "ok": all(checks.values()),
    }
    print(f"sessions          : {args.sessions} at {args.rate:.0%} fault rate (seed {args.seed})")
    print(f"quarantined       : {report['quarantined']}")
    print(f"step retries      : {report['step_retries']}")
    print(f"injected failures : {report['injected_failures']}")
    for name, passed in checks.items():
        print(f"check {name:18s}: {'ok' if passed else 'FAILED'}")
    if args.json_output:
        Path(args.json_output).write_text(_json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"report written to {args.json_output}")
    return 0 if report["ok"] else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools import (
        error_count,
        lint_paths,
        project_config,
        render_json,
        render_text,
    )

    config = project_config()
    if args.select:
        config.select = tuple(
            code.strip() for item in args.select for code in item.split(",") if code.strip()
        )
    paths = list(args.paths)
    if args.include_tests and not any(
        str(path).rstrip("/").endswith("tests") for path in paths
    ):
        paths.append("tests")
    diagnostics = lint_paths(paths, config=config)
    report = render_json(diagnostics)
    if args.output:
        Path(args.output).write_text(report + "\n")
    if args.format == "json":
        print(report)
    else:
        print(render_text(diagnostics))
    return 1 if error_count(diagnostics) else 0


def _latency_report(result) -> dict:
    """Aggregate per-interaction latency percentile columns per experiment group.

    Any row carrying ``p50_seconds`` (E1 strategy cells, E3 graph sizes)
    contributes.  Aggregation over a group's cells is worst-case (max of
    each percentile across rows) so a latency regression in *any* cell is
    visible in the ``latency.json`` artifact CI uploads; the ``worst_``
    key prefix makes that explicit — these are not percentiles of the
    pooled sample.
    """
    grouped: dict = {}
    for experiment in ("e1", "e3"):
        for row in result.rows(experiment):
            if "p50_seconds" not in row:
                continue
            if experiment == "e1":
                group = f"e1 [{row.get('strategy', '?')}]"
            else:
                group = f"e3 nodes={row.get('nodes', '?')}"
            summary = grouped.setdefault(
                group,
                {
                    "worst_p50_seconds": 0.0,
                    "worst_p95_seconds": 0.0,
                    "worst_max_seconds": 0.0,
                    "rows": 0,
                },
            )
            summary["worst_p50_seconds"] = max(
                summary["worst_p50_seconds"], float(row["p50_seconds"])
            )
            summary["worst_p95_seconds"] = max(
                summary["worst_p95_seconds"], float(row["p95_seconds"])
            )
            summary["worst_max_seconds"] = max(
                summary["worst_max_seconds"], float(row.get("max_seconds", 0.0))
            )
            summary["rows"] += 1
    return grouped


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GPS — interactive path query specification on graph databases",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    evaluate_parser = subparsers.add_parser("evaluate", help="evaluate a path query on a graph")
    _add_graph_arguments(evaluate_parser)
    evaluate_parser.add_argument("--query", required=True, help="regular path query, e.g. '(tram + bus)* . cinema'")
    evaluate_parser.add_argument("--witness", action="store_true", help="also print a witness path per selected node")
    evaluate_parser.set_defaults(handler=_cmd_evaluate)

    learn_parser = subparsers.add_parser("learn", help="learn a query from node examples")
    _add_graph_arguments(learn_parser)
    learn_parser.add_argument("--positive", nargs="+", required=True, help="positive example nodes")
    learn_parser.add_argument("--negative", nargs="*", default=[], help="negative example nodes")
    learn_parser.add_argument("--max-path-length", type=_positive_int, default=6)
    learn_parser.set_defaults(handler=_cmd_learn)

    simulate_parser = subparsers.add_parser(
        "simulate", help="run the interactive loop with a simulated user"
    )
    _add_graph_arguments(simulate_parser)
    simulate_parser.add_argument("--goal", required=True, help="the simulated user's goal query")
    simulate_parser.add_argument(
        "--strategy", default="most-informative", choices=sorted(STRATEGY_REGISTRY)
    )
    simulate_parser.add_argument("--no-validation", action="store_true", help="disable path validation")
    simulate_parser.add_argument("--max-interactions", type=int, default=50)
    simulate_parser.add_argument("--max-path-length", type=_positive_int, default=6)
    simulate_parser.add_argument("--seed", type=int, default=None)
    simulate_parser.add_argument("--save-transcript", help="write the session transcript to this JSON file")
    simulate_parser.set_defaults(handler=_cmd_simulate)

    figures_parser = subparsers.add_parser("figures", help="regenerate the paper's figures")
    figures_parser.set_defaults(handler=_cmd_figures)

    datasets_parser = subparsers.add_parser("datasets", help="list the built-in datasets")
    datasets_parser.set_defaults(handler=_cmd_datasets)

    from repro.experiments.runner import DEFAULT_EXPERIMENTS, EXPERIMENTS

    bench_parser = subparsers.add_parser(
        "bench",
        help="run the experiment suite through the parallel, resumable runner",
    )
    bench_parser.add_argument("--suite", choices=("quick", "standard"), default="quick")
    bench_parser.add_argument(
        "--experiments", nargs="+", choices=EXPERIMENTS, default=None,
        help="subset of experiments to run (default: all but the churn family)",
    )
    bench_parser.add_argument(
        "--churn", action="store_true",
        help="include the streaming churn family (sliding-window edge streams)",
    )
    bench_parser.add_argument(
        "--datasets", nargs="+", default=None,
        help=f"restrict workload cases to these datasets ({', '.join(list_datasets())})",
    )
    bench_parser.add_argument("--workers", type=int, default=1, help="process-pool size (1 = inline)")
    bench_parser.add_argument("--seed", type=int, default=11, help="base seed for suites and units")
    bench_parser.add_argument(
        "--per-family", type=int, default=2, help="goal queries per family (standard suite)"
    )
    bench_parser.add_argument(
        "--run", default=None,
        help="result-store name under --results-dir (default: <suite>-<plan hash>)",
    )
    bench_parser.add_argument(
        "--results-dir", default="benchmarks/results",
        help="root directory for JSONL result stores",
    )
    bench_parser.add_argument(
        "--fresh", action="store_true",
        help="clear the result store first instead of resuming completed units",
    )
    bench_parser.add_argument("--detail", action="store_true", help="also print the detail tables")
    bench_parser.add_argument("--verbose", action="store_true", help="print one line per executed unit")
    bench_parser.set_defaults(handler=_cmd_bench)

    chaos_parser = subparsers.add_parser(
        "chaos",
        help="smoke-test fault injection + supervision on a session fleet",
    )
    chaos_parser.add_argument("--sessions", type=int, default=16, help="fleet size")
    chaos_parser.add_argument(
        "--rate", type=float, default=0.05, help="injected fault probability per oracle call"
    )
    chaos_parser.add_argument("--seed", type=int, default=20150323, help="base fault-plan seed")
    chaos_parser.add_argument("--dataset", default="figure-1", help="dataset the fleet learns on")
    chaos_parser.add_argument(
        "--goal", default="(tram + bus)* . cinema", help="the simulated users' goal query"
    )
    chaos_parser.add_argument("--max-interactions", type=int, default=15)
    chaos_parser.add_argument(
        "--max-attempts", type=int, default=6, help="retry budget per session step"
    )
    chaos_parser.add_argument(
        "--breaker-limit", type=int, default=10, help="consecutive step failures before quarantine"
    )
    chaos_parser.add_argument(
        "--json-output", default=None, help="also write the JSON report to this file"
    )
    chaos_parser.set_defaults(handler=_cmd_chaos)

    lint_parser = subparsers.add_parser(
        "lint",
        help="check the project's determinism/workspace/cache/lock/API invariants",
    )
    lint_parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to check (default: src/repro)",
    )
    lint_parser.add_argument("--format", choices=("text", "json"), default="text")
    lint_parser.add_argument(
        "--select", action="append", default=None, metavar="REPx00",
        help="restrict to these rule families; repeat or comma-separate (default: all)",
    )
    lint_parser.add_argument(
        "--output", default=None,
        help="also write the JSON report to this file (the CI artifact)",
    )
    lint_parser.add_argument(
        "--include-tests", action="store_true",
        help="also lint tests/ (findings there are warn-only: reported, "
        "never exit-code-failing)",
    )
    lint_parser.set_defaults(handler=_cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except GPSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
