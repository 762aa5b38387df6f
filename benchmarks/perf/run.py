"""Closed-loop benchmark of the interactive path-query loop.

One run measures one workload in this process and prints its metrics;
the last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``::

    python3 benchmarks/perf/run.py --workload catalog-sequential --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones (the tracing overhead is the difference), and writes the
recorded spans as JSONL under ``benchmarks/results/perf/``.

Without ``--workload`` (or with ``--workload all``) every workload runs,
each in a fresh interpreter so that process-wide caches cannot carry
warm state from one workload into the next.  ``--repeat N`` runs each
selected workload N times with seeds ``seed .. seed+N-1`` and reports
each metric's median and interquartile spread against its bound in
``BENCHMARK.json``.  See ``benchmarks/perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPAN_DIR = ROOT / "benchmarks" / "results" / "perf"
WORKLOAD_NAMES = ("catalog-sequential", "large-cold", "churn-stream", "serving-fleet")

#: set-ups per run; ``setup_s`` is their median
SETUPS = 5
#: a child run that has not finished after this long is killed
CHILD_TIMEOUT_SECONDS = 900


class ProgramMissing(RuntimeError):
    """The program under test is not in this checkout."""


def import_program() -> None:
    """Put ``src/`` first on the path and import the program from there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"the program is missing: no {SRC / 'repro' / '__init__.py'}")
    sys.path.insert(0, str(SRC))
    import repro

    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise ProgramMissing(f"imported repro from {location}, not from {SRC}")


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: int, trace: bool) -> Tuple[dict, List[str]]:
    """Measure one workload; returns the result object and report lines."""
    import resource

    from measure import (
        AdvanceTimer,
        BenchmarkError,
        PassRecord,
        clock,
        end_to_end_metrics,
        latency_ms,
        line_counts,
        median_pass,
        per_layer_metrics,
    )
    from tracer import Patcher, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    setup_times = []
    for _ in range(SETUPS):
        clock.refill()
        started = clock()
        inputs = workload.setup(seed)
        state = workload.prepare(inputs)
        setup_times.append(clock() - started)
    setup_seconds = statistics.median(setup_times)

    timer = AdvanceTimer()
    passes: List[PassRecord] = []
    with Patcher() as patcher:
        timer.install(patcher)
        started = time.perf_counter()  # the budget is wall time
        while True:
            traced = trace and len(passes) % 2 == 1
            if passes:
                state = workload.prepare(inputs)
            rec = PassRecord(checked=not passes, tracer=Tracer(clock=clock) if traced else None)
            timer.record = rec
            clock.refill()
            if traced:
                with Patcher() as trace_patches:
                    rec.tracer.instrument(trace_patches)
                    workload.run_pass(inputs, state, rec)
            else:
                workload.run_pass(inputs, state, rec)
            state = None
            passes.append(rec)
            elapsed = time.perf_counter() - started
            if trace and len(passes) < 2:
                continue  # a traced run needs one untraced and one traced pass
            if elapsed + elapsed / len(passes) > seconds:
                break

    reference = passes[0]
    failures = [failure for rec in passes for failure in rec.failures]
    for index, rec in enumerate(passes[1:], start=2):
        if rec.outcomes != reference.outcomes:
            diverged = sum(
                1 for ours, theirs in zip(rec.outcomes, reference.outcomes) if ours != theirs
            ) + abs(len(rec.outcomes) - len(reference.outcomes))
            failures.extend([f"pass {index} diverged from pass 1"] * diverged)
    attempted = sum(rec.attempted for rec in passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    lines = [
        f"{name}  seed={seed}  trace={int(trace)}  passes={len(passes)}  "
        f"measured={sum(rec.measured for rec in passes):.2f}s",
        f"  per pass: {reference.sessions} sessions, {len(reference.interactions)} interactions"
        + (f", {len(reference.ticks)} ticks" if reference.ticks else ""),
    ]
    metrics: Dict[str, Tuple[float, str]] = {}
    measured = [rec for rec in passes if rec.traced == trace]
    middle = median_pass(measured)
    try:
        if trace:
            untraced = [rec for rec in passes if not rec.traced]
            metrics = per_layer_metrics(measured, untraced, line_counts(ROOT))
            span_file = write_spans(middle.tracer, name, seed)
            lines.append(
                f"  spans of the median traced pass: {len(middle.tracer.spans)} kept, "
                f"{middle.tracer.dropped} dropped -> {span_file}"
            )
        else:
            metrics = end_to_end_metrics(passes, setup_seconds, peak_rss_mb)
        if reference.ticks:
            lines.append(
                f"  tick_p50_ms {latency_ms(measured, 'ticks', 50):.4f}"
                f"  tick_p90_ms {latency_ms(measured, 'ticks', 90):.4f}"
                f"  (n={len(reference.ticks)} per pass)"
            )
    except BenchmarkError as error:
        failures.append(str(error))
    lines.append(
        "  measured seconds per pass: " + " ".join(f"{rec.measured:.3f}" for rec in measured)
        + "  (at the reference speed; each metric is its median over these passes)"
    )
    sample_counts = {
        "interaction_p50_ms": len(reference.interactions),
        "interaction_p90_ms": len(reference.interactions),
        "first_question_p50_ms": len(reference.first_questions),
    }
    for metric, (value, unit) in metrics.items():
        suffix = f"  (n={sample_counts[metric]} per pass)" if metric in sample_counts else ""
        lines.append(f"  {metric:<52} {value:>14.6g} {unit}{suffix}")
    lines.append(
        f"  error_rate {len(failures) / attempted:.6g} ({len(failures)}/{attempted} operations failed)"
    )
    lines.extend(f"  FAILED: {failure}" for failure in failures[:20])
    lines.append(f"trace_digest {reference.digest()}")
    result = {
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }
    return result, lines


def write_spans(tracer, name: str, seed: int) -> Path:
    """Dump the kept spans as JSONL: a header line, then one span per line."""
    SPAN_DIR.mkdir(parents=True, exist_ok=True)
    path = SPAN_DIR / f"{name}-seed{seed}.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        header = {
            "workload": name,
            "seed": seed,
            "spans_kept": len(tracer.spans),
            "spans_dropped": tracer.dropped,
            "fields": ["id", "name", "start", "end", "parent", "request"],
        }
        handle.write(json.dumps(header) + "\n")
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    return path


# ----------------------------------------------------------------------
# several workloads or repeats, one child interpreter per run
# ----------------------------------------------------------------------
def run_child(name: str, seed: int, seconds: int, trace: bool) -> Tuple[Optional[dict], str]:
    """Run one workload in a fresh interpreter; returns (result, its output)."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
    ]
    completed = subprocess.run(
        command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=CHILD_TIMEOUT_SECONDS, check=False,
    )
    output = completed.stdout.rstrip("\n")
    last = output.splitlines()[-1] if output else ""
    try:
        result = json.loads(last)
    except ValueError:
        return None, output
    return result, output


def run_all(names: Sequence[str], seed: int, seconds: int, trace: bool) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, output = run_child(name, seed, seconds, trace)
        print("\n".join(output.splitlines()[:-1] if result is not None else output.splitlines()))
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def load_bounds() -> Dict[str, float]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {entry["name"]: entry["bound"] for entry in spec.get("end_to_end", [])}


def repeat(names: Sequence[str], seed: int, seconds: int, trace: bool, count: int) -> int:
    """Run every workload ``count`` times and report each metric's spread.

    The spread is the interquartile range over the median, computed as
    ``statistics.quantiles(values, n=4)`` gives the quartiles.  A metric
    whose spread exceeds its bound is flagged (``setup_s`` is reported
    but never flagged: its bound guards the median, not the spread).
    """
    bounds = {} if trace else load_bounds()
    summary: Dict[str, dict] = {}
    healthy = True
    for name in names:
        runs = []
        for offset in range(count):
            result, output = run_child(name, seed + offset, seconds, trace)
            digest = next(
                (line.split()[1] for line in output.splitlines() if line.startswith("trace_digest ")),
                None,
            )
            if result is None or not result["correct"]:
                healthy = False
                print(output)
            if result is not None:
                runs.append((seed + offset, result, digest))
        print(f"{name}: {len(runs)} runs, seeds {seed}..{seed + count - 1}")
        values_of: Dict[str, List[float]] = {}
        unit_of: Dict[str, str] = {}
        for _seed, result, _digest in runs:
            for metric, entry in result["metrics"].items():
                values_of.setdefault(metric, []).append(entry["value"])
                unit_of[metric] = entry["unit"]
        table = {}
        for metric in sorted(values_of):
            values, unit = values_of[metric], unit_of[metric]
            median = statistics.median(values)
            if len(values) >= 2:
                first, _middle, third = statistics.quantiles(values, n=4)
                spread = (third - first) / median if median else 0.0
            else:
                spread = 0.0
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s":
                flag = "  OVER BOUND" if spread > bound else ("  over a third" if spread > bound / 3 else "")
                healthy = healthy and spread <= bound
            print(
                f"  {metric:<52} median {median:>12.6g} {unit:<6} spread {spread:7.2%}"
                + (f"  bound {bound:.0%}" if bound is not None else "")
                + flag
            )
            table[metric] = {"median": median, "spread": spread, "values": values}
        summary[name] = {"metrics": table, "digests": {str(s): d for s, _r, d in runs}}
    print(json.dumps(summary))
    return 0 if healthy else 1


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="workload seed; every input derives from it")
    parser.add_argument("--seconds", type=int, default=20, help="measurement budget of one run")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1), help="1: per-layer metrics")
    parser.add_argument("--repeat", type=int, default=0, help="run each workload N times, report spreads")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.repeat < 0:
        parser.error("--repeat must not be negative")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except (ProgramMissing, ImportError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    if args.repeat:
        return repeat(names, args.seed, args.seconds, trace, args.repeat)
    if args.workload == "all":
        return run_all(names, args.seed, args.seconds, trace)
    result, lines = run_workload(args.workload, args.seed, args.seconds, trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
