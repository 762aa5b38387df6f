"""Deterministic, parallel, resumable experiment runner.

:class:`ExperimentRunner` is the one way an experiment runs: ``repro
bench``, the ``bench_e*`` scripts and the examples all go through it.
It drives the per-unit row functions of :mod:`repro.experiments.harness`
without giving up reproducibility:

* :func:`build_plan` expands a workload suite (E1–E5, the Section 3
  scenario comparison and the opt-in churn family) into a flat list of
  self-describing :class:`RunUnit` objects.  A unit carries nothing but
  plain, JSON-serialisable parameters (dataset *name*, goal
  *expression*, strategy, budgets, derived seed), so its identity is a
  content hash of those parameters — the same configuration always
  yields the same ``unit_id``, across processes, machines and
  ``PYTHONHASHSEED`` values.  Every budget is written once, in the
  ``*_DEFAULTS`` below.
* :class:`ExperimentRunner` executes the units, either inline
  (``workers=1``) or fanned out over a
  :class:`~concurrent.futures.ProcessPoolExecutor`.  Every unit derives
  its own deterministic seed from the base seed and its descriptor
  (:func:`derive_unit_seed`), so execution order and process placement
  cannot change any row: a 4-worker run produces row-for-row identical
  results to a serial run.
* A :class:`ResultStore` (directory with ``manifest.json`` +
  ``rows.jsonl``) streams finished units to disk as they complete.  An
  interrupted run resumes by loading the store and skipping every unit
  id that already has a row record; a truncated trailing line (the
  write the interruption cut short) is ignored.  The manifest pins the
  plan id so a store can never silently mix rows from two different
  configurations.
* Finished rows merge back into :class:`~repro.experiments.metrics.ResultTable`
  detail/summary pairs (:attr:`RunResult.tables`, aggregated by
  ``SUMMARY_SPECS``), which is what ``repro bench``, the benchmark
  scripts and the examples print.

Timing columns (``seconds``, ``mean_seconds``, ``max_seconds``) are the
only values that legitimately differ between two runs of the same plan;
:func:`strip_timing` removes them for row-for-row comparisons.

Fault tolerance (PR 8): a worker that dies mid-unit must not sink the
campaign.  Units that fail with a *retryable* error (injected faults,
oracle failures) are resubmitted up to the runner's
:class:`~repro.reliability.RetryPolicy` budget; a unit that exhausts its
budget raises :class:`~repro.exceptions.UnitExecutionError` — and because
every *completed* unit was already streamed to the store, rerunning the
same plan resumes with zero lost rows.  Simulated crashes for chaos
testing come from an optional :class:`~repro.reliability.FaultPlan`: the
attempt number is folded into the fault site
(``runner.unit:<id>#a<attempt>``), so whether attempt *k* of a unit
crashes is deterministic even though each attempt may land in a fresh
worker process.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import zlib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import ExperimentError, RunPlanMismatchError, UnitExecutionError
from repro.experiments import harness
from repro.reliability.faults import FaultInjector, FaultPlan
from repro.reliability.policy import RetryPolicy
from repro.experiments.metrics import ResultTable, Row, fraction_true
from repro.graph.datasets import dataset_catalog, list_datasets
from repro.graph.labeled_graph import LabeledGraph
from repro.workloads.churn import CHURN_DEFAULTS as CHURN_STREAM_DEFAULTS
from repro.workloads.generator import WorkloadCase, quick_suite, standard_suite

PathLike = Union[str, Path]

#: Every experiment the runner knows how to expand, in canonical order.
EXPERIMENTS: Sequence[str] = ("e1", "e2", "e3", "e4", "e5", "scenarios", "churn")

#: The default selection: everything but the streaming churn family,
#: which is opt-in (CLI ``--churn``) so existing plan ids — and the
#: resumable stores keyed on them — are unchanged by its introduction.
DEFAULT_EXPERIMENTS: Sequence[str] = EXPERIMENTS[:-1]

#: Columns that measure wall-clock time and therefore differ run-to-run.
TIMING_COLUMNS = frozenset(
    {"seconds", "mean_seconds", "max_seconds", "p50_seconds", "p95_seconds"}
)

#: Strategies compared in E1 (ordered from least to most informed).
E1_STRATEGIES: Sequence[str] = ("random", "random-informative", "breadth", "degree", "most-informative")

#: Per-experiment unit budgets: the plan passes every one of them to
#: each unit, so this is the only place a budget is written.
E1_DEFAULTS: Dict[str, int] = {"max_interactions": 60, "max_path_length": 4}
E2_DEFAULTS: Dict[str, int] = {"max_interactions": 25, "max_path_length": 4}
E3_DEFAULTS: Dict[str, int] = {"edge_factor": 3, "alphabet_size": 4, "max_path_length": 3, "interactions": 5}
E4_DEFAULTS: Dict[str, int] = {"max_interactions": 40, "max_path_length": 4}
E5_DEFAULTS: Dict[str, int] = {"word_length": 5, "alphabet_size": 3}
SCENARIO_DEFAULTS: Dict[str, int] = {"max_interactions": 40, "max_path_length": 4}
#: The stream geometry comes from the churn workload itself.
CHURN_DEFAULTS: Dict[str, int] = dict(CHURN_STREAM_DEFAULTS, alphabet_size=4, max_path_length=3)

#: Detail-table title per experiment.
TABLE_TITLES: Dict[str, str] = {
    "e1": "E1 — interactions to reach the goal answer",
    "e2": "E2 — pruning / propagation of uninformative nodes per interaction",
    "e3": "E3 — per-interaction latency vs graph size",
    "e4": "E4 — path validation vs no validation",
    "e5": "E5 — learner cost vs sample size",
    "scenarios": "Demonstration scenarios — Section 3 comparison",
    "churn": "Churn — warm-tick refresh under sliding-window edge streams",
}

#: Group-by keys and reducers of the experiments that have a summary table.
SUMMARY_SPECS: Dict[str, Tuple[Sequence[str], Dict[str, Callable[[List[float]], float]]]] = {
    "e1": (("strategy",), {"interactions": mean, "reached": fraction_true, "f1": mean}),
    "e2": (("interaction",), {"saved_fraction": mean, "informative_remaining": mean, "propagated": mean}),
    "e4": (("variant",), {"exact_goal": fraction_true, "f1": mean, "interactions": mean}),
    "scenarios": (("scenario",), {"interactions": mean, "instance_f1": mean, "exact_goal": fraction_true}),
}

#: E3 graph sizes per suite.
E3_NODE_COUNTS: Dict[str, Sequence[int]] = {
    "quick": (100, 200, 400),
    "standard": (100, 200, 400, 800, 1600),
}

#: E5 sample sizes (same for both suites).
E5_SAMPLE_SIZES: Sequence[int] = (5, 10, 20, 40)

#: Churn graph sizes per suite (dataset-independent, like E3).
CHURN_NODE_COUNTS: Dict[str, Sequence[int]] = {
    "quick": (60, 120),
    "standard": (60, 120, 240),
}


def derive_unit_seed(base_seed: int, *parts: object) -> int:
    """A deterministic, process-independent seed for one experiment unit.

    Mixes ``base_seed`` with a CRC32 of the unit descriptor so every unit
    gets an independent stream regardless of execution order or process.
    """
    descriptor = ":".join(str(part) for part in parts)
    return (base_seed * 1_000_003 + zlib.crc32(descriptor.encode("utf-8"))) % (2**31)


def canonical_json(payload: object) -> str:
    """Canonical (sorted-keys, compact) JSON used for content hashing."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def unit_id_for(experiment: str, params: Mapping[str, object]) -> str:
    """Stable content-hash id of one unit configuration."""
    digest = hashlib.sha256(
        canonical_json({"experiment": experiment, "params": dict(params)}).encode("utf-8")
    )
    return digest.hexdigest()[:12]


def strip_timing(rows: Sequence[Row]) -> List[Row]:
    """Rows with the wall-clock columns removed, for determinism checks."""
    return [{key: value for key, value in row.items() if key not in TIMING_COLUMNS} for row in rows]


@dataclass(frozen=True)
class RunUnit:
    """One self-describing experiment unit.

    ``params`` must be plain JSON-serialisable values; the unit id is a
    content hash of ``(experiment, params)``, so two units with the same
    configuration are the same unit wherever and whenever they run.
    """

    experiment: str
    label: str
    params: Mapping[str, object]
    unit_id: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "unit_id", unit_id_for(self.experiment, self.params))

    def payload(self) -> dict:
        """The picklable work order sent to a worker process."""
        return {
            "unit_id": self.unit_id,
            "experiment": self.experiment,
            "label": self.label,
            "params": dict(self.params),
        }


# ----------------------------------------------------------------------
# Worker-side execution (module level so ProcessPoolExecutor can pickle it)
# ----------------------------------------------------------------------

#: Per-process dataset cache: workers rebuild each catalogue once.
_CATALOG_CACHE: Dict[int, Dict[str, LabeledGraph]] = {}


def _graph_for(dataset: str, suite_seed: int) -> LabeledGraph:
    catalog = _CATALOG_CACHE.get(suite_seed)
    if catalog is None:
        catalog = dataset_catalog(seed=suite_seed)
        _CATALOG_CACHE[suite_seed] = catalog
    return catalog[dataset]


#: The function that computes each experiment's unit rows.
_UNIT_FUNCTIONS: Dict[str, Callable[..., List[Row]]] = {
    "e1": harness.e1_unit_rows,
    "e2": harness.e2_unit_rows,
    "e3": harness.e3_unit_rows,
    "e4": harness.e4_unit_rows,
    "e5": harness.e5_unit_rows,
    "scenarios": harness.scenario_unit_rows,
    "churn": harness.churn_unit_rows,
}


def _unit_rows(experiment: str, params: Mapping[str, object]) -> List[Row]:
    """The rows of one unit: its unit function called with its params.

    A workload case travels as ``(suite_seed, dataset, expression)`` and
    is resolved here to ``(graph, goal)``; every other param reaches the
    unit function under its own key.
    """
    kwargs = dict(params)
    if "expression" in kwargs:
        kwargs["graph"] = _graph_for(kwargs["dataset"], kwargs.pop("suite_seed"))
        kwargs["goal"] = kwargs.pop("expression")
    return _UNIT_FUNCTIONS[experiment](**kwargs)


def execute_payload(payload: Mapping[str, object]) -> dict:
    """Execute one unit work order; returns the JSONL record for the store.

    When the payload carries a ``fault_plan``, the unit's crash site —
    ``runner.unit:<id>#a<attempt>`` — is checked *before* any rows are
    computed, simulating a worker that dies mid-unit without having
    persisted anything.  No plan (the normal case) leaves the execution
    path untouched.
    """
    started = time.perf_counter()
    fault_spec = payload.get("fault_plan")
    if fault_spec is not None:
        site = f"runner.unit:{payload['unit_id']}#a{payload.get('attempt', 1)}"
        FaultInjector(FaultPlan.from_dict(fault_spec)).check(site)
    rows = _unit_rows(payload["experiment"], payload["params"])
    return {
        "unit_id": payload["unit_id"],
        "experiment": payload["experiment"],
        "label": payload["label"],
        "rows": rows,
        "seconds": round(time.perf_counter() - started, 4),
    }


# ----------------------------------------------------------------------
# Plan expansion
# ----------------------------------------------------------------------
def build_plan(
    *,
    suite: str = "quick",
    experiments: Sequence[str] = DEFAULT_EXPERIMENTS,
    datasets: Optional[Sequence[str]] = None,
    seed: int = 11,
    per_family: int = 2,
    e1_strategies: Sequence[str] = E1_STRATEGIES,
    e3_node_counts: Optional[Sequence[int]] = None,
    e5_sample_sizes: Sequence[int] = E5_SAMPLE_SIZES,
    churn_node_counts: Optional[Sequence[int]] = None,
) -> List[RunUnit]:
    """Expand a suite into the flat, content-hashed unit list.

    The expansion itself is deterministic: it generates the workload
    suite (whose goal queries are seeded stably — see
    :func:`repro.workloads.generator.stable_name_hash`) and derives one
    independent seed per unit, so the resulting ids identify the exact
    computation regardless of who runs it.
    """
    if suite not in ("quick", "standard"):
        raise ExperimentError(f"unknown suite {suite!r}; expected 'quick' or 'standard'")
    unknown = [name for name in experiments if name not in EXPERIMENTS]
    if unknown:
        raise ExperimentError(f"unknown experiments {unknown}; known: {list(EXPERIMENTS)}")
    # normalise to canonical order so the plan id is order-independent
    experiments = [name for name in EXPERIMENTS if name in set(experiments)]
    if datasets is not None:
        known = list_datasets()
        missing = [name for name in datasets if name not in known]
        if missing:
            raise ExperimentError(f"unknown datasets {missing}; known: {known}")

    cases: List[WorkloadCase]
    if suite == "quick":
        cases = quick_suite(seed)
    else:
        cases = standard_suite(seed=seed, per_family=per_family, datasets=datasets)
    if datasets is not None:
        wanted = set(datasets)
        cases = [case for case in cases if case.dataset in wanted]
    case_experiments = [name for name in experiments if name not in ("e3", "e5", "churn")]
    if case_experiments and not cases:
        raise ExperimentError(
            f"no workload cases for experiments {case_experiments}: the {suite!r} suite "
            f"covers none of the requested datasets {list(datasets or [])}"
        )

    units: List[RunUnit] = []

    def case_params(case: WorkloadCase) -> dict:
        return {
            "suite_seed": seed,
            "dataset": case.dataset,
            "expression": case.goal.expression,
        }

    for experiment in experiments:
        if experiment == "e1":
            for case in cases:
                for strategy in ("static", *e1_strategies):
                    params = dict(
                        case_params(case),
                        family=case.goal.family,
                        strategy=strategy,
                        **E1_DEFAULTS,
                        seed=derive_unit_seed(
                            seed, "e1", case.dataset, case.goal.expression, strategy
                        ),
                    )
                    units.append(
                        RunUnit("e1", f"e1 {case.dataset} [{strategy}] {case.goal.expression}", params)
                    )
        elif experiment == "e2":
            for case in cases:
                params = dict(case_params(case), **E2_DEFAULTS)
                units.append(RunUnit("e2", f"e2 {case.dataset} {case.goal.expression}", params))
        elif experiment == "e3":
            node_counts = e3_node_counts if e3_node_counts is not None else E3_NODE_COUNTS[suite]
            for node_count in node_counts:
                params = dict(
                    nodes=node_count,
                    **E3_DEFAULTS,
                    seed=derive_unit_seed(seed, "e3", node_count),
                )
                units.append(RunUnit("e3", f"e3 random-{node_count}", params))
        elif experiment == "e4":
            for case in cases:
                for variant in ("no-validation", "validation"):
                    params = dict(
                        case_params(case),
                        family=case.goal.family,
                        variant=variant,
                        **E4_DEFAULTS,
                    )
                    units.append(
                        RunUnit("e4", f"e4 {case.dataset} [{variant}] {case.goal.expression}", params)
                    )
        elif experiment == "e5":
            for size in e5_sample_sizes:
                params = dict(
                    size=size,
                    **E5_DEFAULTS,
                    seed=derive_unit_seed(seed, "e5", size),
                )
                units.append(RunUnit("e5", f"e5 samples={size}", params))
        elif experiment == "scenarios":
            for case in cases:
                params = dict(
                    case_params(case),
                    **SCENARIO_DEFAULTS,
                    seed=derive_unit_seed(seed, "scenarios", case.dataset, case.goal.expression),
                )
                units.append(RunUnit("scenarios", f"scenarios {case.dataset} {case.goal.expression}", params))
        elif experiment == "churn":
            node_counts = (
                churn_node_counts if churn_node_counts is not None else CHURN_NODE_COUNTS[suite]
            )
            for node_count in node_counts:
                params = dict(
                    nodes=node_count,
                    **CHURN_DEFAULTS,
                    seed=derive_unit_seed(seed, "churn", node_count),
                )
                units.append(RunUnit("churn", f"churn sliding-{node_count}", params))
    return units


def plan_id_for(units: Sequence[RunUnit]) -> str:
    """Content hash of an ordered unit-id list — the identity of a run plan."""
    digest = hashlib.sha256(canonical_json([unit.unit_id for unit in units]).encode("utf-8"))
    return digest.hexdigest()[:12]


# ----------------------------------------------------------------------
# JSONL result store
# ----------------------------------------------------------------------
class ResultStore:
    """A directory holding one run's streamed results.

    Layout::

        <directory>/
            manifest.json   # plan id, suite parameters, unit labels
            rows.jsonl      # one JSON line per *completed* unit

    Records are appended (and flushed) as units finish, so a killed run
    loses at most the line being written; :meth:`load_records` skips a
    truncated trailing line.
    """

    MANIFEST_NAME = "manifest.json"
    ROWS_NAME = "rows.jsonl"

    def __init__(self, directory: PathLike):
        self.directory = Path(directory)

    @property
    def manifest_path(self) -> Path:
        return self.directory / self.MANIFEST_NAME

    @property
    def rows_path(self) -> Path:
        return self.directory / self.ROWS_NAME

    def read_manifest(self) -> Optional[dict]:
        """The stored manifest, or None when the store is empty/new."""
        if not self.manifest_path.exists():
            return None
        try:
            return json.loads(self.manifest_path.read_text())
        except json.JSONDecodeError as error:
            raise ExperimentError(
                f"corrupt manifest at {self.manifest_path} ({error}); "
                "start over with fresh=True (CLI: --fresh)"
            ) from error

    def write_manifest(self, manifest: dict) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        # atomic: a kill mid-write must not leave a corrupt manifest behind
        temp_path = self.manifest_path.with_suffix(".json.tmp")
        temp_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        os.replace(temp_path, self.manifest_path)

    def load_records(self) -> Dict[str, dict]:
        """unit_id -> record for every completed unit in the store."""
        records: Dict[str, dict] = {}
        if not self.rows_path.exists():
            return records
        for line in self.rows_path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # truncated trailing line from an interrupted run
            records[record["unit_id"]] = record
        return records

    def append(self, record: dict) -> None:
        """Append one completed-unit record, flushed to disk immediately."""
        self.directory.mkdir(parents=True, exist_ok=True)
        with self.rows_path.open("a", encoding="utf-8") as handle:
            handle.write(canonical_json(record) + "\n")
            handle.flush()

    def clear(self) -> None:
        """Remove the manifest and all stored rows (start over)."""
        for path in (self.manifest_path, self.rows_path):
            if path.exists():
                path.unlink()


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """Outcome of one :meth:`ExperimentRunner.run` call."""

    units: List[RunUnit]
    records: Dict[str, dict]
    executed_unit_ids: List[str]
    resumed_unit_ids: List[str]
    seconds: float
    store_directory: Optional[Path] = None
    #: units that needed more than one attempt (fault-injected or flaky)
    retried_unit_ids: List[str] = field(default_factory=list)

    def rows(self, experiment: str) -> List[Row]:
        """All rows of one experiment, in deterministic plan order."""
        rows: List[Row] = []
        for unit in self.units:
            if unit.experiment != experiment:
                continue
            record = self.records.get(unit.unit_id)
            if record is not None:
                rows.extend(record["rows"])
        return rows

    @property
    def tables(self) -> Dict[str, ResultTable]:
        """Merged detail (and, where defined, summary) tables by name.

        An experiment with a ``SUMMARY_SPECS`` entry yields
        ``<experiment>_detail`` and ``<experiment>_summary``
        (``e1``, ``e2``, ``e4``, ``scenarios``); the others yield one
        table named after the experiment (``e3``, ``e5``, ``churn``).
        Only experiments in the plan appear.
        """
        present = []
        for experiment in EXPERIMENTS:
            if any(unit.experiment == experiment for unit in self.units):
                present.append(experiment)
        tables: Dict[str, ResultTable] = {}
        for experiment in present:
            detail = ResultTable(TABLE_TITLES[experiment], self.rows(experiment))
            if experiment in SUMMARY_SPECS:
                keys, reducers = SUMMARY_SPECS[experiment]
                tables[f"{experiment}_detail"] = detail
                tables[f"{experiment}_summary"] = detail.group_by(keys, reducers)
            else:
                tables[experiment] = detail
        return tables


class ExperimentRunner:
    """Expand, execute (optionally in parallel), store and merge experiments.

    Parameters mirror :func:`build_plan`; ``workers`` controls the size
    of the process pool (``<= 1`` executes inline in this process) and
    ``store`` is an optional :class:`ResultStore` for streaming/resume.

    ``retry_policy`` bounds how many attempts a unit gets when it fails
    retryably (default: :class:`~repro.reliability.RetryPolicy`'s three);
    ``fault_plan`` injects deterministic simulated crashes for chaos
    testing (``None``, the default, leaves execution untouched).
    """

    def __init__(
        self,
        *,
        suite: str = "quick",
        experiments: Sequence[str] = DEFAULT_EXPERIMENTS,
        datasets: Optional[Sequence[str]] = None,
        seed: int = 11,
        per_family: int = 2,
        e1_strategies: Sequence[str] = E1_STRATEGIES,
        e3_node_counts: Optional[Sequence[int]] = None,
        e5_sample_sizes: Sequence[int] = E5_SAMPLE_SIZES,
        churn_node_counts: Optional[Sequence[int]] = None,
        workers: int = 1,
        store: Optional[ResultStore] = None,
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        self.suite = suite
        self.seed = seed
        self.workers = max(1, int(workers))
        self.store = store
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self.units = build_plan(
            suite=suite,
            experiments=experiments,
            datasets=datasets,
            seed=seed,
            per_family=per_family,
            e1_strategies=e1_strategies,
            e3_node_counts=e3_node_counts,
            e5_sample_sizes=e5_sample_sizes,
            churn_node_counts=churn_node_counts,
        )
        self.experiments = [name for name in EXPERIMENTS if any(u.experiment == name for u in self.units)]

    @property
    def plan_id(self) -> str:
        return plan_id_for(self.units)

    def plan(self) -> List[RunUnit]:
        """The expanded unit list (deterministic order)."""
        return list(self.units)

    def _manifest(self) -> dict:
        return {
            "format": 1,
            "plan_id": self.plan_id,
            "suite": self.suite,
            "seed": self.seed,
            "experiments": list(self.experiments),
            "unit_count": len(self.units),
            "units": [
                {"unit_id": unit.unit_id, "experiment": unit.experiment, "label": unit.label}
                for unit in self.units
            ],
        }

    def run(
        self,
        *,
        resume: bool = True,
        fresh: bool = False,
        progress: Optional[Callable[[RunUnit, dict, int, int], None]] = None,
    ) -> RunResult:
        """Execute every planned unit that is not already in the store.

        With ``fresh=True`` the store is cleared first.  With
        ``resume=True`` (the default) completed unit ids from the store
        are skipped; their stored rows are merged into the result as if
        they had just run.  ``resume=False`` recomputes everything, so
        it also clears the store first — otherwise re-executed units
        would append duplicate records.  ``progress`` is called after
        each executed unit with ``(unit, record, done_count,
        total_count)``.
        """
        started = time.perf_counter()
        records: Dict[str, dict] = {}
        resumed: List[str] = []
        if self.store is not None:
            if fresh or not resume:
                self.store.clear()
            manifest = self.store.read_manifest()
            if manifest is not None and manifest.get("plan_id") != self.plan_id:
                raise RunPlanMismatchError(manifest.get("plan_id"), self.plan_id, self.store.directory)
            if manifest is None:
                self.store.write_manifest(self._manifest())
            if resume:
                planned_ids = {unit.unit_id for unit in self.units}
                records = {
                    unit_id: record
                    for unit_id, record in self.store.load_records().items()
                    if unit_id in planned_ids
                }
                resumed = [unit.unit_id for unit in self.units if unit.unit_id in records]

        pending = [unit for unit in self.units if unit.unit_id not in records]
        by_id = {unit.unit_id: unit for unit in self.units}
        executed: List[str] = []
        retried: List[str] = []
        total = len(self.units)

        def finish(record: dict) -> None:
            records[record["unit_id"]] = record
            executed.append(record["unit_id"])
            if self.store is not None:
                self.store.append(record)
            if progress is not None:
                progress(by_id[record["unit_id"]], record, len(records), total)

        if self.workers <= 1 or len(pending) <= 1:
            for unit in pending:
                finish(self._execute_inline(unit, retried))
        else:
            self._execute_pool(pending, finish, retried)

        # keep the executed list in plan order (parallel completion shuffles it)
        executed_set = set(executed)
        executed_in_order = [unit.unit_id for unit in self.units if unit.unit_id in executed_set]
        retried_set = set(retried)
        return RunResult(
            units=list(self.units),
            records=records,
            executed_unit_ids=executed_in_order,
            resumed_unit_ids=resumed,
            seconds=round(time.perf_counter() - started, 4),
            store_directory=None if self.store is None else self.store.directory,
            retried_unit_ids=[
                unit.unit_id for unit in self.units if unit.unit_id in retried_set
            ],
        )

    # ------------------------------------------------------------------
    # execution with bounded retries
    # ------------------------------------------------------------------
    def _unit_payload(self, unit: RunUnit, attempt: int) -> dict:
        """The work order for attempt number ``attempt`` of ``unit``.

        Without a fault plan the payload is exactly :meth:`RunUnit.payload`
        — byte-identical to the pre-reliability runner, so content hashes
        and worker behaviour cannot drift when chaos is off.
        """
        payload = unit.payload()
        if self.fault_plan is not None:
            payload["fault_plan"] = self.fault_plan.as_dict()
            payload["attempt"] = attempt
        return payload

    def _give_up(self, unit: RunUnit, attempt: int, error: BaseException) -> None:
        """Raise the right terminal error for a unit that cannot complete."""
        if self.retry_policy.is_retryable(error):
            raise UnitExecutionError(unit.unit_id, attempt, error) from error
        raise error

    def _execute_inline(self, unit: RunUnit, retried: List[str]) -> dict:
        """Run one unit in-process, retrying within the policy budget."""
        attempt = 0
        while attempt < self.retry_policy.max_attempts:
            attempt += 1
            try:
                return execute_payload(self._unit_payload(unit, attempt))
            except Exception as error:
                if (
                    not self.retry_policy.is_retryable(error)
                    or attempt >= self.retry_policy.max_attempts
                ):
                    self._give_up(unit, attempt, error)
                retried.append(unit.unit_id)
        raise AssertionError("unreachable: retry loop exits via return or _give_up")

    def _execute_pool(
        self,
        pending: Sequence[RunUnit],
        finish: Callable[[dict], None],
        retried: List[str],
    ) -> None:
        """Fan pending units over a process pool, resubmitting crashed ones.

        A worker that dies on a unit (simulated via the fault plan, or a
        genuinely flaky unit) gets the unit resubmitted — possibly to a
        different, fresh process — until the retry budget is spent.
        Completed units stream to the store as they finish, so even a
        campaign that ultimately raises loses none of them.
        """
        with ProcessPoolExecutor(max_workers=min(self.workers, len(pending))) as pool:
            inflight = {
                pool.submit(execute_payload, self._unit_payload(unit, 1)): (unit, 1)
                for unit in pending
            }
            while inflight:
                done, _ = wait(set(inflight), return_when=FIRST_COMPLETED)
                for future in done:
                    unit, attempt = inflight.pop(future)
                    try:
                        record = future.result()
                    except Exception as error:
                        if (
                            not self.retry_policy.is_retryable(error)
                            or attempt >= self.retry_policy.max_attempts
                        ):
                            self._give_up(unit, attempt, error)
                        retried.append(unit.unit_id)
                        resubmitted = pool.submit(
                            execute_payload, self._unit_payload(unit, attempt + 1)
                        )
                        inflight[resubmitted] = (unit, attempt + 1)
                        continue
                    finish(record)
