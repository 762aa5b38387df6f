"""REP110 — interprocedural entropy taint into identity-bearing sinks.

The syntactic determinism family (REP101–104) flags entropy *sources*;
this rule follows the *value*: wall-clock time, unseeded ``random``
draws and builtin ``hash()`` results (the sources of
:mod:`repro.devtools.entropy`) that travel through at most
:data:`MAX_HOPS` call-graph edges into a **memo key**, a
**fingerprint-named binding** or a **result-store row**.  Those three
positions are where nondeterminism stops being a local wart and
becomes corrupted identity: a memo keyed on ``time.time()`` never hits,
a fingerprint seeded from ``hash()`` differs across processes, a result
row carrying entropy breaks byte-identical reruns.

Hop accounting (bounded to keep the fixpoint cheap and the findings
explainable): a value crossing one call edge — either *returned from* a
callee or *passed into* one — costs one hop; reaching the sink inside
the same function costs zero.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.devtools.config import LintConfig
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.registry import semantic_rule
from repro.devtools.semantic.callgraph import resolve
from repro.devtools.semantic.model import CallRef, ProjectModel

#: call-graph hop budget of the taint propagation
MAX_HOPS = 3


def _entropy_return_depth(model: ProjectModel) -> Dict[str, int]:
    """Fixpoint: minimal hops for entropy to reach each function's
    return value (0 = a source appears in the return expression)."""
    depth: Dict[str, int] = {
        qualname: 0
        for qualname, function in model.functions.items()
        if function.entropy_return
    }
    changed = True
    while changed:
        changed = False
        for qualname in sorted(model.functions):
            function = model.functions[qualname]
            for ref in function.return_dep_calls:
                for callee in resolve(model, function, ref):
                    through = depth.get(callee)
                    if through is None or through + 1 > MAX_HOPS:
                        continue
                    if through + 1 < depth.get(qualname, MAX_HOPS + 1):
                        depth[qualname] = through + 1
                        changed = True
    return depth


def _sink_param_depth(model: ProjectModel) -> Dict[str, Dict[int, Tuple[int, str]]]:
    """Fixpoint: per function, parameters that flow into a sink —
    ``param index -> (hops to the sink, sink description)``."""
    depth: Dict[str, Dict[int, Tuple[int, str]]] = {}
    for qualname in sorted(model.functions):
        function = model.functions[qualname]
        table: Dict[int, Tuple[int, str]] = {}
        for sink in function.sinks:
            for position in sink.dep_params:
                label = f"{sink.kind} '{sink.detail}' ({function.qualname})"
                if position not in table:
                    table[position] = (0, label)
        depth[qualname] = table
    changed = True
    while changed:
        changed = False
        for qualname in sorted(model.functions):
            function = model.functions[qualname]
            table = depth[qualname]
            for call in function.calls:
                for callee in resolve(model, function, call.ref):
                    callee_table = depth.get(callee, {})
                    for arg in call.arg_deps:
                        reached = callee_table.get(arg.position)
                        if reached is None or reached[0] + 1 > MAX_HOPS:
                            continue
                        for position in arg.dep_params:
                            hops = reached[0] + 1
                            if position not in table or hops < table[position][0]:
                                table[position] = (hops, reached[1])
                                changed = True
    return depth


def _entropy_of_refs(
    model: ProjectModel,
    function,
    refs: Iterable[CallRef],
    depth: Dict[str, int],
) -> Optional[Tuple[int, str]]:
    """Cheapest entropy-carrying callee among ``refs``: (hops, who)."""
    best: Optional[Tuple[int, str]] = None
    for ref in refs:
        for callee in resolve(model, function, ref):
            through = depth.get(callee)
            if through is None or through + 1 > MAX_HOPS:
                continue
            if best is None or through + 1 < best[0]:
                best = (through + 1, callee)
    return best


@semantic_rule("REP110", "REP100", "entropy flows into a memo key, fingerprint or result row")
def check_entropy_taint(
    model: ProjectModel, config: LintConfig
) -> Iterable[Diagnostic]:
    return_depth = _entropy_return_depth(model)
    sink_depth = _sink_param_depth(model)
    seen: Set[Tuple[str, int, str]] = set()
    results: List[Diagnostic] = []

    def emit(path: str, line: int, col: int, message: str, symbol: str) -> None:
        key = (path, line, symbol)
        if key in seen:
            return
        seen.add(key)
        results.append(Diagnostic(path, line, col, "REP110", message, symbol=symbol))

    for qualname in sorted(model.functions):
        function = model.functions[qualname]
        path = model.modules_path(function.module)
        for sink in function.sinks:
            if sink.tainted:
                emit(
                    path,
                    sink.line,
                    sink.col,
                    f"entropy source (line {sink.taint_line}) flows directly "
                    f"into {sink.kind} '{sink.detail}'; derive the value from "
                    "stable inputs (versions, fingerprints, seeded RNGs)",
                    sink.detail,
                )
                continue
            carried = _entropy_of_refs(model, function, sink.dep_calls, return_depth)
            if carried is not None:
                hops, source = carried
                emit(
                    path,
                    sink.line,
                    sink.col,
                    f"value returned by {source} carries entropy "
                    f"({hops} hop(s)) into {sink.kind} '{sink.detail}'",
                    sink.detail,
                )
        for call in function.calls:
            for callee in resolve(model, function, call.ref):
                callee_sinks = sink_depth.get(callee, {})
                for arg in call.arg_deps:
                    reached = callee_sinks.get(arg.position)
                    if reached is None:
                        continue
                    sink_hops, sink_label = reached
                    if arg.tainted and sink_hops + 1 <= MAX_HOPS:
                        emit(
                            path,
                            call.line,
                            call.col,
                            f"entropy source (line {arg.taint_line}) is passed "
                            f"into {call.name}() and reaches {sink_label} "
                            f"({sink_hops + 1} hop(s))",
                            call.name,
                        )
                        continue
                    carried = _entropy_of_refs(
                        model, function, arg.dep_calls, return_depth
                    )
                    if (
                        carried is not None
                        and carried[0] + sink_hops + 1 <= MAX_HOPS
                    ):
                        emit(
                            path,
                            call.line,
                            call.col,
                            f"value from {carried[1]} carries entropy into "
                            f"{call.name}() and reaches {sink_label} "
                            f"({carried[0] + sink_hops + 1} hop(s))",
                            call.name,
                        )
    return results
