"""The one table of entropy sources, shared by both lint passes.

REP101–103 (syntactic) report an entropy source where it is called;
REP110 (semantic) follows the value it returns into memo keys,
fingerprints and result rows.  Both ask :func:`entropy_source`, so a
call one pass treats as entropy is entropy to the other as well.
"""

from __future__ import annotations

import ast
from typing import Dict, Tuple

#: ``time`` functions whose value is entropy (wall clock or per-process
#: monotonic origin — neither may reach a key, fingerprint or row)
TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)

#: module-level ``random`` functions: each draws from (or reseeds) the
#: hidden global generator
RANDOM_FUNCS = frozenset(
    {
        "random",
        "randrange",
        "randint",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "betavariate",
        "gammavariate",
        "paretovariate",
        "weibullvariate",
        "vonmisesvariate",
        "getrandbits",
        "randbytes",
        "seed",
    }
)


def record_import(
    node: ast.stmt,
    modules: Dict[str, str],
    objects: Dict[str, Tuple[str, str]],
) -> None:
    """Bind the local names an import statement introduces.

    ``import random as r`` binds ``modules["r"] = "random"``;
    ``from time import time as now`` binds
    ``objects["now"] = ("time", "time")``.  Relative imports name
    project modules, never the standard library, and are skipped.
    """
    if isinstance(node, ast.Import):
        for alias in node.names:
            modules[alias.asname or alias.name.split(".")[0]] = alias.name
    elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
        for alias in node.names:
            objects[alias.asname or alias.name] = (node.module, alias.name)


def entropy_source(
    call: ast.Call,
    modules: Dict[str, str],
    objects: Dict[str, Tuple[str, str]],
) -> Tuple[str, str]:
    """Classify ``call`` as ``(kind, name)``, or ``("", "")`` if it is
    not an entropy source.

    Kinds: ``"random"`` (a module-level ``random`` draw — any name
    imported ``from random`` but ``Random`` counts), ``"unseeded"``
    (``random.Random()`` without a seed), ``"hash"`` (builtin
    ``hash()``, salted per process) and ``"time"`` (a clock read).
    ``modules``/``objects`` are the bindings :func:`record_import`
    collected.
    """
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        module, name, imported = modules.get(func.value.id, ""), func.attr, False
    elif isinstance(func, ast.Name):
        module, name = objects.get(func.id, ("", func.id))
        imported = bool(module)
    else:
        return "", ""
    if module == "random":
        if name == "Random":
            unseeded = not call.args and not call.keywords
            return ("unseeded", "random.Random") if unseeded else ("", "")
        if imported or name in RANDOM_FUNCS:
            return "random", f"random.{name}"
    elif module == "time" and name in TIME_FUNCS:
        return "time", f"time.{name}"
    elif isinstance(func, ast.Name) and func.id == "hash":
        return "hash", "hash"
    return "", ""
