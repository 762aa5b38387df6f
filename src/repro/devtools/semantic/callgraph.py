"""Whole-program resolution over per-module summaries.

This is the cheap half of the semantic pass: no parsing, just linking.
:func:`build_model` folds the module summaries into a
:class:`ProjectModel`; :func:`resolve` turns one unresolved
:data:`CallRef` into candidate callees; :func:`closure` propagates a
per-function fact set along call edges (locks a call may acquire,
builds it may reach, event-loop bridges it may drive);
:func:`reachable` computes the function/class closure the REP310
wiring rule consumes.

Resolution policy — conservative, bounded:

* ``self.m()`` resolves within the caller's class first, then (to cover
  inheritance, which summaries don't model) to every class method named
  ``m`` anywhere in the linted tree;
* bare and module-qualified names resolve to module-level functions or
  to class constructors (``LanguageIndex(...)`` reaches
  ``LanguageIndex.__init__`` *and* marks the class constructed);
* ``x.m()`` on an opaque receiver resolves to **every** method named
  ``m`` — except when ``m`` is a common container/stdlib method
  (:data:`COMMON_METHODS`), where by-name dispatch would connect the
  whole program through ``.get``/``.append`` and drown the rules in
  noise.  Dropping those edges is the documented unsoundness of the
  layer: a project method deliberately named ``get`` is invisible to
  interprocedural rules unless reached some other way.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.devtools.semantic.model import (
    CallRef,
    FunctionSummary,
    ModuleSummary,
    ProjectModel,
)

#: method names resolved *nowhere* when called on an opaque receiver —
#: container/stdlib vocabulary whose by-name dispatch would link every
#: function to every other through shared dict/list/str idiom
COMMON_METHODS = frozenset(
    {
        # dict / set / list / deque
        "get", "items", "keys", "values", "setdefault", "pop", "popitem",
        "append", "extend", "insert", "remove", "clear", "copy", "update",
        "add", "discard", "union", "intersection", "difference", "sort",
        "reverse", "count", "index", "popleft", "appendleft",
        # str / bytes
        "join", "split", "rsplit", "strip", "lstrip", "rstrip", "format",
        "startswith", "endswith", "replace", "lower", "upper", "encode",
        "decode", "splitlines", "ljust", "rjust", "zfill", "title",
        # io / pathlib
        "read", "write", "close", "flush", "readline", "readlines",
        "open", "exists", "mkdir", "is_dir", "is_file", "read_text",
        "write_text", "resolve", "relative_to", "as_posix", "rglob",
        "glob", "unlink", "iterdir", "with_suffix", "with_name",
        # re / hashlib / json-ish
        "match", "search", "findall", "finditer", "sub", "group",
        "groups", "groupdict", "hexdigest", "digest", "dumps", "loads",
    }
)


def build_model(summaries: Dict[str, ModuleSummary]) -> ProjectModel:
    """Link per-module summaries into one :class:`ProjectModel`.

    Iteration order is sorted-by-path everywhere, so two runs over the
    same tree build byte-identical models (the report-determinism
    guarantee starts here).
    """
    model = ProjectModel()
    methods_by_name: Dict[str, List[str]] = {}
    registry_keys: Set[str] = set()
    for path in sorted(summaries):
        summary = summaries[path]
        model.modules[path] = summary
        model.module_paths.setdefault(summary.module, path)
        registry_keys.update(summary.registry_keys)
        if summary.registry_keys:
            model.has_registry = True
        for class_name, _methods in summary.classes:
            model.class_modules.setdefault(class_name, summary.module)
            model.class_methods.setdefault(class_name, {})
        for function in summary.functions:
            model.functions[function.qualname] = function
            if function.class_name:
                model.class_methods.setdefault(function.class_name, {}).setdefault(
                    function.name, function.qualname
                )
                methods_by_name.setdefault(function.name, []).append(
                    function.qualname
                )
            else:
                model.module_functions.setdefault(
                    (function.module, function.name), function.qualname
                )
    model.methods_by_name = {
        name: tuple(sorted(qualnames))
        for name, qualnames in methods_by_name.items()
    }
    model.registry_keys = frozenset(registry_keys)
    return model


def resolve(
    model: ProjectModel, caller: FunctionSummary, ref: CallRef
) -> Tuple[str, ...]:
    """Candidate callee qualnames of ``ref`` as called from ``caller``."""
    kind, name, receiver = ref
    if kind == "self" and caller.class_name:
        own = model.class_methods.get(caller.class_name, {}).get(name)
        if own:
            return (own,)
        if name in COMMON_METHODS or name.startswith("__"):
            return ()
        return model.methods_by_name.get(name, ())
    if kind == "name":
        local = model.module_functions.get((caller.module, name))
        if local:
            return (local,)
        constructor = model.class_methods.get(name, {}).get("__init__")
        if constructor:
            return (constructor,)
        return ()
    if kind == "module":
        target = model.module_functions.get((receiver, name))
        if target:
            return (target,)
        if model.class_modules.get(name) == receiver:
            constructor = model.class_methods.get(name, {}).get("__init__")
            if constructor:
                return (constructor,)
        return ()
    if kind == "attr":
        # dunders (``super().__init__`` above all) would link every
        # class's constructor to every other by name — drop them along
        # with the container vocabulary
        if name in COMMON_METHODS or name.startswith("__"):
            return ()
        return model.methods_by_name.get(name, ())
    return ()


def constructed_class(model: ProjectModel, ref: CallRef) -> str:
    """The class name ``ref`` constructs, or '' when it is not a
    constructor call (``Thing()`` bare or module-qualified)."""
    kind, name, receiver = ref
    if kind == "name" and name in model.class_modules:
        return name
    if kind == "module" and model.class_modules.get(name) == receiver:
        return name
    return ""


def closure(
    model: ProjectModel, seeds: Dict[str, Set[str]]
) -> Dict[str, Set[str]]:
    """Fixpoint: each function's ``seeds`` set unioned with the sets of
    every function it may call, transitively."""
    callees = {
        qualname: sorted(
            {
                callee
                for call in function.calls
                for callee in resolve(model, function, call.ref)
            }
        )
        for qualname, function in model.functions.items()
    }
    reached = {qualname: set(seeds.get(qualname, ())) for qualname in model.functions}
    changed = True
    while changed:
        changed = False
        for qualname in sorted(model.functions):
            mine = reached[qualname]
            before = len(mine)
            for callee in callees[qualname]:
                mine |= reached[callee]
            if len(mine) != before:
                changed = True
    return reached


def find_roots(model: ProjectModel, specs: Iterable[str]) -> Tuple[str, ...]:
    """Qualnames matching root specs of the form ``Class.method`` or a
    bare module-level function name."""
    roots: List[str] = []
    for spec in specs:
        suffix = f"::{spec}"
        for qualname in sorted(model.functions):
            if qualname.endswith(suffix):
                roots.append(qualname)
    return tuple(roots)


def reachable(
    model: ProjectModel, roots: Iterable[str]
) -> Tuple[Set[str], Set[str]]:
    """``(functions, classes)`` transitively reachable from ``roots``.

    A class counts as reached when one of its methods is reached or when
    a reached function constructs it.
    """
    seen: Set[str] = set()
    classes: Set[str] = set()
    stack = [qualname for qualname in roots if qualname in model.functions]
    for qualname in stack:
        seen.add(qualname)
    while stack:
        function = model.functions[stack.pop()]
        if function.class_name:
            classes.add(function.class_name)
        for call in function.calls:
            built = constructed_class(model, call.ref)
            if built:
                classes.add(built)
            for callee in resolve(model, function, call.ref):
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
    return seen, classes
