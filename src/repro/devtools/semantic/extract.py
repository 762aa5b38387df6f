"""Per-module extraction: one syntax tree → one :class:`ModuleSummary`.

Extraction is a pure function of one module — it never looks at
another file.  The walk is deliberately heuristic in the same spirit as
the syntactic families: it tracks the direct dataflow shapes that occur
in this codebase (straight-line assignments, ``with`` lock stacks,
self-attribute memos) and leaves opaque flows to the conservative side
of whichever rule consumes them.

Every ``def`` gets exactly one summary, nested ones included, and the
module's top-level statements get one more (``<module>``): a lock held
at import time or inside a closure is checked like any other.  A
``def`` statement runs its decorators and defaults where it stands;
its body runs only when called, so the body starts with no lock held.

What is recorded per function:

* every call expression, with its unresolved :data:`CallRef`, the lock
  labels lexically held at the call, and the local dependencies of its
  positional arguments (entropy taint, feeding calls, feeding params);
* every lock acquisition (``with <lockish>:``) and the locks already
  held — the edges of the lock-order graph;
* every ``await`` and the locks held around it;
* entropy sources (:func:`repro.devtools.entropy.entropy_source`) and
  whether they flow into the return value, a memo key, a
  fingerprint-named binding or a result store row;
* which parameters flow into the return value and into sinks — the
  hand-off points interprocedural taint propagation stitches together.

Lock labels are *names*, not objects: ``self._lock`` and a local bound
from ``self._build_locks[key]`` become ``"_lock"`` and
``"_build_locks"``.  Name identity is too coarse to prove a
self-deadlock (N per-key build locks share one label), so the rules
never report a single-label cycle — only cross-label inversions.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.devtools.entropy import entropy_source, record_import
from repro.devtools.rules.rep300_cache_keys import MEMO_NAME
from repro.devtools.semantic.model import (
    ArgDep,
    AwaitEvent,
    CallRef,
    CallSite,
    FunctionSummary,
    LockEvent,
    ModuleSummary,
    Sink,
)

#: lock-like identifiers: the labels of the lock-order graph
LOCK_NAME = re.compile(r"lock", re.IGNORECASE)

#: fingerprint-like bindings (REP110 sinks)
FINGERPRINT_NAME = re.compile(r"fingerprint|digest|signature", re.IGNORECASE)

#: result-store receivers of ``.append(row)`` (REP110 sinks)
RESULT_STORE = re.compile(r"store", re.IGNORECASE)

#: constructor names of lock objects: matching /lock/i but naming the
#: *creation* of a lock, not a shared binding worth a graph label
_LOCK_CONSTRUCTORS = frozenset({"Lock", "RLock", "Semaphore", "BoundedSemaphore"})

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_name_for(path: str) -> str:
    """Dotted module name of a repo-relative posix path.

    ``src/repro/serving/workspace.py`` → ``repro.serving.workspace``;
    trees outside ``src`` keep their directory prefix
    (``benchmarks/bench_engine.py`` → ``benchmarks.bench_engine``).
    """
    parts = path.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part)


@dataclass
class _Deps:
    """Local dependencies of one expression/binding."""

    tainted: bool = False
    taint_line: int = 0
    calls: Set[CallRef] = field(default_factory=set)
    params: Set[int] = field(default_factory=set)

    def merge(self, other: "_Deps") -> None:
        if other.tainted and not self.tainted:
            self.tainted = True
            self.taint_line = other.taint_line
        self.calls |= other.calls
        self.params |= other.params

    @property
    def interesting(self) -> bool:
        return self.tainted or bool(self.calls) or bool(self.params)


class _ModuleExtractor:
    """Module-wide state every scope walker of one module shares."""

    def __init__(self, module: str, path: str):
        self.module = module
        self.path = path
        self.import_modules: Dict[str, str] = {}
        self.import_objects: Dict[str, Tuple[str, str]] = {}
        self.functions: List[FunctionSummary] = []
        self.classes: List[Tuple[str, Tuple[str, ...]]] = []
        self.hooks: List[Tuple[str, str, int, int]] = []
        self.registry_keys: List[str] = []

    def extract(self, tree: ast.Module) -> ModuleSummary:
        _FunctionWalker(self, tree, "<module>").run()
        return ModuleSummary(
            module=self.module,
            path=self.path,
            functions=tuple(self.functions),
            classes=tuple(self.classes),
            hooks=tuple(self.hooks),
            registry_keys=tuple(self.registry_keys),
            import_modules=tuple(sorted(self.import_modules.items())),
            import_objects=tuple(
                (alias, module, name)
                for alias, (module, name) in sorted(self.import_objects.items())
            ),
        )


class _FunctionWalker:
    """One pass over one scope's body: locks, calls, awaits, dataflow.

    The scope is a ``def`` or, for ``<module>``, the module itself.
    Every nested ``def`` (methods included) gets a walker of its own;
    the other statements of a class body run in the enclosing scope.
    """

    def __init__(
        self,
        extractor: _ModuleExtractor,
        node: "ast.Module | ast.FunctionDef | ast.AsyncFunctionDef",
        name: str,
        class_name: str = "",
    ):
        self.x = extractor
        self.node = node
        self.name = name
        self.class_name = class_name
        is_module = isinstance(node, ast.Module)
        #: statements walked now bind module globals (imports, the
        #: WORKSPACE_HOOKS registry); off inside a class body
        self.module_scope = is_module
        qualname = f"{class_name}.{name}" if class_name else name
        self.qualname = f"{extractor.module}::{qualname}"
        #: name prefix of the defs nested here (none for module level)
        self.scope = "" if is_module else f"{qualname}.<locals>."
        args = (
            []
            if is_module
            else node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        )
        self.params = tuple(arg.arg for arg in args)
        self.param_index = {name: index for index, name in enumerate(self.params)}
        self.env: Dict[str, _Deps] = {}
        self.lock_aliases: Dict[str, str] = {}
        self.lock_stack: List[str] = []
        self.calls: List[CallSite] = []
        self.acquisitions: List[LockEvent] = []
        self.awaits: List[AwaitEvent] = []
        self.sinks: List[Sink] = []
        self.return_deps = _Deps()
        self._awaited_calls: Set[int] = set()

    def run(self) -> None:
        for statement in self.node.body:
            self._statement(statement)
        self.x.functions.append(
            FunctionSummary(
                module=self.x.module,
                qualname=self.qualname,
                name=self.name,
                class_name=self.class_name,
                line=getattr(self.node, "lineno", 1),
                col=getattr(self.node, "col_offset", 0) + 1,
                is_async=isinstance(self.node, ast.AsyncFunctionDef),
                params=self.params,
                calls=tuple(self.calls),
                acquisitions=tuple(self.acquisitions),
                awaits=tuple(self.awaits),
                entropy_return=self.return_deps.tainted,
                entropy_line=self.return_deps.taint_line,
                return_dep_calls=tuple(sorted(self.return_deps.calls)),
                return_dep_params=tuple(sorted(self.return_deps.params)),
                sinks=tuple(self.sinks),
            )
        )

    # -- definitions ----------------------------------------------------
    def _define(
        self,
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
        name: str,
        class_name: str = "",
    ) -> None:
        """Run what a ``def`` statement evaluates here (decorators and
        defaults), then summarise its body as a function of its own."""
        args = node.args
        for expression in node.decorator_list + args.defaults + args.kw_defaults:
            self._expr(expression)
        _FunctionWalker(self.x, node, name, class_name).run()

    def _class(self, node: ast.ClassDef, qualname: str) -> None:
        """Walk a class statement.  Only a module-level class is
        registered, so only its methods are resolvable by name; the
        rest of the body runs here, binding class attributes."""
        keywords = [keyword.value for keyword in node.keywords]
        for expression in node.decorator_list + node.bases + keywords:
            self._expr(expression)
        registered = "." not in qualname
        outer = self.module_scope, self.scope
        self.module_scope, self.scope = False, f"{qualname}."
        for statement in node.body:
            if registered and isinstance(statement, _DEFS):
                self._define(statement, statement.name, class_name=node.name)
                continue
            if registered and isinstance(statement, (ast.Assign, ast.AnnAssign)):
                self._hook(node.name, statement)
            self._statement(statement)
        self.module_scope, self.scope = outer
        if registered:
            methods = tuple(d.name for d in node.body if isinstance(d, _DEFS))
            self.x.classes.append((node.name, methods))

    def _hook(self, class_name: str, node: "ast.Assign | ast.AnnAssign") -> None:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        value = node.value
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id == "__workspace_hook__"
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                self.x.hooks.append(
                    (class_name, value.value, node.lineno, node.col_offset + 1)
                )

    def _registry_literal(self, node: "ast.Assign | ast.AnnAssign") -> None:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        value = node.value
        if value is None or not isinstance(value, ast.Dict):
            return
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "WORKSPACE_HOOKS":
                for key in value.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        self.x.registry_keys.append(key.value)

    # -- statements -----------------------------------------------------
    def _statement(self, node: ast.stmt) -> None:
        if isinstance(node, _DEFS):
            self._define(node, self.scope + node.name)
            return
        if isinstance(node, ast.ClassDef):
            self._class(node, self.scope + node.name)
            return
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # function-local imports are conservatively not tracked
            if self.module_scope:
                record_import(node, self.x.import_modules, self.x.import_objects)
            return
        if isinstance(node, ast.With):
            self._with(node)
            return
        if isinstance(node, ast.AsyncWith):
            # asyncio primitives, not threading locks: analyse the body
            # without touching the lock stack (the item expressions may
            # still contain calls worth recording)
            for item in node.items:
                self._expr(item.context_expr)
            for statement in node.body:
                self._statement(statement)
            return
        if isinstance(node, ast.Assign):
            deps = self._expr(node.value)
            self._track_lock_alias(node)
            for target in node.targets:
                self._assign_target(target, node.value, deps)
            if self.module_scope:
                self._registry_literal(node)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                deps = self._expr(node.value)
                self._assign_target(node.target, node.value, deps)
                if self.module_scope:
                    self._registry_literal(node)
            return
        if isinstance(node, ast.AugAssign):
            deps = self._expr(node.value)
            if isinstance(node.target, ast.Name):
                existing = self.env.setdefault(node.target.id, _Deps())
                existing.merge(deps)
            return
        if isinstance(node, ast.Return):
            if node.value is not None:
                self.return_deps.merge(self._expr(node.value))
            return
        if isinstance(node, ast.Expr):
            self._expr(node.value)
            return
        # compound statements: evaluate tests/iterables, then bodies in
        # source order (flow-insensitive on branches — good enough for
        # the shapes these rules target)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._statement(child)
            elif isinstance(child, ast.expr):
                self._expr(child)
            elif isinstance(child, ast.ExceptHandler):
                for statement in child.body:
                    self._statement(statement)

    def _with(self, node: ast.With) -> None:
        acquired: List[str] = []
        for item in node.items:
            self._expr(item.context_expr)
            label = self._lock_label(item.context_expr)
            if label:
                self.acquisitions.append(
                    LockEvent(
                        name=label,
                        held=tuple(self.lock_stack),
                        line=item.context_expr.lineno,
                        col=item.context_expr.col_offset + 1,
                    )
                )
                self.lock_stack.append(label)
                acquired.append(label)
        for statement in node.body:
            self._statement(statement)
        for _ in acquired:
            self.lock_stack.pop()

    def _assign_target(
        self, target: ast.expr, value: ast.expr, deps: _Deps
    ) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = _Deps(
                deps.tainted, deps.taint_line, set(deps.calls), set(deps.params)
            )
            if deps.interesting and FINGERPRINT_NAME.search(target.id):
                self._sink("fingerprint", target.id, target, deps)
        elif isinstance(target, ast.Attribute):
            if deps.interesting and FINGERPRINT_NAME.search(target.attr):
                self._sink("fingerprint", target.attr, target, deps)
        elif isinstance(target, ast.Subscript):
            memo = self._memo_name(target.value)
            if memo:
                key_deps = self._expr(target.slice)
                if key_deps.interesting:
                    self._sink("memo-key", memo, target, key_deps)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign_target(element, value, deps)

    def _track_lock_alias(self, node: ast.Assign) -> None:
        """``build_lock = self._build_locks[key] = threading.Lock()`` and
        ``build_lock = self._build_locks.get(key)`` bind a lock label."""
        label = self._lockish_source(node.value)
        for target in node.targets:
            source = label or self._lockish_source(target)
            if source:
                label = source
        if label:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.lock_aliases[target.id] = label

    def _is_label(self, name: str) -> bool:
        return bool(LOCK_NAME.search(name) and name not in _LOCK_CONSTRUCTORS)

    def _lockish_source(self, node: ast.expr) -> str:
        """A lock label buried in ``node`` (attribute/subscript/call chain)."""
        for child in ast.walk(node):
            if isinstance(child, ast.Attribute) and self._is_label(child.attr):
                return child.attr
        return ""

    def _lock_label(self, node: ast.expr) -> str:
        """The lock label of a ``with`` context expression, or ''."""
        if isinstance(node, ast.Attribute):
            return node.attr if self._is_label(node.attr) else ""
        if isinstance(node, ast.Name):
            alias = self.lock_aliases.get(node.id)
            if alias:
                return alias
            return node.id if self._is_label(node.id) else ""
        if isinstance(node, ast.Subscript):
            return self._lock_label(node.value)
        if isinstance(node, ast.Call):
            # ``with self._lock_for(key):`` — a lock factory
            return self._lock_label(node.func)
        return ""

    # -- expressions ----------------------------------------------------
    def _expr(self, node: Optional[ast.expr]) -> _Deps:
        deps = _Deps()
        if node is None:
            return deps
        if isinstance(node, ast.Await):
            self.awaits.append(
                AwaitEvent(
                    held=tuple(self.lock_stack),
                    line=node.lineno,
                    col=node.col_offset + 1,
                )
            )
            if isinstance(node.value, ast.Call):
                self._awaited_calls.add(id(node.value))
            deps.merge(self._expr(node.value))
            return deps
        if isinstance(node, ast.Name):
            if node.id in self.env:
                deps.merge(self.env[node.id])
            elif node.id in self.param_index:
                deps.params.add(self.param_index[node.id])
            return deps
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Subscript):
            memo = self._memo_name(node.value)
            key_deps = self._expr(node.slice)
            if memo and key_deps.interesting:
                self._sink("memo-key", memo, node, key_deps)
            deps.merge(key_deps)
            deps.merge(self._expr(node.value) if not memo else _Deps())
            return deps
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                deps.merge(self._expr(generator.iter))
                for condition in generator.ifs:
                    deps.merge(self._expr(condition))
            if isinstance(node, ast.DictComp):
                deps.merge(self._expr(node.key))
                deps.merge(self._expr(node.value))
            else:
                deps.merge(self._expr(node.elt))
            return deps
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                deps.merge(self._expr(child))
            elif isinstance(child, ast.keyword):
                deps.merge(self._expr(child.value))
        return deps

    def _call(self, node: ast.Call) -> _Deps:
        deps = _Deps()
        # the callee expression runs first: record the calls, awaits and
        # sinks inside it (``LanguageIndex(g).restricted(2)``), but its
        # dataflow is the receiver's, not this call's result
        func = node.func
        if isinstance(func, ast.Attribute):
            self._expr(func.value)
        elif not isinstance(func, ast.Name):
            self._expr(func)
        kind, _ = entropy_source(node, self.x.import_modules, self.x.import_objects)
        entropy_line = node.lineno if kind else 0
        arg_deps_list: List[ArgDep] = []
        for position, argument in enumerate(node.args):
            arg = self._expr(argument)
            deps.merge(arg)
            if arg.interesting:
                arg_deps_list.append(
                    ArgDep(
                        position=position,
                        tainted=arg.tainted,
                        taint_line=arg.taint_line,
                        dep_calls=tuple(sorted(arg.calls)),
                        dep_params=tuple(sorted(arg.params)),
                    )
                )
        for keyword in node.keywords:
            deps.merge(self._expr(keyword.value))
        ref = self._call_ref(node)
        if ref is not None:
            kind, name, receiver = ref
            self.calls.append(
                CallSite(
                    kind=kind,
                    name=name,
                    receiver=receiver,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    locks_held=tuple(self.lock_stack),
                    arg_deps=tuple(arg_deps_list),
                    awaited=id(node) in self._awaited_calls,
                )
            )
            deps.calls.add(ref)
            # result-row sink: <storeish>.append(row)
            if (
                kind == "attr"
                and name == "append"
                and receiver
                and RESULT_STORE.search(receiver)
            ):
                for arg in arg_deps_list:
                    self._sink(
                        "result-row",
                        receiver,
                        node,
                        _Deps(
                            arg.tainted,
                            arg.taint_line,
                            set(arg.dep_calls),
                            set(arg.dep_params),
                        ),
                    )
            # memo-key sink: self._memo.get(key) / .setdefault(key, v) / .pop(key)
            if kind == "attr" and name in {"get", "setdefault", "pop"}:
                func = node.func
                if isinstance(func, ast.Attribute):
                    memo = self._memo_name(func.value)
                    if memo and arg_deps_list:
                        first = arg_deps_list[0]
                        if first.position == 0:
                            self._sink(
                                "memo-key",
                                memo,
                                node,
                                _Deps(
                                    first.tainted,
                                    first.taint_line,
                                    set(first.dep_calls),
                                    set(first.dep_params),
                                ),
                            )
        if entropy_line:
            deps.tainted = True
            deps.taint_line = entropy_line
        return deps

    def _call_ref(self, node: ast.Call) -> Optional[CallRef]:
        func = node.func
        if isinstance(func, ast.Name):
            alias = self.x.import_objects.get(func.id)
            if alias is not None:
                # ``from m import f [as g]`` → resolve under m
                return ("module", alias[1], alias[0])
            return ("name", func.id, "")
        if isinstance(func, ast.Attribute):
            owner = func.value
            if isinstance(owner, ast.Name):
                if owner.id == "self":
                    return ("self", func.attr, "")
                if owner.id in self.x.import_modules:
                    return ("module", func.attr, self.x.import_modules[owner.id])
                return ("attr", func.attr, owner.id)
            if isinstance(owner, ast.Attribute):
                # self.engine.refresh(...) → attr call, receiver "engine"
                return ("attr", func.attr, owner.attr)
            return ("attr", func.attr, "")
        return None

    def _memo_name(self, node: ast.expr) -> str:
        """The memo-ish name behind a subscripted/queried container."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and MEMO_NAME.search(node.attr)
        ):
            return node.attr
        if isinstance(node, ast.Name) and MEMO_NAME.search(node.id):
            return node.id
        return ""

    def _sink(self, kind: str, detail: str, node: ast.expr, deps: _Deps) -> None:
        self.sinks.append(
            Sink(
                kind=kind,
                detail=detail,
                line=node.lineno,
                col=node.col_offset + 1,
                tainted=deps.tainted,
                taint_line=deps.taint_line,
                dep_calls=tuple(sorted(deps.calls)),
                dep_params=tuple(sorted(deps.params)),
            )
        )


def extract_module(
    source: str, path: str, tree: Optional[ast.Module] = None
) -> ModuleSummary:
    """Summarise one module for the semantic pass.

    ``tree`` lets the lint runner reuse the parse it already did for the
    syntactic families; when omitted the source is parsed here.  A file
    that does not parse yields an empty summary — the runner reports
    ``REP003`` separately.
    """
    module = module_name_for(path)
    if tree is None:
        try:
            tree = ast.parse(source)
        except SyntaxError:
            return ModuleSummary(module=module, path=path)
    return _ModuleExtractor(module, path).extract(tree)
