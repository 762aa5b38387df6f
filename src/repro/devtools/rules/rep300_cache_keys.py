"""REP300 — cache-key discipline.

Every memo in this codebase caches a value derived from a mutable
structure (a graph, a DFA), so every memo must witness the structure's
revision in its key — ``(graph.version, …)`` — or store a revision
marker next to the value and check it on read (the ``_GraphCache``
idiom).  A memo whose key mentions neither is exactly the bug class
PRs 1/3/5 spent commits hunting: stale answers served after a mutation.

Sub-rules:

* ``REP301`` — a ``self.<attr>`` initialised to a dict-like container
  whose name looks memo-ish (:data:`MEMO_NAME`) where **no**
  store/lookup site in the class mentions a version/fingerprint marker
  identifier (:data:`KEY_MARKERS`) in its key *or* stored value
  expression.
* ``REP302`` — a class that *snapshots* a version counter into an
  instance attribute (``self.<...version...> = <expr mentioning a
  version>``) is a version-keyed cache, and since the delta-journal PR
  every such structure must be reachable by
  :meth:`GraphWorkspace.refresh
  <repro.serving.workspace.GraphWorkspace.refresh>` — it declares which
  invalidation path owns it via a ``__workspace_hook__`` class attribute
  naming a hook registered in
  :data:`repro.serving.invalidation.WORKSPACE_HOOKS` — or it carries a
  justified suppression explaining why staleness cannot leak (pure value
  snapshots that fail loudly on access, for instance).

The rule is deliberately heuristic: it looks at the identifiers
appearing in key/value expressions, not at data flow.  Memos whose keys
are constructed by callers (the workspace cross-session memo) or whose
values are revision-free by construction (the expression-plan LRU) are
exempted in the project config allowlist, each with its soundness
argument next to the entry.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Set

from repro.devtools.config import LintConfig
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.registry import FileContext, rule

#: memo-like attribute names (REP301; REP110 reads the same pattern
#: to find memo-key sinks)
MEMO_NAME = re.compile(r"cache|memo|plans|answers|entries")

#: identifier substrings that prove a version/fingerprint-aware key
KEY_MARKERS = ("version", "fingerprint", "digest", "signature", "plan_id", "crc", "sha")

_DICT_CONSTRUCTORS = {"dict", "OrderedDict", "defaultdict", "WeakKeyDictionary", "WeakValueDictionary"}


def _is_dictish(node: ast.expr) -> bool:
    if isinstance(node, ast.Dict):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        return name in _DICT_CONSTRUCTORS
    return False


def _identifiers(node: ast.AST) -> Set[str]:
    """Every Name id and Attribute attr appearing under ``node``."""
    found: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif isinstance(child, ast.Call):
            func = child.func
            if isinstance(func, ast.Attribute):
                found.add(func.attr)
            elif isinstance(func, ast.Name):
                found.add(func.id)
    return found


def _self_attr(node: ast.expr) -> str:
    """``self.<attr>`` → attr name, else ''."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return ""


class _ClassMemoAudit(ast.NodeVisitor):
    """Collect memo attributes and their key/value identifier sets."""

    def __init__(self) -> None:
        #: memo attr -> init node (first dict-ish assignment seen)
        self.found: Dict[str, ast.AST] = {}
        #: memo attr -> identifiers seen across every key/value expression
        self.evidence: Dict[str, Set[str]] = {}
        #: the class carries a version-ish attribute of its own (the
        #: ``_GraphCache`` idiom: revision stored next to the dict and
        #: checked on read) — counts as evidence for all its memos
        self.class_markers: Set[str] = set()
        #: locals of the function currently being visited -> RHS
        #: identifiers, so ``self._x[graph] = cache`` sees through the
        #: ``cache = _GraphCache(graph.version)`` line above it
        self._locals: List[Dict[str, Set[str]]] = []

    def _record(self, attr: str, *exprs: ast.AST) -> None:
        bucket = self.evidence.setdefault(attr, set())
        for expr in exprs:
            identifiers = _identifiers(expr)
            bucket |= identifiers
            if self._locals:
                for name in tuple(identifiers):
                    bucket |= self._locals[-1].get(name, set())

    def _visit_function(self, node: ast.AST) -> None:
        self._locals.append({})
        self.generic_visit(node)
        self._locals.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            attr = _self_attr(target)
            if attr:
                if MEMO_NAME.search(attr) and _is_dictish(node.value):
                    self.found.setdefault(attr, node)
                lowered = attr.lower()
                if any(marker in lowered for marker in KEY_MARKERS):
                    self.class_markers.add(attr)
            if isinstance(target, ast.Name) and self._locals:
                self._locals[-1].setdefault(target.id, set()).update(
                    _identifiers(node.value)
                )
            # self._memo[key] = value
            if isinstance(target, ast.Subscript):
                attr = _self_attr(target.value)
                if attr:
                    self._record(attr, target.slice, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        attr = _self_attr(node.target)
        if (
            attr
            and node.value is not None
            and MEMO_NAME.search(attr)
            and _is_dictish(node.value)
        ):
            self.found.setdefault(attr, node)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        attr = _self_attr(node.value)
        if attr:
            self._record(attr, node.slice)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # self._memo.get(key[, default]) / .setdefault(key, value) / .pop(key)
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in {
            "get",
            "setdefault",
            "pop",
        }:
            attr = _self_attr(func.value)
            if attr and node.args:
                self._record(attr, *node.args)
        self.generic_visit(node)


def _mentions_version(node: ast.expr) -> bool:
    """Does ``node`` reference a version-ish identifier (not a constant)?"""
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and "version" in child.attr.lower():
            return True
        if isinstance(child, ast.Name) and "version" in child.id.lower():
            return True
    return False


def _declared_hook(class_node: ast.ClassDef) -> bool:
    """Does the class body assign a string to ``__workspace_hook__``?"""
    for statement in class_node.body:
        targets = []
        if isinstance(statement, ast.Assign):
            targets = statement.targets
            value = statement.value
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            targets = [statement.target]
            value = statement.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__workspace_hook__":
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    return True
    return False


def _version_snapshots(class_node: ast.ClassDef) -> Iterator[ast.stmt]:
    """Statements of the form ``self.<...version...> = <version expr>``."""
    seen: Set[str] = set()
    for node in ast.walk(class_node):
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        for target in targets:
            attr = _self_attr(target)
            if (
                attr
                and "version" in attr.lower()
                and attr not in seen
                and _mentions_version(value)
            ):
                seen.add(attr)
                yield node


@rule("REP300", "cache-key discipline: memos must witness version/fingerprint")
def check_cache_keys(ctx: FileContext, config: LintConfig) -> Iterator[Diagnostic]:
    """Flag memo attributes with no version/fingerprint evidence."""
    diagnostics: List[Diagnostic] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        # REP302: version snapshots must declare their invalidation hook
        if not _declared_hook(node):
            for snapshot in _version_snapshots(node):
                attr = ""
                if isinstance(snapshot, ast.Assign):
                    attr = next(
                        (a for a in map(_self_attr, snapshot.targets) if a), ""
                    )
                elif isinstance(snapshot, ast.AnnAssign):
                    attr = _self_attr(snapshot.target)
                diagnostics.append(
                    Diagnostic(
                        ctx.path,
                        getattr(snapshot, "lineno", 1),
                        getattr(snapshot, "col_offset", 0) + 1,
                        "REP302",
                        f"{node.name}.{attr} snapshots a graph/structure "
                        "version but the class declares no __workspace_hook__; "
                        "register the invalidation path that refreshes it "
                        "(repro.serving.invalidation.WORKSPACE_HOOKS) or "
                        "suppress with the reason staleness cannot leak",
                        symbol=attr,
                    )
                )
        audit = _ClassMemoAudit()
        audit.visit(node)
        for attr, init_node in sorted(audit.found.items()):
            if audit.class_markers:
                continue  # revision lives beside the dict (checked on read)
            identifiers = {name.lower() for name in audit.evidence.get(attr, set())}
            if any(
                marker in identifier
                for identifier in identifiers
                for marker in KEY_MARKERS
            ):
                continue
            diagnostics.append(
                Diagnostic(
                    ctx.path,
                    getattr(init_node, "lineno", 1),
                    getattr(init_node, "col_offset", 0) + 1,
                    "REP301",
                    f"memo {node.name}.{attr} never mentions a version/"
                    "fingerprint marker in any key or stored value; key it on "
                    "(graph.version, ...) or a content fingerprint",
                    symbol=attr,
                )
            )
    return iter(diagnostics)
