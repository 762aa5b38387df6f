"""REP100 — determinism discipline.

Every seeded path in this repository must draw randomness from an
explicit ``random.Random(seed)`` instance (the PR 2 CRC32 lesson), never
from the module-level ``random.*`` API whose hidden global state makes
replay depend on call order across subsystems; nothing may key
persisted or seeded behaviour on the builtin ``hash()`` (PYTHONHASHSEED
salts string hashing per process); and nothing may iterate a ``set`` in
an order-sensitive position, because set order of salted keys differs
across processes.

Sub-rules:

* ``REP101`` — call of a module-level ``random`` function
  (``random.random()``, ``random.choice()``, or a name imported with
  ``from random import …``);
* ``REP102`` — ``random.Random()`` constructed **without** a seed
  argument (an unseeded generator seeded from OS entropy; route through
  :func:`repro.determinism.entropy_seed`, the one sanctioned hatch);
* ``REP103`` — builtin ``hash()`` call outside a ``__hash__`` method
  (in-process dict/set keying is what ``__hash__`` is for; everything
  else must use a stable digest such as ``zlib.crc32``);
* ``REP104`` — iteration over an expression the checker can prove is a
  ``set``/``frozenset`` in an order-sensitive position (``for``,
  comprehensions, ``list()``/``tuple()``/``join``); wrap in
  ``sorted(…)`` or restructure.

REP101–103 classify calls with :func:`repro.devtools.entropy.entropy_source`,
the same table REP110 follows into memo keys, fingerprints and rows.

Heuristic by design: a set reaching a loop through an opaque variable is
not flagged — the rule catches the direct patterns that have actually
bitten this codebase, and the allowlist/suppressions document the rest.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.devtools.config import LintConfig
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.entropy import entropy_source, record_import
from repro.devtools.registry import FileContext, rule

#: order-insensitive consumers: iterating a set through these is sound
_ORDER_FREE_CALLS = frozenset(
    {"sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset"}
)

_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, ctx: FileContext, config: LintConfig):
        self.ctx = ctx
        self.config = config
        self.diagnostics: List[Diagnostic] = []
        #: import bindings seen so far (see :func:`record_import`)
        self.modules: Dict[str, str] = {}
        self.objects: Dict[str, Tuple[str, str]] = {}
        self._function_stack: List[str] = []
        #: per-scope map of names the checker knows to be sets
        self._set_scopes: List[Set[str]] = [set()]
        #: comprehensions consumed by order-free reducers (any(), sum(), …)
        self._order_free_nodes: Set[int] = set()

    # -- bookkeeping ---------------------------------------------------
    def visit_Import(self, node: "ast.Import | ast.ImportFrom") -> None:
        record_import(node, self.modules, self.objects)

    visit_ImportFrom = visit_Import

    def _visit_function(self, node: ast.AST, name: str) -> None:
        self._function_stack.append(name)
        self._set_scopes.append(set())
        self.generic_visit(node)
        self._set_scopes.pop()
        self._function_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if self._is_setish(node.value):
                self._set_scopes[-1].add(name)
            else:
                self._set_scopes[-1].discard(name)
        self.generic_visit(node)

    # -- the checks ----------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in _ORDER_FREE_CALLS:
            # a comprehension fed straight into an order-free reducer is
            # sound however the underlying set iterates
            for argument in node.args:
                if isinstance(
                    argument, (ast.GeneratorExp, ast.ListComp, ast.SetComp)
                ):
                    self._order_free_nodes.add(id(argument))
        kind, name = entropy_source(node, self.modules, self.objects)
        if kind == "random":
            where = (
                f"module-level {name}()"
                if isinstance(func, ast.Attribute)
                else f"{name}() imported at module level"
            )
            self._emit(
                node,
                "REP101",
                f"{where} draws from hidden global state; use an explicit "
                "random.Random(seed)",
                symbol=name,
            )
        elif kind == "unseeded":
            self._emit(
                node,
                "REP102",
                "unseeded random.Random() seeds from OS entropy; route "
                "through repro.determinism.entropy_seed()",
                symbol=name,
            )
        elif kind == "hash" and "__hash__" not in self._function_stack:
            self._emit(
                node,
                "REP103",
                "builtin hash() outside __hash__ is PYTHONHASHSEED-salted "
                "for strings; use a stable digest (zlib.crc32, hashlib)",
                symbol=name,
            )
        elif isinstance(func, ast.Name):
            if func.id in {"list", "tuple"} and node.args:
                if self._is_setish(node.args[0]):
                    self._emit(
                        node,
                        "REP104",
                        f"{func.id}() over a set materialises nondeterministic "
                        "order; wrap the set in sorted(...)",
                        symbol=f"{func.id}(set)",
                    )
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        if id(node) not in self._order_free_nodes:
            for generator in node.generators:  # type: ignore[attr-defined]
                self._check_iteration(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def _check_iteration(self, iterable: ast.expr) -> None:
        if self._is_setish(iterable):
            self._emit(
                iterable,
                "REP104",
                "iteration over a set is order-nondeterministic across "
                "processes; wrap in sorted(...) or iterate a list",
                symbol="iter(set)",
            )

    # -- set-ness heuristic --------------------------------------------
    def _is_setish(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Set):
            return True
        if isinstance(node, ast.SetComp):
            return True
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in self._set_scopes)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
                return True
            if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
                return self._is_setish(func.value)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
        ):
            return self._is_setish(node.left) or self._is_setish(node.right)
        return False

    def _emit(
        self, node: ast.AST, rule_id: str, message: str, *, symbol: str
    ) -> None:
        self.diagnostics.append(
            Diagnostic(
                self.ctx.path,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0) + 1,
                rule_id,
                message,
                symbol=symbol,
            )
        )


@rule("REP100", "determinism: explicit RNGs, stable hashes, ordered iteration")
def check_determinism(ctx: FileContext, config: LintConfig) -> Iterator[Diagnostic]:
    """Run the determinism family over one file."""
    visitor = _DeterminismVisitor(ctx, config)
    visitor.visit(ctx.tree)
    return iter(visitor.diagnostics)
