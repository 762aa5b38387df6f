"""Data model of the semantic pass: per-module summaries.

The semantic layer splits cleanly in two:

* **extraction** (:mod:`repro.devtools.semantic.extract`) — a pure
  function of one module's syntax tree producing a
  :class:`ModuleSummary`: every function's call sites (with the locks
  lexically held at each), lock acquisitions, awaits, entropy
  sources/sinks and the local dataflow that connects them, plus the
  module's classes, imports and ``__workspace_hook__`` declarations.
  Extraction sees one file at a time and nothing else.
* **resolution** (:mod:`repro.devtools.semantic.callgraph`) — links the
  summaries into a project-wide call graph and computes the transitive
  closures the interprocedural rules consume (locks a call may acquire,
  builds it may reach, entropy a return value may carry).

Everything here is a frozen dataclass of primitives and tuples, so two
extractions of the same source compare equal and every rule iterates
them in a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

#: an unresolved reference to a call: (kind, name, receiver) where kind
#: is "name" (bare call), "self" (``self.m()``), "attr" (method call on
#: an opaque receiver) or "module" (``alias.f()`` with ``alias`` an
#: imported module)
CallRef = Tuple[str, str, str]


@dataclass(frozen=True)
class ArgDep:
    """What one positional argument of a call derives from, locally."""

    position: int
    #: the argument expression contains a direct entropy source
    tainted: bool = False
    #: line of the local entropy source feeding it (0: none recorded)
    taint_line: int = 0
    #: calls whose return value feeds the argument expression
    dep_calls: Tuple[CallRef, ...] = ()
    #: caller parameter indices feeding the argument expression
    dep_params: Tuple[int, ...] = ()


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    kind: str  # "name" | "self" | "attr" | "module"
    name: str
    receiver: str  # module alias for kind="module", else ""
    line: int
    col: int
    #: lock labels lexically held (``with``-stack) at the call
    locks_held: Tuple[str, ...] = ()
    #: argument dependencies worth recording (taint/call/param deps only)
    arg_deps: Tuple[ArgDep, ...] = ()
    awaited: bool = False

    @property
    def ref(self) -> CallRef:
        return (self.kind, self.name, self.receiver)


@dataclass(frozen=True)
class LockEvent:
    """One lock acquisition (``with <lock>:``) inside a function body."""

    name: str
    #: lock labels already held when this one is acquired
    held: Tuple[str, ...]
    line: int
    col: int


@dataclass(frozen=True)
class AwaitEvent:
    """One ``await`` expression and the lock labels held around it."""

    held: Tuple[str, ...]
    line: int
    col: int


@dataclass(frozen=True)
class Sink:
    """One entropy-sensitive position: memo key, fingerprint, result row."""

    kind: str  # "memo-key" | "fingerprint" | "result-row"
    detail: str  # the memo attribute / fingerprint name / store receiver
    line: int
    col: int
    #: the sink expression contains a direct entropy source
    tainted: bool = False
    taint_line: int = 0
    #: calls whose return value feeds the sink expression
    dep_calls: Tuple[CallRef, ...] = ()
    #: function parameters feeding the sink expression
    dep_params: Tuple[int, ...] = ()


@dataclass(frozen=True)
class FunctionSummary:
    """Everything the semantic rules need to know about one function.

    Module-level functions and the methods of module-level classes are
    what calls resolve to.  A nested ``def`` is summarised under its
    dotted Python qualname (``name = "outer.<locals>.inner"``, no class)
    and the module's own top-level statements as ``name = "<module>"``;
    no call names either, so both are checked but never reached.
    """

    module: str
    qualname: str  # "pkg.mod::Class.method" / "pkg.mod::func"
    name: str
    class_name: str  # "" unless a method of a module-level class
    line: int
    col: int
    is_async: bool
    params: Tuple[str, ...]
    calls: Tuple[CallSite, ...] = ()
    acquisitions: Tuple[LockEvent, ...] = ()
    awaits: Tuple[AwaitEvent, ...] = ()
    #: a direct entropy source flows into this function's return value
    entropy_return: bool = False
    entropy_line: int = 0
    #: calls whose return value feeds this function's return value
    return_dep_calls: Tuple[CallRef, ...] = ()
    #: parameters that flow through into the return value
    return_dep_params: Tuple[int, ...] = ()
    sinks: Tuple[Sink, ...] = ()


@dataclass(frozen=True)
class ModuleSummary:
    """The per-module analysis result."""

    module: str  # dotted module name derived from the relpath
    path: str  # repo-root-relative posix path (diagnostic anchor)
    functions: Tuple[FunctionSummary, ...] = ()
    #: (class name, tuple of method names) per class defined here
    classes: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    #: (class name, hook string, line, col) per ``__workspace_hook__``
    hooks: Tuple[Tuple[str, str, int, int], ...] = ()
    #: keys of a module-level ``WORKSPACE_HOOKS`` dict literal, if any
    registry_keys: Tuple[str, ...] = ()
    #: ``import x.y as z`` → (z, "x.y")
    import_modules: Tuple[Tuple[str, str], ...] = ()
    #: ``from m import f as g`` → (g, "m", "f")
    import_objects: Tuple[Tuple[str, str, str], ...] = ()


@dataclass
class ProjectModel:
    """The resolved whole-program view handed to semantic rules."""

    #: relpath -> summary, in sorted-path order
    modules: Dict[str, ModuleSummary] = field(default_factory=dict)
    #: qualname -> summary
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    #: (module, function name) -> qualname (module-level defs)
    module_functions: Dict[Tuple[str, str], str] = field(default_factory=dict)
    #: method name -> sorted qualnames across every class
    methods_by_name: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: class name -> {method name -> qualname} (merged across modules)
    class_methods: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: class name -> defining module (first seen wins, sorted order)
    class_modules: Dict[str, str] = field(default_factory=dict)
    #: union of every module's WORKSPACE_HOOKS keys
    registry_keys: frozenset = frozenset()
    #: True when some linted module defines WORKSPACE_HOOKS at all
    has_registry: bool = False
    #: dotted module name -> repo-relative path (diagnostic anchoring)
    module_paths: Dict[str, str] = field(default_factory=dict)

    def modules_path(self, module: str) -> str:
        """The relpath of ``module`` (falls back to the dotted name)."""
        return self.module_paths.get(module, module)
