"""REP400 / REP700 — concurrency invariants over the extracted call sites.

The serving layer's locking scheme is deadlock-free only because of an
ordering invariant: the registry lock (``self._lock``) is taken for
dictionary bookkeeping **only** and never held across an index build;
cold builds serialise on per-key build locks taken while *not* holding
the registry lock.  A build creeping under the registry lock
reintroduces the N-session convoy (and the deadlock, once a build
re-enters a registry accessor).

* **REP401** registry lock held across a build call made right there:
  a :data:`BUILD_CALLS` call site whose lexically held locks include a
  :data:`GUARD_LOCKS` label.  Per-key build locks (any other name, e.g.
  ``build_lock``) are exempt by construction — being held across the
  build is their purpose.  A ``def`` merely *defined* under the lock is
  not a build under it: its body runs when called, without the lock.
* **REP402** bare ``.acquire()`` on a registry lock: acquisition must
  use ``with`` so no exception path leaks the lock.
* **REP701** lock-order cycle: the project-wide lock-acquisition graph
  (label ``A`` → label ``B`` when some execution path acquires ``B``
  while holding ``A``, directly or through calls) contains a cycle over
  two or more labels.  Two threads traversing such a cycle from
  different ends deadlock.  Single-label self-edges are dropped: lock
  identity is tracked by *name*, and the repo's registry locks are
  reentrant ``RLock``s, so ``_lock`` → ``_lock`` is the documented
  reentrancy idiom rather than a self-deadlock the analysis could
  actually prove.
* **REP702** registry lock held across a build, transitively: the
  lock-holding function calls a helper and the helper (or something it
  calls) does the building.  REP401 is the zero-hop case of the same
  check.
* **REP703** event-loop starvation: an ``await`` (or a synchronous
  ``asyncio.run``/``run_until_complete`` bridge) reachable while a
  ``threading`` lock is held.  The awaiting coroutine parks holding the
  lock; any thread then contending that lock blocks for an arbitrary
  number of scheduler turns.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set, Tuple

from repro.devtools.config import LintConfig
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.registry import semantic_rule
from repro.devtools.semantic.callgraph import closure, resolve
from repro.devtools.semantic.model import ProjectModel

#: lock labels that are registry locks: never held across a build
GUARD_LOCKS = frozenset({"_lock", "_DEFAULT_LOCK"})

#: callables whose invocation counts as "a build"
BUILD_CALLS = frozenset(
    {
        "LanguageIndex",
        "SessionClassifier",
        "restricted",
        "refreshed",
        "classify_all_scratch",
    }
)

#: provenance of one lock-graph edge: (path, line, col, human explanation)
_Edge = Tuple[str, int, int, str]


def _lock_edges(
    model: ProjectModel, acquire: Dict[str, Set[str]]
) -> Dict[Tuple[str, str], _Edge]:
    """The lock-order graph with first-witness provenance per edge."""
    edges: Dict[Tuple[str, str], _Edge] = {}

    def record(held: str, taken: str, witness: _Edge) -> None:
        if held == taken:
            return  # reentrant re-acquisition, not an ordering edge
        edges.setdefault((held, taken), witness)

    for qualname in sorted(model.functions):
        function = model.functions[qualname]
        path = model.modules_path(function.module)
        for event in function.acquisitions:
            for held in event.held:
                record(
                    held,
                    event.name,
                    (path, event.line, event.col,
                     f"{function.qualname} acquires {event.name} while holding {held}"),
                )
        for call in function.calls:
            if not call.locks_held:
                continue
            for callee in resolve(model, function, call.ref):
                for taken in sorted(acquire.get(callee, ())):
                    for held in call.locks_held:
                        record(
                            held,
                            taken,
                            (path, call.line, call.col,
                             f"{function.qualname} holds {held} while calling "
                             f"{callee}, which may acquire {taken}"),
                        )
    return edges


def _cycles(edges: Iterable[Tuple[str, str]]) -> List[Tuple[str, ...]]:
    """Strongly connected components with ≥2 labels (Tarjan, iterative
    over sorted adjacency, so output order is deterministic)."""
    graph: Dict[str, List[str]] = {}
    for source, target in edges:
        graph.setdefault(source, []).append(target)
        graph.setdefault(target, [])
    for source in graph:
        graph[source].sort()

    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    components: List[Tuple[str, ...]] = []

    def strongconnect(root: str) -> None:
        work = [(root, iter(graph[root]))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in index:
                    index[successor] = lowlink[successor] = counter[0]
                    counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(graph[successor])))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    components.append(tuple(sorted(component)))

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    return components


@semantic_rule("REP701", "REP700", "lock-order cycle across functions")
def check_lock_order(
    model: ProjectModel, config: LintConfig
) -> Iterable[Diagnostic]:
    acquire = closure(  # lock labels each function may acquire, transitively
        model,
        {
            qualname: {event.name for event in function.acquisitions}
            for qualname, function in model.functions.items()
        },
    )
    edges = _lock_edges(model, acquire)
    for component in _cycles(edges.keys()):
        members = set(component)
        witnesses = sorted(
            (pair, provenance)
            for pair, provenance in edges.items()
            if pair[0] in members and pair[1] in members
        )
        if not witnesses:
            continue
        (first_pair, (path, line, col, _)) = witnesses[0]
        detail = "; ".join(
            f"{held}->{taken} ({w_path}:{w_line}: {why})"
            for (held, taken), (w_path, w_line, _c, why) in witnesses
        )
        yield Diagnostic(
            path,
            line,
            col,
            "REP701",
            f"lock-order cycle over {{{', '.join(component)}}}: {detail}",
            symbol="->".join(component),
        )


def _builds_under_guard(
    model: ProjectModel, transitive: bool
) -> Iterator[Diagnostic]:
    """Builds run while a registry lock is held: called right at the
    call site (REP401) or, with ``transitive``, reached through the
    callee (REP702) — one check, split by hop count."""
    builds: Dict[str, Set[str]] = {}
    if transitive:
        builds = closure(
            model,
            {
                qualname: {c.name for c in function.calls if c.name in BUILD_CALLS}
                for qualname, function in model.functions.items()
            },
        )
    for qualname in sorted(model.functions):
        function = model.functions[qualname]
        path = model.modules_path(function.module)
        for call in function.calls:
            guards = [name for name in call.locks_held if name in GUARD_LOCKS]
            if not guards:
                continue
            if call.name in BUILD_CALLS:
                if not transitive:
                    yield Diagnostic(
                        path,
                        call.line,
                        call.col,
                        "REP401",
                        f"build call {call.name}(...) while holding registry "
                        f"lock {guards[-1]}; build outside the lock and re-check "
                        "(double-checked per-key build locks)",
                        symbol=call.name,
                    )
            elif transitive:
                reached: Set[str] = set()
                for callee in resolve(model, function, call.ref):
                    reached |= builds[callee]
                if reached:
                    yield Diagnostic(
                        path,
                        call.line,
                        call.col,
                        "REP702",
                        f"{guards[0]} is held across a call to {call.name}(), "
                        f"which may run build(s) {', '.join(sorted(reached))}; "
                        "release the registry lock before building "
                        "(double-checked pattern)",
                        symbol=call.name,
                    )


@semantic_rule("REP401", "REP400", "registry lock held across a build call")
def check_build_under_lock(
    model: ProjectModel, config: LintConfig
) -> Iterable[Diagnostic]:
    return _builds_under_guard(model, transitive=False)


@semantic_rule("REP402", "REP400", "bare acquire() on a registry lock")
def check_bare_acquire(
    model: ProjectModel, config: LintConfig
) -> Iterable[Diagnostic]:
    for qualname in sorted(model.functions):
        function = model.functions[qualname]
        path = model.modules_path(function.module)
        for call in function.calls:
            if (
                call.kind == "attr"
                and call.name == "acquire"
                and call.receiver in GUARD_LOCKS
            ):
                yield Diagnostic(
                    path,
                    call.line,
                    call.col,
                    "REP402",
                    f"bare {call.receiver}.acquire(); acquire locks with "
                    "'with' so every exit path releases",
                    symbol=call.receiver,
                )


@semantic_rule("REP702", "REP700", "registry lock held across a build, transitively")
def check_lock_across_build(
    model: ProjectModel, config: LintConfig
) -> Iterable[Diagnostic]:
    return _builds_under_guard(model, transitive=True)


def _is_bridge_call(ref: Tuple[str, str, str]) -> bool:
    """A call that synchronously drives the event loop."""
    kind, name, receiver = ref
    if kind == "module" and receiver == "asyncio" and name == "run":
        return True
    return name in {"run_until_complete", "run_forever"}


def _executes_await(model: ProjectModel) -> Set[str]:
    """Functions whose *synchronous* invocation may drive an ``await``:
    they bridge into the event loop (``asyncio.run`` and friends) or
    call something that does.  Plain ``async def`` bodies are excluded —
    calling them only builds a coroutine; the execution happens at the
    caller's ``await``, which REP703 checks at that site."""
    reached = closure(
        model,
        {
            qualname: {"bridge"}
            for qualname, function in model.functions.items()
            if any(_is_bridge_call(call.ref) for call in function.calls)
        },
    )
    return {qualname for qualname, found in reached.items() if found}


@semantic_rule("REP703", "REP700", "await reachable while a threading lock is held")
def check_await_under_lock(
    model: ProjectModel, config: LintConfig
) -> Iterable[Diagnostic]:
    bridges = _executes_await(model)
    for qualname in sorted(model.functions):
        function = model.functions[qualname]
        path = model.modules_path(function.module)
        for event in function.awaits:
            if event.held:
                yield Diagnostic(
                    path,
                    event.line,
                    event.col,
                    "REP703",
                    f"await while holding threading lock(s) "
                    f"{', '.join(event.held)} parks the coroutine with the "
                    "lock held; restructure so the lock is released before "
                    "suspension (or use asyncio.Lock)",
                    symbol=event.held[0],
                )
        for call in function.calls:
            if not call.locks_held or call.awaited:
                continue  # awaited calls are covered by the await event
            if _is_bridge_call(call.ref) or any(
                callee in bridges for callee in resolve(model, function, call.ref)
            ):
                yield Diagnostic(
                    path,
                    call.line,
                    call.col,
                    "REP703",
                    f"call to {call.name}() drives the event loop while "
                    f"threading lock(s) {', '.join(call.locks_held)} are "
                    "held; every await inside runs with the lock held",
                    symbol=call.name,
                )
