"""The :class:`GraphWorkspace`: explicit ownership of all read-mostly state.

A server multiplexing many sessions over one graph needs an explicit
handle on the shared caches that it can refresh and account for,
and *build-once* semantics when N cold sessions race on the same index.
Every consumer holds a workspace, or implicitly uses
:func:`default_workspace`.

A workspace owns exactly the state that is **read-mostly and keyed on**
``(graph.version, …)``:

* one :class:`~repro.query.engine.QueryEngine` (plan + answer caches),
* the :class:`~repro.learning.language_index.LanguageIndex` per
  ``(graph, version, bound)``,
* the :class:`~repro.graph.neighborhood.NeighborhoodIndex` per graph,
* a handle on the canonical-form cache used to wrap learned DFAs,
* content fingerprints per ``(graph, version)``, and
* the cross-session result memo used by
  :class:`~repro.serving.manager.SessionManager` for deduplication.

Everything *per-session* — the example set, the informativeness
classifier, the hypothesis, the interaction records — stays on the
session object.

Build-once semantics: expensive builds (the language index above all) are
guarded by per-key locks with double-checked lookup, so N sessions racing
on a cold index pay **one** build while the global registry lock is never
held across a build.  The global lock is only ever taken for dictionary
bookkeeping; per-key locks are only taken while *not* holding the global
lock — this ordering is what makes the scheme deadlock-free.

Failure safety: a factory that raises must poison **nothing**.  Every
build path caches its result only after the constructor returns, releases
its per-key lock on the way out (``with`` discipline), and discards the
per-key lock entry on failure — so the next caller re-enters the cold
path, retries the build, and succeeds if the fault was transient.  This
is what lets the fault-injection harness (:mod:`repro.reliability`) break
workspace builds mid-session without leaving the workspace wedged.

An optional :class:`~repro.reliability.FaultInjector` can be attached
(``injector=``) to exercise exactly that: each build path checks its
named fault site before constructing.  Without an injector the checks
vanish (``None`` guard), keeping the disabled path bit-identical.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.automata.canonical import CanonicalFormCache, shared_canonical_cache
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.neighborhood import NeighborhoodIndex
from repro.learning.language_index import LanguageIndex
from repro.query.engine import QueryEngine


class GraphWorkspace:
    """Shared, thread-safe home of every cross-session cache.

    One workspace serves any number of graphs and sessions; a server
    typically holds one per tenant (or one per process — see
    :func:`default_workspace`).  All accessors are safe to call from
    multiple threads; cold builds of the same key are coalesced so
    concurrent sessions pay for one build, not N.

    Parameters
    ----------
    engine:
        The query engine to use; a fresh one is created when omitted.
    canonical:
        Canonical-form cache used when wrapping learned DFAs.  Defaults
        to the process-shared cache (canonical forms are pure functions
        of automaton structure, so sharing across workspaces is always
        sound); pass a private :class:`CanonicalFormCache` to isolate
        accounting.
    injector:
        Optional :class:`~repro.reliability.FaultInjector`; when set,
        build paths check their fault sites (``"workspace.language_index"``,
        ``"workspace.neighborhoods"``) before constructing, so chaos tests
        can exercise the failure-safety contract.  ``None`` (the default)
        leaves every path untouched.
    """

    #: retained cross-session dedup memo entries (least recently used evicted)
    MAX_MEMO_ENTRIES = 1024

    def __init__(
        self,
        *,
        engine: Optional[QueryEngine] = None,
        canonical: Optional[CanonicalFormCache] = None,
        injector: Optional[Any] = None,
    ):
        self.engine = engine if engine is not None else QueryEngine()
        self.canonical = canonical if canonical is not None else shared_canonical_cache()
        self.injector = injector
        # registry bookkeeping only — never held across an index build
        self._lock = threading.RLock()
        # key -> lock serialising the (rare, expensive) cold build of key
        self._build_locks: Dict[Hashable, threading.Lock] = {}
        self._language: "weakref.WeakKeyDictionary[LabeledGraph, Dict[int, LanguageIndex]]" = (
            weakref.WeakKeyDictionary()
        )
        self._neighborhoods: "weakref.WeakKeyDictionary[LabeledGraph, NeighborhoodIndex]" = (
            weakref.WeakKeyDictionary()
        )
        self._fingerprints: "weakref.WeakKeyDictionary[LabeledGraph, Tuple[int, str]]" = (
            weakref.WeakKeyDictionary()
        )
        self._memo: "OrderedDict[Hashable, Any]" = OrderedDict()
        # counters surfaced by stats(); the serving tests assert on them
        self._language_builds = 0
        self._language_restrictions = 0
        self._language_refreshes = 0
        self._language_hits = 0
        self._neighborhood_builds = 0
        self._failed_builds = 0
        self._memo_hits = 0
        self._memo_misses = 0

    def _check_fault(self, site: str) -> None:
        """Fault-injection hook: no-op unless an injector is attached."""
        if self.injector is not None:
            self.injector.check(site)

    def _record_failed_build(self, key: Hashable) -> None:
        """Bookkeeping after a build raised: count it, drop the key's lock.

        Dropping the ``_build_locks`` entry keeps the lock dict from
        accumulating keys that never produced a value; the next caller
        re-creates the lock on its own cold path.  Nothing else is
        touched — by the failure-safety contract, a raising factory must
        have cached nothing.
        """
        with self._lock:
            self._failed_builds += 1
            self._build_locks.pop(key, None)

    # ------------------------------------------------------------------
    # language indexes (build-once under per-key locks)
    # ------------------------------------------------------------------
    def language_index(self, graph: LabeledGraph, max_length: int) -> LanguageIndex:
        """The shared :class:`LanguageIndex` of ``graph`` at ``max_length``.

        Built at most once per ``(graph, version, bound)`` even under
        concurrent access; when a current index at a *larger* bound
        already exists, the smaller one is derived by restriction instead
        of re-walking the graph (the session's path-validation step asks
        for each neighbourhood radius below the session bound).

        Failure-safe: if the build raises, the per-key lock is released,
        nothing is cached, and the next caller retries the build.
        """
        with self._lock:
            index = self._current_language_index(graph, max_length)
            if index is not None:
                self._language_hits += 1
                return index
            key = ("language", id(graph), max_length)
            build_lock = self._build_locks.get(key)
            if build_lock is None:
                build_lock = self._build_locks[key] = threading.Lock()
        with build_lock:
            with self._lock:
                index = self._current_language_index(graph, max_length)
                if index is not None:
                    self._language_hits += 1
                    return index
                per_graph_entries = self._language.get(graph, {})
                larger = [
                    cached
                    for bound, cached in per_graph_entries.items()
                    if bound > max_length and cached.version == graph.version
                ]
                stale = per_graph_entries.get(max_length)
                neighborhoods = self._neighborhoods.get(graph)
            try:
                self._check_fault("workspace.language_index")
                index = None
                kind = "build"
                if stale is not None:
                    # try the delta journal first: rescoring the nodes a
                    # delta can reach is far cheaper than a full walk
                    deltas = graph.deltas_since(stale.version)
                    if deltas:
                        index = stale.refreshed(
                            graph, deltas, neighborhoods=neighborhoods
                        )
                        if index is not None:
                            kind = "refresh"
                if index is None and larger:
                    source = min(larger, key=lambda cached: cached.max_length)
                    index = source.restricted(max_length)
                    kind = "restrict"
                if index is None:
                    index = LanguageIndex(graph, max_length)
            except BaseException:
                self._record_failed_build(key)
                raise
            with self._lock:
                per_graph = self._language.get(graph)
                if per_graph is None:
                    per_graph = self._language.setdefault(graph, {})
                per_graph[max_length] = index
                if kind == "refresh":
                    self._language_refreshes += 1
                elif kind == "restrict":
                    self._language_restrictions += 1
                else:
                    self._language_builds += 1
        return index

    def _current_language_index(
        self, graph: LabeledGraph, max_length: int
    ) -> Optional[LanguageIndex]:
        """Registry lookup (caller holds the lock); ``None`` on miss/stale."""
        per_graph = self._language.get(graph)
        if per_graph is None:
            return None
        index = per_graph.get(max_length)
        if index is None or index.version != graph.version:
            return None
        return index

    # ------------------------------------------------------------------
    # neighbourhood indexes
    # ------------------------------------------------------------------
    def neighborhoods(self, graph: LabeledGraph) -> NeighborhoodIndex:
        """The shared :class:`NeighborhoodIndex` of ``graph``.

        The index is version-aware internally (stale BFS layers are
        dropped on access), so one instance per graph lives for the
        graph's whole lifetime.

        The construction runs under a per-key build lock, *not* the
        registry lock: :class:`NeighborhoodIndex` construction is cheap
        (layers are lazy) but a raising factory held under the registry
        lock would convoy every other workspace accessor behind the
        failure.  Failure-safe like :meth:`language_index`.
        """
        with self._lock:
            index = self._neighborhoods.get(graph)
            if index is not None:
                return index
            key = ("neighborhoods", id(graph))
            build_lock = self._build_locks.get(key)
            if build_lock is None:
                build_lock = self._build_locks[key] = threading.Lock()
        with build_lock:
            with self._lock:
                index = self._neighborhoods.get(graph)
                if index is not None:
                    return index
            try:
                self._check_fault("workspace.neighborhoods")
                index = NeighborhoodIndex(graph)
            except BaseException:
                self._record_failed_build(key)
                raise
            with self._lock:
                existing = self._neighborhoods.get(graph)
                if existing is not None:
                    return existing  # lost a race with another builder
                self._neighborhoods[graph] = index
                self._neighborhood_builds += 1
        return index

    # ------------------------------------------------------------------
    # graph fingerprints
    # ------------------------------------------------------------------
    def graph_fingerprint(self, graph: LabeledGraph) -> str:
        """Content digest of the graph's structure, cached per version.

        Two graphs with equal node and edge sets share the fingerprint
        regardless of insertion order or object identity — it anchors the
        cross-session dedup key.
        """
        with self._lock:
            cached = self._fingerprints.get(graph)
            if cached is not None and cached[0] == graph.version:
                return cached[1]
        digest = hashlib.sha1()
        for text in sorted(map(repr, graph.nodes())):
            digest.update(text.encode())
            digest.update(b"\x00")
        for text in sorted(map(repr, graph.edges())):
            digest.update(text.encode())
            digest.update(b"\x01")
        fingerprint = digest.hexdigest()
        with self._lock:
            self._fingerprints[graph] = (graph.version, fingerprint)
        return fingerprint

    # ------------------------------------------------------------------
    # cross-session result memo
    # ------------------------------------------------------------------
    def memo_get(self, key: Hashable) -> Optional[Any]:
        """Cached cross-session value for ``key`` (``None`` on miss)."""
        with self._lock:
            value = self._memo.get(key)
            if value is None:
                self._memo_misses += 1
                return None
            self._memo.move_to_end(key)
            self._memo_hits += 1
            return value

    def memo_put(self, key: Hashable, value: Any) -> None:
        """Store a cross-session value (bounded LRU)."""
        with self._lock:
            self._memo[key] = value
            self._memo.move_to_end(key)
            while len(self._memo) > self.MAX_MEMO_ENTRIES:
                self._memo.popitem(last=False)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def refresh(self, graph: Optional[LabeledGraph] = None) -> Dict[str, int]:
        """Upgrade stale entries in place via the graph's delta journal.

        The one way a workspace catches up with a mutated graph.  It
        consults :meth:`LabeledGraph.deltas_since
        <repro.graph.labeled_graph.LabeledGraph.deltas_since>` and

        * **rescopes** each stale :class:`LanguageIndex` to the
          delta-reachable nodes (:meth:`LanguageIndex.refreshed
          <repro.learning.language_index.LanguageIndex.refreshed>`),
          seeding affected sets from cached neighbourhood balls,
        * **retains** every engine answer whose plan the deltas cannot
          have changed (:meth:`QueryEngine.refresh
          <repro.query.engine.QueryEngine.refresh>`),
        * **keeps** every neighbourhood layer structure disjoint from the
          touched nodes (:meth:`NeighborhoodIndex.refresh
          <repro.graph.neighborhood.NeighborhoodIndex.refresh>`), and
        * drops the stale content fingerprint (content changed by
          definition).

        When the journal cannot bridge the gap — window exceeded, opaque
        batch, or a disabled journal — every layer drops its stale entries
        instead.  Refreshing is not a correctness requirement: every
        registry checks the version on access anyway.  With a ``graph``,
        only that graph's entries are touched; without one, every
        registered graph is refreshed.

        Returns counters of what was refreshed, retained and dropped.
        """
        counters = {
            "language_indexes_refreshed": 0,
            "language_indexes_dropped": 0,
            "fingerprints_dropped": 0,
            "answers_retained": 0,
            "answers_dropped": 0,
            "neighborhood_states_kept": 0,
            "neighborhood_states_dropped": 0,
        }
        if graph is not None:
            targets = [graph]
        else:
            with self._lock:
                seen: Dict[int, LabeledGraph] = {}
                for registry in (self._language, self._neighborhoods, self._fingerprints):
                    for target in registry.keys():
                        seen[id(target)] = target
                targets = list(seen.values())
        for target in targets:
            self._refresh_graph(target, counters)
        return counters

    def _refresh_graph(self, target: LabeledGraph, counters: Dict[str, int]) -> None:
        """Refresh every structure of one graph (counters updated in place)."""
        with self._lock:
            per_graph = self._language.get(target)
            stale = (
                [
                    (bound, index)
                    for bound, index in per_graph.items()
                    if index.version != target.version
                ]
                if per_graph is not None
                else []
            )
            neighborhoods = self._neighborhoods.get(target)
        # language upgrades happen before neighborhoods.refresh() — each
        # index seeds its affected set from balls cached at its own base
        # version — and outside the registry lock (never hold it across a
        # build); the identity re-check below makes losing a race benign.
        for bound, index in stale:
            deltas = target.deltas_since(index.version)
            fresh = (
                index.refreshed(target, deltas, neighborhoods=neighborhoods)
                if deltas
                else None
            )
            with self._lock:
                registry = self._language.get(target)
                if registry is None or registry.get(bound) is not index:
                    continue  # replaced or dropped by a concurrent caller
                if fresh is None:
                    del registry[bound]
                    counters["language_indexes_dropped"] += 1
                else:
                    registry[bound] = fresh
                    counters["language_indexes_refreshed"] += 1
                    self._language_refreshes += 1
        with self._lock:
            cached = self._fingerprints.get(target)
            if cached is not None and cached[0] != target.version:
                del self._fingerprints[target]
                counters["fingerprints_dropped"] += 1
        engine_counters = self.engine.refresh(target)
        counters["answers_retained"] += engine_counters["answers_retained"]
        counters["answers_dropped"] += engine_counters["answers_dropped"]
        if neighborhoods is not None:
            kept, dropped = neighborhoods.refresh(target)
            counters["neighborhood_states_kept"] += kept
            counters["neighborhood_states_dropped"] += dropped
        # Warm the graph-owned label index while we are already paying
        # for a refresh: label_index() delta-upgrades (or rebuilds) on
        # version mismatch, so the next engine evaluation finds it hot
        # instead of rebuilding on the serving path.  This is also the
        # workspace-side driver of hook 'graph.label_index' (REP310).
        target.label_index()

    def stats(self) -> Dict[str, Any]:
        """Build / hit counters for every registry this workspace owns."""
        with self._lock:
            language_entries = sum(len(per) for per in self._language.values())
            return {
                "language_index_builds": self._language_builds,
                "language_index_restrictions": self._language_restrictions,
                "language_index_refreshes": self._language_refreshes,
                "language_index_hits": self._language_hits,
                "language_index_entries": language_entries,
                "neighborhood_index_builds": self._neighborhood_builds,
                "failed_builds": self._failed_builds,
                "memo_hits": self._memo_hits,
                "memo_misses": self._memo_misses,
                "memo_entries": len(self._memo),
                "engine": self.engine.stats(),
                "canonical": self.canonical.stats(),
            }

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"<GraphWorkspace {len(self._language)} graphs, "
                f"{self._language_builds} index builds, "
                f"{len(self._memo)} memo entries>"
            )


# ----------------------------------------------------------------------
# the process-wide default workspace
# ----------------------------------------------------------------------
_DEFAULT: Optional[GraphWorkspace] = None
_DEFAULT_LOCK = threading.Lock()


def default_workspace() -> GraphWorkspace:
    """The process-wide :class:`GraphWorkspace`.

    The implicit sharing default: sessions, free functions and CLI
    commands that are not handed an explicit workspace all resolve to
    this one, so they share one set of caches per process.  Servers and
    tests that need isolation construct their own workspace instead.
    """
    global _DEFAULT
    workspace = _DEFAULT
    if workspace is None:
        with _DEFAULT_LOCK:
            workspace = _DEFAULT
            if workspace is None:
                workspace = _DEFAULT = GraphWorkspace()
    return workspace


def reset_default_workspace() -> None:
    """Replace the process-wide workspace with a fresh one (test hygiene)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        _DEFAULT = None
