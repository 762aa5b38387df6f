"""Indexed, cached RPQ evaluation engine.

The interactive loop of the paper evaluates the *same* handful of queries
against the *same* graph over and over: every consistency check, oracle
answer, halt test and quality metric re-runs the product fixed point from
scratch.  This module concentrates all of that work behind one subsystem,
:class:`QueryEngine`, built from three layers:

**Graph index** — evaluation runs on the integer-id, per-label CSR
snapshot provided by :meth:`LabeledGraph.label_index
<repro.graph.labeled_graph.LabeledGraph.label_index>`.  The snapshot is
built once per graph :attr:`~repro.graph.labeled_graph.LabeledGraph.version`
and shared by every query.

**Query plans** — a :class:`QueryPlan` is the canonical, trimmed, minimal
DFA of a query relabelled to dense integer states, together with its
reverse transition table and a *fingerprint* (a stable hash of the
canonical automaton).  Two language-equivalent queries — however their
regexes are spelled — compile to plans with the same fingerprint, so they
share cache entries.  Plans are compiled once per :class:`PathQuery`
instance (cached on the object), once per DFA object (weak cache) and
once per expression string (bounded cache).

**Answer cache** — evaluated answer sets are memoised per graph under the
key ``(graph.version, plan.fingerprint)``.  A structural mutation bumps
the graph's version; when the graph's delta journal can bridge the gap
(see :meth:`LabeledGraph.deltas_since
<repro.graph.labeled_graph.LabeledGraph.deltas_since>`), the engine
*upgrades* the cache instead of dropping it — an answer survives when
its plan's alphabet is disjoint from every touched label and, if the
plan accepts the empty word, the node set did not change (an RPQ answer
can only move when an edge carrying one of its labels moves, or — for
empty-word-accepting plans — when nodes appear or disappear).  Opaque or
out-of-window deltas fall back to the historical whole-drop.  Dropping
the graph garbage-collects its cache (the engine holds graphs weakly).

On top of these the engine offers a *shared-frontier batch evaluator*:
:meth:`QueryEngine.evaluate_many` compiles a whole candidate set,
deduplicates it by fingerprint, and answers all cache misses in **one**
backward product pass over the indexed graph (the candidate DFAs are run
as a disjoint union automaton), instead of one independent pass per
query.

The public helpers of :mod:`repro.query.evaluation` are thin wrappers
over the engine of the process default
:class:`~repro.serving.workspace.GraphWorkspace`, so free-function call
sites get the indexed + cached path for free; code that wants isolated
caches (or cache statistics) holds its own workspace/engine.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import OrderedDict, deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from repro.automata.dfa import DFA, symbol_sort_key
from repro.automata.minimize import minimize
from repro.graph.labeled_graph import GraphLabelIndex, LabeledGraph, Node
from repro.query.rpq import PathQuery
from repro.regex.ast import Regex

QueryLike = Union[str, Regex, PathQuery, DFA]

__all__ = ["QueryPlan", "QueryEngine", "compile_plan", "selects_any"]


class QueryPlan:
    """A compiled, canonical evaluation plan for one regular path query.

    The plan holds the trimmed minimal DFA of the query with states
    relabelled to ``0..state_count-1`` in canonical BFS order, plus the
    derived structures the evaluator needs:

    * :attr:`rev_by_state` — for each state ``s``, the tuple of
      ``(label, source_state)`` pairs such that ``source -label-> s``;
    * :attr:`fingerprint` — a stable hexadecimal digest of the canonical
      automaton.  Language-equivalent queries produce identical
      fingerprints (the trim minimal DFA of a regular language is unique
      up to isomorphism, and the BFS relabelling fixes the isomorphism).

    Plans are immutable and graph-independent: the same plan evaluates
    against any number of graphs.
    """

    __slots__ = (
        "fingerprint",
        "state_count",
        "initial",
        "accepting",
        "rev_by_state",
        "transitions",
        "alphabet",
        "is_empty",
        "accepts_empty_word",
    )

    def __init__(self, dfa: DFA, *, assume_minimal: bool = False):
        if not assume_minimal:
            dfa = minimize(dfa)
        canonical = _canonical_trim(dfa)
        if canonical is None:
            # empty language: nothing to run, constant-time evaluation
            self.state_count = 0
            self.initial = 0
            self.accepting: Tuple[int, ...] = ()
            self.rev_by_state: Tuple[Tuple[Tuple[str, int], ...], ...] = ()
            self.transitions: Tuple[Tuple[int, str, int], ...] = ()
            self.alphabet: FrozenSet[str] = frozenset()
            self.is_empty = True
            self.accepts_empty_word = False
            self.fingerprint = "empty"
            return

        self.state_count = canonical.state_count()
        self.initial = canonical.initial_state
        self.accepting = tuple(sorted(canonical.accepting_states))
        self.transitions = tuple(
            sorted(
                canonical.transitions(),
                key=lambda arc: (arc[0], symbol_sort_key(arc[1]), arc[2]),
            )
        )
        self.alphabet = frozenset(
            symbol for _, symbol, _ in self.transitions
        )
        self.is_empty = False
        self.accepts_empty_word = canonical.is_accepting(self.initial)

        rev: List[List[Tuple[str, int]]] = [[] for _ in range(self.state_count)]
        for source, symbol, target in self.transitions:
            rev[target].append((symbol, source))
        self.rev_by_state = tuple(tuple(arcs) for arcs in rev)

        payload = repr(
            (self.state_count, self.initial, self.accepting, self.transitions)
        ).encode()
        self.fingerprint = hashlib.sha1(payload).hexdigest()

    def __repr__(self) -> str:
        return (
            f"<QueryPlan {self.fingerprint[:10]} {self.state_count} states, "
            f"{len(self.transitions)} transitions>"
        )


def _canonical_trim(dfa: DFA) -> Optional[DFA]:
    """The canonical evaluation automaton of ``dfa`` (``None`` if empty).

    Keeps only states that are both reachable and productive — dead
    states (e.g. a completion sink, or branches over symbols absent from
    the language) never contribute to an answer set, and dropping them
    makes the fingerprint depend on the language alone, not on the
    declared alphabet of the source expression.
    """
    keep = dfa.reachable_states() & dfa.productive_states()
    if dfa.initial_state not in keep:
        return None
    trimmed = DFA(dfa.initial_state)
    for state in keep:
        trimmed.add_state(state)
    trimmed.set_initial(dfa.initial_state)
    for state in keep:
        if dfa.is_accepting(state):
            trimmed.set_accepting(state)
        for symbol, target in dfa.outgoing(state).items():
            if target in keep:
                trimmed.add_transition(state, symbol, target)
    return trimmed.relabeled()


class _GraphCache:
    """Per-graph answer cache: built for exactly one graph version.

    ``meta`` remembers, per fingerprint, the plan facts needed to decide
    delta retention without the plan object: its alphabet and whether it
    accepts the empty word.
    """

    __slots__ = ("version", "answers", "meta")

    #: upgraded/dropped through QueryEngine.refresh(), which
    #: GraphWorkspace.refresh() drives per graph.
    __workspace_hook__ = "engine.answers"

    def __init__(self, version: int):
        self.version = version
        self.answers: Dict[str, FrozenSet[Node]] = {}
        self.meta: Dict[str, Tuple[FrozenSet[str], bool]] = {}


class QueryEngine:
    """Compiles, batches and caches RPQ evaluation over labelled graphs.

    One engine instance owns a plan cache (query → :class:`QueryPlan`)
    and an answer cache (graph × plan → answer set).  All methods are
    semantically identical to the naive helpers in
    :mod:`repro.query.evaluation`; only the cost model changes.
    """

    #: memoised answer sets per graph snapshot (oldest evicted first)
    MAX_ANSWERS_PER_GRAPH = 512
    #: plans cached for raw string expressions (least recently used evicted)
    MAX_EXPRESSION_PLANS = 1024

    def __init__(self):
        self._answer_caches: "weakref.WeakKeyDictionary[LabeledGraph, _GraphCache]" = (
            weakref.WeakKeyDictionary()
        )
        # DFA plans are keyed per object and remembered with the DFA's
        # version at compile time: DFAs are mutable, so a stale entry is
        # recompiled instead of served.
        self._dfa_plans: "weakref.WeakKeyDictionary[DFA, Tuple[int, QueryPlan]]" = (
            weakref.WeakKeyDictionary()
        )
        # LRU: hits move entries to the back, eviction pops the front —
        # a hot plan survives arbitrary eviction pressure
        self._expression_plans: "OrderedDict[str, QueryPlan]" = OrderedDict()
        #: cache statistics, exposed through :meth:`stats`
        self._answer_hits = 0
        self._answer_misses = 0
        self._plan_hits = 0
        self._plan_misses = 0
        self._batch_passes = 0
        self._answers_retained = 0
        self._answers_dropped = 0
        self._delta_refreshes = 0

    # ------------------------------------------------------------------
    # plan compilation
    # ------------------------------------------------------------------
    def plan(self, query: QueryLike) -> QueryPlan:
        """Compile ``query`` into its canonical :class:`QueryPlan`.

        Compilation (parse → DFA → minimise → trim → fingerprint) runs at
        most once per query object / expression string; afterwards the
        cached plan is returned.
        """
        if isinstance(query, PathQuery):
            plan = query._plan
            if plan is None:
                self._plan_misses += 1
                plan = QueryPlan(query.dfa, assume_minimal=True)
                query._plan = plan
            else:
                self._plan_hits += 1
            return plan
        if isinstance(query, DFA):
            cached = self._dfa_plans.get(query)
            if cached is not None and cached[0] == query.version:
                self._plan_hits += 1
                return cached[1]
            self._plan_misses += 1
            plan = QueryPlan(query)
            self._dfa_plans[query] = (query.version, plan)
            return plan
        if isinstance(query, str):
            plan = self._expression_plans.get(query)
            if plan is None:
                self._plan_misses += 1
                plan = QueryPlan(PathQuery(query).dfa, assume_minimal=True)
                if len(self._expression_plans) >= self.MAX_EXPRESSION_PLANS:
                    self._expression_plans.popitem(last=False)
                self._expression_plans[query] = plan
            else:
                self._plan_hits += 1
                self._expression_plans.move_to_end(query)
            return plan
        # Regex AST (rare; not identity-cached — wrap in a PathQuery to reuse)
        self._plan_misses += 1
        return QueryPlan(PathQuery(query).dfa, assume_minimal=True)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, graph: LabeledGraph, query: QueryLike) -> FrozenSet[Node]:
        """The set of nodes of ``graph`` selected by ``query`` (cached)."""
        return self.evaluate_many(graph, (query,))[0]

    def evaluate_many(
        self, graph: LabeledGraph, queries: Iterable[QueryLike]
    ) -> List[FrozenSet[Node]]:
        """Evaluate a whole candidate set in one shared product pass.

        Plans are deduplicated by fingerprint and answers are served from
        the cache where possible; all remaining distinct plans run as a
        single disjoint-union automaton in **one** backward pass over the
        indexed graph.  The returned list is aligned with ``queries`` and
        identical to calling :meth:`evaluate` per query.
        """
        plans = [self.plan(query) for query in queries]
        if not plans:
            return []
        cache = self._graph_cache(graph)

        answers: Dict[str, FrozenSet[Node]] = {}
        missing: List[QueryPlan] = []
        pending: set = set()
        for plan in plans:
            if plan.fingerprint in answers or plan.fingerprint in pending:
                continue
            if plan.is_empty:
                answers[plan.fingerprint] = frozenset()
                continue
            cached = cache.answers.get(plan.fingerprint)
            if cached is not None:
                self._answer_hits += 1
                answers[plan.fingerprint] = cached
            else:
                self._answer_misses += 1
                pending.add(plan.fingerprint)
                missing.append(plan)

        if missing:
            index = graph.label_index()
            for plan, answer in zip(missing, self._batch_backward(index, missing)):
                answers[plan.fingerprint] = answer
                self._remember(cache, plan, answer)

        return [answers[plan.fingerprint] for plan in plans]

    def selects(self, graph: LabeledGraph, query: QueryLike, node: Node) -> bool:
        """True when ``query`` selects ``node`` in ``graph``.

        Served from the answer cache when the full answer is already
        known; otherwise a forward product search restricted to what is
        reachable from ``node`` runs on the graph index (cheaper than a
        global evaluation for one-off automata such as the learner's
        merge candidates).
        """
        if node not in graph:
            from repro.exceptions import NodeNotFoundError

            raise NodeNotFoundError(node)

        cached_plan = self._peek_plan(query)
        if cached_plan is not None:
            cache = self._answer_caches.get(graph)
            if cache is not None:
                if cache.version != graph.version:
                    # delta-upgrade (or drop) before consulting the entry
                    cache = self._graph_cache(graph)
                answer = cache.answers.get(cached_plan.fingerprint)
                if answer is not None:
                    self._answer_hits += 1
                    return node in answer

        dfa = query.dfa if isinstance(query, PathQuery) else query
        if not isinstance(dfa, DFA):
            # strings / ASTs: compile fully — the plan cache makes repeats free
            return node in self.evaluate(graph, query)
        index = graph.label_index()
        return selects_any(index, dfa, (index.node_ids[node],))

    def answer_signature(self, graph: LabeledGraph, query: QueryLike) -> Tuple[Node, ...]:
        """Sorted tuple of selected nodes — a hashable answer fingerprint."""
        return tuple(sorted(self.evaluate(graph, query), key=str))

    def selection_metrics(
        self, graph: LabeledGraph, learned: QueryLike, goal: QueryLike
    ) -> Dict[str, float]:
        """Precision / recall / F1 of ``learned`` against ``goal`` on ``graph``."""
        learned_answer, goal_answer = self.evaluate_many(graph, (learned, goal))
        true_positives = len(learned_answer & goal_answer)
        precision = (
            true_positives / len(learned_answer)
            if learned_answer
            else (1.0 if not goal_answer else 0.0)
        )
        recall = true_positives / len(goal_answer) if goal_answer else 1.0
        f1 = (2 * precision * recall / (precision + recall)) if (precision + recall) else 0.0
        return {
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "learned_size": float(len(learned_answer)),
            "goal_size": float(len(goal_answer)),
        }

    # ------------------------------------------------------------------
    # cache management
    # ------------------------------------------------------------------
    def refresh(self, graph: Optional[LabeledGraph] = None) -> Dict[str, int]:
        """Delta-upgrade stale answer caches instead of waiting for a miss.

        For ``graph`` (or every tracked graph when ``None``): if its cache
        is stale and the graph's delta journal can bridge the gap, retain
        every answer whose plan the deltas cannot have changed and drop
        the rest; when the journal cannot bridge (window exceeded, opaque
        step, disabled journal), fall back to the whole-drop the
        pre-journal engine always performed.

        Returns the counters for this call:
        ``{"answers_retained", "answers_dropped", "delta_refreshes"}``.
        """
        retained_before = self._answers_retained
        dropped_before = self._answers_dropped
        refreshes_before = self._delta_refreshes
        targets = (graph,) if graph is not None else tuple(self._answer_caches)
        for target in targets:
            cache = self._answer_caches.get(target)
            if cache is not None and cache.version != target.version:
                self._answer_caches[target] = self._upgrade_cache(target, cache)
        return {
            "answers_retained": self._answers_retained - retained_before,
            "answers_dropped": self._answers_dropped - dropped_before,
            "delta_refreshes": self._delta_refreshes - refreshes_before,
        }

    def stats(self) -> Dict[str, int]:
        """Cache counters: answer/plan hits and misses, batch passes."""
        return {
            "answer_hits": self._answer_hits,
            "answer_misses": self._answer_misses,
            "plan_hits": self._plan_hits,
            "plan_misses": self._plan_misses,
            "batch_passes": self._batch_passes,
            "answers_retained": self._answers_retained,
            "answers_dropped": self._answers_dropped,
            "delta_refreshes": self._delta_refreshes,
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _graph_cache(self, graph: LabeledGraph) -> _GraphCache:
        cache = self._answer_caches.get(graph)
        if cache is None:
            cache = _GraphCache(graph.version)
            self._answer_caches[graph] = cache
        elif cache.version != graph.version:
            cache = self._upgrade_cache(graph, cache)
            self._answer_caches[graph] = cache
        return cache

    def _upgrade_cache(self, graph: LabeledGraph, cache: _GraphCache) -> _GraphCache:
        """A cache at ``graph.version`` keeping every answer the journal
        proves untouched (empty when the journal cannot bridge)."""
        deltas = graph.deltas_since(cache.version)
        if deltas == ():  # already current (raced by a concurrent upgrade)
            return cache
        fresh = _GraphCache(graph.version)
        if deltas is None:
            self._answers_dropped += len(cache.answers)
            return fresh
        touched: set = set()
        nodes_changed = False
        for delta in deltas:
            touched.update(delta.labels_touched)
            nodes_changed = nodes_changed or delta.nodes_changed
        for fingerprint, answer in cache.answers.items():
            meta = cache.meta.get(fingerprint)
            if (
                meta is None
                or not meta[0].isdisjoint(touched)
                or (meta[1] and nodes_changed)
            ):
                self._answers_dropped += 1
                continue
            fresh.answers[fingerprint] = answer
            fresh.meta[fingerprint] = meta
            self._answers_retained += 1
        self._delta_refreshes += 1
        return fresh

    def _remember(self, cache: _GraphCache, plan: QueryPlan, answer: FrozenSet[Node]) -> None:
        if len(cache.answers) >= self.MAX_ANSWERS_PER_GRAPH:
            evicted = next(iter(cache.answers))
            cache.answers.pop(evicted)
            cache.meta.pop(evicted, None)
        cache.answers[plan.fingerprint] = answer
        cache.meta[plan.fingerprint] = (plan.alphabet, plan.accepts_empty_word)

    def _peek_plan(self, query: QueryLike) -> Optional[QueryPlan]:
        """Return the plan of ``query`` only if it is already compiled."""
        if isinstance(query, PathQuery):
            return query._plan
        if isinstance(query, DFA):
            cached = self._dfa_plans.get(query)
            if cached is not None and cached[0] == query.version:
                return cached[1]
            return None
        if isinstance(query, str):
            return self._expression_plans.get(query)
        return None

    def _batch_backward(
        self, index: GraphLabelIndex, plans: Sequence[QueryPlan]
    ) -> List[FrozenSet[Node]]:
        """One backward fixed-point pass for a disjoint union of plans.

        Product states are encoded as ``global_state * n + node_id`` into
        a flat bytearray, where ``global_state`` offsets each plan's
        states into one shared space — a single frontier serves every
        query of the batch.
        """
        self._batch_passes += 1
        n = index.node_count
        offsets: List[int] = []
        total_states = 0
        for plan in plans:
            offsets.append(total_states)
            total_states += plan.state_count

        if n == 0 or total_states == 0:
            return [frozenset() for _ in plans]

        # reverse arcs per global state, with graph-side CSR resolved up
        # front; labels absent from the graph are dropped here once
        # instead of being tested in the inner loop.
        rev_global: List[List[Tuple[List[int], List[int], int]]] = [
            [] for _ in range(total_states)
        ]
        for plan, offset in zip(plans, offsets):
            for target, arcs in enumerate(plan.rev_by_state):
                resolved = rev_global[offset + target]
                for label, source in arcs:
                    csr = index.reverse_csr(label)
                    if csr is not None:
                        resolved.append((csr[0], csr[1], offset + source))

        # Fixed point by per-state frontiers: `pending[s]` holds node ids
        # newly proved successful in state ``s`` and not yet propagated.
        # Processing a whole frontier at once keeps the hot loop free of
        # per-pair queue traffic.
        successful = bytearray(total_states * n)
        one_row = b"\x01" * n
        pending: List[Iterable[int]] = [() for _ in range(total_states)]
        queued = bytearray(total_states)
        active: deque = deque()
        for plan, offset in zip(plans, offsets):
            for accepting in plan.accepting:
                state = offset + accepting
                if not queued[state]:
                    successful[state * n : (state + 1) * n] = one_row
                    pending[state] = range(n)
                    queued[state] = 1
                    active.append(state)

        while active:
            state = active.popleft()
            queued[state] = 0
            frontier = pending[state]
            pending[state] = ()
            for indptr, indices, source_state in rev_global[state]:
                base = source_state * n
                grown = pending[source_state]
                if not isinstance(grown, list):
                    grown = list(grown)
                before = len(grown)
                for node_id in frontier:
                    for predecessor in indices[indptr[node_id] : indptr[node_id + 1]]:
                        candidate = base + predecessor
                        if not successful[candidate]:
                            successful[candidate] = 1
                            grown.append(predecessor)
                if len(grown) > before:
                    pending[source_state] = grown
                    if not queued[source_state]:
                        queued[source_state] = 1
                        active.append(source_state)

        nodes = index.nodes
        answers: List[FrozenSet[Node]] = []
        for plan, offset in zip(plans, offsets):
            base = (offset + plan.initial) * n
            row = successful[base : base + n]
            answers.append(frozenset(nodes[i] for i in range(n) if row[i]))
        return answers


def selects_any(index: GraphLabelIndex, dfa: DFA, start_ids: Sequence[int]) -> bool:
    """True when ``dfa`` selects any of the node ids ``start_ids``.

    A forward product search over graph × DFA from every ``(start,
    initial)`` pair at once, exiting at the first accepting state it
    reaches.  Starts are queued in the order given.
    """
    initial = dfa.initial_state
    transitions = dfa._transitions
    accepting = dfa._accepting
    out_pairs = index.out_pairs
    n = index.node_count
    state_ids = {initial: 0}
    seen = set()
    queue: deque = deque()
    for start in start_ids:
        if start not in seen:
            seen.add(start)  # state id 0: encoded 0 * n + start
            queue.append((start, initial))
    if queue and initial in accepting:
        return True
    while queue:
        node_id, state = queue.popleft()
        moves = transitions[state]
        for label, target_id in out_pairs(node_id):
            target_state = moves.get(label)
            if target_state is None:
                continue
            if target_state in accepting:
                return True
            state_id = state_ids.setdefault(target_state, len(state_ids))
            encoded = state_id * n + target_id
            if encoded not in seen:
                seen.add(encoded)
                queue.append((target_id, target_state))
    return False


def compile_plan(query: QueryLike) -> QueryPlan:
    """Compile ``query`` with the process workspace's engine (convenience)."""
    from repro.serving.workspace import default_workspace

    return default_workspace().engine.plan(query)
