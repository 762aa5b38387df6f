"""Automaton → regular expression synthesis (state elimination).

The interactive system presents the learned query back to the user as a
regular expression in the paper's syntax (``(tram + bus)* . cinema``), so
the DFA produced by the state-merging generaliser has to be converted back
to an expression.  We use the classic state-elimination (Brzozowski &
McCluskey) construction over a generalised NFA whose transition labels are
regular expressions, eliminating low-connectivity states first to keep the
output small, followed by the smart constructors of
:mod:`repro.regex.ast` for local simplification.

The GNFA is *indexed*: per-state incoming and outgoing adjacency maps are
maintained incrementally as states are eliminated, and the
lowest-connectivity victim is chosen through a lazily invalidated heap of
maintained degree counts.  Earlier revisions rescanned the full edge
table inside the sort key on every elimination round, which made the
degree computation quadratic in the edge count and dominated the cost of
presenting learner-sized hypotheses (>90% of the synthesis time on a
~100-state DFA went into those rescans).
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, List, Tuple

from repro.automata.dfa import DFA
from repro.regex.ast import EMPTY, EPSILON, Regex, Symbol

State = Hashable
_INITIAL = "__init__"
_FINAL = "__final__"


class _IndexedGNFA:
    """Expression-labelled digraph with adjacency maps and degree counts.

    Edges live in two mirrored maps — ``out_edges[source][target]`` and
    ``in_edges[target][source]`` — whose insertion order matches edge
    creation order (unioning into an existing edge keeps its position),
    so elimination visits parallel expressions in the same deterministic
    order as the original full-table implementation.
    """

    __slots__ = ("out_edges", "in_edges")

    def __init__(self) -> None:
        self.out_edges: Dict[State, Dict[State, Regex]] = {}
        self.in_edges: Dict[State, Dict[State, Regex]] = {}

    def connect(self, source: State, target: State, expr: Regex) -> None:
        """Add ``source -expr-> target``, unioning with any existing edge."""
        row = self.out_edges.setdefault(source, {})
        existing = row.get(target)
        merged = expr if existing is None else existing.union(expr)
        row[target] = merged
        self.in_edges.setdefault(target, {})[source] = merged

    def degree(self, state: State) -> int:
        """Number of distinct edges touching ``state`` (a self-loop counts once)."""
        out_row = self.out_edges.get(state, ())
        in_row = self.in_edges.get(state, ())
        return len(out_row) + len(in_row) - (1 if state in out_row else 0)

    def eliminate(self, victim: State) -> List[State]:
        """Remove ``victim``, bridging every in/out pair; return its neighbours."""
        in_row = self.in_edges.get(victim, {})
        out_row = self.out_edges.get(victim, {})
        incoming = [(source, expr) for source, expr in in_row.items() if source != victim]
        outgoing = [(target, expr) for target, expr in out_row.items() if target != victim]
        loop = out_row.get(victim, EMPTY)
        loop_star = loop.star() if loop != EMPTY else EPSILON
        for source, incoming_expr in incoming:
            for target, outgoing_expr in outgoing:
                bridged = incoming_expr.concat(loop_star).concat(outgoing_expr)
                self.connect(source, target, bridged)
        for source, _ in incoming:
            del self.out_edges[source][victim]
        for target, _ in outgoing:
            del self.in_edges[target][victim]
        self.out_edges.pop(victim, None)
        self.in_edges.pop(victim, None)
        return [source for source, _ in incoming] + [target for target, _ in outgoing]


def dfa_to_regex(dfa: DFA) -> Regex:
    """Return a regular expression for the language of ``dfa``.

    The empty language yields the :data:`~repro.regex.ast.EMPTY` constant.
    The state-elimination output is post-processed by
    :func:`repro.regex.simplify.simplify`.
    """
    trimmed = dfa.trim()
    if trimmed.is_empty():
        return EMPTY

    # Generalised NFA: expression-labelled edges plus fresh initial / final.
    gnfa = _IndexedGNFA()
    states: List[State] = sorted(trimmed.states, key=str)
    gnfa.connect(_INITIAL, trimmed.initial_state, EPSILON)
    for state in sorted(trimmed.accepting_states, key=str):
        gnfa.connect(state, _FINAL, EPSILON)
    for source, symbol, target in trimmed.transitions():
        gnfa.connect(source, target, Symbol(symbol))

    # Eliminate internal states, lowest-connectivity first (smaller output).
    # The heap is lazily invalidated: entries carry the degree they were
    # pushed with and are discarded on pop when the state's maintained
    # degree has moved on (or the state is already gone).
    tiebreak = {state: index for index, state in enumerate(states)}
    eliminated = set()
    heap: List[Tuple[int, str, int, State]] = [
        (gnfa.degree(state), str(state), tiebreak[state], state) for state in states
    ]
    heapq.heapify(heap)
    while heap:
        pushed_degree, _, _, victim = heapq.heappop(heap)
        if victim in eliminated or pushed_degree != gnfa.degree(victim):
            continue
        eliminated.add(victim)
        for neighbor in gnfa.eliminate(victim):
            if neighbor not in eliminated and neighbor in tiebreak:
                heapq.heappush(
                    heap,
                    (gnfa.degree(neighbor), str(neighbor), tiebreak[neighbor], neighbor),
                )

    from repro.regex.simplify import simplify

    return simplify(gnfa.out_edges.get(_INITIAL, {}).get(_FINAL, EMPTY))


def dfa_to_regex_string(dfa: DFA) -> str:
    """Convenience: synthesise and render the expression."""
    from repro.regex.printer import to_string

    return to_string(dfa_to_regex(dfa))


def roundtrip_minimal_dfa(expression) -> DFA:
    """Parse an expression, build its minimal DFA (used in property tests)."""
    from repro.automata.determinize import regex_to_dfa
    from repro.automata.minimize import minimize

    return minimize(regex_to_dfa(expression))
