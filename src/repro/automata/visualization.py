"""Rendering of automata as Graphviz DOT and ASCII transition tables.

The learned query is primarily shown to the user as a regular expression,
but when debugging the learner (or teaching the algorithm) it helps to
look at the automata themselves: the PTA before generalisation, the
hypothesis after each merge, the minimal DFA of the goal query.  These
renderers are dependency-free (they emit DOT text; rendering to an image
is left to graphviz if available).
"""

from __future__ import annotations

from typing import List, Union

from repro.automata.dfa import DFA
from repro.automata.nfa import NFA

Automaton = Union[DFA, NFA]


def _escape(value) -> str:
    return str(value).replace('"', '\\"')


def to_dot(automaton: Automaton, *, name: str = "automaton") -> str:
    """Graphviz DOT for a DFA or NFA.

    Accepting states are drawn as double circles; the initial state(s) get
    an incoming arrow from an invisible point node; epsilon transitions are
    labelled ``ε``.
    """
    lines: List[str] = [f'digraph "{_escape(name)}" {{', "  rankdir=LR;", '  node [shape=circle];']
    if isinstance(automaton, DFA):
        initial_states = [automaton.initial_state]
        accepting = automaton.accepting_states
        transitions = [(source, symbol, target) for source, symbol, target in automaton.transitions()]
        states = automaton.states
    else:
        initial_states = sorted(automaton.initial_states, key=str)
        accepting = automaton.accepting_states
        transitions = [
            (source, symbol if symbol is not None else "ε", target)
            for source, symbol, target in automaton.transitions()
        ]
        states = automaton.states

    for state in sorted(states, key=str):
        shape = "doublecircle" if state in accepting else "circle"
        lines.append(f'  "{_escape(state)}" [shape={shape}];')
    for index, state in enumerate(initial_states):
        lines.append(f'  "__start{index}__" [shape=point, style=invis];')
        lines.append(f'  "__start{index}__" -> "{_escape(state)}";')
    for source, symbol, target in sorted(transitions, key=lambda item: (str(item[0]), str(item[1]), str(item[2]))):
        lines.append(f'  "{_escape(source)}" -> "{_escape(target)}" [label="{_escape(symbol)}"];')
    lines.append("}")
    return "\n".join(lines)


def transition_table(dfa: DFA) -> str:
    """ASCII transition table of a DFA (one row per state).

    The initial state is marked with ``->`` and accepting states with ``*``.
    """
    alphabet = sorted(dfa.alphabet())
    header = ["state"] + list(alphabet)
    rows: List[List[str]] = []
    for state in sorted(dfa.states, key=str):
        marker = "->" if state == dfa.initial_state else "  "
        star = "*" if dfa.is_accepting(state) else " "
        row = [f"{marker}{star}{state}"]
        for symbol in alphabet:
            target = dfa.target(state, symbol)
            row.append(str(target) if target is not None else "-")
        rows.append(row)
    widths = [max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i]) for i in range(len(header))]
    lines = [
        " | ".join(header[i].ljust(widths[i]) for i in range(len(header))),
        "-+-".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append(" | ".join(row[i].ljust(widths[i]) for i in range(len(header))))
    return "\n".join(lines)
