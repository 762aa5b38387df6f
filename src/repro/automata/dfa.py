"""Deterministic finite automata.

The DFA is the workhorse representation: query evaluation on the graph is
a BFS over the product of the graph with the query DFA, and equivalence /
minimisation are defined on DFAs.  Transitions are kept in a nested
dictionary ``state -> symbol -> state`` and may be *partial* — a missing
transition is a rejecting dead end (completion is available when an
algorithm needs a total function, e.g. complementation or Hopcroft
minimisation).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import InvalidStateError

State = Hashable
Word = Tuple[str, ...]

#: Conventional name of the sink state added by :meth:`DFA.completed`.
SINK = "__sink__"


def symbol_sort_key(symbol) -> Tuple[str, str]:
    """Deterministic sort key for transition symbols of mixed types.

    Graph labels (and hence DFA symbols) are usually strings but may be
    any hashable value; comparing e.g. ``1`` with ``"a"`` raises
    ``TypeError``, so every canonical ordering of symbols goes through
    this key.  The type name breaks ties between values with equal
    ``str()`` renderings (``1`` vs ``"1"``).
    """
    return (str(symbol), type(symbol).__name__)


def word_sort_key(word: Sequence) -> Tuple[Tuple[str, str], ...]:
    """Deterministic sort key for words whose symbols may mix types."""
    return tuple(symbol_sort_key(symbol) for symbol in word)


class DFA:
    """A (possibly partial) deterministic finite automaton."""

    def __init__(self, initial: State = 0):
        self._states: Set[State] = {initial}
        self._initial: State = initial
        self._accepting: Set[State] = set()
        self._transitions: Dict[State, Dict[str, State]] = {initial: {}}
        self._alphabet: Set[str] = set()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_state(self, state: State) -> State:
        """Register ``state`` (idempotent) and return it."""
        if state not in self._states:
            self._states.add(state)
            self._transitions[state] = {}
        return state

    def set_initial(self, state: State) -> None:
        """Change the initial state (must already be registered)."""
        self._require(state)
        self._initial = state

    def set_accepting(self, state: State, accepting: bool = True) -> None:
        """Mark or unmark ``state`` as accepting."""
        self._require(state)
        if accepting:
            self._accepting.add(state)
        else:
            self._accepting.discard(state)

    def add_transition(self, source: State, symbol: str, target: State) -> None:
        """Add the transition ``source -symbol-> target`` (overwrites any previous one)."""
        if symbol is None:
            raise ValueError("DFA transitions cannot be epsilon")
        self._require(source)
        self._require(target)
        self._transitions[source][symbol] = target
        self._alphabet.add(symbol)

    def declare_alphabet(self, symbols: Iterable[str]) -> None:
        """Extend the declared alphabet (affects completion and complement)."""
        self._alphabet.update(symbols)

    def _require(self, state: State) -> None:
        if state not in self._states:
            raise InvalidStateError(state)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def initial_state(self) -> State:
        """The initial state."""
        return self._initial

    @property
    def states(self) -> FrozenSet[State]:
        """All registered states."""
        return frozenset(self._states)

    @property
    def accepting_states(self) -> FrozenSet[State]:
        """The accepting states."""
        return frozenset(self._accepting)

    def is_accepting(self, state: State) -> bool:
        """True when ``state`` is accepting."""
        return state in self._accepting

    def alphabet(self) -> FrozenSet[str]:
        """The declared alphabet (symbols seen on transitions plus declared extras)."""
        return frozenset(self._alphabet)

    def transitions(self) -> Iterator[Tuple[State, str, State]]:
        """Iterate over transitions as ``(source, symbol, target)``."""
        for source, moves in self._transitions.items():
            for symbol, target in moves.items():
                yield (source, symbol, target)

    def target(self, state: State, symbol: str) -> Optional[State]:
        """The successor of ``state`` on ``symbol`` or ``None`` when undefined."""
        self._require(state)
        return self._transitions[state].get(symbol)

    def outgoing(self, state: State) -> Dict[str, State]:
        """The outgoing transition map of ``state`` (copy)."""
        self._require(state)
        return dict(self._transitions[state])

    def state_count(self) -> int:
        """Number of states."""
        return len(self._states)

    def transition_count(self) -> int:
        """Number of transitions."""
        return sum(len(moves) for moves in self._transitions.values())

    def __repr__(self) -> str:
        return (
            f"<DFA {self.state_count()} states, {self.transition_count()} transitions, "
            f"{len(self._accepting)} accepting>"
        )

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------
    def run(self, word: Sequence[str]) -> Optional[State]:
        """Run the automaton on ``word``; return the final state or ``None`` on a dead end."""
        state = self._initial
        for symbol in word:
            state = self._transitions[state].get(symbol)
            if state is None:
                return None
        return state

    def accepts(self, word: Sequence[str]) -> bool:
        """True when ``word`` is in the language."""
        state = self.run(word)
        return state is not None and state in self._accepting

    def reachable_states(self) -> FrozenSet[State]:
        """States reachable from the initial state."""
        seen: Set[State] = {self._initial}
        stack = [self._initial]
        while stack:
            state = stack.pop()
            for target in self._transitions[state].values():
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        return frozenset(seen)

    def productive_states(self) -> FrozenSet[State]:
        """States from which an accepting state is reachable."""
        # reverse adjacency
        reverse: Dict[State, Set[State]] = {state: set() for state in self._states}
        for source, _, target in self.transitions():
            reverse[target].add(source)
        seen: Set[State] = set(self._accepting)
        stack = list(self._accepting)
        while stack:
            state = stack.pop()
            for source in reverse[state]:
                if source not in seen:
                    seen.add(source)
                    stack.append(source)
        return frozenset(seen)

    def is_empty(self) -> bool:
        """True when the language is empty."""
        return not (self.reachable_states() & self._accepting)

    def accepts_empty_word(self) -> bool:
        """True when the empty word is accepted."""
        return self._initial in self._accepting

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def trim(self) -> "DFA":
        """Return an equivalent DFA keeping only reachable states.

        (Productive-state trimming is not applied because partial DFAs may
        legitimately contain rejecting sinks that algorithms rely on.)
        """
        keep = self.reachable_states()
        trimmed = DFA(self._initial)
        for state in keep:
            trimmed.add_state(state)
        trimmed.set_initial(self._initial)
        for state in keep:
            if state in self._accepting:
                trimmed.set_accepting(state)
            for symbol, target in self._transitions[state].items():
                if target in keep:
                    trimmed.add_transition(state, symbol, target)
        trimmed.declare_alphabet(self._alphabet)
        return trimmed

    def completed(self, alphabet: Optional[Iterable[str]] = None) -> "DFA":
        """Return an equivalent *total* DFA over ``alphabet`` (default: declared alphabet).

        Missing transitions are redirected to a fresh non-accepting sink.
        """
        symbols = set(alphabet) if alphabet is not None else set(self._alphabet)
        symbols.update(self._alphabet)
        total = DFA(self._initial)
        for state in self._states:
            total.add_state(state)
        total.set_initial(self._initial)
        for state in self._accepting:
            total.set_accepting(state)
        needs_sink = False
        for state in self._states:
            for symbol in symbols:
                target = self._transitions[state].get(symbol)
                if target is None:
                    needs_sink = True
        if needs_sink:
            total.add_state(SINK)
        for state in self._states:
            for symbol in symbols:
                target = self._transitions[state].get(symbol, SINK if needs_sink else None)
                if target is not None:
                    total.add_transition(state, symbol, target)
        if needs_sink:
            for symbol in symbols:
                total.add_transition(SINK, symbol, SINK)
        total.declare_alphabet(symbols)
        return total

    def complement(self, alphabet: Optional[Iterable[str]] = None) -> "DFA":
        """Return a DFA for the complement language over ``alphabet``."""
        total = self.completed(alphabet)
        flipped = DFA(total.initial_state)
        for state in total.states:
            flipped.add_state(state)
        flipped.set_initial(total.initial_state)
        for state in total.states:
            if not total.is_accepting(state):
                flipped.set_accepting(state)
        for source, symbol, target in total.transitions():
            flipped.add_transition(source, symbol, target)
        flipped.declare_alphabet(total.alphabet())
        return flipped

    def relabeled(self) -> "DFA":
        """Return an isomorphic DFA whose states are ``0..n-1`` in BFS order.

        Useful to canonicalise minimal DFAs before comparing or hashing.
        """
        order: List[State] = []
        seen: Set[State] = {self._initial}
        queue: deque = deque([self._initial])
        while queue:
            state = queue.popleft()
            order.append(state)
            for symbol in sorted(self._transitions[state], key=symbol_sort_key):
                target = self._transitions[state][symbol]
                if target not in seen:
                    seen.add(target)
                    queue.append(target)
        mapping = {state: index for index, state in enumerate(order)}
        renamed = DFA(0)
        for index in range(len(order)):
            renamed.add_state(index)
        renamed.set_initial(mapping[self._initial])
        for state in order:
            if state in self._accepting:
                renamed.set_accepting(mapping[state])
            for symbol, target in self._transitions[state].items():
                if target in mapping:
                    renamed.add_transition(mapping[state], symbol, mapping[target])
        renamed.declare_alphabet(self._alphabet)
        return renamed

    def copy(self) -> "DFA":
        """Return an independent copy."""
        clone = DFA(self._initial)
        for state in self._states:
            clone.add_state(state)
        clone.set_initial(self._initial)
        for state in self._accepting:
            clone.set_accepting(state)
        for source, symbol, target in self.transitions():
            clone.add_transition(source, symbol, target)
        clone.declare_alphabet(self._alphabet)
        return clone

    # ------------------------------------------------------------------
    # language exploration
    # ------------------------------------------------------------------
    def accepted_words(self, max_length: int, *, limit: Optional[int] = None) -> List[Word]:
        """Enumerate accepted words of length ≤ ``max_length`` (shortest first)."""
        words: List[Word] = []
        queue: deque = deque([((), self._initial)])
        while queue:
            word, state = queue.popleft()
            if state in self._accepting:
                words.append(word)
                if limit is not None and len(words) >= limit:
                    return words
            if len(word) >= max_length:
                continue
            for symbol in sorted(self._transitions[state], key=symbol_sort_key):
                queue.append((word + (symbol,), self._transitions[state][symbol]))
        return words

    def shortest_accepted_word(self) -> Optional[Word]:
        """A shortest accepted word, or ``None`` when the language is empty."""
        seen: Set[State] = {self._initial}
        queue: deque = deque([((), self._initial)])
        while queue:
            word, state = queue.popleft()
            if state in self._accepting:
                return word
            for symbol in sorted(self._transitions[state], key=symbol_sort_key):
                target = self._transitions[state][symbol]
                if target not in seen:
                    seen.add(target)
                    queue.append((word + (symbol,), target))
        return None
