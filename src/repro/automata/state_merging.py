"""State-merging generalisation (RPNI-style) of a prefix-tree acceptor.

Step (ii) of the paper's learning algorithm: *"construct an automaton
recognizing precisely the paths found at the previous step and generalize
it by state merges while no negative example is covered."*

The generaliser starts from the PTA of the positive words and repeatedly
tries to merge a "blue" frontier state into a "red" consolidated state
(the evidence-driven order of RPNI).  A merge is kept only when the
resulting quotient automaton still satisfies a caller-provided
*compatibility* predicate; the paper's instantiation of that predicate is
"the hypothesis does not cover any negative node", i.e. it accepts no word
of any negative node's (bounded) path language.

Each merge candidate is judged on its folded partition itself: the
predicate reads a :class:`QuotientView`, whose block transitions are
gathered from the members' PTA transitions only when a walk reaches the
block.  The one :class:`~repro.automata.dfa.DFA` built from a partition is
the result, once per run.

Two public entry points:

* :func:`rpni` — classic RPNI against an explicit set of negative words;
* :func:`generalize_pta` — RPNI with an arbitrary compatibility callback
  (used by :mod:`repro.learning.learner` with graph-level negatives).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.automata.dfa import DFA, symbol_sort_key
from repro.automata.prefix_tree import build_pta

Word = Tuple[str, ...]


class _Partition:
    """Quick-find partition of the PTA states ``0..n-1``.

    ``_root`` maps every state to its block's representative, the block's
    smallest member (PTA states are integers in BFS order), which keeps
    the merge order — and therefore the learned automaton — deterministic
    across runs.  ``_members`` maps each representative to its member
    list.  A union relabels the members of the dropped block and stores
    the merged member list as a new list, never extending one in place,
    so a copy shares the member lists of its original.
    """

    __slots__ = ("_root", "_members")

    def __init__(self, states: Iterable[int]):
        # the states are exactly 0..n-1, so sorted they map each to itself
        self._root: List[int] = sorted(states)
        self._members: Dict[int, List[int]] = {state: [state] for state in self._root}

    def find(self, state: int) -> int:
        return self._root[state]

    def union(self, first: int, second: int) -> int:
        """Merge the blocks of ``first`` and ``second``; return the representative."""
        root = self._root
        first_root, second_root = root[first], root[second]
        if first_root == second_root:
            return first_root
        keep, drop = (first_root, second_root) if first_root < second_root else (second_root, first_root)
        moved = self._members.pop(drop)
        for member in moved:
            root[member] = keep
        self._members[keep] = self._members[keep] + moved
        return keep

    def copy(self) -> "_Partition":
        clone = _Partition.__new__(_Partition)
        clone._root = self._root[:]
        clone._members = dict(self._members)
        return clone

    def members(self, state: int) -> List[int]:
        """The member list of the block containing ``state`` (do not mutate)."""
        return self._members[self._root[state]]

    def roots(self) -> Iterable[int]:
        """The block representatives (one per block, unordered)."""
        return self._members.keys()

    def blocks(self) -> Dict[int, List[int]]:
        """Mapping representative -> sorted members."""
        return {root: sorted(members) for root, members in self._members.items()}


class _BlockMoves(dict):
    """Block -> {symbol: block}, gathered from the members' PTA moves on first read."""

    __slots__ = ("_pta_moves", "_root", "_members")

    def __init__(self, pta_moves: Dict[int, Dict[str, int]], partition: _Partition):
        super().__init__()
        self._pta_moves = pta_moves
        self._root = partition._root
        self._members = partition._members

    def __missing__(self, block: int) -> Dict[str, int]:
        pta_moves = self._pta_moves
        root = self._root
        moves: Dict[str, int] = {}
        for member in self._members[block]:
            for symbol, target in pta_moves[member].items():
                moves[symbol] = root[target]
        self[block] = moves
        return moves


class QuotientView:
    """The quotient of a prefix-tree acceptor by a folded partition, read lazily.

    The compatibility predicate of :func:`generalize_pta` receives one
    view per merge candidate.  It reads like a
    :class:`~repro.automata.dfa.DFA`: its states are the blocks (named by
    their smallest member), ``initial_state``, ``_accepting`` (the set of
    accepting blocks) and ``_transitions`` (block -> {symbol: block}) are
    the attributes the DFA readers walk, and :meth:`accepts`,
    :meth:`is_accepting`, :meth:`reachable_states` and
    :meth:`productive_states` answer as the DFA methods do.  A block's
    transitions are gathered from its members' PTA transitions the first
    time a walk reaches it, so a predicate that stops at its first witness
    pays only for the blocks it read.  :meth:`to_dfa` builds the quotient.
    """

    __slots__ = ("_pta", "_blocks", "initial_state", "_accepting", "_transitions")

    def __init__(self, pta: DFA, partition: _Partition):
        root = partition._root
        self._pta = pta
        self._blocks = partition._members
        self.initial_state: int = root[pta.initial_state]
        self._accepting: Set[int] = {root[state] for state in pta._accepting}
        self._transitions: Dict[int, Dict[str, int]] = _BlockMoves(pta._transitions, partition)

    def is_accepting(self, state: int) -> bool:
        """True when block ``state`` holds an accepting PTA state."""
        return state in self._accepting

    def accepts(self, word: Sequence[str]) -> bool:
        """True when ``word`` is in the quotient's language."""
        transitions = self._transitions
        state = self.initial_state
        for symbol in word:
            state = transitions[state].get(symbol)
            if state is None:
                return False
        return state in self._accepting

    def reachable_states(self) -> FrozenSet[int]:
        """Every block: each PTA state is reached by its own prefix."""
        return frozenset(self._blocks)

    def productive_states(self) -> FrozenSet[int]:
        """Every block when some word is accepted: each PTA state prefixes a sample word."""
        return self.reachable_states() if self._accepting else frozenset()

    def to_dfa(self) -> DFA:
        """The quotient as a DFA with states ``0..n-1`` in BFS order.

        Successors are visited in ``symbol_sort_key`` order, so the result
        equals the quotient DFA after :meth:`~repro.automata.dfa.DFA.relabeled`
        (every block is reachable, so there is nothing to trim).
        """
        transitions = self._transitions
        order = [self.initial_state]
        index = {self.initial_state: 0}
        for block in order:  # the list grows while it is read: a BFS queue
            moves = transitions[block]
            for symbol in sorted(moves, key=symbol_sort_key):
                target = moves[symbol]
                if target not in index:
                    index[target] = len(order)
                    order.append(target)
        dfa = DFA(0)
        for number in range(1, len(order)):
            dfa.add_state(number)
        for number, block in enumerate(order):
            if block in self._accepting:
                dfa.set_accepting(number)
            for symbol, target in transitions[block].items():
                dfa.add_transition(number, symbol, index[target])
        dfa.declare_alphabet(self._pta.alphabet())
        return dfa


Compatibility = Callable[[QuotientView], bool]


def _merge_and_fold(pta: DFA, partition: _Partition, red: int, blue: int) -> _Partition:
    """Merge ``blue`` into ``red`` and fold until deterministic.

    Returns the folded partition; ``partition`` itself is left unchanged.
    """
    candidate = partition.copy()
    transitions = pta._transitions
    root = candidate._root
    members = candidate._members
    worklist: List[Tuple[int, int]] = [(red, blue)]
    while worklist:
        first, second = worklist.pop()
        if root[first] == root[second]:
            continue
        merged_root = candidate.union(first, second)
        # collect the outgoing transitions of every member of the merged
        # block (reading its member list directly; the folded closure is
        # the unique determinising congruence, so the member iteration
        # order cannot change the result)
        outgoing: Dict[str, int] = {}
        for member in members[merged_root]:
            for symbol, target in transitions[member].items():
                target_root = root[target]
                known = outgoing.get(symbol)
                if known is not None and root[known] != target_root:
                    worklist.append((known, target_root))
                else:
                    outgoing[symbol] = target_root
    return candidate


def generalize_pta(
    positive_words: Iterable[Sequence[str]],
    compatible: Compatibility,
    *,
    max_merges: Optional[int] = None,
) -> DFA:
    """Generalise the PTA of ``positive_words`` by state merging.

    ``compatible`` receives each merge candidate as a
    :class:`QuotientView` of the PTA and must return True when the
    candidate is acceptable (e.g. covers no negative example).  The PTA
    itself must be compatible — callers are expected to have chosen
    consistent positive words beforehand.  The result is the one DFA built
    from a partition, with its states numbered in BFS order.

    ``max_merges`` optionally caps the number of accepted merges (used by
    ablation benchmarks to study partially generalised hypotheses).
    """
    words = [tuple(word) for word in positive_words]
    pta = build_pta(words)
    partition = _Partition(pta.states)
    red: List[int] = [pta.initial_state]
    merges_done = 0
    transitions = pta._transitions

    def blue_states() -> List[int]:
        # the quotient's frontier, read straight off the PTA transitions
        # through the partition — only the members of red blocks are
        # visited (earlier revisions walked every PTA state per round, or
        # worse, built the whole quotient DFA per loop iteration)
        frontier: Set[int] = set()
        root = partition._root
        red_roots = {root[state] for state in red}
        for red_root in sorted(red_roots):
            for member in partition._members[red_root]:
                for target in transitions[member].values():
                    target_root = root[target]
                    if target_root not in red_roots:
                        frontier.add(target_root)
        return sorted(frontier)

    while True:
        frontier = blue_states()
        if not frontier:
            break
        blue = frontier[0]
        merged = False
        if max_merges is None or merges_done < max_merges:
            root = partition._root
            for red_state in sorted({root[state] for state in red}):
                candidate = _merge_and_fold(pta, partition, red_state, blue)
                if compatible(QuotientView(pta, candidate)):
                    partition = candidate
                    merges_done += 1
                    merged = True
                    break
        if not merged:
            red.append(blue)
    return QuotientView(pta, partition).to_dfa()


def rpni(
    positive_words: Iterable[Sequence[str]],
    negative_words: Iterable[Sequence[str]],
    *,
    max_merges: Optional[int] = None,
) -> DFA:
    """Classic RPNI: generalise positives while rejecting every negative word.

    Raises :class:`ValueError` when the samples overlap (no consistent
    automaton exists).
    """
    positives = [tuple(word) for word in positive_words]
    negatives = {tuple(word) for word in negative_words}
    overlap = set(positives) & negatives
    if overlap:
        raise ValueError(f"samples are inconsistent; words in both sets: {sorted(overlap)}")

    def compatible(candidate: QuotientView) -> bool:
        return not any(candidate.accepts(word) for word in negatives)

    return generalize_pta(positives, compatible, max_merges=max_merges)
