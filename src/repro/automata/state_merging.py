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

Two public entry points:

* :func:`rpni` — classic RPNI against an explicit set of negative words;
* :func:`generalize_pta` — RPNI with an arbitrary compatibility callback
  (used by :mod:`repro.learning.learner` with graph-level negatives).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.automata.dfa import DFA
from repro.automata.prefix_tree import build_pta

Word = Tuple[str, ...]
Compatibility = Callable[[DFA], bool]


class _Partition:
    """Union-find over PTA states with deterministic representative choice.

    The representative of a block is its smallest member (PTA states are
    integers in BFS order), which keeps the merge order — and therefore
    the learned automaton — deterministic across runs.

    Every block additionally tracks an explicit member list, so folding
    (:func:`_merge_and_fold`), frontier computation and partition
    signatures iterate only over the blocks they touch instead of
    re-walking the whole union-find per step.
    """

    __slots__ = ("_parent", "_members")

    def __init__(self, states: Iterable[int]):
        self._parent: Dict[int, int] = {state: state for state in states}
        self._members: Dict[int, List[int]] = {state: [state] for state in self._parent}

    def find(self, state: int) -> int:
        root = state
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[state] != root:
            self._parent[state], state = root, self._parent[state]
        return root

    def union(self, first: int, second: int) -> int:
        """Merge the blocks of ``first`` and ``second``; return the representative."""
        first_root, second_root = self.find(first), self.find(second)
        if first_root == second_root:
            return first_root
        keep, drop = (first_root, second_root) if first_root < second_root else (second_root, first_root)
        self._parent[drop] = keep
        self._members[keep].extend(self._members.pop(drop))
        return keep

    def copy(self) -> "_Partition":
        clone = _Partition(())
        clone._parent = dict(self._parent)
        clone._members = {root: list(members) for root, members in self._members.items()}
        return clone

    def members(self, state: int) -> List[int]:
        """The member list of the block containing ``state`` (do not mutate)."""
        return self._members[self.find(state)]

    def roots(self) -> Iterable[int]:
        """The block representatives (one per block, unordered)."""
        return self._members.keys()

    def blocks(self) -> Dict[int, List[int]]:
        """Mapping representative -> sorted members."""
        return {root: sorted(members) for root, members in self._members.items()}


def _quotient(pta: DFA, partition: _Partition) -> DFA:
    """Build the quotient DFA of ``pta`` under ``partition``.

    Assumes the partition has already been folded to determinism.  The
    transition table is read block by block off the partition's member
    lists — the source root is the block root, so only targets need a
    ``find``.
    """
    transitions = pta._transitions
    find = partition.find
    quotient = DFA(find(pta.initial_state))
    for representative in partition.roots():
        quotient.add_state(representative)
    quotient.set_initial(find(pta.initial_state))
    quotient.declare_alphabet(pta.alphabet())
    for root, members in partition._members.items():
        for member in members:
            for symbol, target in transitions[member].items():
                quotient.add_transition(root, symbol, find(target))
    for state in pta.accepting_states:
        quotient.set_accepting(find(state))
    return quotient


def _merge_and_fold(pta: DFA, partition: _Partition, red: int, blue: int) -> _Partition:
    """Merge ``blue`` into ``red`` and fold until deterministic.

    Returns the folded partition; ``partition`` itself is left unchanged.
    """
    candidate = partition.copy()
    transitions = pta._transitions
    worklist: List[Tuple[int, int]] = [(red, blue)]
    while worklist:
        first, second = worklist.pop()
        first_root, second_root = candidate.find(first), candidate.find(second)
        if first_root == second_root:
            continue
        merged_root = candidate.union(first_root, second_root)
        # collect the outgoing transitions of every member of the merged
        # block (reading its member list directly; the folded closure is
        # the unique determinising congruence, so the member iteration
        # order cannot change the result)
        find = candidate.find
        outgoing: Dict[str, int] = {}
        for member in candidate.members(merged_root):
            for symbol, target in transitions[member].items():
                target_root = find(target)
                known = outgoing.get(symbol)
                if known is not None and find(known) != target_root:
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

    ``compatible`` receives a candidate quotient DFA and must return True
    when the candidate is acceptable (e.g. covers no negative example).
    The PTA itself must be compatible — callers are expected to have
    chosen consistent positive words beforehand.

    Compatibility verdicts are memoised per *merge partition signature*
    (the canonical block decomposition of the candidate): two merge
    attempts that fold to the same partition denote the same quotient
    automaton, so the — potentially expensive — predicate runs once per
    distinct candidate within a generalisation run.

    ``max_merges`` optionally caps the number of accepted merges (used by
    ablation benchmarks to study partially generalised hypotheses).
    """
    words = [tuple(word) for word in positive_words]
    pta = build_pta(words)
    partition = _Partition(pta.states)
    red: List[int] = [pta.initial_state]
    merges_done = 0
    verdicts: Dict[Tuple[int, ...], bool] = {}
    state_count = pta.state_count()

    def partition_signature(candidate: _Partition) -> Tuple[int, ...]:
        # the root of every state, in state order: a canonical encoding of
        # the block decomposition (roots are the smallest block members;
        # PTA states are exactly 0..n-1, so an array scatter beats n finds)
        signature = [0] * state_count
        for root, members in candidate._members.items():
            for member in members:
                signature[member] = root
        return tuple(signature)

    transitions = pta._transitions

    def blue_states() -> List[int]:
        # the quotient's frontier, read straight off the PTA transitions
        # through the partition — only the members of red blocks are
        # visited (earlier revisions walked every PTA state per round, or
        # worse, built the whole quotient DFA per loop iteration)
        frontier: Set[int] = set()
        find = partition.find
        red_roots = {find(state) for state in red}
        for red_root in sorted(red_roots):
            for member in partition.members(red_root):
                for target in transitions[member].values():
                    target_root = find(target)
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
            for red_state in sorted({partition.find(state) for state in red}):
                candidate = _merge_and_fold(pta, partition, red_state, blue)
                signature = partition_signature(candidate)
                verdict = verdicts.get(signature)
                if verdict is None:
                    verdict = compatible(_quotient(pta, candidate))
                    verdicts[signature] = verdict
                if verdict:
                    partition = candidate
                    merges_done += 1
                    merged = True
                    break
        if not merged:
            red.append(blue)
    return _quotient(pta, partition).trim().relabeled()


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

    def compatible(candidate: DFA) -> bool:
        return not any(candidate.accepts(word) for word in negatives)

    return generalize_pta(positives, compatible, max_merges=max_merges)
