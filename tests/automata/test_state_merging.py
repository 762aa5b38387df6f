"""Unit tests for RPNI-style state merging."""

import itertools
import random

import pytest

from repro.automata.dfa import DFA
from repro.automata.prefix_tree import build_pta
from repro.automata.state_merging import QuotientView, generalize_pta, rpni


class TestRpni:
    def test_consistency_always_holds(self):
        positives = [("a",), ("a", "a", "a")]
        negatives = [(), ("a", "a")]
        learned = rpni(positives, negatives)
        for word in positives:
            assert learned.accepts(word)
        for word in negatives:
            assert not learned.accepts(word)

    def test_generalizes_to_star_language(self):
        # positives from (ab)*a; negatives outside it
        positives = [("a",), ("a", "b", "a"), ("a", "b", "a", "b", "a")]
        negatives = [(), ("b",), ("a", "b"), ("a", "a")]
        learned = rpni(positives, negatives)
        # the learned automaton should accept longer words of the pattern
        assert learned.accepts(("a", "b", "a", "b", "a", "b", "a"))
        assert not learned.accepts(("a", "b"))

    def test_paper_example_generalization(self):
        """From {bus.tram.cinema, cinema} with negatives, RPNI reaches (bus+tram)*.cinema."""
        positives = [("bus", "tram", "cinema"), ("cinema",)]
        negatives = [(), ("bus",), ("tram",), ("bus", "tram"), ("cinema", "cinema")]
        learned = rpni(positives, negatives)
        assert learned.accepts(("tram", "bus", "cinema"))
        assert learned.accepts(("bus", "bus", "bus", "cinema"))
        assert not learned.accepts(("bus",))
        assert not learned.accepts(("cinema", "cinema"))

    def test_no_generalization_without_evidence(self):
        # one positive, negatives block everything else nearby
        positives = [("a", "b")]
        negatives = [(), ("a",), ("b",), ("a", "a"), ("b", "b"), ("a", "b", "a"), ("a", "b", "b")]
        learned = rpni(positives, negatives)
        assert learned.accepts(("a", "b"))
        for word in negatives:
            assert not learned.accepts(word)

    def test_overlapping_samples_raise(self):
        with pytest.raises(ValueError):
            rpni([("a",)], [("a",)])

    def test_empty_negative_set_collapses_to_universal_like(self):
        positives = [("a",), ("a", "a")]
        learned = rpni(positives, [])
        # with no negatives every merge is allowed: single accepting state
        assert learned.state_count() == 1
        assert learned.accepts(("a", "a", "a", "a"))

    def test_learned_automaton_is_smaller_than_pta(self):
        positives = [("a",) * length for length in range(1, 8)]
        negatives = [()]
        learned = rpni(positives, negatives)
        assert learned.state_count() <= 3

    def test_max_merges_limits_generalization(self):
        positives = [("a",) * length for length in range(1, 6)]
        negatives = [()]
        ungeneralized = rpni(positives, negatives, max_merges=0)
        generalized = rpni(positives, negatives)
        assert ungeneralized.state_count() > generalized.state_count()

    def test_determinism_of_result(self):
        positives = [("a", "b"), ("b", "a"), ("a", "b", "a", "b")]
        negatives = [("a",), ("b",)]
        first = rpni(positives, negatives)
        second = rpni(positives, negatives)
        assert sorted(first.transitions()) == sorted(second.transitions())
        assert first.accepting_states == second.accepting_states


class TestPartitionBlocks:
    """The union-find's explicit block-member lists stay consistent."""

    def test_member_lists_track_unions(self):
        from repro.automata.state_merging import _Partition

        partition = _Partition(range(6))
        partition.union(0, 3)
        partition.union(3, 5)
        partition.union(2, 4)
        blocks = partition.blocks()
        assert blocks == {0: [0, 3, 5], 1: [1], 2: [2, 4]}
        assert sorted(partition.roots()) == [0, 1, 2]
        assert partition.members(5) == partition.members(0)
        assert sorted(partition.members(4)) == [2, 4]

    def test_copy_is_independent(self):
        from repro.automata.state_merging import _Partition

        # copies share their member lists, so a union on either side,
        # including one that grows the shared block {0, 1}, must leave the
        # other side's blocks as they were
        partition = _Partition(range(6))
        partition.union(0, 1)
        clone = partition.copy()
        clone.union(2, 3)
        clone.union(1, 4)
        assert partition.blocks() == {0: [0, 1], 2: [2], 3: [3], 4: [4], 5: [5]}
        assert clone.blocks() == {0: [0, 1, 4], 2: [2, 3], 5: [5]}
        partition.union(5, 0)
        partition.union(3, 2)
        assert clone.blocks() == {0: [0, 1, 4], 2: [2, 3], 5: [5]}
        assert partition.blocks() == {0: [0, 1, 5], 2: [2, 3], 4: [4]}
        assert [clone.find(state) for state in range(6)] == [0, 0, 2, 2, 0, 5]
        assert [partition.find(state) for state in range(6)] == [0, 0, 2, 2, 4, 0]

    def test_one_run_builds_two_dfas(self, monkeypatch):
        # the PTA and the result are the only DFAs: every merge candidate
        # reaches the predicate as a view of its folded partition
        built = []
        original_init = DFA.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(DFA, "__init__", counting_init)
        negatives = [word for length in range(4) for word in itertools.product("abc", repeat=length)]
        judged = []

        def compatible(candidate):
            judged.append(candidate)
            return not any(candidate.accepts(word) for word in negatives)

        learned = generalize_pta([tuple("abcabcabca"), tuple("bcab")], compatible)
        assert learned.state_count() == 5  # some merges were kept
        assert len(judged) >= 20
        assert all(type(candidate) is QuotientView for candidate in judged)
        assert len(built) == 2
        assert built[-1] is learned

    def test_representative_is_smallest_member(self):
        from repro.automata.state_merging import _Partition

        partition = _Partition(range(5))
        partition.union(4, 2)
        partition.union(2, 0)
        assert partition.find(4) == 0
        assert set(partition.members(4)) == {0, 2, 4}


class TestGeneralizePta:
    def test_custom_compatibility_predicate(self):
        # forbid any automaton accepting the word ('b',)
        def compatible(candidate):
            return not candidate.accepts(("b",))

        learned = generalize_pta([("a",), ("a", "a")], compatible)
        assert learned.accepts(("a",))
        assert not learned.accepts(("b",))

    def test_always_true_predicate_gives_one_state(self):
        learned = generalize_pta([("a", "b"), ("b",)], lambda candidate: True)
        assert learned.state_count() == 1

    def test_result_always_accepts_positives(self):
        positives = [("x", "y"), ("x",), ("y", "y", "x")]

        def compatible(candidate):
            return not candidate.accepts(()) and not candidate.accepts(("y",))

        learned = generalize_pta(positives, compatible)
        for word in positives:
            assert learned.accepts(word)
        assert not learned.accepts(())
        assert not learned.accepts(("y",))


# ----------------------------------------------------------------------
# step (ii) against the quotient-building implementation it replaced
# ----------------------------------------------------------------------
class _ReplicaPartition:
    """The replaced union-find: path compression plus per-block member lists."""

    def __init__(self, states):
        self._parent = {state: state for state in states}
        self._members = {state: [state] for state in self._parent}

    def find(self, state):
        root = state
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[state] != root:
            self._parent[state], state = root, self._parent[state]
        return root

    def union(self, first, second):
        first_root, second_root = self.find(first), self.find(second)
        if first_root == second_root:
            return first_root
        keep, drop = sorted((first_root, second_root))
        self._parent[drop] = keep
        self._members[keep].extend(self._members.pop(drop))
        return keep

    def copy(self):
        clone = _ReplicaPartition(())
        clone._parent = dict(self._parent)
        clone._members = {root: list(members) for root, members in self._members.items()}
        return clone


def _replica_quotient(pta, partition):
    find = partition.find
    quotient = DFA(find(pta.initial_state))
    for representative in partition._members:
        quotient.add_state(representative)
    quotient.set_initial(find(pta.initial_state))
    quotient.declare_alphabet(pta.alphabet())
    for root, members in partition._members.items():
        for member in members:
            for symbol, target in pta._transitions[member].items():
                quotient.add_transition(root, symbol, find(target))
    for state in pta.accepting_states:
        quotient.set_accepting(find(state))
    return quotient


def _replica_merge_and_fold(pta, partition, red, blue):
    candidate = partition.copy()
    worklist = [(red, blue)]
    while worklist:
        first, second = worklist.pop()
        find = candidate.find
        if find(first) == find(second):
            continue
        merged_root = candidate.union(first, second)
        outgoing = {}
        for member in candidate._members[merged_root]:
            for symbol, target in pta._transitions[member].items():
                target_root = find(target)
                known = outgoing.get(symbol)
                if known is not None and find(known) != target_root:
                    worklist.append((known, target_root))
                else:
                    outgoing[symbol] = target_root
    return candidate


def _replica_generalize_pta(positive_words, compatible):
    """One quotient DFA per candidate, verdicts memoised by partition signature.

    Returns the learned DFA and the number of memo hits.
    """
    pta = build_pta([tuple(word) for word in positive_words])
    partition = _ReplicaPartition(pta.states)
    red = [pta.initial_state]
    verdicts = {}
    hits = 0
    while True:
        find = partition.find
        red_roots = {find(state) for state in red}
        frontier = sorted(
            {
                find(target)
                for red_root in sorted(red_roots)
                for member in partition._members[red_root]
                for target in pta._transitions[member].values()
            }
            - red_roots
        )
        if not frontier:
            break
        blue = frontier[0]
        for red_state in sorted(red_roots):
            candidate = _replica_merge_and_fold(pta, partition, red_state, blue)
            signature = tuple(candidate.find(state) for state in range(pta.state_count()))
            if signature in verdicts:
                hits += 1
                verdict = verdicts[signature]
            else:
                verdict = verdicts[signature] = compatible(_replica_quotient(pta, candidate))
            if verdict:
                partition = candidate
                break
        else:
            red.append(blue)
    return _replica_quotient(pta, partition).trim().relabeled(), hits


def _shape(dfa):
    """Everything a DFA holds, with each state's transitions in insertion order."""
    return (
        dfa.initial_state,
        [(state, list(moves.items())) for state, moves in dfa._transitions.items()],
        sorted(dfa.accepting_states),
        sorted(dfa.alphabet()),
    )


def _random_words(rng, alphabet, count, longest):
    return sorted(
        {tuple(rng.choice(alphabet) for _ in range(rng.randint(0, longest))) for _ in range(count)}
    )


class TestMatchesQuotientBuildingReplica:
    """The view-judged step (ii) equals the one-DFA-per-candidate replica."""

    @staticmethod
    def _assert_same_run(positives, make_predicate):
        # each side gets its own predicate instance (a seeded predicate
        # must start from the same state) and records, per candidate, the
        # verdict and the candidate's relabelled DFA
        seen_views, seen_dfas = [], []
        predicate = make_predicate()

        def judge_view(candidate):
            verdict = predicate(candidate)
            seen_views.append((verdict, _shape(candidate.to_dfa())))
            return verdict

        replica_predicate = make_predicate()

        def judge_dfa(candidate):
            verdict = replica_predicate(candidate)
            seen_dfas.append((verdict, _shape(candidate.trim().relabeled())))
            return verdict

        learned = generalize_pta(positives, judge_view)
        expected, memo_hits = _replica_generalize_pta(positives, judge_dfa)
        assert seen_views == seen_dfas
        assert _shape(learned) == _shape(expected)
        # the memo's premise: no two candidates of a run fold to one partition
        assert memo_hits == 0
        return len(seen_views)

    def test_word_set_negatives(self):
        candidates = 0
        for seed in range(200):
            rng = random.Random(seed)
            alphabet = "ab" if seed % 2 else "abc"
            positives = _random_words(rng, alphabet, rng.randint(1, 7), 5)
            negatives = set(_random_words(rng, alphabet, rng.randint(0, 9), 5)) - set(positives)

            def make_predicate(negatives=negatives):
                return lambda candidate: not any(candidate.accepts(word) for word in negatives)

            candidates += self._assert_same_run(positives, make_predicate)
        assert candidates > 1000

    def test_graph_negatives_through_the_compatibility_oracle(self):
        from repro.graph.generators import random_graph
        from repro.learning.language_index import CompatibilityOracle
        from repro.serving.workspace import GraphWorkspace

        workspace = GraphWorkspace()
        candidates = 0
        for seed in range(30):
            rng = random.Random(seed)
            graph = random_graph(20, 60, ("a", "b", "c"), seed=seed + 70)
            index = workspace.language_index(graph, 3)
            negatives = rng.sample(sorted(graph.nodes(), key=str), rng.randint(1, 4))
            oracle = CompatibilityOracle(graph, negatives, max_length=3, index=index)
            # positives the PTA can hold: words no negative spells
            positives = [
                word
                for word in _random_words(rng, "abc", 12, 4)
                if oracle.compatible(build_pta([word]))
            ]
            if not positives:
                continue
            candidates += self._assert_same_run(positives, lambda: oracle.compatible)
        assert candidates > 100

    def test_seeded_arbitrary_predicate(self):
        candidates = 0
        for seed in range(200):
            rng = random.Random(seed)
            positives = _random_words(rng, "abc", rng.randint(1, 7), 5)
            accept_rate = rng.choice((0.0, 0.2, 0.5, 0.8))

            def make_predicate(seed=seed, accept_rate=accept_rate):
                verdicts = random.Random(seed + 1000)
                return lambda candidate: verdicts.random() < accept_rate

            candidates += self._assert_same_run(positives, make_predicate)
        assert candidates > 1000
