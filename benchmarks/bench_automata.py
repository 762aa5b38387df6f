"""Benchmark of the automata kernel: indexed GNFA synthesis, Hopcroft
minimisation, block-tracking RPNI folds and the canonical-form cache.

The kernel is driven exclusively by **learner data from real sessions**:
interactive sessions run on catalogue graphs, and every automaton timed
here is an RPNI output (step (ii) of the paper's algorithm) over the
positive/negative word samples those sessions produced — at several
ablation levels (``max_merges``) so the corpus spans ungeneralised
PTA-sized hypotheses down to fully merged ones.

The **seed** implementations below are the pre-change code reproduced
verbatim: full-table ``degree()`` rescans inside the elimination sort
key, per-splitter partition rebuilds in ``minimize``, whole-union-find
walks per RPNI fold, and uncached minimise + synthesise per hypothesis.

Acceptance gates, asserted here and in the ``bench-automata-smoke`` CI
job:

* ``dfa_to_regex`` is **>= 10x** faster than the seed on the
  session-derived corpus, with every synthesised expression
  language-equivalent to the seed's (pinned via ``regex -> DFA``
  roundtrips);
* the re-learning step that runs after every user answer (RPNI +
  minimise + synthesise + wrap) improves measurably end to end across a
  full session replay;
* sessions driven by the seed kernel and the current kernel perform
  **bit-identical** interaction sequences, and every per-interaction
  hypothesis is language-equivalent between the two.
"""

import time
from contextlib import contextmanager
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.automata.dfa import DFA, symbol_sort_key, word_sort_key
from repro.automata.determinize import regex_to_dfa
from repro.automata.equivalence import equivalent
from repro.automata.minimize import _drop_dead_states, minimize
from repro.automata.prefix_tree import build_pta
from repro.automata.regex_synthesis import dfa_to_regex
from repro.automata.state_merging import rpni
from repro.graph.datasets import dataset_catalog
from repro.graph.paths import words_from
from repro.interactive.halt import AnyOf, MaxInteractions, UserSatisfied
from repro.interactive.oracle import SimulatedUser
from repro.interactive.session import InteractiveSession
from repro.learning.examples import ExampleSet
from repro.learning.learner import PathQueryLearner
from repro.query.engine import QueryEngine
from repro.regex.ast import EMPTY, EPSILON, Regex, Symbol
from repro.serving.workspace import GraphWorkspace

from conftest import write_artifact

#: (dataset, goal, max_path_length) session configurations the corpus is
#: harvested from — chosen so hypotheses are non-trivial automata
SESSIONS = [
    ("bio-medium", "(interacts + regulates)* . encodes", 7),
    ("scale-free-medium", "a* . b . c*", 6),
    ("transit-medium", "(tram + bus)* . cinema", 6),
]
MAX_INTERACTIONS = 40
#: ablation levels of step (ii): None = full RPNI, others = capped merges
MERGE_LEVELS = (0, 4, None)
#: bounded enumeration of each hypothesis language (the validated paths a
#: longer session would accumulate) feeding the RPNI corpus
SAMPLE_LENGTH = 7
SAMPLE_LIMIT = 120
TRIALS = 3

#: acceptance floors.  The synthesis floor is the tentpole target; the
#: re-learn floor is deliberately modest: after the PR-3 language-index
#: work the automata kernel is roughly a third of the per-interaction
#: budget (step (i) word selection and the compatibility oracle share the
#: rest), so ~1.2-1.3x measured end-to-end is the kernel's full share —
#: asserted at 1.05x to absorb shared-runner noise (both sides run the
#: same step (i) / oracle code, so most noise cancels in the ratio)
SYNTHESIS_SPEEDUP_FLOOR = 10.0
RELEARN_SPEEDUP_FLOOR = 1.05


# ----------------------------------------------------------------------
# The seed (pre-change) automata kernel, reproduced verbatim
# ----------------------------------------------------------------------
State = Hashable
_INITIAL = "__init__"
_FINAL = "__final__"


def _seed_edge_union(table, source, target, expr):
    key = (source, target)
    existing = table.get(key, EMPTY)
    table[key] = existing.union(expr)


def seed_dfa_to_regex(dfa: DFA, *, simplify_output: bool = True) -> Regex:
    """Pre-change synthesis: full-table degree rescans per elimination round."""
    trimmed = dfa.trim()
    if trimmed.is_empty():
        return EMPTY

    table: Dict[Tuple[State, State], Regex] = {}
    states: List[State] = sorted(trimmed.states, key=str)
    _seed_edge_union(table, _INITIAL, trimmed.initial_state, EPSILON)
    for state in trimmed.accepting_states:
        _seed_edge_union(table, state, _FINAL, EPSILON)
    for source, symbol, target in trimmed.transitions():
        _seed_edge_union(table, source, target, Symbol(symbol))

    def degree(state):
        return sum(1 for (source, target) in table if source == state or target == state)

    remaining = list(states)
    while remaining:
        remaining.sort(key=lambda state: (degree(state), str(state)))
        victim = remaining.pop(0)
        incoming = [
            (source, expr)
            for (source, target), expr in table.items()
            if target == victim and source != victim
        ]
        outgoing = [
            (target, expr)
            for (source, target), expr in table.items()
            if source == victim and target != victim
        ]
        loop = table.get((victim, victim), EMPTY)
        loop_star = loop.star() if not isinstance(loop, type(EMPTY)) or loop != EMPTY else EPSILON
        for source, incoming_expr in incoming:
            for target, outgoing_expr in outgoing:
                bridged = incoming_expr.concat(loop_star).concat(outgoing_expr)
                _seed_edge_union(table, source, target, bridged)
        table = {key: expr for key, expr in table.items() if victim not in key}

    synthesized = table.get((_INITIAL, _FINAL), EMPTY)
    if simplify_output:
        from repro.regex.simplify import simplify

        return simplify(synthesized)
    return synthesized


def seed_minimize(dfa: DFA) -> DFA:
    """Pre-change minimisation: full partition rebuild per splitter."""
    if dfa.is_empty():
        empty = DFA(0)
        empty.declare_alphabet(dfa.alphabet())
        return empty
    total = dfa.trim().completed()
    alphabet = sorted(total.alphabet(), key=symbol_sort_key)
    states = list(total.states)
    accepting = set(total.accepting_states)
    rejecting = set(states) - accepting

    partition = [block for block in (accepting, rejecting) if block]
    worklist = [(frozenset(block), symbol) for block in partition for symbol in alphabet]

    reverse = {symbol: {} for symbol in alphabet}
    for source, symbol, target in total.transitions():
        reverse[symbol].setdefault(target, set()).add(source)

    while worklist:
        splitter, symbol = worklist.pop()
        movers = set()
        for target in splitter:
            movers.update(reverse[symbol].get(target, ()))
        if not movers:
            continue
        next_partition = []
        for block in partition:
            inside = block & movers
            outside = block - movers
            if inside and outside:
                next_partition.append(inside)
                next_partition.append(outside)
                smaller = inside if len(inside) <= len(outside) else outside
                for refinement_symbol in alphabet:
                    worklist.append((frozenset(smaller), refinement_symbol))
            else:
                next_partition.append(block)
        partition = next_partition

    block_of = {}
    for block_index, block in enumerate(partition):
        for state in block:
            block_of[state] = block_index

    quotient = DFA(block_of[total.initial_state])
    quotient.declare_alphabet(alphabet)
    for block_index in range(len(partition)):
        quotient.add_state(block_index)
    quotient.set_initial(block_of[total.initial_state])
    for block_index, block in enumerate(partition):
        representative = next(iter(block))
        if total.is_accepting(representative):
            quotient.set_accepting(block_index)
        for symbol in alphabet:
            target = total.target(representative, symbol)
            if target is not None:
                quotient.add_transition(block_index, symbol, block_of[target])

    return _drop_dead_states(quotient).relabeled()


class _SeedPartition:
    """Pre-change union-find: ``blocks()`` walks every PTA state."""

    def __init__(self, states: Iterable[int]):
        self._parent: Dict[int, int] = {state: state for state in states}

    def find(self, state: int) -> int:
        root = state
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[state] != root:
            self._parent[state], state = root, self._parent[state]
        return root

    def union(self, first: int, second: int) -> int:
        first_root, second_root = self.find(first), self.find(second)
        if first_root == second_root:
            return first_root
        keep, drop = (
            (first_root, second_root) if first_root < second_root else (second_root, first_root)
        )
        self._parent[drop] = keep
        return keep

    def copy(self) -> "_SeedPartition":
        clone = _SeedPartition(())
        clone._parent = dict(self._parent)
        return clone

    def blocks(self) -> Dict[int, List[int]]:
        grouped: Dict[int, List[int]] = {}
        for state in self._parent:
            grouped.setdefault(self.find(state), []).append(state)
        for members in grouped.values():
            members.sort()
        return grouped


def _seed_quotient(pta: DFA, partition: _SeedPartition) -> DFA:
    quotient = DFA(partition.find(pta.initial_state))
    for representative in partition.blocks():
        quotient.add_state(representative)
    quotient.set_initial(partition.find(pta.initial_state))
    quotient.declare_alphabet(pta.alphabet())
    for source, symbol, target in pta.transitions():
        quotient.add_transition(partition.find(source), symbol, partition.find(target))
    for state in pta.accepting_states:
        quotient.set_accepting(partition.find(state))
    return quotient


def _seed_merge_and_fold(pta, partition, red, blue):
    """Pre-change fold: walks the entire union-find per fold step."""
    candidate = partition.copy()
    transitions = pta._transitions
    worklist = [(red, blue)]
    while worklist:
        first, second = worklist.pop()
        first_root, second_root = candidate.find(first), candidate.find(second)
        if first_root == second_root:
            continue
        candidate.union(first_root, second_root)
        merged_root = candidate.find(first_root)
        find = candidate.find
        outgoing = {}
        for member in candidate._parent:
            if find(member) != merged_root:
                continue
            for symbol, target in transitions[member].items():
                target_root = find(target)
                known = outgoing.get(symbol)
                if known is not None and find(known) != target_root:
                    worklist.append((known, target_root))
                else:
                    outgoing[symbol] = target_root
    return candidate


def seed_generalize_pta(positive_words, compatible, *, max_merges=None) -> DFA:
    """Pre-change RPNI driver (all-state frontier scans, n-find signatures)."""
    words = [tuple(word) for word in positive_words]
    pta = build_pta(words)
    partition = _SeedPartition(pta.states)
    red = [pta.initial_state]
    merges_done = 0
    verdicts: Dict[Tuple[int, ...], bool] = {}
    all_states = sorted(pta.states)

    def partition_signature(candidate):
        find = candidate.find
        return tuple(find(state) for state in all_states)

    transitions = pta._transitions

    def blue_states():
        frontier: Set[int] = set()
        find = partition.find
        red_roots = {find(state) for state in red}
        for state in pta.states:
            if find(state) not in red_roots:
                continue
            for target in transitions[state].values():
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
                candidate = _seed_merge_and_fold(pta, partition, red_state, blue)
                if candidate is None:
                    continue
                signature = partition_signature(candidate)
                verdict = verdicts.get(signature)
                if verdict is None:
                    verdict = compatible(_seed_quotient(pta, candidate))
                    verdicts[signature] = verdict
                if verdict:
                    partition = candidate
                    merges_done += 1
                    merged = True
                    break
        if not merged:
            red.append(blue)
    return _seed_quotient(pta, partition).trim().relabeled()


def seed_canonical_form(dfa: DFA):
    """Pre-change presentation, cost-faithful to the seed call sequence.

    The pre-change learner minimised the generalised DFA, ``from_dfa``
    synthesised the expression from that input, and then minimised
    *again* for the query's compiled automaton — reproduced verbatim so
    the seed side pays exactly what it paid.
    """
    learned = seed_minimize(dfa)
    expression = seed_dfa_to_regex(learned)
    return seed_minimize(learned), expression


@contextmanager
def seed_kernel():
    """Swap the pre-change automata kernel into the learner / query layers."""
    import repro.learning.learner as learner_module
    import repro.query.engine as engine_module
    import repro.query.rpq as rpq_module

    saved = (
        learner_module.generalize_pta,
        rpq_module.canonical_form,
        engine_module.minimize,
    )
    learner_module.generalize_pta = seed_generalize_pta
    rpq_module.canonical_form = seed_canonical_form
    engine_module.minimize = seed_minimize
    try:
        yield
    finally:
        learner_module.generalize_pta = saved[0]
        rpq_module.canonical_form = saved[1]
        engine_module.minimize = saved[2]


# ----------------------------------------------------------------------
# harvesting learner data from real sessions
# ----------------------------------------------------------------------
def _run_session(dataset: str, goal: str, max_path_length: int):
    graph = dataset_catalog()[dataset].copy()
    engine = QueryEngine()
    user = SimulatedUser(graph, goal, engine=engine)
    session = InteractiveSession(
        graph,
        user,
        halt_condition=AnyOf(
            [UserSatisfied(user.goal_answer), MaxInteractions(MAX_INTERACTIONS)]
        ),
        max_path_length=max_path_length,
        workspace=GraphWorkspace(engine=engine),
    )
    result = session.run()
    return graph, session, result


#: harvest / corpus memo — the sessions are deterministic, so the four
#: tests that need the corpus share one computation
_HARVEST_CACHE: Dict[str, object] = {}


def _session_samples() -> List[Tuple[List[Tuple[str, ...]], List[Tuple[str, ...]]]]:
    """Per session: (positive words, negative words) for step (ii).

    Positives are the bounded language of every hypothesis the session
    presented (the validated paths a longer session would accumulate);
    negatives are the covered words of the session's negative nodes.
    """
    if "samples" in _HARVEST_CACHE:
        return _HARVEST_CACHE["samples"]
    samples = []
    for dataset, goal, max_path_length in SESSIONS:
        graph, session, result = _run_session(dataset, goal, max_path_length)
        negatives: Set[Tuple[str, ...]] = set()
        for node in sorted(session.examples.negative_nodes, key=str):
            negatives |= words_from(graph, node, max_path_length)
        hypotheses = {
            record.hypothesis.name: record.hypothesis
            for record in result.records
            if record.hypothesis is not None
        }
        for _, hypothesis in sorted(hypotheses.items()):
            positives = [
                word
                for word in hypothesis.dfa.accepted_words(SAMPLE_LENGTH, limit=SAMPLE_LIMIT)
                if word and word not in negatives
            ]
            if len(positives) < 4:
                continue
            positives.sort(key=lambda word: (len(word), word_sort_key(word)))
            samples.append((positives, sorted(negatives, key=word_sort_key)))
    assert len(samples) >= 3, "session harvest produced too few RPNI samples"
    _HARVEST_CACHE["samples"] = samples
    return samples


def _rpni_corpus(samples) -> List[DFA]:
    """RPNI outputs over the harvested samples, across ablation levels."""
    if "corpus" in _HARVEST_CACHE:
        return _HARVEST_CACHE["corpus"]
    corpus: List[DFA] = []
    seen: Set[Tuple] = set()
    for positives, negatives in samples:
        for max_merges in MERGE_LEVELS:
            learned = rpni(positives, negatives, max_merges=max_merges)
            key = (
                learned.state_count(),
                tuple(sorted(learned.transitions())),
                tuple(sorted(learned.accepting_states)),
            )
            if key not in seen:
                seen.add(key)
                corpus.append(learned)
    _HARVEST_CACHE["corpus"] = corpus
    return corpus


def _best_of(callable_, trials: int = TRIALS) -> float:
    best = float("inf")
    for _ in range(trials):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


# ----------------------------------------------------------------------
# gate 1: >= 10x dfa_to_regex on the session-derived RPNI corpus
# ----------------------------------------------------------------------
def test_synthesis_speedup_on_learned_dfas(results_dir):
    corpus = _rpni_corpus(_session_samples())
    sizes = sorted(dfa.state_count() for dfa in corpus)
    assert sizes[-1] >= 40, f"corpus too small to expose the quadratic scan: {sizes}"

    # equivalent output first (pinned per DFA via regex -> DFA roundtrip)
    for dfa in corpus:
        new_expr = dfa_to_regex(dfa)
        seed_expr = seed_dfa_to_regex(dfa)
        rebuilt_new = regex_to_dfa(new_expr)
        assert equivalent(rebuilt_new, dfa), "indexed synthesis changed the language"
        assert equivalent(rebuilt_new, regex_to_dfa(seed_expr)), (
            "indexed synthesis disagrees with the seed"
        )

    def run_seed():
        for dfa in corpus:
            seed_dfa_to_regex(dfa)

    def run_new():
        for dfa in corpus:
            dfa_to_regex(dfa)

    seed_seconds = _best_of(run_seed)
    new_seconds = _best_of(run_new)
    speedup = seed_seconds / new_seconds
    write_artifact(
        results_dir,
        "automata_synthesis_speedup.txt",
        f"corpus={len(corpus)} DFAs, states={sizes[0]}..{sizes[-1]} "
        f"seed={seed_seconds * 1000:.1f}ms new={new_seconds * 1000:.1f}ms "
        f"speedup={speedup:.1f}x",
    )
    assert speedup >= SYNTHESIS_SPEEDUP_FLOOR, (
        f"dfa_to_regex only {speedup:.1f}x faster than the seed "
        f"(floor {SYNTHESIS_SPEEDUP_FLOOR}x)"
    )


# ----------------------------------------------------------------------
# gate 2: minimize agrees with the seed and does not regress
# ----------------------------------------------------------------------
def test_hopcroft_matches_seed_minimize(results_dir):
    corpus = _rpni_corpus(_session_samples())
    for dfa in corpus:
        new_minimal = minimize(dfa)
        seed_minimal = seed_minimize(dfa)
        assert new_minimal.state_count() == seed_minimal.state_count()
        assert equivalent(new_minimal, seed_minimal)
        assert sorted(new_minimal.transitions()) == sorted(seed_minimal.transitions())

    seed_seconds = _best_of(lambda: [seed_minimize(dfa) for dfa in corpus])
    new_seconds = _best_of(lambda: [minimize(dfa) for dfa in corpus])
    write_artifact(
        results_dir,
        "automata_minimize_speedup.txt",
        f"corpus={len(corpus)} DFAs seed={seed_seconds * 1000:.1f}ms "
        f"new={new_seconds * 1000:.1f}ms speedup={seed_seconds / new_seconds:.1f}x",
    )
    # Hopcroft must not be slower; learner DFAs are too small for a
    # blanket 10x here (the partition fits in cache either way)
    assert new_seconds <= seed_seconds * 1.10


# ----------------------------------------------------------------------
# gate 3: bit-identical sessions + language-identical hypotheses
# ----------------------------------------------------------------------
def _session_outcome(dataset, goal, max_path_length):
    _, session, result = _run_session(dataset, goal, max_path_length)
    hypotheses = [record.hypothesis for record in result.records]
    return result.interaction_trace(), result.halted_by, hypotheses


def test_sessions_replay_identically_under_both_kernels():
    for dataset, goal, max_path_length in SESSIONS:
        current_trace, current_halt, current_hyps = _session_outcome(
            dataset, goal, max_path_length
        )
        with seed_kernel():
            seed_trace, seed_halt, seed_hyps = _session_outcome(
                dataset, goal, max_path_length
            )
        assert current_trace == seed_trace, f"trace diverged on {dataset}"
        assert current_halt == seed_halt
        assert len(current_hyps) == len(seed_hyps)
        for current_hyp, seed_hyp in zip(current_hyps, seed_hyps):
            assert (current_hyp is None) == (seed_hyp is None)
            if current_hyp is not None:
                assert equivalent(current_hyp.dfa, seed_hyp.dfa), (
                    f"hypothesis language diverged on {dataset}"
                )
        assert len(current_trace) >= 3, f"workload too small on {dataset}"


# ----------------------------------------------------------------------
# gate 4: measured end-to-end re-learn latency across a session replay
# ----------------------------------------------------------------------
def _interaction_batches(history) -> List[List[object]]:
    """Split an example history into per-interaction batches.

    Each user answer opens a batch (a non-propagated example); the
    propagated labels that follow belong to the same interaction —
    exactly the granularity at which the session re-learns.
    """
    batches: List[List[object]] = []
    for example in history:
        if not example.propagated or not batches:
            batches.append([])
        batches[-1].append(example)
    return batches


def _replay_learning(graph, history, max_path_length, generalize=True) -> Optional[object]:
    """Re-run the learner after every recorded user answer (the paper's
    'time-efficient between interactions' step), returning the last query."""
    replay = ExampleSet()
    learner = PathQueryLearner(graph, max_path_length=max_path_length, engine=QueryEngine())
    learner.generalize = generalize
    query = None
    for batch in _interaction_batches(history):
        for example in batch:
            if example.positive:
                replay.add_positive(
                    example.node,
                    validated_word=example.validated_word,
                    propagated=example.propagated,
                )
            else:
                replay.add_negative(example.node, propagated=example.propagated)
        query = learner.learn(replay).query
    return query


def test_relearn_latency_improvement(results_dir):
    total_seed = total_new = 0.0
    interactions = 0
    for dataset, goal, max_path_length in SESSIONS:
        graph, session, result = _run_session(dataset, goal, max_path_length)
        history = session.examples.history
        interactions += result.interactions

        new_query = [None]
        seed_query = [None]

        def run_new(graph=graph, history=history, bound=max_path_length, out=new_query):
            out[0] = _replay_learning(graph, history, bound)

        def run_seed(graph=graph, history=history, bound=max_path_length, out=seed_query):
            with seed_kernel():
                out[0] = _replay_learning(graph, history, bound)

        total_new += _best_of(run_new)
        total_seed += _best_of(run_seed)
        assert (new_query[0] is None) == (seed_query[0] is None)
        if new_query[0] is not None:
            assert equivalent(new_query[0].dfa, seed_query[0].dfa)

    speedup = total_seed / total_new
    write_artifact(
        results_dir,
        "automata_relearn_speedup.txt",
        f"interactions={interactions} seed={total_seed * 1000:.1f}ms "
        f"new={total_new * 1000:.1f}ms speedup={speedup:.1f}x",
    )
    assert speedup >= RELEARN_SPEEDUP_FLOOR, (
        f"re-learn loop only {speedup:.2f}x faster than the seed kernel "
        f"(floor {RELEARN_SPEEDUP_FLOOR}x)"
    )


# ----------------------------------------------------------------------
# pytest-benchmark timings (recorded in BENCH_automata.json)
# ----------------------------------------------------------------------
def test_bench_synthesis_current(benchmark):
    corpus = _rpni_corpus(_session_samples())

    def run():
        for dfa in corpus:
            dfa_to_regex(dfa)

    benchmark.pedantic(run, rounds=3)


def test_bench_minimize_current(benchmark):
    corpus = _rpni_corpus(_session_samples())

    def run():
        for dfa in corpus:
            minimize(dfa)

    benchmark.pedantic(run, rounds=3)
