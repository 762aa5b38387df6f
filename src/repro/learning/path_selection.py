"""Step (i) of the learning algorithm: choosing a path per positive node.

For each positive example the learner needs "a path that is not covered by
any negative" — a word the positive node can spell but **no** negative
node can.  (If a negative node could spell it too, any query accepting the
word would select that negative node and become inconsistent.)

The same machinery powers the path-validation interaction of Figure 3(c):
the system builds all uncovered words of the node up to the size of the
last neighbourhood the user looked at, arranges them in a prefix tree,
and highlights a candidate word — preferring words whose length equals the
neighbourhood radius the user needed before deciding (the paper's
heuristic: if she zoomed to distance 3, a length-3 path likely matters).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.automata.prefix_tree import PathPrefixTree, build_path_prefix_tree
from repro.exceptions import NoConsistentPathError, NodeNotFoundError
from repro.graph.labeled_graph import LabeledGraph, Node
from repro.graph.paths import has_word
from repro.learning.language_index import CompatibilityOracle, LanguageIndex, _resolve_index

Word = Tuple[str, ...]


def covered_words(
    graph: LabeledGraph,
    negatives: Iterable[Node],
    max_length: int,
    *,
    index: Optional[LanguageIndex] = None,
) -> Set[Word]:
    """The union of the bounded path languages of the negative nodes.

    A word in this set is "covered by a negative": making the hypothesis
    accept it would select a negative node.

    Every negative must be a node of ``graph``; an unknown node raises
    :class:`NodeNotFoundError`, consistent with
    :func:`repro.graph.paths.words_from`.  (Earlier versions silently
    skipped unknown negatives, which let a typo in an example set shrink
    the cover — and therefore weaken pruning and path selection — without
    any signal.)  Callers with speculative negative sets must pre-filter,
    as :func:`consistent_words_for` does.
    """
    index = _resolve_index(graph, max_length, index)
    bits = 0
    for node in negatives:
        bits |= index.language(node)  # raises NodeNotFoundError when absent
    return index.decode(bits)


def consistent_words_for(
    graph: LabeledGraph,
    node: Node,
    negatives: Iterable[Node],
    *,
    max_length: int,
    index: Optional[LanguageIndex] = None,
) -> List[Word]:
    """Words of ``node`` (length ≤ ``max_length``) covered by no negative.

    Returned shortest-first, ties broken lexicographically, so the first
    element is the learner's default candidate.

    The empty word is offered as a last resort only when the node has no
    non-empty uncovered word *and* there is no negative example: every node
    spells the empty word, so a query accepting it selects the whole graph,
    which is consistent only while no node is labelled negative.  (This is
    what makes a sink node a legal positive example in an otherwise
    negative-free example set.)
    """
    negative_nodes = [item for item in negatives if item in graph]
    index = _resolve_index(graph, max_length, index)
    uncovered = index.language(node) & ~index.cover(negative_nodes)
    candidates = sorted(index.decode(uncovered), key=lambda word: (len(word), word))
    if not candidates and not negative_nodes:
        candidates = [()]
    return candidates


def select_path(
    graph: LabeledGraph,
    node: Node,
    negatives: Iterable[Node],
    *,
    max_length: int,
    preferred_length: Optional[int] = None,
    index: Optional[LanguageIndex] = None,
) -> Word:
    """Pick the candidate word for a positive node.

    Default choice is the shortest uncovered word; when
    ``preferred_length`` is given (the radius of the last neighbourhood the
    user inspected), words of exactly that length are preferred, matching
    the heuristic the paper uses to pre-highlight a path in Figure 3(c).
    Callers choosing words for many nodes use :func:`select_paths`.

    Raises :class:`NoConsistentPathError` when every word of the node up to
    ``max_length`` is covered by a negative.
    """
    negative_nodes = [item for item in negatives if item in graph]
    index = _resolve_index(graph, max_length, index)
    uncovered = index.language(node) & ~index.cover(negative_nodes)
    word = index.pick_word(uncovered, preferred_length)
    if word is not None:
        return word
    if not negative_nodes:
        return ()  # the empty-word fallback of consistent_words_for
    raise NoConsistentPathError(node, max_length)


def select_paths(nodes: Iterable[Node], negatives: CompatibilityOracle) -> Dict[Node, Word]:
    """:func:`select_path` for every node of ``nodes``, in one index sweep.

    ``negatives`` is a learn's negative view: its nodes, which must all be
    in the graph, its index and their cover, built once per learn.  Each
    node gets the word :func:`select_path` would pick for it against those
    negatives, with the same ``()`` fallback when there is none.  Failures
    come in the order of one :func:`select_path` call per node in ``str``
    order: the first node that fails decides, raising
    :class:`NodeNotFoundError` when it is absent from the graph and
    :class:`NoConsistentPathError` when every word it spells is covered.

    :meth:`LanguageIndex.pick_words` places every node in one walk over
    the uncovered words, so the cost grows with the uncovered words plus
    the nodes rather than with nodes × negatives.
    """
    index = negatives.index
    ordered = sorted(nodes, key=str)
    positions = [index.node_positions.get(node) for node in ordered]
    pending = 0
    for position in positions:
        if position is not None:
            pending |= 1 << position
    picked = index.pick_words(pending, negatives.cover_bits)
    chosen: Dict[Node, Word] = {}
    for node, position in zip(ordered, positions):
        if position is None:
            raise NodeNotFoundError(node)
        word = picked.get(position)
        if word is None:
            if negatives.negatives:
                raise NoConsistentPathError(node, negatives.max_length)
            word = ()  # the empty-word fallback of select_path
        chosen[node] = word
    return chosen


def candidate_prefix_tree(
    graph: LabeledGraph,
    node: Node,
    negatives: Iterable[Node],
    *,
    max_length: int,
    preferred_length: Optional[int] = None,
    index: Optional[LanguageIndex] = None,
) -> PathPrefixTree:
    """The prefix tree of uncovered words of ``node``, candidate highlighted.

    This is exactly the artefact shown to the user in Figure 3(c): all
    paths of the node of length at most the last neighbourhood size that
    are not yet covered by negative examples, presented as a prefix tree
    with the system's best guess highlighted.
    """
    uncovered = consistent_words_for(
        graph, node, negatives, max_length=max_length, index=index
    )
    endpoints: Dict[Word, Tuple] = {}
    for word in uncovered:
        # record the graph nodes reachable by spelling each prefix of the word
        for cut in range(1, len(word) + 1):
            prefix = word[:cut]
            if prefix not in endpoints:
                endpoints[prefix] = _endpoints_of(graph, node, prefix)
    highlight: Optional[Word] = None
    if uncovered:
        if preferred_length is not None:
            preferred = [word for word in uncovered if len(word) == preferred_length]
            highlight = preferred[0] if preferred else uncovered[0]
        else:
            highlight = uncovered[0]
    return build_path_prefix_tree(endpoints, node, highlight=highlight)


def _endpoints_of(graph: LabeledGraph, start: Node, word: Sequence[str]) -> Tuple:
    """Graph nodes reachable from ``start`` by spelling ``word`` (sorted)."""
    current = {start}
    for label in word:
        following: Set[Node] = set()
        # repro-lint: disable=REP104 -- only set unions happen per node; the result is sorted on return
        for node in current:
            following.update(graph.successors(node, label))
        current = following
        if not current:
            return ()
    return tuple(sorted(current, key=str))


def validate_word(
    graph: LabeledGraph,
    node: Node,
    word: Sequence[str],
    negatives: Iterable[Node],
    *,
    max_length: int,
    index: Optional[LanguageIndex] = None,
) -> bool:
    """Check that ``word`` is a legal validation answer for ``node``.

    The word must be spellable from the node and not covered by any
    negative example (the interactive UI only offers such words, but the
    programmatic API re-checks before trusting a caller).  The empty word
    is legal only while no negative is in the graph, since every node
    spells it.  Negatives absent from the graph are ignored, like in
    :func:`consistent_words_for` — this function validates caller input,
    so a speculative negative set must not turn the check into an error.
    """
    if not has_word(graph, node, word) or len(word) > max_length:
        return False
    negative_nodes = [item for item in negatives if item in graph]
    if not word:
        return not negative_nodes  # every node spells the empty word
    index = _resolve_index(graph, max_length, index)
    word_id = index.arena.lookup(word)
    return word_id is None or not index.cover(negative_nodes) >> word_id & 1
