"""Bounded path-language index: interned words, bitset languages, merge oracle.

The interactive loop reasons about the *bounded path language* of every
node — the set of distinct label words of length at most ``max_length``
spellable from it — over and over: informativeness classification,
pruning, propagation, path selection and the RPNI compatibility check all
re-derive (unions of) these sets after every user answer.  The paper's
requirement that the system be "time-efficient between interactions"
makes this the hottest loop in the repository.

This module computes each language **once** per ``(graph.version,
max_length)`` pair, for every node together and one word length at a
time (each node's words of length ``k`` are its successors' words of
length ``k − 1`` with the edge label put in front), and re-represents it
so that everything downstream is constant-factor bit arithmetic:

* :class:`PrefixIdArena` — a shared trie interning every word into a
  dense integer id; a word's id is created by extending its longest
  proper prefix's id by one label, so the arena *is* the prefix tree of
  the union of all node languages.
* :class:`LanguageIndex` — per-node languages and per-word speller sets
  as plain Python ints used as **bitsets** (bit ``i`` set ⇔ word id /
  node position ``i`` in the set).  Coverage ("is every word of this node
  covered by a negative?"), informativeness scoring and uncovered-word
  counting become ``&``/``|``/``popcount`` over machine words instead of
  set unions of label tuples.
* :class:`CompatibilityOracle` — the learner's "candidate hypothesis
  selects no negative node" predicate, answered by intersecting the
  candidate DFA with the arena trie restricted to the precompiled
  negative cover bitset (with an exact graph-product fallback for
  candidates that accept words longer than the bound), instead of one
  graph product walk per negative per merge attempt.

Indexes are value snapshots in the same sense as
:class:`repro.graph.labeled_graph.GraphLabelIndex`: they record the
graph :attr:`~repro.graph.labeled_graph.LabeledGraph.version` they were
built against and :meth:`repro.serving.workspace.GraphWorkspace.language_index`
catches them up lazily when the graph mutates, re-deriving only the
languages an edge change can reach, so callers can never observe stale
languages.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.automata.dfa import DFA
from repro.exceptions import NodeNotFoundError
from repro.graph.labeled_graph import Label, LabeledGraph, Node
from repro.query.engine import selects_any

Word = Tuple[Label, ...]

__all__ = [
    "PrefixIdArena",
    "LanguageIndex",
    "CompatibilityOracle",
    "popcount",
    "iter_bits",
]


def _popcount_native(bits: int) -> int:
    return bits.bit_count()


def _popcount_portable(bits: int) -> int:
    return bin(bits).count("1")


#: Number of set bits of a non-negative int (``int.bit_count`` needs 3.10).
popcount = _popcount_native if hasattr(int, "bit_count") else _popcount_portable


def iter_bits(bits: int) -> Iterator[int]:
    """Yield the positions of the set bits of ``bits`` in increasing order."""
    while bits:
        lowest = bits & -bits
        yield lowest.bit_length() - 1
        bits ^= lowest


class PrefixIdArena:
    """Interns bounded words into dense integer ids via prefix extension.

    Id ``0`` is the empty word; every other id is created by
    :meth:`extend`-ing its parent (the id of its longest proper prefix)
    with one label.  The arena therefore doubles as the prefix tree of
    every word it has interned, which is what lets a candidate DFA be
    intersected with a whole word set in one shared-prefix walk
    (:meth:`CompatibilityOracle.compatible`).  Interning takes a lock, so
    walks sharing an arena never give one id to two words; a lookup of a
    word already interned takes none.
    """

    __slots__ = ("_ids", "_parents", "_labels", "_lengths", "_children", "_words", "_lock")

    def __init__(self):
        self._ids: Dict[Tuple[int, Label], int] = {}
        self._parents: List[int] = [0]
        self._labels: List[Optional[Label]] = [None]
        self._lengths: List[int] = [0]
        self._children: List[List[Tuple[Label, int]]] = [[]]
        # decoded words, filled lazily by word_of
        self._words: List[Optional[Word]] = [()]
        # an index, its refreshed successors and its views share one
        # arena, so two walks may intern at once
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._parents)

    def extend(self, parent: int, label: Label) -> int:
        """The id of ``word_of(parent) + (label,)``, interning it if new."""
        key = (parent, label)
        word_id = self._ids.get(key)
        if word_id is None:
            with self._lock:
                word_id = self._ids.get(key)
                if word_id is None:
                    word_id = len(self._parents)
                    self._labels.append(label)
                    self._lengths.append(self._lengths[parent] + 1)
                    self._children.append([])
                    self._words.append(None)
                    # an id is published only once all its entries exist:
                    # len() reads _parents, lookup() reads _ids
                    self._parents.append(parent)
                    self._children[parent].append((label, word_id))
                    self._ids[key] = word_id
        return word_id

    def lookup(self, word: Iterable[Label]) -> Optional[int]:
        """The id of ``word``, or ``None`` when it was never interned."""
        word_id = 0
        for label in word:
            word_id = self._ids.get((word_id, label))
            if word_id is None:
                return None
        return word_id

    def length_of(self, word_id: int) -> int:
        """Length of the word with id ``word_id``."""
        return self._lengths[word_id]

    def children(self, word_id: int) -> List[Tuple[Label, int]]:
        """The one-label extensions of ``word_id`` present in the arena."""
        return self._children[word_id]

    def word_of(self, word_id: int) -> Word:
        """Decode ``word_id`` back into its label tuple (memoised)."""
        word = self._words[word_id]
        if word is None:
            labels: List[Label] = []
            current = word_id
            while current:
                labels.append(self._labels[current])
                current = self._parents[current]
            word = tuple(reversed(labels))
            self._words[word_id] = word
        return word


class LanguageIndex:
    """Bitset snapshot of every node's bounded path language.

    One private walk fills it: one pass per word length over all the
    nodes walked, deriving their words of length ``k`` from their
    successors' words of length ``k − 1`` and interning each word into the
    shared arena once (:func:`repro.graph.paths.words_from` is the
    per-node reference it must agree with).  The constructor walks every
    node; :meth:`refreshed` walks only the nodes a journaled change can
    reach; :meth:`restricted` derives a smaller bound by masking, without
    walking.  Word ids come out by length, every length-1 word first.
    All word sets handed out are Python ints indexed by arena word id;
    all node sets are ints indexed by position in :attr:`nodes`.

    The index also carries the informativeness start state of an empty
    example set (:attr:`start_informative` and :attr:`start_keys`): the
    first session classifier over the index stores it, and every later
    session on the same ``(graph, version, bound)`` copies it instead of
    scoring every node again.  A :meth:`refreshed` index and a
    :meth:`restricted` view start without one.
    """

    __slots__ = (
        "version",
        "max_length",
        "arena",
        "nodes",
        "node_positions",
        "str_order",
        "str_ranks",
        "_languages",
        "_spellers",
        "_length_masks",
        "start_informative",
        "start_keys",
    )

    #: delta-refreshed (or dropped) by GraphWorkspace.refresh()
    __workspace_hook__ = "workspace.language_index"

    def __init__(self, graph: LabeledGraph, max_length: int):
        if max_length < 1:
            raise ValueError(f"a path-length bound must be at least 1, not {max_length}")
        self.version: int = graph.version
        self.max_length: int = max_length
        self.arena = PrefixIdArena()
        self.nodes: Tuple[Node, ...] = tuple(graph.nodes())
        self.node_positions: Dict[Node, int] = {
            node: position for position, node in enumerate(self.nodes)
        }
        #: node positions sorted by ``str(node)``, equal strings in table
        #: order (the tie-break of every informativeness ranking), and its
        #: inverse: position -> rank.  Shared with every derived view.
        self.str_order: Tuple[int, ...] = tuple(
            sorted(range(len(self.nodes)), key=lambda position: str(self.nodes[position]))
        )
        ranks = [0] * len(self.str_order)
        for rank, position in enumerate(self.str_order):
            ranks[position] = rank
        self.str_ranks: Tuple[int, ...] = tuple(ranks)
        #: node -> language bitset; empty until the walk below fills it
        self._languages: Dict[Node, int] = dict.fromkeys(self.nodes, 0)
        #: word id -> bitset of node positions that can spell the word
        self._spellers: Dict[int, int] = {}
        self._length_masks: Optional[List[int]] = None
        #: the start state of an empty example set: written once, then only read
        self.start_informative: Optional[int] = None
        self.start_keys: Optional[Tuple[int, ...]] = None
        self._walk(graph, self.nodes)

    def _walk(self, graph: LabeledGraph, nodes: Iterable[Node]) -> None:
        """Recompute the languages of ``nodes`` on ``graph`` in place, one word length at a time.

        ``W_k(v)``, the words of exactly ``k`` labels spellable from ``v``,
        is the empty word (bit 0) at ``k = 0``.  At ``k > 0`` it is the
        union, over the ``(label, targets)`` buckets of the adjacency of
        ``v``, of ``label`` put in front of the union of the targets'
        ``W_{k−1}``.  A node's language is ``W_1 ∪ … ∪ W_max_length``.  A
        successor outside ``nodes`` keeps its language (see
        :func:`_affected_nodes`), so its ``W_{k−1}`` is the part of its
        stored language of length ``k − 1``.

        Putting a label in front of a word set is memoised per (label,
        set) within a level, and per (label, word id) for the whole walk,
        so :meth:`PrefixIdArena.extend` runs once per word put in front.
        The parent of a word of ``W_{k−1}(u)`` lies in ``W_{k−2}(u)``, so
        it was put in front of the same label one level earlier.  Spellers
        change by the difference between a node's new and previous
        language; on a build the previous one is empty.
        """
        arena = self.arena
        extend = arena.extend
        parents = arena._parents
        last_labels = arena._labels
        succ = graph._succ
        languages = self._languages
        max_length = self.max_length
        walked = list(nodes)
        inside = set(walked)
        # the successors outside ``nodes``, in a deterministic order
        boundary = dict.fromkeys(
            target
            for node in walked
            for targets in succ[node].values()
            for target in targets
            if target not in inside
        )
        # layers[k]: the ids of the words of k labels interned before the walk
        layers = [0] * (max_length + 1)
        if boundary:
            lengths = arena._lengths
            for word_id in range(1, len(arena)):
                if lengths[word_id] < max_length:
                    layers[lengths[word_id]] |= 1 << word_id
        # label -> word id -> id of label·word
        fronts: Dict[Label, Dict[int, int]] = {label: {0: extend(0, label)} for label in graph._labels}
        spelled = dict.fromkeys(walked, 0)
        previous = dict.fromkeys([*walked, *boundary], 1)
        for level in range(1, max_length + 1):
            # label -> a union of the targets' words -> that union with label in front
            fronted_unions: Dict[Label, Dict[int, int]] = {label: {} for label in fronts}
            current: Dict[Node, int] = {}
            for node in walked:
                words = 0
                for label, targets in succ[node].items():
                    union = 0
                    for target in targets:
                        union |= previous[target]
                    memo = fronted_unions[label]
                    fronted = memo.get(union)
                    if fronted is None:
                        front = fronts[label]
                        fronted = 0
                        rest = union
                        while rest:
                            lowest = rest & -rest
                            rest ^= lowest
                            word_id = lowest.bit_length() - 1
                            front_id = front.get(word_id)
                            if front_id is None:
                                front_id = front[word_id] = extend(
                                    front[parents[word_id]], last_labels[word_id]
                                )
                            fronted |= 1 << front_id
                        memo[union] = fronted
                    words |= fronted
                current[node] = words
                spelled[node] |= words
            layer = layers[level]
            for target in boundary:
                current[target] = languages[target] & layer
            previous = current
        spellers = self._spellers
        positions = self.node_positions
        for node in walked:
            language = spelled[node]
            node_bit = 1 << positions[node]
            # a word of exactly one of the two languages flips the node's bit
            rest = language ^ languages[node]
            while rest:
                lowest = rest & -rest
                rest ^= lowest
                word_id = lowest.bit_length() - 1
                flipped = spellers.get(word_id, 0) ^ node_bit
                if flipped:
                    spellers[word_id] = flipped
                else:
                    del spellers[word_id]
            languages[node] = language

    # ------------------------------------------------------------------
    # languages and covers
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._languages

    def language(self, node: Node) -> int:
        """Bitset of word ids spellable from ``node`` (lengths 1..bound).

        Raises :class:`NodeNotFoundError` for nodes absent from the graph
        snapshot, consistent with :func:`repro.graph.paths.words_from`.
        """
        language = self._languages.get(node)
        if language is None:
            raise NodeNotFoundError(node)
        return language

    def cover(self, nodes: Iterable[Node]) -> int:
        """Union of the languages of ``nodes`` (the negative cover bitset).

        Raises :class:`NodeNotFoundError` when any node is absent — same
        contract as :func:`repro.learning.path_selection.covered_words`.
        """
        bits = 0
        for node in nodes:
            bits |= self.language(node)
        return bits

    def words_bitset(self, words: Iterable[Iterable[Label]]) -> int:
        """Bitset of the ids of ``words``; unknown words contribute nothing.

        A word missing from the arena is spellable by no node within the
        bound, so it can never intersect a node language — dropping it
        here is exactly equivalent to keeping it in a tuple set.
        """
        bits = 0
        lookup = self.arena.lookup
        for word in words:
            word_id = lookup(word)
            if word_id is not None:
                bits |= 1 << word_id
        return bits

    def spellers(self, word_id: int) -> int:
        """Bitset of node positions able to spell the word ``word_id``.

        Empty for a word longer than the bound: a :meth:`restricted` view
        shares its parent's arena and speller table, which also hold the
        parent's longer words, and no language of the view contains them.
        """
        if self.arena.length_of(word_id) > self.max_length:
            return 0
        return self._spellers.get(word_id, 0)

    # ------------------------------------------------------------------
    # derived measures
    # ------------------------------------------------------------------
    def _masks_by_length(self) -> List[int]:
        masks = self._length_masks
        if masks is None:
            max_length = self.max_length
            masks = [0] * (max_length + 1)
            lengths = self.arena._lengths
            for word_id in range(1, len(self.arena)):
                length = lengths[word_id]
                # a view's shared arena also holds its parent's longer words
                if length <= max_length:
                    masks[length] |= 1 << word_id
            self._length_masks = masks
        return masks

    def shortest_length(self, bits: int) -> Optional[int]:
        """Length of the shortest word in the bitset ``bits`` (None if empty)."""
        if not bits:
            return None
        for length, mask in enumerate(self._masks_by_length()):
            if length and bits & mask:
                return length
        return None

    def length_mask(self, length: int) -> int:
        """Bitset of every interned word id of exactly ``length`` labels."""
        masks = self._masks_by_length()
        if 0 <= length < len(masks):
            return masks[length]
        return 0

    def pick_word(self, bits: int, preferred_length: Optional[int] = None) -> Optional[Word]:
        """The canonical candidate word of the bitset ``bits``.

        Words of ``preferred_length`` win when present, otherwise the
        shortest; ties break lexicographically.  Only the ids at the
        winning length are decoded.  This is the one-node reference:
        choosing words for many nodes at once goes through
        :meth:`pick_words`, which sweeps the uncovered words once instead
        of intersecting and decoding once per node.
        """
        if not bits:
            return None
        if preferred_length is not None:
            at_preferred = bits & self.length_mask(preferred_length)
            if at_preferred:
                return min(self.decode(at_preferred))
        for length, mask in enumerate(self._masks_by_length()):
            if length:
                at_length = bits & mask
                if at_length:
                    return min(self.decode(at_length))
        return None

    def pick_words(self, node_bits: int, banned: int) -> Dict[int, Word]:
        """``pick_word(language & ~banned)`` of every node in ``node_bits``, in one sweep.

        ``node_bits`` is a bitset of node positions.  The sweep walks the
        word ids outside ``banned`` once, in ``(len, word)`` order — the
        order :meth:`pick_word` takes its ``min`` in — and hands each word
        to the still-pending nodes among its spellers.  A node's first
        word is therefore its shortest word outside ``banned``, ties
        broken lexicographically, as :meth:`pick_word` would choose it,
        and the cost is one bitset ``&`` per word swept rather than one
        language intersection and decode per node.

        Returns node position -> word; a position whose whole language
        lies in ``banned`` is missing.
        """
        chosen: Dict[int, Word] = {}
        pending = node_bits
        word_of = self.arena.word_of
        spellers = self._spellers
        masks = self._masks_by_length()
        for length in range(1, len(masks)):
            if not pending:
                break
            candidates = masks[length] & ~banned
            for word, word_id in sorted(
                (word_of(word_id), word_id) for word_id in iter_bits(candidates)
            ):
                hits = spellers.get(word_id, 0) & pending
                if hits:
                    pending ^= hits
                    for position in iter_bits(hits):
                        chosen[position] = word
                    if not pending:
                        break
        return chosen

    def decode(self, bits: int) -> Set[Word]:
        """The bitset ``bits`` as a set of label tuples."""
        word_of = self.arena.word_of
        return {word_of(word_id) for word_id in iter_bits(bits)}

    def nodes_of(self, node_bits: int) -> List[Node]:
        """The node-position bitset ``node_bits`` as a list of nodes."""
        nodes = self.nodes
        return [nodes[position] for position in iter_bits(node_bits)]

    # ------------------------------------------------------------------
    # derived bounds
    # ------------------------------------------------------------------
    def restricted(self, max_length: int) -> "LanguageIndex":
        """A view of this index at a smaller ``max_length``.

        The words of length ≤ ``r`` at bound ``B ≥ r`` are exactly the
        words at bound ``r``, so the view only masks each node's language
        bitset — no graph traversal.  Arena, node table and speller sets
        are shared with the parent.
        """
        if not 1 <= max_length <= self.max_length:
            raise ValueError(
                f"cannot restrict a bound-{self.max_length} index to {max_length}"
            )
        parent_masks = self._masks_by_length()
        keep = 0
        for length in range(1, max_length + 1):
            keep |= parent_masks[length]
        languages = {node: language & keep for node, language in self._languages.items()}
        view = self._sibling(self.version, max_length, languages, self._spellers)
        view._length_masks = parent_masks[: max_length + 1]
        return view

    def _sibling(self, version: int, max_length: int, languages: Dict, spellers: Dict) -> "LanguageIndex":
        """An index over this one's arena and node tables with its own languages."""
        sibling = object.__new__(LanguageIndex)
        sibling.version = version
        sibling.max_length = max_length
        sibling.arena = self.arena  # append-only: existing word ids stay valid
        sibling.nodes = self.nodes
        sibling.node_positions = self.node_positions
        sibling.str_order = self.str_order
        sibling.str_ranks = self.str_ranks
        sibling._languages = languages
        sibling._spellers = spellers
        sibling._length_masks = None
        sibling.start_informative = None
        sibling.start_keys = None
        return sibling

    # ------------------------------------------------------------------
    # delta refresh
    # ------------------------------------------------------------------
    def refreshed(self, graph: LabeledGraph) -> Optional["LanguageIndex"]:
        """This index caught up with ``graph`` through its delta journal.

        A node's bounded language can change only if the node reaches the
        source of a changed edge within ``max_length - 1`` forward hops —
        so only nodes in the backward BFS cone of the delta seeds are
        walked again, by the walk that builds an index; every other
        node's bitset is carried over verbatim, and the walk reads it,
        cut to each word length, where a walked node has it as a
        successor.  The shared :class:`PrefixIdArena` is append-only, so
        word ids stay stable and views of this index remain valid.

        Returns ``self`` when current, and ``None`` when
        :meth:`LabeledGraph.deltas_since
        <repro.graph.labeled_graph.LabeledGraph.deltas_since>` cannot
        bridge the gap or a delta changed the node set (languages and
        spellers are positional bitsets over the node table) — the caller
        then rebuilds from scratch.
        """
        if graph.version == self.version:
            return self
        deltas = graph.deltas_since(self.version)
        if not deltas:
            return None
        seeds: Set[Node] = set()
        for delta in deltas:
            if delta.nodes_changed:
                return None
            for source, _, _ in delta.edges_added:
                seeds.add(source)
            for source, _, _ in delta.edges_removed:
                seeds.add(source)
        fresh = self._sibling(graph.version, self.max_length, dict(self._languages), dict(self._spellers))
        fresh._walk(graph, _affected_nodes(graph, seeds, self.max_length))
        return fresh

    def __repr__(self) -> str:
        return (
            f"<LanguageIndex v{self.version} bound={self.max_length} "
            f"{len(self.nodes)} nodes, {len(self.arena) - 1} words>"
        )


def _affected_nodes(graph: LabeledGraph, seeds: Set[Node], max_length: int) -> Set[Node]:
    """Every node whose bounded language a change at ``seeds`` can touch.

    Soundness: take any node ``u`` whose language differs between the old
    and new snapshots, and a witness word's path.  The path's *first*
    changed edge has some seed ``s`` as source, and the prefix ``u → s``
    uses only unchanged edges — edges present in both snapshots — of
    length ≤ ``max_length - 1``.  Hence ``u`` lies in the backward BFS
    cone of ``s`` on the new graph, which one multi-source backward BFS
    over all seeds collects.
    """
    visited: Set[Node] = {seed for seed in seeds if seed in graph}
    frontier: List[Node] = list(visited)
    pred = graph._pred
    for _ in range(max_length - 1):
        if not frontier:
            break
        next_frontier: List[Node] = []
        for node in frontier:
            for sources in pred[node].values():
                for source in sources:
                    if source not in visited:
                        visited.add(source)
                        next_frontier.append(source)
        frontier = next_frontier
    return visited


def _workspace_index(graph: LabeledGraph, max_length: int) -> LanguageIndex:
    """The default workspace's build-once index of ``graph`` at ``max_length``."""
    # lazy: the workspace's import closure includes this module
    from repro.serving.workspace import default_workspace

    return default_workspace().language_index(graph, max_length)


def _resolve_index(
    graph: LabeledGraph, max_length: int, index: Optional[LanguageIndex]
) -> LanguageIndex:
    """The caller's ``index`` when it matches this snapshot and bound, else the default one.

    Workspace-backed callers (the learner, the session loop) pass their
    workspace's index; index-less calls use the default workspace's.
    """
    if index is not None and index.version == graph.version and index.max_length == max_length:
        return index
    return _workspace_index(graph, max_length)


# ----------------------------------------------------------------------
# Merge-aware compatibility
# ----------------------------------------------------------------------
class CompatibilityOracle:
    """Decides "candidate DFA selects no negative node" for one example set.

    The semantics are exactly those of the engine-based predicate the
    learner used previously (``not any(engine.selects(graph, dfa, n) for
    n in negatives)``, with *unbounded* path length), but the common
    cases are answered from the precompiled negative cover:

    1. the empty-word test — a hypothesis accepting the empty word
       selects every node, hence any negative;
    2. a shared-prefix walk of the arena trie in lockstep with the DFA —
       reaching an accepting DFA state on a covered word id is a
       *witness* that some negative node is selected (sound for any
       bound, and linear in the trie instead of per-negative);
    3. when the candidate's accepted words all fit within the bound
       (acyclic useful part with longest accepted word ≤ ``max_length``),
       the walk is also *complete*, so a missing witness proves
       compatibility outright;
    4. only candidates that accept words longer than the bound (merges
       that created loops) fall back to one **multi-source** forward
       product search over the graph's own adjacency — one pass for all
       negatives together, rather than one per negative.

    An instance is also a learn's negative view, one per full learn,
    shared by step (i), step (ii) and the consistency certificate; the
    negatives are kept unsorted, since no verdict depends on their order.
    Step (ii) passes each merge candidate as a
    :class:`~repro.automata.state_merging.QuotientView`, which every step
    above reads exactly as it reads a DFA, gathering only the blocks it
    reaches.
    """

    __slots__ = ("graph", "negatives", "index", "cover_bits", "max_length")

    def __init__(
        self,
        graph: LabeledGraph,
        negatives: Iterable[Node],
        *,
        max_length: int,
        index: Optional[LanguageIndex] = None,
    ):
        self.graph = graph
        self.negatives: Tuple[Node, ...] = tuple(negatives)
        self.max_length = max_length
        self.index = _resolve_index(graph, max_length, index)
        self.cover_bits = self.index.cover(self.negatives)

    def compatible(self, dfa: DFA) -> bool:
        """True when ``dfa`` selects no negative node of the graph."""
        if not self.negatives:
            return True
        if dfa.is_accepting(dfa.initial_state):
            return False  # accepts the empty word: selects every node
        if self._bounded_witness(dfa):
            return False
        longest = _longest_accepted_length(dfa)
        if longest is not None and longest <= self.max_length:
            return True  # every accepted word fits the bound: walk was complete
        # step 4: exact fallback, all negatives in one product pass
        return not selects_any(self.graph, dfa, self.negatives)

    # -- step 2: DFA × prefix-arena intersection ------------------------
    def _bounded_witness(self, dfa: DFA) -> bool:
        """Does ``dfa`` accept a word covered by some negative (≤ bound)?"""
        cover = self.cover_bits
        if not cover:
            return False
        children = self.index.arena.children
        transitions = dfa._transitions
        accepting = dfa._accepting
        # the arena is a tree and the DFA deterministic, so each trie node
        # is visited at most once — no visited set required
        stack: List[Tuple[int, object]] = [(0, dfa.initial_state)]
        while stack:
            word_id, state = stack.pop()
            moves = transitions[state]
            for label, child in children(word_id):
                target = moves.get(label)
                if target is None:
                    continue
                if target in accepting and (cover >> child) & 1:
                    return True
                stack.append((child, target))
        return False


def _longest_accepted_length(dfa: DFA) -> Optional[int]:
    """Longest accepted word length, or ``None`` when unbounded / cyclic.

    Only the *useful* states (reachable and productive) matter: a cycle
    through states that can never reach acceptance does not make the
    accepted language infinite.
    """
    useful: FrozenSet = dfa.reachable_states() & dfa.productive_states()
    initial = dfa.initial_state
    if initial not in useful:
        return 0  # empty language: trivially bounded
    transitions = dfa._transitions
    accepting = dfa._accepting

    # iterative DFS with colors: detect cycles among useful states and
    # memoise the longest accepted-suffix length per state
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[object, int] = {state: WHITE for state in useful}
    longest: Dict[object, int] = {}
    stack: List[Tuple[object, bool]] = [(initial, False)]
    while stack:
        state, processed = stack.pop()
        if processed:
            best = 0 if state in accepting else -1
            for target in transitions[state].values():
                if target in useful and longest.get(target, -1) >= 0:
                    best = max(best, 1 + longest[target])
            longest[state] = best
            color[state] = BLACK
            continue
        if color[state] == BLACK:
            continue
        if color[state] == GRAY:
            return None  # revisiting an in-progress state: cycle
        color[state] = GRAY
        stack.append((state, True))
        for target in transitions[state].values():
            if target not in useful:
                continue
            if color[target] == GRAY:
                return None
            if color[target] == WHITE:
                stack.append((target, False))
    return longest.get(initial, 0)
