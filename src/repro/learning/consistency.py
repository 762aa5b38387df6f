"""Consistency of queries with example sets.

A query ``q`` is *consistent* with an example set ``S`` on a graph ``G``
when ``q`` selects every positive node of ``S`` and no negative node
(Section 2: "q is consistent with the user's examples because q selects
all positive examples and none of the negative ones").  When validated
words are present, consistency additionally requires the query language to
contain each validated word — this is what distinguishes "specifying" the
goal query from merely "learning" a consistent one (Section 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple, Union

from repro.automata.dfa import DFA, symbol_sort_key
from repro.exceptions import NoConsistentPathError
from repro.graph.labeled_graph import LabeledGraph, Node
from repro.learning.examples import ExampleSet, Word
from repro.query.engine import QueryEngine
from repro.query.rpq import PathQuery
from repro.regex.ast import Regex
from repro.serving.workspace import default_workspace

QueryLike = Union[str, Regex, PathQuery, DFA]


@dataclass(frozen=True)
class ConsistencyReport:
    """Detailed outcome of a consistency check."""

    consistent: bool
    missed_positives: FrozenSet[Node] = frozenset()
    covered_negatives: FrozenSet[Node] = frozenset()
    rejected_words: Tuple[Word, ...] = ()

    def explain(self) -> str:
        """Human-readable explanation (used by the console front-end)."""
        if self.consistent:
            return "query is consistent with all examples"
        parts = []
        if self.missed_positives:
            parts.append(f"misses positive nodes {sorted(self.missed_positives, key=str)}")
        if self.covered_negatives:
            parts.append(f"selects negative nodes {sorted(self.covered_negatives, key=str)}")
        if self.rejected_words:
            rendered = [".".join(word) for word in self.rejected_words]
            parts.append(f"rejects validated paths {rendered}")
        return "query is inconsistent: " + "; ".join(parts)


def check_consistency(
    graph: LabeledGraph,
    query: QueryLike,
    examples: ExampleSet,
    *,
    engine: Optional[QueryEngine] = None,
) -> ConsistencyReport:
    """Full consistency check of ``query`` against ``examples`` on ``graph``.

    The answer set is computed through ``engine`` (default: the shared
    engine), so checking the same hypothesis repeatedly hits the answer
    cache.  The learner certifies its own results and calls this only to
    explain one whose certificate fails; it stays the reference check.
    """
    if isinstance(query, PathQuery):
        dfa = query.dfa
    elif isinstance(query, DFA):
        dfa = query
    else:
        query = PathQuery(query)
        dfa = query.dfa

    answer = (engine or default_workspace().engine).evaluate(graph, query)
    missed = frozenset(node for node in examples.positive_nodes if node not in answer)
    covered = frozenset(node for node in examples.negative_nodes if node in answer)
    rejected = tuple(
        word
        for word in sorted(
            examples.validated_words().values(),
            key=lambda word: tuple(symbol_sort_key(symbol) for symbol in word),
        )
        if not dfa.accepts(word)
    )
    return ConsistencyReport(
        consistent=not missed and not covered and not rejected,
        missed_positives=missed,
        covered_negatives=covered,
        rejected_words=rejected,
    )


def is_consistent(
    graph: LabeledGraph,
    query: QueryLike,
    examples: ExampleSet,
    *,
    engine: Optional[QueryEngine] = None,
) -> bool:
    """Boolean shortcut for :func:`check_consistency`."""
    return check_consistency(graph, query, examples, engine=engine).consistent


def examples_admit_query(graph: LabeledGraph, examples: ExampleSet, *, max_path_length: int) -> bool:
    """True when *some* query consistent with ``examples`` can exist.

    A sufficient and necessary condition under the paper's semantics: every
    positive node must have at least one word (of any length; we search up
    to ``max_path_length``) that no negative node can spell — otherwise any
    query selecting the positive necessarily selects a negative too.

    The positives are checked together in one sweep of the language index
    and the first one in ``str`` order that fails decides, as in the
    learner's step (i): ``False`` when it has no uncovered word,
    :class:`NodeNotFoundError` when it is absent from the graph.
    Negatives absent from the graph are dropped first.
    """
    from repro.learning.language_index import CompatibilityOracle
    from repro.learning.path_selection import select_paths

    present = [node for node in examples.negative_nodes if node in graph]
    try:
        select_paths(examples.positive_nodes, CompatibilityOracle(graph, present, max_length=max_path_length))
    except NoConsistentPathError:
        return False
    return True
