"""Goal-query workloads.

The companion paper evaluates learning over classes of path queries of
increasing complexity.  We generate goal queries from the same structural
families, instantiated over a given graph's alphabet so that every
generated query is satisfiable on the dataset it is paired with:

* ``single``        — one label: ``a``;
* ``concat``        — a short chain: ``a . b`` / ``a . b . c``;
* ``disjunction``   — ``a + b``;
* ``star-prefix``   — the paper's flagship shape ``(a + b)* . c``;
* ``star-chain``    — ``a* . b``;
* ``optional``      — ``a? . b``;
* ``plus``          — ``a+ . b``.

Each workload entry records the family, the expression and its size, so
experiment tables can be broken down by query class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.labeled_graph import LabeledGraph
from repro.serving.workspace import default_workspace
from repro.query.rpq import PathQuery

#: Families in increasing structural complexity.
QUERY_FAMILIES: Tuple[str, ...] = (
    "single",
    "concat",
    "disjunction",
    "star-prefix",
    "star-chain",
    "optional",
    "plus",
)


@dataclass(frozen=True)
class WorkloadQuery:
    """One goal query of a workload."""

    family: str
    expression: str
    query: PathQuery
    answer_size: int

    def as_row(self) -> Dict[str, object]:
        """Flat dictionary for experiment tables."""
        return {
            "family": self.family,
            "expression": self.expression,
            "answer_size": self.answer_size,
            "ast_size": self.query.expression.size(),
        }


def _expression_for(family: str, labels: Sequence[str], rng: random.Random) -> str:
    pick = lambda: rng.choice(list(labels))  # noqa: E731 - tiny local helper
    if family == "single":
        return pick()
    if family == "concat":
        length = rng.choice([2, 3])
        return " . ".join(pick() for _ in range(length))
    if family == "disjunction":
        first, second = pick(), pick()
        return f"{first} + {second}"
    if family == "star-prefix":
        first, second, final = pick(), pick(), pick()
        return f"({first} + {second})* . {final}"
    if family == "star-chain":
        return f"{pick()}* . {pick()}"
    if family == "optional":
        return f"{pick()}? . {pick()}"
    if family == "plus":
        return f"{pick()}+ . {pick()}"
    raise ValueError(f"unknown query family {family!r}")


def generate_workload(
    graph: LabeledGraph,
    *,
    families: Sequence[str] = QUERY_FAMILIES,
    per_family: int = 3,
    seed: Optional[int] = None,
    max_attempts: int = 60,
) -> List[WorkloadQuery]:
    """Generate a workload of goal queries over ``graph``'s alphabet.

    Queries selecting no node or *every* node are discarded (both are
    uninteresting interaction targets).
    """
    labels = sorted(graph.alphabet())
    if not labels:
        raise ValueError("graph has no edge labels; cannot generate a workload")
    rng = random.Random(seed)
    engine = default_workspace().engine
    workload: List[WorkloadQuery] = []
    for family in families:
        produced = 0
        attempts = 0
        seen: set = set()
        while produced < per_family and attempts < max_attempts:
            attempts += 1
            expression = _expression_for(family, labels, rng)
            if expression in seen:
                continue
            seen.add(expression)
            query = PathQuery(expression)
            answer = engine.evaluate(graph, query)
            if not answer or len(answer) == graph.node_count:
                continue
            workload.append(
                WorkloadQuery(
                    family=family,
                    expression=expression,
                    query=query,
                    answer_size=len(answer),
                )
            )
            produced += 1
    return workload


def figure1_goal_query() -> WorkloadQuery:
    """The motivating example's goal query ``(tram + bus)* . cinema``."""
    from repro.graph.datasets import motivating_example

    graph = motivating_example()
    query = PathQuery("(tram + bus)* . cinema")
    return WorkloadQuery(
        family="star-prefix",
        expression="(tram + bus)* . cinema",
        query=query,
        answer_size=len(default_workspace().engine.evaluate(graph, query)),
    )
