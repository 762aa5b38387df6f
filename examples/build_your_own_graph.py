#!/usr/bin/env python3
"""Bring your own graph — specify a query on data you define yourself.

Shows the programmatic API end to end on a hand-built graph: constructing
an edge-labelled graph with :class:`GraphBuilder`, saving / reloading it as
JSON, labelling a few nodes directly through the learner facade, and
finally driving a full interactive session with a scripted user (the
:class:`TranscriptUser`, which is also how front-ends are tested).

Run with::

    python examples/build_your_own_graph.py
"""

import tempfile
from pathlib import Path

from repro.graph.builders import GraphBuilder
from repro.graph.io import load_json, save_json
from repro.interactive.console import TranscriptUser
from repro.interactive.session import InteractiveSession
from repro.learning.learner import learn_query
from repro.serving.workspace import default_workspace


def build_graph():
    """A small company knowledge graph: people, teams, services."""
    return (
        GraphBuilder("company")
        .node("alice", kind="person")
        .node("bob", kind="person")
        .node("carol", kind="person")
        .edge("alice", "member_of", "platform-team")
        .edge("bob", "member_of", "platform-team")
        .edge("carol", "member_of", "data-team")
        .edge("platform-team", "owns", "auth-service")
        .edge("platform-team", "owns", "billing-service")
        .edge("data-team", "owns", "warehouse")
        .edge("auth-service", "depends_on", "database")
        .edge("billing-service", "depends_on", "auth-service")
        .edge("warehouse", "depends_on", "database")
        .build()
    )


def main() -> None:
    graph = build_graph()
    print(f"graph: {graph!r}")

    # persist and reload (JSON round-trip)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "company.json"
        save_json(graph, path)
        graph = load_json(path)
    print("round-tripped through JSON")
    print()

    # goal: people whose team owns something that (transitively) depends on the database
    goal = "member_of . owns . depends_on+"
    print(f"goal query: {goal}")
    print(f"  answer: {sorted(default_workspace().engine.evaluate(graph, goal))}")
    print()

    # one-shot learning from explicit examples; the negative examples are
    # what keeps the learner from over-generalising (try removing
    # "auth-service" to see a broader query come back)
    learned = learn_query(
        graph,
        positive={"alice": ("member_of", "owns", "depends_on"), "carol": None},
        negative=["database", "data-team", "auth-service"],
    )
    print(f"learned from two positive and three negative examples: {learned}")
    print(f"  answer: {sorted(default_workspace().engine.evaluate(graph, learned))}")
    print()

    # a fully scripted interactive session (what a GUI adapter looks like)
    script = [
        ("zoom", "alice", False),
        ("label", "alice", True),
        ("validate", "alice", ("member_of", "owns", "depends_on")),
        ("zoom", "database", False),
        ("label", "database", False),
        ("zoom", "carol", False),
        ("label", "carol", True),
        ("validate", "carol", ("member_of", "owns", "depends_on")),
    ]
    user = TranscriptUser(script)
    session = InteractiveSession(
        graph,
        user,
        strategy=_scripted_order(["alice", "database", "carol"]),
        max_interactions=3,
    )
    result = session.run()
    print(f"scripted session learned: {result.learned_query}")
    print(f"  answer: {sorted(default_workspace().engine.evaluate(graph, result.learned_query))}")


def _scripted_order(order):
    """A tiny strategy that proposes nodes in a fixed order (for the demo)."""
    from repro.interactive.strategies import Strategy

    class FixedOrder(Strategy):
        name = "fixed-order"

        def __init__(self):
            super().__init__(max_path_length=4)
            self._queue = list(order)

        def propose(self, graph, examples):
            from repro.exceptions import NoCandidateNodeError

            while self._queue:
                node = self._queue.pop(0)
                if examples.label_of(node) is None:
                    return node
            raise NoCandidateNodeError("script exhausted")

    return FixedOrder()


if __name__ == "__main__":
    main()
