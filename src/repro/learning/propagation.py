"""Label propagation ("propagate label for ν" in Figure 2).

After the user labels a node (and possibly validates a path), the system
propagates the consequences of that label to the rest of the graph:

* every unlabelled node that can spell a *validated* positive word is
  necessarily selected by any query consistent with the validated paths →
  it receives an implied **positive** label;
* every unlabelled node all of whose (bounded) words are covered by
  negative nodes can never be selected consistently → it receives an
  implied **negative** label.

Propagated labels are recorded in the example set as propagated
(:meth:`~repro.learning.examples.ExampleSet.add_propagated`, one history
entry per pass) so they never count as user interactions, and the
pruning statistics of experiment E2 report them separately.

One pass reaches the fixpoint.  An implied negative's language already
lies inside the negative cover, so labelling it covers no new word, and
an implied positive brings no validated word; neither can imply another
label.  The session's
:class:`~repro.learning.informativeness.SessionClassifier` writes the
pass and records it in its own flags (:meth:`SessionClassifier.propagate
<repro.learning.informativeness.SessionClassifier.propagate>`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.graph.labeled_graph import LabeledGraph, Node
from repro.learning.examples import ExampleSet
from repro.learning.informativeness import SessionClassifier, _resolve_classifier


@dataclass(frozen=True)
class PropagationResult:
    """Labels added by one propagation pass."""

    implied_positive: FrozenSet[Node]
    implied_negative: FrozenSet[Node]

    @property
    def total(self) -> int:
        """Number of labels propagated in this pass."""
        return len(self.implied_positive) + len(self.implied_negative)


def propagate_to_fixpoint(
    graph: LabeledGraph,
    examples: ExampleSet,
    *,
    max_length: int,
    classifier: Optional[SessionClassifier] = None,
) -> PropagationResult:
    """Label every implied node, mutating ``examples`` in place.

    Nodes are labelled in node-table order.  The pass reaches the
    fixpoint, so running it twice in a row adds nothing the second time.
    A session passes its own ``classifier``, which writes the pass and
    records it; without one the pass builds a classifier for this call.
    """
    nodes, positives = _resolve_classifier(graph, examples, max_length, classifier).propagate()
    implied_positive = frozenset(positives)
    return PropagationResult(implied_positive, frozenset(nodes) - implied_positive)
