"""GPS — Interactive Path Query Specification on Graph Databases.

A faithful, laptop-scale reproduction of the system demonstrated in

    Angela Bonifati, Radu Ciucanu, Aurélien Lemay.
    "Interactive Path Query Specification on Graph Databases", EDBT 2015.

The package is organised bottom-up:

* :mod:`repro.graph`       — edge-labelled graph databases, paths, neighbourhoods, datasets;
* :mod:`repro.regex`       — regular expressions over edge labels (parser / printer);
* :mod:`repro.automata`    — NFA/DFA toolkit, PTA, RPNI state merging, regex synthesis;
* :mod:`repro.query`       — regular path queries and their evaluation on graphs;
* :mod:`repro.learning`    — the two-step learning algorithm, informativeness, pruning;
* :mod:`repro.interactive` — strategies, the Figure 2 session loop, oracles, scenarios;
* :mod:`repro.workloads`   — goal-query workloads and experiment cases;
* :mod:`repro.experiments` — figure regeneration and the E1–E5 evaluation harness;
* :mod:`repro.serving`     — the many-session serving core (workspace + manager).

Quickstart::

    from repro.graph.datasets import motivating_example
    from repro.interactive import SimulatedUser, InteractiveSession

    graph = motivating_example()
    user = SimulatedUser(graph, "(tram + bus)* . cinema")
    session = InteractiveSession(graph, user)
    result = session.run()
    print(result.learned_query)          # a query equivalent on the instance

Serving many users concurrently over one shared graph::

    from repro.serving import GraphWorkspace, SessionManager

    workspace = GraphWorkspace()
    manager = SessionManager(workspace)
    for goal in goals:
        manager.admit(graph, SimulatedUser(graph, goal, workspace=workspace))
    results = manager.run_all()
"""

from repro.graph.labeled_graph import LabeledGraph
from repro.query.rpq import PathQuery
from repro.query.engine import QueryEngine
from repro.learning.learner import PathQueryLearner, learn_query
from repro.learning.examples import ExampleSet
from repro.interactive.session import InteractiveSession, SessionResult
from repro.interactive.oracle import NoisyUser, SimulatedUser
from repro.reliability import FaultInjector, FaultPlan, RetryPolicy, SupervisionPolicy
from repro.serving import GraphWorkspace, SessionHandle, SessionManager, default_workspace

__version__ = "1.19.0"

#: The supported public surface.  The 1.2 deprecated shims
#: (``shared_engine``, ``evaluate``) are gone: hold a
#: :class:`GraphWorkspace` (or let :class:`InteractiveSession` create
#: one) and reach everything through it.
__all__ = [
    "LabeledGraph",
    "PathQuery",
    "QueryEngine",
    "PathQueryLearner",
    "learn_query",
    "ExampleSet",
    "InteractiveSession",
    "SessionResult",
    "SimulatedUser",
    "NoisyUser",
    "GraphWorkspace",
    "SessionManager",
    "SessionHandle",
    "default_workspace",
    "FaultPlan",
    "FaultInjector",
    "RetryPolicy",
    "SupervisionPolicy",
    "__version__",
]
