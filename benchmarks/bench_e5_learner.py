"""E5 — cost of the learner core (PTA construction + RPNI state merging).

Measures generalisation time and output size as the number of sample
words grows, plus the full two-step learner on the motivating example.
Expected shape: polynomial growth, with the learned automaton far smaller
than the PTA.
"""

from repro.automata.prefix_tree import build_pta
from repro.automata.state_merging import rpni
from repro.experiments.runner import ExperimentRunner
from repro.graph.datasets import motivating_example
from repro.learning.examples import ExampleSet
from repro.learning.learner import PathQueryLearner

from conftest import write_artifact

POSITIVES = [
    ("bus", "tram", "cinema"),
    ("cinema",),
    ("bus", "bus", "cinema"),
    ("tram", "cinema"),
    ("tram", "tram", "bus", "cinema"),
]
NEGATIVES = [(), ("bus",), ("tram",), ("bus", "tram"), ("cinema", "cinema"), ("restaurant",)]


def test_e5_full_table(benchmark, results_dir):
    runner = ExperimentRunner(experiments=("e5",), seed=31, e5_sample_sizes=(5, 10, 20, 40, 80))
    table = benchmark.pedantic(runner.run, rounds=1, iterations=1).tables["e5"]
    write_artifact(results_dir, "e5.txt", table.render())
    rows = list(table)
    assert all(row["all_positives_accepted"] and row["all_negatives_rejected"] for row in rows)
    # generalisation compresses the PTA substantially
    assert all(row["learned_states"] <= row["pta_states"] for row in rows)


def test_e5_pta_construction(benchmark):
    pta = benchmark(build_pta, POSITIVES)
    assert pta.accepts(("cinema",))


def test_e5_rpni_generalization(benchmark):
    learned = benchmark(rpni, POSITIVES, NEGATIVES)
    assert learned.accepts(("bus", "bus", "bus", "cinema"))
    assert not learned.accepts(("bus",))


def test_e5_two_step_learner_on_figure1(benchmark):
    graph = motivating_example()
    learner = PathQueryLearner(graph)
    examples = ExampleSet()
    examples.add_positive("N2", validated_word=("bus", "tram", "cinema"))
    examples.add_positive("N6", validated_word=("cinema",))
    examples.add_negative("N5")
    examples.add_negative("N3")
    outcome = benchmark(learner.learn, examples)
    assert outcome.consistent
