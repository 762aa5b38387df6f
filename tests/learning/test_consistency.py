"""Unit tests for the consistency checker."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import NodeNotFoundError
from repro.learning.consistency import check_consistency, examples_admit_query, is_consistent
from repro.learning.examples import ExampleSet
from repro.query.rpq import PathQuery

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

#: Prints examples_admit_query for +N4 -N6 +ghost on figure 1, in a fresh process.
_ADMIT_SNIPPET = """
from repro.graph.datasets import motivating_example
from repro.learning.consistency import examples_admit_query
from repro.learning.examples import ExampleSet

examples = ExampleSet()
examples.add_positive("N4")
examples.add_negative("N6")
examples.add_positive("ghost")
print(examples_admit_query(motivating_example(), examples, max_path_length=3))
"""


def paper_examples() -> ExampleSet:
    examples = ExampleSet()
    examples.add_positive("N2")
    examples.add_positive("N6")
    examples.add_negative("N5")
    return examples


class TestCheckConsistency:
    def test_goal_query_is_consistent_with_paper_examples(self, figure1_graph):
        report = check_consistency(figure1_graph, "(tram + bus)* . cinema", paper_examples())
        assert report.consistent
        assert report.missed_positives == frozenset()
        assert report.covered_negatives == frozenset()
        assert "consistent" in report.explain()

    def test_bus_query_also_consistent_without_validation(self, figure1_graph):
        """Section 3: `bus` is consistent with {+N2, +N6, -N5} but is not the goal."""
        assert is_consistent(figure1_graph, "bus", paper_examples())

    def test_missed_positive_detected(self, figure1_graph):
        report = check_consistency(figure1_graph, "cinema", paper_examples())
        assert not report.consistent
        assert "N2" in report.missed_positives
        assert "misses" in report.explain()

    def test_covered_negative_detected(self, figure1_graph):
        examples = paper_examples()
        report = check_consistency(figure1_graph, "restaurant", examples)
        assert not report.consistent
        assert "N5" in report.covered_negatives
        assert "selects negative" in report.explain()

    def test_validated_word_must_be_accepted(self, figure1_graph):
        examples = ExampleSet()
        examples.add_positive("N2", validated_word=("bus", "tram", "cinema"))
        examples.add_negative("N5")
        # bus* . cinema selects N2 but rejects the validated tram word
        report = check_consistency(figure1_graph, "bus* . cinema", examples)
        assert not report.consistent
        assert ("bus", "tram", "cinema") in report.rejected_words
        # the goal query accepts it
        assert is_consistent(figure1_graph, "(tram + bus)* . cinema", examples)

    def test_accepts_query_and_dfa_inputs(self, figure1_graph):
        query = PathQuery("(tram + bus)* . cinema")
        assert check_consistency(figure1_graph, query, paper_examples()).consistent
        assert check_consistency(figure1_graph, query.dfa, paper_examples()).consistent

    def test_empty_example_set_always_consistent(self, figure1_graph):
        assert is_consistent(figure1_graph, "anything-at-all*", ExampleSet())


class TestExamplesAdmitQuery:
    def test_admissible(self, figure1_graph):
        assert examples_admit_query(figure1_graph, paper_examples(), max_path_length=4)

    def test_positive_with_all_paths_covered_is_inadmissible(self, figure1_graph):
        examples = ExampleSet()
        # C1 has no outgoing edge at all: only the empty word, which every
        # node shares — so once any negative exists, C1 cannot be positive.
        examples.add_positive("C1")
        examples.add_negative("C2")
        assert not examples_admit_query(figure1_graph, examples, max_path_length=4)

    def test_positive_sink_alone_is_admissible(self, figure1_graph):
        # with no negatives, even a sink node admits the query eps (select-all)
        examples = ExampleSet()
        examples.add_positive("C1")
        assert examples_admit_query(figure1_graph, examples, max_path_length=4)

    def test_identical_path_languages_conflict(self, figure1_graph):
        # N4 and N6 both have a 'cinema' word, but N6 also has bus/tram words;
        # labelling N4 positive and N6 negative leaves no uncovered word for N4
        examples = ExampleSet()
        examples.add_positive("N4")
        examples.add_negative("N6")
        assert not examples_admit_query(figure1_graph, examples, max_path_length=3)

    def test_first_failing_positive_in_str_order_decides(self, figure1_graph):
        # N4 is blocked by N6 and sorts before the absent "ghost"; an absent
        # positive that sorts first raises instead
        blocked_first = ExampleSet()
        blocked_first.add_positive("N4")
        blocked_first.add_negative("N6")
        blocked_first.add_positive("ghost")
        assert not examples_admit_query(figure1_graph, blocked_first, max_path_length=3)
        absent_first = ExampleSet()
        absent_first.add_positive("N4")
        absent_first.add_negative("N6")
        absent_first.add_positive("A-ghost")
        with pytest.raises(NodeNotFoundError):
            examples_admit_query(figure1_graph, absent_first, max_path_length=3)

    def _admit_in_fresh_process(self, hash_seed: int) -> str:
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + existing if existing else "")
        completed = subprocess.run(
            [sys.executable, "-c", _ADMIT_SNIPPET],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return completed.stdout.strip()

    def test_identical_across_hash_seeds(self):
        # the positives are a frozenset, whose iteration order is salted:
        # which positive decides must not depend on it
        assert self._admit_in_fresh_process(0) == "False"
        assert self._admit_in_fresh_process(1) == "False"
