"""Unit tests for informativeness classification and pruning."""

import pytest

from repro.exceptions import NodeNotFoundError
from repro.learning import language_index
from repro.learning.examples import ExampleSet
from repro.learning.informativeness import (
    classify_all,
    classify_all_scratch,
    classify_node,
    informative_nodes,
    pruned_nodes,
    pruning_fraction,
)


def examples_with(positive=(), negative=(), validated=None) -> ExampleSet:
    examples = ExampleSet()
    validated = validated or {}
    for node in positive:
        examples.add_positive(node, validated_word=validated.get(node))
    for node in negative:
        examples.add_negative(node)
    return examples


class TestClassifyNode:
    def test_labeled_node_is_uninformative(self, figure1_graph):
        examples = examples_with(positive=["N2"], negative=["N5"])
        status = classify_node(figure1_graph, "N2", examples, max_length=3)
        assert status.labeled
        assert not status.informative

    def test_unlabeled_node_with_uncovered_words_is_informative(self, figure1_graph):
        examples = examples_with(negative=["N5"])
        status = classify_node(figure1_graph, "N1", examples, max_length=3)
        assert status.informative
        assert status.uncovered_word_count > 0
        assert status.shortest_uncovered_length == 1

    def test_implied_negative_when_all_words_covered(self, figure1_graph):
        # with N6 negative, every word of N3 (tram..., towards N5/N6 region)
        # is it covered?  N3 words: tram, tram.tram, tram.restaurant...
        # N6 words include tram, tram.tram, tram.restaurant (via N5), so at
        # bound 2 N3 is fully covered.
        examples = examples_with(negative=["N6"])
        status = classify_node(figure1_graph, "N3", examples, max_length=2)
        assert status.implied_negative
        assert not status.informative

    def test_implied_positive_via_validated_word(self, figure1_graph):
        examples = examples_with(
            positive=["N2"], negative=["N5"], validated={"N2": ("bus", "bus", "cinema")}
        )
        # N1 can spell bus.cinema?  validated word is bus.bus.cinema; N1
        # spells bus.cinema and tram.cinema but not bus.bus.cinema, so not
        # implied.  N5 is already labeled.  Craft a clearer case: validate
        # ('cinema',) for N6 — then N4 (which spells 'cinema') is implied
        # positive.
        examples = examples_with(positive=["N6"], validated={"N6": ("cinema",)})
        status = classify_node(figure1_graph, "N4", examples, max_length=3)
        assert status.implied_positive
        assert not status.informative

    def test_sink_node_is_implied_negative(self, figure1_graph):
        examples = examples_with(negative=["N5"])
        status = classify_node(figure1_graph, "C1", examples, max_length=3)
        assert status.implied_negative

    def test_score_prefers_many_short_words(self, figure1_graph):
        examples = examples_with()
        rich = classify_node(figure1_graph, "N6", examples, max_length=3)
        poor = classify_node(figure1_graph, "N4", examples, max_length=3)
        assert rich.score > poor.score


class TestScratchOracle:
    """The oracle must not share the structure it is meant to check."""

    def test_scratch_oracle_reads_no_language_index(self, figure1_graph, monkeypatch):
        examples = examples_with(
            positive=["N2"], negative=["N5", "N6"], validated={"N2": ("bus", "cinema")}
        )
        expected = classify_all(figure1_graph, examples, max_length=3)

        def fail(*args, **kwargs):
            raise AssertionError("the scratch oracle read a LanguageIndex")

        monkeypatch.setattr(language_index.LanguageIndex, "__init__", fail)
        monkeypatch.setattr(language_index.LanguageIndex, "language", fail)
        monkeypatch.setattr(language_index.LanguageIndex, "cover", fail)
        monkeypatch.setattr(language_index, "_workspace_index", fail)
        assert classify_all_scratch(figure1_graph, examples, max_length=3) == expected
        assert classify_node(figure1_graph, "N3", examples, max_length=3) == expected["N3"]

    def test_scratch_oracle_rejects_a_negative_outside_the_graph(self, figure1_graph):
        examples = examples_with(negative=["N5", "ghost"])
        with pytest.raises(NodeNotFoundError):
            classify_all_scratch(figure1_graph, examples, max_length=3)
        with pytest.raises(NodeNotFoundError):
            classify_node(figure1_graph, "N1", examples, max_length=3)


class TestClassifyAllAndRanking:
    def test_classify_all_covers_every_node(self, figure1_graph):
        examples = examples_with(negative=["N5"])
        statuses = classify_all(figure1_graph, examples, max_length=3)
        assert set(statuses) == set(figure1_graph.nodes())

    def test_informative_nodes_excludes_labeled_and_pruned(self, figure1_graph):
        examples = examples_with(positive=["N2"], negative=["N5"])
        ranked = informative_nodes(figure1_graph, examples, max_length=3)
        assert "N2" not in ranked
        assert "N5" not in ranked
        # sinks are pruned
        assert "C1" not in ranked and "R1" not in ranked

    def test_informative_nodes_sorted_by_score(self, figure1_graph):
        examples = examples_with()
        ranked = informative_nodes(figure1_graph, examples, max_length=3)
        statuses = classify_all(figure1_graph, examples, max_length=3)
        scores = [statuses[node].score for node in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_ranking_deterministic(self, figure1_graph):
        examples = examples_with(negative=["N5"])
        assert informative_nodes(figure1_graph, examples, max_length=3) == informative_nodes(
            figure1_graph, examples, max_length=3
        )


class TestPruning:
    def test_pruned_nodes_grow_with_negatives(self, figure1_graph):
        few = pruned_nodes(figure1_graph, examples_with(negative=["N5"]), max_length=3)
        more = pruned_nodes(figure1_graph, examples_with(negative=["N5", "N6"]), max_length=3)
        assert few <= more
        assert len(more) > len(few)

    def test_pruned_nodes_never_include_labeled(self, figure1_graph):
        examples = examples_with(positive=["N2"], negative=["N5"])
        assert not (pruned_nodes(figure1_graph, examples, max_length=3) & examples.labeled_nodes)

    def test_pruning_fraction_range(self, figure1_graph):
        fraction = pruning_fraction(figure1_graph, examples_with(negative=["N5"]), max_length=3)
        assert 0.0 <= fraction <= 1.0

    def test_pruning_fraction_zero_without_examples_on_rich_graph(self, small_random_graph):
        fraction = pruning_fraction(small_random_graph, examples_with(), max_length=2)
        # with no negatives nothing is covered, only sinks are pruned
        sink_count = sum(1 for node in small_random_graph.nodes() if small_random_graph.out_degree(node) == 0)
        expected = sink_count / small_random_graph.node_count
        assert abs(fraction - expected) < 1e-9

    def test_pruning_fraction_all_labeled(self, figure1_graph):
        examples = ExampleSet()
        answer = {"N1", "N2", "N4", "N6"}
        for node in figure1_graph.nodes():
            if node in answer:
                examples.add_positive(node)
            else:
                examples.add_negative(node)
        assert pruning_fraction(figure1_graph, examples, max_length=3) == 0.0
