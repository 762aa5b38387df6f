"""Unit tests for label propagation."""

from repro.learning.examples import ExampleSet
from repro.learning.propagation import propagate_to_fixpoint


class TestPropagateLabels:
    def test_implied_negative_propagated(self, figure1_graph):
        examples = ExampleSet()
        examples.add_negative("N6")
        result = propagate_to_fixpoint(figure1_graph, examples, max_length=2)
        # sinks (C1, C2, R1, R2) and N3 (all words covered by N6 at bound 2)
        assert "N3" in result.implied_negative
        assert "C1" in result.implied_negative
        assert examples.label_of("N3") is False

    def test_implied_positive_propagated(self, figure1_graph):
        examples = ExampleSet()
        examples.add_positive("N6", validated_word=("cinema",))
        result = propagate_to_fixpoint(figure1_graph, examples, max_length=3)
        assert "N4" in result.implied_positive
        assert examples.label_of("N4") is True

    def test_propagated_labels_do_not_count_as_interactions(self, figure1_graph):
        examples = ExampleSet()
        examples.add_positive("N6", validated_word=("cinema",))
        propagate_to_fixpoint(figure1_graph, examples, max_length=3)
        assert examples.interaction_count() == 1

    def test_idempotent(self, figure1_graph):
        examples = ExampleSet()
        examples.add_negative("N6")
        propagate_to_fixpoint(figure1_graph, examples, max_length=2)
        second = propagate_to_fixpoint(figure1_graph, examples, max_length=2)
        assert second.total == 0

    def test_no_examples_prunes_only_sinks(self, figure1_graph):
        examples = ExampleSet()
        result = propagate_to_fixpoint(figure1_graph, examples, max_length=3)
        assert result.implied_positive == frozenset()
        assert result.implied_negative == {"C1", "C2", "R1", "R2"}

    def test_total_counts_both_signs(self, figure1_graph):
        examples = ExampleSet()
        examples.add_positive("N6", validated_word=("cinema",))
        examples.add_negative("N5")
        result = propagate_to_fixpoint(figure1_graph, examples, max_length=3)
        assert result.total == len(result.implied_positive) + len(result.implied_negative)
        assert result.total > 0


class TestPropagateToFixpoint:
    def test_reaches_fixpoint(self, figure1_graph):
        examples = ExampleSet()
        examples.add_negative("N6")
        first = propagate_to_fixpoint(figure1_graph, examples, max_length=2)
        assert first.implied_positive == frozenset()
        assert first.implied_negative == {"N3", "N4", "N5", "C1", "C2", "R1", "R2"}
        # one pass is the fixpoint: a second pass adds nothing
        assert propagate_to_fixpoint(figure1_graph, examples, max_length=2).total == 0

    def test_cascading_negatives(self, small_transit_graph):
        # adding one negative may cover another node's whole language, which
        # in turn covers more; the fixpoint must be stable and consistent
        examples = ExampleSet()
        some_node = sorted(small_transit_graph.nodes(), key=str)[0]
        examples.add_negative(some_node)
        propagate_to_fixpoint(small_transit_graph, examples, max_length=2)
        # no node may be both positive and negative
        assert not (examples.positive_nodes & examples.negative_nodes)

    def test_labels_in_node_table_order(self, figure1_graph):
        examples = ExampleSet()
        examples.add_negative("N6")
        before = len(examples.history)
        propagate_to_fixpoint(figure1_graph, examples, max_length=2)
        added = [example.node for example in examples.history[before:]]
        table = list(figure1_graph.nodes())
        assert added == sorted(added, key=table.index)
