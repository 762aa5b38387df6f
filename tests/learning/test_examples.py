"""Unit tests for example sets."""

import pytest

from repro.exceptions import InconsistentExamplesError
from repro.interactive.oracle import SimulatedUser
from repro.interactive.session import InteractiveSession
from repro.learning.examples import ExampleSet, LabeledExample
from repro.serving.workspace import GraphWorkspace


class TestLabeling:
    def test_add_positive_and_negative(self):
        examples = ExampleSet()
        examples.add_positive("N2")
        examples.add_negative("N5")
        assert examples.positive_nodes == {"N2"}
        assert examples.negative_nodes == {"N5"}
        assert examples.labeled_nodes == {"N2", "N5"}

    def test_label_of(self):
        examples = ExampleSet()
        examples.add_positive("a")
        examples.add_negative("b")
        assert examples.label_of("a") is True
        assert examples.label_of("b") is False
        assert examples.label_of("c") is None

    def test_conflicting_labels_raise(self):
        examples = ExampleSet()
        examples.add_positive("a")
        with pytest.raises(InconsistentExamplesError):
            examples.add_negative("a")
        examples.add_negative("b")
        with pytest.raises(InconsistentExamplesError):
            examples.add_positive("b")

    def test_relabel_same_sign_is_allowed(self):
        examples = ExampleSet()
        examples.add_positive("a", validated_word=("x",))
        examples.add_positive("a")
        assert examples.validated_word("a") == ("x",)  # kept

    def test_is_empty(self):
        examples = ExampleSet()
        assert examples.is_empty()
        examples.add_negative("a")
        assert not examples.is_empty()


class TestValidatedWords:
    def test_validated_word_recorded(self):
        examples = ExampleSet()
        examples.add_positive("N2", validated_word=["bus", "bus", "cinema"])
        assert examples.validated_word("N2") == ("bus", "bus", "cinema")
        assert examples.validated_words() == {"N2": ("bus", "bus", "cinema")}

    def test_validated_word_absent_by_default(self):
        examples = ExampleSet()
        examples.add_positive("N2")
        assert examples.validated_word("N2") is None
        assert examples.validated_words() == {}

    def test_set_validated_word_later(self):
        # re-adding a positive with a word is how a word is validated later
        examples = ExampleSet()
        examples.add_positive("N2")
        examples.add_positive("N2", validated_word=("cinema",))
        assert examples.validated_word("N2") == ("cinema",)
        assert examples.interaction_count() == 2

    def test_set_validated_word_for_non_positive_raises(self):
        examples = ExampleSet()
        examples.add_negative("N5")
        examples.add_negative("N3", propagated=True)
        for node in ("N5", "N3"):
            with pytest.raises(InconsistentExamplesError):
                examples.add_positive(node, validated_word=("bus",))
        assert examples.validated_words() == {}
        assert examples.positive_nodes == frozenset()

    def test_replacing_validated_word(self):
        examples = ExampleSet()
        examples.add_positive("N2", validated_word=("bus",))
        examples.add_positive("N2", validated_word=("bus", "cinema"))
        assert examples.validated_word("N2") == ("bus", "cinema")


class TestPropagationAndHistory:
    def test_propagated_labels_excluded_from_user_counts(self):
        examples = ExampleSet()
        examples.add_positive("a")
        examples.add_negative("b", propagated=True)
        examples.add_positive("c", propagated=True)
        assert examples.interaction_count() == 1
        assert examples.user_positive_nodes == {"a"}
        assert examples.user_negative_nodes == frozenset()
        assert examples.positive_nodes == {"a", "c"}
        assert examples.negative_nodes == {"b"}

    def test_user_label_clears_propagated_flag_of_either_sign(self):
        # a user label on a node whose label was propagated makes it a user
        # label, so the user counts agree with interaction_count()
        examples = ExampleSet()
        examples.add_negative("a", propagated=True)
        examples.add_negative("a")
        examples.add_positive("b", propagated=True)
        examples.add_positive("b")
        assert examples.interaction_count() == 2
        assert examples.user_negative_nodes == {"a"}
        assert examples.user_positive_nodes == {"b"}

    def test_propagated_label_keeps_the_users_flag_of_the_same_sign(self):
        # a propagated label on a node the user already gave that sign leaves
        # it a user label, so the user counts agree with interaction_count()
        examples = ExampleSet()
        examples.add_negative("a")
        examples.add_negative("a", propagated=True)
        examples.add_positive("b", validated_word=("x",))
        examples.add_positive("b", propagated=True)
        assert examples.interaction_count() == 2
        assert examples.user_negative_nodes == {"a"}
        assert examples.user_positive_nodes == {"b"}
        assert examples.validated_word("b") == ("x",)

    def test_history_order_and_signs(self):
        examples = ExampleSet()
        examples.add_positive("a")
        examples.add_negative("b")
        history = examples.history
        assert [example.node for example in history] == ["a", "b"]
        assert [example.sign for example in history] == ["+", "-"]
        assert isinstance(history[0], LabeledExample)

    def test_copy_is_independent(self):
        examples = ExampleSet()
        examples.add_positive("a")
        clone = examples.copy()
        clone.add_negative("b")
        assert "b" not in examples.negative_nodes
        assert "b" in clone.negative_nodes
        assert clone.positive_nodes == {"a"}

    def test_repr_mentions_counts(self):
        examples = ExampleSet()
        examples.add_positive("a")
        assert "+1" in repr(examples)


class TestHistoryCursor:
    """The history is the only cursor an incremental consumer keeps."""

    def test_every_mutation_is_journaled(self):
        examples = ExampleSet()
        examples.add_positive("a")
        examples.add_negative("b", propagated=True)
        examples.add_positive("c", validated_word=("x",), propagated=True)
        assert examples.events_since(0) == [
            LabeledExample("a", True),
            LabeledExample("b", False, propagated=True),
            LabeledExample("c", True, ("x",), propagated=True),
        ]

    def test_events_since_reads_only_the_new_labels(self):
        examples = ExampleSet()
        examples.add_positive("a")
        examples.add_negative("b")
        assert [example.node for example in examples.events_since(1)] == ["b"]
        assert examples.events_since(2) == []

    def test_replaced_word_is_journaled(self):
        # a cursor sees the replacement as an event carrying the new word
        examples = ExampleSet()
        examples.add_positive("a", validated_word=("x",))
        examples.add_positive("a", validated_word=("y",))
        assert [example.validated_word for example in examples.events_since(1)] == [("y",)]

    def test_rejected_label_is_not_journaled(self):
        examples = ExampleSet()
        examples.add_positive("a")
        examples.add_negative("b")
        with pytest.raises(InconsistentExamplesError):
            examples.add_negative("a")
        with pytest.raises(InconsistentExamplesError):
            examples.add_positive("b", validated_word=("x",))
        assert examples.events_since(2) == []

    def test_copy_keeps_the_history(self):
        # a position taken on the original reads the same labels on the copy
        examples = ExampleSet()
        examples.add_positive("a")
        clone = examples.copy()
        clone.add_negative("b")
        assert clone.events_since(0)[:1] == examples.events_since(0)
        assert [example.node for example in clone.events_since(1)] == ["b"]
        assert examples.events_since(1) == []

    def test_length_counts_the_history(self):
        examples = ExampleSet()
        assert len(examples) == 0
        examples.add_positive("a", validated_word=("x",))
        examples.add_negative("b", propagated=True)
        examples.add_positive("a", validated_word=("y",))
        assert len(examples) == len(examples.history) == 3

    def test_a_pass_reads_back_one_label_per_node(self):
        examples = ExampleSet()
        examples.add_positive("a", validated_word=("x",))
        examples.add_propagated(["c", "b", "d"], {"b"})
        pass_labels = [
            LabeledExample("c", False, propagated=True),
            LabeledExample("b", True, propagated=True),
            LabeledExample("d", False, propagated=True),
        ]
        assert len(examples) == 4
        assert examples.history == (LabeledExample("a", True, ("x",)), *pass_labels)
        # a position inside the pass reads the rest of it
        assert examples.events_since(2) == pass_labels[1:]
        assert examples.labels_since(2) == (["b"], ["d"])
        assert examples.labels_since(0) == (["a", "b"], ["c", "d"])
        assert examples.events_since(4) == [] and examples.labels_since(4) == ([], [])
        assert examples.positive_nodes == {"a", "b"}
        assert examples.negative_nodes == {"c", "d"}
        assert examples.user_positive_nodes == {"a"}
        assert examples.user_negative_nodes == frozenset()
        assert examples.interaction_count() == 1

    def test_a_pass_with_a_labelled_node_changes_nothing(self):
        examples = ExampleSet()
        examples.add_negative("a")
        examples.add_propagated(["b"], ())
        for labelled in ("a", "b"):
            with pytest.raises(InconsistentExamplesError) as raised:
                examples.add_propagated(["c", labelled, "d"], {"d"})
            assert raised.value.conflicting == (labelled,)
        with pytest.raises(ValueError):
            examples.add_propagated(["c"], {"d"})
        assert examples.history == (LabeledExample("a", False), LabeledExample("b", False, propagated=True))
        assert examples.labeled_nodes == {"a", "b"}

    def test_an_empty_pass_journals_nothing(self):
        examples = ExampleSet()
        examples.add_propagated([], ())
        assert len(examples) == 0 and examples.history == ()

    def test_a_session_never_copies_the_history(self, figure1_graph, monkeypatch):
        # the learner and the classifier take the cursor position from len()
        def copied(self):
            raise AssertionError("the history was copied")

        monkeypatch.setattr(ExampleSet, "history", property(copied))
        workspace = GraphWorkspace()
        user = SimulatedUser(figure1_graph, "(tram + bus)* . cinema", workspace=workspace)
        result = InteractiveSession(figure1_graph, user, workspace=workspace).run()
        assert result.interactions > 1
        assert result.halted_by == "no-informative-node"
