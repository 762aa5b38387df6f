"""Unit tests for path selection (step (i)) and the Figure 3(c) prefix tree."""

import pytest

from repro.exceptions import NoConsistentPathError, NodeNotFoundError
from repro.learning.path_selection import (
    candidate_prefix_tree,
    consistent_words_for,
    covered_words,
    select_path,
    validate_word,
)


class TestCoveredWords:
    def test_covered_words_of_n5(self, figure1_graph):
        covered = covered_words(figure1_graph, ["N5"], 2)
        assert ("tram",) in covered
        assert ("restaurant",) in covered
        assert ("tram", "tram") in covered
        assert ("cinema",) not in covered

    def test_union_over_negatives(self, figure1_graph):
        covered = covered_words(figure1_graph, ["N5", "N4"], 1)
        assert ("cinema",) in covered
        assert ("tram",) in covered

    def test_unknown_negative_raises(self, figure1_graph):
        # a negative node absent from the graph used to be skipped
        # silently, shrinking the cover without any signal; the contract
        # now matches words_from and fails loudly
        with pytest.raises(NodeNotFoundError) as excinfo:
            covered_words(figure1_graph, ["ghost"], 2)
        assert excinfo.value.node == "ghost"

    def test_known_negatives_unaffected_by_contract(self, figure1_graph):
        covered = covered_words(figure1_graph, ["N5", "N4"], 2)
        assert ("cinema",) in covered and ("tram",) in covered

    def test_no_negatives(self, figure1_graph):
        assert covered_words(figure1_graph, [], 3) == set()


class TestConsistentWordsFor:
    def test_shortest_first(self, figure1_graph):
        words = consistent_words_for(figure1_graph, "N2", ["N5"], max_length=3)
        lengths = [len(word) for word in words]
        assert lengths == sorted(lengths)
        assert words[0] == ("bus",)

    def test_negative_coverage_filters(self, figure1_graph):
        # with N1 negative, every word N2 can spell through N1 that N1 also
        # spells is banned; bus itself stays because N1 cannot spell 'bus'?
        # N1 spells ('bus',) via N1->N4?  yes — so ('bus',) is covered.
        words = consistent_words_for(figure1_graph, "N2", ["N1"], max_length=3)
        assert ("bus",) not in words
        assert ("bus", "bus", "cinema") in words

    def test_sink_node_with_no_negatives_gets_empty_word(self, figure1_graph):
        assert consistent_words_for(figure1_graph, "C1", [], max_length=3) == [()]

    def test_sink_node_with_negatives_has_nothing(self, figure1_graph):
        assert consistent_words_for(figure1_graph, "C1", ["C2"], max_length=3) == []


class TestSelectPath:
    def test_default_is_shortest(self, figure1_graph):
        assert select_path(figure1_graph, "N2", ["N5"], max_length=3) == ("bus",)

    def test_preferred_length_is_honoured(self, figure1_graph):
        word = select_path(figure1_graph, "N2", ["N5"], max_length=3, preferred_length=3)
        assert len(word) == 3
        assert word == ("bus", "bus", "cinema")

    def test_preferred_length_unavailable_falls_back(self, figure1_graph):
        word = select_path(figure1_graph, "N4", ["N5"], max_length=2, preferred_length=2)
        assert word == ("cinema",)

    def test_no_consistent_path_raises(self, figure1_graph):
        with pytest.raises(NoConsistentPathError):
            select_path(figure1_graph, "N4", ["N6"], max_length=2)

    def test_error_mentions_node_and_bound(self, figure1_graph):
        with pytest.raises(NoConsistentPathError) as excinfo:
            select_path(figure1_graph, "C1", ["C2"], max_length=5)
        assert excinfo.value.node == "C1"
        assert excinfo.value.max_length == 5


class TestCandidatePrefixTree:
    def test_figure3c_tree(self, figure1_graph):
        tree = candidate_prefix_tree(
            figure1_graph, "N2", ["N5"], max_length=3, preferred_length=3
        )
        assert tree.origin == "N2"
        assert tree.contains(("bus", "bus", "cinema"))
        assert tree.contains(("bus", "tram", "cinema"))
        assert tree.highlighted_word() == ("bus", "bus", "cinema")

    def test_covered_words_are_excluded(self, figure1_graph):
        tree = candidate_prefix_tree(figure1_graph, "N2", ["N5"], max_length=3)
        # N5 can spell tram.tram and tram.restaurant, so N2's bus.tram.tram /
        # bus.tram.restaurant stay (they are N2-words, not covered as whole
        # words by N5 — only identical words are covered)
        assert tree.contains(("bus",))

    def test_highlight_defaults_to_shortest_without_preference(self, figure1_graph):
        tree = candidate_prefix_tree(figure1_graph, "N2", ["N5"], max_length=3)
        assert tree.highlighted_word() == ("bus",)

    def test_endpoints_recorded(self, figure1_graph):
        tree = candidate_prefix_tree(figure1_graph, "N2", ["N5"], max_length=2)
        bus_child = tree.root.children["bus"]
        assert set(bus_child.endpoints) == {"N1", "N3"}

    def test_empty_tree_for_covered_node(self, figure1_graph):
        tree = candidate_prefix_tree(figure1_graph, "C1", ["C2"], max_length=3)
        assert tree.words() == []
        assert tree.highlighted_word() is None


class TestValidateWord:
    def test_valid_word(self, figure1_graph):
        assert validate_word(figure1_graph, "N2", ("bus", "bus", "cinema"), ["N5"], max_length=3)

    def test_word_not_spellable(self, figure1_graph):
        assert not validate_word(figure1_graph, "N2", ("tram",), ["N5"], max_length=3)

    def test_word_too_long(self, figure1_graph):
        assert not validate_word(figure1_graph, "N2", ("bus", "bus", "cinema"), ["N5"], max_length=2)

    def test_word_covered_by_negative(self, figure1_graph):
        assert not validate_word(figure1_graph, "N2", ("bus",), ["N1"], max_length=3)

    def test_unknown_negatives_are_ignored(self, figure1_graph):
        # validate_word re-checks caller input, so unlike covered_words it
        # tolerates speculative negative sets (same contract as
        # consistent_words_for)
        assert validate_word(
            figure1_graph, "N2", ("bus", "bus", "cinema"), ["ghost"], max_length=3
        )
        assert not validate_word(figure1_graph, "N2", ("bus",), ["N1", "ghost"], max_length=3)

    def test_empty_word_only_without_a_negative_in_the_graph(self, figure1_graph):
        # every node spells the empty word, so a query accepting it selects N5
        assert not validate_word(figure1_graph, "N2", (), ["N5"], max_length=3)
        assert validate_word(figure1_graph, "N2", (), [], max_length=3)
        assert validate_word(figure1_graph, "N2", (), ["ghost"], max_length=3)
