"""Unit tests for the canonical-form cache (minimize + dfa_to_regex)."""

from repro.automata.canonical import (
    CanonicalFormCache,
    canonical_form,
    shared_canonical_cache,
    structural_fingerprint,
)
from repro.automata.determinize import regex_to_dfa
from repro.automata.dfa import DFA
from repro.automata.equivalence import equivalent
from repro.automata.minimize import is_minimal, minimize
from repro.query.rpq import PathQuery


def _chain_dfa(labels, state_names=None):
    """A DFA accepting exactly the word ``labels`` with custom state names."""
    names = state_names or list(range(len(labels) + 1))
    dfa = DFA(names[0])
    for name in names[1:]:
        dfa.add_state(name)
    for position, label in enumerate(labels):
        dfa.add_transition(names[position], label, names[position + 1])
    dfa.set_accepting(names[-1])
    return dfa


class TestStructuralFingerprint:
    def test_isomorphic_dfas_share_fingerprint(self):
        first = _chain_dfa(["a", "b"])
        second = _chain_dfa(["a", "b"], state_names=["x", "y", "z"])
        assert structural_fingerprint(first) == structural_fingerprint(second)

    def test_different_languages_differ(self):
        assert structural_fingerprint(_chain_dfa(["a", "b"])) != structural_fingerprint(
            _chain_dfa(["a", "c"])
        )

    def test_unreachable_states_do_not_matter(self):
        # unreachable states never influence the minimal form, so they do
        # not key extra cache entries (the declared alphabet does matter,
        # because minimize preserves it, so the junk reuses label "a")
        with_junk = _chain_dfa(["a"])
        with_junk.add_state("junk")
        with_junk.add_transition("junk", "a", "junk")
        assert structural_fingerprint(with_junk) == structural_fingerprint(_chain_dfa(["a"]))

    def test_new_alphabet_symbols_key_a_fresh_entry(self):
        # minimize preserves the declared alphabet, so a DFA declaring an
        # extra symbol genuinely has a different canonical form
        wider = _chain_dfa(["a"])
        wider.declare_alphabet(["z"])
        assert structural_fingerprint(wider) != structural_fingerprint(_chain_dfa(["a"]))

    def test_accepting_set_matters(self):
        accepting_mid = _chain_dfa(["a", "b"])
        accepting_mid.set_accepting(1)
        assert structural_fingerprint(accepting_mid) != structural_fingerprint(
            _chain_dfa(["a", "b"])
        )


class TestCanonicalFormCache:
    def test_result_is_minimal_and_equivalent(self):
        cache = CanonicalFormCache()
        dfa = regex_to_dfa("(a + b)* . c")
        minimal, expression = cache.canonical_form(dfa)
        assert is_minimal(minimal)
        assert equivalent(minimal, dfa)
        assert equivalent(regex_to_dfa(expression), dfa)

    def test_second_lookup_is_a_hit(self):
        cache = CanonicalFormCache()
        dfa = regex_to_dfa("a . b*")
        first = cache.canonical_form(dfa)
        second = cache.canonical_form(dfa.copy())  # isomorphic copy
        assert second == first
        assert cache.stats() == {"hits": 1, "misses": 1, "size": 1}

    def test_isomorphic_inputs_share_one_entry(self):
        cache = CanonicalFormCache()
        cache.canonical_form(_chain_dfa(["a", "b"]))
        cache.canonical_form(_chain_dfa(["a", "b"], state_names=["x", "y", "z"]))
        assert cache.stats()["size"] == 1
        assert cache.stats()["hits"] == 1

    def test_lru_eviction_keeps_hot_entries(self, monkeypatch):
        monkeypatch.setattr(CanonicalFormCache, "MAX_ENTRIES", 2)
        cache = CanonicalFormCache()
        hot = regex_to_dfa("a")
        cache.canonical_form(hot)
        cache.canonical_form(regex_to_dfa("b"))
        for expression in ("c", "d", "e"):
            cache.canonical_form(hot)  # refresh recency
            cache.canonical_form(regex_to_dfa(expression))
        misses_before = cache.stats()["misses"]
        cache.canonical_form(hot)
        assert cache.stats()["misses"] == misses_before
        assert len(cache) == 2

    def test_mutated_dfa_gets_a_fresh_entry(self):
        cache = CanonicalFormCache()
        dfa = _chain_dfa(["a"])
        minimal_before, _ = cache.canonical_form(dfa)
        dfa.set_accepting(0)  # now also accepts the empty word
        minimal_after, _ = cache.canonical_form(dfa)
        assert not equivalent(minimal_before, minimal_after)
        assert minimal_after.accepts(())


class TestSharedCacheWiring:
    def test_from_dfa_serves_minimal_and_expression_from_cache(self):
        shared = shared_canonical_cache()
        dfa = regex_to_dfa("(a + b)* . c")
        minimal, expression = canonical_form(dfa)
        hits_before = shared.stats()["hits"]
        query = PathQuery.from_dfa(dfa.copy())
        assert shared.stats()["hits"] > hits_before
        assert query.dfa is minimal
        assert query.expression == expression

    def test_from_dfa_roundtrip_language(self):
        dfa = regex_to_dfa("a . (b + c)*")
        query = PathQuery.from_dfa(dfa)
        assert query.same_language("a . (b + c)*")
