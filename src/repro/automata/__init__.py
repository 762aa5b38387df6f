"""Finite automata: NFA/DFA, constructions, minimisation, learning primitives."""

from repro.automata.nfa import EPSILON, NFA
from repro.automata.dfa import DFA, SINK
from repro.automata.thompson import regex_to_nfa
from repro.automata.determinize import nfa_to_dfa, regex_to_dfa
from repro.automata.minimize import is_minimal, minimize
from repro.automata.operations import (
    concat_nfa,
    dfa_to_nfa,
    difference_dfa,
    intersect_dfa,
    intersects,
    symmetric_difference_dfa,
    union_dfa,
    union_nfa,
)
from repro.automata.equivalence import (
    counterexample,
    equivalent,
    included,
    inclusion_counterexample,
)
from repro.automata.prefix_tree import (
    PathPrefixTree,
    PathTreeNode,
    PrefixTreeAcceptor,
    build_path_prefix_tree,
    build_pta,
)
from repro.automata.state_merging import QuotientView, generalize_pta, rpni
from repro.automata.regex_synthesis import dfa_to_regex, dfa_to_regex_string
from repro.automata.canonical import (
    CanonicalFormCache,
    canonical_form,
    shared_canonical_cache,
    structural_fingerprint,
)
from repro.automata import membership
from repro.automata import visualization

__all__ = [
    "EPSILON",
    "NFA",
    "DFA",
    "SINK",
    "regex_to_nfa",
    "nfa_to_dfa",
    "regex_to_dfa",
    "is_minimal",
    "minimize",
    "concat_nfa",
    "dfa_to_nfa",
    "difference_dfa",
    "intersect_dfa",
    "intersects",
    "symmetric_difference_dfa",
    "union_dfa",
    "union_nfa",
    "counterexample",
    "equivalent",
    "included",
    "inclusion_counterexample",
    "PathPrefixTree",
    "PathTreeNode",
    "PrefixTreeAcceptor",
    "build_path_prefix_tree",
    "build_pta",
    "QuotientView",
    "generalize_pta",
    "rpni",
    "dfa_to_regex",
    "dfa_to_regex_string",
    "CanonicalFormCache",
    "canonical_form",
    "shared_canonical_cache",
    "structural_fingerprint",
    "membership",
    "visualization",
]
