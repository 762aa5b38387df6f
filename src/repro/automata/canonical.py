"""Canonical-form cache: memoised ``minimize`` + ``dfa_to_regex``.

The interactive loop re-learns after every user answer, and most answers
leave the hypothesis unchanged: the learner re-derives the same DFA and
— before this cache — re-minimised it and re-synthesised the same regular
expression every interaction.  The query engine already fingerprints
compiled plans; this module applies the same idea one layer down, at the
automaton presentation layer.

:func:`canonical_form` maps a DFA to its ``(minimal DFA, expression)``
pair through a bounded LRU cache keyed by :func:`structural_fingerprint`
— a stable digest of the BFS-relabelled automaton, so two structurally
isomorphic DFAs (however their states are named) share one entry.  The
cached minimal DFA and expression are shared between callers and must be
treated as immutable (every current consumer — :class:`PathQuery
<repro.query.rpq.PathQuery>`, the learner, the engine's plan compiler —
already does).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Tuple

from repro.automata.dfa import DFA, symbol_sort_key
from repro.automata.minimize import minimize
from repro.automata.regex_synthesis import dfa_to_regex
from repro.regex.ast import Regex

__all__ = [
    "structural_fingerprint",
    "canonical_form",
    "CanonicalFormCache",
    "shared_canonical_cache",
]


def structural_fingerprint(dfa: DFA) -> str:
    """Stable digest of ``dfa`` up to state renaming and unreachable junk.

    The automaton is relabelled to canonical BFS integer states (which
    also drops unreachable states — they cannot influence the minimal
    form) and hashed over its transition table, accepting set and
    declared alphabet.  Isomorphic DFAs produce identical fingerprints;
    the converse holds because the BFS relabelling is a canonical form.
    """
    canonical = dfa.relabeled()
    payload = repr(
        (
            canonical.state_count(),
            sorted(
                canonical.transitions(),
                key=lambda arc: (arc[0], symbol_sort_key(arc[1]), arc[2]),
            ),
            sorted(canonical.accepting_states),
            sorted(canonical.alphabet(), key=symbol_sort_key),
        )
    ).encode()
    return hashlib.sha1(payload).hexdigest()


class CanonicalFormCache:
    """Bounded LRU cache of ``fingerprint -> (minimal DFA, expression)``."""

    #: retained canonical forms (least recently used evicted)
    MAX_ENTRIES = 256

    def __init__(self):
        self._entries: "OrderedDict[str, Tuple[DFA, Regex]]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    def canonical_form(self, dfa: DFA) -> Tuple[DFA, Regex]:
        """The ``(minimal DFA, synthesised expression)`` pair of ``dfa``.

        The expression is synthesised from the *minimal* automaton (the
        smallest input state elimination can start from), and both parts
        are memoised per structural fingerprint.
        """
        fingerprint = structural_fingerprint(dfa)
        entry = self._entries.get(fingerprint)
        if entry is not None:
            self._hits += 1
            self._entries.move_to_end(fingerprint)
            return entry
        self._misses += 1
        minimal = minimize(dfa)
        expression = dfa_to_regex(minimal)
        if len(self._entries) >= self.MAX_ENTRIES:
            self._entries.popitem(last=False)
        self._entries[fingerprint] = (minimal, expression)
        return minimal, expression

    def stats(self) -> Dict[str, int]:
        """Cache counters (hits, misses, current size)."""
        return {"hits": self._hits, "misses": self._misses, "size": len(self._entries)}

    def clear(self) -> None:
        """Drop every cached entry (counters are kept)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: process-wide cache behind :func:`canonical_form`
_SHARED_CACHE: CanonicalFormCache = CanonicalFormCache()


def shared_canonical_cache() -> CanonicalFormCache:
    """The process-wide :class:`CanonicalFormCache`."""
    return _SHARED_CACHE


def canonical_form(dfa: DFA) -> Tuple[DFA, Regex]:
    """Memoised ``(minimize(dfa), dfa_to_regex(minimize(dfa)))``."""
    return _SHARED_CACHE.canonical_form(dfa)
