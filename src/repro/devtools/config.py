"""Configuration for ``repro lint``: rule selection and allowlists.

:func:`project_config` is the repository's own shipped configuration,
with the (small, justified) allowlist entries for constructs the
heuristic rules cannot verify statically.  ``repro lint`` uses it by
default, so CI and a developer's shell agree on what clean means;
``--select`` narrows the enabled families.  Everything else a rule
needs (name patterns, build-call names, hop budgets) is a module
constant next to the rule that reads it.

Allowlist entries are ``fnmatch`` patterns matched against
``<posix-relpath>::<symbol>``, where the symbol is rule-specific (the
offending call for REP1xx, the imported name for REP2xx, the memo
attribute for REP3xx, …).  Prefer inline suppression comments for
one-off sites — they carry their justification at the point of use;
reserve allowlist entries for whole-construct exemptions where a
per-line pragma would have to be repeated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Dict, Tuple

from repro.devtools.diagnostics import Diagnostic, family_of

#: every implemented rule family, in report order (REP700 is the
#: interprocedural concurrency family of the semantic pass)
ALL_FAMILIES: Tuple[str, ...] = (
    "REP100",
    "REP200",
    "REP300",
    "REP400",
    "REP500",
    "REP600",
    "REP700",
)


@dataclass
class LintConfig:
    """Which rule families run and which findings are allowlisted."""

    #: enabled rule families (ids from :data:`ALL_FAMILIES`)
    select: Tuple[str, ...] = ALL_FAMILIES
    #: family/rule id -> fnmatch patterns against ``path::symbol``
    allow: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def enabled(self, family: str) -> bool:
        """Whether rule ``family`` runs at all."""
        return family in self.select

    def is_allowed(self, diagnostic: Diagnostic) -> bool:
        """Whether ``diagnostic`` is covered by an allowlist entry."""
        token = f"{diagnostic.path}::{diagnostic.symbol}"
        for key in (diagnostic.rule_id, family_of(diagnostic.rule_id)):
            for pattern in self.allow.get(key, ()):
                if fnmatch(token, pattern):
                    return True
        return False


def project_config() -> LintConfig:
    """This repository's shipped lint configuration.

    Every allowlist entry is a whole-construct exemption with its
    soundness argument right here; one-off sites use inline suppression
    pragmas instead (see the README's Invariants section).
    """
    return LintConfig(
        allow={
            # The workspace memo and the engine's expression-plan LRU are
            # the two memos whose keys the checker cannot see through:
            #   * GraphWorkspace._memo keys are built by SessionManager
            #     and always embed workspace.graph_fingerprint(graph)
            #     (pinned by tests/serving/test_manager.py);
            #   * QueryEngine._expression_plans maps expression string ->
            #     compiled plan, and plans are pure functions of the
            #     expression — no graph state, hence nothing to version.
            "REP300": (
                "src/repro/serving/workspace.py::_memo",
                "src/repro/query/engine.py::_expression_plans",
            ),
        }
    )
