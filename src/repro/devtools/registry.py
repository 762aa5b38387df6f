"""The rule-plugin registry behind ``repro lint``.

A rule family is one function ``(FileContext, LintConfig) ->
Iterable[Diagnostic]`` registered under its family id with the
:func:`rule` decorator.  The runner looks families up here, so adding a
family is: write the module under :mod:`repro.devtools.rules`, decorate
the entry point, import the module from ``rules/__init__``.  Nothing
else changes — the CLI, suppression handling, allowlists and output
formats are family-agnostic.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Tuple

from repro.devtools.config import LintConfig
from repro.devtools.diagnostics import Diagnostic


@dataclass
class FileContext:
    """Everything a rule may inspect about one source file."""

    path: str  # posix relpath used in diagnostics and allowlists
    source: str
    tree: ast.Module


RuleFunc = Callable[[FileContext, LintConfig], Iterable[Diagnostic]]


@dataclass(frozen=True)
class RuleInfo:
    """Registry record: the entry point plus report metadata."""

    family: str
    title: str
    check: RuleFunc


RULES: Dict[str, RuleInfo] = {}


def rule(family: str, title: str) -> Callable[[RuleFunc], RuleFunc]:
    """Register ``fn`` as the checker of rule ``family``."""

    def decorator(fn: RuleFunc) -> RuleFunc:
        if family in RULES:
            raise ValueError(f"rule family {family} registered twice")
        RULES[family] = RuleInfo(family, title, fn)
        return fn

    return decorator


def registered_rules() -> Tuple[RuleInfo, ...]:
    """Every registered family, in family-id order (import side effect:
    loading :mod:`repro.devtools.rules` populates the registry)."""
    from repro.devtools import rules  # noqa: F401  -- registration import

    return tuple(RULES[family] for family in sorted(RULES))


# ----------------------------------------------------------------------
# semantic (whole-program) rules
# ----------------------------------------------------------------------
# A semantic rule sees the linked ProjectModel instead of one file:
# ``(ProjectModel, LintConfig) -> Iterable[Diagnostic]``, registered
# per rule id (not per family — the interprocedural checks are distinct
# algorithms, unlike the syntactic families' shared single walk).

SemanticRuleFunc = Callable[[object, LintConfig], Iterable[Diagnostic]]


@dataclass(frozen=True)
class SemanticRuleInfo:
    """Registry record for one whole-program rule."""

    rule_id: str
    family: str
    title: str
    check: SemanticRuleFunc


SEMANTIC_RULES: Dict[str, SemanticRuleInfo] = {}


def semantic_rule(
    rule_id: str, family: str, title: str
) -> Callable[[SemanticRuleFunc], SemanticRuleFunc]:
    """Register ``fn`` as the checker of semantic rule ``rule_id``."""

    def decorator(fn: SemanticRuleFunc) -> SemanticRuleFunc:
        if rule_id in SEMANTIC_RULES:
            raise ValueError(f"semantic rule {rule_id} registered twice")
        SEMANTIC_RULES[rule_id] = SemanticRuleInfo(rule_id, family, title, fn)
        return fn

    return decorator


def registered_semantic_rules() -> Tuple[SemanticRuleInfo, ...]:
    """Every registered semantic rule, in rule-id order (importing the
    rule modules populates the registry)."""
    from repro.devtools.semantic import (  # noqa: F401  -- registration imports
        rules_concurrency,
        rules_invalidation,
        rules_taint,
    )

    return tuple(SEMANTIC_RULES[rule_id] for rule_id in sorted(SEMANTIC_RULES))
