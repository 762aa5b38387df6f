"""Project-wide semantic analysis behind ``repro lint``.

Layering (see each module's docstring for the contract):

* :mod:`~repro.devtools.semantic.model` — frozen summary dataclasses;
* :mod:`~repro.devtools.semantic.extract` — pure per-module extraction;
* :mod:`~repro.devtools.semantic.callgraph` — linking, resolution and
  the transitive closures over the call graph;
* ``rules_concurrency`` / ``rules_taint`` / ``rules_invalidation`` —
  the REP400 / REP700 / REP110 / REP310 rules over the linked model.

:func:`semantic_pass` is the runner's entry point: summaries in,
allowlist-filtered diagnostics out.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.devtools.config import LintConfig, project_config
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.registry import registered_semantic_rules
from repro.devtools.semantic.callgraph import build_model
from repro.devtools.semantic.extract import extract_module
from repro.devtools.semantic.model import ModuleSummary, ProjectModel

__all__ = [
    "ModuleSummary",
    "ProjectModel",
    "build_model",
    "extract_module",
    "semantic_pass",
]


def semantic_pass(
    summaries: Dict[str, ModuleSummary],
    config: Optional[LintConfig] = None,
) -> List[Diagnostic]:
    """Run every enabled semantic rule over the linked project model.

    Allowlist filtering happens here (same policy as the syntactic
    path); suppression pragmas are applied later by the runner, per
    file, so one accounting covers both passes.
    """
    if config is None:
        config = project_config()
    model = build_model(summaries)
    diagnostics: List[Diagnostic] = []
    for info in registered_semantic_rules():
        if not config.enabled(info.family):
            continue
        for diagnostic in info.check(model, config):
            if not config.is_allowed(diagnostic):
                diagnostics.append(diagnostic)
    return diagnostics
