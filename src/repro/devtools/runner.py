"""File walking, rule dispatch and report rendering for ``repro lint``.

Two passes share one parse per file:

* **syntactic**, per file: scan suppression pragmas → run every
  enabled rule family → drop allowlisted diagnostics;
* **semantic**, per tree: extract a module summary per file from the
  same syntax tree, link them into a project model, run the
  interprocedural rules (REP110/REP310/REP40x/REP70x).

Suppressions are applied *after* both passes, per file, so one pragma
accounting covers syntactic and semantic findings alike (a waiver that
only matches a semantic finding is used, not stale).  Unparseable files
produce a single ``REP003`` diagnostic instead of crashing the run —
the tier-1 suite is what guards syntax.
"""

from __future__ import annotations

import ast
import dataclasses
import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.devtools.config import LintConfig, project_config
from repro.devtools.diagnostics import (
    PARSE_ERROR,
    Diagnostic,
    Suppression,
    apply_suppressions,
    family_of,
    scan_suppressions,
)
from repro.devtools.registry import FileContext, registered_rules

#: findings under these path prefixes are warnings: reported, never
#: exit-code-failing (the ``--include-tests`` mode)
WARN_ONLY_PREFIXES = ("tests/",)


def lint_source(
    source: str, path: str = "<memory>", config: Optional[LintConfig] = None
) -> List[Diagnostic]:
    """Lint one source string as if it lived at ``path``.

    Both passes run, over a tree holding just this module — the entry
    point the rule tests drive.
    """
    return _lint([(path, source)], config)


def iter_python_files(paths: Sequence["Path | str"]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths`` (files pass through directly).

    Directories named ``fixtures`` are lint *corpora* — deliberately
    violating files the fixture tests lint explicitly (by passing the
    fixture directory itself) — so the recursive walk skips them; a
    ``fixtures`` component already present in the given path is the
    caller opting in.
    """
    for entry in paths:
        entry_path = Path(entry)
        if entry_path.is_dir():
            for found in sorted(entry_path.rglob("*.py")):
                if "__pycache__" in found.parts:
                    continue
                if "fixtures" in found.relative_to(entry_path).parts[:-1]:
                    continue
                yield found
        elif entry_path.suffix == ".py":
            yield entry_path


def lint_paths(
    paths: Sequence["Path | str"],
    config: Optional[LintConfig] = None,
    root: Optional["Path | str"] = None,
) -> List[Diagnostic]:
    """Lint every Python file under ``paths`` (both passes).

    Diagnostics carry repo-root-relative posix paths (``root`` defaults
    to the working directory) so allowlist patterns written as
    ``src/repro/...`` match regardless of how the target was spelled.
    """
    base = (Path(root) if root is not None else Path.cwd()).resolve()

    def sources() -> Iterator[Tuple[str, str]]:
        for file_path in iter_python_files(paths):
            try:
                relative = file_path.resolve().relative_to(base).as_posix()
            except ValueError:
                relative = file_path.as_posix()
            yield relative, file_path.read_text()

    return _lint(sources(), config)


def _lint(
    sources: Iterable[Tuple[str, str]], config: Optional[LintConfig]
) -> List[Diagnostic]:
    """Both passes over ``(relpath, source)`` pairs, suppressions applied."""
    from repro.devtools.semantic import ModuleSummary, extract_module, semantic_pass

    if config is None:
        config = project_config()
    per_file: Dict[str, Tuple[List[Suppression], List[Diagnostic], List[Diagnostic]]] = {}
    summaries: Dict[str, ModuleSummary] = {}
    for relative, source in sources:
        try:
            tree = ast.parse(source)
        except SyntaxError as error:
            per_file[relative] = (
                [],
                [
                    Diagnostic(
                        relative,
                        error.lineno or 1,
                        (error.offset or 0) + 1,
                        PARSE_ERROR,
                        f"file does not parse: {error.msg}",
                    )
                ],
                [],
            )
            continue
        ctx = FileContext(path=relative, source=source, tree=tree)
        suppressions, pragma_problems = scan_suppressions(source, relative)
        diagnostics: List[Diagnostic] = []
        for info in registered_rules():
            if not config.enabled(info.family):
                continue
            for diagnostic in info.check(ctx, config):
                if not config.is_allowed(diagnostic):
                    diagnostics.append(diagnostic)
        per_file[relative] = (suppressions, pragma_problems, diagnostics)
        summaries[relative] = extract_module(source, relative, tree=tree)
    for diagnostic in semantic_pass(summaries, config):
        if diagnostic.path in per_file:
            per_file[diagnostic.path][2].append(diagnostic)
    results: List[Diagnostic] = []
    for relative in sorted(per_file):
        suppressions, pragma_problems, diagnostics = per_file[relative]
        kept = apply_suppressions(
            diagnostics, suppressions, relative, enabled=config.enabled
        )
        kept.extend(pragma_problems)
        results.extend(kept)
    return sorted(map(_apply_severity, results), key=Diagnostic.sort_key)


def _apply_severity(diagnostic: Diagnostic) -> Diagnostic:
    """Downgrade findings under the warn-only path prefixes."""
    if diagnostic.severity == "error" and diagnostic.path.startswith(
        WARN_ONLY_PREFIXES
    ):
        return dataclasses.replace(diagnostic, severity="warning")
    return diagnostic


def error_count(diagnostics: Iterable[Diagnostic]) -> int:
    """Diagnostics that gate the exit code (warnings don't)."""
    return sum(1 for diagnostic in diagnostics if diagnostic.severity == "error")


def render_text(diagnostics: Iterable[Diagnostic]) -> str:
    """Human report: one line per diagnostic plus a per-rule summary."""
    listed = list(diagnostics)
    lines = [diagnostic.render() for diagnostic in listed]
    if listed:
        by_rule: dict = {}
        for diagnostic in listed:
            by_rule[diagnostic.rule_id] = by_rule.get(diagnostic.rule_id, 0) + 1
        summary = ", ".join(
            f"{rule_id}: {count}" for rule_id, count in sorted(by_rule.items())
        )
        lines.append(f"-- {len(listed)} diagnostic(s) ({summary})")
    else:
        lines.append("-- clean (0 diagnostics)")
    return "\n".join(lines)


def render_json(diagnostics: Iterable[Diagnostic]) -> str:
    """Machine report (the CI ``LINT_report.json`` artifact).

    Byte-identical across runs over the same tree: every aggregate is
    rebuilt from the sorted diagnostic list and nothing run-dependent
    (timings, absolute paths) is included.
    """
    listed = list(diagnostics)
    by_rule: dict = {}
    by_family: dict = {}
    for diagnostic in listed:
        by_rule[diagnostic.rule_id] = by_rule.get(diagnostic.rule_id, 0) + 1
        family = family_of(diagnostic.rule_id)
        by_family[family] = by_family.get(family, 0) + 1
    return json.dumps(
        {
            "count": len(listed),
            "errors": error_count(listed),
            "warnings": sum(
                1 for diagnostic in listed if diagnostic.severity == "warning"
            ),
            "by_rule": dict(sorted(by_rule.items())),
            "by_family": dict(sorted(by_family.items())),
            "diagnostics": [diagnostic.as_dict() for diagnostic in listed],
        },
        indent=2,
        sort_keys=False,
    )
