"""Diagnostic records and suppression comments for ``repro lint``.

A diagnostic pins one invariant violation to ``path:line:col`` with a
stable rule id (``REP101``, ``REP203``, …).  Rule ids group into
families by their hundreds digit — ``REP1xx`` is the determinism family
— and both the exact id and the family id are accepted everywhere a
rule can be named (suppressions, allowlists, ``--select``).

Suppressions are source comments::

    value = risky_call()  # repro-lint: disable=REP101 -- seeding the OS entropy escape hatch

* the ``-- justification`` tail is **mandatory**: a suppression without
  one still suppresses its target (so the report stays focused) but is
  itself reported as :data:`SUPPRESSION_UNDOCUMENTED` (``REP001``);
* a comment-only line applies to the next source line, so long
  statements stay under the line-length limit;
* ``disable-file=`` scopes the suppression to the whole file (used for
  generated files or fixture corpora, never for ordinary code).

Suppressions that never match a diagnostic are reported as
:data:`SUPPRESSION_UNUSED` (``REP002``) so stale pragmas cannot
accumulate and silently widen the holes in the net.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: meta-rules emitted by the suppression machinery itself
SUPPRESSION_UNDOCUMENTED = "REP001"
SUPPRESSION_UNUSED = "REP002"
PARSE_ERROR = "REP003"

_PRAGMA = re.compile(r"#\s*repro-lint\s*:\s*(?P<body>.*)$")
_DISABLE = re.compile(
    r"^disable(?P<scope>-file)?\s*=\s*"
    r"(?P<codes>[A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*)"
    r"(?:\s*--\s*(?P<why>.*))?$"
)


def family_of(rule_id: str) -> str:
    """The family id of ``rule_id``: ``REP104`` → ``REP100``."""
    return rule_id[:-2] + "00"


@dataclass(frozen=True)
class Diagnostic:
    """One invariant violation (or suppression-hygiene finding)."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    #: rule-specific token the config allowlist matches against
    #: (a call expression, an attribute name, a function name, …)
    symbol: str = ""
    #: "error" gates the exit code; "warning" (the ``--include-tests``
    #: mode for ``tests/``) reports without failing the run
    severity: str = "error"

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def render(self) -> str:
        """The one-line human rendering: ``path:line:col: RULE message``."""
        tag = " [warn]" if self.severity == "warning" else ""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id}{tag} {self.message}"
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (the ``--format=json`` row)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "family": family_of(self.rule_id),
            "severity": self.severity,
            "message": self.message,
            "symbol": self.symbol,
        }


@dataclass
class Suppression:
    """One parsed ``# repro-lint: disable=…`` pragma."""

    line: int
    target_line: Optional[int]  # ``None``: file scope
    codes: Tuple[str, ...]
    justification: str
    used: bool = field(default=False, compare=False)

    def matches(self, diagnostic: Diagnostic) -> bool:
        if self.target_line is not None and self.target_line != diagnostic.line:
            return False
        return (
            diagnostic.rule_id in self.codes
            or family_of(diagnostic.rule_id) in self.codes
        )


def _comment_tokens(source: str) -> List[Tuple[int, int, str]]:
    """``(line, col, text)`` of every real comment token of ``source``.

    Tokenising (rather than scanning raw lines) keeps pragma text inside
    string literals and docstrings — lint messages, rule documentation,
    fixture snippets — from being parsed as live pragmas.
    """
    comments: List[Tuple[int, int, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.start[1], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # unparseable tails are REP003's problem, not ours
    return comments


def scan_suppressions(
    source: str, path: str
) -> Tuple[List[Suppression], List[Diagnostic]]:
    """Extract every suppression pragma of ``source``.

    Returns the parsed suppressions plus the hygiene diagnostics for
    malformed pragmas and pragmas missing their justification.
    """
    suppressions: List[Suppression] = []
    problems: List[Diagnostic] = []
    if "repro-lint" not in source:
        return suppressions, problems  # no pragma without its marker text
    lines = source.splitlines()
    for lineno, comment_col, text in _comment_tokens(source):
        pragma = _PRAGMA.search(text)
        if pragma is None:
            continue
        col = comment_col + pragma.start() + 1
        parsed = _DISABLE.match(pragma.group("body").strip())
        if parsed is None:
            problems.append(
                Diagnostic(
                    path,
                    lineno,
                    col,
                    SUPPRESSION_UNDOCUMENTED,
                    "malformed repro-lint pragma; expected "
                    "'# repro-lint: disable=REPxxx -- justification'",
                )
            )
            continue
        codes = tuple(
            code.strip() for code in parsed.group("codes").split(",") if code.strip()
        )
        justification = (parsed.group("why") or "").strip()
        preceding = lines[lineno - 1][:comment_col] if lineno <= len(lines) else ""
        if parsed.group("scope"):
            target: Optional[int] = None
        elif preceding.strip():
            target = lineno  # trailing comment: applies to its own line
        else:
            target = lineno + 1  # comment-only line: applies to the next
        suppression = Suppression(lineno, target, codes, justification)
        suppressions.append(suppression)
        if not justification:
            problems.append(
                Diagnostic(
                    path,
                    lineno,
                    col,
                    SUPPRESSION_UNDOCUMENTED,
                    f"suppression of {', '.join(codes)} has no justification; "
                    "append ' -- <why this is sound>'",
                )
            )
    return suppressions, problems


def apply_suppressions(
    diagnostics: List[Diagnostic],
    suppressions: List[Suppression],
    path: str,
    *,
    enabled: Optional[Callable[[str], bool]] = None,
) -> List[Diagnostic]:
    """Drop suppressed diagnostics; report pragmas that suppress nothing.

    ``enabled`` maps a family id to whether its rules ran this pass; a
    pragma whose every code belongs to a disabled family is not "unused"
    — its target rule never had the chance to fire — so ``--select``
    runs don't flag the other families' justified waivers as stale.

    The hygiene diagnostics (``REP001``/``REP002``) are themselves
    suppressible only file-wide — a line-level self-suppression of the
    pragma machinery would be a hole with no witness.
    """
    kept: List[Diagnostic] = []
    for diagnostic in diagnostics:
        matched = False
        for suppression in suppressions:
            if suppression.matches(diagnostic):
                suppression.used = True
                matched = True
        if not matched:
            kept.append(diagnostic)
    for suppression in suppressions:
        if suppression.used:
            continue
        if enabled is not None and not any(
            enabled(family_of(code)) for code in suppression.codes
        ):
            continue
        kept.append(
            Diagnostic(
                path,
                suppression.line,
                1,
                SUPPRESSION_UNUSED,
                f"suppression of {', '.join(suppression.codes)} matched "
                "no diagnostic; delete the stale pragma",
            )
        )
    return kept
