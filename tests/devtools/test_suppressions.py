"""Suppression grammar, hygiene meta-rules, config and runner plumbing."""

import json
import textwrap

from repro.devtools import (
    Diagnostic,
    LintConfig,
    Suppression,
    family_of,
    lint_paths,
    lint_source,
    project_config,
    render_json,
    render_text,
    scan_suppressions,
)


def lint(source, path="src/repro/example.py", config=None):
    return lint_source(textwrap.dedent(source), path=path, config=config)


class TestSuppressionGrammar:
    def test_trailing_pragma_with_justification_suppresses_cleanly(self):
        diagnostics = lint(
            """
            def fingerprint(word):
                return hash(word)  # repro-lint: disable=REP103 -- in-memory key, never persisted
            """
        )
        assert diagnostics == []

    def test_comment_only_line_applies_to_next_line(self):
        diagnostics = lint(
            """
            def fingerprint(word):
                # repro-lint: disable=REP103 -- in-memory key, never persisted
                return hash(word)
            """
        )
        assert diagnostics == []

    def test_family_code_suppresses_member_rule(self):
        diagnostics = lint(
            """
            def fingerprint(word):
                return hash(word)  # repro-lint: disable=REP100 -- family-wide waiver for this line
            """
        )
        assert diagnostics == []

    def test_disable_file_scopes_to_whole_file(self):
        diagnostics = lint(
            """
            # repro-lint: disable-file=REP103 -- fixture corpus, salted hashes are the point
            def first(word):
                return hash(word)

            def second(word):
                return hash(word)
            """
        )
        assert diagnostics == []

    def test_undocumented_suppression_still_suppresses_but_reports_rep001(self):
        diagnostics = lint(
            """
            def fingerprint(word):
                return hash(word)  # repro-lint: disable=REP103
            """
        )
        assert [d.rule_id for d in diagnostics] == ["REP001"]
        assert "justification" in diagnostics[0].message

    def test_malformed_pragma_reports_rep001(self):
        diagnostics = lint(
            """
            x = 1  # repro-lint: disable REP103
            """
        )
        assert [d.rule_id for d in diagnostics] == ["REP001"]
        assert "malformed" in diagnostics[0].message

    def test_unused_suppression_reports_rep002(self):
        diagnostics = lint(
            """
            def clean():
                return 0  # repro-lint: disable=REP103 -- stale waiver kept by mistake
            """
        )
        assert [d.rule_id for d in diagnostics] == ["REP002"]

    def test_pragma_inside_string_literal_is_ignored(self):
        diagnostics = lint(
            """
            EXAMPLE = "x = 1  # repro-lint: disable=REP103 -- not a real pragma"
            """
        )
        assert diagnostics == []

    def test_scan_parses_codes_and_justification(self):
        suppressions, problems = scan_suppressions(
            "x = 1  # repro-lint: disable=REP101,REP103 -- both waived here\n",
            "src/repro/example.py",
        )
        assert problems == []
        assert len(suppressions) == 1
        assert suppressions[0].codes == ("REP101", "REP103")
        assert suppressions[0].justification == "both waived here"
        assert suppressions[0].target_line == 1

    def test_suppression_matches_by_family(self):
        suppression = Suppression(line=3, target_line=3, codes=("REP100",), justification="x")
        diagnostics = lint(
            """

            x = hash("word")
            """
        )
        assert any(suppression.matches(d) for d in diagnostics)


class TestFamilyOf:
    def test_family_of_strips_sub_rule(self):
        assert family_of("REP104") == "REP100"
        assert family_of("REP301") == "REP300"
        assert family_of("REP100") == "REP100"


def _diagnostic(rule_id, path, symbol):
    return Diagnostic(path, 1, 1, rule_id, "fixture", symbol=symbol)


class TestConfig:
    def test_allowlist_matches_path_and_symbol(self):
        config = LintConfig(allow={"REP301": ("src/repro/a/*.py::_memo",)})
        assert config.is_allowed(_diagnostic("REP301", "src/repro/a/b.py", "_memo"))
        assert not config.is_allowed(_diagnostic("REP301", "src/repro/c.py", "_memo"))
        assert not config.is_allowed(_diagnostic("REP301", "src/repro/a/b.py", "_other"))

    def test_family_allowlist_covers_member_rules(self):
        config = LintConfig(allow={"REP300": ("src/repro/a.py::*",)})
        assert config.is_allowed(_diagnostic("REP301", "src/repro/a.py", "_memo"))


class TestRunner:
    def test_syntax_error_reports_rep003(self):
        diagnostics = lint_source("def broken(:\n", path="src/repro/broken.py")
        assert [d.rule_id for d in diagnostics] == ["REP003"]

    def test_render_text_clean_and_dirty(self):
        assert "clean" in render_text([])
        diagnostics = lint_source("x = hash('a')\n", path="src/repro/x.py")
        text = render_text(diagnostics)
        assert "src/repro/x.py:1:" in text
        assert "REP103" in text

    def test_render_json_shape(self):
        diagnostics = lint_source("x = hash('a')\n", path="src/repro/x.py")
        payload = json.loads(render_json(diagnostics))
        assert payload["count"] == 1
        assert payload["by_rule"] == {"REP103": 1}
        row = payload["diagnostics"][0]
        assert row["rule"] == "REP103"
        assert row["family"] == "REP100"
        assert row["path"] == "src/repro/x.py"

    def test_lint_paths_walks_directories_and_skips_pycache(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "bad.py").write_text("x = hash('a')\n")
        cache = package / "__pycache__"
        cache.mkdir()
        (cache / "ignored.py").write_text("y = hash('b')\n")
        diagnostics = lint_paths([str(package)], root=str(tmp_path))
        assert [d.rule_id for d in diagnostics] == ["REP103"]
        assert diagnostics[0].path == "pkg/bad.py"


class TestProjectInvariant:
    def test_repository_source_is_lint_clean(self):
        """The PR-head invariant CI enforces: zero unsuppressed diagnostics."""
        diagnostics = lint_paths(["src/repro"], config=project_config())
        assert diagnostics == [], "\n".join(d.render() for d in diagnostics)
