"""Golden-file tests for the semantic (interprocedural) lint pass.

Each rule family ships a fixture package under ``fixtures/<rule>/`` in
two variants: ``fires/`` (a minimal project exhibiting the bug, split so
no single file shows it) and ``clean/`` (the same shapes with the bug
designed out).  The tests lint each package as its own tree — passing
the fixture directory both as target and as root — and pin the exact
diagnostics, so any behaviour drift in extraction, resolution or the
rules shows up as a golden-file failure here rather than as noise on the
real tree.
"""

from pathlib import Path

from repro.devtools.config import LintConfig
from repro.devtools.runner import lint_paths
from repro.devtools.semantic import build_model, extract_module
from repro.devtools.semantic.callgraph import resolve
from repro.devtools.semantic.extract import module_name_for

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(rule: str, variant: str, family: str):
    """Lint one fixture package as a self-contained tree."""
    target = FIXTURES / rule / variant
    config = LintConfig(select=(family,))
    return lint_paths([target], config=config, root=target)


def rules_of(diagnostics):
    return [diagnostic.rule_id for diagnostic in diagnostics]


# ----------------------------------------------------------------------
# REP701 — lock-order cycles
# ----------------------------------------------------------------------
def test_rep701_fires_on_split_lock_order_cycle():
    diagnostics = lint_fixture("rep701", "fires", "REP700")
    assert rules_of(diagnostics) == ["REP701"]
    (finding,) = diagnostics
    # one diagnostic per strongly connected component, naming every label
    assert finding.symbol == "_index_lock->_store_lock"
    assert "_index_lock" in finding.message and "_store_lock" in finding.message
    # the witness anchors at a real acquisition/call site in the cycle
    assert finding.path == "registry.py"
    assert finding.severity == "error"


def test_rep701_silent_on_consistent_lock_order():
    assert lint_fixture("rep701", "clean", "REP700") == []


# ----------------------------------------------------------------------
# REP702 — registry lock held across a build, transitively
# ----------------------------------------------------------------------
def test_rep702_fires_on_build_one_call_away():
    diagnostics = lint_fixture("rep702", "fires", "REP700")
    assert rules_of(diagnostics) == ["REP702"]
    (finding,) = diagnostics
    # anchored at the helper call under the lock, not inside the helper
    assert finding.path == "workspace.py"
    assert finding.symbol == "_build"
    assert "_lock is held across a call to _build()" in finding.message
    assert "LanguageIndex" in finding.message


def test_rep702_silent_on_double_checked_build():
    assert lint_fixture("rep702", "clean", "REP700") == []


# ----------------------------------------------------------------------
# REP703 — await / event-loop bridge under a threading lock
# ----------------------------------------------------------------------
def test_rep703_fires_on_await_and_bridge_under_lock():
    diagnostics = lint_fixture("rep703", "fires", "REP700")
    assert rules_of(diagnostics) == ["REP703", "REP703"]
    awaited, bridged = diagnostics
    assert awaited.symbol == "_state_lock"
    assert "await while holding threading lock(s) _state_lock" in awaited.message
    assert bridged.symbol == "run_until_complete"
    assert "drives the event loop" in bridged.message


def test_rep703_silent_when_await_precedes_lock():
    assert lint_fixture("rep703", "clean", "REP700") == []


# ----------------------------------------------------------------------
# REP110 — interprocedural entropy taint
# ----------------------------------------------------------------------
def test_rep110_fires_on_cross_function_and_cross_module_taint():
    diagnostics = lint_fixture("rep110", "fires", "REP100")
    assert rules_of(diagnostics) == ["REP110", "REP110"]
    memo, row = diagnostics
    # time.time() one hop away, keyed into the memo
    assert memo.path == "pipeline.py"
    assert memo.symbol == "_entries"
    assert "carries entropy (1 hop(s)) into memo-key '_entries'" in memo.message
    # perf_counter passed across a module boundary into a result row
    assert row.path == "pipeline.py"
    assert row.symbol == "publish"
    assert "reaches result-row 'store'" in row.message


def test_rep110_silent_on_version_keyed_variant():
    assert lint_fixture("rep110", "clean", "REP100") == []


# ----------------------------------------------------------------------
# REP310 — invalidation wiring
# ----------------------------------------------------------------------
def test_rep310_fires_on_unregistered_and_undriven_hooks():
    diagnostics = lint_fixture("rep310", "fires", "REP300")
    assert rules_of(diagnostics) == ["REP310", "REP310"]
    undriven, unregistered = sorted(diagnostics, key=lambda d: d.path)
    assert undriven.path == "index.py"
    assert undriven.symbol == "LabelIndex"
    assert "is not reachable from" in undriven.message
    assert unregistered.path == "orphan.py"
    assert unregistered.symbol == "OrphanCache"
    assert "not a key of WORKSPACE_HOOKS" in unregistered.message


def test_rep310_silent_when_refresh_constructs_the_hook_class():
    assert lint_fixture("rep310", "clean", "REP300") == []


def test_rep310_stands_down_without_registry_or_roots():
    # a partial tree (no WORKSPACE_HOOKS literal, no GraphWorkspace)
    # must not produce phantom wiring findings
    source = (
        "class LoneCache:\n"
        "    __workspace_hook__ = 'graph.lone'\n"
        "\n"
        "    def __init__(self, graph):\n"
        "        self.version = graph.version\n"
    )
    summary = extract_module(source, "lone.py")
    from repro.devtools.semantic import semantic_pass

    config = LintConfig(select=("REP300",))
    assert semantic_pass({"lone.py": summary}, config) == []


# ----------------------------------------------------------------------
# extraction / resolution unit coverage
# ----------------------------------------------------------------------
def test_module_name_for_strips_src_and_init():
    assert module_name_for("src/repro/serving/workspace.py") == "repro.serving.workspace"
    assert module_name_for("src/repro/graph/__init__.py") == "repro.graph"
    assert module_name_for("benchmarks/bench_engine.py") == "benchmarks.bench_engine"
    assert module_name_for("registry.py") == "registry"


def test_lock_alias_tracking_and_constructor_exclusion():
    source = (
        "import threading\n"
        "\n"
        "class Holder:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "\n"
        "    def locked(self):\n"
        "        guard = self._lock\n"
        "        with guard:\n"
        "            return 1\n"
    )
    summary = extract_module(source, "holder.py")
    functions = {f.name: f for f in summary.functions}
    # the alias resolves back to the attribute's label ...
    assert [event.name for event in functions["locked"].acquisitions] == ["_lock"]
    # ... and the constructor call in __init__ is not itself a label
    assert functions["__init__"].acquisitions == ()


def test_resolution_is_conservative_on_common_method_names():
    a = extract_module("def caller(items):\n    items.append(1)\n", "a.py")
    b = extract_module(
        "class Log:\n    def append(self, item):\n        self.item = item\n",
        "b.py",
    )
    model = build_model({"a.py": a, "b.py": b})
    caller = model.functions["a::caller"]
    (call,) = caller.calls
    # .append on an opaque receiver must not link to Log.append
    assert resolve(model, caller, call.ref) == ()


def test_every_def_and_the_module_body_get_one_summary():
    source = (
        "def outer():\n"
        "    def inner():\n"
        "        return 1\n"
        "    return inner()\n"
        "\n"
        "class Box:\n"
        "    class Inner:\n"
        "        def get(self):\n"
        "            return 2\n"
        "\n"
        "outer()\n"
    )
    summary = extract_module(source, "mod.py")
    assert sorted(f.qualname for f in summary.functions) == [
        "mod::<module>",
        "mod::Box.Inner.get",
        "mod::outer",
        "mod::outer.<locals>.inner",
    ]
    model = build_model({"mod.py": summary})
    # nested defs are checked but never a call target ...
    outer = model.functions["mod::outer"]
    (call,) = outer.calls
    assert resolve(model, outer, call.ref) == ()
    # ... while module-level statements call into the module as usual
    module = model.functions["mod::<module>"]
    (call,) = module.calls
    assert resolve(model, module, call.ref) == ("mod::outer",)
