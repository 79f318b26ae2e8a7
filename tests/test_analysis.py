"""Tests for the repro.analysis lint engine: rules, suppressions, CLI.

The known-bad inputs live in ``tests/fixtures/lint/*.py_`` — the
trailing underscore keeps directory discovery (and therefore the CI
``repro-bgp lint src tests`` run) from flagging the fixtures themselves,
while explicit file arguments are linted regardless of extension.
"""

import json
import time
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_PROJECT_RULES,
    MODULE_RULES,
    lint_paths,
    lint_source,
    main,
)

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
REPO_ROOT = Path(__file__).parent.parent


def codes_in(violations):
    return {v.code for v in violations}


def fixture(name: str) -> str:
    return str(FIXTURES / name)


# --------------------------------------------------------------- fixture files
class TestKnownBadFixtures:
    """Every known-bad fixture must be flagged with its rule code."""

    @pytest.mark.parametrize(
        "name, expected_codes",
        [
            ("rng_salted_hash.py_", {"RPR001", "RPR002"}),
            ("nondeterministic_sources.py_", {"RPR002"}),
            ("set_order_leak.py_", {"RPR003"}),
            ("shard_submit_lambda.py_", {"RPR010"}),
            ("worker_global_write.py_", {"RPR011"}),
            ("frozen_setattr.py_", {"RPR020"}),
            ("cached_hash_mutable.py_", {"RPR021"}),
            ("missing_noqa_reason.py_", {"RPR000", "RPR001"}),
            ("resident_unrecorded_mutation.py_", {"RPR030"}),
            ("config_uncaptured_attr.py_", {"RPR031"}),
            ("fork_aliased_state.py_", {"RPR011", "RPR032"}),
        ],
    )
    def test_fixture_flagged(self, name, expected_codes):
        report = lint_paths([fixture(name)])
        assert codes_in(report.violations) == expected_codes

    @pytest.mark.parametrize(
        "name",
        [
            "clean.py_",
            "shard_submit_picklable.py_",
            "resident_recorded_mutation.py_",
            "config_captured_attr.py_",
        ],
    )
    def test_known_good_fixture_is_clean(self, name):
        report = lint_paths([fixture(name)])
        assert report.violations == []

    def test_pr1_hash_salt_regression_fixture(self):
        """The PR 1 DeterministicRng bug shape stays permanently flagged."""
        report = lint_paths([fixture("rng_salted_hash.py_")])
        hash_hits = [v for v in report.violations if v.code == "RPR001"]
        assert len(hash_hits) == 2
        assert all(v.context == f"DeterministicRng.{m}" for v, m in zip(
            sorted(hash_hits, key=lambda v: v.line),
            ("child", "child_from_pair"),
        ))
        clock_hits = [v for v in report.violations if v.code == "RPR002"]
        assert len(clock_hits) == 1
        assert "time.time" in clock_hits[0].message

    def test_picklable_vs_lambda_submit_pair(self):
        """The only delta between the pair is the callable shape — RPR010."""
        bad = lint_paths([fixture("shard_submit_lambda.py_")])
        good = lint_paths([fixture("shard_submit_picklable.py_")])
        assert codes_in(bad.violations) == {"RPR010"}
        assert len(bad.violations) == 2  # one lambda, one closure
        assert good.violations == []


# ------------------------------------------------------------------ rule edges
class TestRuleEdges:
    """Sanctioned idioms must stay clean; violations must be caught inline."""

    def test_hash_allowed_in_dunder_hash(self):
        src = (
            "class Endpoint:\n"
            "    def __hash__(self):\n"
            "        return hash((self.asn, self.port))\n"
        )
        assert codes_in(lint_source(src)) == set()

    def test_hash_of_string_flagged_even_in_dunder_hash(self):
        src = (
            "class Named:\n"
            "    def __hash__(self):\n"
            "        return hash(self.name + ':suffix')\n"
        )
        assert "RPR001" in codes_in(lint_source(src))

    def test_hash_outside_sanctioned_context_flagged(self):
        assert "RPR001" in codes_in(
            lint_source("def key(pair):\n    return hash(pair)\n")
        )

    def test_seeded_random_instance_allowed(self):
        src = "import random\nrng = random.Random(7)\nx = rng.random()\n"
        assert codes_in(lint_source(src)) == set()

    def test_module_level_random_flagged(self):
        src = "import random\n\ndef roll():\n    return random.randint(0, 6)\n"
        assert "RPR002" in codes_in(lint_source(src))

    def test_from_import_random_resolved(self):
        src = "from random import shuffle\n\ndef mix(xs):\n    shuffle(xs)\n"
        assert "RPR002" in codes_in(lint_source(src))

    def test_sorted_set_iteration_clean(self):
        src = (
            "def rows(asns: set[int]) -> list[int]:\n"
            "    return [a for a in sorted(asns)]\n"
        )
        assert codes_in(lint_source(src)) == set()

    def test_order_free_set_consumers_clean(self):
        src = (
            "def total(ws: set[int]) -> int:\n"
            "    return sum(w for w in ws)\n"
            "\n"
            "def dedupe(ws: set[int]) -> set[int]:\n"
            "    return {w * 2 for w in ws}\n"
        )
        assert codes_in(lint_source(src)) == set()

    def test_list_of_inferred_set_flagged(self):
        src = (
            "def leak():\n"
            "    seen = {1, 2, 3}\n"
            "    return list(seen)\n"
        )
        assert "RPR003" in codes_in(lint_source(src))

    def test_submit_of_imported_function_clean(self):
        src = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from repro.routing import shard as shard_module\n"
            "\n"
            "def run(pool, payload):\n"
            "    return pool.submit(shard_module._run_shard, payload)\n"
        )
        assert codes_in(lint_source(src)) == set()

    def test_setattr_allowed_in_post_init_and_helper(self):
        src = (
            "class Frozen:\n"
            "    def __post_init__(self):\n"
            "        object.__setattr__(self, 'x', 1)\n"
            "\n"
            "def set_frozen_field(instance, name, value):\n"
            "    object.__setattr__(instance, name, value)\n"
        )
        assert codes_in(lint_source(src)) == set()

    def test_cached_hash_with_immutable_fields_clean(self):
        src = (
            "from dataclasses import dataclass\n"
            "\n"
            "@dataclass(frozen=True)\n"
            "class P:\n"
            "    network: int\n"
            "    length: int\n"
            "    _hash: int = 0\n"
        )
        assert codes_in(lint_source(src)) == set()

    def test_worker_entry_reachability_spans_helpers(self):
        """RPR011 walks the call graph, not just the entry function body."""
        report = lint_paths([fixture("worker_global_write.py_")])
        contexts = {v.context for v in report.violations}
        assert contexts == {"_record", "_run_shard"}


# ------------------------------------------------------------- dataflow edges
class TestDataflowRuleEdges:
    """CFG/def-use behaviour of the RPR03x sync-protocol rules."""

    def test_record_on_one_branch_only_is_flagged(self):
        src = (
            "def partial(simulator, prefix, flag):\n"
            "    router = simulator.routers[65001]\n"
            "    router.loc_rib.remove(prefix)\n"
            "    if flag:\n"
            "        simulator._pending_sync.setdefault(prefix, set()).add(65001)\n"
        )
        assert "RPR030" in codes_in(lint_source(src))

    def test_record_before_mutation_is_sanctioned(self):
        """Record-then-mutate is as coherent as mutate-then-record."""
        src = (
            "def touch_first(simulator, prefix):\n"
            "    simulator._last_touched.setdefault(prefix, set()).add(65001)\n"
            "    router = simulator.routers[65001]\n"
            "    router.loc_rib.remove(prefix)\n"
        )
        assert "RPR030" not in codes_in(lint_source(src))

    def test_record_inside_following_loop_is_sanctioned(self):
        """Loop bodies execute at least once in the CFG under-approximation."""
        src = (
            "def loops(simulator, prefix, asns):\n"
            "    router = simulator.routers[65001]\n"
            "    router.originate(prefix, None)\n"
            "    for asn in asns:\n"
            "        simulator._last_touched.setdefault(prefix, set()).add(asn)\n"
        )
        assert "RPR030" not in codes_in(lint_source(src))

    def test_state_shipping_helpers_are_exempt(self):
        """install/clear_prefix_state ARE the sync protocol — no records needed."""
        src = (
            "def install_prefix_state(simulator, states):\n"
            "    for state in states:\n"
            "        router = simulator.routers[state[0]]\n"
            "        router.loc_rib.remove(state[1])\n"
        )
        assert "RPR030" not in codes_in(lint_source(src))

    def test_mutator_on_non_router_value_not_flagged(self):
        src = (
            "def tally(report, prefix):\n"
            "    report.rows.append(prefix)\n"
            "    return report\n"
        )
        assert "RPR030" not in codes_in(lint_source(src))

    def test_config_rule_needs_a_capture_to_diff_against(self):
        """Without capture_router_config in the module RPR031 stays quiet."""
        src = (
            "class MiniRouter:\n"
            "    def __init__(self):\n"
            "        self.vendor = 'frr'\n"
            "\n"
            "def flip(router):\n"
            "    router.vendor = 'bird'\n"
        )
        assert "RPR031" not in codes_in(lint_source(src))

    def test_config_rule_ignores_non_router_classes(self):
        """A class sharing < 2 captured attrs is not the fingerprinted router."""
        report = lint_paths([fixture("config_captured_attr.py_")])
        assert codes_in(report.violations) == set()

    def test_fork_alias_anchored_at_parent_side_read(self):
        report = lint_paths([fixture("fork_aliased_state.py_")])
        fork_hits = [v for v in report.violations if v.code == "RPR032"]
        assert len(fork_hits) == 1
        assert fork_hits[0].context == "drain"
        assert "_SHARED_CACHE" in fork_hits[0].message

    def test_test_modules_exempt_from_resident_rules_only(self):
        """test_* files poke simulator state freely, but fork aliasing still counts."""
        src = (
            "def poke(simulator, prefix, entry):\n"
            "    router = simulator.routers[65001]\n"
            "    router.loc_rib.set_best(prefix, entry)\n"
        )
        assert "RPR030" in codes_in(lint_source(src))
        assert "RPR030" not in codes_in(
            lint_source(src, filename="tests/test_poke.py")
        )


# ---------------------------------------------------------------- suppressions
class TestSuppressions:
    def test_valid_noqa_with_reason_suppresses(self, tmp_path):
        target = tmp_path / "snippet.py_"
        target.write_text(
            "def key(label):\n"
            "    return hash(label)  # repro: noqa[RPR001]: golden-file fingerprint, same-process only\n"
        )
        report = lint_paths([str(target)])
        assert report.violations == []
        assert report.suppressed == 1

    def test_noqa_without_reason_is_integrity_violation(self):
        report = lint_paths([fixture("missing_noqa_reason.py_")])
        codes = codes_in(report.violations)
        # The malformed comment does NOT suppress, and is itself flagged.
        assert codes == {"RPR000", "RPR001"}

    def test_noqa_for_wrong_code_does_not_suppress(self, tmp_path):
        target = tmp_path / "snippet.py_"
        target.write_text(
            "def key(label):\n"
            "    return hash(label)  # repro: noqa[RPR003]: not the right code\n"
        )
        report = lint_paths([str(target)])
        assert "RPR001" in codes_in(report.violations)

    def test_integrity_code_survives_select(self):
        report = lint_paths([fixture("missing_noqa_reason.py_")], select=["RPR002"])
        assert codes_in(report.violations) == {"RPR000"}

    def test_noqa_suppresses_dataflow_codes(self, tmp_path):
        """RPR03x findings honour the same inline suppression contract."""
        target = tmp_path / "snippet.py_"
        target.write_text(
            "def poke(simulator, prefix, entry):\n"
            "    router = simulator.routers[65001]\n"
            "    router.loc_rib.set_best(prefix, entry)  # repro: noqa[RPR030]: bench harness, no resident pool attached\n"
        )
        report = lint_paths([str(target)])
        assert report.violations == []
        assert report.suppressed == 1


# ------------------------------------------------------------------------- CLI
class TestCli:
    def test_exit_zero_on_clean_fixture(self, capsys):
        assert main([fixture("clean.py_")]) == 0

    @pytest.mark.parametrize(
        "name",
        [
            "rng_salted_hash.py_",
            "nondeterministic_sources.py_",
            "set_order_leak.py_",
            "shard_submit_lambda.py_",
            "worker_global_write.py_",
            "frozen_setattr.py_",
            "cached_hash_mutable.py_",
            "missing_noqa_reason.py_",
            "resident_unrecorded_mutation.py_",
            "config_uncaptured_attr.py_",
            "fork_aliased_state.py_",
        ],
    )
    def test_exit_nonzero_on_each_known_bad_fixture(self, name, capsys):
        assert main([fixture(name)]) == 1

    def test_json_output_is_machine_readable(self, capsys):
        assert main([fixture("set_order_leak.py_"), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["files_checked"] == 1
        assert payload["summary"]["ok"] is False
        assert {v["code"] for v in payload["violations"]} == {"RPR003"}
        assert all({"path", "line", "column", "context", "message"} <= set(v)
                   for v in payload["violations"])

    def test_json_summary_counts_only_inline_suppressions(self, capsys):
        assert main([fixture("clean.py_"), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert set(summary) == {"files_checked", "violations", "suppressed", "ok"}

    def test_select_narrows_run(self, capsys):
        code = main([fixture("rng_salted_hash.py_"), "--select", "RPR002"])
        assert code == 1
        out = capsys.readouterr().out
        assert "RPR002" in out and "RPR001" not in out

    def test_ignore_drops_code(self, capsys):
        code = main([fixture("rng_salted_hash.py_"), "--ignore", "RPR001,RPR002"])
        assert code == 0

    def test_unknown_code_is_config_error(self, capsys):
        assert main(["--select", "RPR999", fixture("clean.py_")]) == 2

    @pytest.mark.parametrize("codes", ["", ",", " , "], ids=["empty", "comma", "blank"])
    def test_empty_select_is_config_error(self, codes, capsys):
        """A selection naming no rule must not drop every finding and pass."""
        assert main([fixture("rng_salted_hash.py_"), "--select", codes]) == 2
        captured = capsys.readouterr()
        assert "no rule code" in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "flags",
        [["--baseline", "x.json"], ["--no-baseline"], ["--write-baseline", "x.json"]],
        ids=["--baseline X", "--no-baseline", "--write-baseline X"],
    )
    def test_removed_baseline_flag_is_a_usage_error(self, flags, tmp_path, monkeypatch, capsys):
        """Inline ``# repro: noqa`` is the one suppression mechanism."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main([fixture("clean.py_"), *flags])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_baseline_file_in_environment_absorbs_nothing(self, tmp_path, monkeypatch, capsys):
        """A fingerprint file that would have grandfathered every finding is ignored."""
        findings = lint_paths([fixture("set_order_leak.py_")]).violations
        assert findings
        entries = [{**v.to_dict(), "reason": "grandfathered"} for v in findings]
        baseline = tmp_path / "lint-baseline.json"
        baseline.write_text(json.dumps({"version": 1, "entries": entries}))
        monkeypatch.setenv("REPRO_LINT_BASELINE", str(baseline))
        assert main([fixture("set_order_leak.py_")]) == 1
        out = capsys.readouterr().out
        assert f"{len(findings)} violation(s) in 1 file(s)" in out

    def test_missing_path_is_config_error(self, capsys):
        assert main(["does/not/exist.py"]) == 2

    def test_syntax_error_reports_integrity_violation(self, tmp_path, capsys):
        bad = tmp_path / "broken.py_"
        bad.write_text("def oops(:\n")
        assert main([str(bad)]) == 1
        assert "RPR000" in capsys.readouterr().out

    def test_list_rules_mentions_every_code(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (*MODULE_RULES, *ALL_PROJECT_RULES):
            assert rule.code in out

    def test_github_format_emits_error_annotations(self, capsys):
        code = main([fixture("set_order_leak.py_"), "--format", "github"])
        assert code == 1
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("::error ")]
        assert lines, out
        assert all("file=" in l and "line=" in l and "title=RPR003" in l
                   for l in lines)

    def test_github_format_escapes_annotation_payloads(self):
        from repro.analysis.engine import _github_escape

        assert _github_escape("a\nb\rc%d") == "a%0Ab%0Dc%25d"
        # Property values additionally escape the workflow-command delimiters.
        assert _github_escape("p,q:r", property=True) == "p%2Cq%3Ar"


# ---------------------------------------------------------------- project gate
class TestProjectTree:
    def test_shipped_src_tree_lints_clean(self, capsys):
        """The acceptance gate: repro-bgp lint src exits 0 on the shipped tree."""
        code = main([str(REPO_ROOT / "src")])
        assert code == 0, capsys.readouterr().out

    def test_shard_worker_state_writes_are_suppressed_inline(self):
        """The five by-design RPR011 worker-global writes carry their reason on their line."""
        shard = REPO_ROOT / "src" / "repro" / "routing" / "shard.py"
        report = lint_paths([str(shard)], select=["RPR011"])
        assert report.violations == []
        assert report.suppressed == 5

    def test_shipped_tests_tree_lints_clean(self, capsys):
        code = main([str(REPO_ROOT / "tests")])
        assert code == 0, capsys.readouterr().out

    @pytest.mark.parametrize("tree", ["benchmarks", "examples"])
    def test_shipped_tree_lints_clean_without_notes(self, tree, monkeypatch, capsys):
        """CI lints all four trees; a clean run prints only its summary line."""
        monkeypatch.chdir(REPO_ROOT)
        code = main([tree])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0, lines
        assert not [line for line in lines if line.startswith("note:")], lines
        assert len(lines) == 1, lines


# ------------------------------------------------------------------ lint perf
class TestLintPerformance:
    """Each module is parsed and walked once, shared across all rules."""

    def test_node_index_built_once_and_shared(self):
        import ast

        from repro.analysis.engine import module_from_source

        module = module_from_source(
            "def f(x):\n    return [y for y in sorted(x)]\n",
            Path("<snippet>"),
            "<snippet>",
        )
        calls = module.nodes(ast.Call)
        assert module.nodes(ast.Call) is calls  # cached bucket, no re-walk
        assert {type(n) for n in calls} == {ast.Call}
        mixed = module.nodes((ast.Call, ast.FunctionDef))
        assert [type(n) for n in mixed[:1]] == [ast.FunctionDef]  # source order
        assert len(mixed) == len(calls) + 1

    def test_full_src_lint_stays_fast(self, capsys):
        """Wall-time smoke: the whole-tree lint (every rule, CFG + call graph)
        must stay interactive.  The bound is deliberately generous — it
        catches an accidental per-rule re-parse (an order-of-magnitude
        regression), not scheduler jitter."""
        start = time.perf_counter()
        main([str(REPO_ROOT / "src")])
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert elapsed < 20.0, f"lint of src took {elapsed:.1f}s"
