"""Harness checks for the perf ledger (collected by the tier-1 ``pytest``).

No timing assertions: these tests pin the *shape* of the benchmark —
metric names, the estimator, the tracer's arithmetic, the process-tree
reader — so it cannot rot between full runs.
"""

from __future__ import annotations

import json
import os
import random
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import proctree  # noqa: E402
import tracer as tracer_module  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in MANIFEST["workloads"]]


def _start(*arguments: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "5", *arguments],
        stdout=subprocess.PIPE,
        text=True,
    )


def _result(process: subprocess.Popen) -> dict:
    stdout, _ = process.communicate(timeout=120)
    assert process.returncode == 0, stdout
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick_runs() -> dict:
    """One quick end-to-end run plus a quick traced run of every workload.

    Started together: they are independent interpreters and the quick
    sizes make each a second or two.
    """
    end_to_end = _start("--workload", "harvest-mrt", "--trace", "0")
    traced = {name: _start("--workload", name, "--trace", "1") for name in WORKLOADS}
    return {
        "end_to_end": _result(end_to_end),
        "traced": {name: _result(process) for name, process in traced.items()},
    }


def test_manifest_is_well_formed():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert MANIFEST["paths"] == ["benchmarks/perf"]
    assert MANIFEST["command"][-1] == "benchmarks/perf/run.py"
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in MANIFEST[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for workload in MANIFEST["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in MANIFEST["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in MANIFEST["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


def test_end_to_end_output_matches_manifest(quick_runs):
    result = quick_runs["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in MANIFEST["end_to_end"]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} == expected
    assert all(value["value"] > 0 for value in result["metrics"].values())


def test_every_layer_metric_is_emitted_and_moves_somewhere(quick_runs):
    expected = {metric["name"] for metric in MANIFEST["per_layer"]}
    moved = set()
    for name, result in quick_runs["traced"].items():
        assert result["correct"] is True, name
        assert set(result["metrics"]) == expected, name
        moved |= {metric for metric, value in result["metrics"].items() if value["value"] > 0}
    # A metric that reads zero on all four workloads is a name nothing feeds.
    # Known exceptions: --quick drops the two experiments behind three of
    # them, and no workload withdraws a best route yet (trie deletes).
    quick_idle = {
        "datasets.synthetic.build.self_s",
        "measurement.report.full_report.self_s",
        "wild.blackhole_sweep.run.self_s",
        "net.lpm.delete.calls",
    }
    assert expected - moved <= quick_idle


def test_tracer_targets_cover_the_named_layer_metrics():
    """Every ``<fn>.calls`` / ``<fn>.self_s`` metric has a wrapped function."""
    spans = {target.name for target in tracer_module.TARGETS}
    for metric in MANIFEST["per_layer"]:
        base, _, suffix = metric["name"].rpartition(".")
        if suffix in ("calls", "self_s"):
            assert base in spans, metric["name"]


def test_ratio_median_recovers_a_planted_value():
    """Bursty host speed (1x-2.2x, minute-scale blocks) must divide out."""
    rng = random.Random(7)
    planted = 1.25
    samples = []
    slowdown = 1.0
    for index in range(30):
        if index % 6 == 0:
            slowdown = rng.uniform(1.0, 2.2)
        before = calib.REFERENCE_S * slowdown * rng.uniform(0.97, 1.03)
        after = calib.REFERENCE_S * slowdown * rng.uniform(0.97, 1.03)
        wall = planted * slowdown * rng.uniform(0.98, 1.02)
        samples.append((wall, before, after))
    estimate = statistics.median(calib.reference_series(samples))
    assert abs(estimate - planted) / planted < 0.03
    raw_median = sorted(sample[0] for sample in samples)[15]
    assert abs(raw_median - planted) / planted > 0.10  # what PR 11 measured


def test_tracer_self_time_on_a_toy_call_tree():
    now = [0.0]
    tracer = tracer_module.Tracer(
        enabled=True, phase="iter", keep_spans=True, clock=lambda: now[0]
    )

    def tick(seconds):
        now[0] += seconds

    leaf = tracer.span("c", lambda: tick(5))

    def middle_body():
        tick(3)
        leaf()

    middle = tracer.span("b", middle_body)
    bump = tracer.count("n", lambda: tick(1))

    def root_body():
        bump()
        middle()
        tick(2)
        middle()
        leaf()

    tracer.span("a", root_body)()
    assert tracer.aggregates == {
        ("iter", "a", None): [1, 24.0, 3.0],
        ("iter", "b", "a"): [2, 16.0, 6.0],
        ("iter", "c", "b"): [2, 10.0, 10.0],
        ("iter", "c", "a"): [1, 5.0, 5.0],
    }
    totals = tracer.totals(("iter",))
    assert totals["a.self_s"] + totals["b.self_s"] + totals["c.self_s"] == 24.0
    assert (totals["c.calls"], totals["n.calls"]) == (3, 1)
    # Spans close innermost first; each names its parent's id.
    by_id = {span[0]: span for span in tracer.spans}
    assert [span[1] for span in tracer.spans] == ["c", "b", "c", "b", "c", "a"]
    assert all(span[4] is None or by_id[span[4]][1] in ("a", "b") for span in tracer.spans)
    tracer.enabled = False
    tracer.span("a", root_body)()
    assert tracer.aggregates[("iter", "a", None)][0] == 1


def test_install_rebinds_by_name_imports_and_uninstall_restores():
    import repro.routing.decision as decision
    import repro.routing.router as router

    original = decision.best_path
    target = next(t for t in tracer_module.TARGETS if t.name == "routing.decision.best_path")
    undo = tracer_module.install(tracer_module.Tracer(), (target,))
    try:
        assert decision.best_path is not original
        assert router.best_path is decision.best_path
        assert decision.best_path.__wrapped__ is original
    finally:
        tracer_module.uninstall(undo)
    assert decision.best_path is original and router.best_path is original


def test_process_tree_reader_counts_a_live_child():
    burn = "sum(i * i for i in range(400000)); print('done', flush=True); input()"
    child = subprocess.Popen(
        [sys.executable, "-c", burn], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    try:
        assert child.stdout.readline().strip() == "done"
        assert child.pid in proctree.tree_pids(os.getpid())
        own = proctree.tree_cpu_seconds(child.pid)
        assert own > 0
        assert proctree.tree_cpu_seconds() >= own
        assert proctree.tree_peak_rss_mb() > proctree.tree_peak_rss_mb(child.pid) > 0
    finally:
        child.stdin.close()
        child.wait(timeout=30)
