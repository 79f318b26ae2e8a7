"""The perf ledger runner: one command, every metric, outputs checked.

::

    python3 benchmarks/perf/run.py [--workload NAME|all] [--seed 42]
        [--seconds N] [--trace 0|1] [--quick] [--out FILE]
    python3 benchmarks/perf/run.py --selfcheck
    python3 benchmarks/perf/run.py --compare A.json B.json

How a run is put together (the README says why):

* A **pass** is one child interpreter (``PYTHONHASHSEED=0``) that sets a
  workload up once, runs one untimed warm-up iteration that pins the
  output digest, then iterates until its share of ``--seconds`` is used.
  Every timed sample — the set-up and each iteration — is bracketed by
  calibration probes and reported in reference seconds (``calib.py``).
* ``--trace 0`` makes :data:`PASSES` passes per workload, round-robin
  over the workloads, pools the samples and prints the end-to-end
  metrics.  ``--trace 1`` makes one untraced and one traced pass and
  prints the per-layer metrics; end-to-end numbers never come from a
  traced pass.
* The last line of standard output is one JSON object
  ``{"correct", "attempted", "failed", "metrics"}``; the exit code is
  non-zero when any check failed.

Metric names, units, directions and bounds are read from
``BENCHMARK.json`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import proctree  # noqa: E402
import tracer as tracer_module  # noqa: E402

#: Child interpreters per workload in an end-to-end run: each one
#: contributes a ``setup_s`` sample, and round-robin scheduling spreads
#: every workload's iterations over the whole run.
PASSES = 3

#: A child that outlives this is killed with its whole process group.
CHILD_TIMEOUT_S = 170

#: Per-layer metrics counted over a whole traced pass instead of per timed
#: iteration: pools are leased and built in set-up.
PER_PASS_METRICS = ("routing.residency.acquire.calls", "routing.residency.pool_builds")


def load_manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# =================================================================== child
class _Probes:
    """The pass's calibration probe runs, in order."""

    def __init__(self) -> None:
        self.all: list[float] = []
        self._ended = float("-inf")

    def take(self, reuse: bool = False) -> float:
        """Run the probe; with ``reuse``, hand back the latest run instead if it
        ended under 0.5 s ago (one run closes a sample and opens the next)."""
        if not reuse or time.perf_counter() - self._ended > 0.5:
            self.all.append(calib.probe())
            self._ended = time.perf_counter()
        return self.all[-1]


def run_pass(
    name: str,
    seed: int,
    quick: bool,
    budget_s: float,
    min_iterations: int,
    traced: bool,
    time_twin: bool,
    expect: "str | None",
) -> dict:
    """One pass of one workload, in this process.  Returns the raw samples."""
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[name](seed, quick, OUT_DIR)
    tracer = undo = None
    if traced:
        tracer = tracer_module.Tracer()
        undo = tracer_module.install(tracer)

    probes = _Probes()
    failures: list[str] = []
    samples: list[dict] = []
    twin_walls: list[float] = []

    # ---- set-up: inputs, preseed, pool fork, one untimed warm-up iteration
    gc.collect()
    probe_before = probes.take()
    start = time.perf_counter()
    if tracer is not None:
        tracer.enabled = True
    workload.setup()
    work = workload.iterate()
    if tracer is not None:
        tracer.enabled = False
    setup = {
        "wall": time.perf_counter() - start,
        "probe_before": probe_before,
        "probe_after": probes.take(),
    }
    pinned = workload.digest()
    if expect is not None and pinned != expect:
        failures.append(f"warm-up digest {pinned[:12]} differs from the first pass's {expect[:12]}")

    # ---- timed iterations
    attempted = 1
    loop_start = time.perf_counter()
    while len(samples) < min_iterations or time.perf_counter() - loop_start < budget_s:
        attempted += 1
        gc.collect()
        probe_before = probes.take(reuse=True)
        if tracer is not None:
            tracer.phase, tracer.iteration = "iter", len(samples)
            tracer.keep_spans = not samples
            tracer.enabled = True
        cpu_start = proctree.tree_cpu_seconds()
        start = time.perf_counter()
        try:
            iteration_work = workload.iterate()
        except Exception:
            traceback.print_exc()
            failures.append(f"iteration {len(samples)} raised")
            break
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
        cpu = proctree.tree_cpu_seconds() - cpu_start
        probe_after = probes.take()
        digest = workload.digest()
        ok = digest == pinned and iteration_work == work
        if not ok:
            failures.append(
                f"iteration {len(samples)}: digest {digest[:12]} / work {iteration_work}"
                f" differ from the warm-up's {pinned[:12]} / {work}"
            )
        samples.append(
            {"wall": wall, "cpu": cpu, "probe_before": probe_before, "probe_after": probe_after, "ok": ok}
        )
        if time_twin:
            twin = workload.twin_iterate()
            if twin is not None:
                twin_walls.append(twin[1])
                if twin[0] != pinned:
                    failures.append(f"iteration {len(samples) - 1}: in-process twin digest differs")

    rss_mb = proctree.tree_peak_rss_mb()
    # The first pass of a run checks the other execution mode once (a
    # per-layer run has timed it beside every iteration already).  After
    # the RSS reading: the twin is the benchmark's memory, not the program's.
    if expect is None and not time_twin:
        twin = workload.twin_iterate()
        if twin is not None and twin[0] != pinned:
            failures.append(f"in-process twin digest {twin[0][:12]} differs from {pinned[:12]}")
    workload.teardown()
    result = {
        "digest": pinned,
        "work": work,
        "setup": setup,
        "samples": samples,
        "twin_walls": twin_walls,
        "probes": probes.all,
        "rss_mb": rss_mb,
        "attempted": attempted,
        "failures": failures,
    }
    if tracer is not None:
        tracer_module.uninstall(undo)
        iterations = max(1, len(samples))
        result["layers"] = {
            "per_iteration": {
                key: value / iterations for key, value in tracer.totals(("iter",)).items()
            },
            "per_pass": tracer.totals(("setup", "iter")),
        }
        trace_path = OUT_DIR / f"trace-{name}.json"
        trace_path.write_text(
            json.dumps({"workload": name, "seed": seed, "iterations": len(samples), **tracer.dump()})
        )
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    return result


# ================================================================== parent
def spawn_pass(name: str, **options) -> dict:
    """Run one pass in a child interpreter; returns its JSON result."""
    command = [sys.executable, str(HERE / "run.py"), "--child", json.dumps({"name": name, **options})]
    env = dict(os.environ, PYTHONHASHSEED="0")
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, text=True, start_new_session=True
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # Take resident shard workers down with the child.
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise SystemExit(f"{name}: pass exceeded {CHILD_TIMEOUT_S} s and was killed")
    if child.returncode != 0:
        raise SystemExit(f"{name}: pass exited with code {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _ratios(passes: list[dict], field: str) -> list[float]:
    """Reference-second values of every usable iteration, pass by pass."""
    out: list[float] = []
    for one in passes:
        usable = [sample for sample in one["samples"] if sample["ok"]] or one["samples"]
        out += calib.reference_series(
            [(sample[field], sample["probe_before"], sample["probe_after"]) for sample in usable]
        )
    return out


def _setup_ratios(passes: list[dict]) -> list[float]:
    return [
        calib.to_reference(one["setup"]["wall"], [one["setup"]["probe_before"], one["setup"]["probe_after"]])
        for one in passes
    ]


def summarise(passes: list[dict]) -> dict:
    """Pool the untraced passes of one workload into its end-to-end record."""
    failures = [failure for one in passes for failure in one["failures"]]
    if len({one["work"] for one in passes}) > 1:
        failures.append("work units differ between passes")
    iter_ratios = _ratios(passes, "wall")
    cpu_ratios = _ratios(passes, "cpu")
    setup_ratios = _setup_ratios(passes)
    iter_s = statistics.median(iter_ratios) if iter_ratios else float("nan")
    walls = sorted(
        sample["wall"] for one in passes for sample in one["samples"] if sample["ok"]
    ) or [float("nan")]
    return {
        "digest": passes[0]["digest"],
        "work": passes[0]["work"],
        "attempted": sum(one["attempted"] for one in passes),
        "failed": len(failures),
        "failures": failures,
        "metrics": {
            "setup_s": statistics.median(setup_ratios),
            "iter_s": iter_s,
            "work_per_s": passes[0]["work"] / iter_s,
            "cpu_s": statistics.median(cpu_ratios) if cpu_ratios else float("nan"),
            "peak_rss_mb": max(one["rss_mb"] for one in passes),
        },
        "host": {
            "host.calib_s": statistics.median(p for one in passes for p in one["probes"]),
            "host.iter_wall_s": statistics.median(walls),
            "host.iter_wall_p90_s": walls[min(len(walls) - 1, int(0.9 * len(walls)))],
            "host.setup_wall_s": statistics.median(one["setup"]["wall"] for one in passes),
            "host.samples": len(iter_ratios),
        },
        "samples": {
            "iter_s": iter_ratios,
            "work_per_s": [passes[0]["work"] / value for value in iter_ratios],
            "cpu_s": cpu_ratios,
            "setup_s": setup_ratios,
        },
    }


def layer_metrics(manifest: dict, untraced: dict, untraced_pass: dict, traced_pass: dict) -> dict:
    """Every ``per_layer`` metric of the manifest, from one traced pass."""
    per_iteration = traced_pass["layers"]["per_iteration"]
    per_pass = traced_pass["layers"]["per_pass"]
    traced_iter_s = statistics.median(_ratios([traced_pass], "wall"))
    values = dict(untraced["host"])
    values["host.trace_overhead"] = traced_iter_s / untraced["metrics"]["iter_s"]
    twin_walls = untraced_pass["twin_walls"]
    values["routing.shard.inproc_twin_s"] = statistics.median(twin_walls) if twin_walls else 0.0
    for name in PER_PASS_METRICS:
        values[name] = per_pass.get(name, 0)
    return {
        metric["name"]: values.get(metric["name"], per_iteration.get(metric["name"], 0))
        for metric in manifest["per_layer"]
    }


def host_facts() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit or None,
        "probe_ops": calib.PROBE_OPS,
        "reference_s": calib.REFERENCE_S,
    }


def run_set(names: list[str], args: argparse.Namespace, manifest: dict) -> dict:
    """Run ``names`` end to end (``--trace 0``) or per layer (``--trace 1``)."""
    seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]
    untraced_passes = 1 if args.quick or args.trace else PASSES
    passes = untraced_passes + (1 if args.trace else 0)
    options = {
        "seed": args.seed,
        "quick": args.quick,
        "budget_s": 0.0 if args.quick else seconds / passes,
        "min_iterations": 2 if args.quick else 1,
    }
    collected: dict[str, list[dict]] = {name: [] for name in names}
    for _ in range(untraced_passes):
        for name in names:
            first = collected[name][0] if collected[name] else None
            collected[name].append(
                spawn_pass(
                    name,
                    **options,
                    traced=False,
                    time_twin=bool(args.trace),
                    expect=first["digest"] if first else None,
                )
            )
    traced = {
        name: spawn_pass(
            name, **options, traced=True, time_twin=False, expect=collected[name][0]["digest"]
        )
        for name in (names if args.trace else ())
    }
    record = {
        "mode": "per_layer" if args.trace else "end_to_end",
        "seed": args.seed,
        "quick": args.quick,
        "seconds": seconds,
        "passes": passes,
        "host": host_facts(),
        "workloads": {},
    }
    for name in names:
        entry = summarise(collected[name])
        if args.trace:
            extra = traced[name]["failures"]
            entry["attempted"] += traced[name]["attempted"]
            entry["failed"] += len(extra)
            entry["failures"] += extra
            entry["layers"] = layer_metrics(manifest, entry, collected[name][0], traced[name])
            entry["trace_file"] = traced[name]["trace_file"]
        record["workloads"][name] = entry
    return record


# ================================================================== output
def _units(manifest: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}


def reported(entry: dict, mode: str) -> dict[str, float]:
    return entry["layers"] if mode == "per_layer" else entry["metrics"]


def print_record(record: dict, manifest: dict) -> None:
    units = _units(manifest)
    for name, entry in record["workloads"].items():
        print(f"== {name}  (work {entry['work']}, {entry['host']['host.samples']} samples, "
              f"attempted {entry['attempted']}, failed {entry['failed']})")
        for failure in entry["failures"]:
            print(f"   FAILED: {failure}")
        shown = dict(reported(entry, record["mode"]))
        if record["mode"] == "end_to_end":
            shown.update(entry["host"])
        for metric, value in shown.items():
            print(f"   {metric:<52} {value:>16.6f} {units[metric]}")


def result_line(record: dict, manifest: dict) -> str:
    """The contract's last line; metric names gain a ``workload/`` prefix
    only when the run covered more than one workload."""
    units = _units(manifest)
    many = len(record["workloads"]) > 1
    metrics = {}
    for name, entry in record["workloads"].items():
        for metric, value in reported(entry, record["mode"]).items():
            metrics[f"{name}/{metric}" if many else metric] = {"value": value, "unit": units[metric]}
    failed = sum(entry["failed"] for entry in record["workloads"].values())
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": sum(entry["attempted"] for entry in record["workloads"].values()),
            "failed": failed,
            "metrics": metrics,
        }
    )


def write_out(path: Path, record: dict) -> None:
    """Store the record under its mode, keeping the file's other mode.

    A ledger entry (``BENCH_<n>.json``) is one end-to-end run plus one
    per-layer run written to the same file.
    """
    ledger = json.loads(path.read_text()) if path.exists() else {}
    ledger[record["mode"]] = record
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")


# ============================================================ paired tables
def _worse_by(metric: dict, first: float, second: float) -> float:
    """By what share of ``first`` the second value is worse (negative: better)."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def compare_records(first: dict, second: dict, manifest: dict, symmetric: bool) -> bool:
    """Print the per (workload, metric) table; True when every pair is within bound.

    ``symmetric`` (selfcheck: same code twice) flags a gap in either
    direction; otherwise only the second being worse counts.
    """
    within = True
    print(f"{'workload':<18} {'metric':<12} {'first':>12} {'second':>12} {'ratio':>7} {'bound':>6}  verdict")
    for name, entry in first["workloads"].items():
        other = second["workloads"].get(name)
        if other is None:
            continue
        for metric in manifest["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a, b = entry["metrics"][key], other["metrics"][key]
            worse = _worse_by(metric, a, b)
            noisy = max(
                _spread(entry["samples"].get(key, [])), _spread(other["samples"].get(key, []))
            ) > bound
            if worse > bound or (symmetric and _worse_by(metric, b, a) > bound):
                verdict, within = "OUTSIDE BOUND", False
            elif noisy:
                verdict = "unresolved (sample spread > bound)"
            elif worse < -bound:
                verdict = "improved"
            else:
                verdict = "unchanged"
            print(f"{name:<18} {key:<12} {a:>12.5f} {b:>12.5f} {b / a:>7.3f} {bound:>6.2f}  {verdict}")
    return within


# ==================================================================== main
def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None, help="timed seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        print(json.dumps(run_pass(**json.loads(args.child))))
        return 0

    manifest = load_manifest()
    if args.compare:
        first, second = (json.loads(path.read_text())["end_to_end"] for path in args.compare)
        return 0 if compare_records(first, second, manifest, symmetric=False) else 1

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    known = [workload["name"] for workload in manifest["workloads"]]
    if args.workload != "all" and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(known)} or all")
    names = known if args.workload == "all" else [args.workload]

    if args.selfcheck:
        args.trace = 0
        first = run_set(names, args, manifest)
        second = run_set(names, args, manifest)
        clean = all(
            entry["failed"] == 0
            for record in (first, second)
            for entry in record["workloads"].values()
        )
        return 0 if compare_records(first, second, manifest, symmetric=True) and clean else 1

    record = run_set(names, args, manifest)
    print_record(record, manifest)
    if args.out:
        write_out(args.out, record)
    print(result_line(record, manifest))
    return 0 if all(entry["failed"] == 0 for entry in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
