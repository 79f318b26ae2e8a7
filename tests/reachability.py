"""Print each ``src/repro`` function that no output, ``repro-bgp`` command, example or
quick ``benchmarks/perf`` workload enters under ``sys.setprofile`` (code run only by
forked shard workers counts as unreached).  A measurement, not a gate: it exits 0
unless a run fails.  Usage: ``PYTHONPATH=src python tests/reachability.py``"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def exercise(scratch: str) -> None:
    from test_determinism import _stream_lines, collect_outputs
    from workloads import WORKLOADS

    from repro.cli import main
    from repro.experiments import ExperimentSpec, available

    collect_outputs(scratch)
    out, events = os.path.join(scratch, "out"), Path(scratch, "events.jsonl")
    topology = ExperimentSpec(name="report", seed=7, scale="small").build_topology()
    events.write_text("\n".join(_stream_lines(topology)) + "\n")
    seed = ["--seed", "7"]
    commands = [["list"], ["list", "--json"]]
    for name in available():
        commands += [["run", name, *seed], ["run", name, *seed, "--json", "--output", out]]
    commands += [["export-mrt", out, *seed, "--source", kind] for kind in ("synthetic", "harvest")]
    commands += [["stream", str(events), *seed, *flags] for flags in ([], ["--preseed"])]
    for argv in commands:
        if main(argv) != 0:
            raise SystemExit(f"repro-bgp {' '.join(argv)} failed")
    for example in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(example), run_name="__main__")
    for workload in (cls(7, True, Path(scratch)) for cls in WORKLOADS.values()):
        for step in ("setup", "iterate", "digest", "twin_iterate", "teardown"):
            getattr(workload, step)()


def definitions(body: list, prefix: str = ""):
    """``(qualified name, first line, line count)`` of each function and method."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from definitions(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield prefix + node.name, first, node.end_lineno - first + 1


def reached() -> set[tuple[str, int]]:
    """``(file, first line)`` of every code object :func:`exercise` enters."""
    entered = set()
    sys.setprofile(lambda frame, event, _arg: event == "call" and entered.add(frame.f_code))
    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
        exercise(scratch)
    sys.setprofile(None)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in entered}


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "benchmarks" / "perf")]
    entered = reached()
    count = lines = 0  # of unreached functions
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        where = os.path.realpath(path)
        misses = [d for d in definitions(ast.parse(path.read_text()).body) if (where, d[1]) not in entered]
        if misses:
            print(path.relative_to(ROOT))
        for name, _first, size in misses:
            print(f"  {size:5d}  {name}")
            count, lines = count + 1, lines + size
    print(f"{count} unreached functions, {lines} lines")
