"""Print each ``src/repro`` function that no output, ``repro-bgp`` command, example or
quick ``benchmarks/perf`` workload enters under ``sys.setprofile`` (code run only by
forked shard workers counts as unreached).  A measurement, not a gate: it exits 0
unless a run fails.  Usage: ``PYTHONPATH=src python tests/reachability.py``

``--knobs`` runs nothing: it parses the source and prints each defaulted parameter of a
``src/repro`` function, method or class constructor that no call in ``src/``,
``examples/`` or ``benchmarks/`` supplies, by position or by keyword, with the number
of test files whose calls do.  Calls match by name (``x.f(...)`` and ``f(...)`` both
call every ``f``; ``C(...)`` calls ``C.__init__``), and a call with ``*`` or ``**``
supplies every parameter.  It then prints the converse: each defaulted parameter that
every such call passes, so no program call relies on its default (a ``*`` / ``**`` call
counts as relying on it).  Usage: ``python tests/reachability.py --knobs``

``--lines`` runs the same outputs under ``sys.settrace`` and, inside each function they
enter, prints every statement none of them runs, grouped by module: a statement nested in
an unrun one is counted with it, and ``raise`` statements and docstrings are left out.
Usage: ``PYTHONPATH=src python tests/reachability.py --lines``"""

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


def defaulted(body: list, prefix: str = "", cls: ast.ClassDef | None = None):
    """``(qualified name, called name, (parameter, keyword or None), position or None)``
    of each defaulted parameter of each function, method and constructor."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from defaulted(node.body, f"{prefix}{node.name}.", node)
            continue
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        bound = cls is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
        )
        shift = 1 if bound and positional else 0
        called = cls.name if cls is not None and node.name == "__init__" else node.name
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], start=first):
            keyword = None if arg in args.posonlyargs else arg.arg
            yield prefix + node.name, called, (arg.arg, keyword), index - shift
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield prefix + node.name, called, (arg.arg, arg.arg), None


def call_sites(paths) -> dict[str, list[tuple[int, set[str] | None]]]:
    """Each called name -> ``(positional count, keywords)`` per call, keywords ``None``
    (and count infinite) for a call with ``*`` or ``**``."""
    sites: dict[str, list] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            keywords = {k.arg for k in node.keywords}
            if None in keywords or any(isinstance(a, ast.Starred) for a in node.args):
                sites.setdefault(name, []).append((float("inf"), None))
            else:
                sites.setdefault(name, []).append((len(node.args), keywords))
    return sites


def supplied(sites, called, keyword, position) -> bool:
    """True if some call of ``called`` passes the parameter."""
    return any(
        keywords is None or keyword in keywords or (position is not None and count > position)
        for count, keywords in sites.get(called, ())
    )


def always_supplied(sites, called, keyword, position) -> int:
    """The number of calls of ``called`` if every one names the parameter, else 0."""
    calls = sites.get(called, ())
    if all(
        keywords is not None and (keyword in keywords or (position is not None and count > position))
        for count, keywords in calls
    ):
        return len(calls)
    return 0


def knobs() -> None:
    """Print every defaulted ``src/repro`` parameter no program call supplies, then
    every one all program calls supply."""
    program = [p for top in ("src", "examples", "benchmarks") for p in sorted((ROOT / top).rglob("*.py"))]
    sites = call_sites(program)
    tests = [call_sites([path]) for path in sorted((ROOT / "tests").rglob("*.py"))]
    count = untested = 0
    unread: list[tuple[Path, str]] = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        rows = []
        for name, called, (param, keyword), position in defaulted(ast.parse(path.read_text()).body):
            calls = always_supplied(sites, called, keyword, position)
            if calls:
                unread.append((path, f"  {calls:5d}  {name}({param})"))
            if supplied(sites, called, keyword, position):
                continue
            tested = sum(supplied(s, called, keyword, position) for s in tests)
            rows.append(f"  {tested:5d}  {name}({param})")
            count, untested = count + 1, untested + (tested == 0)
        if rows:
            print(path.relative_to(ROOT))
            print("\n".join(rows))
    print(f"{count} parameters no program call supplies ({untested} supplied by no test file either)")
    for path in dict.fromkeys(path for path, _row in unread):
        print(path.relative_to(ROOT))
        print("\n".join(row for where, row in unread if where == path))
    print(f"{len(unread)} defaults no program call relies on (column: calls that pass the parameter)")


def traced() -> tuple[set[tuple[str, int]], set[tuple[str, int]]]:
    """``(file, first line)`` of every ``src/repro`` code object :func:`exercise`
    enters, and ``(file, line)`` of every line it runs there."""
    package = os.path.realpath(ROOT / "src" / "repro")
    entered, ran, ours = set(), set(), {}

    def local(frame, event, _arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, _arg):
        code = frame.f_code
        inside = ours.get(code.co_filename)
        if inside is None:
            inside = ours[code.co_filename] = os.path.realpath(code.co_filename).startswith(package)
        if not inside:
            return None
        entered.add((code.co_filename, code.co_firstlineno))
        ran.add((code.co_filename, frame.f_lineno))
        return local

    sys.settrace(trace)
    try:
        with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
            exercise(scratch)
    finally:
        sys.settrace(None)
    real = lambda pairs: {(os.path.realpath(f), n) for f, n in pairs}  # noqa: E731
    return real(entered), real(ran)


def unrun(body: list, ran: set[int]):
    """Each statement of ``body`` that never ran, its nested statements counted with it;
    nested functions and classes are left to their own entry."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Raise)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue  # a docstring
        blocks = [getattr(node, f) for f in ("body", "orelse", "handlers", "finalbody") if getattr(node, f, None)]
        blocks += [case.body for case in getattr(node, "cases", ())]
        # A compound statement runs its header; ``try`` has none, so only its blocks count.
        end = blocks[0][0].lineno - 1 if blocks else node.end_lineno
        header = range(node.lineno, max(node.lineno, end) + 1)
        if not isinstance(node, ast.Try) and not any(line in ran for line in header):
            yield node
            continue
        for block in blocks:
            if isinstance(block[0], ast.ExceptHandler):
                for handler in block:
                    if any(line in ran for line in range(handler.lineno, handler.body[0].lineno)):
                        yield from unrun(handler.body, ran)
                    else:
                        yield handler
            else:
                yield from unrun(block, ran)


def functions(body: list, prefix: str = ""):
    """``(qualified name, first line, node)`` of each function and method."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from functions(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, min([node.lineno] + [d.lineno for d in node.decorator_list]), node


def lines_report() -> None:
    """Print every statement no output runs inside a function some output enters."""
    entered, ran = traced()
    count = lines = 0
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        where = os.path.realpath(path)
        source = path.read_text().splitlines()
        here = {line for file, line in ran if file == where}
        rows = []
        for name, first, node in functions(ast.parse("\n".join(source)).body):
            if (where, first) not in entered:
                continue
            for statement in unrun(node.body, here):
                size = statement.end_lineno - statement.lineno + 1
                text = source[statement.lineno - 1].strip()
                rows.append(f"  {size:5d}  {name}:{statement.lineno}  {text}")
                count, lines = count + 1, lines + size
        if rows:
            print(path.relative_to(ROOT))
            print("\n".join(rows))
    print(f"{count} statements no output runs in reached functions, {lines} lines")


def reached() -> set[tuple[str, int]]:
    """``(file, first line)`` of every code object :func:`exercise` enters."""
    entered = set()
    sys.setprofile(lambda frame, event, _arg: event == "call" and entered.add(frame.f_code))
    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
        exercise(scratch)
    sys.setprofile(None)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in entered}


if __name__ == "__main__":
    if sys.argv[1:] == ["--knobs"]:
        knobs()
        raise SystemExit(0)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "benchmarks" / "perf")]
    if sys.argv[1:] == ["--lines"]:
        lines_report()
        raise SystemExit(0)
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
