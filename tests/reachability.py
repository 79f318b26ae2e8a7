"""Print each ``src/repro`` function that no output, ``repro-bgp`` command, example or
quick ``benchmarks/perf`` workload enters under ``sys.settrace`` (code run only by forked
shard workers counts as unreached).  Usage: ``PYTHONPATH=src python tests/reachability.py``

``--knobs`` runs nothing: it parses the source and prints each defaulted parameter of a
``src/repro`` function, method or class constructor that no call in ``src/``,
``examples/`` or ``benchmarks/`` supplies, by position or by keyword, with the number
of test files whose calls do.  Calls match by name (``x.f(...)`` and ``f(...)`` both
call every ``f``; ``C(...)`` calls ``C.__init__``), and a call with ``*`` or ``**``
supplies every parameter.  It then prints the converse: each defaulted parameter that
every such call passes, so no program call relies on its default (a ``*`` / ``**`` call
counts as relying on it).  Last it prints each field of a ``src/repro`` ``@dataclass`` or
``NamedTuple`` whose default is a setting (anything but ``default_factory=list``,
``dict`` or ``set``, which hold results) that no code in ``src/``, ``examples/`` or
``benchmarks/`` sets, with the number of test files that do.  A field is set by a
constructor call of its class or a subclass (``cls(...)`` in a method counts), by
keyword or by position; by ``tuple.__new__``, which sets every field; by a ``replace``
/ ``_replace`` keyword; or by an attribute assignment, matched by name.
Usage: ``python tests/reachability.py --knobs``

``--lines`` runs the same outputs and, inside each function they enter, prints every
statement none of them runs, grouped by module: a statement nested in an unrun one is
counted with it, and ``raise`` statements and docstrings are left out.
Usage: ``PYTHONPATH=src python tests/reachability.py --lines``

``--check`` prints all five lists, then compares them with ``tests/fixtures/census.json``,
which records every entry with a reason from its legend, and exits 1 if a list holds an
entry the file lacks or the file holds one no list prints.  A statement is recorded by
its function and text, not its line, so edits elsewhere leave the file alone.  The
other three modes are measurements: they exit 0 unless a run fails.
Usage: ``PYTHONPATH=src python tests/reachability.py --check``"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
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


def knob_rows() -> tuple[list, list, list]:
    """The three ``--knobs`` lists, each as ``(path, entry, column)`` rows: the defaulted
    parameters no program call supplies (column: test files whose calls do), the defaults
    every program call overrides (column: those calls), and the dataclass / NamedTuple
    fields no program sets (column: test files that set it)."""
    program = [p for top in ("src", "examples", "benchmarks") for p in sorted((ROOT / top).rglob("*.py"))]
    sites = call_sites(program)
    tests = [call_sites([path]) for path in sorted((ROOT / "tests").rglob("*.py"))]
    unsupplied, overridden = [], []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for name, called, (param, keyword), position in defaulted(ast.parse(path.read_text()).body):
            calls = always_supplied(sites, called, keyword, position)
            if calls:
                overridden.append((path, f"{name}({param})", calls))
            if not supplied(sites, called, keyword, position):
                tested = sum(supplied(s, called, keyword, position) for s in tests)
                unsupplied.append((path, f"{name}({param})", tested))
    sources = {path: path.read_text() for path in sorted((ROOT / "src" / "repro").rglob("*.py"))}
    program_setters = setters(path.read_text() for path in program)
    test_setters = [setters([path.read_text()]) for path in sorted((ROOT / "tests").rglob("*.py"))]
    fields = fields_of(sources)
    unset = [
        (path, f"{owner}.{name}", sum(is_set(s, fields, owner, name) for s in test_setters))
        for path, (owner, name) in unset_fields(sources, program_setters)
    ]
    return unsupplied, overridden, unset


def print_rows(rows, summary: str) -> None:
    """Print ``(path, entry, column)`` rows grouped by path, then ``summary``."""
    for path in dict.fromkeys(path for path, *_rest in rows):
        print(path.relative_to(ROOT))
        for _path, entry, column in (row for row in rows if row[0] == path):
            print(f"  {column:5d}  {entry}")
    print(summary)


def print_knobs(unsupplied, overridden, unset) -> None:
    """Print the three :func:`knob_rows` lists, each with its count."""
    untested = sum(tested == 0 for _path, _entry, tested in unsupplied)
    print_rows(
        unsupplied,
        f"{len(unsupplied)} parameters no program call supplies ({untested} supplied by no test file either)",
    )
    print_rows(overridden, f"{len(overridden)} defaults no program call relies on (column: calls that pass the parameter)")
    print_rows(unset, f"{len(unset)} fields no program sets (column: test files that set it)")


#: ``default_factory`` callables whose field holds results, not a setting.
RESULT_FACTORIES = {"list", "dict", "set"}


def _name(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _is_record(node: ast.ClassDef) -> bool:
    """True for a ``@dataclass`` or a ``NamedTuple`` class."""
    decorators = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(_name(d) == "dataclass" for d in decorators) or any(_name(b) == "NamedTuple" for b in node.bases)


def _own_fields(node: ast.ClassDef) -> list[tuple[str, bool]]:
    """``(field, True if its default is a setting)`` per constructor field, in order."""
    fields = []
    for statement in node.body:
        if not isinstance(statement, ast.AnnAssign) or not isinstance(statement.target, ast.Name):
            continue
        if "ClassVar" in ast.unparse(statement.annotation):
            continue
        value, setting = statement.value, statement.value is not None
        if isinstance(value, ast.Call) and _name(value.func) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            factory = keywords.get("default_factory")
            setting = "default" in keywords or (factory is not None and _name(factory) not in RESULT_FACTORIES)
        fields.append((statement.target.id, setting))
    return fields


def fields_of(sources: dict) -> dict[str, list[tuple[str, str, bool]]]:
    """Each class name in ``sources`` (path -> text) -> its constructor fields in order,
    inherited ones first, as ``(defining class, field, True if a setting)``."""
    classes = {}
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef):
                own = [(node.name, name, setting) for name, setting in _own_fields(node)] if _is_record(node) else []
                classes[node.name] = ([_name(b) for b in node.bases], own)

    def resolve(name: str, seen: frozenset = frozenset()) -> list:
        if name not in classes or name in seen:
            return []
        bases, own = classes[name]
        inherited = [f for base in bases for f in resolve(base, seen | {name})]
        return inherited + [f for f in own if f[1] not in {g[1] for g in inherited}]

    return {name: resolve(name) for name in classes}


@dataclass
class Setters:
    """What a set of sources sets, read by :func:`is_set`."""

    #: Class name -> ``(positional count, keywords)`` per constructor call, keywords
    #: ``None`` for a ``*`` / ``**`` call (which sets every field).
    calls: dict[str, list[tuple[int, set[str] | None]]] = field(default_factory=dict)
    #: Classes built by ``tuple.__new__``, which sets every field.
    whole: set[str] = field(default_factory=set)
    #: Field names passed to ``replace`` / ``_replace`` or assigned as an attribute.
    named: set[str] = field(default_factory=set)


def setters(texts) -> Setters:
    """Everything the sources ``texts`` set (``cls`` is the enclosing class)."""
    found = Setters()

    def visit(node, cls: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.Call):
            name = _name(node.func)
            name = cls if name == "cls" else name
            parts = [node.func, *node.args]
            for first, second in zip(parts, parts[1:]):
                if _name(first) == "__new__" and _name(getattr(first, "value", None)) == "tuple":
                    found.whole.add(cls if _name(second) == "cls" else _name(second))
            keywords = {k.arg for k in node.keywords}
            if name in ("replace", "_replace"):
                found.named |= keywords - {None}
            elif name in ("setattr", "__setattr__") and len(node.args) > 1:
                if isinstance(node.args[1], ast.Constant):
                    found.named.add(node.args[1].value)
            if name is not None:
                star = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
                found.calls.setdefault(name, []).append((0, None) if star else (len(node.args), keywords))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for part in ast.walk(target):
                    if isinstance(part, ast.Attribute):
                        found.named.add(part.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    for text in texts:
        visit(ast.parse(text), None)
    return found


def is_set(found: Setters, fields: dict, owner: str, name: str) -> bool:
    """True if ``found`` sets field ``name`` of class ``owner``, through ``owner`` or
    any subclass's constructor."""
    if name in found.named:
        return True
    for cls, row in fields.items():
        position = next((i for i, f in enumerate(row) if f[:2] == (owner, name)), None)
        if position is None:
            continue
        if cls in found.whole:
            return True
        for count, keywords in found.calls.get(cls, ()):
            if keywords is None or name in keywords or count > position:
                return True
    return False


def unset_fields(sources: dict, found: Setters) -> list[tuple[object, tuple[str, str]]]:
    """``(path, (class, field))`` of each dataclass / NamedTuple field in ``sources``
    (path -> text) whose default is a setting that ``found`` never sets."""
    fields = fields_of(sources)
    rows = []
    for path, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef) and _is_record(node):
                for name, setting in _own_fields(node):
                    if setting and not is_set(found, fields, node.name, name):
                        rows.append((path, (node.name, name)))
    return rows


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


def unrun_rows(source: str, entered: set[int], ran: set[int]):
    """``(function, line, statement text, line count)`` of each statement of ``source``
    that never ran (``ran``: the lines run) inside a function that did run (``entered``:
    the first lines of the functions entered)."""
    lines = source.splitlines()
    for name, first, node in functions(ast.parse(source).body):
        if first in entered:
            for statement in unrun(node.body, ran):
                text = lines[statement.lineno - 1].strip()
                yield name, statement.lineno, text, statement.end_lineno - statement.lineno + 1


def census_rows(entered, ran) -> tuple[list, list]:
    """The unreached functions as ``(path, name, line count)`` rows and the unrun
    statements as ``(path, function, line, text, line count)`` rows, from :func:`traced`."""
    by_file: dict[str, tuple[set[int], set[int]]] = {}
    for index, pairs in enumerate((entered, ran)):
        for file, line in pairs:
            by_file.setdefault(file, (set(), set()))[index].add(line)
    unreached, statements = [], []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        source = path.read_text()
        here_entered, here_ran = by_file.get(os.path.realpath(path), (set(), set()))
        for name, first, node in functions(ast.parse(source).body):
            if first not in here_entered:
                unreached.append((path, name, node.end_lineno - first + 1))
        statements += [(path, *row) for row in unrun_rows(source, here_entered, here_ran)]
    return unreached, statements


#: The committed census: every entry of the five lists, each with its reason.
CENSUS = ROOT / "tests" / "fixtures" / "census.json"
#: The census's lists, in the order ``--check`` prints them.
LISTS = ("unreached", "lines", "unsupplied", "overridden", "fields")


def census_of(unreached, statements, unsupplied, overridden, unset) -> dict[str, list[tuple[str, ...]]]:
    """Each list's entries as the census keys them: the file, then the function or
    parameter or field, and for a statement its text, not its line, so that an edit
    elsewhere in the file leaves the key alone."""
    relative = lambda path: path.relative_to(ROOT).as_posix()  # noqa: E731
    found = {
        "unreached": [(relative(path), name) for path, name, _size in unreached],
        "lines": [(relative(path), name, text) for path, name, _line, text, _size in statements],
    }
    for key, rows in zip(LISTS[2:], (unsupplied, overridden, unset)):
        found[key] = [(relative(path), entry) for path, entry, _column in rows]
    return found


def compare(census: dict, found: dict[str, list[tuple[str, ...]]]) -> list[str]:
    """One line per difference between ``census`` (the census file's content) and
    ``found`` (:func:`census_of`): an entry a list holds that the file lacks, an entry
    the file holds that no list does (each counted as often as it occurs), and a reason
    the file's legend does not name."""
    problems = []
    legend = census.get("legend", {})
    for key in LISTS:
        recorded: Counter = Counter()
        for *entry, reason in census.get(key, ()):
            recorded[tuple(entry)] += 1
            if reason not in legend:
                problems.append(f"{key}: reason {reason!r} is not in the legend: {json.dumps([*entry, reason])}")
        listed = Counter(found[key])
        for entry in (listed - recorded).elements():
            problems.append(f"{key}: new, add it with its reason: {json.dumps([*entry, 'REASON'])}")
        for entry in (recorded - listed).elements():
            problems.append(f"{key}: gone, delete it: {json.dumps(list(entry))}")
    return problems


if __name__ == "__main__":
    mode = sys.argv[1:]
    if mode not in ([], ["--lines"], ["--knobs"], ["--check"]):
        raise SystemExit("usage: tests/reachability.py [--lines | --knobs | --check]")
    if mode == ["--knobs"]:
        print_knobs(*knob_rows())
        raise SystemExit(0)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "benchmarks" / "perf")]
    unreached, statements = census_rows(*traced())
    if mode != ["--lines"]:
        print_rows(unreached, f"{len(unreached)} unreached functions, {sum(row[2] for row in unreached)} lines")
    if mode != []:
        print_rows(
            [(path, f"{name}:{line}  {text}", size) for path, name, line, text, size in statements],
            f"{len(statements)} statements no output runs in reached functions, "
            f"{sum(row[4] for row in statements)} lines",
        )
    if mode == ["--check"]:
        knobs = knob_rows()
        print_knobs(*knobs)
        problems = compare(json.loads(CENSUS.read_text()), census_of(unreached, statements, *knobs))
        print("\n".join(problems) or f"{CENSUS.relative_to(ROOT)} holds every entry of the five lists, and no other")
        raise SystemExit(1 if problems else 0)
