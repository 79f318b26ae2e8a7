"""Lint engine: file discovery, rule execution, suppressions, reporting.

This is the orchestration layer behind ``repro-bgp lint`` and
``python -m repro.analysis``: it walks the given paths, parses each
file once into a :class:`~repro.analysis.model.ModuleInfo`, runs the
per-module rules and the project-wide call-graph rules, then applies
inline ``# repro: noqa[CODE]: reason`` suppressions before rendering.

Exit codes: ``0`` clean (possibly via inline suppressions), ``1``
violations remain, ``2`` the lint configuration itself is broken
(unreadable path, unknown rule code, empty ``--select``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence, TextIO

from repro.analysis.callgraph import PROJECT_RULES
from repro.analysis.dataflow import DATAFLOW_RULES
from repro.analysis.model import ModuleInfo, Violation, build_module, module_from_source
from repro.analysis.rules import MODULE_RULES, Rule

#: Integrity findings (parse failures, malformed suppressions) that are
#: not produced by a rule object.
INTEGRITY_CODE = "RPR000"

#: Every project-wide rule: the call-graph purity rule plus the
#: sync-protocol dataflow rules (RPR030-032).
ALL_PROJECT_RULES: tuple[Rule, ...] = (*PROJECT_RULES, *DATAFLOW_RULES)

#: Directory names never descended into during discovery.
SKIPPED_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules", "build", "dist"})


def all_rules() -> list[Rule]:
    """Every registered rule, in code order."""
    return sorted([*MODULE_RULES, *ALL_PROJECT_RULES], key=lambda rule: rule.code)


def known_codes() -> set[str]:
    """All valid rule codes (including the integrity pseudo-code)."""
    return {rule.code for rule in all_rules()} | {INTEGRITY_CODE}


class LintConfigError(ValueError):
    """The lint invocation itself is invalid (exit code 2)."""


@dataclass
class LintReport:
    """The outcome of one lint run."""

    violations: list[Violation] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        counts = f"{len(self.violations)} violation(s) in {self.files_checked} file(s)"
        return counts + (f" ({self.suppressed} suppressed inline)" if self.suppressed else "")

    def to_dict(self) -> dict:
        return {
            "violations": [violation.to_dict() for violation in self.violations],
            "summary": {
                "files_checked": self.files_checked,
                "violations": len(self.violations),
                "suppressed": self.suppressed,
                "ok": self.ok,
            },
        }


# ------------------------------------------------------------------ discovery
def _display_path(path: Path) -> str:
    """Path as printed: cwd-relative, POSIX separators."""
    try:
        relative = path.resolve().relative_to(Path.cwd().resolve())
        return relative.as_posix()
    except ValueError:
        return path.as_posix()


def discover_files(paths: Sequence[str]) -> list[Path]:
    """Expand the CLI path arguments into a sorted list of source files.

    Directories are walked recursively for ``*.py``; explicit file
    arguments are taken verbatim (any extension — that is how the rule
    fixtures, shipped as ``.py_`` so discovery skips them, get linted).
    """
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            files.append(path)
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                parts = set(candidate.parts)
                if parts & SKIPPED_DIRS or any(
                    part.startswith(".") for part in candidate.parts
                ):
                    continue
                files.append(candidate)
        else:
            raise LintConfigError(f"path does not exist: {raw}")
    unique: dict[str, Path] = {}
    for path in files:
        unique.setdefault(path.as_posix(), path)
    return [unique[key] for key in sorted(unique)]


def _select_codes(raw: "Sequence[str] | None") -> "set[str] | None":
    if not raw:
        return None
    codes: set[str] = set()
    for chunk in raw:
        codes.update(code.strip().upper() for code in chunk.split(",") if code.strip())
    if not codes:
        raise LintConfigError(f"no rule code in {raw!r}; name at least one, e.g. RPR001")
    unknown = {
        code for code in codes if not any(known.startswith(code) for known in known_codes())
    }
    if unknown:
        raise LintConfigError(
            f"unknown rule code(s) {sorted(unknown)}; known: {sorted(known_codes())}"
        )
    return codes


def _code_matches(code: str, selectors: "set[str] | None") -> bool:
    if selectors is None:
        return False
    return any(code.startswith(selector) for selector in selectors)


# ------------------------------------------------------------------- core run
def lint_paths(
    paths: Sequence[str],
    select: "Sequence[str] | None" = None,
    ignore: "Sequence[str] | None" = None,
) -> LintReport:
    """Run every rule over ``paths`` and return the filtered report."""
    selected = _select_codes(select)
    ignored = _select_codes(ignore)
    report = LintReport()
    modules: list[ModuleInfo] = []
    raw_violations: list[Violation] = []
    for path in discover_files(paths):
        display = _display_path(path)
        report.files_checked += 1
        try:
            module = build_module(path, display)
        except (SyntaxError, ValueError) as exc:
            detail = getattr(exc, "msg", None) or str(exc)
            raw_violations.append(
                Violation(
                    code=INTEGRITY_CODE,
                    path=display,
                    line=getattr(exc, "lineno", 1) or 1,
                    column=(getattr(exc, "offset", 0) or 0) + 1,
                    context="<module>",
                    message=f"file does not parse: {detail}",
                )
            )
            continue
        modules.append(module)
        for line in module.malformed_suppressions:
            raw_violations.append(
                Violation(
                    code=INTEGRITY_CODE,
                    path=display,
                    line=line,
                    column=1,
                    context="<module>",
                    message=(
                        "malformed suppression: the syntax is "
                        "'# repro: noqa[RPR0xx]: reason' and the reason text "
                        "is required"
                    ),
                )
            )
        for rule in MODULE_RULES:
            raw_violations.extend(rule.check(module))
    for project_rule in ALL_PROJECT_RULES:
        raw_violations.extend(project_rule.check_project(modules))

    # --select / --ignore filtering (integrity findings always survive
    # --select so a broken file cannot slip through a narrow run).
    filtered: list[Violation] = []
    for violation in raw_violations:
        if violation.code != INTEGRITY_CODE:
            if selected is not None and not _code_matches(violation.code, selected):
                continue
            if _code_matches(violation.code, ignored):
                continue
        filtered.append(violation)

    # Inline suppressions: a matching noqa (with reason) on the
    # violation's own line wins.
    suppression_maps = {module.display_path: module.suppressions for module in modules}
    unsuppressed: list[Violation] = []
    for violation in filtered:
        suppression = suppression_maps.get(violation.path, {}).get(violation.line)
        if suppression is not None and suppression.covers(violation.code):
            report.suppressed += 1
        else:
            unsuppressed.append(violation)

    report.violations = sorted(
        unsuppressed,
        key=lambda violation: (violation.path, violation.line, violation.column, violation.code),
    )
    return report


def lint_source(source: str, filename: str = "<snippet>") -> list[Violation]:
    """Lint one in-memory snippet with every rule (test/fixture helper)."""
    module = module_from_source(source, Path(filename), filename)
    violations: list[Violation] = []
    for rule in MODULE_RULES:
        violations.extend(rule.check(module))
    for project_rule in ALL_PROJECT_RULES:
        violations.extend(project_rule.check_project([module]))
    return sorted(violations, key=lambda violation: (violation.line, violation.code))


# ------------------------------------------------------------------ rendering
def render_text(report: LintReport, stream: TextIO) -> None:
    for violation in report.violations:
        print(violation.render(), file=stream)
    print(report.summary(), file=stream)


def _github_escape(value: str, *, property: bool = False) -> str:
    """Escape per GitHub's workflow-command rules (`%`/newlines; `,`/`:`)."""
    value = value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    if property:
        value = value.replace(":", "%3A").replace(",", "%2C")
    return value


def render_github(report: LintReport, stream: TextIO) -> None:
    """GitHub Actions workflow commands: inline PR annotations.

    Violations become ``::error`` annotations anchored at file/line/col.
    """
    for violation in report.violations:
        location = (
            f"file={_github_escape(violation.path, property=True)},"
            f"line={violation.line},col={violation.column},"
            f"title={_github_escape(violation.code, property=True)}"
        )
        message = _github_escape(f"[{violation.context}] {violation.message}")
        print(f"::error {location}::{message}", file=stream)
    print(report.summary(), file=stream)


# ------------------------------------------------------------------------ CLI
def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the shared ``lint`` arguments on ``parser``."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument("--json", action="store_true", help="print the report as JSON")
    parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        dest="format",
        help=(
            "report format: 'text' (one line per finding) or 'github' "
            "(::error workflow-command annotations for inline PR review)"
        ),
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="CODES",
        help="only run these rule codes / prefixes (comma-separated, repeatable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="CODES",
        help="skip these rule codes / prefixes (comma-separated, repeatable)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="describe every rule code and exit"
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed ``lint`` invocation; returns the exit code."""
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code} [{rule.name}] {rule.summary}")
        print(
            f"{INTEGRITY_CODE} [lint-integrity] unparseable file or malformed "
            "'# repro: noqa[...]' suppression (reason text is required)"
        )
        return 0
    try:
        report = lint_paths(args.paths, select=args.select, ignore=args.ignore)
    except LintConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    elif getattr(args, "format", "text") == "github":
        render_github(report, sys.stdout)
    else:
        render_text(report, sys.stdout)
    return 0 if report.ok else 1


def main(argv: "list[str] | None" = None) -> int:
    """Standalone entry point (``python -m repro.analysis``)."""
    parser = argparse.ArgumentParser(
        prog="repro-bgp lint",
        description=(
            "Project-specific static analysis: determinism, pickle-safety and "
            "shard-purity invariants, enforced mechanically."
        ),
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))
