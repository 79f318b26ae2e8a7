"""Core data model of the lint engine: violations, parsed modules, suppressions.

A :class:`ModuleInfo` is one parsed source file plus the derived views
every rule needs — parent links, enclosing-scope qualnames, the
module's import tables, module-level assignment targets, and the inline
``# repro: noqa[...]`` suppression map.  Rules never re-parse or
re-walk for this bookkeeping; they receive the finished ``ModuleInfo``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

#: Inline suppression syntax: ``# repro: noqa[RPR001]: reason text`` —
#: one or more comma-separated codes, and a *required* human reason.
NOQA_PATTERN = re.compile(
    r"#\s*repro:\s*noqa\[(?P<codes>[A-Za-z0-9_,\s]*)\]"
    r"(?:\s*:\s*(?P<reason>.*\S))?\s*$"
)


@dataclass(frozen=True)
class Violation:
    """One rule finding at one source location."""

    code: str
    path: str
    line: int
    column: int
    context: str
    message: str

    def render(self) -> str:
        """The one-line ``path:line:col: CODE message`` form."""
        return f"{self.path}:{self.line}:{self.column}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        """JSON-serializable form (``--json`` output)."""
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "context": self.context,
            "message": self.message,
        }


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro: noqa[...]`` comment."""

    line: int
    codes: tuple[str, ...]
    reason: str

    def covers(self, code: str) -> bool:
        """Whether this suppression names ``code``."""
        return code in self.codes


@dataclass
class ModuleInfo:
    """A parsed source file plus the derived views rules consume."""

    path: Path
    display_path: str
    module: str
    source: str
    tree: ast.Module
    #: child AST node -> parent AST node, for the whole tree.
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)
    #: ``import x as y`` table (anywhere in the file): alias -> module.
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: ``from m import x as y`` table: alias -> "m.x".
    from_imports: dict[str, str] = field(default_factory=dict)
    #: Names assigned at module scope (module-level mutable state).
    module_level_names: set[str] = field(default_factory=set)
    #: line -> suppression parsed from that physical line.
    suppressions: dict[int, Suppression] = field(default_factory=dict)
    #: Lines holding a ``noqa`` comment with no codes or no reason text.
    malformed_suppressions: list[int] = field(default_factory=list)
    _qualname_cache: dict[int, str] = field(default_factory=dict)
    _node_index: "dict[type, list[ast.AST]] | None" = field(default=None, repr=False)

    # ---------------------------------------------------------- shared walks
    def nodes(self, kind) -> list[ast.AST]:
        """All nodes of ``kind`` (a type or tuple of types).

        The index is built with **one** ``ast.walk`` on first use and
        shared by every rule, so a lint run walks each tree once instead
        of once per rule.  Single-type requests keep ``ast.walk`` order
        (what :func:`iter_nodes` produced); tuple requests merge the
        per-type buckets into source order.
        """
        if self._node_index is None:
            index: dict[type, list[ast.AST]] = {}
            for node in ast.walk(self.tree):
                index.setdefault(type(node), []).append(node)
            self._node_index = index
        if isinstance(kind, tuple):
            merged: list[ast.AST] = []
            for one in kind:
                merged.extend(self._node_index.get(one, ()))
            merged.sort(key=lambda node: (getattr(node, "lineno", 0), getattr(node, "col_offset", 0)))
            return merged
        return self._node_index.get(kind, [])

    # ------------------------------------------------------------- scope views
    def enclosing_defs(self, node: ast.AST) -> list[ast.AST]:
        """Def/class chain from outermost to innermost around ``node``."""
        chain: list[ast.AST] = []
        current = self.parents.get(node)
        while current is not None:
            if isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                chain.append(current)
            current = self.parents.get(current)
        chain.reverse()
        return chain

    def enclosing_function(self, node: ast.AST) -> "ast.FunctionDef | ast.AsyncFunctionDef | None":
        """Innermost function containing ``node`` (None at module scope)."""
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = self.parents.get(current)
        return None

    def context(self, node: ast.AST) -> str:
        """Dotted qualname of the scope holding ``node`` (``<module>`` at top)."""
        cached = self._qualname_cache.get(id(node))
        if cached is not None:
            return cached
        chain = self.enclosing_defs(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            chain = chain + [node]
        name = ".".join(part.name for part in chain) or "<module>"
        self._qualname_cache[id(node)] = name
        return name

    def violation(
        self, code: str, node: ast.AST, message: str, context: "str | None" = None
    ) -> Violation:
        """Build a violation anchored at ``node``."""
        return Violation(
            code=code,
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            context=context if context is not None else self.context(node),
            message=message,
        )


def _link_parents(tree: ast.Module) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents


def _collect_imports(tree: ast.Module) -> tuple[dict[str, str], dict[str, str]]:
    """All import tables, wherever the import statement appears.

    Function-local imports (the repo's import-cycle-avoidance idiom)
    count: a rule resolving ``shard_module._run_shard`` must know
    ``shard_module`` names :mod:`repro.routing.shard` even when the
    binding happens inside the calling function.
    """
    aliases: dict[str, str] = {}
    from_imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = name.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                if name.name == "*":
                    continue
                from_imports[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases, from_imports


def _collect_module_level_names(tree: ast.Module) -> set[str]:
    """Names bound by assignment statements at module scope."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


def parse_suppressions(source: str) -> tuple[dict[int, Suppression], list[int]]:
    """Parse inline suppressions; also return lines with a missing reason."""
    suppressions: dict[int, Suppression] = {}
    missing_reason: list[int] = []
    for number, line in enumerate(source.splitlines(), start=1):
        match = NOQA_PATTERN.search(line)
        if match is None:
            continue
        codes = tuple(
            code.strip().upper() for code in match.group("codes").split(",") if code.strip()
        )
        reason = (match.group("reason") or "").strip()
        if not codes or not reason:
            missing_reason.append(number)
            continue
        suppressions[number] = Suppression(line=number, codes=codes, reason=reason)
    return suppressions, missing_reason


def module_name_for(path: Path) -> str:
    """Best-effort dotted module name (``src`` layout aware)."""
    parts = list(path.with_suffix("").parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or path.stem


def build_module(path: Path, display_path: str) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo` (raises ``SyntaxError``)."""
    return module_from_source(path.read_text(encoding="utf-8"), path, display_path)


def module_from_source(source: str, path: Path, display_path: str) -> ModuleInfo:
    """Build a :class:`ModuleInfo` from in-memory source (test snippets)."""
    tree = ast.parse(source, filename=str(path))
    aliases, from_imports = _collect_imports(tree)
    suppressions, malformed = parse_suppressions(source)
    return ModuleInfo(
        path=path,
        display_path=display_path,
        module=module_name_for(path),
        source=source,
        tree=tree,
        parents=_link_parents(tree),
        module_aliases=aliases,
        from_imports=from_imports,
        module_level_names=_collect_module_level_names(tree),
        suppressions=suppressions,
        malformed_suppressions=malformed,
    )


def iter_nodes(tree: ast.AST, kind) -> Iterator[ast.AST]:
    """``ast.walk`` filtered to one node type (or tuple of types)."""
    for node in ast.walk(tree):
        if isinstance(node, kind):
            yield node
