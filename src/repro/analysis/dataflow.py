"""Def-use / CFG dataflow rules for the resident-shard sync protocol (RPR03x).

The PR 6 resident shard service rests on a *convention-based* contract
between the parent simulator and its worker processes:

* every parent-side mutation of per-prefix holder state (Loc-RIB,
  Adj-RIB-In, originations of a simulator-owned router) must flow into
  a ``_last_touched`` / ``_pending_sync`` record, or workers silently
  converge on stale state;
* every mutable router-configuration surface must be fingerprinted by
  :func:`repro.routing.shard.capture_router_config`, or epoch
  invalidation misses the edit;
* no module-level mutable may be aliased by both the post-fork parent
  and the worker processes, or the two sides diverge invisibly.

This module enforces all three **at lint time**, as a dataflow layer on
top of :mod:`repro.analysis.callgraph`'s name resolution:

* :class:`ControlFlowGraph` — a statement-level intra-function CFG
  (if/loop/try/match edges, return/raise/break/continue).  Loops are
  modelled as executing their body at least once: the rules answer
  "does a *record-free* path exist", and crediting a zero-iteration
  bypass would flag every seed loop whose recording happens per
  iteration.  The under-approximation is deliberate and documented.
* per-function **def-use aliasing** — names bound from
  ``sim.routers[asn]`` / ``sim.router(asn)`` expressions become router
  handles, names bound from their ``adj_rib_in`` / ``loc_rib`` /
  ``originated`` attributes become holder-state handles, and names
  bound from ``._last_touched`` / ``._pending_sync`` expressions
  (``touched = self._last_touched.setdefault(p, set())``) become record
  handles.
* an interprocedural **always-records fixpoint** — a function that
  records on its own, or that calls one that does, counts as a record
  site at its call statements (``_apply_local`` mutates router state
  directly but records only through its ``_drive_prefix`` calls).

Rules:

* **RPR030** (unrecorded resident-state mutation): a function that
  mutates holder state through a simulator's routers must have a record
  site on every CFG path around each mutation.  The protocol primitives
  that *implement* state movement (:data:`RECORD_EXEMPT_FUNCTIONS`) are
  sanctioned.
* **RPR031** (epoch-coherence): any router attribute mutated outside
  the router's own per-prefix protocol state must be one of the fields
  :func:`capture_router_config` fingerprints — adding a policy knob
  without fingerprinting it fails CI.
* **RPR032** (fork-safety): module-level mutable state written on one
  side of the fork (worker entry points vs. parent dispatch paths) and
  accessed on the other is aliased across the process boundary —
  generalizing RPR011 from "workers write globals" to "parent and
  worker share a mutable".

Test modules (``test_*`` / ``conftest``) are exempt from RPR030/031:
tests poke protocol internals deliberately, and their enforcement is
the byte-identical sequential-vs-resident equivalence suites.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.callgraph import (
    MUTATOR_METHODS,
    WORKER_ENTRY_POINTS,
    CallGraph,
    FunctionNode,
    _local_bindings,
    _module_state_writes,
)
from repro.analysis.model import ModuleInfo, Violation
from repro.analysis.rules import Rule

#: The parent-side record containers of the residency protocol.
RECORD_ATTRS = frozenset({"_last_touched", "_pending_sync"})

#: Router attributes holding per-prefix control-plane state.
HOLDER_STATE_ATTRS = frozenset({"adj_rib_in", "loc_rib", "originated"})

#: Router methods that mutate per-prefix holder state when called.
ROUTER_STATE_MUTATORS = frozenset(
    {
        "originate",
        "withdraw_origination",
        "import_announcement",
        "process_announcement",
        "remove_announcement",
        "refresh_best",
    }
)

#: Methods that mutate a RIB / Loc-RIB / origination container in place.
RIB_MUTATORS = MUTATOR_METHODS | frozenset({"withdraw", "set_best", "set_candidates", "remove"})

#: Functions sanctioned to mutate holder state without recording: the
#: protocol primitives themselves.  ``install_prefix_state`` /
#: ``clear_prefix_state`` *are* the state channel (install replays what
#: was already recorded and shipped; clear is the epoch reset), and
#: ``_sync_worker`` runs worker-side where the parent's records do not
#: exist.
RECORD_EXEMPT_FUNCTIONS = frozenset(
    {"install_prefix_state", "clear_prefix_state", "_sync_worker"}
)

#: Router attributes that are *state*, not configuration: shipped through
#: the per-prefix state channel (``capture_prefix_state``) or with every
#: task, so ``capture_router_config`` deliberately does not fingerprint
#: them.  ``neighbor_relationships`` / ``_neighbor_order`` move with
#: session registration, which is epoch-neutral by design: collector
#: sessions never influence propagation, and harvest workers register
#: them per task (see ``_harvest_sharded``).
CONFIG_EXEMPT_ATTRS = frozenset(
    {
        "adj_rib_in",
        "loc_rib",
        "originated",
        "_neighbor_order",
        "neighbor_relationships",
        "export_community_additions",
    }
)

#: Parent-side dispatch roots: everything that runs in the parent
#: process after the pool forked.  Matched like worker entry points —
#: by dotted name, falling back to bare function name so fixture tests
#: can define their own ``apply``.
PARENT_ENTRY_POINTS: tuple[str, ...] = (
    "repro.routing.engine.BgpSimulator.apply",
    "repro.routing.stream.SimulatorService.feed",
    "repro.routing.stream.SimulatorService.drain",
    "repro.collectors.harvest.harvest_archive",
)


def _is_test_module(module: ModuleInfo) -> bool:
    """Whether ``module`` is test code (exempt from the protocol rules)."""
    leaf = module.module.rsplit(".", 1)[-1]
    return leaf.startswith("test_") or leaf == "conftest"


# ----------------------------------------------------------------- CFG builder
class _Loop:
    """Book-keeping for one enclosing loop during CFG construction."""

    __slots__ = ("header", "breaks")

    def __init__(self, header: ast.AST):
        self.header = header
        self.breaks: list[ast.AST] = []


class ControlFlowGraph:
    """Statement-level control-flow graph of one function body.

    Nodes are the function's statements (at every nesting level) plus
    the synthetic :attr:`entry` / :attr:`exit`.  ``try`` blocks are
    approximated conservatively (handlers may run after any part of the
    body) and loops are modelled as executing at least once — see the
    module docstring for why that direction is the safe one for the
    record-free-path query.
    """

    def __init__(self, function: "ast.FunctionDef | ast.AsyncFunctionDef"):
        self.entry: object = ("<entry>",)
        self.exit: object = ("<exit>",)
        self.statements: list[ast.AST] = []
        self._succ: "dict[object, list[object]]" = {self.entry: [], self.exit: []}
        frontier = self._sequence(function.body, (self.entry,), [])
        for node in frontier:
            self._edge(node, self.exit)

    def _edge(self, source: object, target: object) -> None:
        self._succ.setdefault(source, []).append(target)
        self._succ.setdefault(target, [])

    def _sequence(
        self, body: list[ast.stmt], frontier: tuple, loops: list[_Loop]
    ) -> tuple:
        for statement in body:
            if not frontier:
                break  # unreachable after return/raise/break/continue
            frontier = self._statement(statement, frontier, loops)
        return frontier

    def _statement(self, stmt: ast.stmt, frontier: tuple, loops: list[_Loop]) -> tuple:
        self.statements.append(stmt)
        for source in frontier:
            self._edge(source, stmt)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self._edge(stmt, self.exit)
            return ()
        if isinstance(stmt, ast.Break):
            if loops:
                loops[-1].breaks.append(stmt)
            else:
                self._edge(stmt, self.exit)
            return ()
        if isinstance(stmt, ast.Continue):
            if loops:
                self._edge(stmt, loops[-1].header)
            return ()
        if isinstance(stmt, ast.If):
            then_out = self._sequence(stmt.body, (stmt,), loops)
            else_out = (
                self._sequence(stmt.orelse, (stmt,), loops) if stmt.orelse else (stmt,)
            )
            return tuple(then_out) + tuple(else_out)
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            loop = _Loop(stmt)
            loops.append(loop)
            body_out = self._sequence(stmt.body, (stmt,), loops)
            loops.pop()
            for node in body_out:
                self._edge(node, stmt)  # back edge
            after = self._sequence(stmt.orelse, body_out, loops) if stmt.orelse else body_out
            exits = tuple(after) + tuple(loop.breaks)
            return exits if exits else (stmt,)
        if isinstance(stmt, ast.Try) or (
            hasattr(ast, "TryStar") and isinstance(stmt, getattr(ast, "TryStar"))
        ):
            # Treat the else block as the body's continuation; handlers
            # may run after any prefix of the body, so they start from
            # the try statement itself.
            body_out = self._sequence([*stmt.body, *stmt.orelse], (stmt,), loops)
            outs = list(body_out)
            for handler in stmt.handlers:
                outs.extend(self._sequence(handler.body, (stmt,), loops))
            if stmt.finalbody:
                outs = list(self._sequence(stmt.finalbody, tuple(outs) or (stmt,), loops))
            return tuple(outs) if outs else (stmt,)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            out = self._sequence(stmt.body, (stmt,), loops)
            return out if out else (stmt,)
        if isinstance(stmt, ast.Match):
            outs: list[object] = [stmt]  # no case may match
            for case in stmt.cases:
                outs.extend(self._sequence(case.body, (stmt,), loops))
            return tuple(outs)
        return (stmt,)

    def path_avoiding(self, source: object, target: object, blocked: set) -> bool:
        """Whether ``target`` is reachable from ``source`` avoiding ``blocked``.

        ``blocked`` nodes are skipped unless the node *is* the target
        (the caller decides whether the endpoints themselves block).
        """
        stack = [source]
        seen = {id(source)}
        while stack:
            node = stack.pop()
            if node is target:
                return True
            for successor in self._succ.get(node, ()):
                if id(successor) in seen:
                    continue
                if successor is not target and id(successor) in blocked:
                    continue
                seen.add(id(successor))
                stack.append(successor)
        return False


def _executed_parts(stmt: ast.AST) -> list[ast.AST]:
    """The sub-expressions evaluated *at* this statement (not its body).

    Compound statements contribute only their header expressions —
    their nested statements are CFG nodes of their own — and ``def`` /
    ``class`` statements contribute nothing (their bodies run later, if
    ever).
    """
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    if isinstance(stmt, ast.If):
        return [stmt.test]
    if isinstance(stmt, ast.While):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.target, stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return list(stmt.items)
    if isinstance(stmt, ast.Try) or (
        hasattr(ast, "TryStar") and isinstance(stmt, getattr(ast, "TryStar"))
    ):
        return []
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    return [stmt]


def _walk_executed(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that never descends into nested function/class bodies."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                continue
            stack.append(child)


def _chain_attrs(expr: ast.AST) -> tuple[set[str], "str | None"]:
    """Attribute names along an access chain, plus the root ``Name`` id.

    ``sim.routers[asn].loc_rib.set_best(...)``'s receiver chain yields
    ``({"routers", "loc_rib"}, "sim")`` — subscripts and calls are
    transparent (``X.routers.get(asn)`` keeps ``routers`` visible).
    """
    attrs: set[str] = set()
    current = expr
    while True:
        if isinstance(current, ast.Attribute):
            attrs.add(current.attr)
            current = current.value
        elif isinstance(current, ast.Subscript):
            current = current.value
        elif isinstance(current, ast.Call):
            current = current.func
        else:
            break
    return attrs, current.id if isinstance(current, ast.Name) else None


# --------------------------------------------------------------- alias tracking
class FunctionAliases:
    """Flow-insensitive def-use sets for one function body.

    Two passes over the assignments catch chained binds
    (``routers = sim.routers`` then ``router = routers[asn]``), matching
    the engine's own idiom depth; deeper chains would need a real
    fixpoint and have no precedent in the codebase.
    """

    def __init__(self, function: "ast.FunctionDef | ast.AsyncFunctionDef"):
        self.router_maps: set[str] = set()  # names bound to <sim>.routers
        self.routers: set[str] = set()  # names bound to one router
        self.holder_state: set[str] = set()  # names bound to a router's RIB state
        self.records: set[str] = set()  # names bound to a record container
        for _ in range(2):
            for node in _walk_executed(function):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self._classify(target.id, node.value)
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    self._classify_loop_target(node.target, node.iter)

    def _classify(self, name: str, value: ast.AST) -> None:
        attrs, root = _chain_attrs(value)
        if isinstance(value, ast.Attribute) and value.attr == "routers":
            self.router_maps.add(name)
            return
        if attrs & RECORD_ATTRS or root in self.records:
            self.records.add(name)
            return
        rooted = self.is_router_rooted(value)
        if rooted and (attrs & HOLDER_STATE_ATTRS or "_rib_in" in attrs):
            self.holder_state.add(name)
        elif rooted or root in self.router_maps:
            self.routers.add(name)

    def _classify_loop_target(self, target: ast.AST, iterable: ast.AST) -> None:
        attrs, root = _chain_attrs(iterable)
        if "routers" not in attrs and root not in self.router_maps:
            if attrs & RECORD_ATTRS or root in self.records:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        self.records.add(leaf.id)
            return
        # ``for asn, router in sim.routers.items()`` — over-approximate:
        # every bound name becomes a router handle (the non-router ones
        # never receive RIB mutations, so the imprecision is harmless).
        for leaf in ast.walk(target):
            if isinstance(leaf, ast.Name):
                self.routers.add(leaf.id)

    def is_router_rooted(self, expr: ast.AST) -> bool:
        """Whether ``expr`` reaches a simulator-owned router (def-use aware)."""
        attrs, root = _chain_attrs(expr)
        if attrs & {"router", "routers"}:
            return True
        return root in self.routers or root in self.router_maps or root in self.holder_state

    def is_record_expr(self, expr: ast.AST) -> bool:
        """Whether ``expr`` reaches a ``_last_touched``/``_pending_sync``."""
        attrs, root = _chain_attrs(expr)
        return bool(attrs & RECORD_ATTRS) or root in self.records


def _holder_mutations(
    function: "ast.FunctionDef | ast.AsyncFunctionDef", aliases: FunctionAliases
) -> Iterator[tuple[ast.AST, str]]:
    """Yield ``(site, description)`` for holder-state mutations in ``function``."""
    for node in _walk_executed(function):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            method = node.func.attr
            receiver = node.func.value
            if method in ROUTER_STATE_MUTATORS and aliases.is_router_rooted(receiver):
                yield node, f"router mutator '.{method}()'"
            elif method in RIB_MUTATORS:
                attrs, root = _chain_attrs(receiver)
                if root in aliases.holder_state or (
                    attrs & HOLDER_STATE_ATTRS and aliases.is_router_rooted(receiver)
                ):
                    yield node, f"holder-state mutator '.{method}()'"
        elif isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(
            getattr(node, "ctx", None), (ast.Store, ast.Del)
        ):
            attrs, root = _chain_attrs(node)
            if root in aliases.holder_state or (
                attrs & HOLDER_STATE_ATTRS and aliases.is_router_rooted(node)
            ):
                yield node, "holder-state store"


def _direct_records(
    function: "ast.FunctionDef | ast.AsyncFunctionDef", aliases: FunctionAliases
) -> Iterator[ast.AST]:
    """Yield record sites written directly in ``function``'s body."""
    for node in _walk_executed(function):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATOR_METHODS and aliases.is_record_expr(node.func.value):
                yield node
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            if aliases.is_record_expr(node):
                yield node


class ResidentStateRecordRule(Rule):
    """RPR030: holder-state mutations must flow into a sync record."""

    code = "RPR030"
    name = "unrecorded-resident-mutation"
    summary = (
        "a write reaching a simulator's Loc-RIB/Adj-RIB-In/origination state "
        "has a CFG path with no _last_touched/_pending_sync record: resident "
        "shard workers would silently diverge from the parent"
    )

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        return iter(())

    def check_project(self, modules: list[ModuleInfo]) -> Iterator[Violation]:
        graph = CallGraph(modules)
        aliases_of: dict[str, FunctionAliases] = {
            dotted: FunctionAliases(node.node) for dotted, node in graph.functions.items()
        }
        # Interprocedural always-records fixpoint: a call to a member
        # counts as a record site at the call statement.
        always_records: set[str] = {
            dotted
            for dotted, function in graph.functions.items()
            if any(True for _ in _direct_records(function.node, aliases_of[dotted]))
        }
        changed = True
        while changed:
            changed = False
            for dotted, function in graph.functions.items():
                if dotted in always_records:
                    continue
                for call in _walk_executed(function.node):
                    if isinstance(call, ast.Call) and any(
                        target in always_records
                        for target in graph._resolve_call(function, call)
                    ):
                        always_records.add(dotted)
                        changed = True
                        break

        for dotted, function in graph.functions.items():
            module = function.module
            if _is_test_module(module):
                continue
            if function.node.name in RECORD_EXEMPT_FUNCTIONS:
                continue
            aliases = aliases_of[dotted]
            mutations = list(_holder_mutations(function.node, aliases))
            if not mutations:
                continue
            cfg = ControlFlowGraph(function.node)
            blocked: set[int] = set()
            for statement in cfg.statements:
                if self._statement_records(statement, aliases, function, graph, always_records):
                    blocked.add(id(statement))
            statement_of = self._statement_index(cfg)
            for site, description in mutations:
                stmt = statement_of.get(id(site))
                if stmt is None or id(stmt) in blocked:
                    continue
                unrecorded_before = cfg.path_avoiding(cfg.entry, stmt, blocked)
                unrecorded_after = cfg.path_avoiding(stmt, cfg.exit, blocked)
                if unrecorded_before and unrecorded_after:
                    yield module.violation(
                        self.code,
                        site,
                        f"{description} mutates resident holder state with no "
                        "_last_touched/_pending_sync record on some path; the "
                        "shard workers would keep converging on the stale "
                        "state (record the (prefix, router) pair, or route "
                        "the write through the engine)",
                        context=module.context(function.node),
                    )

    @staticmethod
    def _statement_index(cfg: ControlFlowGraph) -> dict[int, ast.AST]:
        """Map every executed sub-expression id to its CFG statement."""
        index: dict[int, ast.AST] = {}
        for statement in cfg.statements:
            for part in _executed_parts(statement):
                for node in _walk_executed(part):
                    index[id(node)] = statement
        return index

    @staticmethod
    def _statement_records(
        statement: ast.AST,
        aliases: FunctionAliases,
        function: FunctionNode,
        graph: CallGraph,
        always_records: set[str],
    ) -> bool:
        for part in _executed_parts(statement):
            for node in _walk_executed(part):
                if isinstance(node, ast.Call):
                    if isinstance(node.func, ast.Attribute) and (
                        node.func.attr in MUTATOR_METHODS
                        and aliases.is_record_expr(node.func.value)
                    ):
                        return True
                    if any(
                        target in always_records
                        for target in graph._resolve_call(function, node)
                    ):
                        return True
                elif isinstance(node, ast.Subscript) and isinstance(
                    node.ctx, (ast.Store, ast.Del)
                ):
                    if aliases.is_record_expr(node):
                        return True
        return False


# ---------------------------------------------------------------- RPR031 rule
def _captured_attrs(capture_fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> set[str]:
    """Attribute names read inside a ``capture_router_config`` body."""
    attrs: set[str] = set()
    for node in _walk_executed(capture_fn):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
    return attrs


def _router_class_inventories(
    modules: list[ModuleInfo], captured: set[str]
) -> dict[int, set[str]]:
    """``id(ClassDef) -> self-attribute inventory`` for router-like classes.

    A class is router-like when its ``__init__`` assigns at least two of
    the captured configuration attributes to ``self`` — that is the
    class ``capture_router_config`` fingerprints, wherever it lives and
    whatever it is called (fixtures define miniatures).
    """
    inventories: dict[int, set[str]] = {}
    for module in modules:
        for klass in (n for n in module.tree.body if isinstance(n, ast.ClassDef)):
            for member in klass.body:
                if (
                    isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and member.name == "__init__"
                ):
                    inventory = {
                        leaf.attr
                        for leaf in ast.walk(member)
                        if isinstance(leaf, ast.Attribute)
                        and isinstance(leaf.ctx, ast.Store)
                        and isinstance(leaf.value, ast.Name)
                        and leaf.value.id == "self"
                    }
                    if len(inventory & captured) >= 2:
                        inventories[id(klass)] = inventory
    return inventories


class ConfigCoherenceRule(Rule):
    """RPR031: mutated router attributes must be fingerprinted or exempt."""

    code = "RPR031"
    name = "unfingerprinted-config"
    summary = (
        "a router attribute is mutated but not captured by "
        "capture_router_config (and is not per-prefix protocol state): the "
        "pool epoch would never bump, so resident workers keep the old config"
    )

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        return iter(())

    def check_project(self, modules: list[ModuleInfo]) -> Iterator[Violation]:
        capture_fns = [
            node
            for module in modules
            for node in module.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "capture_router_config"
        ]
        if not capture_fns:
            return
        captured: set[str] = set()
        for capture_fn in capture_fns:
            captured |= _captured_attrs(capture_fn)
        allowed = captured | CONFIG_EXEMPT_ATTRS
        inventories = _router_class_inventories(modules, captured)
        graph = CallGraph(modules)
        for dotted, function in graph.functions.items():
            module = function.module
            if _is_test_module(module):
                continue
            if function.node.name == "capture_router_config":
                continue
            aliases = FunctionAliases(function.node)
            enclosing = module.enclosing_defs(function.node)
            in_router_class = any(
                id(scope) in inventories
                for scope in enclosing
                if isinstance(scope, ast.ClassDef)
            ) and function.node.name != "__init__"
            for site, attr in self._config_mutations(function.node, aliases, in_router_class):
                if attr in allowed:
                    continue
                yield module.violation(
                    self.code,
                    site,
                    f"router attribute '{attr}' is mutated but never "
                    "fingerprinted by capture_router_config; a resident pool "
                    "would miss the edit (add the field to the capture, or "
                    "ship it with the task payload like "
                    "export_community_additions)",
                    context=module.context(function.node),
                )

    @staticmethod
    def _config_mutations(
        function: "ast.FunctionDef | ast.AsyncFunctionDef",
        aliases: FunctionAliases,
        in_router_class: bool,
    ) -> Iterator[tuple[ast.AST, str]]:
        def router_valued(expr: ast.AST) -> bool:
            if aliases.is_router_rooted(expr):
                return True
            return (
                in_router_class
                and isinstance(expr, ast.Name)
                and expr.id == "self"
            )

        for node in _walk_executed(function):
            if isinstance(node, ast.Attribute) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                if router_valued(node.value):
                    yield node, node.attr
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                target = node.value
                if isinstance(target, ast.Attribute) and router_valued(target.value):
                    yield node, target.attr
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr not in MUTATOR_METHODS:
                    continue
                receiver = node.func.value
                if isinstance(receiver, ast.Attribute) and router_valued(receiver.value):
                    yield node, receiver.attr


# ---------------------------------------------------------------- RPR032 rule
def _module_state_reads(function: FunctionNode) -> Iterator[tuple[ast.AST, str]]:
    """Yield ``(site, name)`` for reads of module-level names in the body."""
    node = function.node
    module = function.module
    declared_global: set[str] = set()
    for statement in ast.walk(node):
        if isinstance(statement, ast.Global):
            declared_global.update(statement.names)
    local = _local_bindings(node) - declared_global
    for leaf in ast.walk(node):
        if (
            isinstance(leaf, ast.Name)
            and isinstance(leaf.ctx, ast.Load)
            and leaf.id in module.module_level_names
            and leaf.id not in local
        ):
            yield leaf, leaf.id


class ForkAliasRule(Rule):
    """RPR032: no module-level mutable aliased across the fork boundary."""

    code = "RPR032"
    name = "fork-aliased-state"
    summary = (
        "module-level mutable state is written on one side of the fork "
        "boundary (worker entry points vs. parent dispatch paths) and "
        "accessed on the other: the two processes silently hold diverging "
        "copies"
    )

    def __init__(
        self,
        worker_entry_points: tuple[str, ...] = WORKER_ENTRY_POINTS,
        parent_entry_points: tuple[str, ...] = PARENT_ENTRY_POINTS,
    ):
        self.worker_entry_points = worker_entry_points
        self.parent_entry_points = parent_entry_points

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        return iter(())

    def check_project(self, modules: list[ModuleInfo]) -> Iterator[Violation]:
        graph = CallGraph(modules)
        workers = graph.reachable_from(self.worker_entry_points)
        parents = graph.reachable_from(self.parent_entry_points)

        def state_key(function: FunctionNode, name: str) -> tuple[str, str]:
            return (function.module.display_path, name)

        worker_writes: set[tuple[str, str]] = set()
        for function in workers:
            for _site, name in _module_state_writes(function):
                worker_writes.add(state_key(function, name))
        parent_writes: set[tuple[str, str]] = set()
        for function in parents:
            for _site, name in _module_state_writes(function):
                parent_writes.add(state_key(function, name))
        worker_accesses = set(worker_writes)
        for function in workers:
            for _site, name in _module_state_reads(function):
                worker_accesses.add(state_key(function, name))

        # Anchor every finding at a parent-side access so one inline
        # noqa covers the shared name, not each of
        # the worker-side writes RPR011 already reports.
        reported: set[tuple[str, str, str]] = set()
        for function in parents:
            accesses: list[tuple[ast.AST, str, str]] = [
                (site, name, "reads") for site, name in _module_state_reads(function)
            ] + [(site, name, "writes") for site, name in _module_state_writes(function)]
            for site, name, verb in accesses:
                key = state_key(function, name)
                crossed = (
                    key in worker_writes
                    or (verb == "writes" and key in worker_accesses)
                )
                if not crossed:
                    continue
                context = function.module.context(function.node)
                fingerprint = (key[0], key[1], context)
                if fingerprint in reported:
                    continue
                reported.add(fingerprint)
                yield function.module.violation(
                    self.code,
                    site,
                    f"parent-side code {verb} module-level state '{name}' that "
                    "worker-reachable code also touches; after the fork the "
                    "two processes hold independent copies, so the alias "
                    "silently diverges (move the state into the task payload "
                    "or a per-side object)",
                    context=context,
                )


#: The dataflow project rules, in code order.
DATAFLOW_RULES: tuple[Rule, ...] = (
    ResidentStateRecordRule(),
    ConfigCoherenceRule(),
    ForkAliasRule(),
)
