"""The per-module lint rules (RPR001-RPR021, minus the call-graph rule).

Each rule is one :class:`Rule` subclass with a stable code; rules are
pure functions of a :class:`~repro.analysis.model.ModuleInfo` and emit
:class:`~repro.analysis.model.Violation` values.  The invariants they
enforce are the ones the whole reproduction rests on (byte-identical
sharded results, reproducible topologies, lossless archives):

* **Determinism** — ``RPR001`` builtin ``hash()`` outside sanctioned
  contexts (shard placement, wire formats and cache keys must use the
  stable mixes in :mod:`repro.routing.shard`); ``RPR002`` unseeded
  randomness / wall clocks instead of
  :class:`~repro.utils.rand.DeterministicRng` or an injected timestamp;
  ``RPR003`` iterating an unordered ``set`` into an ordered output.
* **Multiprocessing safety** — ``RPR010`` non-module-level callables at
  pool submit sites (worker functions must pickle by qualified name).
* **Immutability discipline** — ``RPR020`` raw ``object.__setattr__``
  outside ``__post_init__`` / the sanctioned cache setter
  (:func:`repro.utils.frozen.set_frozen_field`); ``RPR021`` cached
  ``_hash`` on classes declaring mutable fields.

The rules are static heuristics: they over-approximate on purpose and
rely on inline ``# repro: noqa[CODE]: reason`` suppressions for the
(rare, justified) exceptions.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.model import ModuleInfo, Violation

#: Function names allowed to call ``hash()`` on their own fields: the
#: value-object hashing idiom (cached in ``__post_init__`` or computed
#: lazily in ``__hash__``) keys in-process containers only.
HASH_SANCTIONED_CONTEXTS = frozenset({"__hash__", "__post_init__"})

#: Function names allowed to call ``object.__setattr__`` directly:
#: dataclass construction hooks plus the registered cache setters.
SETATTR_SANCTIONED_CONTEXTS = frozenset({"__post_init__", "set_frozen_field", "_set_cached"})

#: Fully qualified callables RPR002 rejects in simulation/worker code.
NONDETERMINISTIC_CALLS = frozenset(
    {
        "uuid.uuid1",
        "uuid.uuid4",
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: ``random`` attributes that are *not* violations: explicitly seeded
#: generator construction is exactly the sanctioned pattern
#: (``DeterministicRng`` wraps ``random.Random``).
RANDOM_SANCTIONED = frozenset({"Random", "getstate", "setstate", "seed"})

#: Order-insensitive consumers: a set iterated straight into one of
#: these cannot leak iteration order into an output.
ORDER_FREE_CONSUMERS = frozenset(
    {"sum", "min", "max", "any", "all", "len", "set", "frozenset", "sorted", "Counter"}
)

#: Method calls that make a ``for`` body ordering-sensitive (they grow
#: an ordered container or emit output in loop order).
ORDER_SENSITIVE_METHODS = frozenset(
    {"append", "extend", "insert", "write", "writelines", "add_row", "put"}
)

#: Set-returning methods: ``a.union(b)`` is as unordered as ``a | b``.
SET_RETURNING_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)

#: Set methods whose result ignores argument order: feeding a set
#: iteration into ``known_set.update(...)`` cannot leak ordering.
SET_ORDER_FREE_METHODS = frozenset(
    {
        "update",
        "union",
        "intersection",
        "difference",
        "symmetric_difference",
        "intersection_update",
        "difference_update",
        "symmetric_difference_update",
        "isdisjoint",
        "issubset",
        "issuperset",
    }
)

#: Annotation names that mark a value as a set for RPR003 inference.
SET_ANNOTATIONS = frozenset({"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"})

#: Mutable builtin annotations for RPR021's field scan.
MUTABLE_ANNOTATIONS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "List",
        "Dict",
        "Set",
        "DefaultDict",
        "Deque",
        "Counter",
        "MutableMapping",
        "MutableSequence",
        "MutableSet",
    }
)


class Rule:
    """One lint rule: a stable code plus a per-module check."""

    code: str = "RPR???"
    name: str = ""
    summary: str = ""

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        raise NotImplementedError


# --------------------------------------------------------------- determinism
def _annotation_names(annotation: "ast.AST | None") -> set[str]:
    """*Outermost* names of an annotation (``dict[str, set[int]]`` -> dict).

    Only the container itself determines the value's iteration
    behaviour; descending into type arguments would infer ``set`` for a
    dict of sets.  Union members (``X | Y``, string or real) all count.
    """
    if annotation is None:
        return set()
    if isinstance(annotation, ast.Name):
        return {annotation.id}
    if isinstance(annotation, ast.Subscript):
        return _annotation_names(annotation.value)
    if isinstance(annotation, ast.Attribute):
        return {annotation.attr}
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _annotation_names(annotation.left) | _annotation_names(annotation.right)
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        names: set[str] = set()
        for part in annotation.value.split("|"):
            names.add(part.split("[")[0].strip())
        return names
    return set()


def _declared_str_names(function: "ast.FunctionDef | ast.AsyncFunctionDef | None") -> set[str]:
    """Names annotated ``str``/``bytes`` in the enclosing function."""
    if function is None:
        return set()
    names: set[str] = set()
    args = function.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if _annotation_names(arg.annotation) & {"str", "bytes"}:
            names.add(arg.arg)
    for node in ast.walk(function):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if _annotation_names(node.annotation) & {"str", "bytes"}:
                names.add(node.target.id)
    return names


def _string_bearing(node: ast.AST, str_names: set[str]) -> bool:
    """Whether an expression obviously produces or contains str/bytes."""
    for leaf in ast.walk(node):
        if isinstance(leaf, ast.Constant) and isinstance(leaf.value, (str, bytes)):
            return True
        if isinstance(leaf, ast.JoinedStr):
            return True
        if isinstance(leaf, ast.Name) and leaf.id in str_names:
            return True
        if isinstance(leaf, ast.Call):
            func = leaf.func
            if isinstance(func, ast.Name) and func.id in {"str", "repr", "format", "ascii"}:
                return True
            if isinstance(func, ast.Attribute) and func.attr in {
                "encode",
                "decode",
                "format",
                "join",
            }:
                return True
    return False


class BuiltinHashRule(Rule):
    """RPR001: builtin ``hash()`` where a stable mix is required."""

    code = "RPR001"
    name = "builtin-hash"
    summary = (
        "builtin hash() outside __hash__/__post_init__, or over str/bytes anywhere: "
        "shard placement, wire formats and cache keys need the stable mixes "
        "(repro.routing.shard.stable_shard / stable_asn_shard)"
    )

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        for call in module.nodes(ast.Call):
            func = call.func
            if not (isinstance(func, ast.Name) and func.id == "hash"):
                continue
            enclosing = module.enclosing_function(call)
            context_name = enclosing.name if enclosing is not None else "<module>"
            str_names = _declared_str_names(enclosing)
            stringy = any(_string_bearing(arg, str_names) for arg in call.args)
            if stringy:
                yield module.violation(
                    self.code,
                    call,
                    "builtin hash() over str/bytes is salted per process "
                    "(PYTHONHASHSEED); mix the bytes explicitly or use "
                    "stable_shard/stable_asn_shard",
                )
            elif context_name not in HASH_SANCTIONED_CONTEXTS:
                yield module.violation(
                    self.code,
                    call,
                    "builtin hash() outside __hash__/__post_init__; values that "
                    "feed placement, wire formats or cache keys must use a "
                    "stable, process-independent mix",
                )


class NondeterministicSourceRule(Rule):
    """RPR002: unseeded randomness or wall clocks in simulation code."""

    code = "RPR002"
    name = "nondeterministic-source"
    summary = (
        "random.*/uuid4/time.time/datetime.now in simulation or worker paths: "
        "draw through DeterministicRng or take the timestamp as a parameter"
    )

    def _resolve(self, module: ModuleInfo, func: ast.AST) -> "str | None":
        """Dotted name of the called object, through the import tables."""
        if isinstance(func, ast.Name):
            return module.from_imports.get(func.id)
        if isinstance(func, ast.Attribute):
            parts: list[str] = [func.attr]
            value = func.value
            while isinstance(value, ast.Attribute):
                parts.append(value.attr)
                value = value.value
            if not isinstance(value, ast.Name):
                return None
            root = value.id
            if root in module.module_aliases:
                parts.append(module.module_aliases[root])
            elif root in module.from_imports:
                parts.append(module.from_imports[root])
            else:
                return None
            return ".".join(reversed(parts))
        return None

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        for call in module.nodes(ast.Call):
            dotted = self._resolve(module, call.func)
            if dotted is None:
                continue
            if dotted.startswith("random."):
                if dotted.split(".", 1)[1] in RANDOM_SANCTIONED:
                    continue
                message = (
                    f"'{dotted}' draws from shared, unseeded process state; "
                    "use DeterministicRng (repro.utils.rand) so runs reproduce"
                )
            elif dotted in NONDETERMINISTIC_CALLS:
                message = (
                    f"'{dotted}' is nondeterministic run-to-run; inject the "
                    "value (seeded rng / timestamp parameter) instead"
                )
            else:
                continue
            yield module.violation(self.code, call, message)


class SetIterationRule(Rule):
    """RPR003: unordered set iteration feeding an ordered output."""

    code = "RPR003"
    name = "unordered-iteration"
    summary = (
        "iterating a bare set into an ordered output (list, dict, yield, "
        "emitted rows): merge/export paths must be sorted-or-insertion-ordered"
    )

    _MESSAGE = (
        "iteration over an unordered set feeds an ordered output; wrap the "
        "set in sorted(...) (merge/export paths must be order-stable)"
    )

    def _set_names_in(self, scope: ast.AST) -> set[str]:
        """Flow-insensitive inference within one scope: names bound to sets.

        The walk stays inside ``scope`` (nested function bodies are their
        own scopes) so a ``prefixes = set(...)`` in one function cannot
        taint an unrelated ``prefixes`` list in another.
        """
        names: set[str] = set()

        def iter_scope(node: ast.AST):
            yield node
            for child in ast.iter_child_nodes(node):
                if child is not node and isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                yield from iter_scope(child)

        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if _annotation_names(arg.annotation) & SET_ANNOTATIONS:
                    names.add(arg.arg)
        for _ in range(2):  # one refinement pass catches chained assigns
            for node in iter_scope(scope):
                if isinstance(node, ast.Assign) and self._is_set_expr(node.value, names):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    if _annotation_names(node.annotation) & SET_ANNOTATIONS:
                        names.add(node.target.id)
        return names

    def _is_set_expr(self, node: ast.AST, set_names: set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
                return True
            if isinstance(func, ast.Attribute) and func.attr in SET_RETURNING_METHODS:
                return self._is_set_expr(func.value, set_names)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left, set_names) or self._is_set_expr(
                node.right, set_names
            )
        return False

    def _ordering_sensitive_body(self, loop: ast.For) -> bool:
        """Whether the loop body visibly emits in iteration order."""
        for statement in loop.body + loop.orelse:
            for node in ast.walk(statement):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    return True
                if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Subscript) for target in node.targets
                ):
                    return True
                if isinstance(node, ast.AugAssign):
                    return True
                if isinstance(node, ast.Call):
                    func = node.func
                    if isinstance(func, ast.Name) and func.id == "print":
                        return True
                    if isinstance(func, ast.Attribute) and func.attr in ORDER_SENSITIVE_METHODS:
                        return True
        return False

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        module_names = self._set_names_in(module.tree)
        scope_cache: dict[int, set[str]] = {}

        def names_for(node: ast.AST) -> set[str]:
            scope = module.enclosing_function(node)
            if scope is None:
                return module_names
            cached = scope_cache.get(id(scope))
            if cached is None:
                cached = self._set_names_in(scope) | module_names
                scope_cache[id(scope)] = cached
            return cached

        for node in ast.walk(module.tree):
            set_names = names_for(node)
            if isinstance(node, ast.For):
                if self._is_set_expr(node.iter, set_names) and self._ordering_sensitive_body(
                    node
                ):
                    yield module.violation(self.code, node.iter, self._MESSAGE)
            elif isinstance(node, (ast.ListComp, ast.DictComp)):
                if any(
                    self._is_set_expr(gen.iter, set_names) for gen in node.generators
                ):
                    yield module.violation(self.code, node, self._MESSAGE)
            elif isinstance(node, ast.GeneratorExp):
                if not any(
                    self._is_set_expr(gen.iter, set_names) for gen in node.generators
                ):
                    continue
                parent = module.parents.get(node)
                if isinstance(parent, ast.Call):
                    func = parent.func
                    if isinstance(func, ast.Name) and func.id in ORDER_FREE_CONSUMERS:
                        continue
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in SET_ORDER_FREE_METHODS
                        and self._is_set_expr(func.value, set_names)
                    ):
                        continue
                yield module.violation(self.code, node, self._MESSAGE)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in {"list", "tuple", "enumerate"}
                    and len(node.args) >= 1
                    and self._is_set_expr(node.args[0], set_names)
                ):
                    yield module.violation(self.code, node, self._MESSAGE)


# ------------------------------------------------------ multiprocessing safety
class SubmitCallableRule(Rule):
    """RPR010: non-module-level callables shipped to worker pools."""

    code = "RPR010"
    name = "unpicklable-submit"
    summary = (
        "lambda / closure / bound method at a ShardPool or ProcessPoolExecutor "
        "submit site: worker callables must be module-level (pickled by name)"
    )

    def _nested_function_names(
        self, function: "ast.FunctionDef | ast.AsyncFunctionDef | None"
    ) -> set[str]:
        if function is None:
            return set()
        names: set[str] = set()
        for node in ast.walk(function):
            if node is function:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
        return names

    def _check_callable_arg(
        self, module: ModuleInfo, call: ast.Call, arg: ast.AST, nested: set[str]
    ) -> Iterator[Violation]:
        # Lambdas anywhere in the payload can never pickle.
        for leaf in ast.walk(arg):
            if isinstance(leaf, ast.Lambda):
                yield module.violation(
                    self.code,
                    leaf,
                    "lambda shipped to a worker pool cannot pickle; define a "
                    "module-level function",
                )
                return
        if isinstance(arg, ast.Name) and arg.id in nested:
            yield module.violation(
                self.code,
                arg,
                f"closure-local function '{arg.id}' shipped to a worker pool; "
                "move it to module level so it pickles by qualified name",
            )
        elif isinstance(arg, ast.Attribute):
            value = arg.value
            while isinstance(value, ast.Attribute):
                value = value.value
            if isinstance(value, ast.Name) and (
                value.id in module.module_aliases or value.id in module.from_imports
            ):
                return  # module.func: picklable by qualified name
            yield module.violation(
                self.code,
                arg,
                f"bound method or attribute '{ast.unparse(arg)}' shipped to a "
                "worker pool; pass a module-level function instead",
            )

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        for call in module.nodes(ast.Call):
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr == "submit":
                nested = self._nested_function_names(module.enclosing_function(call))
                for arg in [*call.args, *[kw.value for kw in call.keywords]]:
                    yield from self._check_callable_arg(module, call, arg, nested)
            elif (
                isinstance(func, ast.Name)
                and func.id in {"ProcessPoolExecutor", "ShardPool"}
            ) or (
                isinstance(func, ast.Attribute)
                and func.attr in {"ProcessPoolExecutor", "ShardPool"}
            ):
                for keyword in call.keywords:
                    if keyword.arg in {"initializer", "initargs"}:
                        for leaf in ast.walk(keyword.value):
                            if isinstance(leaf, ast.Lambda):
                                yield module.violation(
                                    self.code,
                                    leaf,
                                    "lambda as a pool initializer cannot pickle; "
                                    "define a module-level function",
                                )


# ------------------------------------------------------ immutability discipline
class FrozenSetattrRule(Rule):
    """RPR020: raw ``object.__setattr__`` outside sanctioned contexts."""

    code = "RPR020"
    name = "raw-frozen-setattr"
    summary = (
        "object.__setattr__ outside __post_init__ / a registered cache setter: "
        "route frozen-field writes through repro.utils.frozen.set_frozen_field"
    )

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        for call in module.nodes(ast.Call):
            func = call.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr == "__setattr__"
                and isinstance(func.value, ast.Name)
                and func.value.id == "object"
            ):
                continue
            enclosing = module.enclosing_function(call)
            context_name = enclosing.name if enclosing is not None else "<module>"
            if context_name in SETATTR_SANCTIONED_CONTEXTS:
                continue
            yield module.violation(
                self.code,
                call,
                "raw object.__setattr__ on a frozen instance outside "
                "__post_init__ or a sanctioned cache setter; use "
                "repro.utils.frozen.set_frozen_field",
            )


class CachedHashMutableFieldRule(Rule):
    """RPR021: cached ``_hash`` on a class with mutable fields."""

    code = "RPR021"
    name = "cached-hash-mutable-field"
    summary = (
        "class caches a _hash but declares a mutable field (list/dict/set/...): "
        "a mutation would silently desynchronise the cached hash"
    )

    def _caches_hash(self, klass: ast.ClassDef) -> bool:
        for node in ast.walk(klass):
            if isinstance(node, ast.Constant) and node.value == "_hash":
                return True
            if isinstance(node, ast.Attribute) and node.attr == "_hash":
                return True
            if (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id == "_hash"
            ):
                return True
        return False

    def _mutable_fields(self, klass: ast.ClassDef) -> Iterable[tuple[str, str]]:
        for statement in klass.body:
            if not (
                isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
            ):
                continue
            mutable = _annotation_names(statement.annotation) & MUTABLE_ANNOTATIONS
            if not mutable and isinstance(statement.value, ast.Call):
                for keyword in statement.value.keywords:
                    if (
                        keyword.arg == "default_factory"
                        and isinstance(keyword.value, ast.Name)
                        and keyword.value.id in {"list", "dict", "set"}
                    ):
                        mutable = {keyword.value.id}
            if mutable:
                yield statement.target.id, sorted(mutable)[0]

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        for klass in module.nodes(ast.ClassDef):
            if not self._caches_hash(klass):
                continue
            for field_name, kind in self._mutable_fields(klass):
                yield module.violation(
                    self.code,
                    klass,
                    f"class caches '_hash' but field '{field_name}' is mutable "
                    f"({kind}); cached hashes require fully immutable fields",
                    context=module.context(klass),
                )


#: The per-module rules, in code order (RPR011 lives in callgraph.py).
MODULE_RULES: tuple[Rule, ...] = (
    BuiltinHashRule(),
    NondeterministicSourceRule(),
    SetIterationRule(),
    SubmitCallableRule(),
    FrozenSetattrRule(),
    CachedHashMutableFieldRule(),
)
