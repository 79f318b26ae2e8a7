"""The common experiment lifecycle.

Every experiment runs the same five stages::

    build topology -> attach platforms/collectors/probes -> seed routes
        -> execute -> validate

:class:`Experiment` is the base class: subclasses override the stages
they need (``execute`` is the only mandatory one) and inherit spec-driven
topology construction, declarative platform attachment, and batched
route pre-seeding.  :meth:`Experiment.run` times each stage and folds the
outcome into a uniform, JSON-serializable
:class:`~repro.experiments.result.ExperimentResult`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, ClassVar, Iterable

from repro.bgp.prefix import Prefix
from repro.exceptions import ExperimentError, PrefixError, ReproError
from repro.experiments.result import ExperimentResult, ExperimentStatus
from repro.experiments.spec import ExperimentSpec
from repro.topology.topology import Topology
from repro.utils.collector import collector_paused

#: The lifecycle stages, in execution order.
LIFECYCLE_STAGES = ("build", "attach", "seed", "execute", "validate")


@dataclass(frozen=True)
class Param:
    """One declared experiment parameter.

    ``kind`` is ``"int"`` (integral, from ``minimum`` up to ``maximum``
    if set), ``"bool"`` (JSON ``true`` / ``false`` only), ``"prefix"``
    (text such as ``"203.0.113.0/24"``) or ``"choice"`` (one of
    ``choices``).  ``needs`` is ``(other, values)``: a value other than
    the default is refused unless parameter ``other`` is one of ``values``.
    """

    name: str
    default: Any
    kind: str
    minimum: int = 0
    maximum: int | None = None
    choices: tuple[str, ...] = ()
    needs: tuple[str, tuple[Any, ...]] | None = None

    def read(self, value: Any) -> Any:
        """``value`` as this parameter's type, or an :class:`ExperimentError` naming it.

        ``int()`` would truncate ``2.9`` and read ``true`` as 1, and
        ``bool()`` reads every non-empty string (``"False"``) as True.
        """
        if self.kind == "bool":
            if isinstance(value, bool):
                return value
            expected = "true or false"
        elif self.kind == "choice":
            if value in self.choices:
                return value
            expected = f"one of {', '.join(map(repr, self.choices))}"
        elif self.kind == "prefix":
            if isinstance(value, str):
                try:
                    return Prefix.from_string(value)
                except PrefixError:
                    pass
            expected = "a prefix such as '203.0.113.0/24'"
        else:
            try:
                number = int(value)
                if not isinstance(value, bool) and number == float(value) and self.minimum <= number:
                    if self.maximum is None or number <= self.maximum:
                        return number
            except (TypeError, ValueError, OverflowError):
                pass
            expected = f"an integer >= {self.minimum}"
            expected += "" if self.maximum is None else f" and <= {self.maximum}"
        raise ExperimentError(f"experiment parameter {self.name!r} must be {expected}, got {value!r}")

    def describe(self) -> dict[str, Any]:
        """The declaration as JSON: kind, default, and each bound, choice list or need set."""
        entry = {"kind": self.kind, "default": self.default, "minimum": self.minimum, "maximum": self.maximum}
        if self.kind != "int":
            entry = {"kind": self.kind, "default": self.default, "choices": list(self.choices)}
        if self.needs is not None:
            entry["needs"] = {self.needs[0]: list(self.needs[1])}
        return {key: value for key, value in entry.items() if value not in (None, [])}


#: The platforms a spec can attach, each with the parameters it reads.
#: A spec accepts a platform's parameters only when it attaches that
#: platform, and records one only when it is given.
PLATFORMS: dict[str, tuple[Param, ...]] = {
    "peering": (Param("upstream_count", 10, "int"),),
    "research": (),
    "collectors": (),
    "atlas": (),
}
#: The platform that reads each platform parameter.
PLATFORM_OF = {param.name: name for name, table in PLATFORMS.items() for param in table}


@dataclass
class ExperimentContext:
    """Mutable state threaded through the lifecycle stages of one run."""

    spec: ExperimentSpec
    topology: Topology | None = None
    #: Attached platforms by name (injection platforms, collectors, atlas).
    platforms: dict[str, Any] = field(default_factory=dict)
    #: Stage-to-stage scratch space: what a ``seed`` hands its ``execute``
    #: (the report's dataset or harvested archive).
    scratch: dict[str, Any] = field(default_factory=dict)

    def require_topology(self) -> Topology:
        """The built topology, or a clear error when the build stage was skipped."""
        if self.topology is None:
            raise ExperimentError(
                f"experiment {self.spec.name!r} has no topology; "
                "give the spec a scale/topology or override build()"
            )
        return self.topology

    def platform(self, name: str) -> Any:
        """A previously attached platform, by attachment name."""
        try:
            return self.platforms[name]
        except KeyError:
            raise ExperimentError(
                f"platform {name!r} is not attached (have: {', '.join(self.platforms) or 'none'})"
            ) from None


class Experiment:
    """Base class for registered experiments.

    Subclasses set the class-level metadata (``description``,
    ``paper_section``, the ``default_*`` spec fields and the
    ``parameters`` table), override the lifecycle stages they need, and
    are registered under their public name with
    :func:`repro.experiments.register`.

    ``parameters`` declares each parameter the experiment reads once:
    its default (what :meth:`default_spec` records), kind, bound or
    choices, and needs.  :meth:`check_spec` holds a spec to it and to
    :data:`PLATFORMS` before any stage runs; :meth:`param` reads through it.
    """

    #: Set by the @register decorator.
    name: ClassVar[str] = ""
    description: ClassVar[str] = ""
    paper_section: ClassVar[str] = ""
    default_seed: ClassVar[int] = 42
    default_scale: ClassVar[str | None] = None
    default_topology: ClassVar[dict[str, Any]] = {}
    default_platforms: ClassVar[tuple[str, ...]] = ()
    #: True for an experiment that runs on its paper figure's topology:
    #: a scale or topology override, which could not take effect, is refused.
    canonical_topology: ClassVar[bool] = False
    #: The experiment's own parameters, in the order its specs record them.
    parameters: ClassVar[tuple[Param, ...]] = ()

    def __init__(self, spec: ExperimentSpec):
        if spec.name != self.name:
            raise ExperimentError(
                f"spec is for {spec.name!r} but was given to {self.name!r}"
            )
        self.spec = spec
        self.context = ExperimentContext(spec=spec)
        self.result: ExperimentResult | None = None

    # --------------------------------------------------------------- spec API
    @classmethod
    def default_spec(
        cls,
        seed: int | None = None,
        scale: str | None = None,
        **params: Any,
    ) -> ExperimentSpec:
        """The canonical spec for this experiment, with optional overrides.

        An explicitly requested ``scale`` replaces the experiment's
        canonical ``default_topology`` overrides (otherwise those
        overrides would silently mask the preset and the spec would
        record a scale that had no effect).  Unknown parameter names are
        rejected — a typo must not silently run the default variant and
        bake itself into the replayable spec.  Values are checked when
        the spec runs (or by :func:`~repro.experiments.expand_grid`).
        """
        cls.reject_unknown_params(params)
        merged = {param.name: param.default for param in cls.parameters}
        merged.update(params)
        return ExperimentSpec(
            name=cls.name,
            seed=cls.default_seed if seed is None else seed,
            scale=cls.default_scale if scale is None else scale,
            topology={} if scale is not None else dict(cls.default_topology),
            platforms=tuple(cls.default_platforms),
            params=merged,
        )

    @classmethod
    def declared(cls) -> dict[str, Param]:
        """Every parameter the experiment takes, by name: its own, then those
        of the platforms it attaches by default."""
        table = {param.name: param for param in cls.parameters}
        for platform in cls.default_platforms:
            table.update((param.name, param) for param in PLATFORMS[platform])
        return table

    @classmethod
    def reject_unknown_params(cls, params: Iterable[str]) -> None:
        """Raise :class:`ExperimentError` naming any parameter this experiment lacks."""
        known = cls.declared()
        unknown = set(params) - set(known)
        if unknown:
            raise ExperimentError(
                f"unknown parameter(s) for {cls.name!r}: {', '.join(sorted(unknown))}"
                f" (known: {', '.join(sorted(known)) or 'none'})"
            )

    @classmethod
    def check_spec(cls, spec: ExperimentSpec) -> None:
        """Hold ``spec`` to the declarations (every platform name, parameter
        name, value and ``needs``), or raise :class:`ExperimentError`."""
        if cls.canonical_topology and (spec.scale is not None or spec.topology):
            raise ExperimentError(
                f"experiment {cls.name!r} runs on its canonical paper topology; "
                "scale/topology overrides are not supported"
            )
        for platform in spec.platforms:
            if platform not in PLATFORMS:
                raise ExperimentError(f"unknown platform attachment {platform!r}")
        cls.reject_unknown_params(spec.params)
        declared = cls.declared()
        if "atlas" in spec.platforms and "probes" not in declared:
            raise ExperimentError(
                f"experiment {cls.name!r} declares no 'probes' parameter, "
                "which the 'atlas' platform reads for its probe count"
            )
        for name, value in spec.params.items():
            if name in PLATFORM_OF and PLATFORM_OF[name] not in spec.platforms:
                raise ExperimentError(
                    f"experiment parameter {name!r} belongs to the {PLATFORM_OF[name]!r} platform, which "
                    f"this run does not attach (platforms: {', '.join(spec.platforms) or 'none'})"
                )
            declared[name].read(value)
        for name, value in spec.params.items():
            if declared[name].needs is None or value == declared[name].default:
                continue
            other, allowed = declared[name].needs
            current = spec.params.get(other, declared[other].default)
            if current not in allowed:
                raise ExperimentError(
                    f"experiment parameter {name!r} needs {other!r} to be one of "
                    f"{', '.join(map(repr, allowed))} ({other}: {current!r})"
                )

    def param(self, key: str) -> Any:
        """A declared parameter's value, the spec's or else its default, read as its kind."""
        try:
            declared = self.declared()[key]
        except KeyError:
            raise ExperimentError(f"experiment {self.name!r} declares no parameter {key!r}") from None
        return declared.read(self.spec.params.get(key, declared.default))

    #: :meth:`param`, named for the kind its call site reads.
    int_param = bool_param = prefix_param = param

    # ------------------------------------------------------- lifecycle stages
    def build(self, ctx: ExperimentContext) -> None:
        """Build the topology the spec describes (skipped for canonical-figure
        experiments whose spec carries neither a scale nor overrides)."""
        if ctx.spec.scale is not None or ctx.spec.topology:
            ctx.topology = ctx.spec.build_topology()

    def attach(self, ctx: ExperimentContext) -> None:
        """Attach every platform the spec lists, in order."""
        for platform_name in ctx.spec.platforms:
            self.attach_platform(ctx, platform_name)

    def attach_platform(self, ctx: ExperimentContext, platform_name: str) -> None:
        """Attach one named platform to the topology.

        ``atlas`` is placed after the injection platforms so probes never
        land inside them; attachment order therefore matters and follows
        ``spec.platforms``.
        """
        from repro.collectors.platform import CollectorDeployment
        from repro.probing.atlas import AtlasPlatform
        from repro.wild.peering import (
            InjectionPlatform,
            attach_peering_testbed,
            attach_research_network,
        )

        topology = ctx.require_topology()
        if platform_name == "peering":
            ctx.platforms[platform_name] = attach_peering_testbed(
                topology, upstream_count=self.int_param("upstream_count")
            )
        elif platform_name == "research":
            ctx.platforms[platform_name] = attach_research_network(topology)
        elif platform_name == "collectors":
            ctx.platforms[platform_name] = CollectorDeployment.default_deployment(topology)
        elif platform_name == "atlas":
            exclude = {
                platform.asn
                for platform in ctx.platforms.values()
                if isinstance(platform, InjectionPlatform)
            }
            ctx.platforms[platform_name] = AtlasPlatform.deploy(
                topology,
                probe_count=self.int_param("probes"),
                exclude_asns=exclude,
            )

    def seed(self, ctx: ExperimentContext) -> None:
        """Pre-seed the control plane (default: nothing).

        Experiments that need a converged baseline call
        :meth:`seed_originated` here to batch-announce every origination
        the topology records in one shared worklist pass.
        """

    def seed_originated(self, ctx: ExperimentContext):
        """Batch-announce every originated prefix; returns the simulator.

        One shared worklist pass on the in-process core — the heaviest
        single ``apply`` most experiments run.
        """
        from repro.routing.engine import BgpSimulator

        simulator = BgpSimulator(ctx.require_topology())
        simulator.announce_originated()
        return simulator

    def execute(self, ctx: ExperimentContext) -> dict[str, Any]:
        """Run the experiment; returns the JSON-safe metrics dict."""
        raise NotImplementedError

    def validate(self, ctx: ExperimentContext, metrics: dict[str, Any]) -> bool:
        """Accept or reject the executed run (default: accept)."""
        return True

    def render_text(self, result: ExperimentResult) -> str:
        """Human-readable rendering of a result (default: pretty JSON).

        Implementations must render from ``result.metrics`` alone so
        results deserialized from JSON (e.g. grid-runner workers) render
        identically to in-process ones.
        """
        return result.to_json(indent=2)

    # ------------------------------------------------------------ the driver
    def run(self) -> ExperimentResult:
        """Drive the five lifecycle stages, timing each one.

        Exceptions from the repro library are captured as
        ``status="error"`` results (so one bad grid cell never kills the
        batch); anything else propagates.  :meth:`check_spec` runs
        first, so a spec that breaks a declaration (one replayed from an
        older results file, say) ends as such a result with no stage run:
        it must not run the default variant, nor fail after the build.

        The cyclic collector is paused until the result is built (so the
        next collection comes once the caller drops the experiment, not
        over its dataset), then resumed if it was on at entry.  No
        experiment makes a reference cycle: reference counting frees all
        the collector would walk.  A process forked while it is paused
        starts paused, so no stage forks: grid workers start outside
        ``run``, and every experiment runs the in-process core.
        """
        ctx = self.context
        timings: dict[str, float] = {}
        metrics: dict[str, Any] = {}
        status = ExperimentStatus.OK
        error: str | None = None
        with collector_paused():
            try:
                self.check_spec(self.spec)
                for stage in ("build", "attach", "seed"):
                    started = time.perf_counter()
                    getattr(self, stage)(ctx)
                    timings[stage] = time.perf_counter() - started
                started = time.perf_counter()
                metrics = self.execute(ctx) or {}
                timings["execute"] = time.perf_counter() - started
                started = time.perf_counter()
                accepted = self.validate(ctx, metrics)
                timings["validate"] = time.perf_counter() - started
                if not accepted:
                    status = ExperimentStatus.FAILED
            except ReproError as exc:
                status = ExperimentStatus.ERROR
                error = f"{type(exc).__name__}: {exc}"
            self.result = ExperimentResult(
                name=self.spec.name,
                spec=self.spec.to_dict(),
                status=status,
                metrics=metrics,
                timings=timings,
                error=error,
            )
        return self.result
