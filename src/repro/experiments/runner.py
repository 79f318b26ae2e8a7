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


@dataclass
class ExperimentContext:
    """Mutable state threaded through the lifecycle stages of one run."""

    spec: ExperimentSpec
    topology: Topology | None = None
    #: Attached platforms by name (injection platforms, collectors, atlas).
    platforms: dict[str, Any] = field(default_factory=dict)
    #: Stage-to-stage scratch space (simulators, rich result objects, ...).
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
    ``paper_section`` and the ``default_*`` spec fields), override the
    lifecycle stages they need, and are registered under their public
    name with :func:`repro.experiments.register`.
    """

    #: Set by the @register decorator.
    name: ClassVar[str] = ""
    description: ClassVar[str] = ""
    paper_section: ClassVar[str] = ""
    default_seed: ClassVar[int] = 42
    default_scale: ClassVar[str | None] = None
    default_topology: ClassVar[dict[str, Any]] = {}
    default_platforms: ClassVar[tuple[str, ...]] = ()
    default_params: ClassVar[dict[str, Any]] = {}
    #: Parameters accepted beyond ``default_params``: attach-time knobs
    #: of the platforms the experiment attaches (``upstream_count`` for
    #: ``peering``).  A name the run never reads must not be accepted.
    optional_params: ClassVar[tuple[str, ...]] = ()

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
        bake itself into the replayable spec.
        """
        cls.reject_unknown_params(params)
        merged = dict(cls.default_params)
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
    def reject_unknown_params(cls, params: Iterable[str]) -> None:
        """Raise :class:`ExperimentError` naming any parameter this experiment lacks."""
        known = set(cls.default_params) | set(cls.optional_params)
        unknown = set(params) - known
        if unknown:
            raise ExperimentError(
                f"unknown parameter(s) for {cls.name!r}: {', '.join(sorted(unknown))}"
                f" (known: {', '.join(sorted(known)) or 'none'})"
            )

    def param(self, key: str, default: Any = None) -> Any:
        """An experiment parameter: spec value, class default, then ``default``."""
        if key in self.spec.params:
            return self.spec.params[key]
        return self.default_params.get(key, default)

    def int_param(self, key: str, default: int, minimum: int) -> int:
        """An integer experiment parameter, or a clear error naming it.

        A non-integer override (``2.9`` and ``true`` included: ``int()``
        would truncate them silently) must surface as an
        :class:`~repro.exceptions.ExperimentError` (caught by
        :meth:`run` and the CLI) rather than a raw ``ValueError``
        traceback out of ``int()``; so must a count below ``minimum``,
        which would otherwise reach ``random.sample`` or be ignored.
        """
        value = self.param(key, default)
        try:
            number = int(value)
            if isinstance(value, bool) or number != float(value):
                raise ValueError
            if number < minimum:
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            raise ExperimentError(
                f"experiment parameter {key!r} must be an integer >= {minimum}, got {value!r}"
            ) from None
        return number

    def prefix_param(self, key: str) -> Prefix:
        """A prefix experiment parameter (``"203.0.113.0/24"``), or an error naming it."""
        value = self.param(key)
        if isinstance(value, str):
            try:
                return Prefix.from_string(value)
            except PrefixError:
                pass
        raise ExperimentError(
            f"experiment parameter {key!r} must be a prefix such as '203.0.113.0/24', "
            f"got {value!r}"
        )

    def bool_param(self, key: str) -> bool:
        """A boolean experiment parameter: JSON ``true`` / ``false`` and nothing else.

        ``bool()`` reads every non-empty string as True, and a
        ``--param`` value that is not JSON stays a string — so
        ``hijack=False`` and ``hijack=maybe`` would both run *with* the
        hijack instead of failing.
        """
        value = self.param(key)
        if not isinstance(value, bool):
            raise ExperimentError(
                f"experiment parameter {key!r} must be true or false, got {value!r}"
            )
        return value

    # ------------------------------------------------------- lifecycle stages
    def reject_topology_spec(self, ctx: ExperimentContext) -> None:
        """Fail loudly when a scale/topology override cannot take effect.

        Canonical-figure experiments call this from ``build``: accepting
        ``--scale`` there would record a knob in the replayable spec
        that never influenced the outcome.
        """
        if ctx.spec.scale is not None or ctx.spec.topology:
            raise ExperimentError(
                f"experiment {self.name!r} runs on its canonical paper topology; "
                "scale/topology overrides are not supported"
            )

    def build(self, ctx: ExperimentContext) -> None:
        """Build the topology the spec describes (skipped for canonical-figure
        experiments whose spec carries neither a scale nor overrides)."""
        if ctx.spec.scale is not None or ctx.spec.topology:
            ctx.topology = ctx.spec.build_topology()

    def attach(self, ctx: ExperimentContext) -> None:
        """Attach every platform the spec lists, in order.

        ``upstream_count`` sizes the ``peering`` platform alone: a spec
        that carries it without that platform (``rtbh-wild`` with
        ``hijack=true`` runs from the research network) is refused, not
        recorded as a knob that changed nothing.
        """
        if "upstream_count" in ctx.spec.params and "peering" not in ctx.spec.platforms:
            raise ExperimentError(
                "experiment parameter 'upstream_count' sizes the 'peering' platform, which "
                f"this run does not attach (platforms: {', '.join(ctx.spec.platforms) or 'none'})"
            )
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
                topology, upstream_count=self.int_param("upstream_count", 10, minimum=0)
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
                probe_count=self.int_param("probes", 200, minimum=1),
                exclude_asns=exclude,
            )
        else:
            raise ExperimentError(f"unknown platform attachment {platform_name!r}")

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
        ctx.scratch["seed_report"] = simulator.announce_originated()
        ctx.scratch["simulator"] = simulator
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
        batch); anything else propagates.  So is a spec carrying a
        parameter the experiment does not declare (one replayed from an
        older results file, say): it must not run the default variant.

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
                self.reject_unknown_params(self.spec.params)
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
