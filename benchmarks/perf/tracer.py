"""Outside-in layer trace: spans and counts around the calls into each layer.

Nothing under ``src/`` knows about tracing.  :func:`install` wraps the
public entry points listed in :data:`TARGETS` from here — methods by
``setattr`` on their class, module-level functions by rebinding the name
in every loaded ``repro.*`` namespace that imported it — and
:func:`uninstall` puts the originals back.

A *span* records ``(id, name, start, end, parent id, iteration)``; a
layer's **self time** is its span's duration minus the durations of its
direct child spans.  Spans stay in memory: full spans only while
``Tracer.keep_spans`` is set (the runner sets it for the first timed
iteration), per ``(phase, name, parent)`` aggregates always.  A *count*
wrapper only increments a counter, so its time stays in the enclosing
span's self time.

Shard workers are forked with the wrappers in place; what they record
stays in their own memory (aggregates only, bounded) and never comes
back.  Every number reported is therefore parent-side: worker time shows
up as ``routing.shard.wait_s``.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Tracer:
    """In-memory span store plus aggregates and free-form counters."""

    enabled: bool = False
    #: ``"setup"`` or ``"iter"`` — aggregates and counters are kept per phase.
    phase: str = "setup"
    iteration: int = -1
    keep_spans: bool = False
    spans: list[tuple] = field(default_factory=list)
    #: ``(phase, name, parent name | None) -> [calls, total_s, self_s]``
    aggregates: dict[tuple, list] = field(default_factory=dict)
    #: ``(phase, counter name) -> value``
    counters: dict[tuple, float] = field(default_factory=dict)
    #: Injectable so the self-time arithmetic can be tested on a fake clock.
    clock: Callable[[], float] = time.perf_counter
    _stack: list[list] = field(default_factory=list)
    _next_id: int = 0

    def add(self, name: str, value: float) -> None:
        """Bump a counter in the current phase."""
        key = (self.phase, name)
        self.counters[key] = self.counters.get(key, 0) + value

    # ------------------------------------------------------------- wrappers
    def span(
        self,
        name: str,
        fn: Callable,
        result_hook: Callable[[tuple, Any], dict] | None = None,
        delta_hook: tuple[str, Callable[[tuple], float]] | None = None,
        duration_as: str | None = None,
    ) -> Callable:
        """Wrap ``fn`` so every call records one span named ``name``.

        ``result_hook(args, result)`` returns counters to bump after a
        successful call; ``delta_hook = (counter, read)`` bumps
        ``counter`` by how much ``read(args)`` grew across the call;
        ``duration_as`` also adds the span's duration to that counter.
        """
        stack = self._stack
        aggregates = self.aggregates
        clock = self.clock

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            before = delta_hook[1](args) if delta_hook is not None else 0
            parent = stack[-1] if stack else None
            frame = [name, 0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                key = (self.phase, name, parent[0] if parent is not None else None)
                record = aggregates.get(key)
                if record is None:
                    record = aggregates[key] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[1]
                if self.keep_spans:
                    self.spans.append(
                        (
                            frame[2],
                            name,
                            start,
                            end,
                            parent[2] if parent is not None else None,
                            self.iteration,
                        )
                    )
                if duration_as is not None:
                    self.add(duration_as, duration)
            self._run_hooks(args, result, before, result_hook, delta_hook)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _run_hooks(self, args, result, before, result_hook, delta_hook) -> None:
        if delta_hook is not None:
            self.add(delta_hook[0], delta_hook[1](args) - before)
        if result_hook is not None:
            for counter, value in result_hook(args, result).items():
                self.add(counter, value)

    def count(
        self,
        name: str,
        fn: Callable,
        result_hook: Callable[[tuple, Any], dict] | None = None,
        delta_hook: tuple[str, Callable[[tuple], float]] | None = None,
    ) -> Callable:
        """Wrap ``fn`` so every call bumps ``<name>.calls`` (no span, no timing)."""
        counter = name + ".calls"

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            before = delta_hook[1](args) if delta_hook is not None else 0
            result = fn(*args, **kwargs)
            self.add(counter, 1)
            self._run_hooks(args, result, before, result_hook, delta_hook)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -------------------------------------------------------------- readout
    def totals(self, phases: tuple[str, ...]) -> dict[str, float]:
        """``<name>.calls`` / ``<name>.self_s`` / counters summed over ``phases``."""
        out: dict[str, float] = {}
        for (phase, name, _parent), (calls, _total, self_s) in self.aggregates.items():
            if phase in phases:
                out[name + ".calls"] = out.get(name + ".calls", 0) + calls
                out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + self_s
        for (phase, name), value in self.counters.items():
            if phase in phases:
                out[name] = out.get(name, 0) + value
        return out

    def dump(self) -> dict:
        """JSON-ready view: the kept spans plus every aggregate and counter."""
        return {
            "span_fields": ["id", "name", "start", "end", "parent", "iteration"],
            "spans": [list(span) for span in self.spans],
            "aggregates": [
                {
                    "phase": phase,
                    "name": name,
                    "parent": parent,
                    "calls": calls,
                    "total_s": total,
                    "self_s": self_s,
                }
                for (phase, name, parent), (calls, total, self_s) in sorted(
                    self.aggregates.items(), key=lambda item: (item[0][0], item[0][1], item[0][2] or "")
                )
            ],
            "counters": {
                f"{phase}:{name}": value for (phase, name), value in sorted(self.counters.items())
            },
        }


# ------------------------------------------------------------------ targets
@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module:qualname`` traced as ``name``."""

    name: str
    module: str
    qualname: str
    #: ``"span"`` (timed, nests) or ``"count"`` (counter only).
    kind: str = "span"
    result_hook: Callable[[tuple, Any], dict] | None = None
    delta_hook: tuple[str, Callable[[tuple], float]] | None = None
    duration_as: str | None = None


def _wire_family(direction: str) -> list[Target]:
    def size(args, result):
        payload = result if direction == "encode" else args[0]
        return {f"routing.wire.{direction}.bytes": len(payload)}

    return [
        Target(f"routing.wire.{direction}", "repro.routing.wire", f"{direction}_{what}", result_hook=size)
        for what in ("states", "events", "additions", "items", "observations", "config")
    ]


def _experiment_timings(_args, result) -> dict:
    return {f"experiments.runner.{stage}_s": seconds for stage, seconds in result.timings.items()}


#: The public functions the ledger's per-layer metrics are read from.
TARGETS: tuple[Target, ...] = (
    Target(
        "routing.engine.apply",
        "repro.routing.engine",
        "BgpSimulator.apply",
        result_hook=lambda _args, report: {
            "routing.engine.announcements_processed": report.announcements_processed
        },
    ),
    Target("routing.router.import_announcement", "repro.routing.router", "Router.import_announcement"),
    Target("routing.router.refresh_best", "repro.routing.router", "Router.refresh_best"),
    Target("routing.router.export_to", "repro.routing.router", "Router.export_to"),
    Target("routing.router.export_all_to", "repro.routing.router", "Router.export_all_to"),
    Target("routing.decision.best_path", "repro.routing.decision", "best_path"),
    Target("policy.filters.evaluate", "repro.policy.filters", "InboundFilterChain.evaluate"),
    *(
        Target(
            "policy.community_policy.outbound_communities",
            "repro.policy.community_policy",
            f"{policy}.outbound_communities",
        )
        for policy in ("ForwardAllPolicy", "StripAllPolicy", "StripOwnPolicy", "SelectivePolicy")
    ),
    Target("bgp.rib.set_best", "repro.bgp.rib", "LocRib.set_best"),
    Target("bgp.rib.set_candidates", "repro.bgp.rib", "LocRib.set_candidates", kind="count"),
    Target("bgp.rib.adj_update", "repro.bgp.rib", "AdjRibIn.update", kind="count"),
    Target("net.lpm.insert", "repro.net.lpm", "LpmTable.insert"),
    Target("net.lpm.delete", "repro.net.lpm", "LpmTable.delete", kind="count"),
    Target("net.lpm.longest_match", "repro.net.lpm", "LpmTable.longest_match"),
    Target("dataplane.rebuild", "repro.dataplane.forwarding", "DataPlane.rebuild"),
    Target("dataplane.patch_fib", "repro.dataplane.fib", "patch_fib"),
    Target("dataplane.traceroute", "repro.dataplane.forwarding", "DataPlane.traceroute"),
    Target(
        "collectors.harvest.harvest_archive",
        "repro.collectors.harvest",
        "harvest_archive",
        result_hook=lambda _args, archive: {"collectors.harvest.rows": len(archive)},
    ),
    Target(
        "collectors.observation.write_mrt",
        "repro.collectors.observation",
        "ObservationArchive.write_mrt",
        result_hook=lambda args, _records: {"mrt.bytes": os.path.getsize(args[1])},
    ),
    Target("collectors.observation.from_mrt", "repro.collectors.observation", "ObservationArchive.from_mrt"),
    Target("collectors.observation.add", "repro.collectors.observation", "ObservationArchive.add", kind="count"),
    Target("mrt.writer.encode_bgp4mp_message", "repro.mrt.writer", "encode_bgp4mp_message"),
    Target("mrt.reader.decode_bgp4mp_message", "repro.mrt.reader", "decode_bgp4mp_message"),
    Target(
        "routing.stream.feed",
        "repro.routing.stream",
        "SimulatorService.feed",
        kind="count",
        delta_hook=("routing.stream.events_coalesced", lambda args: args[0].stats.events_coalesced),
    ),
    Target("routing.stream.drain", "repro.routing.stream", "SimulatorService.drain"),
    Target("routing.shard.partition_events", "repro.routing.shard", "partition_events"),
    Target("routing.shard.capture_prefix_state", "repro.routing.shard", "capture_prefix_state"),
    Target("routing.shard.install_prefix_state", "repro.routing.shard", "install_prefix_state"),
    Target("routing.shard.submit", "repro.routing.shard", "ShardPool.submit", kind="count"),
    Target(
        "routing.shard.wait",
        "concurrent.futures",
        "Future.result",
        duration_as="routing.shard.wait_s",
    ),
    *_wire_family("encode"),
    *_wire_family("decode"),
    Target(
        "routing.residency.acquire",
        "repro.routing.residency",
        "PoolProvider.acquire",
        kind="count",
        delta_hook=("routing.residency.pool_builds", lambda args: args[0].stats["builds"]),
    ),
    Target(
        "experiments.runner.run",
        "repro.experiments.runner",
        "Experiment.run",
        kind="count",
        result_hook=_experiment_timings,
    ),
    Target("datasets.synthetic.build", "repro.datasets.synthetic", "SyntheticDatasetBuilder.build"),
    Target("measurement.report.full_report", "repro.measurement.report", "MeasurementReport.full_report"),
    Target("wild.blackhole_sweep.run", "repro.wild.blackhole_sweep", "BlackholeSweep.run"),
    Target("attacks.feasibility.build_feasibility_matrix", "repro.attacks.feasibility", "build_feasibility_matrix"),
    Target("topology.generator.generate", "repro.topology.generator", "TopologyGenerator.generate"),
)


# ---------------------------------------------------------------- patching
def _wrap(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    if target.kind == "count":
        return tracer.count(target.name, fn, target.result_hook, target.delta_hook)
    return tracer.span(target.name, fn, target.result_hook, target.delta_hook, target.duration_as)


def _patch_method(tracer: Tracer, target: Target, owner: type, attr: str, undo: list) -> None:
    raw = owner.__dict__[attr]
    if isinstance(raw, (classmethod, staticmethod)):
        wrapped: Any = type(raw)(_wrap(tracer, target, raw.__func__))
    else:
        wrapped = _wrap(tracer, target, raw)
    setattr(owner, attr, wrapped)
    undo.append(lambda: setattr(owner, attr, raw))


def _patch_function(tracer: Tracer, target: Target, attr: str, fn: Callable, undo: list) -> None:
    """Rebind ``fn`` wherever a loaded ``repro.*`` module holds it under ``attr``."""
    wrapped = _wrap(tracer, target, fn)
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        if module.__dict__.get(attr) is fn:
            module.__dict__[attr] = wrapped
            undo.append(lambda namespace=module.__dict__: namespace.__setitem__(attr, fn))


def install(tracer: Tracer, targets: tuple[Target, ...] = TARGETS) -> list[Callable[[], None]]:
    """Wrap every target; returns the undo list for :func:`uninstall`.

    Modules are imported here so a name imported with ``from x import
    f`` is already bound (and gets rebound) in every namespace that
    will ever call it.
    """
    for target in targets:
        importlib.import_module(target.module)
    if any(target.module.startswith("repro.experiments") for target in targets):
        # The registry imports the attack/wild/builtin modules lazily;
        # load them now so their by-name imports are rebound too.
        from repro.experiments import available

        available()
    undo: list[Callable[[], None]] = []
    for target in targets:
        module = sys.modules[target.module]
        owner_name, _, attr = target.qualname.rpartition(".")
        if owner_name:
            _patch_method(tracer, target, getattr(module, owner_name), attr, undo)
        else:
            _patch_function(tracer, target, attr, getattr(module, attr), undo)
    return undo


def uninstall(undo: list[Callable[[], None]]) -> None:
    """Restore every callable :func:`install` replaced."""
    while undo:
        undo.pop()()
