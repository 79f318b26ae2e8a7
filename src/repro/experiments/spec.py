"""Declarative experiment specifications.

An :class:`ExperimentSpec` is the single, serializable description of one
experiment run: which registered experiment to execute, the deterministic
seed, the topology scale (a named preset plus explicit parameter
overrides), which platforms to graft onto the topology, and the
experiment-specific parameters.  Specs round-trip through plain dicts
(``to_dict``/``from_dict``) so a grid of runs can be persisted, shipped to
worker processes, and replayed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import ExperimentError
from repro.topology.generator import TopologyGenerator, TopologyParameters
from repro.topology.topology import Topology

#: Named topology sizes shared by the CLI and the experiment specs.  A
#: preset is a set of :class:`TopologyParameters` overrides; ``default``
#: is the generator's own default size.
SCALE_PRESETS: dict[str, dict[str, int]] = {
    "small": {"tier1_count": 3, "transit_count": 20, "stub_count": 80},
    "default": {},
    "large": {"tier1_count": 8, "transit_count": 120, "stub_count": 700},
}

# The seed is never a topology override: it always comes from spec.seed.
_TOPOLOGY_FIELDS = {f.name for f in dataclasses.fields(TopologyParameters)} - {"seed"}
_SPEC_KEYS = ("name", "seed", "scale", "topology", "platforms", "params")


@dataclass
class ExperimentSpec:
    """Everything needed to reproduce one experiment run.

    * ``name`` — the registry name of the experiment to run;
    * ``seed`` — the deterministic seed threaded through topology
      generation, dataset synthesis, and platform placement;
    * ``scale`` — optional named preset from :data:`SCALE_PRESETS`;
    * ``topology`` — explicit :class:`TopologyParameters` overrides,
      applied on top of the scale preset;
    * ``platforms`` — platform attachments (``peering``, ``research``,
      ``collectors``, ``atlas``) grafted onto the topology in order;
    * ``params`` — experiment-specific parameters.
    """

    name: str
    seed: int = 42
    scale: str | None = None
    topology: dict[str, Any] = field(default_factory=dict)
    platforms: tuple[str, ...] = ()
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # ``int()`` would truncate 2.9 and read True as 1: take integers only.
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ExperimentError(f"the spec seed must be an integer, got {self.seed!r}")
        if self.scale is not None and self.scale not in SCALE_PRESETS:
            raise ExperimentError(
                f"unknown scale {self.scale!r}; choose from {', '.join(SCALE_PRESETS)}"
            )
        unknown = set(self.topology) - _TOPOLOGY_FIELDS
        if unknown:
            raise ExperimentError(
                f"unsupported topology parameter(s): {', '.join(sorted(unknown))}"
                " (the seed is set via the spec's own 'seed' field)"
            )
        self.platforms = tuple(self.platforms)

    # ------------------------------------------------------------- round trip
    def to_dict(self) -> dict[str, Any]:
        """A plain, JSON-serializable representation of the spec."""
        return {
            "name": self.name,
            "seed": self.seed,
            "scale": self.scale,
            "topology": dict(self.topology),
            "platforms": list(self.platforms),
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output (strict on keys)."""
        unknown = set(data) - set(_SPEC_KEYS)
        if unknown:
            raise ExperimentError(f"unknown spec key(s): {', '.join(sorted(unknown))}")
        if "name" not in data:
            raise ExperimentError("an experiment spec needs a 'name'")
        return cls(
            name=data["name"],
            seed=data.get("seed", 42),
            scale=data.get("scale"),
            topology=dict(data.get("topology", {})),
            platforms=tuple(data.get("platforms", ())),
            params=dict(data.get("params", {})),
        )

    def replace(self, **changes: Any) -> "ExperimentSpec":
        """A copy of the spec with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def with_params(self, **params: Any) -> "ExperimentSpec":
        """A copy of the spec with extra experiment parameters merged in."""
        merged = dict(self.params)
        merged.update(params)
        return self.replace(params=merged)

    # ------------------------------------------------------------- topology
    def topology_parameters(self) -> TopologyParameters:
        """The generator knobs: scale preset, then overrides, then the seed."""
        kwargs: dict[str, Any] = {}
        if self.scale is not None:
            kwargs.update(SCALE_PRESETS[self.scale])
        kwargs.update(self.topology)
        return TopologyParameters(seed=self.seed, **kwargs)

    def build_topology(self) -> Topology:
        """Generate the deterministic topology this spec describes."""
        return TopologyGenerator(self.topology_parameters()).generate()
