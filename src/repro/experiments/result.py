"""Uniform, serializable experiment results.

Every experiment — lab attack, in-the-wild protocol, measurement report —
returns the same :class:`ExperimentResult` shape: a status, a flat
JSON-safe ``metrics`` dict, and per-lifecycle-stage wall-clock timings.
Results round-trip through JSON (``to_json``/``from_json``) so grid runs
can be persisted and replayed, and :meth:`comparable` strips the timings
so two runs of the same spec can be checked for equality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.exceptions import ExperimentError


class ExperimentStatus(str, Enum):
    """How an experiment run ended."""

    #: Ran to completion and passed its validation step.
    OK = "ok"
    #: Ran to completion but the validation step rejected the outcome.
    FAILED = "failed"
    #: A lifecycle stage raised an exception.
    ERROR = "error"


@dataclass
class ExperimentResult:
    """The uniform outcome record of one experiment run."""

    name: str
    spec: dict[str, Any]
    status: ExperimentStatus = ExperimentStatus.OK
    metrics: dict[str, Any] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    error: str | None = None

    @property
    def succeeded(self) -> bool:
        """True if the run completed and validated."""
        return self.status is ExperimentStatus.OK

    def total_seconds(self) -> float:
        """Wall-clock time summed over every lifecycle stage."""
        return sum(self.timings.values())

    # ------------------------------------------------------------ round trip
    def comparable(self) -> dict[str, Any]:
        """The result minus timings — identical across reruns of one spec."""
        return {
            "name": self.name,
            "spec": self.spec,
            "status": self.status.value,
            "metrics": self.metrics,
            "error": self.error,
        }

    def to_dict(self) -> dict[str, Any]:
        """A plain, JSON-serializable representation (timings included)."""
        data = self.comparable()
        data["timings"] = dict(self.timings)
        return data

    def to_json(self, indent: int | None = None) -> str:
        """Serialize for persistence/replay."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output."""
        if not isinstance(data, dict) or "name" not in data or "status" not in data:
            raise ExperimentError("an experiment result needs 'name' and 'status'")
        try:
            status = ExperimentStatus(data["status"])
        except ValueError:
            raise ExperimentError(f"unknown experiment result status {data['status']!r}") from None
        return cls(
            name=data["name"],
            spec=dict(data.get("spec", {})),
            status=status,
            metrics=dict(data.get("metrics", {})),
            timings=dict(data.get("timings", {})),
            error=data.get("error"),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))
