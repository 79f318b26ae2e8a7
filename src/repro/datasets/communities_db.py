"""Per-AS community documentation and the value-popularity model.

Real providers document their communities on their web sites and in IRR
objects; there is no central registry (Section 2).  We model that
scattered documentation as a :class:`CommunityDocumentation` per AS and
calibrate the *values* ASes choose to the popularity ranking the paper
reports in Figure 5(c): convenient round numbers (100, 200, 1000, ...),
the blackhole value 666, plus a very long tail of arbitrary values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.community import Community
from repro.utils.rand import DeterministicRng

#: Popular community values and their relative weights, calibrated to the
#: flavour of Figure 5(c): small round numbers dominate, 666 appears mostly
#: in off-path (blackhole) use, and everything is individually rare.
POPULAR_ON_PATH_VALUES: dict[int, float] = {
    1000: 1.2,
    100: 1.1,
    1: 1.0,
    200: 1.0,
    2000: 0.9,
    10: 0.8,
    2: 0.8,
    3000: 0.7,
    0: 0.7,
    500: 0.6,
    20: 0.5,
    300: 0.4,
    50: 0.3,
}

POPULAR_OFF_PATH_VALUES: dict[int, float] = {
    1: 1.2,
    65000: 1.1,
    666: 1.0,
    100: 0.9,
    0: 0.9,
    3000: 0.8,
    2: 0.8,
    1000: 0.7,
    9498: 0.6,
    200: 0.6,
    2001: 0.4,
    80: 0.3,
}

#: Each table split once into the ``(values, weights)`` a weighted draw takes.
_ON_PATH_HEAD = (list(POPULAR_ON_PATH_VALUES), list(POPULAR_ON_PATH_VALUES.values()))
_OFF_PATH_HEAD = (list(POPULAR_OFF_PATH_VALUES), list(POPULAR_OFF_PATH_VALUES.values()))


@dataclass
class CommunityDocumentation:
    """The communities one AS documents, grouped by purpose."""

    asn: int
    informational_values: list[int] = field(default_factory=list)
    location_values: list[int] = field(default_factory=list)
    action_values: list[int] = field(default_factory=list)
    blackhole_values: list[int] = field(default_factory=list)

    def all_communities(self) -> list[Community]:
        """Return every documented community of this AS."""
        values = (
            self.informational_values
            + self.location_values
            + self.action_values
            + self.blackhole_values
        )
        return [Community(self.asn, v) for v in sorted(set(values))]

    def informational_communities(self) -> list[Community]:
        """Communities with no routing action (origin/ingress tags and the like)."""
        return [Community(self.asn, v) for v in self.informational_values]

    def location_communities(self) -> list[Community]:
        """Ingress-location tag communities."""
        return [Community(self.asn, v) for v in self.location_values]

    def blackhole_communities(self) -> list[Community]:
        """RTBH trigger communities."""
        return [Community(self.asn, v) for v in self.blackhole_values]


class CommunityUsageModel:
    """Chooses community values for ASes, reproducing the paper's value popularity."""

    def __init__(self, rng: DeterministicRng):
        self._rng = rng
        self._documentation: dict[int, CommunityDocumentation] = {}

    def _draw_value(
        self, head: tuple[list[int], list[float]], tail_probability: float = 0.35
    ) -> int:
        """Draw a community value: popular head with probability 1-tail, else long tail."""
        if self._rng.chance(tail_probability):
            return self._rng.randint(1, 65535)
        return self._rng.weighted_choice(*head)

    def documentation_for(self, asn: int, offers_blackhole: bool) -> CommunityDocumentation:
        """Return (building lazily) the documented communities of ``asn``."""
        if asn in self._documentation:
            return self._documentation[asn]
        informational = sorted(
            {self._draw_value(_ON_PATH_HEAD) for _ in range(self._rng.randint(1, 4))}
        )
        # Location values are operator-chosen codes; there is no global
        # convention, so each AS picks its own small set of arbitrary values.
        locations = sorted(
            {self._rng.randint(1, 65535) for _ in range(self._rng.randint(0, 3))}
        )
        actions = sorted(
            {self._draw_value(_ON_PATH_HEAD) for _ in range(self._rng.randint(0, 3))}
        )
        blackholes = [666] if offers_blackhole else []
        documentation = CommunityDocumentation(
            asn=asn,
            informational_values=list(informational),
            location_values=list(locations),
            action_values=list(actions),
            blackhole_values=blackholes,
        )
        self._documentation[asn] = documentation
        return documentation

    def off_path_value(self) -> int:
        """Draw a value for an off-path community (IXP/bundled/private tagging)."""
        return self._draw_value(_OFF_PATH_HEAD, tail_probability=0.3)

    def on_path_value(self) -> int:
        """Draw a value for an on-path community."""
        return self._draw_value(_ON_PATH_HEAD, tail_probability=0.4)
