"""Prefix filters and IRR origin validation.

The wild experiments (Section 7) repeatedly run into three gatekeepers:
maximum accepted prefix length, IRR-based origin validation (which "adds
a layer of defense ... but it is often easy to circumvent"), and
business-relationship gating.  The first two live here; the third is a
property of the community services (see
:class:`repro.policy.services.ServiceDefinition.customers_only`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.bgp.prefix import AddressFamily, Prefix
from repro.exceptions import PolicyError


@dataclass(frozen=True)
class FilterDecision:
    """The outcome of a filter: accepted or rejected with a reason."""

    accepted: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.accepted


#: What every passing filter returns (decisions are frozen, so one is shared).
_ACCEPT = FilterDecision(True)


class PrefixFilter:
    """Base class for per-neighbor inbound prefix filters."""

    def evaluate(self, prefix: Prefix, origin_asn: int, is_blackhole: bool) -> FilterDecision:
        """Return whether an announcement of ``prefix`` from ``origin_asn`` is accepted."""
        raise NotImplementedError


@dataclass
class MaxPrefixLengthFilter(PrefixFilter):
    """Reject prefixes more specific than the configured per-family maximum.

    Blackhole-tagged announcements get their own (longer) maximum, since
    RTBH typically must be a /24 or more specific, often a /32
    (Section 7.3, "Additional constraints").  The limits are per address
    family: applying the IPv4 /24 cutoff to IPv6 would reject virtually
    every legitimate IPv6 route (/32 allocations, /48 sites).
    """

    max_length: int = 24
    max_blackhole_length: int = 32
    min_blackhole_length: int = 24
    max_length_v6: int = 48
    max_blackhole_length_v6: int = 128
    min_blackhole_length_v6: int = 48

    def evaluate(self, prefix: Prefix, origin_asn: int, is_blackhole: bool) -> FilterDecision:
        if prefix.family == AddressFamily.IPV6:
            max_length = self.max_length_v6
            max_blackhole = self.max_blackhole_length_v6
            min_blackhole = self.min_blackhole_length_v6
        else:
            max_length = self.max_length
            max_blackhole = self.max_blackhole_length
            min_blackhole = self.min_blackhole_length
        if is_blackhole:
            if prefix.length < min_blackhole:
                return FilterDecision(
                    False,
                    f"blackhole prefix {prefix} shorter than /{min_blackhole}",
                )
            if prefix.length > max_blackhole:
                return FilterDecision(
                    False,
                    f"blackhole prefix {prefix} longer than /{max_blackhole}",
                )
            return _ACCEPT
        if prefix.length > max_length:
            return FilterDecision(False, f"prefix {prefix} longer than /{max_length}")
        return _ACCEPT


@dataclass(frozen=True)
class IrrRoute:
    """One route object in the IRR: a prefix and its registered origin AS."""

    prefix: Prefix
    origin_asn: int
    source: str = "RADB"


class IrrDatabase:
    """A toy Internet Routing Registry for origin validation.

    Mirrors the paper's two observations: validation against the IRR is
    a real hurdle for hijack-based attacks (the research network had to
    update the IRR first), and the registry is weakly authenticated so
    an attacker can often register the object themselves
    (:meth:`register` has no authorisation check by default).
    """

    def __init__(self, routes: Iterable[IrrRoute] = (), strict: bool = False):
        self._routes: list[IrrRoute] = list(routes)
        #: When strict, :meth:`register` refuses objects for address space
        #: already registered to a different origin.
        self.strict = strict

    def register(self, prefix: Prefix, origin_asn: int, source: str = "RADB") -> IrrRoute:
        """Register a route object (weakly authenticated unless ``strict``)."""
        if self.strict:
            for route in self._routes:
                if route.prefix.overlaps(prefix) and route.origin_asn != origin_asn:
                    raise PolicyError(
                        f"IRR is strict: {prefix} overlaps {route.prefix} registered to "
                        f"AS{route.origin_asn}"
                    )
        route = IrrRoute(prefix=prefix, origin_asn=origin_asn, source=source)
        self._routes.append(route)
        return route

    def routes_for(self, prefix: Prefix) -> list[IrrRoute]:
        """Return the route objects covering ``prefix``."""
        return [r for r in self._routes if r.prefix.contains_prefix(prefix)]

    def validate_origin(self, prefix: Prefix, origin_asn: int) -> FilterDecision:
        """Return whether ``origin_asn`` is a registered origin for ``prefix``.

        If no covering object exists the announcement is accepted
        ("unknown" is not "invalid"), matching common operator practice.
        """
        covering = self.routes_for(prefix)
        if not covering:
            return FilterDecision(True, "no IRR object covers the prefix (unknown)")
        if any(route.origin_asn == origin_asn for route in covering):
            return FilterDecision(True, "origin matches an IRR object")
        registered = sorted({route.origin_asn for route in covering})
        return FilterDecision(
            False,
            f"origin AS{origin_asn} does not match registered origin(s) "
            f"{', '.join(f'AS{a}' for a in registered)}",
        )

    def __len__(self) -> int:
        return len(self._routes)


@dataclass
class InboundFilterChain:
    """The ordered inbound filters an AS applies to a neighbor's announcement.

    ``blackhole_before_validation`` reproduces the NANOG-tutorial
    misconfiguration from Section 6.3: the route-map checks for the
    blackhole community *before* validating the prefix against the
    customer list, so a hijacked prefix tagged with the blackhole
    community slips through.
    """

    prefix_filter: MaxPrefixLengthFilter = field(default_factory=MaxPrefixLengthFilter)
    irr: IrrDatabase | None = None
    validate_origin: bool = False
    blackhole_before_validation: bool = False

    def evaluate(
        self, prefix: Prefix, origin_asn: int, is_blackhole: bool
    ) -> FilterDecision:
        """Run the chain and return the first rejection (or acceptance)."""
        length_decision = self.prefix_filter.evaluate(prefix, origin_asn, is_blackhole)
        if not length_decision.accepted:
            return length_decision
        if self.blackhole_before_validation and is_blackhole:
            # The misconfigured route-map accepts the blackhole route without
            # ever reaching the origin-validation stanza.
            return FilterDecision(True, "blackhole community matched before validation")
        if self.validate_origin and self.irr is not None:
            irr_decision = self.irr.validate_origin(prefix, origin_asn)
            if not irr_decision.accepted:
                return irr_decision
        return _ACCEPT
