"""Per-AS community service catalogues.

Each AS that offers community-based services (prepending, local-pref
tuning, RTBH, selective announcement, ...) publishes which community
triggers which action.  The catalogue is also what the attacker reads:
the paper notes that providers document their communities on their
websites and in IRR records, so an attacker knows exactly which value
to attach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.bgp.community import BLACKHOLE, Community, CommunitySet
from repro.exceptions import PolicyError
from repro.policy.actions import (
    ActionType,
    BlackholeAction,
    CommunityAction,
    LocalPrefAction,
    PrependAction,
)


@dataclass(frozen=True)
class ServiceDefinition:
    """One documented community service: the trigger community and its action."""

    community: Community
    action: CommunityAction
    description: str = ""
    #: If True the service is only honoured for routes learned from customers
    #: (the business-relationship gating the paper hits in Section 7.4).
    customers_only: bool = True

    @property
    def action_type(self) -> ActionType:
        """The taxonomy category of the action."""
        return self.action.action_type


class CommunityServiceCatalog:
    """The set of community services one AS offers, keyed by community."""

    #: Memo of :meth:`blackhole_communities`, reset by :meth:`add`.
    _blackholes: list[Community] | None = None

    def __init__(self, owner_asn: int, services: Iterable[ServiceDefinition]):
        self.owner_asn = owner_asn
        self._services: dict[Community, ServiceDefinition] = {}
        for service in services:
            self.add(service)

    def add(self, service: ServiceDefinition) -> None:
        """Register a service; the community must not already be defined."""
        if service.community in self._services:
            raise PolicyError(
                f"community {service.community} already defined in AS{self.owner_asn}'s catalog"
            )
        self._services[service.community] = service
        self._blackholes = None

    def __getstate__(self) -> dict:
        # The memo stays home: router configs ship to shard workers as pickles.
        return {k: v for k, v in self.__dict__.items() if k != "_blackholes"}

    def get(self, community: Community) -> ServiceDefinition | None:
        """Return the service triggered by ``community`` (None if undefined)."""
        return self._services.get(community)

    def matching(self, communities: CommunitySet) -> list[ServiceDefinition]:
        """Return the services triggered by any community in ``communities``.

        The result is ordered by the community's numeric value — the
        same normalisation order routers use — so the caller can apply a
        deterministic (if arbitrary) evaluation order, as Section 6.3
        describes.
        """
        triggered = [
            self._services[c] for c in communities if c in self._services
        ]
        return sorted(triggered, key=lambda s: s.community.to_int())

    def services_of_type(self, action_type: ActionType) -> list[ServiceDefinition]:
        """Return all services of one taxonomy category."""
        return sorted(
            (s for s in self._services.values() if s.action_type == action_type),
            key=lambda s: s.community.to_int(),
        )

    def blackhole_communities(self) -> list[Community]:
        """Return the communities that trigger blackholing at this AS (memoised until ``add``)."""
        if self._blackholes is None:
            self._blackholes = [s.community for s in self.services_of_type(ActionType.BLACKHOLE)]
        return list(self._blackholes)

    def communities(self) -> list[Community]:
        """Return every documented trigger community."""
        return sorted(self._services)

    def __len__(self) -> int:
        return len(self._services)

    def __iter__(self) -> Iterator[ServiceDefinition]:
        return iter(self._services.values())

    def __contains__(self, community: Community) -> bool:
        return community in self._services

    # ------------------------------------------------------------ constructors
    @classmethod
    def standard_transit_catalog(cls, owner_asn: int) -> "CommunityServiceCatalog":
        """Build a catalogue resembling a large transit provider's documentation.

        Mirrors the NTT-style scheme cited in the paper: ``asn:421`` for
        prepend once, ``asn:422`` twice, ``asn:423`` three times, a
        "customer backup" local-pref community (``asn:70``), all four for
        customers only, and an RTBH community (``asn:666``), plus
        acceptance of the well-known BLACKHOLE community.
        """
        services = [
            ServiceDefinition(
                community=Community(owner_asn, value),
                action=PrependAction(count=count),
                description=f"prepend AS{owner_asn} {count}x to all peers",
            )
            for count, value in enumerate((421, 422, 423), start=1)
        ]
        services.append(
            ServiceDefinition(
                community=Community(owner_asn, 70),
                action=LocalPrefAction(local_pref=70),
                description="set local-pref to customer backup",
            )
        )
        services.append(
            ServiceDefinition(
                community=Community(owner_asn, 666),
                action=BlackholeAction(),
                description="remotely triggered blackhole",
                customers_only=False,
            )
        )
        services.append(
            ServiceDefinition(
                community=BLACKHOLE,
                action=BlackholeAction(),
                description="RFC 7999 BLACKHOLE",
                customers_only=False,
            )
        )
        return cls(owner_asn, services)
