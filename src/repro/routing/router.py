"""The per-AS router: import processing, best-path selection, export processing.

A :class:`Router` models one AS's control plane at the granularity the
paper's scenarios need:

* **import**: loop prevention, inbound prefix/IRR filters (including the
  blackhole-before-validation misconfiguration), and application of the
  AS's own community services (prepend, local-pref, blackhole, selective
  announce, suppress), gated by business relationship when the service
  is documented as customers-only;
* **selection**: the standard decision process over all neighbors'
  Adj-RIB-In entries;
* **export**: Gao-Rexford relationship rules, per-route restrictions set
  by community actions, NO_EXPORT handling, community propagation policy
  and vendor defaults, own-ASN prepending.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bgp.attributes import PathAttributes
from repro.bgp.community import NO_ADVERTISE, NO_EXPORT, NO_PEER, CommunitySet
from repro.bgp.prefix import Prefix
from repro.bgp.rib import AdjRibIn, LocRib
from repro.bgp.route import Announcement, RouteEntry
from repro.exceptions import RoutingError
from repro.policy.actions import ActionType
from repro.policy.community_policy import ForwardAllPolicy
from repro.policy.filters import InboundFilterChain
from repro.policy.vendor import JUNIPER_PROFILE
from repro.routing.decision import best_path
from repro.topology.asys import AutonomousSystem
from repro.topology.relationships import Relationship


#: ``(blackholed, export_prepend, suppress_to, announce_only_to)`` of a
#: route no community service acted on.
_NO_EFFECTS = (False, 0, frozenset(), None)


@dataclass
class ExportDecision:
    """Outcome of deciding whether/how to export a route to one neighbor."""

    export: bool
    announcement: Announcement | None = None
    reason: str = ""
    #: What the gates read of the route (see :meth:`Router._route_scope`);
    #: None when the neighbor is unknown.
    scope: tuple | None = None


class Router:
    """The BGP speaker of one AS."""

    def __init__(
        self,
        asys: AutonomousSystem,
        neighbor_relationships: dict[int, Relationship],
    ):
        self.asys = asys
        self.asn = asys.asn
        self.neighbor_relationships = dict(neighbor_relationships)
        self.propagation_policy = asys.propagation_policy or ForwardAllPolicy()
        self.services = asys.services
        self.vendor = asys.vendor or JUNIPER_PROFILE
        self.inbound_filters = InboundFilterChain(
            validate_origin=asys.validates_origin,
            blackhole_before_validation=asys.blackhole_before_validation,
        )
        #: Whether the operator explicitly configured community sending
        #: (matters only for vendors that do not send by default).
        self.send_community_configured = True
        self.adj_rib_in: dict[int, AdjRibIn] = {
            asn: AdjRibIn(asn) for asn in self.neighbor_relationships
        }
        #: Sorted neighbor list, rebuilt lazily when sessions are added.
        self._neighbor_order: list[int] | None = None
        self.loc_rib = LocRib()
        #: Prefixes this router originates, with the attributes it uses.
        self.originated: dict[Prefix, PathAttributes] = {}
        #: Communities added on export towards specific neighbors.  This is how
        #: an on-path attacker tags somebody else's prefix with a remote AS's
        #: service community on selected sessions (Figures 2, 7(a) and 8(b)).
        self.export_community_additions: dict[int, CommunitySet] = {}

    # ---------------------------------------------------------------- helpers
    def relationship_with(self, neighbor_asn: int) -> Relationship | None:
        """Relationship from this AS's point of view (None if not a neighbor)."""
        return self.neighbor_relationships.get(neighbor_asn)

    def neighbors(self) -> list[int]:
        """All neighbor ASNs, sorted.

        The sorted order is cached (the propagation worklist asks on
        every export step); callers must treat the list as read-only
        and add sessions via :meth:`add_neighbor`, which invalidates it.
        """
        if self._neighbor_order is None:
            self._neighbor_order = sorted(self.neighbor_relationships)
        return self._neighbor_order

    def add_neighbor(self, neighbor_asn: int, relationship: Relationship) -> None:
        """Register a neighbor session added after construction.

        Keeps ``adj_rib_in`` in sync so a later announcement from that
        ASN (e.g. a route-collector peering) does not hit a missing RIB.
        An existing relationship is preserved.
        """
        self.neighbor_relationships.setdefault(neighbor_asn, relationship)
        self.adj_rib_in.setdefault(neighbor_asn, AdjRibIn(neighbor_asn))
        self._neighbor_order = None

    def fork(self) -> "Router":
        """An independent twin of this router in its exact current state.

        Shares the AS and the configuration objects (policy, catalogue,
        vendor, filters); copies sessions, Adj-RIBs-In, Loc-RIB,
        originations and export additions.  Routes are immutable and shared.
        """
        # What copy.copy returns, without its __reduce_ex__ round trip.
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin.neighbor_relationships = dict(self.neighbor_relationships)
        twin.adj_rib_in = {asn: rib.copy() for asn, rib in self.adj_rib_in.items()}
        twin._neighbor_order = None
        twin.loc_rib = self.loc_rib.copy()
        twin.originated = dict(self.originated)
        twin.export_community_additions = dict(self.export_community_additions)
        return twin

    def _rib_in(self, neighbor_asn: int) -> AdjRibIn:
        """The Adj-RIB-In for ``neighbor_asn``, created lazily if missing."""
        rib = self.adj_rib_in.get(neighbor_asn)
        if rib is None:
            rib = self.adj_rib_in[neighbor_asn] = AdjRibIn(neighbor_asn)
        return rib

    # ------------------------------------------------------------- origination
    def originate(
        self,
        prefix: Prefix,
        communities: CommunitySet | None,
        origin_asn: int | None,
    ) -> RouteEntry:
        """Originate ``prefix`` locally (spoofing ``origin_asn`` for hijacks, ``None``
        for an honest origination).

        The AS path of an originated route is just the origin ASN; the
        router's own ASN is prepended on export like any other route, so
        announcing with a spoofed origin yields path ``self_asn origin_asn``
        downstream unless ``origin_asn`` equals ``self.asn``.
        """
        from repro.bgp.aspath import ASPath

        effective_origin = origin_asn if origin_asn is not None else self.asn
        as_path = ASPath.of(effective_origin) if effective_origin != self.asn else ASPath.of()
        attributes = PathAttributes(as_path=as_path, communities=communities or CommunitySet())
        self.originated[prefix] = attributes
        self._refresh_best(prefix)
        return RouteEntry(prefix, attributes, self.asn)

    def withdraw_origination(self, prefix: Prefix) -> None:
        """Stop originating ``prefix``."""
        self.originated.pop(prefix, None)
        self._refresh_best(prefix)

    # ----------------------------------------------------------------- import
    def import_announcement(self, announcement: Announcement) -> tuple[RouteEntry, tuple]:
        """Run import policy and update the Adj-RIB-In, *without* re-selecting.

        This is the deferred half used by the batch propagation engine:
        it leaves best-path selection to a later :meth:`refresh_best`,
        so a router receiving several updates for one prefix in the same
        wave re-selects once.  Every import runs the same pipeline:
        neighbour check, loop prevention, inbound filters (including
        the blackhole-before-validation misconfiguration), LOCAL_PREF
        reset, this AS's community services, one stored entry.  Returns
        that entry (``rejected`` / ``rejection_reason`` say how it
        fared) and the action types its communities triggered.

        A rejected update still implicitly withdraws whatever this
        sender announced for the prefix before (RFC 4271 §9.1.4): the
        rejected entry replaces the stale one, so it never lingers.
        """
        prefix, attributes, sender, origin_asn = announcement
        if sender not in self.neighbor_relationships:
            raise RoutingError(f"AS{self.asn} received an announcement from non-neighbor AS{sender}")
        # Emptiness is asked once: an untagged route is neither a
        # blackhole request nor a trigger for any community service.
        communities = attributes.communities
        tagged = bool(communities)
        # Loop prevention: reject routes already containing our ASN.
        if attributes.as_path.contains(self.asn):
            reason = "as-path loop"
        else:
            decision = self.inbound_filters.evaluate(
                prefix, origin_asn, tagged and self._is_blackhole_tagged(communities)
            )
            reason = None if decision.accepted else decision.reason
        if reason is not None:
            entry = RouteEntry(prefix, attributes, sender, False, True, reason)
            triggered = ()
        else:
            # eBGP: LOCAL_PREF is not accepted from neighbors; reset to default so
            # only this AS's own policies (community services) can set it.
            if attributes.local_pref is not None:
                attributes = attributes.replace(local_pref=None)
            effects, triggered = _NO_EFFECTS, ()
            if tagged and self.services is not None:
                attributes, effects, triggered = self._apply_community_services(attributes, sender)
            blackholed, export_prepend, suppress_to, announce_only_to = effects
            # Positional (field order): keyword construction costs half as much again.
            entry = RouteEntry(
                prefix,
                attributes,
                sender,
                blackholed,
                False,  # rejected
                None,  # rejection_reason
                export_prepend,
                suppress_to,
                announce_only_to,
            )
        self._rib_in(sender).update(entry)
        return entry, triggered

    def remove_announcement(self, prefix: Prefix, sender_asn: int) -> bool:
        """Drop a neighbor's route *without* re-selecting; True if one existed."""
        rib = self.adj_rib_in.get(sender_asn)
        return rib is not None and rib.withdraw(prefix) is not None

    def _is_blackhole_tagged(self, communities: CommunitySet) -> bool:
        """True if the (non-empty) community set carries a blackhole community relevant here."""
        return bool(communities.blackhole_communities()) or (
            self.services is not None
            and any(c in communities for c in self.services.blackhole_communities())
        )

    def _apply_community_services(
        self, attributes: PathAttributes, sender: int
    ) -> tuple[PathAttributes, tuple, tuple]:
        """Apply this AS's own community services to a route accepted from ``sender``.

        Returns the attributes, the :class:`RouteEntry` fields the
        services set (``blackholed, export_prepend, suppress_to,
        announce_only_to``) and the triggered action types.  The caller
        has checked that there is a catalogue and that the route is
        tagged; a route carrying no community the catalogue documents
        passes through without allocating anything.
        """
        matching = self.services.matching(attributes.communities)
        if not matching:
            return attributes, _NO_EFFECTS, ()
        from_customer = self.relationship_with(sender) == Relationship.CUSTOMER
        triggered: list[ActionType] = []
        blackholed = False
        export_prepend = 0
        suppress_to: set[int] = set()
        announce_only_to = None
        for service in matching:
            if service.customers_only and not from_customer:
                continue
            outcome = service.action.apply(attributes, self.asn)
            attributes = outcome.attributes
            export_prepend += outcome.export_prepend
            blackholed = blackholed or outcome.blackholed
            suppress_to |= set(outcome.suppress_to)
            if outcome.announce_only_to is not None:
                if announce_only_to is None:
                    announce_only_to = outcome.announce_only_to
                else:
                    announce_only_to = frozenset(announce_only_to & outcome.announce_only_to)
            triggered.append(service.action_type)
        effects = (blackholed, export_prepend, frozenset(suppress_to), announce_only_to)
        return attributes, effects, tuple(triggered)

    # -------------------------------------------------------------- selection
    def _candidates(self, prefix: Prefix) -> list[RouteEntry]:
        """All candidate routes for ``prefix`` (originated + received)."""
        candidates: list[RouteEntry] = []
        originated = self.originated.get(prefix)
        if originated is not None:
            candidates.append(RouteEntry(prefix, originated, self.asn))
        for rib in self.adj_rib_in.values():
            entry = rib.get(prefix)
            if entry is not None:
                candidates.append(entry)
        return candidates

    def refresh_best(self, prefix: Prefix) -> bool:
        """Recompute the best route for ``prefix``; return True if it changed.

        The deferred half of the batch import cycle (see
        :meth:`import_announcement`).
        """
        return self._refresh_best(prefix)

    def _refresh_best(self, prefix: Prefix, candidates: list[RouteEntry] | None = None) -> bool:
        """Recompute the best route for ``prefix``; return True if it changed.

        A caller holding the complete ``candidates`` (shard state install) skips the scan.
        """
        if candidates is None:
            candidates = self._candidates(prefix)
        previous = self.loc_rib.best(prefix)
        new_best = best_path(candidates)
        self.loc_rib.set_candidates(prefix, candidates)
        # The stored best is the candidate object itself, so an unchanged
        # selection (and "still no route") is an identity hit.
        if previous is new_best:
            return False
        # Otherwise compare the full entry: export-side fields like
        # suppress_to, announce_only_to and export_prepend change what
        # neighbors receive, so a re-announcement that only alters them must
        # still report a change and re-trigger export processing.  The
        # Loc-RIB is only written when something did change — on the
        # propagation hot path most refreshes are no-ops.
        if previous is not None and new_best is not None and previous.same_route(new_best):
            return False
        self.loc_rib.set_best(prefix, new_best)
        return True

    # ----------------------------------------------------------------- export
    def export_memo_key(self, neighbor_asn: int) -> tuple:
        """The key under which export rewrites to ``neighbor_asn`` may be shared.

        Everything the outbound-attribute rewrite reads beyond the best
        route itself is per-router constant (vendor, send-community
        configuration) except two neighbor-dependent inputs: the
        propagation policy's treatment of the neighbor (see
        :meth:`CommunityPropagationPolicy.neighbor_signature`) and any
        per-session export community additions.  Two sessions with equal
        keys therefore receive byte-identical outbound attributes for
        the same best route — which is how the collector harvest lets N
        collectors sharing one peer pay the rewrite chain once.
        """
        return (
            "shared-export",
            self.asn,
            self.propagation_policy.neighbor_signature(neighbor_asn),
            self.export_community_additions.get(neighbor_asn),
        )

    def _route_scope(self, best: RouteEntry | None) -> tuple:
        """Everything the export gates read from the route, gathered once per best route.

        ``(why nobody receives it | "", learned from, NO_PEER is set,
        customers only, suppress_to, announce_only_to)``.
        """
        if best is None:
            return "no best route", None, False, False, frozenset(), None
        learned_from = best.learned_from
        suppress_to, announce_only_to = best.suppress_to, best.announce_only_to
        communities = best.attributes.communities
        no_peer = False
        if communities:
            if NO_ADVERTISE in communities:
                return "NO_ADVERTISE", learned_from, False, False, suppress_to, announce_only_to
            if NO_EXPORT in communities:
                return "NO_EXPORT", learned_from, False, False, suppress_to, announce_only_to
            no_peer = NO_PEER in communities
        # A blackholed best route is still exported: most operators scope
        # blackhole routes with NO_EXPORT, and exporting the rest keeps
        # multi-hop blackhole propagation (observed in the wild) possible.
        # Gao-Rexford: peer and provider routes go to customers only.
        customers_only = learned_from != self.asn and self.relationship_with(learned_from) in (
            Relationship.PEER,
            Relationship.PROVIDER,
        )
        return "", learned_from, no_peer, customers_only, suppress_to, announce_only_to

    def _session_block(self, scope: tuple, neighbor_asn: int, relationship_out: Relationship) -> str:
        """Why a route of ``scope`` is not exported on one session ("" when it is)."""
        blocked, learned_from, no_peer, customers_only, suppress_to, announce_only_to = scope
        # Do not send a route back to the neighbor we learned it from.
        if learned_from == neighbor_asn:
            return "split horizon"
        if blocked:
            return blocked
        if no_peer and relationship_out == Relationship.PEER:
            return "NO_PEER"
        # Restrictions set by community actions at this AS.
        if neighbor_asn in suppress_to:
            return "suppressed by community action"
        if announce_only_to is not None and neighbor_asn not in announce_only_to:
            return "not in selective-announce set"
        if customers_only and relationship_out != Relationship.CUSTOMER:
            return "valley-free export rule"
        return ""

    def _announcement(
        self, best: RouteEntry, neighbor_asn: int, cache: dict | None, shared_key: tuple | None
    ) -> Announcement:
        """Rewrite ``best`` for one session, through the ``cache`` memo if given."""
        attributes = best.attributes
        key = memo = None
        if cache is not None:
            key = (shared_key or self.export_memo_key(neighbor_asn), attributes, best.export_prepend)
            memo = cache.get(key)
        if memo is None:
            # Communities: propagation policy decides what is forwarded; vendors
            # that do not send communities by default strip everything unless
            # explicitly configured.
            if not self.vendor.effective_send_communities(self.send_community_configured):
                outbound_communities = CommunitySet()
            else:
                outbound_communities = self.propagation_policy.outbound_communities(
                    attributes.communities, self.asn, neighbor_asn
                )
            additions = self.export_community_additions.get(neighbor_asn)
            if additions:
                outbound_communities = outbound_communities.union(additions)
            # AS0 is falsy but a representable (spoofed) origin, so only an
            # empty path falls back to the exporter's own ASN.
            origin_asn = attributes.as_path.origin_asn
            memo = (
                attributes.replace(
                    as_path=attributes.as_path.prepend(self.asn, 1 + best.export_prepend),
                    communities=outbound_communities,
                    local_pref=None,
                ),
                self.asn if origin_asn is None else origin_asn,
            )
            if key is not None:
                cache[key] = memo
        return Announcement(best.prefix, memo[0], self.asn, memo[1])

    def export_to(
        self,
        neighbor_asn: int,
        prefix: Prefix,
        cache: dict | None = None,
        shared_key: tuple | None = None,
    ) -> ExportDecision:
        """Decide whether and how the current best route for ``prefix`` is exported.

        ``cache`` is an optional batch-scoped memo (see
        :meth:`BgpSimulator.apply`): the outbound-attribute construction
        depends on everything about the best route *except* its prefix,
        and on the session only through :meth:`export_memo_key`, so a
        batch pays the policy/prepend/rewrite cost once per (router,
        neighbor signature, attributes) — not per prefix, not per
        neighbor.  The cache must not outlive the propagation pass —
        policies, sessions and export additions may change between
        passes.  ``shared_key`` is this session's :meth:`export_memo_key`
        when the caller already holds it.  The gates (split horizon,
        scoping communities, suppress / selective-announce sets,
        valley-free rule) run against the concrete ``neighbor_asn``
        before the memo is consulted, so only the rewrite tail is shared.
        """
        relationship_out = self.relationship_with(neighbor_asn)
        if relationship_out is None:
            return ExportDecision(False, reason=f"AS{neighbor_asn} is not a neighbor")
        best = self.loc_rib.best(prefix)
        scope = self._route_scope(best)
        reason = self._session_block(scope, neighbor_asn, relationship_out)
        if reason:
            return ExportDecision(False, reason=reason, scope=scope)
        return ExportDecision(
            True, self._announcement(best, neighbor_asn, cache, shared_key), scope=scope
        )

    def export_fanout(self, prefix: Prefix, cache: dict) -> list[tuple[int, Announcement | None]]:
        """What each neighbor receives for ``prefix`` now, in :meth:`neighbors` order.

        ``None`` means "withdraw what you hold from me".  Same gates and
        rewrite as :meth:`export_to`, arranged for the propagation loop:
        the route-level gates run once, and sessions with equal
        :meth:`export_memo_key` share one :class:`Announcement` — a
        transit router exporting to seven customers builds one attribute
        bundle and one AS path.  The session plan ``(neighbor,
        relationship, memo key)`` is constant while the batch-scoped
        ``cache`` lives (see :meth:`export_to`) and is kept in it.
        """
        sessions = cache.get(("sessions", self.asn))
        if sessions is None:
            relationships = self.neighbor_relationships
            sessions = cache["sessions", self.asn] = [
                (neighbor_asn, relationships[neighbor_asn], self.export_memo_key(neighbor_asn))
                for neighbor_asn in self.neighbors()
            ]
        best = self.loc_rib.best(prefix)
        scope = self._route_scope(best)
        if scope[0]:
            return [(neighbor_asn, None) for neighbor_asn, _, _ in sessions]
        shared: dict[tuple, Announcement] = {}
        plan: list[tuple[int, Announcement | None]] = []
        for neighbor_asn, relationship, key in sessions:
            announcement = None
            if not self._session_block(scope, neighbor_asn, relationship):
                announcement = shared.get(key)
                if announcement is None:
                    announcement = shared[key] = self._announcement(best, neighbor_asn, cache, key)
            plan.append((neighbor_asn, announcement))
        return plan

    def export_all_to(
        self,
        neighbor_asn: int,
        cache: dict,
        shared_key: tuple,
    ) -> list[Announcement]:
        """Export every best route to one neighbor, in Loc-RIB order (used for collector feeds).

        ``cache``/``shared_key`` are the :meth:`export_to` memo hooks
        (``shared_key`` is this session's :meth:`export_memo_key`).  The
        first session of a (router, ``shared_key``) pair builds a table in
        ``cache`` with one :meth:`export_to` per Loc-RIB prefix: ``(route
        scope, Announcement or None)``, rewritten even where only this
        session's gates refuse it.  Each session then filters the table
        through its own gates (split horizon, NO_PEER, suppress /
        selective-announce sets, valley-free rule).  The table is the
        Loc-RIB as it stood when it was built, so the cache must not
        outlive one harvest — the rule :meth:`export_to` states for its memo.
        """
        relationship_out = self.relationship_with(neighbor_asn)
        if relationship_out is None:
            return []
        table = cache.get(("table", shared_key))
        if table is None:
            table = []
            for best in self.loc_rib.best_routes():
                decision = self.export_to(neighbor_asn, best.prefix, cache, shared_key)
                scope, announcement = decision.scope, decision.announcement
                if announcement is None and not scope[0]:
                    # Only this session's gates refused it: the others may not.
                    announcement = self._announcement(best, neighbor_asn, cache, shared_key)
                table.append((scope, announcement))
            cache["table", shared_key] = table
        block = self._session_block
        return [
            announcement
            for scope, announcement in table
            if not block(scope, neighbor_asn, relationship_out)
        ]
