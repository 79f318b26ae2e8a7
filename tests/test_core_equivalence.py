"""Generated equivalence and count gates for the in-process core's hot loop.

Eight contracts, none of them timed:

* the import pipeline (`Router.import_announcement`, what the engine
  runs per delivered update) stores what an independent gate-by-gate
  oracle says on generated routers, filter chains and announcements,
  and a rejected update replaces the sender's earlier accepted route;
* the export fan-out (`Router.export_fanout`, what the engine runs per
  best-path change) equals per-neighbor `Router.export_to` on generated
  routers, routes and policy mixes;
* the full-table export (`Router.export_all_to`, what a collector
  harvest runs per session) equals the gate-by-gate oracle when every
  session shares one cache, and with it the tables built for other sessions;
* the LPM table of `Fib` equals a brute-force longest-match scan after
  arbitrary interleavings of writes, removes and lookups — the only guard
  of the table's *delete* path, which no benchmark workload reaches;
* on generated small Internets and churn (announce, tagged re-announce,
  withdraw, re-announce, duplicates, spoofed origins) one batched
  ``apply()`` leaves the Loc-RIBs, Adj-RIBs-In and FIBs of a sequential
  ``announce()`` / ``withdraw()`` loop, and the converged state keeps its
  invariants — the stand-in for a ``churn`` ledger workload;
* the same churn fed through a coalescing ``SimulatorService`` at a
  drawn window, with drawn extra drains, collector harvests and
  router-config edits between rounds, converges to the Loc-RIBs,
  Adj-RIBs-In, FIBs and harvested rows of event-by-event ``apply()``
  (coalescing keys on ``Prefix``, so this also guards its hash and
  equality);
* a ``BgpSimulator.fork()`` taken after any prefix of that churn, then
  reconfigured (a swapped router config plus export communities or a
  collector session) and churned on, converges to what a fresh simulator
  given the same history converges to, and the original does not move;
* on a small fixed topology the work per best-path change stays
  proportional to what differs: rewrites are bounded by changed bests x
  distinct neighbor signatures; convergence writes no LPM table, the FIB
  patch at most one entry per dirty (router, prefix) pair, and a lookup none.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.attacks.scenario import build_figure7_topology
from repro.bgp.aspath import ASPath
from repro.bgp.attributes import PathAttributes
from repro.bgp.community import NO_ADVERTISE, NO_EXPORT, NO_PEER, Community, CommunitySet
from repro.bgp.prefix import AddressFamily, Prefix
from repro.bgp.route import Announcement, RouteEntry
from repro.collectors.platform import Collector, CollectorDeployment, CollectorPlatform
from repro.dataplane.fib import Fib, FibEntry
from repro.dataplane.forwarding import DataPlane
from repro.net.lpm import LpmTable
from repro.exceptions import RoutingError
from repro.policy.actions import (
    ActionType,
    BlackholeAction,
    LocalPrefAction,
    PrependAction,
    SelectiveAnnounceAction,
    SuppressAction,
)
from repro.policy.community_policy import (
    ForwardAllPolicy,
    SelectivePolicy,
    StripAllPolicy,
    StripOwnPolicy,
)
from repro.policy.filters import InboundFilterChain, IrrDatabase, MaxPrefixLengthFilter
from repro.policy.services import CommunityServiceCatalog, ServiceDefinition
from repro.policy.vendor import CISCO_PROFILE, JUNIPER_PROFILE
from repro.routing.decision import best_path
from repro.routing.engine import BgpSimulator, RoutingEvent, SimulationReport, origination_events
from repro.routing.router import Router
from repro.routing.stream import SimulatorService
from repro.topology.asys import AutonomousSystem
from repro.topology.relationships import Relationship
from repro.topology.topology import Topology
from test_lpm import linear_longest_match

OWN_ASN = 10
NEIGHBORS = (20, 30, 40, 50, 60, 70)
PREFIXES = (Prefix.from_string("203.0.113.0/24"), Prefix.from_string("2001:db8::/48"))

#: Service triggers of the generated catalogue, beside tags nobody acts on.
PREPEND, SUPPRESS, SUPPRESS_ALL, ONLY_TO = (Community(OWN_ASN, value) for value in (421, 600, 601, 700))
TAG_POOL = (
    NO_PEER, NO_EXPORT, NO_ADVERTISE, PREPEND, SUPPRESS, SUPPRESS_ALL, ONLY_TO,
    Community(OWN_ASN, 5), Community(64512, 7), Community(20, 421), Community(65000, 666),
)

neighbor_subsets = st.sets(st.sampled_from(NEIGHBORS)).map(frozenset)
policies = st.one_of(
    st.just(ForwardAllPolicy()),
    st.just(StripAllPolicy()),
    st.just(StripOwnPolicy()),
    st.builds(SelectivePolicy, forward_to_neighbors=neighbor_subsets),
)
tag_sets = st.sets(st.sampled_from(TAG_POOL), max_size=4).map(lambda tags: CommunitySet(tags))


@st.composite
def routers_with_a_best_route(draw) -> Router:
    """A configured router holding best routes for :data:`PREFIXES`."""
    neighbors = draw(st.lists(st.sampled_from(NEIGHBORS), min_size=1, unique=True))
    relationships = {asn: draw(st.sampled_from(list(Relationship))) for asn in neighbors}
    catalog = CommunityServiceCatalog(
        OWN_ASN,
        [
            ServiceDefinition(PREPEND, PrependAction(count=draw(st.integers(1, 3))), customers_only=False),
            ServiceDefinition(
                SUPPRESS,
                SuppressAction(neighbor_asns=draw(neighbor_subsets)),
                customers_only=draw(st.booleans()),
            ),
            ServiceDefinition(SUPPRESS_ALL, SuppressAction(suppress_all=True), customers_only=False),
            ServiceDefinition(
                ONLY_TO,
                SelectiveAnnounceAction(neighbor_asns=draw(neighbor_subsets.filter(bool))),
                customers_only=False,
            ),
        ],
    )
    router = Router(
        AutonomousSystem(
            asn=OWN_ASN,
            propagation_policy=draw(policies),
            services=draw(st.sampled_from([catalog, None])),
            vendor=draw(st.sampled_from([CISCO_PROFILE, JUNIPER_PROFILE])),
        ),
        relationships,
    )
    router.send_community_configured = draw(st.booleans())
    for asn in draw(st.sets(st.sampled_from(neighbors))):
        router.export_community_additions[asn] = draw(tag_sets.filter(bool))
    # The same route under both prefixes, so the batch memo is hit across them.
    communities = draw(tag_sets)
    sender = draw(st.sampled_from([OWN_ASN, *neighbors]))
    for prefix in PREFIXES:
        if sender == OWN_ASN:
            router.originate(prefix, communities=communities, origin_asn=None)
        else:
            router.import_announcement(
                Announcement(
                    prefix=prefix,
                    attributes=PathAttributes(as_path=ASPath.of(sender, 99), communities=communities),
                    sender_asn=sender,
                    origin_asn=99,
                )
            )
            router.refresh_best(prefix)
    return router


def _sent(announcement: Announcement | None):
    if announcement is None:
        return None
    return (announcement.prefix, announcement.attributes, announcement.sender_asn, announcement.origin_asn)


def reference_export(router: Router, neighbor_asn: int, prefix: Prefix):
    """The export rules written out per neighbor, gate by gate: a reason or what is sent.

    Deliberately shares no code with the router: ``export_to`` and the
    fan-out use one implementation, so comparing them with each other
    would not notice a gate both got wrong.
    """
    out = router.neighbor_relationships[neighbor_asn]
    best = router.loc_rib.best(prefix)
    if best is None:
        return "no best route"
    if best.learned_from == neighbor_asn:
        return "split horizon"
    tags = best.attributes.communities
    if NO_ADVERTISE in tags:
        return "NO_ADVERTISE"
    if NO_EXPORT in tags:
        return "NO_EXPORT"
    if NO_PEER in tags and out == Relationship.PEER:
        return "NO_PEER"
    if neighbor_asn in best.suppress_to:
        return "suppressed by community action"
    if best.announce_only_to is not None and neighbor_asn not in best.announce_only_to:
        return "not in selective-announce set"
    learned = router.neighbor_relationships.get(best.learned_from)
    if learned in (Relationship.PEER, Relationship.PROVIDER) and out != Relationship.CUSTOMER:
        return "valley-free export rule"
    sent = CommunitySet()
    if router.vendor.effective_send_communities(router.send_community_configured):
        sent = router.propagation_policy.outbound_communities(tags, router.asn, neighbor_asn)
    sent = sent.union(router.export_community_additions.get(neighbor_asn, CommunitySet()))
    path = [router.asn] * (1 + best.export_prepend) + best.attributes.as_path.asns()
    attributes = best.attributes.replace(
        as_path=ASPath.of(*path), communities=sent, local_pref=None
    )
    return (prefix, attributes, router.asn, path[-1])


@settings(max_examples=300, deadline=None)
@given(routers_with_a_best_route())
def test_fanout_equals_per_neighbor_export(router: Router):
    cache: dict = {}
    for prefix in (*PREFIXES, Prefix.from_string("198.51.100.0/24")):  # the last has no route
        plan = router.export_fanout(prefix, cache)
        assert [asn for asn, _ in plan] == router.neighbors()
        for neighbor_asn, announcement in plan:
            decision = router.export_to(neighbor_asn, prefix)
            assert (announcement is not None) == decision.export, decision.reason
            assert _sent(announcement) == _sent(decision.announcement)
            assert (_sent(announcement) or decision.reason) == reference_export(router, neighbor_asn, prefix)
    # Sessions the policy treats alike were handed one shared object.
    plan = router.export_fanout(PREFIXES[0], cache)
    by_key: dict = {}
    for neighbor_asn, announcement in plan:
        if announcement is not None:
            assert by_key.setdefault(router.export_memo_key(neighbor_asn), announcement) is announcement


@settings(max_examples=300, deadline=None)
@given(routers_with_a_best_route(), st.data())
def test_shared_full_table_export_equals_per_neighbor_export(router: Router, data):
    # Every neighbour twice, in a drawn order, through one cache: a table
    # built for one session must serve each other session with its own gates.
    cache: dict = {}
    for neighbor_asn in data.draw(st.permutations(router.neighbors() * 2)):
        exported = router.export_all_to(neighbor_asn, cache, router.export_memo_key(neighbor_asn))
        expected = [
            sent
            for sent in (reference_export(router, neighbor_asn, p) for p in router.loc_rib.prefixes())
            if not isinstance(sent, str)
        ]
        assert [_sent(announcement) for announcement in exported] == expected, neighbor_asn


# ------------------------------------------------------------ import pipeline
LOCAL_PREF, BLACKHOLE_SERVICE = Community(OWN_ASN, 80), Community(OWN_ASN, 999)
RFC7999_BLACKHOLE = Community(65535, 666)
IMPORT_PREFIXES = tuple(
    Prefix.from_string(text)
    for text in (
        "10.0.0.0/8", "203.0.113.0/24", "203.0.113.128/25", "203.0.113.200/32",
        "2001:db8::/32", "2001:db8::/48", "2001:db8:0:1::/64", "2001:db8::1/128",
    )
)
#: Candidate IRR objects: covering and exact, IPv4 and IPv6, origins 99 and 7.
IRR_OBJECTS = tuple(
    (Prefix.from_string(text), origin)
    for text, origin in (
        ("203.0.113.0/24", 99), ("203.0.113.0/24", 7), ("203.0.113.128/25", 7),
        ("10.0.0.0/8", 99), ("2001:db8::/32", 7), ("2001:db8::/48", 99),
    )
)
import_tag_sets = st.sets(
    st.sampled_from((*TAG_POOL, LOCAL_PREF, BLACKHOLE_SERVICE, RFC7999_BLACKHOLE)), max_size=4
).map(CommunitySet)


@st.composite
def importing_routers(draw) -> Router:
    """A router with a generated service catalogue, relationship mix and inbound filter chain."""
    neighbors = draw(st.lists(st.sampled_from(NEIGHBORS), min_size=1, unique=True))
    flag = st.booleans()
    catalog = CommunityServiceCatalog(
        OWN_ASN,
        [
            ServiceDefinition(PREPEND, PrependAction(count=draw(st.integers(1, 3))), customers_only=draw(flag)),
            ServiceDefinition(SUPPRESS, SuppressAction(neighbor_asns=draw(neighbor_subsets)), customers_only=draw(flag)),
            ServiceDefinition(SUPPRESS_ALL, SuppressAction(suppress_all=True), customers_only=draw(flag)),
            ServiceDefinition(
                ONLY_TO,
                SelectiveAnnounceAction(neighbor_asns=draw(neighbor_subsets.filter(bool))),
                customers_only=draw(flag),
            ),
            ServiceDefinition(LOCAL_PREF, LocalPrefAction(local_pref=draw(st.integers(0, 300))), customers_only=draw(flag)),
            ServiceDefinition(
                BLACKHOLE_SERVICE,
                BlackholeAction(raise_local_pref_to=draw(st.sampled_from([None, 200]))),
                customers_only=draw(flag),
            ),
        ],
    )
    irr = IrrDatabase()
    irr.registered = draw(st.sets(st.sampled_from(IRR_OBJECTS)))  # what the oracle reads
    for prefix, origin in irr.registered:
        irr.register(prefix, origin)
    lengths = st.integers(0, 128)
    chain = InboundFilterChain(
        prefix_filter=MaxPrefixLengthFilter(
            *draw(st.one_of(st.just((24, 32, 24, 48, 128, 48)), st.tuples(*[lengths] * 6)))
        ),
        irr=draw(st.sampled_from([irr, None])),
        validate_origin=draw(flag),
        blackhole_before_validation=draw(flag),
    )
    router = Router(
        AutonomousSystem(asn=OWN_ASN, services=draw(st.sampled_from([catalog, catalog, None]))),
        {asn: draw(st.sampled_from(list(Relationship))) for asn in neighbors},
    )
    router.inbound_filters = chain
    return router


@st.composite
def inbound_announcements(draw, senders=st.sampled_from((*NEIGHBORS, 80))) -> Announcement:
    """An update from a neighbor (or a stranger): looping or not, tagged or not."""
    sender = draw(senders)
    origin = draw(st.sampled_from([99, 7]))
    middle = draw(st.lists(st.sampled_from([OWN_ASN, 300, 301, 301]), max_size=3))
    return Announcement(
        draw(st.sampled_from(IMPORT_PREFIXES)),
        PathAttributes(
            as_path=ASPath.of(sender, *middle, origin),
            communities=draw(import_tag_sets),
            local_pref=draw(st.sampled_from([None, None, 50, 400])),
        ),
        sender,
        origin,
    )


def reference_import(router: Router, announcement: Announcement):
    """The import rules written out gate by gate: the entry to store and what triggered.

    Like :func:`reference_export` it shares no code with the router —
    not even the filter classes or the actions' ``apply`` — so a gate
    the pipeline drops or reorders shows up as a difference.
    """
    prefix, attributes, sender = announcement.prefix, announcement.attributes, announcement.sender_asn
    relationship = router.neighbor_relationships.get(sender)
    if relationship is None:
        raise RoutingError("non-neighbor")

    def rejected(reason: str):
        return RouteEntry(prefix, attributes, sender, rejected=True, rejection_reason=reason), ()

    if router.asn in attributes.as_path.asns():
        return rejected("as-path loop")
    tags = set(attributes.communities)
    services = {} if router.services is None else {s.community: s for s in router.services}
    blackhole = any(
        tag.value == 666 or (tag in services and isinstance(services[tag].action, BlackholeAction))
        for tag in tags
    )
    chain, limits = router.inbound_filters, router.inbound_filters.prefix_filter
    v6 = prefix.family == AddressFamily.IPV6
    if blackhole:
        shortest = limits.min_blackhole_length_v6 if v6 else limits.min_blackhole_length
        longest = limits.max_blackhole_length_v6 if v6 else limits.max_blackhole_length
        if prefix.length < shortest:
            return rejected(f"blackhole prefix {prefix} shorter than /{shortest}")
        if prefix.length > longest:
            return rejected(f"blackhole prefix {prefix} longer than /{longest}")
    else:
        longest = limits.max_length_v6 if v6 else limits.max_length
        if prefix.length > longest:
            return rejected(f"prefix {prefix} longer than /{longest}")
    if chain.validate_origin and chain.irr is not None and not (chain.blackhole_before_validation and blackhole):
        registered = {
            origin for covering, origin in chain.irr.registered if covering.contains_prefix(prefix)
        }
        if registered and announcement.origin_asn not in registered:
            return rejected(
                f"origin AS{announcement.origin_asn} does not match registered origin(s) "
                + ", ".join(f"AS{asn}" for asn in sorted(registered))
            )
    local_pref, blackholed, prepend, suppress, only_to, triggered = None, False, 0, set(), None, []
    honoured = relationship == Relationship.CUSTOMER
    for tag in sorted(tags & set(services), key=Community.to_int):
        service, action = services[tag], services[tag].action
        if service.customers_only and not honoured:
            continue
        if isinstance(action, PrependAction):
            prepend += action.count  # deferred to export: the stored path stays as received
        elif isinstance(action, LocalPrefAction):
            local_pref = action.local_pref
        elif isinstance(action, BlackholeAction):
            blackholed = True
            if action.raise_local_pref_to is not None:
                local_pref = action.raise_local_pref_to
        elif isinstance(action, SelectiveAnnounceAction) or action.suppress_all:
            allowed = frozenset() if isinstance(action, SuppressAction) else action.neighbor_asns
            only_to = allowed if only_to is None else only_to & allowed
        else:
            suppress |= action.neighbor_asns
        triggered.append(action.action_type)
    stored = PathAttributes(
        as_path=attributes.as_path,
        local_pref=local_pref,
        communities=attributes.communities,
    )
    entry = RouteEntry(
        prefix, stored, sender, blackholed=blackholed, export_prepend=prepend,
        suppress_to=frozenset(suppress), announce_only_to=only_to,
    )
    return entry, tuple(triggered)


@settings(max_examples=300, deadline=None)
@given(importing_routers(), st.lists(inbound_announcements(), min_size=1, max_size=4))
def test_import_equals_the_gate_by_gate_oracle(router: Router, announcements):
    for announcement in announcements:
        if announcement.sender_asn not in router.neighbor_relationships:
            with pytest.raises(RoutingError, match=f"non-neighbor AS{announcement.sender_asn}"):
                router.import_announcement(announcement)
            continue
        entry, triggered = router.import_announcement(announcement)
        assert (entry, triggered) == reference_import(router, announcement)
        assert all(isinstance(action_type, ActionType) for action_type in triggered)
        # Stored as returned, under the sender, and nothing was selected yet.
        assert router.adj_rib_in[announcement.sender_asn].get(announcement.prefix) is entry
        assert router.loc_rib.best(announcement.prefix) is None


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(importing_routers(), st.data())
def test_a_rejected_update_replaces_the_senders_accepted_route(router: Router, data):
    sender = data.draw(st.sampled_from(router.neighbors()))
    accepted = data.draw(
        inbound_announcements(st.just(sender)).filter(
            lambda a: not reference_import(router, a)[0].rejected
        )
    )
    entry, _ = router.import_announcement(accepted)
    assert not entry.rejected
    router.refresh_best(accepted.prefix)
    assert router.loc_rib.best(accepted.prefix).learned_from == sender
    # The same neighbor now sends the prefix on a path that loops through this AS.
    looping = accepted.replace(
        attributes=accepted.attributes.replace(as_path=ASPath.of(sender, OWN_ASN, accepted.origin_asn))
    )
    entry, _ = router.import_announcement(looping)
    assert entry.rejected and entry.rejection_reason == "as-path loop"
    assert router.refresh_best(accepted.prefix)
    assert router.adj_rib_in[sender].get(accepted.prefix) is entry
    assert router.loc_rib.best(accepted.prefix) is None, "the stale accepted route must not linger"


# ------------------------------------------------------------- FIB LPM tables
LPM_PREFIXES = tuple(
    Prefix.from_string(text)
    for text in (
        "0.0.0.0/0", "10.0.0.0/8", "10.0.0.0/16", "10.0.1.0/24", "10.0.1.128/25", "10.0.1.200/32",
        "10.128.0.0/9", "192.0.2.0/24", "::/0", "2001:db8::/32", "2001:db8::/48", "2001:db8:0:1::/64",
        "2001:db8::1/128", "2a00::/16",
    )
)
operations = st.lists(
    st.tuples(st.sampled_from(["set", "remove", "lookup"]), st.sampled_from(LPM_PREFIXES), st.integers(0, 255)),
    max_size=60,
)


def brute_force(table: dict[Prefix, object], address: int, family: AddressFamily):
    hit = linear_longest_match(table, address, family)
    return None if hit is None else hit[1]


@settings(max_examples=300, deadline=None)
@given(operations)
def test_fib_lookup_equals_a_brute_force_scan(ops):
    fib = Fib(OWN_ASN)
    entries: dict[Prefix, FibEntry] = {}
    for action, prefix, salt in ops:
        if action == "set":
            entries[prefix] = FibEntry(prefix=prefix, next_hop_asn=salt)
            fib.install(entries[prefix])
        elif action == "remove":
            fib.remove(prefix)
            entries.pop(prefix, None)
        else:
            address = prefix.host(None if salt % 2 else 0)
            assert fib.lookup(address, prefix.family) == brute_force(entries, address, prefix.family)
    # Whatever the interleaving, a final sweep agrees on every prefix's hosts.
    for prefix in LPM_PREFIXES:
        address = prefix.host(0)
        assert fib.lookup(address, prefix.family) == brute_force(entries, address, prefix.family)
    assert len(fib) == len(entries)


# ------------------------------------------------------- whole-simulator churn
#: Overlapping on purpose (LPM), and two of them pass the inbound length
#: filter only when blackhole-tagged.
CHURN_PREFIXES = tuple(
    Prefix.from_string(text)
    for text in (
        "203.0.113.0/24", "203.0.113.128/25", "203.0.113.200/32",
        "198.51.100.0/24", "10.0.0.0/8", "2001:db8::/48",
    )
)
MAX_ASES = 7
as_subsets = st.sets(st.integers(1, MAX_ASES)).map(frozenset)
propagation_policies = st.one_of(
    st.just(ForwardAllPolicy()),
    st.just(StripAllPolicy()),
    st.just(StripOwnPolicy()),
    st.builds(SelectivePolicy, forward_to_neighbors=as_subsets),
)


@st.composite
def small_internets(draw) -> Topology:
    """3-7 ASes under an acyclic provider hierarchy plus peerings, with mixed policies.

    No generated service touches LOCAL_PREF: with it equal everywhere the
    decision process is strictly monotone in the AS path, so the
    converged state is unique and cannot depend on the order of events.
    """
    asns = list(range(1, draw(st.integers(3, MAX_ASES)) + 1))
    topology = Topology()
    for asn in asns:
        catalog = CommunityServiceCatalog(
            asn,
            [
                ServiceDefinition(Community(asn, 421), PrependAction(count=draw(st.integers(1, 2))), customers_only=draw(st.booleans())),
                ServiceDefinition(Community(asn, 600), SuppressAction(neighbor_asns=draw(as_subsets)), customers_only=draw(st.booleans())),
                ServiceDefinition(Community(asn, 601), SuppressAction(suppress_all=True), customers_only=False),
                ServiceDefinition(Community(asn, 700), SelectiveAnnounceAction(neighbor_asns=draw(as_subsets.filter(bool))), customers_only=False),
                ServiceDefinition(Community(asn, 666), BlackholeAction(raise_local_pref_to=None), customers_only=draw(st.booleans())),
            ],
        )
        topology.add_as(
            AutonomousSystem(
                asn=asn,
                propagation_policy=draw(propagation_policies),
                services=draw(st.sampled_from([catalog, None])),
                vendor=draw(st.sampled_from([CISCO_PROFILE, JUNIPER_PROFILE])),
            )
        )
    for asn in asns[1:]:
        for provider in draw(st.sets(st.sampled_from(asns[: asn - 1]), min_size=1, max_size=2)):
            topology.add_customer_link(provider, asn)
    for a, b in draw(st.sets(st.tuples(st.sampled_from(asns), st.sampled_from(asns)), max_size=4)):
        if a != b and topology.relationship(a, b) is None:
            topology.add_peer_link(a, b)
    return topology


@st.composite
def churn_rounds(draw, asns: list[int]) -> list[list[RoutingEvent]]:
    """Rounds of events; a prefix keeps coming back to its home AS, tagged or not."""
    tags = st.sets(
        st.sampled_from(
            [NO_EXPORT, NO_PEER, Community(65535, 666), Community(64512, 7)]
            + [Community(asn, value) for asn in asns for value in (421, 600, 601, 666, 700)]
        ),
        max_size=3,
    ).map(CommunitySet)
    home = {prefix: draw(st.sampled_from(asns)) for prefix in CHURN_PREFIXES}
    events = st.sampled_from(CHURN_PREFIXES).flatmap(
        lambda prefix: st.builds(
            RoutingEvent,
            origin_asn=st.one_of(st.just(home[prefix]), st.sampled_from(asns)),
            prefix=st.just(prefix),
            withdraw=st.sampled_from([False, False, True]),
            communities=st.one_of(st.none(), tags),
            spoofed_origin_asn=st.sampled_from([None, None, None, 0, 64999, *asns]),
        )
    )
    return draw(st.lists(st.lists(events, min_size=1, max_size=6), min_size=1, max_size=4))


def control_plane(simulator: BgpSimulator) -> dict:
    """Everything the routers hold: originations, Loc-RIB bests and candidates, Adj-RIBs-In."""
    return {
        asn: (
            dict(router.originated),
            {entry.prefix: entry for entry in router.loc_rib},
            {prefix: router.loc_rib.candidates(prefix) for prefix in CHURN_PREFIXES},
            {n: {entry.prefix: entry for entry in rib.routes()} for n, rib in router.adj_rib_in.items()},
        )
        for asn, router in simulator.routers.items()
    }


def fib_tables(plane: DataPlane) -> dict:
    return {asn: {entry.prefix: entry for entry in fib.entries()} for asn, fib in plane.fibs.items()}


def check_converged_invariants(simulator: BgpSimulator, plane: DataPlane) -> None:
    for asn, router in simulator.routers.items():
        routes = {entry.prefix: entry for entry in router.loc_rib}
        entries = {entry.prefix: entry for entry in plane.fibs[asn].entries()}
        for prefix in CHURN_PREFIXES:
            candidates = router.loc_rib.candidates(prefix)
            assert candidates == router._candidates(prefix)
            winner = best_path(candidates)
            assert routes.get(prefix) == winner
            if winner is not None:
                assert asn not in winner.attributes.as_path.asns(), "own ASN on a selected path"
            for address in {prefix.host(0), prefix.host()}:
                assert plane.fibs[asn].lookup(address, prefix.family) == brute_force(entries, address, prefix.family)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_batched_apply_equals_the_sequential_loop_under_churn(data):
    topology = data.draw(small_internets())
    rounds = data.draw(churn_rounds(topology.asns()))
    sequential, batched = BgpSimulator(topology, shards=1), BgpSimulator(topology, shards=1)
    sequential_plane, plane = DataPlane(sequential), DataPlane(batched)
    for events in rounds:
        merged = SimulationReport()
        for event in events:
            if event.withdraw:
                report = sequential.withdraw(event.origin_asn, event.prefix)
            else:
                report = sequential.announce(
                    event.origin_asn, event.prefix, event.communities, event.spoofed_origin_asn
                )
            sequential_plane.rebuild(report)
            merged.merge(report)
        report = batched.apply(events)
        plane.rebuild(report)
        assert control_plane(batched) == control_plane(sequential)
        assert fib_tables(plane) == fib_tables(sequential_plane) == fib_tables(DataPlane(batched))
        if len({event.prefix for event in events}) == len(events):
            # One event per prefix: the batch does the loop's work, not only reaches its state.
            assert report.dirty == merged.dirty
            assert report.announcements_processed == merged.announcements_processed
        check_converged_invariants(batched, plane)
        check_converged_invariants(sequential, sequential_plane)

    # Announcing again what is already originated changes nothing anywhere.
    settled = control_plane(batched), fib_tables(plane)
    again = [
        RoutingEvent(asn, prefix, False, attributes.communities, attributes.as_path.origin_asn)
        for asn, router in batched.routers.items()
        for prefix, attributes in router.originated.items()
    ]
    report = batched.apply(again)
    plane.rebuild(report)
    assert (control_plane(batched), fib_tables(plane)) == settled
    assert report.dirty == {
        asn: set(router.originated) for asn, router in batched.routers.items() if router.originated
    }

    # Withdrawing all of it leaves nothing behind: no route, no candidate, no FIB entry.
    report = batched.apply([RoutingEvent.withdrawal(event.origin_asn, event.prefix) for event in again])
    plane.rebuild(report)
    for asn, router in batched.routers.items():
        assert not router.originated and len(router.loc_rib) == 0 and len(plane.fibs[asn]) == 0
        assert not any(router.loc_rib.candidates(prefix) for prefix in CHURN_PREFIXES)
        assert not any(len(rib) for rib in router.adj_rib_in.values())
    check_converged_invariants(batched, plane)


@st.composite
def config_edits(draw, asns: list[int]) -> tuple[int, dict]:
    """One router's configuration swapped: community policy, vendor, sending, filters."""
    return draw(st.sampled_from(asns)), {
        "propagation_policy": draw(propagation_policies),
        "vendor": draw(st.sampled_from([CISCO_PROFILE, JUNIPER_PROFILE])),
        "send_community_configured": draw(st.booleans()),
        "inbound_filters": InboundFilterChain(
            prefix_filter=MaxPrefixLengthFilter(max_length=draw(st.sampled_from([8, 24, 32])))
        ),
    }


def refresh_routes(simulator: BgpSimulator, plane: DataPlane) -> None:
    """Re-converge every origination under the current configuration.

    A config edit changes future imports and exports only, so the routes
    already converged are re-driven: every origination is withdrawn and
    announced again.
    """
    live = [
        RoutingEvent(asn, prefix, False, attributes.communities, attributes.as_path.origin_asn)
        for asn, router in simulator.routers.items()
        for prefix, attributes in router.originated.items()
    ]
    plane.rebuild(simulator.apply([RoutingEvent.withdrawal(event.origin_asn, event.prefix) for event in live]))
    plane.rebuild(simulator.apply(live))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_coalesced_stream_equals_event_by_event_apply(data):
    topology = data.draw(small_internets())
    asns = topology.asns()
    rounds = data.draw(churn_rounds(asns))
    deployment = CollectorDeployment([CollectorPlatform("RIS", [Collector("rrc00", "RIS", asns)])])
    one_by_one = BgpSimulator(topology, shards=1)
    one_by_one_plane = DataPlane(one_by_one)
    streamed = BgpSimulator(topology, shards=1)
    plane = DataPlane(streamed)
    with SimulatorService(streamed, window=data.draw(st.integers(1, 8), label="window")) as service:
        for events in rounds:
            for event in events:
                one_by_one_plane.rebuild(one_by_one.apply([event]))
            reports = service.feed(events)
            step = data.draw(st.sampled_from(["feed", "drain", "harvest", "edit"]), label="after this round")
            if step != "feed":
                reports.append(service.drain())
            for report in reports:
                plane.rebuild(report)
            if step == "harvest":
                # Coalescing may install routes in another order; what a
                # collector sees cannot differ.
                streamed_rows, reference_rows = (
                    sorted(map(repr, deployment.collect_from_simulator(simulator)))
                    for simulator in (streamed, one_by_one)
                )
                assert streamed_rows == reference_rows
            elif step == "edit":
                asn, config = data.draw(config_edits(asns), label="config edit")
                for simulator, simulator_plane in ((streamed, plane), (one_by_one, one_by_one_plane)):
                    for name, value in config.items():
                        setattr(simulator.router(asn), name, value)
                    refresh_routes(simulator, simulator_plane)
        plane.rebuild(service.drain())
    stats = service.stats
    assert stats.events_seen == sum(len(events) for events in rounds)
    assert stats.events_applied == stats.events_seen - stats.events_coalesced
    assert control_plane(streamed) == control_plane(one_by_one)
    assert fib_tables(plane) == fib_tables(one_by_one_plane) == fib_tables(DataPlane(streamed))


# ----------------------------------------------------------------------- fork
#: A collector session's peer-side ASN (no router: it only receives).
COLLECTOR_ASN = 65100


@st.composite
def forked_runs(draw):
    """Churn, the round after which to fork, a config edit and a session edit."""
    topology = draw(small_internets())
    asns = topology.asns()
    rounds = draw(churn_rounds(asns))
    fork_after = draw(st.integers(0, len(rounds)))
    asn = draw(st.sampled_from(asns))
    session_edit = draw(
        st.one_of(
            st.tuples(st.just("additions"), st.just(asn), st.sampled_from(sorted(topology.neighbors(asn)) or [asn]), tag_sets.filter(bool)),
            st.tuples(st.just("collector"), st.just(asn)),
        )
    )
    return topology, rounds, fork_after, draw(config_edits(asns)), session_edit


def edit_routers(simulator: BgpSimulator, config_edit: tuple[int, dict], session_edit: tuple) -> None:
    """Swap one router's configuration, then add export communities or a collector session."""
    asn, config = config_edit
    for name, value in config.items():
        setattr(simulator.router(asn), name, value)
    if session_edit[0] == "additions":
        _, asn, neighbor_asn, tags = session_edit
        simulator.router(asn).export_community_additions[neighbor_asn] = tags
    else:
        simulator.register_collector_peering(session_edit[1], COLLECTOR_ASN)


def router_configs(simulator: BgpSimulator) -> dict:
    """What a reconfiguration writes: sessions, export additions, policy objects."""
    return {
        asn: (
            dict(router.neighbor_relationships),
            list(router.neighbors()),
            dict(router.export_community_additions),
            (router.propagation_policy, router.vendor, router.inbound_filters, router.send_community_configured),
        )
        for asn, router in simulator.routers.items()
    }


def snapshot(simulator: BgpSimulator, plane: DataPlane) -> tuple:
    """Everything a fork copies, as values: routes, FIBs, configs, report, holder map."""
    return (
        control_plane(simulator),
        fib_tables(plane),
        router_configs(simulator),
        copy.deepcopy(simulator.report),
        copy.deepcopy(simulator._prefix_holders),
    )


def _withdrawal_fork() -> tuple:
    """Fork right after a tagged route was withdrawn, then re-announce it elsewhere."""
    prefix, other = CHURN_PREFIXES[0], CHURN_PREFIXES[3]
    rounds = [
        [RoutingEvent(1, prefix, communities=CommunitySet([Community(3, 666)]))],
        [RoutingEvent.withdrawal(1, prefix), RoutingEvent(2, other)],
        [RoutingEvent(1, prefix), RoutingEvent(4, prefix)],
    ]
    edit = (3, {"send_community_configured": False})
    return build_figure7_topology(), rounds, 2, edit, ("additions", 3, 4, CommunitySet([NO_EXPORT]))


@settings(max_examples=100, deadline=None)
@example(_withdrawal_fork())
@given(forked_runs())
def test_a_fork_continues_like_a_fresh_run_and_leaves_its_original_alone(run):
    """A fork is the original's exact state: fork A after rounds ``[:k]`` into B,
    edit and churn B on; B ends where a fresh C given the same history ends,
    and nothing B did shows in A."""
    topology, rounds, fork_after, config_edit, session_edit = run
    original = BgpSimulator(topology)
    original_plane = DataPlane(original)
    for events in rounds[:fork_after]:
        original_plane.rebuild(original.apply(events))
    digest = snapshot(original, original_plane)

    forked = original.fork()
    forked_plane = DataPlane(forked)
    assert fib_tables(forked_plane) == fib_tables(original_plane)
    edit_routers(forked, config_edit, session_edit)
    for events in rounds[fork_after:]:
        forked_plane.rebuild(forked.apply(events))

    fresh = BgpSimulator(topology)
    fresh_plane = DataPlane(fresh)
    for events in rounds[:fork_after]:
        fresh_plane.rebuild(fresh.apply(events))
    edit_routers(fresh, config_edit, session_edit)
    for events in rounds[fork_after:]:
        fresh_plane.rebuild(fresh.apply(events))

    assert fib_tables(forked_plane) == fib_tables(DataPlane(forked))
    assert snapshot(forked, forked_plane) == snapshot(fresh, fresh_plane)
    assert snapshot(original, original_plane) == digest


# ------------------------------------------------------------------ count gate
@dataclass
class CountingPolicy(ForwardAllPolicy):
    """Forward-all that counts rewrites and splits neighbors into two signatures."""

    calls: int = 0

    def outbound_communities(self, communities, own_asn, neighbor_asn):
        self.calls += 1
        return communities

    def neighbor_signature(self, neighbor_asn):
        return neighbor_asn % 2


def test_work_per_best_change_is_bounded_and_fib_inserts_follow_dirty_prefixes(monkeypatch):
    inserts = []
    original_insert = LpmTable.insert

    def counting_insert(table, prefix, value):
        inserts.append(prefix)
        original_insert(table, prefix, value)

    monkeypatch.setattr(LpmTable, "insert", counting_insert)
    topology = build_figure7_topology()
    simulator = BgpSimulator(topology, shards=1)
    policies_by_asn = {}
    for asn, router in simulator.routers.items():
        policies_by_asn[asn] = router.propagation_policy = CountingPolicy()
    dataplane = DataPlane(simulator)
    baseline = len(inserts)  # whatever building the topology's own tables cost
    events = origination_events(topology)
    report = simulator.apply(events)
    assert len(inserts) == baseline, "convergence must not write an LPM table"
    dataplane.rebuild(report)
    assert report.announcements_processed > 0 and events
    # The FIB patch writes at most one entry per dirty (router, prefix) pair.
    dirty = sum(len(prefixes) for prefixes in report.dirty.values())
    paid = len(inserts) - baseline
    assert 0 < paid <= dirty
    for asn, policy in policies_by_asn.items():
        changed = len(report.dirty.get(asn, ()))
        signatures = {policy.neighbor_signature(n) for n in simulator.routers[asn].neighbors()}
        assert policy.calls <= changed * len(signatures), asn
    # A lookup reads the tables and writes none.
    source = min(simulator.routers)
    prefix = events[0].prefix
    assert dataplane.ping(source, prefix.host(), prefix.family).reachable
    assert len(inserts) - baseline == paid
