"""Generated equivalence and count gates for the in-process core's hot loop.

Four contracts, none of them timed:

* the export fan-out (`Router.export_fanout`, what the engine runs per
  best-path change) equals per-neighbor `Router.export_to` on generated
  routers, routes and policy mixes;
* the journalled LPM indexes of `LocRib` and `Fib` equal a brute-force
  longest-match scan after arbitrary interleavings of writes, removes and
  lookups — the only guard of the trie *delete* path, which no benchmark
  workload reaches;
* on generated small Internets and churn (announce, tagged re-announce,
  withdraw, re-announce, duplicates, spoofed origins) one batched
  ``apply()`` leaves the Loc-RIBs, Adj-RIBs-In and FIBs of a sequential
  ``announce()`` / ``withdraw()`` loop, and the converged state keeps its
  invariants — the stand-in for a ``churn`` ledger workload;
* on a small fixed topology the work per best-path change stays
  proportional to what differs: rewrites are bounded by changed bests x
  distinct neighbor signatures, and convergence plus FIB patch performs
  zero trie inserts until somebody looks an address up.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.attacks.scenario import build_figure7_topology
from repro.bgp.aspath import ASPath
from repro.bgp.attributes import PathAttributes
from repro.bgp.community import NO_ADVERTISE, NO_EXPORT, NO_PEER, Community, CommunitySet
from repro.bgp.prefix import AddressFamily, Prefix
from repro.bgp.rib import LocRib
from repro.bgp.route import Announcement, RouteEntry
from repro.dataplane.fib import Fib, FibEntry
from repro.dataplane.forwarding import DataPlane
from repro.net.lpm import LpmTable
from repro.policy.actions import (
    BlackholeAction,
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
from repro.policy.services import CommunityServiceCatalog, ServiceDefinition
from repro.policy.vendor import CISCO_PROFILE, JUNIPER_PROFILE
from repro.routing.decision import best_path
from repro.routing.engine import BgpSimulator, RoutingEvent, SimulationReport, origination_events
from repro.routing.router import Router
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
    st.builds(StripAllPolicy, keep_own=st.booleans()),
    st.just(StripOwnPolicy()),
    st.builds(
        SelectivePolicy,
        forward_to_neighbors=neighbor_subsets,
        always_strip=st.sets(st.sampled_from(TAG_POOL[7:])).map(frozenset),
    ),
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
        AutonomousSystem(asn=OWN_ASN),
        relationships,
        propagation_policy=draw(policies),
        services=draw(st.sampled_from([catalog, None])),
        vendor=draw(st.sampled_from([CISCO_PROFILE, JUNIPER_PROFILE])),
        send_community_configured=draw(st.booleans()),
    )
    for asn in draw(st.sets(st.sampled_from(neighbors))):
        router.export_community_additions[asn] = draw(tag_sets.filter(bool))
    # The same route under both prefixes, so the batch memo is hit across them.
    communities = draw(tag_sets)
    sender = draw(st.sampled_from([OWN_ASN, *neighbors]))
    for prefix in PREFIXES:
        if sender == OWN_ASN:
            router.originate(prefix, communities=communities)
        else:
            router.process_announcement(
                Announcement(
                    prefix=prefix,
                    attributes=PathAttributes(as_path=ASPath.of(sender, 99), communities=communities),
                    sender_asn=sender,
                    origin_asn=99,
                )
            )
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
        as_path=ASPath.of(*path), communities=sent, local_pref=None, med=None
    )
    return (prefix, attributes, router.asn, path[-1])


@settings(max_examples=300, deadline=None)
@given(routers_with_a_best_route(), st.booleans())
def test_fanout_equals_per_neighbor_export(router: Router, memoised: bool):
    cache: dict | None = {} if memoised else None
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


# ------------------------------------------------------- journalled LPM indexes
LPM_PREFIXES = tuple(
    Prefix.from_string(text)
    for text in (
        "0.0.0.0/0", "10.0.0.0/8", "10.0.0.0/16", "10.0.1.0/24", "10.0.1.128/25", "10.0.1.200/32",
        "10.128.0.0/9", "192.0.2.0/24", "::/0", "2001:db8::/32", "2001:db8::/48", "2001:db8:0:1::/64",
        "2001:db8::1/128", "2a00::/16",
    )
)
operations = st.lists(
    st.tuples(st.sampled_from(["set", "unset", "remove", "lookup"]), st.sampled_from(LPM_PREFIXES), st.integers(0, 255)),
    max_size=60,
)


def brute_force(table: dict[Prefix, object], address: int, family: AddressFamily):
    hit = linear_longest_match(table, address, family)
    return None if hit is None else hit[1]


@settings(max_examples=300, deadline=None)
@given(operations)
def test_loc_rib_and_fib_lookup_equal_a_brute_force_scan(ops):
    loc_rib, fib = LocRib(), Fib(OWN_ASN)
    routes: dict[Prefix, RouteEntry] = {}
    entries: dict[Prefix, FibEntry] = {}
    for action, prefix, salt in ops:
        if action == "set":
            route = RouteEntry(prefix=prefix, attributes=PathAttributes(as_path=ASPath.of(salt + 1)), learned_from=salt)
            loc_rib.set_best(prefix, route)
            routes[prefix] = loc_rib.best(prefix)
            entries[prefix] = FibEntry(prefix=prefix, next_hop_asn=salt)
            fib.install(entries[prefix])
        elif action in ("unset", "remove"):
            loc_rib.set_best(prefix, None) if action == "unset" else loc_rib.remove(prefix)
            fib.remove(prefix)
            routes.pop(prefix, None)
            entries.pop(prefix, None)
        else:
            address = prefix.host(None if salt % 2 else 0)
            assert loc_rib.lookup(address, prefix.family) == brute_force(routes, address, prefix.family)
            assert fib.lookup(address, prefix.family) == brute_force(entries, address, prefix.family)
    # Whatever the interleaving, a final sweep agrees on every prefix's hosts.
    for prefix in LPM_PREFIXES:
        address = prefix.host(0)
        assert loc_rib.lookup(address, prefix.family) == brute_force(routes, address, prefix.family)
        assert fib.lookup(address, prefix.family) == brute_force(entries, address, prefix.family)
    assert len(loc_rib) == len(routes) and len(fib) == len(entries)


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
                propagation_policy=draw(
                    st.one_of(
                        st.just(ForwardAllPolicy()),
                        st.builds(StripAllPolicy, keep_own=st.booleans()),
                        st.just(StripOwnPolicy()),
                        st.builds(SelectivePolicy, forward_to_neighbors=as_subsets),
                    )
                ),
                services=draw(st.sampled_from([catalog, None])),
                vendor=draw(st.sampled_from([CISCO_PROFILE, JUNIPER_PROFILE])),
                act_on_communities_from_any_neighbor=draw(st.booleans()),
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
            assert routes.get(prefix) == (None if winner is None else winner.as_best())
            if winner is not None:
                assert asn not in winner.attributes.as_path.asns(), "own ASN on a selected path"
            # Looking up also replays the journals, so a later withdraw deletes from the tries.
            for address in {prefix.host(0), prefix.host()}:
                assert router.loc_rib.lookup(address, prefix.family) == brute_force(routes, address, prefix.family)
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


def test_work_per_best_change_is_bounded_and_convergence_inserts_nothing(monkeypatch):
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
    dataplane.rebuild(report)
    assert report.announcements_processed > 0 and events
    assert len(inserts) == baseline, "convergence + FIB patch must not touch a trie"
    for asn, policy in policies_by_asn.items():
        changed = len(report.dirty.get(asn, ()))
        signatures = {policy.neighbor_signature(n) for n in simulator.routers[asn].neighbors()}
        assert policy.calls <= changed * len(signatures), asn
    # The first lookup pays for exactly the journalled prefixes, once.
    source = min(simulator.routers)
    prefix = events[0].prefix
    assert dataplane.ping_prefix(source, prefix).reachable
    paid = len(inserts) - baseline
    assert 0 < paid <= sum(len(fib) for fib in dataplane.fibs.values())
    dataplane.ping_prefix(source, prefix)
    assert len(inserts) - baseline == paid
