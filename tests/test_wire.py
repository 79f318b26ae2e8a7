"""Shard-protocol wire blobs: round trips per kind and format framing.

The contract is lossless framing: ``decode(encode(x)) == x`` (and
hash-equal, since every payload object is frozen), and every malformed
blob — short header, wrong kind, unknown format byte, corrupt pickle —
is a :class:`WireError` naming the kind the caller expected.  The
generators bias toward the protocol's edges: AS0 origins, 32-bit
LOCAL_PREF bounds, the per-update community ceiling, and empty vs
``None`` export scopes.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.bgp.aspath import ASPath
from repro.bgp.attributes import MAX_COMMUNITIES_PER_UPDATE, PathAttributes
from repro.bgp.community import Community, CommunitySet
from repro.bgp.prefix import Prefix
from repro.bgp.route import RouteEntry
from repro.collectors.harvest import HarvestItem
from repro.exceptions import WireError
from repro.routing import wire
from repro.routing.engine import BgpSimulator, RoutingEvent
from repro.routing.shard import capture_router_config
from repro.topology.generator import TopologyGenerator, TopologyParameters


# ------------------------------------------------------------- generators
def random_prefix(rng: random.Random) -> Prefix:
    length = rng.randint(8, 32)
    network = rng.getrandbits(32) & (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
    return Prefix.ipv4(network, length)


def random_path(rng: random.Random) -> ASPath:
    # AS0 and 32-bit ASNs are legal on this wire (spoofed origins).
    return ASPath(
        rng.choice((0, rng.randint(1, 64_511), 0xFFFFFFFF)) for _ in range(rng.randint(1, 12))
    )


def random_cset(rng: random.Random) -> CommunitySet:
    return CommunitySet(
        Community(rng.randint(0, 0xFFFF), rng.randint(0, 0xFFFF))
        for _ in range(rng.randint(0, 6))
    )


def random_attributes(rng: random.Random) -> PathAttributes:
    return PathAttributes(
        as_path=random_path(rng),
        local_pref=rng.choice((None, 0, 0xFFFFFFFF, rng.getrandbits(32))),
        communities=random_cset(rng),
    )


def random_entry(rng: random.Random, prefix: Prefix) -> RouteEntry:
    announce_only_to = rng.choice(
        (
            None,  # unrestricted export
            frozenset(),  # restricted to nobody — distinct from None!
            frozenset(rng.randint(1, 70_000) for _ in range(rng.randint(1, 4))),
        )
    )
    return RouteEntry(
        # Half the entries reuse the state's own prefix; the rest carry
        # a foreign one (aggregates).
        prefix=prefix if rng.random() < 0.5 else random_prefix(rng),
        attributes=random_attributes(rng),
        learned_from=rng.choice((0, rng.randint(1, 70_000))),
        blackholed=rng.random() < 0.2,
        rejected=rng.random() < 0.2,
        rejection_reason=rng.choice((None, "loop", "policy: peerlock §4.2")),
        export_prepend=rng.choice((0, rng.randint(1, 16))),
        suppress_to=frozenset(
            rng.randint(1, 70_000) for _ in range(rng.randint(0, 3))
        ),
        announce_only_to=announce_only_to,
    )


def random_states(rng: random.Random, count: int) -> list[tuple]:
    states = []
    for _ in range(count):
        prefix = random_prefix(rng)
        originated = None if rng.random() < 0.5 else random_attributes(rng)
        adjacent = tuple(
            (rng.randint(0, 70_000), random_entry(rng, prefix))
            for _ in range(rng.randint(0, 4))
        )
        states.append((prefix, rng.randint(1, 70_000), originated, adjacent))
    return states


def random_events(rng: random.Random, count: int) -> list[RoutingEvent]:
    return [
        RoutingEvent(
            origin_asn=rng.choice((0, rng.randint(1, 70_000))),
            prefix=random_prefix(rng),
            withdraw=rng.random() < 0.3,
            communities=rng.choice((None, random_cset(rng))),
            spoofed_origin_asn=rng.choice((None, 0, rng.randint(1, 70_000))),
        )
        for _ in range(count)
    ]


def small_topology():
    parameters = TopologyParameters(
        tier1_count=2, transit_count=4, stub_count=10, ixp_count=0, seed=11
    )
    return TopologyGenerator(parameters).generate()


# ------------------------------------------------------------ round trips
class TestRoundTrips:
    def test_states_round_trip_equal_and_hash_equal(self):
        rng = random.Random(42)
        states = random_states(rng, 60)
        decoded = wire.decode_states(wire.encode_states(states))
        assert decoded == states
        for (_, _, originated, adjacent), (_, _, d_orig, d_adj) in zip(states, decoded):
            if originated is not None:
                assert hash(d_orig) == hash(originated)
            for (_, entry), (_, d_entry) in zip(adjacent, d_adj):
                assert hash(d_entry) == hash(entry)
                assert hash(d_entry.attributes) == hash(entry.attributes)

    def test_events_round_trip_with_as0_and_spoofed_origins(self):
        rng = random.Random(44)
        events = random_events(rng, 80)
        events.append(RoutingEvent(origin_asn=0, prefix=Prefix.from_string("10.0.0.0/8")))
        events.append(
            RoutingEvent(
                origin_asn=65_000,
                prefix=Prefix.from_string("10.1.0.0/16"),
                spoofed_origin_asn=0,
            )
        )
        decoded = wire.decode_events(wire.encode_events(events))
        assert decoded == events
        assert [hash(event) for event in decoded] == [hash(event) for event in events]

    def test_local_pref_32bit_bounds(self):
        for bound in (0, 0xFFFFFFFF):
            attributes = PathAttributes(as_path=ASPath.of(65_001), local_pref=bound)
            states = [
                (
                    Prefix.from_string("10.0.0.0/24"),
                    65_001,
                    attributes,
                    ((65_002, RouteEntry(Prefix.from_string("10.0.0.0/24"), attributes, 65_002)),),
                )
            ]
            decoded = wire.decode_states(wire.encode_states(states))
            assert decoded[0][2].local_pref == bound

    def test_max_communities_per_update_round_trips(self):
        full = CommunitySet(
            Community(asn, value)
            for asn in range(MAX_COMMUNITIES_PER_UPDATE // 256)
            for value in range(256)
        )
        assert len(full) == MAX_COMMUNITIES_PER_UPDATE
        additions = {65_001: {65_002: full}}
        decoded = wire.decode_additions(wire.encode_additions(additions))
        assert decoded == additions
        assert hash(decoded[65_001][65_002]) == hash(full)

    def test_empty_vs_none_announce_only_to_survive(self):
        prefix = Prefix.from_string("10.0.0.0/24")
        attributes = PathAttributes(as_path=ASPath.of(65_001))
        entries = [
            RouteEntry(prefix, attributes, 65_001, announce_only_to=None),
            RouteEntry(prefix, attributes, 65_001, announce_only_to=frozenset()),
            RouteEntry(prefix, attributes, 65_001, announce_only_to=frozenset({65_002})),
        ]
        states = [(prefix, 65_001, None, tuple((65_009, e) for e in entries))]
        decoded = wire.decode_states(wire.encode_states(states))
        got = [entry.announce_only_to for _, entry in decoded[0][3]]
        assert got == [None, frozenset(), frozenset({65_002})]

    def test_additions_items_observations_round_trip(self):
        rng = random.Random(46)
        additions = {
            rng.randint(1, 70_000): {
                rng.randint(1, 70_000): random_cset(rng) for _ in range(rng.randint(1, 3))
            }
            for _ in range(10)
        }
        assert wire.decode_additions(wire.encode_additions(additions)) == additions
        items = [
            HarvestItem(index, "ris", f"rrc{index:02d}", rng.randint(1, 70_000), rng.randint(1, 70_000))
            for index in range(12)
        ]
        assert wire.decode_items(wire.encode_items(items)) == items
        groups = [
            (
                index,
                [
                    (random_prefix(rng), tuple(random_path(rng)), random_cset(rng))
                    for _ in range(rng.randint(0, 4))
                ],
            )
            for index in range(8)
        ]
        assert wire.decode_observations(wire.encode_observations(groups)) == groups

    def test_config_round_trips_by_pickled_value(self):
        """Policy objects compare by identity, so compare re-pickled bytes."""
        config = capture_router_config(BgpSimulator(small_topology()))
        decoded = wire.decode_config(wire.encode_config(config))
        assert decoded.keys() == config.keys()
        for asn, router_config in config.items():
            assert pickle.dumps(decoded[asn]) == pickle.dumps(router_config)


# ------------------------------------------------------------ format/framing
class TestFraming:
    def test_blobs_carry_format_and_kind_bytes(self):
        blob = wire.encode_states([])
        assert blob[0] == ord("P")
        assert blob[1] == ord("S")

    def test_wrong_kind_truncation_and_bad_format_raise_wire_error(self):
        with pytest.raises(WireError, match="events"):
            wire.decode_events(wire.encode_states([]))
        with pytest.raises(WireError, match="states"):
            wire.decode_states(b"P")
        with pytest.raises(WireError, match="states"):
            wire.decode_states(bytes((0x7A,)) + wire.encode_states([])[1:])

    @pytest.mark.parametrize(
        "name, encode, decode, empty",
        [
            ("states", wire.encode_states, wire.decode_states, []),
            ("events", wire.encode_events, wire.decode_events, []),
            ("additions", wire.encode_additions, wire.decode_additions, {}),
            ("items", wire.encode_items, wire.decode_items, []),
            ("observations", wire.encode_observations, wire.decode_observations, []),
            ("config", wire.encode_config, wire.decode_config, {}),
        ],
        ids=["states", "events", "additions", "items", "observations", "config"],
    )
    def test_each_decoder_takes_only_its_own_kind(self, name, encode, decode, empty):
        assert decode(encode(empty)) == empty
        foreign = [
            wire.encode_states([]),
            wire.encode_events([]),
            wire.encode_additions({}),
            wire.encode_items([]),
            wire.encode_observations([]),
            wire.encode_config({}),
        ]
        own = encode(empty)
        for blob in foreign:
            if blob[1] == own[1]:
                continue
            with pytest.raises(WireError, match=f"expected a {name} blob"):
                decode(blob)
        with pytest.raises(WireError, match=f"{name} blob shorter"):
            decode(own[:1])

    @pytest.mark.parametrize(
        "blob",
        [
            wire.encode_states([])[:-1],  # truncated pickle: EOFError
            b"PS\xff\x00",  # bad load key: UnpicklingError
        ],
        ids=["truncated", "bad-load-key"],
    )
    def test_corrupt_pickle_raises_wire_error(self, blob):
        with pytest.raises(WireError, match="states"):
            wire.decode_states(blob)


# ------------------------------------------------- pickle-wire shard equivalence
class TestPickleModeEquivalence:
    def test_sharded_matches_sequential_under_pickle_wire(self):
        """Pickle-framed shard dispatch drives the same byte-identical merge."""
        topology = small_topology()
        ases = sorted(asys.asn for asys in topology)
        base = Prefix.from_string("10.0.0.0/8").network
        events = [
            RoutingEvent(
                origin_asn=ases[index % len(ases)],
                prefix=Prefix.ipv4(base + (index << 8), 24),
            )
            for index in range(48)
        ]
        sequential = BgpSimulator(topology)
        sequential.apply(events)
        sharded = BgpSimulator(topology, shards=2)
        try:
            sharded.apply(events)
            for asn, router in sequential.routers.items():
                twin = sharded.routers[asn]
                assert sorted(router.loc_rib.prefixes()) == sorted(twin.loc_rib.prefixes())
                for prefix in router.loc_rib.prefixes():
                    assert router.loc_rib.best(prefix) == twin.loc_rib.best(prefix)
            assert sequential.report.dirty == sharded.report.dirty
        finally:
            sharded.close()
