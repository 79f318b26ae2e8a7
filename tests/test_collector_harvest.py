"""Tests for the sharded collector-harvest subsystem and lossless MRT round-trips.

Covers the PR 5 guarantees:

* sharded ``collect_from_simulator`` produces an archive byte-identical
  to the serial loop for any shard count (including more shards than
  peers, and with a pool shared with sharded propagation);
* the per-peer export memo does not change what collectors see;
* MRT write -> read round-trips preserve IPv4 and IPv6 observations and
  withdrawals, with distinct per-peer addresses and a clear error for
  timestamps outside the 32-bit MRT window;
* the indexed ``ObservationArchive`` queries agree with brute-force
  scans over the same observations.
"""

from __future__ import annotations

import pytest

from repro.bgp.community import Community, CommunitySet
from repro.bgp.prefix import Prefix
from repro.collectors.harvest import build_worklist, harvest_archive
from repro.collectors.observation import (
    ObservationArchive,
    RouteObservation,
    collector_ip_for,
    peer_ip_for,
)
from repro.collectors.platform import Collector, CollectorDeployment, CollectorPlatform
from repro.exceptions import MrtError
from repro.mrt.constants import AFI_IPV4, AFI_IPV6
from repro.routing.engine import BgpSimulator
from repro.topology.generator import TopologyGenerator, TopologyParameters

HARVEST_PARAMETERS = TopologyParameters(
    tier1_count=3,
    transit_count=8,
    stub_count=24,
    ixp_count=1,
    seed=11,
)


@pytest.fixture(scope="module")
def harvest_topology():
    return TopologyGenerator(HARVEST_PARAMETERS).generate()


@pytest.fixture(scope="module")
def harvest_deployment(harvest_topology):
    return CollectorDeployment.default_deployment(harvest_topology, seed=7)


def _rows(archive: ObservationArchive) -> list[tuple]:
    return [
        (
            o.platform,
            o.collector_id,
            o.peer_asn,
            o.prefix,
            o.as_path,
            o.communities,
            o.timestamp,
            o.withdrawn,
        )
        for o in archive
    ]


def _converged(topology) -> BgpSimulator:
    simulator = BgpSimulator(topology, shards=1)
    simulator.announce_originated()
    return simulator


class TestShardedHarvestEquivalence:
    def test_sharded_matches_serial_for_any_shard_count(
        self, harvest_topology, harvest_deployment
    ):
        serial_sim = _converged(harvest_topology)
        serial = harvest_deployment.collect_from_simulator(serial_sim)
        assert len(serial) > 0
        for shard_count in (1, 2, 3, 4, 7):
            simulator = _converged(harvest_topology)
            try:
                sharded = harvest_deployment.collect_from_simulator(
                    simulator, shards=shard_count
                )
                assert _rows(sharded) == _rows(serial), f"shards={shard_count}"
            finally:
                simulator.close()

    def test_more_shards_than_peers_is_capped(self, harvest_topology, harvest_deployment):
        simulator = _converged(harvest_topology)
        try:
            items = build_worklist(harvest_deployment, simulator)
            peers = len({item.peer_asn for item in items})
            sharded = harvest_deployment.collect_from_simulator(simulator, shards=10_000)
            assert simulator._shard_pool.shards == peers
            serial = harvest_deployment.collect_from_simulator(
                _converged(harvest_topology)
            )
            assert _rows(sharded) == _rows(serial)
        finally:
            simulator.close()

    def test_harvest_shares_pool_with_sharded_propagation(self, harvest_topology):
        """Propagation and harvest interleave on one pool without corrupting either.

        Sharded and serial harvests of the *same* simulator must be
        byte-identical (the parent's Loc-RIB insertion order — and
        therefore the archive order — legitimately differs between
        sharded and sequential propagation, so the content check
        against the shards=1 reference compares sorted rows).
        """
        deployment = CollectorDeployment.default_deployment(harvest_topology, seed=7)
        reference_sim = _converged(harvest_topology)
        reference = deployment.collect_from_simulator(reference_sim)

        simulator = BgpSimulator(harvest_topology, shards=2)
        try:
            simulator.announce_originated()
            serial = deployment.collect_from_simulator(simulator, shards=1)
            first = deployment.collect_from_simulator(simulator)  # inherits shards=2
            assert _rows(first) == _rows(serial)
            assert sorted(map(repr, _rows(first))) == sorted(map(repr, _rows(reference)))
            # Another propagation round over the same pool, then re-harvest.
            extra = Prefix.from_string("198.18.0.0/24")
            origin = min(simulator.routers)
            simulator.announce(origin, extra, communities=CommunitySet.of("1:42"))
            second = deployment.collect_from_simulator(simulator, shards=2)
            second_serial = deployment.collect_from_simulator(simulator, shards=1)
            assert _rows(second) == _rows(second_serial)
            assert len(second) > len(first)
        finally:
            simulator.close()

    def test_worklist_skips_unknown_peers(self, harvest_topology):
        simulator = BgpSimulator(harvest_topology)
        known = min(simulator.routers)
        deployment = CollectorDeployment(
            [
                CollectorPlatform(
                    "RIS",
                    [Collector("ris-00", "RIS", peer_asns=[known, 999_999])],
                )
            ]
        )
        items = build_worklist(deployment, simulator)
        assert [item.peer_asn for item in items] == [known]
        assert [item.index for item in items] == [0]


class TestMrtRoundTrip:
    def _mixed_archive(self) -> ObservationArchive:
        return ObservationArchive(
            [
                RouteObservation(
                    "RIS", "ris-00", 10,
                    Prefix.from_string("203.0.113.0/24"), (10, 5, 1),
                    CommunitySet.of("1:100"), timestamp=100.0,
                ),
                RouteObservation(
                    "RIS", "ris-00", 10,
                    Prefix.from_string("2001:db8:beef::/48"), (10, 5, 1),
                    CommunitySet.of("1:666", "5:42"), timestamp=101.0,
                ),
                RouteObservation(
                    "RIS", "ris-00", 20,
                    Prefix.from_string("203.0.113.0/24"), (),
                    timestamp=102.0, withdrawn=True,
                ),
                RouteObservation(
                    "RIS", "ris-00", 20,
                    Prefix.from_string("2001:db8:beef::/48"), (),
                    timestamp=103.0, withdrawn=True,
                ),
            ]
        )

    def test_ipv6_and_withdrawals_round_trip(self, tmp_path):
        archive = self._mixed_archive()
        path = tmp_path / "mixed.mrt"
        assert archive.write_mrt(path) == 4
        loaded = ObservationArchive.from_mrt(path, platform="RIS", collector_id="ris-00")
        assert _rows(loaded) == _rows(archive)
        assert [o.withdrawn for o in loaded] == [False, False, True, True]
        # Round-tripping the loaded archive reproduces the bytes exactly.
        second = tmp_path / "again.mrt"
        loaded.write_mrt(second)
        assert second.read_bytes() == path.read_bytes()

    def test_per_peer_ips_are_distinct(self):
        archive = self._mixed_archive()
        v4_ips = {
            m.peer_ip for m in archive.to_mrt_messages() if m.address_family == AFI_IPV4
        }
        v6_ips = {
            m.peer_ip for m in archive.to_mrt_messages() if m.address_family == AFI_IPV6
        }
        assert len(v4_ips) == 2
        assert len(v6_ips) == 2
        assert peer_ip_for(10, AFI_IPV4) != peer_ip_for(20, AFI_IPV4)
        assert peer_ip_for(10, AFI_IPV6) != peer_ip_for(20, AFI_IPV6)
        # Injective over 4-byte ASNs too (high bits must not be masked off),
        # and no peer may collide with the collector's own IPv6 address.
        assert peer_ip_for(4_200_000_001, AFI_IPV4) != peer_ip_for(16_777_217, AFI_IPV4)
        for message in self._mixed_archive().to_mrt_messages():
            assert message.peer_ip != message.local_ip
        assert peer_ip_for(1, AFI_IPV6) != collector_ip_for(AFI_IPV6)

    @pytest.mark.parametrize("timestamp", [-1.0, float(1 << 32)])
    def test_out_of_range_timestamp_raises(self, tmp_path, timestamp):
        archive = ObservationArchive(
            [
                RouteObservation(
                    "RIS", "ris-00", 10,
                    Prefix.from_string("203.0.113.0/24"), (10, 1),
                    timestamp=timestamp,
                )
            ]
        )
        with pytest.raises(MrtError):
            list(archive.to_mrt_messages())
        with pytest.raises(MrtError):
            archive.write_mrt(tmp_path / "bad.mrt")

    def test_withdrawal_only_update_is_loadable_mid_stream(self, tmp_path):
        archive = self._mixed_archive()
        path = tmp_path / "mixed.mrt"
        archive.write_mrt(path)
        loaded = ObservationArchive.from_mrt(path)
        withdrawn = [o for o in loaded if o.withdrawn]
        assert all(o.as_path == () and not o.communities for o in withdrawn)
        assert {str(o.prefix) for o in withdrawn} == {
            "203.0.113.0/24",
            "2001:db8:beef::/48",
        }


class TestIndexedArchive:
    def _archive(self) -> ObservationArchive:
        observations = []
        for index in range(40):
            platform = ("RIS", "RV", "PCH")[index % 3]
            observations.append(
                RouteObservation(
                    platform=platform,
                    collector_id=f"{platform.lower()}-{index % 2:02d}",
                    peer_asn=100 + index % 5,
                    prefix=Prefix.ipv4((10 << 24) + (index << 8), 24),
                    as_path=(100 + index % 5, 7, 1),
                    communities=CommunitySet.of(f"7:{index}"),
                    timestamp=float(index),
                )
            )
        observations.append(
            RouteObservation(
                platform="RIS",
                collector_id="ris-00",
                peer_asn=100,
                prefix=Prefix.from_string("2001:db8::/32"),
                as_path=(100, 1),
            )
        )
        return ObservationArchive(observations)

    def test_index_queries_match_scans(self):
        archive = self._archive()
        tallies = archive.tallies()
        for platform in ("RIS", "RV", "PCH", "absent"):
            scanned = [o for o in archive if o.platform == platform]
            if not scanned:
                assert platform not in tallies
                continue
            assert tallies[platform].messages == len(scanned)
            assert tallies[platform].peers == {o.peer_asn for o in scanned}
        assert archive.platforms() == sorted({o.platform for o in archive})
        assert archive.collectors() == sorted(
            {(o.platform, o.collector_id) for o in archive}
        )
        assert archive.peer_asns() == {o.peer_asn for o in archive}
        assert archive.prefixes() == {o.prefix for o in archive}

    def test_index_stays_in_sync_after_append(self):
        archive = self._archive()
        late = RouteObservation(
            platform="IS",
            collector_id="is-00",
            peer_asn=900,
            prefix=Prefix.from_string("192.0.2.0/24"),
            as_path=(900, 1),
        )
        # Force every bucket kind to build before the append.
        assert "IS" not in archive.platforms()
        assert ("IS", "is-00") not in archive.collectors()
        assert 900 not in archive.peer_asns()
        assert late.prefix not in archive.prefixes()
        archive.add(late)
        assert "IS" in archive.platforms()
        assert ("IS", "is-00") in archive.collectors()
        assert 900 in archive.peer_asns()
        assert late.prefix in archive.prefixes()
        assert archive.tallies()["IS"].messages == 1

    def test_cached_path_properties(self):
        observation = RouteObservation(
            platform="RIS",
            collector_id="ris-00",
            peer_asn=10,
            prefix=Prefix.from_string("203.0.113.0/24"),
            as_path=(10, 5, 5, 1),
        )
        assert observation.path_without_prepending == (10, 5, 1)
        assert observation.path_without_prepending is observation.path_without_prepending  # cached


class TestHarvestReportExperiment:
    def _spec(self, **params):
        from repro.experiments import ExperimentSpec

        return ExperimentSpec(
            name="report",
            seed=5,
            topology={"tier1_count": 2, "transit_count": 5, "stub_count": 12},
            params={"source": "harvest", **params},
        )

    def test_report_source_harvest_runs_end_to_end(self):
        from repro.experiments import ExperimentStatus, run_experiment

        result = run_experiment(self._spec())
        assert result.status is ExperimentStatus.OK
        assert result.metrics["source"] == "harvest"
        assert result.metrics["messages"] > 0
        assert "Table 1" in result.metrics["report"]

    def test_report_rejects_unknown_source(self):
        from repro.experiments import ExperimentStatus, run_experiment

        result = run_experiment(self._spec(source="bogus"))
        assert result.status is ExperimentStatus.ERROR
        assert "source" in (result.error or "")


class TestHarvestMemo:
    def test_shared_peer_exports_are_identical_per_collector(self, harvest_topology):
        """Two collectors on one peer see the same feed (memo does not leak)."""
        simulator = _converged(harvest_topology)
        peer = min(simulator.routers)
        deployment = CollectorDeployment(
            [
                CollectorPlatform(
                    "RIS",
                    [
                        Collector("ris-00", "RIS", peer_asns=[peer], collector_asn=65100),
                        Collector("ris-01", "RIS", peer_asns=[peer], collector_asn=65101),
                    ],
                )
            ]
        )
        archive = harvest_archive(deployment, simulator)
        first = [
            (o.prefix, o.as_path, o.communities)
            for o in archive
            if o.collector_id == "ris-00"
        ]
        second = [
            (o.prefix, o.as_path, o.communities)
            for o in archive
            if o.collector_id == "ris-01"
        ]
        assert first and first == second

    def test_cleared_additions_do_not_survive_in_workers(self, harvest_topology):
        """Regression: a sharded harvest mirrors export additions into the
        worker routers; when the parent later *clears* them, a sharded
        propagation pass must not export with the stale worker copies —
        it has to stay byte-identical to the sequential engine."""
        from repro.bgp.route import RouteEntry

        topology = harvest_topology
        deployment = CollectorDeployment.default_deployment(topology, seed=7)
        tag = CommunitySet.of("65100:1")

        def converge(shards: int):
            simulator = BgpSimulator(topology, shards=shards)
            simulator.announce_originated()
            for router in simulator.routers.values():
                for neighbor in router.neighbors():
                    router.export_community_additions[neighbor] = tag
            return simulator

        sharded = converge(2)
        sequential = converge(1)
        try:
            deployment.collect_from_simulator(sharded, shards=2)
            # The parent drops every addition; the workers still hold
            # their harvest-installed copies until the next task resets
            # them via the shard module's additions bookkeeping.
            for simulator in (sharded, sequential):
                for router in simulator.routers.values():
                    router.export_community_additions = {}
            extra = [
                (asn, Prefix.ipv4((198 << 24) | (16 << 16) | (index << 8), 24))
                for index, asn in enumerate(sorted(sharded.routers)[:8])
            ]
            sharded.announce_many(extra)
            sequential.announce_many(extra)
            for asn, router in sequential.routers.items():
                twin = sharded.routers[asn]
                assert sorted(router.loc_rib.prefixes()) == sorted(twin.loc_rib.prefixes())
                for prefix in router.loc_rib.prefixes():
                    ours: RouteEntry | None = router.loc_rib.best(prefix)
                    theirs: RouteEntry | None = twin.loc_rib.best(prefix)
                    assert ours == theirs, (asn, prefix)
        finally:
            sharded.close()
            sequential.close()

    def test_export_additions_stay_per_collector(self, harvest_topology):
        """A per-session community addition must not bleed into other sessions."""
        simulator = _converged(harvest_topology)
        peer = min(simulator.routers)
        tag = CommunitySet.of("65100:1")
        simulator.router(peer).export_community_additions[65100] = tag
        deployment = CollectorDeployment(
            [
                CollectorPlatform(
                    "RIS",
                    [
                        Collector("ris-00", "RIS", peer_asns=[peer], collector_asn=65100),
                        Collector("ris-01", "RIS", peer_asns=[peer], collector_asn=65101),
                    ],
                )
            ]
        )
        archive = harvest_archive(deployment, simulator)
        tagged = [o for o in archive if o.collector_id == "ris-00"]
        untagged = [o for o in archive if o.collector_id == "ris-01"]
        assert tagged and all(Community(65100, 1) in o.communities for o in tagged)
        assert untagged and all(
            Community(65100, 1) not in o.communities for o in untagged
        )
