"""Tests for collectors, observations, MRT bridging, and the synthetic datasets."""

from __future__ import annotations

import copy
import hashlib
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.community import BLACKHOLE, Community, CommunitySet
from repro.bgp.prefix import Prefix
from repro.collectors.observation import ObservationArchive, RouteObservation
from repro.collectors.platform import Collector, CollectorDeployment, CollectorPlatform
from repro.datasets.communities_db import CommunityUsageModel
from repro.datasets.giotsas import INFERRED_COUNT, build_blackhole_list
from repro.datasets.synthetic import DatasetParameters, SyntheticDatasetBuilder
from repro.exceptions import CollectorError, DatasetError
from repro.measurement.timeseries import growth_table
from repro.routing.engine import BgpSimulator
from repro.attacks.scenario import build_figure2_topology
from repro.utils.rand import DeterministicRng


def make_observation(
    peer: int = 10,
    path: tuple[int, ...] = (10, 5, 1),
    communities: tuple[str, ...] = ("1:100",),
    platform: str = "RIS",
    collector: str = "ris-00",
    prefix: str = "203.0.113.0/24",
) -> RouteObservation:
    return RouteObservation(
        platform=platform,
        collector_id=collector,
        peer_asn=peer,
        prefix=Prefix.from_string(prefix),
        as_path=path,
        communities=CommunitySet.of(*communities),
    )


class TestObservations:
    def test_basic_properties(self):
        observation = make_observation(path=(10, 5, 5, 1))
        assert observation.origin_asn == 1
        assert observation.path_without_prepending == (10, 5, 1)

    def test_archive_queries(self):
        archive = ObservationArchive(
            [
                make_observation(),
                make_observation(peer=20, platform="RV", collector="rv-00", communities=()),
            ]
        )
        assert len(archive) == 2
        assert archive.platforms() == ["RIS", "RV"]
        assert archive.peer_asns() == {10, 20}
        tallies = archive.tallies()
        assert tallies[None].collectors == {("RIS", "ris-00"): [1, 1], ("RV", "rv-00"): [1, 0]}
        assert archive.unique_communities() == {Community(1, 100)}
        assert tallies["RIS"].messages == 1
        assert archive.observed_community_asns() == {1}

    def test_mrt_roundtrip(self, tmp_path):
        archive = ObservationArchive(
            [make_observation(), make_observation(peer=20, path=(20, 5, 1))]
        )
        path = tmp_path / "archive.mrt"
        count = archive.write_mrt(path)
        assert count == 2
        loaded = ObservationArchive.from_mrt(path, platform="RIS", collector_id="ris-00")
        assert len(loaded) == 2
        assert {o.peer_asn for o in loaded} == {10, 20}
        assert all(Community(1, 100) in o.communities for o in loaded)
        assert {o.as_path for o in loaded} == {(10, 5, 1), (20, 5, 1)}

    def test_mrt_export_includes_ipv6(self, tmp_path):
        archive = ObservationArchive(
            [make_observation(), make_observation(prefix="2001:db8::/32")]
        )
        path = tmp_path / "x.mrt"
        assert archive.write_mrt(path) == 2
        loaded = ObservationArchive.from_mrt(path)
        assert {str(o.prefix) for o in loaded} == {"203.0.113.0/24", "2001:db8::/32"}


# ------------------------------------------------ archive queries vs brute force
_POOL_PREFIXES = [
    Prefix.from_string(text)
    for text in (
        "10.0.0.0/8",
        "10.1.0.0/16",
        "10.1.2.0/24",
        "10.1.2.128/25",
        "192.0.2.0/24",
        "2001:db8::/32",
        "2001:db8:1::/48",
        "2001:db8:1:2::/64",
        "2001:db9::/32",
    )
]
_POOL_COLLECTORS = [("RIS", "ris-00"), ("RIS", "ris-01"), ("RV", "rv-00"), ("PCH", "pch-00")]
_QUERY_KINDS = ("prefixes", "platform", "collector", "peers", "memo")

_OBSERVATIONS = st.builds(
    lambda where, peer, prefix, path, communities: RouteObservation(
        platform=where[0],
        collector_id=where[1],
        peer_asn=peer,
        prefix=prefix,
        as_path=(peer, *path),
        communities=CommunitySet.of(*communities),
    ),
    st.sampled_from(_POOL_COLLECTORS),
    st.integers(1, 4),
    st.sampled_from(_POOL_PREFIXES),
    st.lists(st.integers(1, 6), max_size=4).map(tuple),
    st.lists(st.sampled_from(["1:1", "2:2", "5:666", "64512:9"]), max_size=3),
)
#: A step either appends an observation or runs some of the query kinds.
_STEPS = st.lists(
    st.one_of(_OBSERVATIONS, st.sets(st.sampled_from(_QUERY_KINDS), min_size=1)), max_size=30
)


def _check_against_scan(archive: ObservationArchive, rows: list[RouteObservation], kinds) -> None:
    assert list(archive) == rows
    if "prefixes" in kinds:
        assert archive.prefixes() == {o.prefix for o in rows}
    if "platform" in kinds:
        assert archive.platforms() == sorted({o.platform for o in rows})
        tallies = archive.tallies()
        for platform in ("RIS", "RV", "PCH", "IS"):
            subset = [o for o in rows if o.platform == platform]
            if not subset:
                assert platform not in tallies
                continue
            tally = tallies[platform]
            assert tally.messages == len(subset)
            assert tally.prefixes == {o.prefix for o in subset}
            assert tally.peers == {o.peer_asn for o in subset}
    if "collector" in kinds:
        assert archive.collectors() == sorted({(o.platform, o.collector_id) for o in rows})
    if "peers" in kinds:
        assert archive.peer_asns() == {o.peer_asn for o in rows}
    if "memo" in kinds:
        assert archive.unique_communities() == {c for o in rows for c in o.communities}
        assert archive.observed_community_asns() == {c.asn for o in rows for c in o.communities}
        facts = archive.route_facts()
        assert len(facts) == len(rows)
        for observation, route in zip(rows, facts):
            assert route.path == observation.path_without_prepending
            assert [c for c, _ in route.taggers] == list(observation.communities)


class TestArchiveIndexes:
    @settings(deadline=None)
    @given(_STEPS)
    def test_queries_match_a_scan_over_interleaved_adds(self, steps):
        archive = ObservationArchive()
        rows: list[RouteObservation] = []
        for step in steps:
            if isinstance(step, RouteObservation):
                archive.add(step)
                rows.append(step)
            else:
                _check_against_scan(archive, rows, step)
        _check_against_scan(archive, rows, _QUERY_KINDS)

    def test_a_memoised_query_sees_rows_appended_by_extend(self):
        first = [make_observation()]
        later = [
            make_observation(peer=20, communities=("20:1",)),
            make_observation(peer=30, prefix="2001:db8::/32"),
        ]
        archive = ObservationArchive(first)
        _check_against_scan(archive, first, _QUERY_KINDS)  # warms every memo
        assert archive.derived(len) == 1
        archive.extend(iter(later))
        assert archive.derived(len) == 3
        _check_against_scan(archive, first + later, _QUERY_KINDS)

    def test_results_are_the_callers_own(self):
        archive = ObservationArchive([make_observation()])
        archive.unique_communities().clear()
        archive.peer_asns().clear()
        archive.prefixes().clear()
        archive.collectors().clear()
        _check_against_scan(archive, [make_observation()], _QUERY_KINDS)

    def test_indexes_and_memo_do_not_travel(self):
        archive = ObservationArchive(
            [make_observation(), make_observation(peer=20, prefix="2001:db8::/32")]
        )
        cold = pickle.dumps(archive)
        archive.route_facts(), archive.unique_communities(), archive.platforms()
        assert len(archive.prefixes()) == 2
        assert archive._derived and archive._routes
        assert pickle.dumps(archive) == cold  # a warm memo adds no byte
        for clone in (pickle.loads(cold), copy.copy(archive), copy.deepcopy(archive)):
            assert clone._derived is None and not clone._routes
            assert list(clone) == list(archive)
            # A copy appends to its own list, never behind the original's memo.
            clone.add(make_observation(peer=30))
            assert len(clone) == 3 and len(archive) == 2
            _check_against_scan(clone, list(clone), _QUERY_KINDS)
        _check_against_scan(archive, list(archive), _QUERY_KINDS)


class TestDeployment:
    def test_default_deployment_shape(self, small_topology, deployment):
        assert set(deployment.platforms) == {"RIS", "RV", "IS", "PCH"}
        assert deployment.collector_count() == sum(
            p.collector_count() for p in deployment.platforms.values()
        )
        for platform in deployment.platforms.values():
            assert platform.peer_asns() <= set(small_topology.asns())

    def test_collector_validation(self):
        with pytest.raises(CollectorError):
            Collector(collector_id="", platform="RIS")

    def test_collect_from_simulator(self):
        topology = build_figure2_topology()
        simulator = BgpSimulator(topology)
        prefix = Prefix.from_string("198.51.100.0/24")
        simulator.announce(1, prefix, communities=CommunitySet.of("1:200"))
        deployment = CollectorDeployment(
            [
                CollectorPlatform(
                    "RIS",
                    [Collector(collector_id="ris-00", platform="RIS", peer_asns=[4, 6])],
                )
            ]
        )
        archive = deployment.collect_from_simulator(simulator)
        assert len(archive) >= 2
        peers_seen = archive.peer_asns()
        assert peers_seen == {4, 6}
        for observation in archive:
            assert observation.prefix == prefix
            assert observation.as_path[-1] == 1


class TestCommunityUsageModel:
    def test_documentation_is_cached_and_deterministic(self):
        model = CommunityUsageModel(DeterministicRng(1).child("usage"))
        doc_a = model.documentation_for(100, offers_blackhole=False)
        doc_b = model.documentation_for(100, offers_blackhole=False)
        assert doc_a is doc_b
        assert doc_a.informational_values
        assert all(0 <= v <= 0xFFFF for v in doc_a.informational_values)

    def test_blackhole_documentation(self):
        model = CommunityUsageModel(DeterministicRng(2).child("usage"))
        doc = model.documentation_for(200, offers_blackhole=True)
        assert doc.blackhole_values == [666]
        assert Community(200, 666) in doc.blackhole_communities()

    def test_value_draws_in_range(self):
        model = CommunityUsageModel(DeterministicRng(3).child("usage"))
        for _ in range(200):
            assert 0 <= model.on_path_value() <= 0xFFFF
            assert 0 <= model.off_path_value() <= 0xFFFF


class TestBlackholeList:
    def test_list_contents(self, small_topology):
        blackhole_list = build_blackhole_list(small_topology, seed=1)
        assert len(blackhole_list.verified()) > 0
        assert len(blackhole_list.inferred()) <= INFERRED_COUNT
        for record in blackhole_list.verified():
            assert record.community.value == 666
            assert record.actually_blackholes
            assert record.community.asn == record.target_asn

    def test_well_known_not_listed_per_as(self, small_topology):
        blackhole_list = build_blackhole_list(small_topology, seed=1)
        assert BLACKHOLE not in blackhole_list.communities()


class TestSyntheticDataset:
    def test_dataset_has_observations_for_all_platforms(self, dataset):
        assert dataset.message_count() > 1000
        assert set(dataset.archive.platforms()) == {"IS", "PCH", "RIS", "RV"}

    def test_paths_are_valid(self, dataset, small_topology):
        for observation in list(dataset.archive)[:500]:
            path = observation.path_without_prepending
            assert path[0] == observation.peer_asn
            assert all(asn in small_topology for asn in path)
            # Consecutive path ASes are adjacent in the topology.
            for a, b in zip(path, path[1:]):
                assert small_topology.relationship(a, b) is not None

    def test_ground_truth_records_taggers(self, dataset):
        assert dataset.ground_truth.tagging_events
        behaviors = dataset.ground_truth.propagation_behavior
        assert len(behaviors) > 50
        assert dataset.ground_truth.forward_all_ases()
        assert dataset.ground_truth.strip_all_ases()

    def test_blackhole_prefixes_are_host_routes(self, dataset):
        assert dataset.ground_truth.blackhole_prefixes
        for prefix in dataset.ground_truth.blackhole_prefixes:
            assert prefix.length == 32

    def test_determinism(self, small_topology, deployment):
        params = DatasetParameters(seed=99, coverage=0.3)
        a = SyntheticDatasetBuilder(small_topology, deployment, params).build()
        b = SyntheticDatasetBuilder(small_topology, deployment, params).build()
        assert a.message_count() == b.message_count()
        communities_a = {str(c) for c in a.archive.unique_communities()}
        communities_b = {str(c) for c in b.archive.unique_communities()}
        assert communities_a == communities_b

    @pytest.mark.parametrize(
        "seed, overrides, digest",
        [
            (42, {}, "ce7a6b21d469ac0a4d4c5bf252c81fd4095d2e89c70343635f4e74372eeae6ff"),
            (7, {}, "879dc38b3cd76518da444bb757362fd5c288daf78a48268e29550e50b6590f56"),
            (
                # Every stub blackholes, every blackhole travels the whole path and
                # its target strips it, every origin prepends: the rare arms run.
                601,
                {
                    "blackhole_origin_fraction": 1.0,
                    "blackhole_propagation_probability": 1.0,
                    "blackhole_strip_probability": 1.0,
                    "prepend_probability": 1.0,
                },
                "ea1ec74fd50dc6dbb38dbd0a52dd879d7819216a17488a4161e1dd956c410560",
            ),
        ],
    )
    def test_the_generator_draws_are_pinned(self, seed, overrides, digest):
        """Every archive row, tagging event and blackhole prefix of one build, hashed.

        The report text pins the generator only through the rendered
        tables, which a shifted draw can leave unchanged.
        """
        from repro.datasets.synthetic import build_default_dataset
        from repro.experiments import ExperimentSpec

        topology = ExperimentSpec(name="report", seed=seed, scale="small").build_topology()
        built = build_default_dataset(topology, DatasetParameters(seed=seed, **overrides))
        lines = [
            f"{o.platform} {o.collector_id} {o.peer_asn} {o.prefix} {o.as_path} "
            f"{[str(c) for c in o.communities]} {o.timestamp!r} {o.withdrawn}"
            for o in built.archive
        ]
        lines += [
            f"{e.prefix} {e.community} {e.tagger_asn} {e.peer_asn} {e.on_path}"
            for e in built.ground_truth.tagging_events
        ]
        lines += sorted(str(prefix) for prefix in built.ground_truth.blackhole_prefixes)
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest

    def test_requires_peers_in_topology(self, small_topology):
        empty_deployment = CollectorDeployment(
            [CollectorPlatform("RIS", [Collector("ris-00", "RIS", peer_asns=[999999])])]
        )
        builder = SyntheticDatasetBuilder(small_topology, empty_deployment, DatasetParameters())
        with pytest.raises(DatasetError):
            builder.build()


class TestTimeseries:
    def test_series_is_monotone(self, archive):
        series = growth_table(archive)
        assert [s.year for s in series] == list(range(2010, 2019))
        for earlier, later in zip(series, series[1:]):
            assert later.unique_communities > earlier.unique_communities
            assert later.unique_ases_in_communities >= earlier.unique_ases_in_communities
