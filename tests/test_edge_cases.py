"""Edge cases and failure injection across subsystems.

Empty inputs, degenerate topologies, exhausted resources, and the
exception hierarchy — the situations a downstream user hits first when
wiring the library into their own pipeline.
"""

from __future__ import annotations

import pytest

from repro import ReproError
from repro.bgp.community import CommunitySet
from repro.bgp.prefix import Prefix
from repro.collectors.observation import ObservationArchive
from repro.exceptions import (
    AttackError,
    CommunityError,
    ConvergenceError,
    DatasetError,
    MrtError,
    PolicyError,
    PrefixError,
    RoutingError,
    TopologyError,
)
from repro.measurement.filtering import infer_filtering
from repro.measurement.propagation import (
    observed_as_summary,
    propagation_distance_ecdf,
    top_values,
    transit_forwarders,
)
from repro.measurement.usage import (
    communities_per_update_ecdf,
    dataset_overview,
    overall_update_community_fraction,
)
from repro.routing.engine import BgpSimulator
from repro.topology.asys import AutonomousSystem
from repro.topology.topology import Topology


class TestExceptionHierarchy:
    def test_all_specific_errors_are_repro_errors(self):
        for exc in (
            PrefixError,
            CommunityError,
            MrtError,
            TopologyError,
            PolicyError,
            RoutingError,
            ConvergenceError,
            DatasetError,
            AttackError,
        ):
            assert issubclass(exc, ReproError)

    def test_value_error_compatibility(self):
        # Parsing errors remain catchable as ValueError for drop-in use.
        assert issubclass(PrefixError, ValueError)
        assert issubclass(CommunityError, ValueError)
        with pytest.raises(ValueError):
            Prefix.from_string("not-a-prefix")


class TestEmptyArchive:
    def test_measurements_on_empty_archive(self):
        archive = ObservationArchive()
        assert len(archive) == 0
        assert overall_update_community_fraction(archive) == 0.0
        assert dataset_overview(archive) == [
            dataset_overview(archive)[0]
        ]  # only the Total row
        assert dataset_overview(archive)[0].messages == 0
        distributions = communities_per_update_ecdf(archive)
        assert distributions.fraction_with_more_than(0) == 0.0
        summary = observed_as_summary(archive)[-1]
        assert summary.total == 0
        distances = propagation_distance_ecdf(archive)
        assert len(distances.all_communities) == 0
        assert transit_forwarders(archive).forwarder_count == 0
        assert transit_forwarders(archive).forwarder_fraction == 0.0
        ranking = top_values(archive)
        assert ranking.on_path == [] and ranking.off_path == []
        inference = infer_filtering(archive)
        assert inference.total_edges_observed == 0
        assert inference.forwarding_fraction() == 0.0


class TestDegenerateTopologies:
    def test_single_as_simulation(self):
        topology = Topology()
        topology.add_as(AutonomousSystem(asn=1))
        simulator = BgpSimulator(topology)
        prefix = Prefix.from_string("203.0.113.0/24")
        simulator.announce(1, prefix)
        assert simulator.ases_with_route(prefix) == [1]
        assert simulator.observed_path(1, prefix) == [1]

    def test_disconnected_ases_do_not_receive_routes(self):
        topology = Topology()
        topology.add_as(AutonomousSystem(asn=1))
        topology.add_as(AutonomousSystem(asn=2))
        simulator = BgpSimulator(topology)
        prefix = Prefix.from_string("203.0.113.0/24")
        simulator.announce(1, prefix)
        assert simulator.best_route(2, prefix) is None

    def test_reannouncement_with_new_communities_propagates(self):
        from repro.attacks.scenario import build_figure2_topology
        from repro.bgp.community import Community

        topology = build_figure2_topology()
        simulator = BgpSimulator(topology)
        prefix = Prefix.from_string("198.51.100.0/24")
        simulator.announce(1, prefix)
        before = simulator.best_route(6, prefix)
        assert Community(1, 77) not in before.attributes.communities
        simulator.announce(1, prefix, communities=CommunitySet.of("1:77"))
        after = simulator.best_route(6, prefix)
        assert Community(1, 77) in after.attributes.communities

    def test_withdraw_never_announced_prefix_is_harmless(self):
        from repro.attacks.scenario import build_figure2_topology

        simulator = BgpSimulator(build_figure2_topology())
        prefix = Prefix.from_string("198.51.100.0/24")
        report = simulator.withdraw(1, prefix)
        assert report.announcements_processed == 0


class TestDatasetFailureInjection:
    def test_builder_rejects_deployment_without_topology_peers(self, small_topology):
        from repro.collectors.platform import Collector, CollectorDeployment, CollectorPlatform
        from repro.datasets.synthetic import DatasetParameters, SyntheticDatasetBuilder

        deployment = CollectorDeployment(
            [CollectorPlatform("RIS", [Collector("ris-00", "RIS", peer_asns=[424242])])]
        )
        with pytest.raises(DatasetError):
            SyntheticDatasetBuilder(small_topology, deployment, DatasetParameters()).build()

    def test_zero_coverage_dataset_is_empty_but_valid(self, small_topology, deployment):
        from repro.datasets.synthetic import DatasetParameters, SyntheticDatasetBuilder

        parameters = DatasetParameters(seed=1, coverage=0.0, blackhole_origin_fraction=0.0)
        dataset = SyntheticDatasetBuilder(small_topology, deployment, parameters).build()
        assert dataset.message_count() == 0
        assert dataset.ground_truth.propagation_behavior  # ground truth still recorded


class TestAttackFailureInjection:
    def test_rtbh_needs_reachable_target(self):
        from repro.attacks.rtbh import RtbhAttack
        from repro.attacks.scenario import ScenarioRoles, build_figure7_topology

        topology = build_figure7_topology()
        roles = ScenarioRoles(attacker_asn=2, attackee_asn=1, community_target_asn=99)
        with pytest.raises(TopologyError):
            RtbhAttack(topology, roles, Prefix.from_string("203.0.113.0/24"))

    def test_wild_experiment_without_rtbh_providers(self):
        from repro.probing.atlas import AtlasPlatform, VantagePoint
        from repro.topology.generator import TopologyGenerator, TopologyParameters
        from repro.wild.experiments import RtbhWildExperiment
        from repro.wild.peering import attach_peering_testbed

        # A topology where no transit AS offers community services at all.
        parameters = TopologyParameters(
            tier1_count=2, transit_count=6, stub_count=10, service_fraction=0.0, seed=3
        )
        topology = TopologyGenerator(parameters).generate()
        platform = attach_peering_testbed(topology, upstream_count=2)
        atlas = AtlasPlatform([VantagePoint(1, topology.stub_ases()[0].asn)])
        experiment = RtbhWildExperiment(topology, platform, atlas)
        with pytest.raises(AttackError):
            experiment.run()
