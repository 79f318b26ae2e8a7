"""Tests for probing (Atlas, IP-to-AS) and the Section 7 experiments."""

from __future__ import annotations

import pytest

from repro.attacks.scenario import build_figure2_topology
from repro.bgp.community import BLACKHOLE, CommunitySet
from repro.bgp.prefix import AddressFamily, Prefix
from repro.dataplane.forwarding import DataPlane
from repro.datasets.giotsas import build_blackhole_list
from repro.exceptions import AttackError, AupViolationError, ProbingError, TopologyError
from repro.probing.atlas import AtlasPlatform, VantagePoint
from repro.routing.engine import BgpSimulator
from repro.wild.blackhole_sweep import BlackholeSweep, CommunitySweepOutcome
from repro.wild.experiments import RtbhWildExperiment
from repro.wild.peering import (
    attach_peering_testbed,
    attach_research_network,
)


PREFIX = Prefix.from_string("198.51.100.0/24")


@pytest.fixture(scope="module")
def wild_setup():
    """A generated Internet with both injection platforms and Atlas probes."""
    from repro.topology.generator import TopologyGenerator, TopologyParameters

    topology = TopologyGenerator(
        TopologyParameters(tier1_count=3, transit_count=18, stub_count=50, seed=11)
    ).generate()
    peering = attach_peering_testbed(topology, upstream_count=8)
    research = attach_research_network(topology)
    atlas = AtlasPlatform.deploy(
        topology, probe_count=40, exclude_asns={peering.asn, research.asn}
    )
    return topology, peering, research, atlas


class TestAtlas:
    def test_a_probe_round_is_the_set_of_probes_that_answered(self):
        topology = build_figure2_topology()
        simulator = BgpSimulator(topology)
        plane = DataPlane(simulator)
        atlas = AtlasPlatform([VantagePoint(1, 6), VantagePoint(2, 4)])
        before = atlas.measure(plane, PREFIX)
        assert before == set()
        simulator.announce(1, PREFIX)
        plane.rebuild()
        after = atlas.measure(plane, PREFIX)
        assert after == {1, 2}
        assert before - after == set()  # nobody lost reachability
        # Each probe's answer is its traceroute's end.
        assert after == {
            vp.probe_id
            for vp in atlas.vantage_points
            if plane.traceroute(vp.asn, PREFIX.host(), PREFIX.family).reached
        }
        simulator.withdraw(1, PREFIX)
        plane.rebuild()
        assert atlas.measure(plane, PREFIX) == before
        assert not plane.traceroute(4, PREFIX.host(), PREFIX.family).reached

    def test_a_probe_outside_the_data_plane_does_not_answer(self):
        simulator = BgpSimulator(build_figure2_topology())
        simulator.announce(1, PREFIX)
        atlas = AtlasPlatform([VantagePoint(1, 6), VantagePoint(2, 999)])
        assert atlas.measure(DataPlane(simulator), PREFIX) == {1}

    def test_atlas_deploy_excludes(self, wild_setup):
        topology, peering, research, atlas = wild_setup
        probe_asns = {vp.asn for vp in atlas.vantage_points}
        assert peering.asn not in probe_asns
        assert research.asn not in probe_asns
        assert len(atlas.vantage_points) == 40

    def test_atlas_requires_probes(self):
        with pytest.raises(ProbingError):
            AtlasPlatform([])

    def test_ip2as_mapping(self, wild_setup):
        topology, *_rest = wild_setup
        some_as = topology.stub_ases()[0]
        prefix = some_as.prefixes[0]
        origins = topology.origin_table()
        assert origins.longest_match(prefix.host(1), prefix.family) == some_as.asn
        assert origins.covering(prefix)[-1] == some_as.asn
        assert origins.longest_match(0, AddressFamily.IPV4) is None


class TestInjectionPlatforms:
    def test_peering_attach(self, wild_setup):
        topology, peering, _research, _atlas = wild_setup
        assert peering.asn in topology
        assert len(peering.upstream_asns) == 8
        assert peering.allocated_prefixes[0].length == 20
        assert not peering.allows_hijack

    def test_research_network_upstream_policies(self, wild_setup):
        topology, _peering, research, _atlas = wild_setup
        assert len(research.upstream_asns) == 2
        behaviors = {
            topology.get_as(asn).propagation_policy.behavior for asn in research.upstream_asns
        }
        assert len(behaviors) == 2  # one forwards, one strips

    def test_cannot_attach_twice(self, wild_setup):
        topology, peering, *_ = wild_setup
        with pytest.raises(TopologyError):
            attach_peering_testbed(topology, upstream_count=8)

    def test_aup_blocks_hijack_from_peering(self, wild_setup):
        topology, peering, *_ = wild_setup
        simulator = BgpSimulator(topology)
        foreign = Prefix.from_string("100.64.0.0/24")
        with pytest.raises(AupViolationError):
            peering.announce(simulator, foreign, hijack=True)
        with pytest.raises(AupViolationError):
            peering.announce(simulator, foreign)  # not even without the flag

    def test_research_network_allows_permissioned_hijack(self, wild_setup):
        topology, _peering, research, *_ = wild_setup
        simulator = BgpSimulator(topology)
        foreign = Prefix.from_string("100.64.0.0/24")
        report = research.announce(simulator, foreign, hijack=True)
        assert report.announcements_processed > 0

    def test_own_prefix_announcement(self, wild_setup):
        topology, peering, *_ = wild_setup
        simulator = BgpSimulator(topology)
        own = peering.allocated_prefixes[0].subprefix(24, 3)
        report = peering.announce(simulator, own)
        assert report.announcements_processed > 0


class TestSection7:
    # §7.2 and both §7.3 RTBH variants are rows of tests/test_paper_claims.py.
    def test_rtbh_wild_requires_hijack_space(self, wild_setup):
        topology, _peering, research, atlas = wild_setup
        experiment = RtbhWildExperiment(topology, research, atlas)
        with pytest.raises(AttackError):
            experiment.run(use_hijack=True)

    def test_rtbh_wild_target_distance_is_the_converged_path(self):
        """The "at least N AS hops" rule holds on the routes the core converged to.

        At seed 19 the static valley-free walk puts AS1104 three hops from
        the injection point, but its converged route is two hops long.
        """
        from repro.experiments import get

        cls = get("rtbh-wild")
        experiment = cls(cls.default_spec(seed=19, min_hops_to_target=3))
        result = experiment.run()
        assert result.succeeded
        ctx = experiment.context
        metrics = result.metrics
        attack_prefix = Prefix.from_string(metrics["attack_prefix"])
        simulator = BgpSimulator(ctx.require_topology())
        ctx.platform("peering").announce(simulator, attack_prefix)
        path = simulator.observed_path(metrics["target_asn"], attack_prefix)
        assert metrics["target_hops_from_injection"] == len(path) - 1 >= 3

    @pytest.mark.parametrize("min_hops", [2, 3])
    @pytest.mark.parametrize("seed", range(1, 13))
    def test_rtbh_wild_picks_the_closest_qualifying_converged_target(self, seed, min_hops):
        """Over generated Internets: the target is the closest RTBH provider
        whose converged route spans ``min_hops`` distinct ASes or more, and
        the run fails only when no provider's route is that long."""
        from repro.experiments import get

        cls = get("rtbh-wild")
        experiment = cls(cls.default_spec(seed=seed, min_hops_to_target=min_hops))
        result = experiment.run()
        ctx = experiment.context
        topology = ctx.require_topology()
        peering = ctx.platform("peering")
        attack_prefix = peering.allocated_prefixes[0].subprefix(24, 1)
        simulator = BgpSimulator(topology)
        peering.announce(simulator, attack_prefix)
        qualifying = []
        for asys in topology.transit_ases():
            if asys.services is None or not asys.services.blackhole_communities():
                continue
            path = simulator.observed_path(asys.asn, attack_prefix)
            if path is None:
                continue
            hops = len([asn for i, asn in enumerate(path) if i == 0 or path[i - 1] != asn]) - 1
            if hops >= min_hops:
                qualifying.append((hops, asys.asn))
        if not qualifying:
            assert result.status == "error"
            assert "no RTBH-offering provider reachable" in result.error
            return
        assert result.succeeded
        metrics = result.metrics
        assert metrics["attack_prefix"] == str(attack_prefix)
        assert (metrics["target_hops_from_injection"], metrics["target_asn"]) == min(qualifying)

    def test_blackhole_sweep(self, wild_setup):
        topology, peering, _research, atlas = wild_setup
        blackhole_list = build_blackhole_list(topology, seed=5)
        sweep = BlackholeSweep(topology, peering, atlas, blackhole_list, include_well_known=True)
        result = sweep.run(confirm=True)
        assert result["probe_count"] == len(atlas.vantage_points)
        assert result["communities_swept"] == len(blackhole_list.verified()) + 1
        assert result["confirmed"]
        assert result["effective_communities"] == len(result["outcomes"]) > 0, (
            "no community induced blackholing"
        )
        assert 0.0 < result["effective_fraction"] <= 1.0
        assert 0 < result["affected_probes"] <= result["probe_count"]
        # Affected pairs include community targets that are not direct peers of
        # the injection platform (the paper's multi-hop finding).
        assert result["multi_hop_pairs"] + result["offpath_pairs"] > 0

    def test_confirmation_pass_compares_every_record(self, wild_setup, monkeypatch):
        """A second pass that loses one more probe on a community that is
        effective anyway finds the same effective communities, yet disagrees."""
        topology, peering, _research, atlas = wild_setup
        blackhole_list = build_blackhole_list(topology, seed=5)
        first_pass = len(blackhole_list.verified()) + 1
        sweep_one = BlackholeSweep._sweep_one
        outcomes: list[CommunitySweepOutcome] = []
        tampered: list[CommunitySweepOutcome] = []

        def second_pass_loses_one_more(self, *args):
            outcome = sweep_one(self, *args)
            outcomes.append(outcome)
            if len(outcomes) > first_pass and outcome.induced_blackholing and not tampered:
                spare = {vp.probe_id for vp in atlas.vantage_points} - outcome.probes_lost
                outcome.probes_lost = outcome.probes_lost | {min(spare)}
                outcome.probes_after -= 1
                tampered.append(outcome)
            return outcome

        monkeypatch.setattr(BlackholeSweep, "_sweep_one", second_pass_loses_one_more)
        result = BlackholeSweep(topology, peering, atlas, blackhole_list, include_well_known=True).run(confirm=True)
        assert tampered
        first = {o.community for o in outcomes[: first_pass - 1] if o.induced_blackholing}
        assert first == {o.community for o in outcomes[first_pass:] if o.induced_blackholing}
        assert result["confirmed"] is False

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_each_community_on_a_fork_equals_the_fresh_simulator_protocol(self, seed):
        """Each community on a fork of the one converged baseline gets what a
        fresh simulator announcing clean, probing, tagging and re-probing gets,
        in every field of its outcome, whether it blackholed anything or not."""
        sweep, reference = _sweep_pair(seed, {"confirm": False})[1:]
        baseline = sweep._baseline()
        swept = [(r.community, r.target_asn) for r in sweep.blackhole_list.verified()]
        for community, target_asn in swept + [(BLACKHOLE, 0)]:
            outcome = sweep._sweep_one(community, target_asn, baseline)
            assert outcome == reference._sweep_one(community, target_asn, None)

    @pytest.mark.parametrize(
        "params", [{}, {"confirm": False}, {"include_well_known": False}], ids=["defaults", "no-confirm", "no-well-known"]
    )
    @pytest.mark.parametrize("seed", range(1, 7))
    def test_blackhole_sweep_equals_the_fresh_simulator_protocol(self, seed, params):
        """The experiment stores the record the fresh-simulator protocol gives."""
        experiment, _sweep, reference = _sweep_pair(seed, params)
        assert experiment.result.metrics == reference.run(confirm=experiment.bool_param("confirm"))


def _sweep_pair(seed: int, params: dict):
    """Run ``blackhole-sweep``; return it, plus the forking sweep and the
    fresh-simulator reference over its topology, platforms and list."""
    from repro.experiments import get

    cls = get("blackhole-sweep")
    experiment = cls(cls.default_spec(seed=seed, **params))
    assert experiment.run().succeeded
    ctx = experiment.context
    topology = ctx.require_topology()
    args = (ctx.platform("peering"), ctx.platform("atlas"), build_blackhole_list(topology, seed=seed))
    include_well_known = experiment.bool_param("include_well_known")
    return (
        experiment,
        BlackholeSweep(topology, *args, include_well_known=include_well_known),
        FreshSimulatorSweep(topology, *args, include_well_known=include_well_known),
    )


class FreshSimulatorSweep(BlackholeSweep):
    """The reference sweep: every community pays for its own clean baseline.

    A fresh simulator announces the prefix clean and is probed, then the
    tagged announcement is converged on top of it and probed again; the
    target-hop lower bound reads a data plane of the clean state.
    """

    def _sweep_one(self, community, target_asn, _baseline) -> CommunitySweepOutcome:
        prefix = self.experiment_prefix
        simulator = BgpSimulator(self.topology)
        self.platform.announce(simulator, prefix)
        clean_plane, dataplane = DataPlane(simulator), DataPlane(simulator)
        before = self.atlas.measure(dataplane, prefix)
        dataplane.rebuild(self.platform.announce(simulator, prefix, communities=CommunitySet.of(community)))
        after = self.atlas.measure(dataplane, prefix)
        lost = before - after
        target_hops = None
        if lost:
            probe_asn = {vp.probe_id: vp.asn for vp in self.atlas.vantage_points}[min(lost)]
            path = clean_plane.traceroute(probe_asn, prefix.host(), prefix.family).path
            if target_asn in path:
                target_hops = len(path) - 1 - path.index(target_asn)
        return CommunitySweepOutcome(
            community,
            target_asn,
            len(before),
            len(after),
            lost,
            target_hops,
        )
