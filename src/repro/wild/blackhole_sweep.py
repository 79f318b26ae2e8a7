"""The automated blackhole-community sweep (Section 7.6).

For every community in the verified blackhole list the sweep:

1. advertises the experiment prefix *without* communities;
2. probes it from the fixed set of Atlas vantage points;
3. advertises the prefix *with* the community attached;
4. re-probes from the same vantage points;

and records which communities caused at least one previously responsive
vantage point to become unresponsive.  Steps 1–2 run once per sweep,
steps 3–4 once per community on a fork of the converged clean state.
A fork, not a clean re-announcement: local-pref and prepend services can
make a converged state depend on its history (BGP wedgies, RFC 4264).
A confirmation pass repeats the sweep and must agree record for record;
because the simulation is deterministic it does, just as the paper's two
rounds did.  Finally, traceroutes lower-bound how many AS hops the
acted-upon community traversed by locating the community's target AS on
the forwarding path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.community import BLACKHOLE, Community, CommunitySet
from repro.dataplane.forwarding import DataPlane
from repro.datasets.giotsas import BlackholeCommunityList
from repro.experiments import Experiment, ExperimentContext, ExperimentResult, Param, register
from repro.probing.atlas import AtlasPlatform
from repro.routing.engine import BgpSimulator
from repro.topology.topology import Topology
from repro.wild.peering import InjectionPlatform


@dataclass
class CommunitySweepOutcome:
    """The result of sweeping one blackhole community."""

    community: Community
    target_asn: int
    probes_before: int
    probes_after: int
    probes_lost: set[int] = field(default_factory=set)
    #: AS-hop distance of the community target from the injection point on the
    #: affected probes' forwarding paths (None when the target is not on them).
    target_hops: int | None = None

    @property
    def induced_blackholing(self) -> bool:
        """True if at least one vantage point lost reachability."""
        return bool(self.probes_lost)


class BlackholeSweep:
    """Runs the Section 7.6 sweep over the verified blackhole community list."""

    def __init__(
        self,
        topology: Topology,
        platform: InjectionPlatform,
        atlas: AtlasPlatform,
        blackhole_list: BlackholeCommunityList,
        include_well_known: bool,
    ):
        self.topology = topology
        self.platform = platform
        self.atlas = atlas
        self.blackhole_list = blackhole_list
        self.include_well_known = include_well_known
        self.experiment_prefix = platform.allocated_prefixes[0].subprefix(24, 2)

    def _baseline(self) -> tuple[BgpSimulator, DataPlane, set[int]]:
        """Steps 1–2, shared by every community: the clean announcement.

        The converged clean simulator, its data plane (the traceroute
        lower-bounds read it) and the one ``before`` probe round.
        """
        clean = BgpSimulator(self.topology)
        self.platform.announce(clean, self.experiment_prefix)
        plane = DataPlane(clean)
        return clean, plane, self.atlas.measure(plane, self.experiment_prefix)

    def _sweep_one(
        self, community: Community, target_asn: int, baseline: tuple
    ) -> CommunitySweepOutcome:
        """Steps 3–4 for one community, on a fork of the converged clean state."""
        clean, baseline_plane, before = baseline
        simulator = clean.fork()
        dataplane = DataPlane(simulator)
        # The report's dirty set confines the FIB refresh to changed routers.
        report = self.platform.announce(
            simulator, self.experiment_prefix, communities=CommunitySet.of(community)
        )
        dataplane.rebuild(report)
        after = self.atlas.measure(dataplane, self.experiment_prefix)
        lost = before - after

        target_hops: int | None = None
        if lost:
            # Lower-bound the distance of the community target using the
            # forwarding path of an affected probe before the blackholing.
            probe_asn = self._probe_asn(sorted(lost)[0])
            trace = baseline_plane.traceroute(
                probe_asn, self.experiment_prefix.host(), self.experiment_prefix.family
            )
            if target_asn in trace.path:
                # Hops between the target and the injection point on that path.
                target_hops = len(trace.path) - 1 - trace.path.index(target_asn)
        return CommunitySweepOutcome(
            community=community,
            target_asn=target_asn,
            probes_before=len(before),
            probes_after=len(after),
            probes_lost=lost,
            target_hops=target_hops,
        )

    def _probe_asn(self, probe_id: int) -> int:
        for vantage_point in self.atlas.vantage_points:
            if vantage_point.probe_id == probe_id:
                return vantage_point.asn
        raise KeyError(f"unknown probe id {probe_id}")

    def run(self, confirm: bool = True) -> dict:
        """Sweep every verified community (optionally confirming with a second pass).

        Returns the JSON-safe record ``blackhole-sweep`` stores.
        """
        records = list(self.blackhole_list.verified())
        baseline = self._baseline()
        outcomes = [
            self._sweep_one(record.community, record.target_asn, baseline) for record in records
        ]
        if self.include_well_known:
            outcomes.append(self._sweep_one(BLACKHOLE, 0, baseline))
        confirmed = False
        if confirm:
            second = [
                self._sweep_one(record.community, record.target_asn, baseline)
                for record in records
            ]
            # Every field of every record must agree (the well-known
            # BLACKHOLE run, last in the first pass, is not repeated).
            confirmed = outcomes[: len(records)] == second

        effective = [o for o in outcomes if o.induced_blackholing]
        affected = set().union(*(o.probes_lost for o in effective))
        probe_count = len(self.atlas.vantage_points)
        return {
            "communities_swept": len(outcomes),
            "effective_communities": len(effective),
            # 8.1 % of the swept list in the paper.
            "effective_fraction": len(effective) / len(outcomes) if outcomes else 0.0,
            "affected_probes": len(affected),
            "probe_count": probe_count,
            # 24 % of the vantage points in the paper (a platform has at least one).
            "affected_probe_fraction": len(affected) / probe_count,
            "confirmed": confirmed,
            # Community/path pairs by the target's distance on the affected
            # forwarding paths: the injection point's direct peer, two or
            # more hops away, or not on them at all.
            "direct_peer_pairs": sum(1 for o in effective if o.target_hops == 1),
            "multi_hop_pairs": sum(
                1 for o in effective if o.target_hops is not None and o.target_hops >= 2
            ),
            "offpath_pairs": sum(1 for o in effective if o.target_hops is None),
            "outcomes": [
                {
                    "community": str(o.community),
                    "target_asn": o.target_asn,
                    "probes_lost": len(o.probes_lost),
                    "target_hops": o.target_hops,
                }
                for o in effective
            ],
        }


@register("blackhole-sweep")
class BlackholeSweepExperiment(Experiment):
    """The Section 7.6 sweep over the verified blackhole community list."""

    description = "automated sweep of the verified blackhole community list"
    paper_section = "Section 7.6"
    default_topology = {"tier1_count": 3, "transit_count": 25, "stub_count": 80}
    default_platforms = ("peering", "atlas")
    parameters = (
        Param("probes", 60, "int", minimum=1),
        Param("confirm", True, "bool"),
        Param("include_well_known", True, "bool"),
    )

    def execute(self, ctx: ExperimentContext) -> dict:
        from repro.datasets.giotsas import build_blackhole_list

        blackhole_list = build_blackhole_list(ctx.require_topology(), seed=ctx.spec.seed)
        sweep = BlackholeSweep(
            ctx.require_topology(),
            ctx.platform("peering"),
            ctx.platform("atlas"),
            blackhole_list,
            include_well_known=self.bool_param("include_well_known"),
        )
        return sweep.run(confirm=self.bool_param("confirm"))

    def validate(self, ctx: ExperimentContext, metrics: dict) -> bool:
        # A requested confirmation pass that disagrees with the first
        # pass would mean the simulation is not deterministic.
        return metrics["confirmed"] or not self.bool_param("confirm")

    def render_text(self, result: ExperimentResult) -> str:
        metrics = result.metrics
        return "\n".join(
            [
                f"communities swept:        {metrics['communities_swept']}",
                f"inducing blackholing:     {metrics['effective_communities']}"
                f" ({100 * metrics['effective_fraction']:.1f}%)",
                f"vantage points affected:  {metrics['affected_probes']} of "
                f"{metrics['probe_count']} ({100 * metrics['affected_probe_fraction']:.1f}%)",
                f"confirmation pass agrees: {metrics['confirmed']}",
            ]
        )
