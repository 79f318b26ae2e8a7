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
from repro.bgp.prefix import Prefix
from repro.dataplane.forwarding import DataPlane
from repro.datasets.giotsas import BlackholeCommunityList
from repro.experiments import Experiment, ExperimentContext, ExperimentResult, register
from repro.probing.atlas import AtlasPlatform, ProbeMeasurement
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


@dataclass
class SweepResult:
    """Aggregate results of the full sweep."""

    outcomes: list[CommunitySweepOutcome] = field(default_factory=list)
    probe_count: int = 0
    confirmed: bool = False

    def effective_communities(self) -> list[CommunitySweepOutcome]:
        """Outcomes where the community induced blackholing somewhere."""
        return [o for o in self.outcomes if o.induced_blackholing]

    def effective_fraction(self) -> float:
        """Fraction of swept communities that induced blackholing (8.1 % in the paper)."""
        if not self.outcomes:
            return 0.0
        return len(self.effective_communities()) / len(self.outcomes)

    def affected_probes(self) -> set[int]:
        """Vantage points affected by at least one community."""
        affected: set[int] = set()
        for outcome in self.effective_communities():
            affected |= outcome.probes_lost
        return affected

    def affected_probe_fraction(self) -> float:
        """Fraction of vantage points affected by at least one community (24 % in the paper)."""
        if not self.probe_count:
            return 0.0
        return len(self.affected_probes()) / self.probe_count

    def direct_peer_pairs(self) -> int:
        """Community/path pairs where the target is the injection point's direct peer."""
        return sum(1 for o in self.effective_communities() if o.target_hops == 1)

    def multi_hop_pairs(self) -> int:
        """Community/path pairs where the target is two or more hops away."""
        return sum(
            1 for o in self.effective_communities() if o.target_hops is not None and o.target_hops >= 2
        )

    def offpath_pairs(self) -> int:
        """Pairs where the target AS is not on the affected forwarding paths at all."""
        return sum(1 for o in self.effective_communities() if o.target_hops is None)


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

    def _baseline(self) -> tuple[BgpSimulator, DataPlane, ProbeMeasurement]:
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
        after = self.atlas.measure(dataplane, self.experiment_prefix, with_traceroute=True)
        lost, _gained = self.atlas.compare(before, after)

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
            probes_before=len(before.responsive_probes()),
            probes_after=len(after.responsive_probes()),
            probes_lost=lost,
            target_hops=target_hops,
        )

    def _probe_asn(self, probe_id: int) -> int:
        for vantage_point in self.atlas.vantage_points:
            if vantage_point.probe_id == probe_id:
                return vantage_point.asn
        raise KeyError(f"unknown probe id {probe_id}")

    def run(self, confirm: bool = True) -> SweepResult:
        """Sweep every verified community (optionally confirming with a second pass)."""
        records = list(self.blackhole_list.verified())
        result = SweepResult(probe_count=len(self.atlas.vantage_points))
        baseline = self._baseline()
        for record in records:
            result.outcomes.append(self._sweep_one(record.community, record.target_asn, baseline))
        if self.include_well_known:
            result.outcomes.append(self._sweep_one(BLACKHOLE, 0, baseline))
        if confirm:
            second = [
                self._sweep_one(record.community, record.target_asn, baseline)
                for record in records
            ]
            # Every field of every record must agree (the well-known
            # BLACKHOLE run, last in the first pass, is not repeated).
            result.confirmed = result.outcomes[: len(records)] == second
        return result


@register("blackhole-sweep")
class BlackholeSweepExperiment(Experiment):
    """The Section 7.6 sweep over the verified blackhole community list."""

    description = "automated sweep of the verified blackhole community list"
    paper_section = "Section 7.6"
    default_topology = {"tier1_count": 3, "transit_count": 25, "stub_count": 80}
    default_platforms = ("peering", "atlas")
    default_params = {
        "probes": 60,
        "confirm": True,
        "include_well_known": True,
        "inferred_count": 10,
    }
    optional_params = ("upstream_count",)

    def execute(self, ctx: ExperimentContext) -> dict:
        from repro.datasets.giotsas import build_blackhole_list

        blackhole_list = build_blackhole_list(
            ctx.require_topology(),
            inferred_count=self.int_param("inferred_count", 0, minimum=0),
            seed=ctx.spec.seed,
        )
        sweep = BlackholeSweep(
            ctx.require_topology(),
            ctx.platform("peering"),
            ctx.platform("atlas"),
            blackhole_list,
            include_well_known=self.bool_param("include_well_known"),
        )
        outcome = sweep.run(confirm=self.bool_param("confirm"))
        ctx.scratch["sweep"] = outcome
        effective = outcome.effective_communities()
        return {
            "communities_swept": len(outcome.outcomes),
            "effective_communities": len(effective),
            "effective_fraction": outcome.effective_fraction(),
            "affected_probes": len(outcome.affected_probes()),
            "probe_count": outcome.probe_count,
            "affected_probe_fraction": outcome.affected_probe_fraction(),
            "confirmed": outcome.confirmed,
            "direct_peer_pairs": outcome.direct_peer_pairs(),
            "multi_hop_pairs": outcome.multi_hop_pairs(),
            "offpath_pairs": outcome.offpath_pairs(),
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
