"""What this repository reproduces: one row per claim of the paper.

Each row names a claim, its paper section, the paper's statement with
its number, a source, a reader and a band.  The reader takes what the
source names: ``experiment(name, **params)`` the ``ExperimentResult.metrics``
of a registered experiment at the golden files' seed (one session run,
shared with ``test_golden.py``), ``DATASET`` the shared synthetic dataset
of ``conftest.py``, ``LAB`` nothing (it builds a paper topology itself:
the §6 lab findings and the ablations).  The band is a :class:`Range` or
the expected value.  The synthetic Internet has ~100 ASes, not 62 681:
where its number differs from the paper's, the band is what the
reproduction holds.  ``pytest tests/test_paper_claims.py -v`` prints one
line per claim.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import cache, partial
from typing import Any, Callable

import pytest

from repro.attacks.manipulation import RouteManipulationAttack
from repro.attacks.rtbh import RtbhAttack
from repro.attacks.scenario import (
    ScenarioRoles,
    build_figure2_topology,
    build_figure7_topology,
    build_figure8b_topology,
    build_figure9_ixp,
)
from repro.attacks.steering import LocalPrefSteeringAttack, PrependSteeringAttack
from repro.bgp.attributes import PathAttributes
from repro.bgp.community import Community, CommunitySet
from repro.bgp.prefix import Prefix
from repro.collectors.platform import CollectorDeployment
from repro.datasets.synthetic import DatasetParameters, SyntheticDatasetBuilder
from repro.exceptions import ReproError
from repro.measurement.filtering import infer_filtering
from repro.measurement.propagation import (
    observed_as_summary,
    propagation_distance_ecdf,
    relative_distance_by_path_length,
    top_values,
    transit_forwarders,
)
from repro.measurement.timeseries import growth_table
from repro.routing.engine import BgpSimulator
from repro.measurement.usage import (
    communities_per_update_ecdf,
    dataset_overview,
    overall_update_community_fraction,
    updates_with_communities_by_collector,
)
from repro.policy.actions import BlackholeAction
from repro.policy.community_policy import (
    CommunityPropagationPolicy,
    ForwardAllPolicy,
    StripAllPolicy,
)
from repro.policy.filters import InboundFilterChain, IrrDatabase
from repro.policy.services import CommunityServiceCatalog, ServiceDefinition
from repro.policy.vendor import CISCO_PROFILE, JUNIPER_PROFILE
from repro.topology.generator import PolicyMix, TopologyGenerator, TopologyParameters
from repro.topology.relationships import Relationship

#: The golden files' seed: every experiment row reads the run they pin.
SEED = 7
DATASET = "dataset"
LAB = "lab"
VICTIM = Prefix.from_string("203.0.113.0/24")


def experiment(name: str, **params: Any) -> tuple[str, dict]:
    """Source of a row that reads ``name``'s metrics at :data:`SEED`."""
    return name, params


@dataclass(frozen=True)
class Range:
    """A closed band ``low <= value <= high``."""

    low: float = -math.inf
    high: float = math.inf


@dataclass(frozen=True)
class Claim:
    id: str
    section: str
    paper: str
    source: Any
    read: Callable[..., Any]
    band: Any


# ------------------------------------------------------------ dataset readers
def _collector_spread(d) -> float:
    per_platform = updates_with_communities_by_collector(d.archive)
    fractions = [f for collectors in per_platform.values() for f in collectors.values()]
    return max(fractions) - min(fractions)


def _table1(d):
    return dataset_overview(d.archive, d.topology)[-1]


def _table2(d):
    return observed_as_summary(d.archive)[-1]


def _ratio(total: Callable, numerator: str, denominator: str) -> Callable:
    """Reader of ``numerator / denominator`` in the Total row that ``total`` returns."""

    def read(d) -> float:
        row = total(d)
        return getattr(row, numerator) / getattr(row, denominator)

    return read


def _growth_is_monotone(d) -> bool:
    rows = [astuple(snapshot) for snapshot in growth_table(d.archive)]  # the year and four series
    return all(a < b for earlier, later in zip(rows, rows[1:]) for a, b in zip(earlier, later))


def _final_year_growth(d) -> float:
    series = growth_table(d.archive)
    return series[-1].unique_communities / series[-2].unique_communities - 1.0


def _blackholes_stay_closer(d) -> float:
    """Share of blackhole communities within four hops, minus that of all communities."""
    distances = propagation_distance_ecdf(d.archive, set(d.blackhole_list.communities()))
    return distances.blackhole_communities.at(4) - distances.all_communities.at(4)


def _relative_distance(d):
    """Figure 5(b)'s ECDFs, shortest AS path first."""
    per_length = d.archive.derived(relative_distance_by_path_length)
    return [per_length[length] for length in sorted(per_length)]


def _median_drop_on_long_paths(d) -> float:
    """Median relative distance on the shortest AS paths minus that on the longest."""
    shortest, *_, longest = _relative_distance(d)
    return shortest.quantile(0.5) - longest.quantile(0.5)


def _filtering(d):
    return d.archive.derived(infer_filtering)


#: Figure 5(c)'s top ten, one function so the archive memoises it.
_top_ten = partial(top_values, n=10)


def _top_values(d):
    return d.archive.derived(_top_ten)


def _mixed_edge_share(d) -> float:
    edges = _filtering(d).edges.values()
    return sum(1 for e in edges if e.forwarded > 0 and e.filtered > 0) / len(edges)


def _forwarding_from_forward_all(d) -> float:
    """Forwarding-evidence edges led by a forward-all AS, of those led by forward-all or strip-all."""
    upstreams = [e.edge[0] for e in _filtering(d).edges.values() if e.forwarded > 0]
    forward_all = sum(1 for asn in upstreams if asn in d.ground_truth.forward_all_ases())
    strip_all = sum(1 for asn in upstreams if asn in d.ground_truth.strip_all_ases())
    return forward_all / max(1, forward_all + strip_all)


def _strip_all_forwarder_share(d) -> float:
    forwarders = transit_forwarders(d.archive).transit_forwarders
    return len(forwarders & d.ground_truth.strip_all_ases()) / max(1, len(forwarders))


def _conservative_is_a_lower_bound(d) -> bool:
    """The conservative tagger attribution's distance ECDF dominates the optimistic one."""
    conservative = propagation_distance_ecdf(d.archive, set()).all_communities
    optimistic = propagation_distance_ecdf(d.archive, set(), conservative=False).all_communities
    return (
        len(conservative) == len(optimistic)
        and conservative.quantile(0.5) <= optimistic.quantile(0.5)
        and all(conservative.at(hops) >= optimistic.at(hops) - 1e-9 for hops in range(12))
    )


# ---------------------------------------------------------------- lab readers
@cache
def _policy_mix(forward_all: float) -> tuple[float, float]:
    """(transit-forwarder share, share travelling > 2 hops) at one forward-all share."""
    rest = 1.0 - forward_all
    mix = PolicyMix(forward_all, strip_own=rest * 0.3, selective=rest * 0.3, strip_all=rest * 0.4)
    topology = TopologyGenerator(
        TopologyParameters(tier1_count=3, transit_count=15, stub_count=40, seed=5, policy_mix=mix)
    ).generate()
    deployment = CollectorDeployment.default_deployment(topology, seed=5)
    parameters = DatasetParameters(seed=5, coverage=0.5)
    archive = SyntheticDatasetBuilder(topology, deployment, parameters).build().archive
    distances = propagation_distance_ecdf(archive, set()).all_communities
    return transit_forwarders(archive).forwarder_fraction, distances.survival(2)


def _rises_with_forward_all(index: int) -> bool:
    low, mid, high = (_policy_mix(share)[index] for share in (0.05, 0.35, 0.80))
    return low < mid < high


def _largest_accepted(check: Callable[[int], object], counts) -> int | None:
    """The last of the increasing ``counts`` that ``check`` accepts before one raises."""
    accepted = None
    for count in counts:
        try:
            check(count)
        except ReproError:
            break
        accepted = count
    return accepted


def _update_capacity() -> int | None:
    def build(count: int) -> PathAttributes:
        return PathAttributes(communities=CommunitySet(map(Community.from_int, range(count))))

    return _largest_accepted(build, (16_383, 16_384, 16_385))


def _nanog_order_blackholes_hijack() -> bool:
    """On the core: Figure 7's AS3 validates origins against an IRR that registers
    :data:`VICTIM` to AS1, and its ``InboundFilterChain`` either matches the blackhole
    community before validation (the NANOG order) or validates first.  AS2 announces a
    /32 inside the victim prefix tagged 3:666 + BLACKHOLE.  The NANOG order selects and
    blackholes the hijack; validating first rejects it with the IRR reason, while the
    owner's own tagged /32 is still blackholed."""
    hijacked, owned = VICTIM.subprefix(32, 66), VICTIM.subprefix(32, 1)
    tags = CommunitySet.of("3:666", "65535:666")

    def as3(blackhole_before_validation: bool):
        simulator = BgpSimulator(build_figure7_topology())
        irr = IrrDatabase()
        irr.register(VICTIM, 1)
        simulator.router(3).inbound_filters = InboundFilterChain(
            irr=irr, validate_origin=True, blackhole_before_validation=blackhole_before_validation
        )
        simulator.announce(1, VICTIM)
        simulator.announce(2, hijacked, tags)
        simulator.announce(1, owned, tags)
        return simulator.router(3)

    misordered, validating = as3(True), as3(False)
    selected = misordered.loc_rib.best(hijacked)
    refused = validating.adj_rib_in[2].get(hijacked)
    return (
        selected is not None and selected.learned_from == 2 and selected.blackholed
        and validating.loc_rib.best(hijacked) is None
        and refused.rejected
        and refused.rejection_reason == "origin AS2 does not match registered origin(s) AS1"
        and validating.loc_rib.best(owned).blackholed
    )


def _prepend_steering_through(as4_policy: CommunityPropagationPolicy) -> bool:
    """Figure 2 prepend steering by AS2 via AS3's 3:33, on the core, with ``as4_policy``
    at AS4: the one AS between the attacker and the community target."""
    topology = build_figure2_topology()
    topology.get_as(4).propagation_policy = as4_policy
    roles = ScenarioRoles(attacker_asn=2, attackee_asn=1, community_target_asn=3)
    attack = PrependSteeringAttack(topology, roles, Prefix.from_string("198.51.100.0/24"), observer_asn=6)
    return attack.run().succeeded


def _target_drops_traffic(raise_local_pref: bool) -> bool:
    """Figure 7 RTBH by AS2 via AS3's 3:666, with or without the service's local-pref raise."""
    topology = build_figure7_topology()
    if not raise_local_pref:
        service = ServiceDefinition(
            Community(3, 666), BlackholeAction(raise_local_pref_to=None), "RTBH", customers_only=False
        )
        topology.get_as(3).services = CommunityServiceCatalog(3, [service])
    roles = ScenarioRoles(attacker_asn=2, attackee_asn=1, community_target_asn=3)
    attack = RtbhAttack(topology, roles, VICTIM, use_hijack=False, blackhole_community=Community(3, 666))
    return 3 in attack.run(vantage_points=[4]).blackholed_at


def _local_pref_steering_over_peer_session() -> bool:
    topology = build_figure8b_topology()
    topology.adjacency[1][2] = Relationship.PEER
    topology.adjacency[2][1] = Relationship.PEER
    roles = ScenarioRoles(attacker_asn=2, attackee_asn=5, community_target_asn=1)
    return LocalPrefSteeringAttack(topology, roles, Prefix.from_string("198.18.0.0/24")).run().succeeded


def _manipulation_with_announce_first() -> bool:
    topology, ixp = build_figure9_ixp()
    ixp.route_server_config.suppress_before_redistribute = False
    roles = ScenarioRoles(attacker_asn=2, attackee_asn=1, community_target_asn=ixp.route_server_asn)
    return RouteManipulationAttack(topology, ixp, roles, VICTIM, victim_member_asn=4).run().succeeded


# --------------------------------------------------------- experiment readers
def _difficulty(scenario: str, hijack: bool) -> Callable[[dict], str]:
    def read(m: dict) -> str:
        [row] = [r for r in m["rows"] if r["scenario"] == scenario and r["hijack"] == hijack]
        return row["difficulty"]

    return read


def _check(m: dict, platform: str) -> dict:
    [check] = [c for c in m["checks"] if c["platform"] == platform]
    return check


def _prepend_steering(m: dict) -> tuple[bool, bool, bool]:
    """Success, and whether observer AS6's path crossed target AS3 before and avoids it after."""
    variant = m["variants"]["prepend"]
    details = variant["details"]
    return variant["succeeded"], details["went_through_target_before"], details["avoids_target_after"]


def _local_pref_steering(m: dict) -> tuple[bool, int, int]:
    """Success, and AS1's ingress neighbour for the victim before and after."""
    variant = m["variants"]["local-pref"]
    return variant["succeeded"], variant["details"]["ingress_before"], variant["details"]["ingress_after"]


CLAIMS = (
    # ------------------------------------------------------ §4 measurement
    Claim("fig4a-updates-tagged", "Fig. 4a", "more than 75 % of announcements carry a community",
          DATASET, lambda d: overall_update_community_fraction(d.archive), Range(0.5, 1.0)),
    Claim("fig4a-collector-spread", "Fig. 4a", "collectors differ substantially in that share",
          DATASET, _collector_spread, Range(0.05, 1.0)),
    Claim("fig4b-more-than-two", "Fig. 4b", "51 % of updates carry more than two communities",
          DATASET, lambda d: communities_per_update_ecdf(d.archive).fraction_with_more_than(2),
          Range(0.05, 1.0)),
    Claim("fig4b-more-than-fifty", "Fig. 4b", "0.06 % of updates carry more than 50 communities",
          DATASET, lambda d: communities_per_update_ecdf(d.archive).fraction_with_more_than(50),
          Range(0.0, 0.005)),
    Claim("fig4b-several-ases", "Fig. 4b", "41 % of tagged updates name more than one AS",
          DATASET, lambda d: communities_per_update_ecdf(d.archive).fraction_with_multiple_asns(),
          Range(0.05, 1.0)),
    Claim("table1-ipv4-over-ipv6", "Table 1", "967 499 IPv4 vs 84 953 IPv6 prefixes (11.4x)",
          DATASET, _ratio(_table1, "ipv4_prefixes", "ipv6_prefixes"), Range(5.0, 20.0)),
    Claim("table1-stub-over-transit", "Table 1", "47 103 stub vs 15 578 transit ASes (3.0x)",
          DATASET, _ratio(_table1, "stub_ases", "transit_ases"), Range(2.0, 4.0)),
    Claim("table2-not-collector-peers", "Table 2", "5 630 of 5 659 community ASes are no collector peer",
          DATASET, _ratio(_table2, "without_collector_peer", "total"), Range(0.5, 1.0)),
    Claim("table2-on-over-off-path", "Table 2", "3 958 on-path vs 2 154 off-path ASes (1.8x)",
          DATASET, _ratio(_table2, "on_path", "off_path"), Range(1.01, math.inf)),
    Claim("table2-private-asns", "Table 2", "1 721 of 2 154 off-path ASes are not private ASNs (80 %)",
          DATASET, _ratio(_table2, "off_path_without_private", "off_path"), Range(0.6, 0.95)),
    Claim("fig3-monotone", "Fig. 3", "all four series grow every year from 2010 to 2018",
          DATASET, _growth_is_monotone, True),
    Claim("fig3-final-year", "Fig. 3", "unique communities grew ~18 % over the final year",
          DATASET, _final_year_growth, Range(0.12, 0.25)),
    Claim("fig5a-beyond-four-hops", "Fig. 5a", "almost 50 % of communities travel more than four AS hops",
          DATASET, lambda d: propagation_distance_ecdf(d.archive, set()).all_communities.survival(4),
          Range(0.1, 0.6)),
    Claim("fig5a-blackholes-stay-closer", "Fig. 5a", "~80 % of blackhole tags stay within four hops",
          DATASET, _blackholes_stay_closer, Range(0.05, 1.0)),
    Claim("fig5b-over-half-the-path", "Fig. 5b", "many communities travel over 50 % of the AS path",
          DATASET, lambda d: min(ecdf.survival(0.5) for ecdf in _relative_distance(d)[:3]),
          Range(0.2, 1.0)),
    Claim("fig5b-long-paths-travel-less", "Fig. 5b", "the relative distance falls on longer paths",
          DATASET, _median_drop_on_long_paths, Range(0.05, 1.0)),
    Claim("fig5c-666-off-path", "Fig. 5c", "the blackhole value 666 is a top-10 off-path value",
          DATASET, lambda d: 666 in _top_values(d).off_path_values(), True),
    Claim("fig5c-666-not-on-path", "Fig. 5c", "666 is no top-10 on-path value: targets strip it",
          DATASET, lambda d: 666 in _top_values(d).on_path_values(), False),
    Claim("fig5c-round-values", "Fig. 5c", "the other top values are round (1, 100, 200, 1000, ...)",
          DATASET, lambda d: len({1, 2, 10, 100, 200, 300, 500, 1000, 2000, 3000}
                                 & set(_top_values(d).on_path_values())), Range(3, 10)),
    Claim("fig5c-small-shares", "Fig. 5c", "no single value contributes much",
          DATASET, lambda d: max(s for _v, s in _top_values(d).on_path + _top_values(d).off_path),
          Range(0.0, 0.5)),
    Claim("fig6-forwarding", "Fig. 6", "~4 % of 400 K AS edges show forwarding indications",
          DATASET, lambda d: _filtering(d).forwarding_fraction(), Range(0.01, 0.5)),
    Claim("fig6-filtering", "Fig. 6", "~10 % of AS edges show filtering indications",
          DATASET, lambda d: _filtering(d).filtering_fraction(), Range(0.01, 0.5)),
    Claim("fig6-filtering-over-forwarding", "Fig. 6", "filtering beats forwarding (10 % vs 4 %, 2.5x)",
          DATASET, lambda d: _filtering(d).filtering_fraction() / _filtering(d).forwarding_fraction(),
          Range(1.0, 5.0)),
    Claim("fig6-mixed-edges", "Fig. 6", "many edges show both indications (the mixed middle)",
          DATASET, _mixed_edge_share, Range(0.05, 1.0)),
    Claim("fig6-ground-truth", "Fig. 6", "forwarding evidence comes from forwarding ASes (ground truth)",
          DATASET, _forwarding_from_forward_all, Range(0.6, 1.0)),
    Claim("sec43-forwarders", "§4.3", "2.2 K of 15.5 K transit ASes (14 %) forward foreign communities",
          DATASET, lambda d: transit_forwarders(d.archive).forwarder_fraction, Range(0.05, 0.75)),
    Claim("sec43-forwarders-not-strip-all", "§4.3", "forwarders are not strip-all ASes (ground truth)",
          DATASET, _strip_all_forwarder_share, Range(0.0, 0.2)),
    Claim("ablation-conservative-attribution", "§4.3", "conservative attribution lower-bounds distance",
          DATASET, _conservative_is_a_lower_bound, True),
    Claim("ablation-policy-mix-forwarders", "§4.4", "forwarders rise with forward-all (5/35/80 %)",
          LAB, lambda: _rises_with_forward_all(0), True),
    Claim("ablation-policy-mix-distance", "§4.4", "communities travel farther as forward-all grows",
          LAB, lambda: _rises_with_forward_all(1), True),
    # ------------------------------------------------------------ Table 3
    Claim("table3-blackholing", "Table 3", "blackholing without a hijack: easy",
          experiment("feasibility"), _difficulty("Blackholing", False), "easy"),
    Claim("table3-blackholing-hijack", "Table 3", "blackholing with a hijack: easy",
          experiment("feasibility"), _difficulty("Blackholing", True), "easy"),
    Claim("table3-local-pref", "Table 3", "local-pref steering without a hijack: hard",
          experiment("feasibility"), _difficulty("Traffic steering (local pref)", False), "hard"),
    Claim("table3-local-pref-hijack", "Table 3", "local-pref steering with a hijack: hard",
          experiment("feasibility"), _difficulty("Traffic steering (local pref)", True), "hard"),
    Claim("table3-prepend", "Table 3", "prepend steering without a hijack: hard",
          experiment("feasibility"), _difficulty("Traffic steering (path prepending)", False), "hard"),
    Claim("table3-prepend-hijack", "Table 3", "prepend steering with a hijack: hard",
          experiment("feasibility"), _difficulty("Traffic steering (path prepending)", True), "hard"),
    Claim("table3-manipulation", "Table 3", "route manipulation without a hijack: medium",
          experiment("feasibility"), _difficulty("Route manipulation", False), "medium"),
    Claim("table3-manipulation-hijack", "Table 3", "route manipulation with a hijack: medium",
          experiment("feasibility"), _difficulty("Route manipulation", True), "medium"),
    Claim("table3-all-succeed", "Table 3", "all 8 scenario variants succeed",
          experiment("feasibility"), lambda m: m["succeeded_count"], 8),
    # ------------------------------------------------------- §5 conditions
    Claim("sec54-every-hop-forwards", "§5.4", "an attack works only if every AS between the attacker "
          "and the community target forwards the community",
          LAB, lambda: (_prepend_steering_through(ForwardAllPolicy()),
                        _prepend_steering_through(StripAllPolicy())), (True, False)),
    # --------------------------------------------------------------- §6 lab
    Claim("sec6-juniper-sends-by-default", "§6.1", "Junos propagates communities by default",
          LAB, lambda: JUNIPER_PROFILE.effective_send_communities(False), True),
    Claim("sec6-cisco-needs-send-community", "§6.1", "Cisco propagates them only with send-community",
          LAB, lambda: (CISCO_PROFILE.effective_send_communities(False),
                        CISCO_PROFILE.effective_send_communities(True)) == (False, True), True),
    Claim("sec6-16384-per-update", "§6.1", "one UPDATE carries up to 2^16 / 4 = 16 384 communities",
          LAB, _update_capacity, 16_384),
    Claim("sec6-cisco-32-per-statement", "§6.1", "a Cisco statement adds at most 32 communities",
          LAB, lambda: _largest_accepted(CISCO_PROFILE.check_added_communities, range(1, 65)), 32),
    Claim("sec6-nanog-route-map-order", "§6.3", "the NANOG RTBH rule order (blackhole match before "
          "validation) blackholes a hijacked /32 on the simulated core; validating first rejects it",
          LAB, _nanog_order_blackholes_hijack, True),
    Claim("ablation-rtbh-precedence", "§6.2", "RTBH's local-pref raise makes the longer tagged path win",
          LAB, lambda: _target_drops_traffic(True) and not _target_drops_traffic(False), True),
    # ------------------------------------------------------- §7 in the wild
    Claim("sec72-peering-over-research", "§7.2", "PEERING sees 112 forwarders, the research network 7",
          experiment("propagation-check"), lambda m: _check(m, "PEERING")["forwarding_count"]
          / _check(m, "research-network")["forwarding_count"], Range(1.5, math.inf)),
    Claim("sec72-research-forwarders", "§7.2", "7 transit providers forward the research network's tag",
          experiment("propagation-check"), lambda m: _check(m, "research-network")["forwarding_count"],
          Range(1, math.inf)),
    Claim("sec72-peering-coverage", "§7.2", "112 of 434 on-path ASes (26 %) forward PEERING's tag",
          experiment("propagation-check"), lambda m: _check(m, "PEERING")["coverage_fraction"],
          Range(0.1, 1.0)),
    Claim("sec73-rtbh-without-hijack", "§7.3", "the tagged /24 is null-routed at the target",
          experiment("rtbh-wild"), lambda m: (m["succeeded"], m["target_next_hop"]), (True, "null0")),
    Claim("sec73-probes-lose-reachability", "§7.3", "the prefix becomes unreachable from Atlas probes",
          experiment("rtbh-wild"), lambda m: m["probes_lost"] / m["probes_reachable_before"],
          Range(0.1, 1.0)),
    Claim("sec73-rtbh-with-hijack", "§7.3", "the hijack variant blackholes the hijacked prefix",
          experiment("rtbh-wild", hijack=True), lambda m: (m["succeeded"], m["hijack"]), (True, True)),
    Claim("sec73-irr-hurdle", "§7.3", "the hijack variant first needs an IRR update",
          experiment("rtbh-wild", hijack=True), lambda m: m["irr_updated"], True),
    Claim("sec74-prepend", "§7.4", "the prepend community moves best paths off the target",
          experiment("steering"), _prepend_steering, (True, True, True)),
    Claim("sec74-local-pref", "§7.4", "the local-pref community moves the target's ingress",
          experiment("steering"), _local_pref_steering, (True, 2, 4)),
    Claim("sec74-customer-only-gate", "§7.4", "providers act only on customers' communities",
          LAB, _local_pref_steering_over_peer_session, False),
    Claim("sec75-manipulation", "§7.5", "conflicting announce/suppress communities drop the route",
          experiment("route-manipulation"),
          lambda m: (m["succeeded"], m["route_before"], m["route_after"], m["route_withdrawn"]),
          (True, True, False, True)),
    Claim("sec75-evaluation-order-ablation", "§7.5", "it needs 'do not announce' evaluated first",
          LAB, _manipulation_with_announce_first, False),
    Claim("sec76-effective-communities", "§7.6", "25 of 307 swept communities (8.1 %) blackhole a probe",
          experiment("blackhole-sweep"), lambda m: m["effective_fraction"], Range(0.05, 0.95)),
    Claim("sec76-affected-probes", "§7.6", "48 of 200 probes (24 %) lose reachability",
          experiment("blackhole-sweep"), lambda m: m["affected_probe_fraction"], Range(0.05, 0.95)),
    Claim("sec76-confirmation", "§7.6", "a re-run two days later matches exactly",
          experiment("blackhole-sweep"), lambda m: m["confirmed"], True),
    Claim("sec76-beyond-direct-peers", "§7.6", "most affected pairs lack the target as a direct peer",
          experiment("blackhole-sweep"), lambda m: 1 - m["direct_peer_pairs"]
          / (m["direct_peer_pairs"] + m["multi_hop_pairs"] + m["offpath_pairs"]), Range(0.5, 1.0)),
)


@pytest.mark.parametrize("claim", CLAIMS, ids=[claim.id for claim in CLAIMS])
def test_paper_claim(claim, dataset, experiment_result):
    if claim.source == DATASET:
        value = claim.read(dataset)
    elif claim.source == LAB:
        value = claim.read()
    else:
        name, params = claim.source
        value = claim.read(experiment_result(name, SEED, **params).metrics)
    if isinstance(claim.band, Range):
        held = claim.band.low <= value <= claim.band.high
    else:
        held = value == claim.band
    assert held, (
        f"{claim.section} {claim.id}: paper: {claim.paper}; reproduced {value!r}, band {claim.band}"
    )
