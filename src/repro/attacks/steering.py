"""Traffic steering attacks (Section 5.2, Section 7.4).

Two flavours, both triggered remotely through the community target's
documented services:

* **Path prepending** (Figure 2 / Figure 8a): the attacker tags the
  attackee's prefix with the target's prepend community (on its own
  sessions, or by hijacking), so the target prepends its ASN when
  exporting and paths through the target become less attractive.
* **Local preference** (Figure 8b): the attacker tags the prefix with
  the target's "backup" community only on the direct session, forcing
  the target to prefer a different ingress link for all that traffic.
"""

from __future__ import annotations

from repro.attacks.scenario import (
    FIGURE2_OBSERVER_ASN,
    FIGURE2_ROLES,
    FIGURE2_VICTIM,
    FIGURE8B_ROLES,
    FIGURE8B_VICTIM,
    ScenarioRoles,
    build_figure2_topology,
    build_figure8b_topology,
)
from repro.bgp.community import CommunitySet
from repro.bgp.prefix import Prefix
from repro.exceptions import AttackError
from repro.experiments import Experiment, ExperimentContext, ExperimentResult, Param, register
from repro.policy.actions import ActionType
from repro.routing.engine import BgpSimulator
from repro.topology.topology import Topology


def _record(
    succeeded: bool,
    description: str,
    path_before: list[int] | None,
    path_after: list[int] | None,
    details: dict,
    local_pref_before: int | None = None,
    local_pref_after: int | None = None,
) -> dict:
    """One steering run as the ``steering`` experiment stores it (both variants share its keys)."""
    return {
        "succeeded": succeeded,
        "description": description,
        "path_before": path_before,
        "path_after": path_after,
        "path_changed": path_before != path_after,
        "local_pref_before": local_pref_before,
        "local_pref_after": local_pref_after,
        "details": details,
    }


class PrependSteeringAttack:
    """Steer an observer's traffic away from the community target via prepending."""

    def __init__(
        self,
        topology: Topology,
        roles: ScenarioRoles,
        victim_prefix: Prefix,
        observer_asn: int,
        use_hijack: bool,
    ):
        self.topology = topology
        self.roles = roles
        self.victim_prefix = victim_prefix
        self.observer_asn = observer_asn
        self.use_hijack = use_hijack
        target = topology.get_as(roles.community_target_asn)
        if target.services is None:
            raise AttackError(f"AS{roles.community_target_asn} offers no community services")
        prepends = target.services.services_of_type(ActionType.PREPEND)
        if not prepends:
            raise AttackError(f"AS{roles.community_target_asn} offers no prepend community")
        self.prepend_community = prepends[-1].community  # largest prepend count

    @classmethod
    def figure2(cls, hijack: bool = False) -> PrependSteeringAttack:
        """AS2's attack via AS3's prepend community on a fresh Figure 2 topology, seen from AS6."""
        return cls(
            build_figure2_topology(),
            FIGURE2_ROLES,
            FIGURE2_VICTIM,
            observer_asn=FIGURE2_OBSERVER_ASN,
            use_hijack=hijack,
        )

    def run(self) -> dict:
        """Execute the attack and compare the observer's best path before and after."""
        roles = self.roles
        baseline = BgpSimulator(self.topology)
        baseline.announce(roles.attackee_asn, self.victim_prefix)
        path_before = baseline.observed_path(self.observer_asn, self.victim_prefix)

        attacked = BgpSimulator(self.topology)
        communities = CommunitySet.of(self.prepend_community)
        if self.use_hijack:
            # Victim announcement and tagged hijack converge in one batched pass.
            attacked.announce_many(
                [
                    (roles.attackee_asn, self.victim_prefix),
                    (roles.attacker_asn, self.victim_prefix, communities),
                ]
            )
        else:
            # The on-path attacker adds the community on every session when
            # forwarding the attackee's route.
            attacker_router = attacked.router(roles.attacker_asn)
            for neighbor in attacker_router.neighbors():
                attacker_router.export_community_additions[neighbor] = communities
            attacked.announce(roles.attackee_asn, self.victim_prefix)
        path_after = attacked.observed_path(self.observer_asn, self.victim_prefix)

        target = roles.community_target_asn
        went_through_target_before = path_before is not None and target in path_before
        avoids_target_after = path_after is not None and target not in path_after
        prepended_after = path_after is not None and path_after.count(target) > 1
        return _record(
            succeeded=(went_through_target_before and avoids_target_after) or prepended_after,
            description=(
                f"prepend steering by AS{roles.attacker_asn}: observer AS{self.observer_asn} path to "
                f"{self.victim_prefix} manipulated via community {self.prepend_community}"
            ),
            path_before=path_before,
            path_after=path_after,
            details={
                "prepend_community": str(self.prepend_community),
                "hijack": self.use_hijack,
                "went_through_target_before": went_through_target_before,
                "avoids_target_after": avoids_target_after,
                "prepending_visible": prepended_after,
            },
        )


class LocalPrefSteeringAttack:
    """Force the community target onto a backup ingress via its local-pref community."""

    def __init__(
        self,
        topology: Topology,
        roles: ScenarioRoles,
        victim_prefix: Prefix,
    ):
        self.topology = topology
        self.roles = roles
        self.victim_prefix = victim_prefix
        target = topology.get_as(roles.community_target_asn)
        if target.services is None:
            raise AttackError(f"AS{roles.community_target_asn} offers no community services")
        local_prefs = target.services.services_of_type(ActionType.LOCAL_PREF)
        if not local_prefs:
            raise AttackError(f"AS{roles.community_target_asn} offers no local-pref community")
        self.backup_community = local_prefs[0].community

    @classmethod
    def figure8b(cls) -> LocalPrefSteeringAttack:
        """AS2's attack via AS1's backup community on a fresh Figure 8(b) topology."""
        return cls(build_figure8b_topology(), FIGURE8B_ROLES, FIGURE8B_VICTIM)

    def run(self) -> dict:
        """Execute the attack; success means the target's preferred ingress moved."""
        roles = self.roles
        baseline = BgpSimulator(self.topology)
        baseline.announce(roles.attackee_asn, self.victim_prefix)
        best_before = baseline.best_route(roles.community_target_asn, self.victim_prefix)
        path_before = baseline.observed_path(roles.community_target_asn, self.victim_prefix)
        local_pref_before = (
            best_before.attributes.effective_local_pref() if best_before is not None else None
        )

        attacked = BgpSimulator(self.topology)
        # The attacker attaches the community only on its direct session
        # to the community target.
        attacker_router = attacked.router(roles.attacker_asn)
        attacker_router.export_community_additions[roles.community_target_asn] = CommunitySet.of(
            self.backup_community
        )
        attacked.announce(roles.attackee_asn, self.victim_prefix)
        best_after = attacked.best_route(roles.community_target_asn, self.victim_prefix)
        path_after = attacked.observed_path(roles.community_target_asn, self.victim_prefix)
        local_pref_after = (
            best_after.attributes.effective_local_pref() if best_after is not None else None
        )

        ingress_changed = (
            best_before is not None
            and best_after is not None
            and best_before.learned_from != best_after.learned_from
        )
        tagged_route_demoted = False
        if best_after is not None and best_after.learned_from != roles.attacker_asn:
            # The direct (tagged) session lost; check the tagged route shows the
            # lowered preference in the target's looking glass.
            candidates = attacked.router(roles.community_target_asn).loc_rib.candidates(
                self.victim_prefix
            )
            for candidate in candidates:
                if candidate.learned_from == roles.attacker_asn:
                    tagged_route_demoted = (
                        candidate.attributes.effective_local_pref()
                        < (local_pref_before or 100)
                    )
        return _record(
            succeeded=ingress_changed or tagged_route_demoted,
            description=(
                f"local-pref steering by AS{roles.attacker_asn} against AS{roles.community_target_asn}"
                f" using community {self.backup_community}"
            ),
            path_before=path_before,
            path_after=path_after,
            details={
                "backup_community": str(self.backup_community),
                "ingress_before": best_before.learned_from if best_before else None,
                "ingress_after": best_after.learned_from if best_after else None,
                "tagged_route_demoted": tagged_route_demoted,
            },
            local_pref_before=local_pref_before,
            local_pref_after=local_pref_after,
        )


@register("steering")
class SteeringExperiment(Experiment):
    """Both traffic-steering flavours on their canonical topologies.

    ``variant`` selects ``prepend`` (Figure 2), ``local-pref``
    (Figure 8b), or ``both`` (the default).  ``hijack`` changes the
    prepend variant alone, so a run without it refuses ``hijack=true``.
    """

    description = "traffic steering via prepend and local-pref communities"
    paper_section = "Section 5.2"
    canonical_topology = True
    parameters = (
        Param("variant", "both", "choice", choices=("both", "prepend", "local-pref")),
        Param("hijack", False, "bool", needs=("variant", ("both", "prepend"))),
    )

    def execute(self, ctx: ExperimentContext) -> dict:
        attacks = {
            "prepend": lambda: PrependSteeringAttack.figure2(hijack=self.bool_param("hijack")),
            "local-pref": LocalPrefSteeringAttack.figure8b,
        }
        variant = self.param("variant")
        variants = {key: attacks[key]().run() for key in (attacks if variant == "both" else [variant])}
        return {
            "variants": variants,
            "succeeded": all(v["succeeded"] for v in variants.values()),
        }

    def validate(self, ctx: ExperimentContext, metrics: dict) -> bool:
        return bool(metrics["succeeded"])

    def render_text(self, result: ExperimentResult) -> str:
        lines: list[str] = []
        for key, variant in result.metrics["variants"].items():
            lines.append(f"--- {key} ---")
            lines.append(variant["description"])
            lines.append(f"  path before:      {variant['path_before']}")
            lines.append(f"  path after:       {variant['path_after']}")
            lines.append(f"  attack succeeded: {variant['succeeded']}")
        return "\n".join(lines)
