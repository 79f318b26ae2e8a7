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

from dataclasses import dataclass

from repro.attacks.scenario import AttackOutcome, ScenarioRoles
from repro.bgp.community import CommunitySet
from repro.bgp.prefix import Prefix
from repro.exceptions import AttackError, ExperimentError
from repro.experiments import Experiment, ExperimentContext, ExperimentResult, register
from repro.policy.actions import ActionType
from repro.routing.engine import BgpSimulator
from repro.topology.topology import Topology


@dataclass
class SteeringResult(AttackOutcome):
    """Outcome of a steering attack: paths and preferences before vs after."""

    path_before: list[int] | None = None
    path_after: list[int] | None = None
    local_pref_before: int | None = None
    local_pref_after: int | None = None

    @property
    def path_changed(self) -> bool:
        """True if the observed best path changed."""
        return self.path_before != self.path_after


class PrependSteeringAttack:
    """Steer an observer's traffic away from the community target via prepending."""

    def __init__(
        self,
        topology: Topology,
        roles: ScenarioRoles,
        victim_prefix: Prefix,
        observer_asn: int,
        use_hijack: bool = False,
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

    def run(self) -> SteeringResult:
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
        succeeded = (went_through_target_before and avoids_target_after) or prepended_after
        description = (
            f"prepend steering by AS{roles.attacker_asn}: observer AS{self.observer_asn} path to "
            f"{self.victim_prefix} manipulated via community {self.prepend_community}"
        )
        return SteeringResult(
            succeeded=succeeded,
            roles=roles,
            description=description,
            details={
                "prepend_community": str(self.prepend_community),
                "hijack": self.use_hijack,
                "went_through_target_before": went_through_target_before,
                "avoids_target_after": avoids_target_after,
                "prepending_visible": prepended_after,
            },
            path_before=path_before,
            path_after=path_after,
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

    def run(self) -> SteeringResult:
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
        succeeded = ingress_changed or tagged_route_demoted
        description = (
            f"local-pref steering by AS{roles.attacker_asn} against AS{roles.community_target_asn}"
            f" using community {self.backup_community}"
        )
        return SteeringResult(
            succeeded=succeeded,
            roles=roles,
            description=description,
            details={
                "backup_community": str(self.backup_community),
                "ingress_before": best_before.learned_from if best_before else None,
                "ingress_after": best_after.learned_from if best_after else None,
                "tagged_route_demoted": tagged_route_demoted,
            },
            path_before=path_before,
            path_after=path_after,
            local_pref_before=local_pref_before,
            local_pref_after=local_pref_after,
        )


def _steering_metrics(outcome: SteeringResult) -> dict:
    """JSON-safe view of one steering run."""
    return {
        "succeeded": outcome.succeeded,
        "description": outcome.description,
        "path_before": outcome.path_before,
        "path_after": outcome.path_after,
        "path_changed": outcome.path_changed,
        "local_pref_before": outcome.local_pref_before,
        "local_pref_after": outcome.local_pref_after,
        "details": outcome.details,
    }


@register("steering")
class SteeringExperiment(Experiment):
    """Both traffic-steering flavours on their canonical topologies.

    ``variant`` selects ``prepend`` (Figure 2), ``local-pref``
    (Figure 8b), or ``both`` (the default).  ``hijack`` changes the
    prepend variant alone, so a run without it refuses ``hijack=true``.
    """

    description = "traffic steering via prepend and local-pref communities"
    paper_section = "Section 5.2"
    default_params = {"variant": "both", "hijack": False}

    VARIANTS = ("prepend", "local-pref")

    def build(self, ctx: ExperimentContext) -> None:
        self.reject_topology_spec(ctx)

    def _run_prepend(self) -> SteeringResult:
        from repro.attacks.scenario import build_figure2_topology

        attack = PrependSteeringAttack(
            build_figure2_topology(),
            ScenarioRoles(attacker_asn=2, attackee_asn=1, community_target_asn=3),
            victim_prefix=Prefix.from_string("198.51.100.0/24"),
            observer_asn=6,
            use_hijack=self.bool_param("hijack"),
        )
        return attack.run()

    def _run_local_pref(self) -> SteeringResult:
        from repro.attacks.scenario import build_figure8b_topology

        attack = LocalPrefSteeringAttack(
            build_figure8b_topology(),
            ScenarioRoles(attacker_asn=2, attackee_asn=5, community_target_asn=1),
            victim_prefix=Prefix.from_string("198.18.0.0/24"),
        )
        return attack.run()

    def execute(self, ctx: ExperimentContext) -> dict:
        variant = self.param("variant")
        if variant == "both":
            selected = list(self.VARIANTS)
        elif variant in self.VARIANTS:
            selected = [variant]
        else:
            raise ExperimentError(
                f"experiment parameter 'variant' must be one of "
                f"{', '.join(map(repr, self.VARIANTS))} or 'both', got {variant!r}"
            )
        if self.bool_param("hijack") and "prepend" not in selected:
            raise ExperimentError(
                "experiment parameter 'hijack' changes the 'prepend' variant, which "
                f"this run does not select (variant: {variant!r})"
            )
        runners = {"prepend": self._run_prepend, "local-pref": self._run_local_pref}
        variants: dict[str, dict] = {}
        for key in selected:
            outcome = runners[key]()
            ctx.scratch[key] = outcome
            variants[key] = _steering_metrics(outcome)
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
