"""The Table 3 feasibility matrix: every scenario, with and without hijacking.

Each scenario is actually executed on its canonical topology; the
difficulty grade is then derived from the gates the attacker had to pass
(business-relationship checks, IRR/origin validation, knowledge of the
route-server evaluation order, prefix-length limits), mirroring the
insights column of the paper's Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

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
from repro.bgp.prefix import Prefix
from repro.experiments import Experiment, ExperimentContext, ExperimentResult, register
from repro.utils.tables import Table


class Difficulty(str, Enum):
    """The paper's three difficulty grades."""

    EASY = "easy"
    MEDIUM = "medium"
    HARD = "hard"


#: Gates an attacker may have to pass; each contributes to the difficulty.
GATE_DESCRIPTIONS = {
    "prefix_length": "allowed prefix length is checked",
    "rtbh_activation": "activation of the RTBH service is typically required",
    "business_relationship": (
        "the business relationship of the attacker with the attackee or transit networks is "
        "checked - providers only act on communities set by their customers"
    ),
    "irr_validation": "IRR records for origin validation are typically checked, but the check can be circumvented",
    "evaluation_order": "requires inference of the community evaluation order when it is not public",
    "low_evaluation_order": "AS path prepending has typically low evaluation order, thus the attack may not succeed",
}


@dataclass
class FeasibilityRow:
    """One row of Table 3."""

    scenario: str
    hijack: bool
    succeeded: bool
    difficulty: Difficulty
    gates: list[str] = field(default_factory=list)

    def insights(self) -> str:
        """The insight text assembled from the gates encountered."""
        return "; ".join(GATE_DESCRIPTIONS[g] for g in self.gates)


def _table3(rows) -> Table:
    """The Table 3 ASCII rendering, shared by the matrix and the experiment.

    ``rows`` yields ``(scenario, hijack, succeeded, difficulty, insights)``
    tuples with plain values, so both :class:`FeasibilityRow` objects and
    serialized metrics dicts render byte-identically.
    """
    table = Table(
        ["Scenario", "Hijack", "Succeeded", "Difficulty", "Insights"],
        title="Table 3: attack feasibility in the wild",
    )
    for scenario, hijack, succeeded, difficulty, insights in rows:
        table.add_row(
            [
                scenario,
                "yes" if hijack else "no",
                "yes" if succeeded else "no",
                difficulty,
                insights,
            ]
        )
    return table


@dataclass
class FeasibilityMatrix:
    """The full Table 3."""

    rows: list[FeasibilityRow] = field(default_factory=list)
    #: The seed the matrix was built with, recorded for reproducibility.
    seed: int = 42

    def to_table(self) -> Table:
        """Render as an ASCII table."""
        return _table3(
            (row.scenario, row.hijack, row.succeeded, row.difficulty.value, row.insights())
            for row in self.rows
        )


def _grade(gates: list[str]) -> Difficulty:
    """Map the gate list to a difficulty grade like the paper's Table 3."""
    if "business_relationship" in gates or "low_evaluation_order" in gates:
        return Difficulty.HARD
    if "evaluation_order" in gates:
        return Difficulty.MEDIUM
    return Difficulty.EASY


def build_feasibility_matrix(seed: int) -> FeasibilityMatrix:
    """Run every scenario variant and assemble Table 3.

    The canonical Figure 2/7/8(b)/9 topologies are fully deterministic,
    so the seed does not perturb the outcome — it is threaded through and
    recorded on the matrix so feasibility runs carry the same
    reproducibility contract as every other experiment.
    """
    matrix = FeasibilityMatrix(seed=seed)

    # ----------------------------------------------------------- blackholing
    for hijack in (False, True):
        topology = build_figure7_topology()
        roles = ScenarioRoles(attacker_asn=2, attackee_asn=1, community_target_asn=3)
        attack = RtbhAttack(
            topology,
            roles,
            victim_prefix=Prefix.from_string("203.0.113.0/24"),
            use_hijack=hijack,
        )
        result = attack.run()
        gates = ["prefix_length", "rtbh_activation"]
        if hijack:
            gates.append("irr_validation")
        matrix.rows.append(
            FeasibilityRow(
                scenario="Blackholing",
                hijack=hijack,
                succeeded=result.succeeded,
                difficulty=_grade([g for g in gates if g not in ("irr_validation",)]),
                gates=gates,
            )
        )

    # --------------------------------------------- traffic steering: local pref
    # The attack itself is hijack-agnostic (the community is attached on the
    # attacker's own session either way), so it runs once and only the gate
    # list differs between the two Table 3 rows.
    topology = build_figure8b_topology()
    roles = ScenarioRoles(attacker_asn=2, attackee_asn=5, community_target_asn=1)
    attack = LocalPrefSteeringAttack(
        topology, roles, victim_prefix=Prefix.from_string("198.18.0.0/24")
    )
    result = attack.run()
    for hijack in (False, True):
        gates = ["business_relationship"]
        if hijack:
            gates.append("irr_validation")
        matrix.rows.append(
            FeasibilityRow(
                scenario="Traffic steering (local pref)",
                hijack=hijack,
                succeeded=result.succeeded,
                difficulty=_grade(gates),
                gates=gates,
            )
        )

    # ------------------------------------------ traffic steering: prepending
    for hijack in (False, True):
        topology = build_figure2_topology()
        roles = ScenarioRoles(attacker_asn=2, attackee_asn=1, community_target_asn=3)
        attack = PrependSteeringAttack(
            topology,
            roles,
            victim_prefix=Prefix.from_string("198.51.100.0/24"),
            observer_asn=6,
            use_hijack=hijack,
        )
        result = attack.run()
        gates = ["business_relationship", "low_evaluation_order"]
        if hijack:
            gates.append("irr_validation")
        matrix.rows.append(
            FeasibilityRow(
                scenario="Traffic steering (path prepending)",
                hijack=hijack,
                succeeded=result.succeeded,
                difficulty=_grade(gates),
                gates=gates,
            )
        )

    # -------------------------------------------------------- route manipulation
    # Hijack-agnostic at the route server as well (the attacker injects the
    # conflicting communities in both variants): one run, two rows.
    topology, ixp = build_figure9_ixp()
    roles = ScenarioRoles(attacker_asn=2, attackee_asn=1, community_target_asn=ixp.route_server_asn)
    attack = RouteManipulationAttack(
        topology,
        ixp,
        roles,
        victim_prefix=Prefix.from_string("203.0.113.0/24"),
        victim_member_asn=4,
    )
    result = attack.run()
    for hijack in (False, True):
        gates = ["evaluation_order"]
        if hijack:
            gates.append("irr_validation")
        matrix.rows.append(
            FeasibilityRow(
                scenario="Route manipulation",
                hijack=hijack,
                succeeded=result.succeeded,
                difficulty=_grade(gates),
                gates=gates,
            )
        )
    return matrix


@register("feasibility")
class FeasibilityExperiment(Experiment):
    """Run every Table 3 scenario variant on its canonical topology."""

    description = "Table 3 feasibility matrix: every attack, with and without hijack"
    paper_section = "Section 6"
    canonical_topology = True

    def execute(self, ctx: ExperimentContext) -> dict:
        matrix = build_feasibility_matrix(seed=ctx.spec.seed)
        ctx.scratch["matrix"] = matrix
        rows = [
            {
                "scenario": row.scenario,
                "hijack": row.hijack,
                "succeeded": row.succeeded,
                "difficulty": row.difficulty.value,
                "insights": row.insights(),
            }
            for row in matrix.rows
        ]
        return {
            "rows": rows,
            "row_count": len(rows),
            "succeeded_count": sum(1 for row in rows if row["succeeded"]),
            "seed": matrix.seed,
        }

    def validate(self, ctx: ExperimentContext, metrics: dict) -> bool:
        return metrics["row_count"] == 8 and metrics["succeeded_count"] == metrics["row_count"]

    def render_text(self, result: ExperimentResult) -> str:
        return _table3(
            (row["scenario"], row["hijack"], row["succeeded"], row["difficulty"], row["insights"])
            for row in result.metrics["rows"]
        ).render()
