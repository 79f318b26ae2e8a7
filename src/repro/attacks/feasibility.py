"""The Table 3 feasibility matrix: every scenario, with and without hijacking.

Each scenario is actually executed on its canonical topology; the
difficulty grade is then derived from the gates the attacker had to pass
(business-relationship checks, IRR/origin validation, knowledge of the
route-server evaluation order, prefix-length limits), mirroring the
insights column of the paper's Table 3.
"""

from __future__ import annotations

from enum import Enum

from repro.attacks.manipulation import RouteManipulationAttack
from repro.attacks.rtbh import RtbhAttack
from repro.attacks.steering import LocalPrefSteeringAttack, PrependSteeringAttack
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

#: Table 3's scenarios in row order: the name, the factory of the attack on
#: the scenario's figure, whether ``hijack`` changes the run (the local-pref
#: and route-server attacks attach the community on the attacker's own
#: session either way, so they run once for both rows), and the gates the
#: attacker has to pass.  A hijacking row adds ``irr_validation``.
TABLE3_SCENARIOS = (
    ("Blackholing", RtbhAttack.figure7, True, ("prefix_length", "rtbh_activation")),
    ("Traffic steering (local pref)", LocalPrefSteeringAttack.figure8b, False, ("business_relationship",)),
    (
        "Traffic steering (path prepending)",
        PrependSteeringAttack.figure2,
        True,
        ("business_relationship", "low_evaluation_order"),
    ),
    ("Route manipulation", RouteManipulationAttack.figure9, False, ("evaluation_order",)),
)


def _table3(rows: list[dict]) -> Table:
    """The Table 3 ASCII rendering of :func:`build_feasibility_matrix`'s rows."""
    table = Table(
        ["Scenario", "Hijack", "Succeeded", "Difficulty", "Insights"],
        title="Table 3: attack feasibility in the wild",
    )
    for row in rows:
        table.add_row(
            [
                row["scenario"],
                "yes" if row["hijack"] else "no",
                "yes" if row["succeeded"] else "no",
                row["difficulty"],
                row["insights"],
            ]
        )
    return table


def _grade(gates: list[str]) -> Difficulty:
    """Map the gate list to a difficulty grade like the paper's Table 3."""
    if "business_relationship" in gates or "low_evaluation_order" in gates:
        return Difficulty.HARD
    if "evaluation_order" in gates:
        return Difficulty.MEDIUM
    return Difficulty.EASY


def build_feasibility_matrix() -> list[dict]:
    """Run every scenario variant on its figure; return Table 3's rows as the
    ``feasibility`` experiment stores them.

    The canonical Figure 2/7/8(b)/9 topologies are fully deterministic,
    so no seed perturbs the outcome.
    """
    rows = []
    for scenario, factory, hijack_changes_run, gates in TABLE3_SCENARIOS:
        if hijack_changes_run:
            outcomes = [factory(hijack=hijack).run()["succeeded"] for hijack in (False, True)]
        else:
            outcomes = [factory().run()["succeeded"]] * 2
        for hijack, succeeded in zip((False, True), outcomes):
            row_gates = [*gates, "irr_validation"] if hijack else list(gates)
            rows.append(
                {
                    "scenario": scenario,
                    "hijack": hijack,
                    "succeeded": succeeded,
                    "difficulty": _grade(row_gates).value,
                    "insights": "; ".join(GATE_DESCRIPTIONS[gate] for gate in row_gates),
                }
            )
    return rows


@register("feasibility")
class FeasibilityExperiment(Experiment):
    """Run every Table 3 scenario variant on its canonical topology."""

    description = "Table 3 feasibility matrix: every attack, with and without hijack"
    paper_section = "Section 6"
    canonical_topology = True

    def execute(self, ctx: ExperimentContext) -> dict:
        rows = build_feasibility_matrix()
        return {
            "rows": rows,
            "row_count": len(rows),
            "succeeded_count": sum(1 for row in rows if row["succeeded"]),
            "seed": ctx.spec.seed,
        }

    def validate(self, ctx: ExperimentContext, metrics: dict) -> bool:
        return metrics["row_count"] == 8 and metrics["succeeded_count"] == metrics["row_count"]

    def render_text(self, result: ExperimentResult) -> str:
        return _table3(result.metrics["rows"]).render()
