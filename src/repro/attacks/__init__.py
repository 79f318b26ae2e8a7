"""Attack scenarios: remotely triggered blackholing, traffic steering, route manipulation."""

from repro.attacks.scenario import (
    ScenarioRoles,
    AttackOutcome,
    build_figure2_topology,
    build_figure7_topology,
    build_figure8b_topology,
    build_figure9_ixp,
)
from repro.routing.engine import origination_events
from repro.attacks.rtbh import RtbhAttack, RtbhResult
from repro.attacks.steering import (
    PrependSteeringAttack,
    LocalPrefSteeringAttack,
    SteeringResult,
)
from repro.attacks.manipulation import RouteManipulationAttack, ManipulationResult
from repro.attacks.feasibility import FeasibilityMatrix, Difficulty, build_feasibility_matrix

__all__ = [
    "ScenarioRoles",
    "AttackOutcome",
    "build_figure2_topology",
    "build_figure7_topology",
    "build_figure8b_topology",
    "build_figure9_ixp",
    "origination_events",
    "RtbhAttack",
    "RtbhResult",
    "PrependSteeringAttack",
    "LocalPrefSteeringAttack",
    "SteeringResult",
    "RouteManipulationAttack",
    "ManipulationResult",
    "FeasibilityMatrix",
    "Difficulty",
    "build_feasibility_matrix",
]
