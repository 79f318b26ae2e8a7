"""Attack scenarios: remotely triggered blackholing, traffic steering, route manipulation.

:mod:`repro.attacks.scenario` declares each lab figure once (topology,
roles, victim prefix); each attack class's factory (``RtbhAttack.figure7``,
``PrependSteeringAttack.figure2``, ``LocalPrefSteeringAttack.figure8b``,
``RouteManipulationAttack.figure9``) builds the attack on its figure, and
its ``run()`` returns the JSON-safe record its experiment stores.
"""

from repro.attacks.scenario import (
    ScenarioRoles,
    build_figure2_topology,
    build_figure7_topology,
    build_figure8b_topology,
    build_figure9_ixp,
)
from repro.routing.engine import origination_events
from repro.attacks.rtbh import RtbhAttack
from repro.attacks.steering import PrependSteeringAttack, LocalPrefSteeringAttack
from repro.attacks.manipulation import RouteManipulationAttack
from repro.attacks.feasibility import Difficulty, build_feasibility_matrix

__all__ = [
    "ScenarioRoles",
    "build_figure2_topology",
    "build_figure7_topology",
    "build_figure8b_topology",
    "build_figure9_ixp",
    "origination_events",
    "RtbhAttack",
    "PrependSteeringAttack",
    "LocalPrefSteeringAttack",
    "RouteManipulationAttack",
    "Difficulty",
    "build_feasibility_matrix",
]
