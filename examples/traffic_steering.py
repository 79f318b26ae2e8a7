#!/usr/bin/env python3
"""Traffic steering and route manipulation scenarios (paper Figures 2, 8 and 9).

Three demonstrations:

1. AS-path prepending abuse on the Figure 2 topology: the attacker tags the
   attackee's prefix with the community target's "prepend 3x" community and
   moves the observer's traffic onto the alternative path.
2. Local-preference abuse on the Figure 8(b) topology: the attacker forces
   the community target to carry its traffic over the expensive backup
   ingress.
3. Route manipulation at an IXP route server (Figure 9): conflicting
   "announce to" / "do not announce to" communities exploit the evaluation
   order to withdraw a member's route.

Run with::

    python examples/traffic_steering.py

It exits with status 1 if any of the three scenarios does not succeed.
"""

from __future__ import annotations

import sys

from repro.attacks.manipulation import RouteManipulationAttack
from repro.attacks.steering import LocalPrefSteeringAttack, PrependSteeringAttack


def prepend_steering() -> bool:
    attack = PrependSteeringAttack.figure2()
    result = attack.run()
    print("--- Figure 2: AS-path prepending abuse ---")
    print(f"  prepend community used:   {attack.prepend_community}")
    print(f"  observer path before:     {result['path_before']}")
    print(f"  observer path after:      {result['path_after']}")
    print(f"  attack succeeded:         {result['succeeded']}")
    print()
    return result["succeeded"]


def local_pref_steering() -> bool:
    attack = LocalPrefSteeringAttack.figure8b()
    result = attack.run()
    print("--- Figure 8(b): local-pref (customer backup) abuse ---")
    print(f"  backup community used:    {attack.backup_community}")
    print(f"  target ingress before:    AS{result['details']['ingress_before']}")
    print(f"  target ingress after:     AS{result['details']['ingress_after']}")
    print(f"  local-pref before/after:  {result['local_pref_before']} / {result['local_pref_after']}")
    print(f"  attack succeeded:         {result['succeeded']}")
    print()
    return result["succeeded"]


def route_manipulation() -> bool:
    result = RouteManipulationAttack.figure9().run()
    print("--- Figure 9: route manipulation at the IXP route server ---")
    print(f"  announce community:       {result['details']['announce_community']}")
    print(f"  suppress community:       {result['details']['suppress_community']}")
    print(f"  AS4 had the route before: {result['route_before']}")
    print(f"  AS4 has the route after:  {result['route_after']}")
    print(f"  attack succeeded:         {result['succeeded']}")
    return result["succeeded"]


def main() -> None:
    outcomes = [prepend_steering(), local_pref_steering(), route_manipulation()]
    if not all(outcomes):
        sys.exit(1)


if __name__ == "__main__":
    main()
