#!/usr/bin/env python3
"""Remotely triggered blackholing, end to end (paper Figure 7 and Section 7.3).

The script walks through both variants of the RTBH attack on the paper's
Figure 7 topology, validating each on the control plane (looking glass) and
the data plane (traceroute), and then repeats the non-hijack experiment
"in the wild" on a generated Internet from a PEERING-like injection platform
with Atlas-style probes.

Run with::

    python examples/rtbh_attack.py

It exits with status 1 if either Figure 7 scenario does not succeed.
"""

from __future__ import annotations

import sys

from repro.attacks.rtbh import RtbhAttack
from repro.probing.atlas import AtlasPlatform
from repro.topology.generator import TopologyGenerator, TopologyParameters
from repro.wild.experiments import RtbhWildExperiment
from repro.wild.peering import attach_peering_testbed


def figure7_scenarios() -> bool:
    """The canonical Figure 7 scenarios: with and without prefix hijacking.

    Returns True if both succeeded.
    """
    succeeded = True
    for hijack in (False, True):
        result = RtbhAttack.figure7(hijack=hijack).run(vantage_points=[4])
        print(f"--- Figure 7 {'(b) with hijack' if hijack else '(a) without hijack'} ---")
        print(result["description"])
        print(f"  attack prefix:            {result['attack_prefix']}")
        print(f"  target's looking glass:   {result['target_next_hop']}")
        print(f"  ASes dropping traffic:    {result['blackholed_at']}")
        print(f"  vantage points cut off:   {result['unreachable_from']}")
        print(f"  attack succeeded:         {result['succeeded']}")
        print()
        succeeded = succeeded and result["succeeded"]
    return succeeded


def wild_experiment() -> None:
    """The Section 7.3 protocol over a generated Internet."""
    parameters = TopologyParameters(tier1_count=3, transit_count=25, stub_count=90, seed=7)
    topology = TopologyGenerator(parameters).generate()
    platform = attach_peering_testbed(topology, upstream_count=10)
    atlas = AtlasPlatform.deploy(topology, probe_count=100, exclude_asns={platform.asn})
    experiment = RtbhWildExperiment(topology, platform, atlas)
    result = experiment.run(use_hijack=False)
    print("--- Section 7.3 in the (simulated) wild ---")
    print(f"  community target:         AS{result['target_asn']} "
          f"({result['target_hops_from_injection']} AS hops from the injection point)")
    print(f"  blackhole community:      {result['community']}")
    print(f"  announced prefix:         {result['attack_prefix']}")
    print(f"  target looking glass:     {result['target_next_hop']}")
    print(f"  probes reaching before:   {result['probes_reachable_before']}")
    print(f"  probes reaching after:    {result['probes_reachable_after']}")
    print(f"  probes losing reachability: {result['probes_lost']}")
    print(f"  attack succeeded:         {result['succeeded']}")


def main() -> None:
    succeeded = figure7_scenarios()
    wild_experiment()
    if not succeeded:
        sys.exit(1)


if __name__ == "__main__":
    main()
