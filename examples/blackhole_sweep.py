#!/usr/bin/env python3
"""The Section 7.6 automated blackhole-community sweep, via the experiment API.

The sweep is a registered experiment (``blackhole-sweep``): a declarative
spec (seed, topology overrides, platform attachments, parameters) drives
the common lifecycle — build topology, attach the PEERING-like injection
platform and the Atlas probes, sweep every verified blackhole community
with a confirmation pass — and returns a uniform, JSON-serializable
result.  Its metrics hold one row per effective community, which the
table below prints.

Run with::

    python examples/blackhole_sweep.py
"""

from __future__ import annotations

from repro.experiments import get


def main() -> None:
    experiment_cls = get("blackhole-sweep")
    spec = experiment_cls.default_spec(seed=23, probes=200).replace(
        topology={"tier1_count": 3, "transit_count": 30, "stub_count": 120}
    )
    experiment = experiment_cls(spec)
    result = experiment.run()
    metrics = result.metrics

    print(f"experiment: {spec.name} (seed {spec.seed}, status {result.status.value})")
    print(f"communities swept:                {metrics['communities_swept']}")
    print(f"vantage points:                   {metrics['probe_count']}")
    print()
    print(f"{'community':>14} | {'target':>8} | {'probes lost':>11} | target hops")
    print("-" * 56)
    for outcome in metrics["outcomes"]:
        hops = outcome["target_hops"] if outcome["target_hops"] is not None else "off-path"
        print(
            f"{outcome['community']:>14} | AS{outcome['target_asn']:<6} | "
            f"{outcome['probes_lost']:>11} | {hops}"
        )
    print()
    print(
        f"communities inducing blackholing: {metrics['effective_communities']} "
        f"({metrics['effective_fraction']:.1%} of the swept list)"
    )
    print(
        f"vantage points affected:          {metrics['affected_probes']} "
        f"({metrics['affected_probe_fraction']:.1%})"
    )
    print(f"confirmation pass identical:      {metrics['confirmed']}")
    print(
        f"community/path pairs: {metrics['direct_peer_pairs']} direct-peer, "
        f"{metrics['multi_hop_pairs']} multi-hop, {metrics['offpath_pairs']} off-path"
    )
    print()
    print(f"per-stage timings: " + ", ".join(
        f"{stage} {seconds * 1000:.0f} ms" for stage, seconds in result.timings.items()
    ))


if __name__ == "__main__":
    main()
