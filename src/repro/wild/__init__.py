"""Experiments "in the wild" over a generated Internet (Section 7)."""

from repro.wild.peering import InjectionPlatform, attach_peering_testbed, attach_research_network
from repro.wild.propagation_check import run_propagation_check
from repro.wild.experiments import RtbhWildExperiment
from repro.wild.blackhole_sweep import BlackholeSweep, CommunitySweepOutcome

__all__ = [
    "InjectionPlatform",
    "attach_peering_testbed",
    "attach_research_network",
    "run_propagation_check",
    "RtbhWildExperiment",
    "BlackholeSweep",
    "CommunitySweepOutcome",
]
