"""repro — a reproduction of "BGP Communities: Even more Worms in the Routing Can" (IMC 2018).

The package is organised in layers:

* :mod:`repro.bgp`, :mod:`repro.mrt` — protocol data model and archive formats;
* :mod:`repro.topology`, :mod:`repro.policy`, :mod:`repro.routing`,
  :mod:`repro.dataplane` — the simulated Internet (AS graph, community
  policies, BGP propagation, forwarding);
* :mod:`repro.collectors`, :mod:`repro.datasets` — route collectors and the
  synthetic April-2018-style observation dataset;
* :mod:`repro.measurement` — the paper's Section 4 measurement pipeline
  (the primary contribution);
* :mod:`repro.attacks`, :mod:`repro.probing`, :mod:`repro.wild` — the attack
  scenarios, active measurement, and in-the-wild experiment drivers of
  Sections 5–7.

Quickstart::

    from repro.datasets.synthetic import DatasetParameters, build_default_dataset
    from repro.measurement.report import MeasurementReport
    from repro.topology.generator import TopologyGenerator, TopologyParameters

    topology = TopologyGenerator(TopologyParameters(seed=42)).generate()
    dataset = build_default_dataset(topology, DatasetParameters(seed=2018))
    report = MeasurementReport(dataset.archive, dataset.topology, dataset.blackhole_list)
    print(report.full_report())
"""

from repro.exceptions import ReproError

__version__ = "1.0.0"

__all__ = ["ReproError", "__version__"]
