"""Built-in experiments that belong to no single attack/wild module.

Currently: the Section 4 measurement report, which drives the dataset
pipeline end to end (topology -> collectors -> archive -> every table
and figure of the paper's measurement study).  The archive comes from
one of two sources: the synthetic April-2018-style generator (the
default, byte-identical to previous releases) or a live harvest of the
simulated Internet's collector feeds.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.registry import register
from repro.experiments.runner import Experiment, ExperimentContext, Param
from repro.experiments.result import ExperimentResult


@register("report")
class ReportExperiment(Experiment):
    """Generate the dataset and render the Section 4 report."""

    description = "dataset (synthetic or live harvest) + every Section 4 table/figure"
    paper_section = "Section 4"
    default_scale = "small"
    #: ``source="synthetic"`` replays the generator; ``source="harvest"``
    #: converges the topology's originations and harvests the collector
    #: feeds from the live simulation.
    parameters = (Param("source", "synthetic", "choice", choices=("synthetic", "harvest")),)

    def seed(self, ctx: ExperimentContext) -> None:
        if self.param("source") == "synthetic":
            from repro.datasets.synthetic import DatasetParameters, build_default_dataset

            ctx.scratch["dataset"] = build_default_dataset(
                ctx.require_topology(), DatasetParameters(seed=ctx.spec.seed)
            )
        else:
            from repro.collectors.platform import CollectorDeployment

            simulator = self.seed_originated(ctx)
            deployment = CollectorDeployment.default_deployment(
                ctx.require_topology(), seed=ctx.spec.seed
            )
            ctx.scratch["archive"] = deployment.collect_from_simulator(simulator)

    def execute(self, ctx: ExperimentContext) -> dict[str, Any]:
        from repro.datasets.giotsas import build_blackhole_list
        from repro.measurement.report import MeasurementReport
        from repro.measurement.propagation import transit_forwarders
        from repro.measurement.usage import overall_update_community_fraction

        if self.param("source") == "harvest":
            archive = ctx.scratch["archive"]
            topology = ctx.require_topology()
            blackhole_list = build_blackhole_list(topology, seed=ctx.spec.seed + 1)
        else:
            dataset = ctx.scratch["dataset"]
            archive, topology, blackhole_list = (
                dataset.archive,
                dataset.topology,
                dataset.blackhole_list,
            )
        report = MeasurementReport(archive, topology, blackhole_list)
        # The forwarder and distinct-community scans are memoised on the
        # archive, so the headline metrics and the report's own Table 1,
        # Figure 3 and Section 4.3 share one pass each.
        forwarders = transit_forwarders(archive)
        return {
            "report": report.full_report(),
            "source": self.param("source"),
            "messages": len(archive),
            "unique_communities": len(archive.unique_communities()),
            "update_community_fraction": overall_update_community_fraction(archive),
            "transit_forwarder_count": forwarders.forwarder_count,
            "transit_count": forwarders.transit_count,
        }

    def validate(self, ctx: ExperimentContext, metrics: dict[str, Any]) -> bool:
        if metrics["messages"] <= 0:
            return False
        # A live harvest of a policy-light topology can legitimately see
        # no communities; the synthetic generator always produces some.
        if self.param("source") == "synthetic":
            return metrics["unique_communities"] > 0
        return True

    def render_text(self, result: ExperimentResult) -> str:
        return result.metrics["report"]
