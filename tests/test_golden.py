"""Golden outputs of the registered experiments (ROADMAP item 4(a)).

The files under ``tests/fixtures/golden/`` were generated from the tree
*before* the code they guard was refactored (the report pair before the
report read path, the harvest-source report before the analyses read
one scan's tallies, the seven ``experiment_*.json`` before the route
records became tuples); they are compared byte for byte, so any change
to an analysis, to the table renderer, to the synthetic builder's RNG
draw order or to what the core converges to shows up here.  To accept an
intended change::

    PYTHONPATH=src python -m pytest tests/test_golden.py --update-golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.measurement.report import MeasurementReport

GOLDEN_DIR = Path(__file__).parent / "fixtures" / "golden"

#: The ``report`` experiment pinned by the golden JSON (its default scale is small).
REPORT_SEED = 7

#: The experiments that drive the in-process core, pinned at their default spec.
CORE_EXPERIMENTS = (
    "blackhole-sweep",
    "feasibility",
    "propagation-check",
    "route-manipulation",
    "rtbh",
    "rtbh-wild",
    "steering",
)
CORE_SEED = 7


def check_golden(name: str, text: str, update: bool) -> None:
    """Compare ``text`` with the golden file ``name`` (or rewrite it)."""
    path = GOLDEN_DIR / name
    if update:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return
    assert path.exists(), f"{path} is missing; generate it with --update-golden"
    assert text == path.read_text(), f"{name} differs from its golden file"


def test_full_report_text_matches_golden(dataset, request):
    """``MeasurementReport.full_report()`` over the shared seed-2018 dataset."""
    report = MeasurementReport(dataset.archive, dataset.topology, dataset.blackhole_list)
    check_golden(
        "full_report.txt",
        report.full_report() + "\n",
        request.config.getoption("--update-golden"),
    )


def test_report_experiment_comparable_matches_golden(experiment_result, request):
    """The ``report`` experiment's ``comparable()`` — everything but the timings."""
    result = experiment_result("report", REPORT_SEED)
    check_golden(
        "report_experiment.json",
        json.dumps(result.comparable(), indent=2, sort_keys=True) + "\n",
        request.config.getoption("--update-golden"),
    )


def test_report_experiment_harvest_source_matches_golden(experiment_result, request):
    """The ``report`` experiment over a live harvest, where one peer heard at
    several collectors repeats its routes across the archive."""
    result = experiment_result("report", REPORT_SEED, source="harvest")
    check_golden(
        "report_harvest_experiment.json",
        json.dumps(result.comparable(), indent=2, sort_keys=True) + "\n",
        request.config.getoption("--update-golden"),
    )


@pytest.mark.parametrize("name", CORE_EXPERIMENTS)
def test_core_experiment_comparable_matches_golden(name, experiment_result, request):
    """``comparable()`` of every experiment that converges routes through the core."""
    result = experiment_result(name, CORE_SEED)
    check_golden(
        f"experiment_{name}.json",
        json.dumps(result.comparable(), indent=2, sort_keys=True) + "\n",
        request.config.getoption("--update-golden"),
    )
