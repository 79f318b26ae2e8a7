"""Golden outputs of the Section 4 report (ROADMAP item 4(a), first slice).

The files under ``tests/fixtures/golden/`` were generated from the tree
*before* the report read path was refactored; they are compared byte for
byte, so any change to an analysis, to the table renderer or to the
synthetic builder's RNG draw order shows up here.  To accept an intended
change::

    PYTHONPATH=src python -m pytest tests/test_golden.py --update-golden
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments import get as get_experiment
from repro.measurement.report import MeasurementReport

GOLDEN_DIR = Path(__file__).parent / "fixtures" / "golden"

#: The ``report`` experiment pinned by the golden JSON.
REPORT_SEED = 7
REPORT_SCALE = "small"


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


def test_report_experiment_comparable_matches_golden(request):
    """The ``report`` experiment's ``comparable()`` — everything but the timings."""
    experiment = get_experiment("report")
    result = experiment(experiment.default_spec(seed=REPORT_SEED, scale=REPORT_SCALE)).run()
    check_golden(
        "report_experiment.json",
        json.dumps(result.comparable(), indent=2, sort_keys=True) + "\n",
        request.config.getoption("--update-golden"),
    )
