"""repro.experiments — the declarative experiment subsystem.

One API for every scenario in the repo (paper Sections 6-7):

* :class:`ExperimentSpec` — a serializable description of one run
  (seed, topology scale/overrides, platform attachments, parameters);
* :func:`register` / :func:`get` / :func:`available` — the registry each
  attack/wild module publishes its experiment class into;
* :class:`Experiment` + :func:`run_experiment` — the common lifecycle
  (build topology -> attach platforms -> seed routes -> execute ->
  validate) with per-stage timings;
* :class:`Param` — one row of an experiment's parameter table (default,
  kind, bound or choices, needs), checked before any stage runs;
* :class:`ExperimentResult` — the uniform, JSON-serializable outcome;
* :class:`GridRunner` / :func:`expand_grid` — fan a (seeds x scales x
  params) grid across worker processes with deterministic ordering.

Quickstart::

    from repro.experiments import get, run_experiment

    spec = get("rtbh-wild").default_spec(seed=7)
    result = run_experiment(spec)
    print(result.status, result.metrics["target_asn"])
    print(result.to_json(indent=2))   # persist for replay
"""

from repro.experiments.grid import (
    GridRunner,
    expand_grid,
    load_results,
    write_results,
)
from repro.experiments.registry import available, get, register, run_experiment
from repro.experiments.result import ExperimentResult, ExperimentStatus
from repro.experiments.runner import (
    LIFECYCLE_STAGES,
    Experiment,
    ExperimentContext,
    Param,
)
from repro.experiments.spec import SCALE_PRESETS, ExperimentSpec

__all__ = [
    "SCALE_PRESETS",
    "LIFECYCLE_STAGES",
    "Experiment",
    "ExperimentContext",
    "ExperimentResult",
    "ExperimentSpec",
    "ExperimentStatus",
    "GridRunner",
    "Param",
    "available",
    "expand_grid",
    "get",
    "load_results",
    "register",
    "run_experiment",
    "write_results",
]
