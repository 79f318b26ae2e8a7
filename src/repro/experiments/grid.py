"""Fan a grid of experiment specs across worker processes.

:func:`expand_grid` turns (seeds x scales x parameter axes) into a
deterministic list of :class:`ExperimentSpec`; :class:`GridRunner`
executes such a list either sequentially in-process or across a
``ProcessPoolExecutor``.  Specs and results cross the process boundary
as plain dicts (the spec/result round-trip), and results always come
back **in spec order**, so a parallel run is comparable element-wise
with a sequential one.  A parallel grid runs ``min(len(specs),
max_workers or os.cpu_count())`` worker processes, one future per spec.

A grid worker that dies (SIGKILL, out-of-memory kill) breaks the whole
process pool.  The grid contains that: every cell that finished keeps
its result, and every cell left without one comes back as an
``ExperimentResult(status="error")`` whose ``error`` names the worker
death — the run itself never raises :class:`BrokenProcessPool`.

Results persist as JSON lines: ``GridRunner.run(...,
output_path=...)`` streams each :meth:`ExperimentResult.to_json` line to
disk as it completes (a crashed grid keeps everything finished so far),
and :func:`load_results` replays a file back into result objects.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Iterable, Sequence, TextIO

from repro.exceptions import ExperimentError
from repro.experiments.registry import get, run_experiment
from repro.experiments.result import ExperimentResult, ExperimentStatus
from repro.experiments.spec import ExperimentSpec


def expand_grid(
    name: str,
    seeds: Sequence[int] = (42,),
    scales: Sequence[str | None] = (None,),
    param_grid: dict[str, Sequence[Any]] | None = None,
    **base_params: Any,
) -> list[ExperimentSpec]:
    """Expand seeds x scales x parameter axes into specs, deterministically.

    Axes iterate in the order given (parameter axes by sorted key), so the
    same arguments always produce the same spec list in the same order.
    Every spec is held to its experiment's declarations before any is
    returned: a bad axis value raises :class:`ExperimentError` naming the
    parameter before any cell runs.
    """
    experiment_cls = get(name)
    axes = sorted((param_grid or {}).items())
    keys = [key for key, _values in axes]
    value_lists = [list(values) for _key, values in axes]
    specs: list[ExperimentSpec] = []
    for seed in seeds:
        for scale in scales:
            for combo in itertools.product(*value_lists) if value_lists else [()]:
                params = dict(base_params)
                params.update(zip(keys, combo))
                spec = experiment_cls.default_spec(seed=seed, scale=scale, **params)
                experiment_cls.check_spec(spec)
                specs.append(spec)
    return specs


def _run_spec_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """Worker entry point: dict in, dict out (both sides picklable)."""
    spec = ExperimentSpec.from_dict(payload)
    return run_experiment(spec).to_dict()


def write_results(path: str, results: Iterable[ExperimentResult], append: bool = False) -> int:
    """Write results as JSON lines; returns how many were written."""
    written = 0
    with open(path, "a" if append else "w", encoding="utf-8") as stream:
        for result in results:
            _write_line(stream, result)
            written += 1
    return written


def load_results(path: str) -> list[ExperimentResult]:
    """Replay a JSON-lines result file written by :meth:`GridRunner.run`.

    A line that is not a result (the cut-off last line of a crashed
    grid, say) raises :class:`ExperimentError` naming the path and line.
    """
    results: list[ExperimentResult] = []
    with open(path, encoding="utf-8") as stream:
        for number, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                results.append(ExperimentResult.from_json(line))
            except (TypeError, ValueError, ExperimentError) as exc:
                raise ExperimentError(f"{path}:{number}: not an experiment result: {exc}") from None
    return results


def _worker_death(index: int, spec: ExperimentSpec, error: BrokenProcessPool) -> ExperimentResult:
    """The error result of a cell whose grid worker died before returning it."""
    return ExperimentResult(
        name=spec.name,
        spec=spec.to_dict(),
        status=ExperimentStatus.ERROR,
        error=(
            f"BrokenProcessPool: a grid worker died before cell {index} "
            f"({spec.name}, seed {spec.seed}) returned a result: {error}"
        ),
    )


def _write_line(stream: TextIO, result: ExperimentResult) -> None:
    stream.write(result.to_json())
    stream.write("\n")
    stream.flush()


@dataclass
class GridRunner:
    """Run many experiment specs with deterministic result ordering."""

    #: Worker processes (None = the CPU count; never more than specs).
    max_workers: int | None = None

    def run(
        self,
        specs: Iterable[ExperimentSpec],
        parallel: bool = True,
        output_path: str | None = None,
    ) -> list[ExperimentResult]:
        """Run every spec; results are returned in spec order.

        With ``parallel=True`` the specs fan out over worker processes; a
        single-spec grid always runs in-process (no pool overhead).  With
        ``output_path`` every result is streamed to disk as a JSON line
        the moment it is available (spec order).
        """
        specs = list(specs)
        stream: TextIO | None = None
        if output_path is not None:
            stream = open(output_path, "w", encoding="utf-8")
        try:
            results: list[ExperimentResult] = []
            if not parallel or len(specs) <= 1:
                for spec in specs:
                    result = run_experiment(spec)
                    results.append(result)
                    if stream is not None:
                        _write_line(stream, result)
                return results
            workers = min(len(specs), self.max_workers or os.cpu_count() or 1)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_run_spec_payload, spec.to_dict()) for spec in specs]
                for index, (spec, future) in enumerate(zip(specs, futures)):
                    try:
                        result = ExperimentResult.from_dict(future.result())
                    except BrokenProcessPool as error:
                        result = _worker_death(index, spec, error)
                    results.append(result)
                    if stream is not None:
                        _write_line(stream, result)
            return results
        finally:
            if stream is not None:
                stream.close()

    def run_sequential(
        self, specs: Iterable[ExperimentSpec], output_path: str | None = None
    ) -> list[ExperimentResult]:
        """The in-process reference execution (same ordering guarantee)."""
        return self.run(specs, parallel=False, output_path=output_path)
