"""The declarative experiment subsystem: specs, registry, lifecycle, grid."""

from __future__ import annotations

import functools
import gc
import json
import multiprocessing
import os
import re
import signal
import time

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import (
    LIFECYCLE_STAGES,
    Experiment,
    ExperimentResult,
    ExperimentSpec,
    ExperimentStatus,
    GridRunner,
    Param,
    available,
    expand_grid,
    get,
    load_results,
    register,
    run_experiment,
    write_results,
)
from repro.experiments import registry as registry_module


class TestSpec:
    def test_round_trip(self):
        spec = ExperimentSpec(
            name="blackhole-sweep",
            seed=7,
            scale="small",
            topology={"transit_count": 25},
            platforms=("peering", "atlas"),
            params={"probes": 30, "confirm": False},
        )
        data = spec.to_dict()
        assert ExperimentSpec.from_dict(data) == spec
        # The dict form must survive JSON (that is the persistence format).
        assert ExperimentSpec.from_dict(json.loads(json.dumps(data))) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec.from_dict({"name": "x", "seeds": [1, 2]})

    def test_from_dict_requires_name(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec.from_dict({"seed": 1})

    @pytest.mark.parametrize("seed", [2.9, 2.0, True, "abc", "7", None])
    def test_seed_must_be_an_integer(self, seed):
        """``int()`` read 2.9 as 2 and True as 1, and raised raw errors for "abc" and None."""
        with pytest.raises(ExperimentError, match="seed must be an integer"):
            ExperimentSpec(name="x", seed=seed)
        with pytest.raises(ExperimentError, match="seed must be an integer"):
            ExperimentSpec.from_dict({"name": "x", "seed": seed})

    def test_unknown_scale_rejected(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec(name="x", scale="galactic")

    def test_unknown_topology_override_rejected(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec(name="x", topology={"tier0_count": 3})

    def test_seed_topology_override_rejected(self):
        """The seed comes from spec.seed; a duplicate in the overrides would
        otherwise surface as an uncaught TypeError in build_topology()."""
        with pytest.raises(ExperimentError, match="seed"):
            ExperimentSpec(name="x", topology={"seed": 7})

    def test_explicit_scale_replaces_default_topology(self):
        """An explicitly requested scale must not be masked by the
        experiment's canonical topology overrides."""
        cls = get("blackhole-sweep")
        canonical = cls.default_spec().topology_parameters()
        assert canonical.transit_count == 25
        large = cls.default_spec(scale="large").topology_parameters()
        assert (large.tier1_count, large.transit_count, large.stub_count) == (8, 120, 700)

    def test_topology_parameters_merge_preset_and_overrides(self):
        spec = ExperimentSpec(name="x", seed=9, scale="small", topology={"transit_count": 33})
        parameters = spec.topology_parameters()
        assert parameters.seed == 9
        assert parameters.tier1_count == 3  # from the small preset
        assert parameters.transit_count == 33  # override wins
        assert parameters.stub_count == 80

    def test_build_topology_is_deterministic(self):
        spec = ExperimentSpec(name="x", seed=5, scale="small")
        first = spec.build_topology()
        second = spec.build_topology()
        assert sorted(a.asn for a in first) == sorted(a.asn for a in second)

    def test_with_params_and_replace(self):
        spec = ExperimentSpec(name="x", params={"a": 1})
        updated = spec.with_params(b=2).replace(seed=3)
        assert updated.params == {"a": 1, "b": 2}
        assert updated.seed == 3
        assert spec.params == {"a": 1} and spec.seed == 42  # original untouched


class TestResult:
    def test_json_round_trip(self):
        result = ExperimentResult(
            name="x",
            spec={"name": "x", "seed": 1},
            status=ExperimentStatus.OK,
            metrics={"value": 3},
            timings={"build": 0.5},
        )
        loaded = ExperimentResult.from_json(result.to_json())
        assert loaded == result

    def test_comparable_excludes_timings(self):
        one = ExperimentResult(name="x", spec={}, metrics={"v": 1}, timings={"build": 1.0})
        two = ExperimentResult(name="x", spec={}, metrics={"v": 1}, timings={"build": 9.9})
        assert one.comparable() == two.comparable()
        assert one.to_dict() != two.to_dict()

    def test_status_semantics(self):
        assert ExperimentResult(name="x", spec={}).succeeded
        assert not ExperimentResult(name="x", spec={}, status=ExperimentStatus.FAILED).succeeded


class TestRegistry:
    def test_builtin_experiments_registered(self):
        names = available()
        for expected in (
            "feasibility",
            "rtbh",
            "steering",
            "route-manipulation",
            "propagation-check",
            "blackhole-sweep",
            "rtbh-wild",
            "report",
        ):
            assert expected in names

    def test_get_returns_class_and_sets_name(self):
        cls = get("feasibility")
        assert issubclass(cls, Experiment)
        assert cls.name == "feasibility"

    def test_unknown_name_raises_with_catalogue(self):
        with pytest.raises(ExperimentError, match="available:"):
            get("definitely-not-registered")

    def test_register_and_run_custom_experiment(self):
        @register("test-custom")
        class CustomExperiment(Experiment):
            description = "unit-test experiment"
            parameters = (Param("value", 0, "int"),)

            def execute(self, ctx):
                return {"answer": ctx.spec.params["value"] * 2}

        try:
            spec = CustomExperiment.default_spec(value=21)
            result = run_experiment(spec)
            assert result.status is ExperimentStatus.OK
            assert result.metrics == {"answer": 42}
        finally:
            del registry_module._REGISTRY["test-custom"]

    def test_duplicate_name_rejected(self):
        @register("test-duplicate")
        class FirstExperiment(Experiment):
            def execute(self, ctx):
                return {}

        try:
            with pytest.raises(ExperimentError, match="already registered"):
                @register("test-duplicate")
                class SecondExperiment(Experiment):
                    def execute(self, ctx):
                        return {}
        finally:
            del registry_module._REGISTRY["test-duplicate"]


class TestLifecycle:
    def test_every_stage_timed(self):
        cls = get("route-manipulation")
        result = cls(cls.default_spec()).run()
        assert result.status is ExperimentStatus.OK
        assert set(result.timings) == set(LIFECYCLE_STAGES)
        assert all(timing >= 0 for timing in result.timings.values())

    def test_spec_name_mismatch_rejected(self):
        cls = get("rtbh")
        with pytest.raises(ExperimentError):
            cls(ExperimentSpec(name="feasibility"))

    def test_feasibility_metrics_match_direct_run(self):
        from repro.attacks.feasibility import build_feasibility_matrix

        cls = get("feasibility")
        experiment = cls(cls.default_spec(seed=5))
        result = experiment.run()
        matrix = build_feasibility_matrix(seed=5)
        assert result.metrics["seed"] == 5
        assert result.metrics["row_count"] == len(matrix.rows) == 8
        assert [row["difficulty"] for row in result.metrics["rows"]] == [
            row.difficulty.value for row in matrix.rows
        ]
        # The rendered text is byte-identical to the direct Table 3 render.
        assert experiment.render_text(result) == matrix.to_table().render()

    def test_validation_failure_is_failed_status(self):
        @register("test-failing")
        class FailingExperiment(Experiment):
            def execute(self, ctx):
                return {"ok": False}

            def validate(self, ctx, metrics):
                return False

        try:
            result = run_experiment(FailingExperiment.default_spec())
            assert result.status is ExperimentStatus.FAILED
            assert not result.succeeded
        finally:
            del registry_module._REGISTRY["test-failing"]

    def test_library_error_is_captured_as_error_status(self):
        @register("test-erroring")
        class ErroringExperiment(Experiment):
            def execute(self, ctx):
                raise ExperimentError("boom")

        try:
            result = run_experiment(ErroringExperiment.default_spec())
            assert result.status is ExperimentStatus.ERROR
            assert "boom" in result.error
            assert result.metrics == {}
        finally:
            del registry_module._REGISTRY["test-erroring"]

    def test_unknown_param_rejected(self):
        """A typo'd parameter must not silently run the default variant."""
        with pytest.raises(ExperimentError, match="hijakc"):
            get("rtbh").default_spec(hijakc=True)

    def test_hijack_spec_records_research_platform(self):
        """The replayable spec must name the platforms actually attached."""
        cls = get("rtbh-wild")
        assert cls.default_spec().platforms == ("peering", "atlas")
        assert cls.default_spec(hijack=True).platforms == ("research", "atlas")

    def test_canonical_experiments_reject_scale(self):
        """Figure-topology experiments fail loudly instead of recording a
        scale that never influenced the outcome."""
        for name in ("feasibility", "rtbh", "steering", "route-manipulation"):
            cls = get(name)
            result = run_experiment(cls.default_spec(scale="small"))
            assert result.status is ExperimentStatus.ERROR, name
            assert "canonical paper topology" in result.error

    def test_rtbh_hijack_param(self):
        cls = get("rtbh")
        result = run_experiment(cls.default_spec(hijack=True))
        assert result.status is ExperimentStatus.OK
        assert result.metrics["details"]["hijack"] is True
        assert result.metrics["attack_prefix"].endswith("/32")

    def test_steering_variants(self):
        cls = get("steering")
        both = run_experiment(cls.default_spec())
        assert set(both.metrics["variants"]) == {"prepend", "local-pref"}
        single = run_experiment(cls.default_spec(variant="local-pref"))
        assert set(single.metrics["variants"]) == {"local-pref"}
        bad = run_experiment(cls.default_spec(variant="teleport"))
        assert bad.status is ExperimentStatus.ERROR

    def test_results_serialize_for_replay(self):
        """Acceptance: registry -> spec -> result -> to_json for every scenario."""
        for name, params in [
            ("feasibility", {}),
            ("rtbh", {}),
            ("steering", {}),
            ("route-manipulation", {}),
        ]:
            cls = get(name)
            result = run_experiment(cls.default_spec(**params))
            assert result.status is ExperimentStatus.OK, name
            replayed = ExperimentResult.from_json(result.to_json())
            assert replayed.comparable() == result.comparable()


def _premise_cases():
    cases = [pytest.param(name, {}, id=name) for name in available()]
    cases.append(pytest.param("report", {"source": "harvest"}, id="report-source=harvest"))
    cases.append(pytest.param("rtbh-wild", {"hijack": True}, id="rtbh-wild-hijack=true"))
    return cases


@pytest.mark.usefixtures("collector_state")
class TestCollectorPause:
    """``Experiment.run`` pauses the cyclic collector; nothing it runs makes a cycle."""

    @pytest.mark.parametrize("name, params", _premise_cases())
    def test_a_run_leaves_no_cyclic_garbage(self, name, params):
        # Were a run to make cycles, the pause would hold them until the
        # collector next runs: this fails first.
        gc.collect()
        gc.disable()
        result = run_experiment(get(name).default_spec(seed=7, **params))
        assert result.status is ExperimentStatus.OK, result.error
        del result
        assert gc.collect() == 0

    @pytest.fixture()
    def recording_experiment(self):
        seen: list[bool] = []

        @register("test-collector-pause")
        class RecordingExperiment(Experiment):
            parameters = (
                Param("outcome", "ok", "choice", choices=("ok", "repro-error", "other-error")),
            )

            def execute(self, ctx):
                seen.append(gc.isenabled())
                if ctx.spec.params["outcome"] == "repro-error":
                    raise ExperimentError("boom")
                if ctx.spec.params["outcome"] == "other-error":
                    raise RuntimeError("boom")
                return {}

        try:
            yield RecordingExperiment, seen
        finally:
            del registry_module._REGISTRY["test-collector-pause"]

    @pytest.mark.parametrize("on_at_entry", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("outcome", ["ok", "repro-error", "other-error"])
    def test_paused_inside_and_restored_after(self, recording_experiment, on_at_entry, outcome):
        experiment_cls, seen = recording_experiment
        if on_at_entry:
            gc.enable()
        else:
            gc.disable()
        experiment = experiment_cls(experiment_cls.default_spec(outcome=outcome))
        if outcome == "other-error":
            with pytest.raises(RuntimeError, match="boom"):
                experiment.run()
        else:
            status = ExperimentStatus.OK if outcome == "ok" else ExperimentStatus.ERROR
            assert experiment.run().status is status
        assert seen == [False]
        assert gc.isenabled() is on_at_entry


class TestGrid:
    def test_expand_grid_is_deterministic_and_ordered(self):
        prefixes = ["203.0.113.0/24", "198.51.100.0/24"]
        specs = expand_grid(
            "route-manipulation",
            seeds=(1, 2),
            param_grid={"victim_prefix": prefixes},
        )
        assert [spec.seed for spec in specs] == [1, 1, 2, 2]
        assert [spec.params["victim_prefix"] for spec in specs] == prefixes * 2
        assert specs == expand_grid(
            "route-manipulation", seeds=(1, 2), param_grid={"victim_prefix": prefixes}
        )

    def test_parallel_equals_sequential(self):
        """Acceptance: a >=4-seed grid is identical parallel vs sequential."""
        specs = expand_grid("route-manipulation", seeds=(1, 2, 3, 4))
        runner = GridRunner(max_workers=2)
        sequential = runner.run_sequential(specs)
        parallel = runner.run(specs)
        assert [result.comparable() for result in sequential] == [
            result.comparable() for result in parallel
        ]
        assert [result.spec["seed"] for result in parallel] == [1, 2, 3, 4]

    def test_single_spec_grid_runs_in_process(self):
        specs = expand_grid("feasibility", seeds=(3,))
        results = GridRunner().run(specs)
        assert len(results) == 1 and results[0].status is ExperimentStatus.OK
        assert results[0].metrics["seed"] == 3

    def test_grid_survives_erroring_cells(self):
        # expand_grid refuses the bad variant up front, so the cells are built by hand.
        cls = get("steering")
        specs = [
            cls.default_spec(seed=seed, variant=variant)
            for seed in (1, 2)
            for variant in ("prepend", "bogus")
        ]
        results = GridRunner(max_workers=2).run(specs)
        assert [result.status for result in results] == [
            ExperimentStatus.OK,
            ExperimentStatus.ERROR,
            ExperimentStatus.OK,
            ExperimentStatus.ERROR,
        ]


@pytest.fixture()
def worker_death_experiment(tmp_path):
    """A grid cell that SIGKILLs its own worker once the other cells finished.

    Each finished cell touches a file in the ``markers`` directory.
    """
    markers = tmp_path / "markers"
    markers.mkdir()

    @register("grid-worker-death")
    class WorkerDeathExperiment(Experiment):
        description = "kills its own grid worker in one cell (unit tests only)"
        parameters = (Param("cell", 0, "int"), Param("die", False, "bool"))

        def execute(self, ctx):
            cell = self.int_param("cell")
            if self.bool_param("die"):
                # Wait until the two surviving cells have run, so which
                # cells complete does not depend on scheduling.
                deadline = time.monotonic() + 30
                while len(list(markers.iterdir())) < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
                time.sleep(0.2)  # let their results reach the parent
                os.kill(os.getpid(), signal.SIGKILL)
            (markers / str(cell)).touch()
            return {"cell": cell}

    try:
        yield WorkerDeathExperiment
    finally:
        del registry_module._REGISTRY["grid-worker-death"]


class TestGridWorkerDeath:
    def test_killed_worker_becomes_an_error_cell_and_the_rest_survive(
        self, worker_death_experiment, tmp_path
    ):
        specs = [worker_death_experiment.default_spec(cell=cell, die=cell == 1) for cell in range(3)]
        path = tmp_path / "results.jsonl"
        results = GridRunner(max_workers=2).run(specs, output_path=str(path))

        assert [result.status for result in results] == [
            ExperimentStatus.OK,
            ExperimentStatus.ERROR,
            ExperimentStatus.OK,
        ]
        assert [results[0].metrics, results[2].metrics] == [{"cell": 0}, {"cell": 2}]
        assert results[1].spec == specs[1].to_dict()
        assert results[1].error.startswith("BrokenProcessPool: a grid worker died before cell 1")
        # Every cell is streamed to disk in spec order, the dead one included.
        assert [r.comparable() for r in load_results(str(path))] == [
            r.comparable() for r in results
        ]
        # The broken pool took its surviving worker down with it.
        assert multiprocessing.active_children() == []


class TestGridPersistence:
    def test_run_streams_results_to_disk_and_replays(self, tmp_path):
        specs = expand_grid("route-manipulation", seeds=(1, 2, 3))
        path = tmp_path / "results.jsonl"
        runner = GridRunner(max_workers=2)
        results = runner.run(specs, output_path=str(path))
        assert len(path.read_text().strip().splitlines()) == 3
        replayed = load_results(str(path))
        assert [result.comparable() for result in replayed] == [
            result.comparable() for result in results
        ]
        # The replay is bit-faithful: timings survive the round trip too.
        assert [result.timings for result in replayed] == [
            result.timings for result in results
        ]

    def test_sequential_run_streams_too(self, tmp_path):
        specs = expand_grid("route-manipulation", seeds=(5,))
        path = tmp_path / "single.jsonl"
        results = GridRunner().run(specs, parallel=False, output_path=str(path))
        assert [r.comparable() for r in load_results(str(path))] == [
            results[0].comparable()
        ]

    def test_write_results_appends(self, tmp_path):
        specs = expand_grid("route-manipulation", seeds=(1,))
        [result] = GridRunner().run(specs, parallel=False)
        path = tmp_path / "log.jsonl"
        assert write_results(str(path), [result]) == 1
        assert write_results(str(path), [result], append=True) == 1
        assert len(load_results(str(path))) == 2


class TestDamagedResultFiles:
    """A results file a crashed grid left: errors name the path and the line."""

    @pytest.mark.parametrize(
        "cut",
        [
            lambda line: line[: len(line) // 2],
            lambda line: "3",
            lambda line: line.replace("{}", "5"),  # "spec": 5 is no mapping
        ],
        ids=["cut-off", "not-an-object", "bad-field"],
    )
    def test_damaged_last_line(self, tmp_path, cut):
        line = ExperimentResult(name="x", spec={}, metrics={"v": 1}).to_json()
        path = tmp_path / "crashed.jsonl"
        path.write_text(line + "\n" + cut(line))
        with pytest.raises(ExperimentError, match=re.escape(f"{path}:2: not an experiment result")):
            load_results(str(path))

    def test_unknown_status(self, tmp_path):
        record = {**ExperimentResult(name="x", spec={}).to_dict(), "status": "bogus"}
        with pytest.raises(ExperimentError, match="status 'bogus'"):
            ExperimentResult.from_dict(record)
        path = tmp_path / "bogus.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ExperimentError, match=re.escape(f"{path}:1: ") + ".*'bogus'"):
            load_results(str(path))


class _InlineExecutor:
    """A ``ProcessPoolExecutor`` stand-in that records its size and runs inline."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        from concurrent.futures import Future

        future = Future()
        future.set_result(fn(*args))
        return future


class TestWorkerBudget:
    @pytest.fixture()
    def inline_pool(self, monkeypatch):
        from repro.experiments import grid as grid_module

        monkeypatch.setattr(grid_module, "ProcessPoolExecutor", _InlineExecutor)
        monkeypatch.setattr(_InlineExecutor, "sizes", [])
        return _InlineExecutor.sizes

    def test_max_workers_is_an_additional_cap(self, inline_pool, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        specs = expand_grid("route-manipulation", seeds=range(1, 11))
        results = GridRunner(max_workers=3).run(specs)
        assert inline_pool == [3]
        assert [result.status for result in results] == [ExperimentStatus.OK] * 10

    @pytest.mark.parametrize("spec_count, cpus, workers", [(2, 8, 2), (10, 4, 4), (3, None, 1)])
    def test_grid_runs_one_worker_per_spec_up_to_the_cpu_count(
        self, inline_pool, monkeypatch, spec_count, cpus, workers
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        GridRunner().run(expand_grid("route-manipulation", seeds=range(spec_count)))
        assert inline_pool == [workers]

    def test_invalid_shards_param_is_captured(self):
        """A spec still carrying the deleted ``shards`` parameter (one
        replayed from an older results file) is an error result, not a
        silent in-process run."""
        spec = get("feasibility").default_spec(seed=3).with_params(shards="bogus")
        result = run_experiment(spec)
        assert result.status is ExperimentStatus.ERROR
        assert "shards" in (result.error or "")

    @pytest.mark.parametrize("shards", [0, -3, "0", "-3"])
    def test_non_positive_shards_param_is_rejected_like_a_malformed_one(self, shards):
        # Zero and negative counts used to be coerced to 1 without a word;
        # now every ``shards`` value is an unknown parameter.
        spec = get("feasibility").default_spec(seed=3)
        bad = run_experiment(spec.with_params(shards=shards))
        malformed = run_experiment(spec.with_params(shards="banana"))
        assert bad.status is malformed.status is ExperimentStatus.ERROR
        assert bad.error == malformed.error
        assert bad.error.startswith("ExperimentError: unknown parameter(s) for 'feasibility': shards")

    @pytest.mark.parametrize(
        "name, param, value",
        [
            ("rtbh-wild", "upstream_count", 3.7),
            ("rtbh-wild", "upstream_count", True),
            ("rtbh-wild", "probes", float("nan")),
        ],
    )
    def test_non_integral_integer_params_are_rejected_not_truncated(self, name, param, value):
        # int() used to run the first two with 3 upstreams and 1 upstream.
        result = run_experiment(get(name).default_spec(seed=3, **{param: value}))
        assert result.status is ExperimentStatus.ERROR
        assert result.error.startswith(f"ExperimentError: experiment parameter {param!r} must be")
        assert repr(value) in result.error

    @pytest.mark.parametrize(
        "name, param, value",
        [
            ("blackhole-sweep", "probes", -5),
            ("blackhole-sweep", "probes", 0),
            ("rtbh-wild", "upstream_count", -2),
            ("rtbh-wild", "min_hops_to_target", -1),
        ],
    )
    def test_negative_counts_are_rejected_by_name_not_by_random_sample(self, name, param, value):
        # Negative probes and upstream_count used to die with a raw ValueError
        # out of random.sample; zero probes with a ProbingError that did not
        # name the parameter (an Atlas platform needs one probe).
        minimum = {"probes": 1}.get(param, 0)
        result = run_experiment(get(name).default_spec(seed=3, **{param: value}))
        assert result.status is ExperimentStatus.ERROR
        assert result.error == (
            f"ExperimentError: experiment parameter {param!r} must be an integer >= {minimum}, got {value!r}"
        )

    def test_upstream_count_is_refused_where_no_peering_platform_reads_it(self):
        # The hijack variant runs from the research network, so the count
        # used to be recorded in the spec while every metric ignored it.
        cls = get("rtbh-wild")
        spec = cls.default_spec(seed=3, hijack=True, upstream_count=0)
        replayed = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        for candidate in (spec, replayed):
            result = run_experiment(candidate)
            assert result.status is ExperimentStatus.ERROR
            assert result.error.startswith("ExperimentError: experiment parameter 'upstream_count'")
        assert run_experiment(cls.default_spec(seed=3, upstream_count=3)).status is ExperimentStatus.OK

    def test_steering_hijack_is_refused_where_no_prepend_variant_reads_it(self):
        # The local-pref variant never reads the flag, yet the spec recorded it.
        cls = get("steering")
        result = run_experiment(cls.default_spec(variant="local-pref", hijack=True))
        assert result.status is ExperimentStatus.ERROR
        assert result.error.startswith("ExperimentError: experiment parameter 'hijack'")
        for variant in ("prepend", "both"):
            assert run_experiment(cls.default_spec(variant=variant, hijack=True)).status is ExperimentStatus.OK
        assert run_experiment(cls.default_spec(variant="local-pref", hijack=False)).status is ExperimentStatus.OK

    @pytest.mark.parametrize(
        "name, param",
        [
            ("rtbh", "hijack"),
            ("steering", "hijack"),
            ("rtbh-wild", "hijack"),
            ("blackhole-sweep", "confirm"),
            ("blackhole-sweep", "include_well_known"),
        ],
    )
    @pytest.mark.parametrize("value", ["False", "false", "maybe", 0, 1, None])
    def test_boolean_params_accept_json_booleans_only(self, name, param, value):
        # bool("False") is True: these all used to run the true variant with status ok.
        result = run_experiment(get(name).default_spec(seed=3, **{param: value}))
        assert result.status is ExperimentStatus.ERROR
        assert result.error == (
            f"ExperimentError: experiment parameter {param!r} must be true or false, got {value!r}"
        )

    def test_bool_param_returns_the_json_boolean(self):
        cls = get("blackhole-sweep")
        experiment = cls(cls.default_spec(seed=3, confirm=False))
        assert experiment.bool_param("confirm") is False
        assert experiment.bool_param("include_well_known") is True

    def test_integral_floats_and_digit_strings_still_count_as_integers(self):
        cls = get("rtbh-wild")
        experiment = cls(cls.default_spec(seed=3, probes=5.0, upstream_count="2"))
        assert experiment.int_param("probes") == 5
        assert experiment.int_param("upstream_count") == 2


def _declared_cases():
    return [
        pytest.param(name, param, id=f"{name}-{param.name}")
        for name in available()
        for param in get(name).declared().values()
    ]


def _other_value(param: Param):
    """A legal value of ``param`` other than its default."""
    if param.kind == "bool":
        return not param.default
    if param.kind == "choice":
        return next(choice for choice in param.choices if choice != param.default)
    if param.kind == "prefix":
        return next(p for p in ("198.51.100.0/24", "203.0.113.0/24") if p != param.default)
    return param.default + 1 if param.maximum is None or param.default < param.maximum else param.default - 1


@functools.lru_cache(maxsize=None)
def _default_metrics(name: str) -> dict:
    return run_experiment(get(name).default_spec(seed=7)).metrics


class TestParameterTable:
    """Each experiment's ``parameters`` (and its platforms') is the one declaration
    of every ``--param``: checked before any stage runs, and every entry live."""

    @pytest.mark.parametrize("name, param", _declared_cases())
    def test_every_declared_parameter_changes_the_metrics(self, name, param):
        # Metrics, not comparable(): that embeds spec.params, which any
        # value changes whether the run reads it or not.
        value = _other_value(param)
        result = run_experiment(get(name).default_spec(seed=7, **{param.name: value}))
        assert result.status is ExperimentStatus.OK, result.error
        assert result.metrics != _default_metrics(name), f"{name} {param.name}={value!r} changed no metric"

    @pytest.mark.parametrize(
        "name, axes, base, param",
        [
            ("rtbh-wild", {"hijack": [False, True]}, {"upstream_count": 3}, "upstream_count"),
            ("blackhole-sweep", {"probes": [10, "x"]}, {}, "probes"),
            ("steering", {"variant": ["prepend", "local-pref"]}, {"hijack": True}, "hijack"),
        ],
    )
    def test_expand_grid_refuses_a_bad_cell_before_any_runs(self, name, axes, base, param):
        with pytest.raises(ExperimentError, match=f"experiment parameter {param!r}"):
            expand_grid(name, param_grid=axes, **base)

    @pytest.mark.parametrize(
        "spec, named",
        [
            (get("report").default_spec(source="mrt"), ["source"]),
            (get("steering").default_spec(variant="sideways"), ["variant"]),
            (get("propagation-check").default_spec(community_value=0x10000), ["community_value"]),
            (
                ExperimentSpec.from_dict(
                    {**get("rtbh-wild").default_spec().to_dict(), "platforms": ["bogus", "atlas"]}
                ),
                ["bogus"],
            ),
            # The atlas platform deploys `probes` probes, which this experiment does not declare.
            (
                ExperimentSpec.from_dict(
                    {
                        **get("propagation-check").default_spec().to_dict(),
                        "platforms": ["peering", "research", "collectors", "atlas"],
                    }
                ),
                ["atlas", "probes"],
            ),
        ],
        ids=["report-source", "steering-variant", "community-value", "bogus-platform", "atlas-without-probes"],
    )
    def test_a_bad_spec_fails_before_the_build_stage(self, spec, named):
        result = run_experiment(spec)
        assert result.status is ExperimentStatus.ERROR
        assert result.timings == {}
        assert result.error.startswith("ExperimentError: ")
        assert all(repr(name) in result.error for name in named)

    def test_an_unread_setting_is_no_parameter(self):
        # member_count and inferred_count changed no metric at any value.
        with pytest.raises(ExperimentError, match="unknown parameter.*member_count"):
            get("route-manipulation").default_spec(member_count=8)
        with pytest.raises(ExperimentError, match="unknown parameter.*inferred_count"):
            get("blackhole-sweep").default_spec(inferred_count=8)
