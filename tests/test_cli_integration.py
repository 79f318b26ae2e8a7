"""CLI tests and end-to-end integration tests across subsystems."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.cli import build_parser, main
from repro.experiments import Experiment, register
from repro.experiments import registry as registry_module
from repro.collectors.observation import ObservationArchive
from repro.collectors.platform import Collector, CollectorDeployment, CollectorPlatform
from repro.attacks.scenario import build_figure7_topology
from repro.bgp.community import BLACKHOLE, Community, CommunitySet
from repro.bgp.prefix import Prefix
from repro.measurement.propagation import classify_communities
from repro.measurement.usage import overall_update_community_fraction
from repro.routing.engine import BgpSimulator

#: The ``--param`` fuzz: each bad value, and the token that spells it on the CLI.
FUZZ_VALUES = ["x", None, -1, float("nan"), float("inf"), [], {}, ""]
FUZZ_TOKENS = ["x", "null", "-1", "NaN", "1e309", "[]", "{}", '""']

#: Prefix text that ``int()`` parsing accepted, misread (``-1::`` became
#: ``ffff::``) or crashed on with a raw ``ValueError`` (``²``, 5000 digits).
HOSTILE_PREFIXES = {
    "superscript-octet": "1.2.3.\u00b2/24",
    "negative-group": "-1::/16",
    "0x-group": "2a00::0x1/64",
    "plus-group": "2a00::+f/64",
    "underscore-group": "2a00::1_0/64",
    "underscore-length": "10.0.0.0/2_4",
    "plus-length": "10.0.0.0/+24",
    "minus-length": "10.0.0.0/-0",
    "blank-length": "10.0.0.0/ 24",
    "arabic-indic-octet": "\u0661\u0660.0.0.0/8",
    "5000-digit-octet": "1" * 5000 + ".0.0.0/8",
}


def _fuzz_targets() -> list[tuple[str, str]]:
    from repro.experiments import available, get

    return [
        (name, param)
        for name in available()
        for param in sorted(get(name).declared())
    ]


FUZZ_TARGETS = _fuzz_targets()


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "report", "--scale", "small", "--seed", "1"])
        assert (args.command, args.experiment) == ("run", "report")
        assert args.seed == 1

    @pytest.mark.parametrize("seed", [[], ["--seed", "7"]], ids=["default-seed", "seed-7"])
    def test_run_feasibility_prints_table3(self, seed, capsys):
        assert main(["run", "feasibility", *seed]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "Blackholing" in out

    def test_run_propagation_check_names_both_platforms(self, capsys):
        assert main(["run", "propagation-check", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "PEERING" in out
        assert "research-network" in out

    def test_export_mrt_command(self, tmp_path, capsys):
        output = tmp_path / "dump.mrt"
        assert main(["export-mrt", str(output), "--scale", "small", "--seed", "5"]) == 0
        assert output.exists()
        assert output.stat().st_size > 0
        loaded = ObservationArchive.from_mrt(output)
        assert len(loaded) > 100

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("alias", ["report", "attacks", "sweep", "propagation"])
    def test_removed_alias_is_an_argparse_error(self, alias, capsys):
        """The aliases of ``run report`` / ``feasibility`` / ``blackhole-sweep`` /
        ``propagation-check`` are gone."""
        with pytest.raises(SystemExit) as excinfo:
            main([alias])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_lint_is_an_unknown_subcommand(self, capsys):
        """Determinism is checked by running the outputs, not by a source lint."""
        with pytest.raises(SystemExit) as excinfo:
            main(["lint"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("output", ["missing/x.mrt", "."], ids=["missing-directory", "directory"])
    def test_export_mrt_to_an_unwritable_path_exits_2(self, output, tmp_path, capsys):
        assert main(["export-mrt", str(tmp_path / output)]) == 2
        assert capsys.readouterr().err.startswith("error: [Errno ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("output", ["missing/x.jsonl", "."], ids=["missing-directory", "directory"])
    def test_run_output_to_an_unwritable_path_exits_2(self, output, tmp_path, capsys):
        assert main(["run", "rtbh", "--output", str(tmp_path / output)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: [Errno ")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestRegistryCli:
    def test_list_names_every_experiment(self, capsys):
        from repro.experiments import available

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in available():
            assert name in out

    def test_list_json(self, capsys):
        assert main(["list", "--json"]) == 0
        catalogue = json.loads(capsys.readouterr().out)
        assert catalogue["feasibility"]["section"] == "Section 6"
        assert catalogue["feasibility"]["params"] == {}
        assert catalogue["rtbh-wild"]["params"]["upstream_count"] == {
            "kind": "int", "default": 10, "minimum": 0, "platform": "peering"
        }
        assert catalogue["propagation-check"]["params"]["community_value"]["maximum"] == 65535
        assert catalogue["steering"]["params"]["hijack"]["needs"] == {"variant": ["both", "prepend"]}
        assert catalogue["report"]["params"]["source"]["choices"] == ["synthetic", "harvest"]

    def test_list_prints_every_parameter_from_the_table(self, capsys):
        from repro.experiments import available, get

        assert main(["list"]) == 0
        rows = {tuple(line.split()[:3]) for line in capsys.readouterr().out.splitlines()}
        for name in available():
            for key, param in get(name).declared().items():
                assert (key, param.kind, json.dumps(param.default)) in rows, (name, key)

    def test_run_unknown_experiment_exits_2(self, capsys):
        assert main(["run", "not-an-experiment"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_json_result_round_trips(self, capsys):
        from repro.experiments import ExperimentResult

        assert main(["run", "route-manipulation", "--json"]) == 0
        result = ExperimentResult.from_json(capsys.readouterr().out)
        assert result.name == "route-manipulation"
        assert result.status.value == "ok"
        assert result.metrics["succeeded"] is True
        assert set(result.timings) == {"build", "attach", "seed", "execute", "validate"}

    def test_run_param_overrides(self, capsys):
        assert main(["run", "rtbh", "--param", "hijack=true", "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["spec"]["params"]["hijack"] is True
        assert result["metrics"]["details"]["hijack"] is True

    def test_run_bad_param_syntax_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "rtbh", "--param", "hijack"])


class TestRunDropsTheExperiment:
    """``run`` renders from the result alone, after the experiment that made it is gone."""

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_the_experiment_is_freed_before_the_result_is_printed(self, flags, capsys, monkeypatch):
        runs: list[weakref.ref] = []
        alive_when_printed: list[bool] = []

        @register("test-cli-drop")
        class ProbeExperiment(Experiment):
            def execute(self, ctx):
                runs.append(weakref.ref(self))
                return {}

            def render_text(self, result):
                return "rendered"

        def printed(*args, **kwargs):
            alive_when_printed.append(runs[0]() is not None)

        monkeypatch.setattr("builtins.print", printed)
        try:
            assert main(["run", "test-cli-drop", *flags]) == 0
        finally:
            del registry_module._REGISTRY["test-cli-drop"]
        # Freed by reference counting alone: its run state is not
        # walked again once the collector resumes.
        assert alive_when_printed == [False]


class TestEndToEnd:
    def test_simulator_to_collectors_to_measurement(self):
        """Full path: announce with communities, collect, classify, measure."""
        topology = build_figure7_topology()
        simulator = BgpSimulator(topology)
        victim = Prefix.from_string("203.0.113.0/24")
        simulator.announce(
            1, victim, communities=CommunitySet.of("1:100", str(Community(3, 666)))
        )
        deployment = CollectorDeployment(
            [
                CollectorPlatform(
                    "RIS", [Collector("ris-00", "RIS", peer_asns=[2, 4])]
                )
            ]
        )
        archive = deployment.collect_from_simulator(simulator)
        assert len(archive) >= 2
        assert overall_update_community_fraction(archive) > 0
        items = classify_communities(archive)
        assert any(item.on_path for item in items)

    def test_archive_mrt_roundtrip_preserves_measurement(self, archive, tmp_path):
        """Writing the synthetic archive to MRT and reading it back must not
        change the headline community statistics (for IPv4 observations)."""
        ipv4 = [o for o in archive if o.prefix.is_ipv4]
        sample = ObservationArchive(ipv4[:500])
        path = tmp_path / "sample.mrt"
        sample.write_mrt(path)
        loaded = ObservationArchive.from_mrt(path)
        assert len(loaded) == len(sample)
        assert loaded.unique_communities() == sample.unique_communities()
        original_fraction = overall_update_community_fraction(sample)
        loaded_fraction = overall_update_community_fraction(loaded)
        assert loaded_fraction == pytest.approx(original_fraction)

    def test_blackhole_end_to_end_data_plane(self):
        """Community-triggered blackholing shows up consistently on control and data plane."""
        from repro.dataplane.forwarding import DataPlane, ForwardingOutcome

        topology = build_figure7_topology()
        topology.get_as(4).services = None  # the drop happens at AS3 alone
        simulator = BgpSimulator(topology)
        victim = Prefix.from_string("203.0.113.0/24")
        attacker = simulator.router(2)
        for neighbor in attacker.neighbors():
            attacker.export_community_additions[neighbor] = CommunitySet.of(
                Community(3, 666), BLACKHOLE
            )
        simulator.announce(1, victim)
        best = simulator.best_route(3, victim)
        assert best is not None and best.blackholed
        plane = DataPlane(simulator)
        trace = plane.traceroute(4, victim.host(1), victim.family)
        assert trace.outcome == ForwardingOutcome.BLACKHOLED


class TestRunOutputFile:
    def test_run_output_writes_replayable_json_lines(self, tmp_path, capsys):
        from repro.experiments import load_results

        path = tmp_path / "result.jsonl"
        assert main(["run", "route-manipulation", "--output", str(path)]) == 0
        capsys.readouterr()
        [replayed] = load_results(str(path))
        assert replayed.name == "route-manipulation"
        assert replayed.succeeded
        assert replayed.spec["name"] == "route-manipulation"

    def test_run_output_composes_with_json_and_params(self, tmp_path, capsys):
        from repro.experiments import load_results

        path = tmp_path / "rtbh.jsonl"
        assert (
            main(
                [
                    "run",
                    "rtbh",
                    "--param",
                    "hijack=true",
                    "--param",
                    "victim_prefix=203.0.113.0/24",
                    "--json",
                    "--output",
                    str(path),
                ]
            )
            == 0
        )
        printed = json.loads(capsys.readouterr().out)
        [replayed] = load_results(str(path))
        assert replayed.to_dict() == printed
        assert replayed.spec["params"]["victim_prefix"] == "203.0.113.0/24"


class TestRunParamErrors:
    """``run --param`` mistakes fail with a clear error naming the token."""

    def test_malformed_param_exits_2_naming_token(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "rtbh", "--param", "hijack"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "expected KEY=VALUE" in err
        assert "'hijack'" in err

    def test_flag_passed_as_param_exits_2_with_hint(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "rtbh", "--param", "scale=small"])
        assert excinfo.value.code == 2
        assert "use --scale instead of --param" in capsys.readouterr().err

    def test_unknown_param_exits_2_naming_experiment_and_token(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "rtbh", "--param", "hijak=true"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown parameter 'hijak'" in err
        assert "'rtbh'" in err
        assert "hijak=true" in err
        assert "known:" in err

    def test_non_integer_value_is_a_clean_experiment_error(self, capsys):
        """A bad value surfaces as a captured error result, not a traceback."""
        assert main(["run", "blackhole-sweep", "--param", "probes=xyz", "--json"]) == 1
        result = json.loads(capsys.readouterr().out)
        assert result["status"] == "error"
        assert "'probes' must be an integer" in result["error"]
        assert "'xyz'" in result["error"]

    @pytest.mark.parametrize(
        "name, token",
        [
            ("rtbh", "hijack=False"),  # not JSON, so it stays the string "False"
            ("rtbh", 'hijack="false"'),
            ("rtbh", "hijack=maybe"),
            ("steering", "hijack=maybe"),
            ("rtbh-wild", "hijack=maybe"),
            ("blackhole-sweep", "confirm=no"),
            ("blackhole-sweep", "include_well_known=0"),
            ("blackhole-sweep", "probes=-5"),
            ("blackhole-sweep", "probes=0"),  # an Atlas platform needs one vantage point
            ("rtbh-wild", "probes=0"),
            ("rtbh-wild", "upstream_count=-2"),
            ("rtbh-wild", "min_hops_to_target=-1"),
            ("report", "source=mrt"),
            ("steering", "variant=sideways"),
            ("propagation-check", "community_value=65536"),
        ],
    )
    def test_bad_boolean_or_negative_count_exits_1_without_a_traceback(self, name, token, capsys):
        """Strings used to read as True; negative counts died inside ``random.sample``."""
        assert main(["run", name, "--param", token]) == 1
        captured = capsys.readouterr()
        assert f"experiment parameter {token.partition('=')[0]!r} must be" in captured.err
        assert "Traceback" not in captured.err and not captured.out

    def test_upstream_count_with_the_hijack_variant_exits_1_naming_it(self, capsys):
        """The hijack variant attaches no PEERING platform, so nothing reads the count."""
        argv = ["run", "rtbh-wild", "--param", "hijack=true", "--param", "upstream_count=0"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "experiment parameter 'upstream_count'" in captured.err
        assert "Traceback" not in captured.err and not captured.out

    @pytest.mark.parametrize("name, param", FUZZ_TARGETS)
    def test_param_fuzz_ends_in_an_error_naming_the_parameter(self, name, param, capsys):
        """Every parameter of every experiment, every bad value: an error, never a raise."""
        from repro.experiments import ExperimentStatus, get, run_experiment

        for value, token in zip(FUZZ_VALUES, FUZZ_TOKENS):
            result = run_experiment(get(name).default_spec(seed=3, **{param: value}))
            assert result.status is ExperimentStatus.ERROR, (param, value)
            assert repr(param) in result.error, (param, value, result.error)
            code = main(["run", name, "--seed", "3", "--param", f"{param}={token}"])
            captured = capsys.readouterr()
            assert code != 0, (param, token)
            assert repr(param) in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "name, token",
        [("route-manipulation", "member_count=2"), ("blackhole-sweep", "inferred_count=8")],
    )
    def test_params_that_changed_no_metric_are_unknown(self, name, token, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", name, "--param", token])
        assert excinfo.value.code == 2
        assert f"unknown parameter {token.partition('=')[0]!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["shards=2", "residency=auto"])
    def test_removed_shard_params_are_unknown(self, token, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "rtbh", "--param", token])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"unknown parameter {token.partition('=')[0]!r}" in err
        assert "known: hijack, victim_prefix" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["stream", "-", "--shards", "2"],
            ["export-mrt", "{tmp}/x.mrt", "--source", "harvest", "--shards", "2"],
            ["run", "rtbh", "--residency", "auto"],
        ],
        ids=["stream", "export-mrt", "run"],
    )
    def test_removed_shard_flags_are_argparse_errors(self, argv, tmp_path, capsys):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "x.mrt").exists()


class TestStreamCli:
    def _origins(self, seed):
        from repro.experiments import ExperimentSpec

        topology = ExperimentSpec(name="report", seed=seed, scale="small").build_topology()
        return sorted(asys.asn for asys in topology)

    def test_stream_file_end_to_end(self, tmp_path, capsys):
        asns = self._origins(9)
        path = tmp_path / "events.jsonl"
        lines = ["# churn burst"]
        for index in range(4):
            lines.append(json.dumps({"origin": asns[0], "prefix": f"10.9.{index}.0/24"}))
        # Re-announce + withdraw of the same key: coalesced away.
        lines.append(json.dumps({"origin": asns[0], "prefix": "10.9.0.0/24"}))
        lines.append(json.dumps({"origin": asns[0], "prefix": "10.9.0.0/24", "withdraw": True}))
        path.write_text("\n".join(lines) + "\n")

        assert (
            main(
                ["stream", str(path), "--scale", "small", "--seed", "9", "--window", "3", "--json"]
            )
            == 0
        )
        summary = json.loads(capsys.readouterr().out)
        assert summary["events_seen"] == 6
        assert summary["events_applied"] == summary["events_seen"] - summary["events_coalesced"]
        assert summary["batches"] >= 1
        assert summary["prefixes"] >= 3
        assert summary["announcements_processed"] > 0

    def test_stream_reads_stdin(self, capsys, monkeypatch):
        import io

        asns = self._origins(9)
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps({"origin": asns[0], "prefix": "10.9.0.0/24"}) + "\n")
        )
        assert main(["stream", "-", "--scale", "small", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "1 events in" in out
        assert "prefixes converged" in out

    def test_stream_bad_line_exits_2_with_line_number(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_text('{"origin": 1, "prefix": "10.0.0.0/24", "nope": 1}\n')
        assert main(["stream", str(path), "--scale", "small", "--seed", "9"]) == 2
        err = capsys.readouterr().err
        assert "stream line 1" in err
        assert "nope" in err

    @pytest.mark.parametrize(
        "field, token",
        [("origin", "1.5"), ("withdraw", '"false"'), ("communities", '"x"'), ("spoofed_origin", "true")],
    )
    def test_stream_fuzzed_field_exits_2_without_a_traceback(self, field, token, capsys, monkeypatch):
        import io

        record = {"origin": 65001, "prefix": "10.0.0.0/24", field: json.loads(token)}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(record) + "\n"))
        assert main(["stream", "-", "--seed", "9"]) == 2
        err = capsys.readouterr().err
        assert f"stream line 1: stream event field {field!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_stream_input_that_is_not_utf8_exits_2_naming_the_source(
        self, source, tmp_path, capsys, monkeypatch
    ):
        import io

        path = tmp_path / "events.jsonl"
        path.write_bytes(b"\xff\n")
        if source == "stdin":
            # As Python's UTF-8 mode opens stdin: undecodable bytes escaped, not refused.
            stdin = io.TextIOWrapper(io.BytesIO(b"\xff\n"), encoding="utf-8", errors="surrogateescape")
            monkeypatch.setattr("sys.stdin", stdin)
        events, named = (str(path), repr(str(path))) if source == "file" else ("-", "standard input")
        assert main(["stream", events, "--scale", "small", "--seed", "9"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: events from {named} are not UTF-8 text: ")
        assert "Traceback" not in err

    def test_stream_window_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["stream", "-", "--window", "0"])
        assert excinfo.value.code == 2
        assert "argument --window: must be a positive integer, got '0'" in capsys.readouterr().err


#: ``export-mrt`` arguments, each drawn valid or hostile; a ``None`` leaves the flag out.
_EXPORT_SEEDS = st.one_of(
    st.none(),
    st.integers(-(2**64), 2**64).map(str),
    st.sampled_from(["x", "", "1.5", "0x10", "NaN", "--", "1e3", "\u0667"]),
)
#: The one valid scale drawn is the small default, so a real export stays fast.
_EXPORT_SCALES = st.sampled_from([None, "small", "huge", "", "SMALL", "smal", "--seed"])
_EXPORT_SOURCES = st.sampled_from([None, "synthetic", "harvest", "mrt", "", "Harvest"])
_EXPORT_OUTPUTS = st.sampled_from(
    ["out.mrt", "missing/out.mrt", ".", "", "-", "\u00fcnicode.mrt", "out.mrt/x"]
)


class TestExportMrtFuzz:
    @settings(deadline=None, max_examples=12, suppress_health_check=[HealthCheck.too_slow])
    @given(_EXPORT_SEEDS, _EXPORT_SCALES, _EXPORT_SOURCES, _EXPORT_OUTPUTS)
    @example("7", "small", "synthetic", "out.mrt")
    @example("-5", None, "harvest", "out.mrt")
    @example(None, "small", None, "missing/out.mrt")
    @example("x", "small", "harvest", "out.mrt")
    def test_every_draw_writes_the_records_or_exits_2_without_a_traceback(
        self, seed, scale, source, output
    ):
        """Exit 0 with the records written, or exit 2 with ``error:`` or a usage line."""
        argv = ["export-mrt"]
        for flag, value in (("--seed", seed), ("--scale", scale), ("--source", source)):
            if value is not None:
                argv += [flag, value]
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / output
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main([*argv, str(path)])
                except SystemExit as exit_:
                    code = exit_.code
            assert "Traceback" not in err.getvalue()
            if code == 0:
                count = int(out.getvalue().split()[1])
                assert out.getvalue() == f"wrote {count} MRT records to {path}\n"
                assert len(ObservationArchive.from_mrt(path)) == count > 0
            else:
                assert code == 2, (argv, output, code, err.getvalue())
                assert err.getvalue().startswith("error:") or "usage:" in err.getvalue()
                assert not out.getvalue() and not list(Path(directory).iterdir())


class TestStrictPrefixText:
    @pytest.mark.parametrize("text", list(HOSTILE_PREFIXES.values()), ids=list(HOSTILE_PREFIXES))
    def test_hostile_prefix_text_is_an_error_naming_the_field(self, text, capsys, monkeypatch):
        import io

        from repro.exceptions import PrefixError, RoutingError
        from repro.routing.stream import read_event_stream

        with pytest.raises(PrefixError):
            Prefix.from_string(text)
        line = json.dumps({"origin": 65001, "prefix": text})
        with pytest.raises(RoutingError, match="^stream line 1: bad stream event prefix .* in field 'prefix'"):
            list(read_event_stream([line]))
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        assert main(["stream", "-", "--scale", "small", "--seed", "9"]) == 2
        err = capsys.readouterr().err
        assert "'prefix'" in err and "Traceback" not in err
        assert main(["run", "rtbh", "--param", f"victim_prefix={text}"]) == 1
        err = capsys.readouterr().err
        assert "experiment parameter 'victim_prefix' must be a prefix" in err and "Traceback" not in err

    def test_plain_prefix_text_still_parses(self):
        assert Prefix.from_string("2001:DB8:0:0:0:0:0:1/128") == Prefix.from_string("2001:db8::1/128")
        assert str(Prefix.from_string(" 010.0.0.255/8 ")) == "10.0.0.0/8"
        assert str(Prefix.from_string("0.0.0.0/0")) == "0.0.0.0/0"
        assert str(Prefix.from_string("::/0")) == "::/0"
