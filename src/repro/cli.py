"""Command-line interface: ``repro-bgp``.

The CLI is registry-driven: every scenario in the repo is a registered
experiment (see :mod:`repro.experiments`) and runs through the common
spec -> lifecycle -> result pipeline.

Sub-commands:

* ``run <experiment>`` — run any registered experiment
  (``--param k=v`` overrides, ``--json`` for the serializable result):
  ``run report`` is the Section 4 measurement report, ``run
  feasibility`` the Table 3 matrix, ``run blackhole-sweep`` the
  Section 7.6 sweep, ``run propagation-check`` the Section 7.2 check;
* ``list``      — list the registered experiments and their parameters;
* ``export-mrt`` — write an observation archive (synthetic dataset or a
  live collector harvest) to an MRT file;
* ``stream``    — feed a JSON-lines announce/withdraw event stream
  through the coalescing front end (:mod:`repro.routing.stream`) into a
  simulation.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from repro import __version__


def _build_dataset(seed: int, scale: str):
    """The synthetic dataset for a seed/scale pair (spec-driven topology)."""
    from repro.datasets.synthetic import DatasetParameters, build_default_dataset
    from repro.experiments import ExperimentSpec

    spec = ExperimentSpec(name="report", seed=seed, scale=scale)
    return build_default_dataset(spec.build_topology(), DatasetParameters(seed=seed))


def _parse_params(pairs: list[str], parser: argparse.ArgumentParser) -> dict:
    """Parse repeated ``--param key=value`` flags (values read as JSON when possible).

    Malformed tokens fail through ``parser.error`` (usage line, the
    offending token named, exit code 2).
    """
    params: dict = {}
    for pair in pairs:
        key, separator, raw = pair.partition("=")
        if not separator or not key:
            parser.error(f"argument --param: expected KEY=VALUE, got {pair!r}")
        if key in ("seed", "scale"):
            parser.error(f"argument --param: use --{key} instead of --param {pair!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _positive_int(text: str) -> int:
    """argparse type for a count that must be at least 1."""
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _print_outcome(experiment, result, as_json: bool) -> int:
    """Render one result (text or JSON); exit code reflects the status."""
    from repro.experiments import ExperimentStatus

    if as_json:
        print(result.to_json(indent=2))
    elif result.status is ExperimentStatus.ERROR:
        print(f"error: {result.error}", file=sys.stderr)
    else:
        print(experiment.render_text(result))
    return 0 if result.succeeded else 1


# ------------------------------------------------------------ registry-driven
def _cmd_run(args: argparse.Namespace) -> int:
    from repro.exceptions import ExperimentError
    from repro.experiments import get

    parser: argparse.ArgumentParser = args.parser
    params = _parse_params(args.param, parser)
    try:
        experiment_cls = get(args.experiment)
    except ExperimentError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    # Unknown parameter names fail as argparse errors naming the exact
    # offending --param token, before any spec or topology work starts.
    known = experiment_cls.declared()
    for token in args.param:
        key = token.partition("=")[0]
        if key and key not in known:
            parser.error(
                f"argument --param: unknown parameter {key!r} for experiment "
                f"{args.experiment!r} (from {token!r}); known: "
                f"{', '.join(sorted(known)) or 'none'}"
            )
    try:
        spec = experiment_cls.default_spec(seed=args.seed, scale=args.scale, **params)
        # The experiment (its context holds the whole run's state) is
        # dropped as soon as it returns: what follows reads the result.
        result = experiment_cls(spec).run()
    except ExperimentError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.output:
        from repro.experiments import write_results

        try:
            write_results(args.output, [result])
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    # ``render_text`` renders from the result alone: a fresh experiment will do.
    return _print_outcome(experiment_cls(spec), result, as_json=args.json)


def _cmd_list(args: argparse.Namespace) -> int:
    """Each experiment, then each ``--param`` it takes: kind, default, bound or choices."""
    from repro.experiments import available, get
    from repro.experiments.runner import PLATFORM_OF

    names = available()
    params = {
        name: {
            key: {**param.describe(), **({"platform": PLATFORM_OF[key]} if key in PLATFORM_OF else {})}
            for key, param in get(name).declared().items()
        }
        for name in names
    }
    if args.json:
        catalogue = {
            name: {
                "section": get(name).paper_section,
                "description": get(name).description,
                "params": params[name],
            }
            for name in names
        }
        print(json.dumps(catalogue, indent=2))
        return 0
    width = max(len(name) for name in names)
    section_width = max(len(get(name).paper_section) for name in names)
    for name in names:
        experiment_cls = get(name)
        print(
            f"{name:<{width}}  {experiment_cls.paper_section:<{section_width}}"
            f"  {experiment_cls.description}"
        )
        for key, entry in params[name].items():
            rest = "  ".join(f"{field} {json.dumps(value)}" for field, value in list(entry.items())[2:])
            print(f"    {key:<20} {entry['kind']:<7} {json.dumps(entry['default']):<17} {rest}".rstrip())
    return 0


def _cmd_export_mrt(args: argparse.Namespace) -> int:
    if args.source == "harvest":
        from repro.collectors.platform import CollectorDeployment
        from repro.experiments import ExperimentSpec
        from repro.routing.engine import BgpSimulator

        spec = ExperimentSpec(name="report", seed=args.seed, scale=args.scale)
        topology = spec.build_topology()
        simulator = BgpSimulator(topology)
        simulator.announce_originated()
        deployment = CollectorDeployment.default_deployment(topology, seed=args.seed)
        archive = deployment.collect_from_simulator(simulator)
    else:
        archive = _build_dataset(args.seed, args.scale).archive
    try:
        count = archive.write_mrt(args.output)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"wrote {count} MRT records to {args.output}")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    """Feed a JSON-lines event stream through the coalescing front end."""
    from repro.exceptions import RoutingError
    from repro.experiments import ExperimentSpec
    from repro.routing.engine import BgpSimulator
    from repro.routing.stream import SimulatorService, read_event_stream

    spec = ExperimentSpec(name="report", seed=args.seed, scale=args.scale)
    simulator = BgpSimulator(spec.build_topology())
    if args.preseed:
        simulator.announce_originated()
    service = SimulatorService(simulator, window=args.window)
    try:
        if args.events == "-":
            if isinstance(sys.stdin, io.TextIOWrapper):
                # Strict UTF-8, as for a file: Python's UTF-8 mode (the C
                # locale) would escape undecodable bytes instead.
                sys.stdin.reconfigure(encoding="utf-8", errors="strict")
            for event in read_event_stream(sys.stdin):
                service.feed(event)
        else:
            with open(args.events, "r", encoding="utf-8") as handle:
                for event in read_event_stream(handle):
                    service.feed(event)
        service.drain()
    except (RoutingError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as error:
        source = "standard input" if args.events == "-" else repr(args.events)
        print(f"error: events from {source} are not UTF-8 text: {error}", file=sys.stderr)
        return 2
    stats = service.stats
    summary = {
        "events_seen": stats.events_seen,
        "events_coalesced": stats.events_coalesced,
        "events_applied": stats.events_applied,
        "batches": stats.batches,
        "prefixes": len(simulator.report.prefixes),
        "announcements_processed": simulator.report.announcements_processed,
        "rounds": simulator.report.rounds,
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"{stats.events_seen} events in, {stats.events_coalesced} coalesced away, "
            f"{stats.events_applied} applied in {stats.batches} batch(es)"
        )
        print(
            f"{summary['prefixes']} prefixes converged; "
            f"{summary['announcements_processed']} announcements processed "
            f"over {summary['rounds']} worklist steps"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-bgp",
        description="Reproduction harness for 'BGP Communities: Even more Worms in the Routing Can'",
    )
    from repro.experiments import SCALE_PRESETS
    from repro.routing.stream import DEFAULT_WINDOW

    scales = list(SCALE_PRESETS)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Shared parent parsers: every subcommand takes --seed the same way,
    # and the dataset-driven ones share --scale.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=42, help="deterministic seed")
    scaled = argparse.ArgumentParser(add_help=False)
    scaled.add_argument("--scale", choices=scales, default="small", help="topology size")

    run = subparsers.add_parser(
        "run", parents=[seeded], help="run a registered experiment by name"
    )
    run.add_argument("experiment", help="registry name (see the 'list' subcommand)")
    run.add_argument("--scale", choices=scales, default=None, help="topology size preset")
    run.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="experiment parameter override (repeatable; value parsed as JSON)",
    )
    run.add_argument("--json", action="store_true", help="print the serializable result")
    run.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the result to FILE as JSON lines (replay with experiments.load_results)",
    )
    run.set_defaults(func=_cmd_run, parser=run)

    listing = subparsers.add_parser("list", help="list the registered experiments")
    listing.add_argument("--json", action="store_true", help="print the catalogue as JSON")
    listing.set_defaults(func=_cmd_list)

    export = subparsers.add_parser(
        "export-mrt", parents=[seeded, scaled], help="write an observation archive as MRT"
    )
    export.add_argument("output")
    export.add_argument(
        "--source",
        choices=["synthetic", "harvest"],
        default="synthetic",
        help="synthetic dataset generator, or a live harvest of the simulated collectors",
    )
    export.set_defaults(func=_cmd_export_mrt)

    stream = subparsers.add_parser(
        "stream",
        parents=[seeded, scaled],
        help="feed a JSON-lines announce/withdraw event stream into a simulation",
        description=(
            "Read one JSON object per line — "
            '{"origin": 65001, "prefix": "10.0.0.0/24", "withdraw": false, '
            '"communities": ["65001:666"], "spoofed_origin": 0} '
            "(only origin and prefix are required) — coalesce per-(origin, prefix) "
            "bursts last-writer-wins, and converge the batches on the topology "
            "the --seed/--scale spec describes."
        ),
    )
    stream.add_argument("events", help="JSON-lines event file, or '-' for stdin")
    stream.add_argument(
        "--window",
        type=_positive_int,
        default=DEFAULT_WINDOW,
        metavar="N",
        help="buffered (origin, prefix) keys per automatic drain (default: %(default)s)",
    )
    stream.add_argument(
        "--preseed",
        action="store_true",
        help="announce the topology's recorded originations before the stream",
    )
    stream.add_argument("--json", action="store_true", help="print the summary as JSON")
    stream.set_defaults(func=_cmd_stream)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
