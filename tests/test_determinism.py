"""Determinism, checked by running it: the paper's outputs under three hash seeds.

Every number this reproduction reports must come out byte for byte the
same on every run.  The ways to break that — a per-process salted
``hash()`` feeding placement or an encoding, unseeded randomness, set
iteration order leaking into a table — all show up the same way: the
outputs change with ``PYTHONHASHSEED``.  So this module runs the
output surface once per hash seed, in one subprocess each, and requires
the digests to agree:

* the eight registered experiments (default spec, seed 7), and the
  ``hijack=true`` variants of ``rtbh``, ``rtbh-wild`` and ``steering``;
* ``report`` over a live collector harvest (``source=harvest``);
* the MRT bytes of ``export-mrt`` from both sources (small scale,
  seed 7), written from the archives the two ``report`` runs built;
* a fixed JSON-lines ``stream`` input, as the converged Loc-RIBs;
* the MRT bytes of a harvest after ``BgpSimulator(shards=2)`` converges
  a tiny topology, the one output where prefix placement shows;
* on the same tiny topology: converge, build the FIBs, harvest, withdraw
  two prefixes, patch the FIBs, then the FIBs, a traceroute from every AS
  to each withdrawn host and the second harvest's MRT bytes (what a
  harvest remembers of the previous one would show here).

The three processes run once per module; each output is its own test
case, so a failure names the output that moved.  Hash seed 0's digests
must also equal the ones pinned in ``tests/fixtures/determinism_digests.json``,
which makes "every output is byte-identical" a check rather than a hand
diff.  After an *intended* change to an output, regenerate the file with::

    PYTHONPATH=src python tests/test_determinism.py > tests/fixtures/determinism_digests.json

and show its diff with the change.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HASH_SEEDS = ("0", "1", "2")
SEED = 7
HIJACK_VARIANTS = ("rtbh", "rtbh-wild", "steering")
PINNED_DIGESTS = Path(__file__).parent / "fixtures" / "determinism_digests.json"


def _digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _mrt_digest(archive, directory: str, name: str) -> str:
    path = os.path.join(directory, name)
    archive.write_mrt(path)
    return _digest(Path(path).read_bytes())


def _loc_rib_dump(simulator) -> str:
    """Every router's Loc-RIB, in router and installation order."""
    return json.dumps(
        [
            [
                asn,
                [
                    [
                        str(entry.prefix),
                        entry.attributes.as_path.asns(),
                        str(entry.attributes.communities),
                        entry.learned_from,
                        entry.blackholed,
                    ]
                    for entry in router.loc_rib.best_routes()
                ],
            ]
            for asn, router in simulator.routers.items()
        ]
    )


def _stream_lines(topology) -> list[str]:
    """Announce, blackhole-tag, withdraw and re-tag rounds from the first twelve stubs."""
    stubs = sorted(asys.asn for asys in topology.stub_ases())[:12]
    records = []
    for index, asn in enumerate(stubs):
        records.append({"origin": asn, "prefix": f"10.{index}.0.0/24"})
        records.append({"origin": asn, "prefix": f"10.{index}.0.0/24", "communities": ["65535:666"]})
    for index in range(0, len(stubs), 3):
        records.append({"origin": stubs[index], "prefix": f"10.{index}.0.0/24", "withdraw": True})
    records.append({"origin": stubs[1], "prefix": "10.1.0.0/24", "communities": ["65000:1"]})
    return [json.dumps(record) for record in records]


def collect_outputs(directory: str) -> dict[str, str]:
    """Digest every output of the surface above (timings removed)."""
    from repro.collectors.platform import CollectorDeployment
    from repro.dataplane.forwarding import DataPlane
    from repro.experiments import available, get
    from repro.routing.engine import BgpSimulator, origination_events
    from repro.routing.stream import SimulatorService, read_event_stream
    from repro.topology.generator import TopologyGenerator, TopologyParameters

    def run(name: str, **params):
        experiment = get(name)(get(name).default_spec(seed=SEED, **params))
        result = experiment.run()
        key = " ".join(["run", name] + [f"{k}={v}" for k, v in params.items()])
        outputs[key] = _digest(json.dumps(result.comparable(), sort_keys=True))
        return experiment.context

    outputs: dict[str, str] = {}
    for name in available():
        context = run(name)
        if name == "report":
            archive = context.scratch["dataset"].archive
            outputs["export-mrt synthetic"] = _mrt_digest(archive, directory, "synthetic.mrt")
    for name in HIJACK_VARIANTS:
        run(name, hijack=True)
    context = run("report", source="harvest")
    outputs["export-mrt harvest"] = _mrt_digest(context.scratch["archive"], directory, "harvest.mrt")

    # `stream --preseed` at this seed: the topology's originations, converged.
    simulator = BgpSimulator(context.require_topology())
    simulator.announce_originated()
    with SimulatorService(simulator, window=4) as service:
        for event in read_event_stream(_stream_lines(context.require_topology())):
            service.feed(event)
    outputs["stream"] = _digest(_loc_rib_dump(simulator))

    tiny = TopologyGenerator(
        TopologyParameters(tier1_count=2, transit_count=4, stub_count=10, seed=SEED)
    ).generate()
    sharded = BgpSimulator(tiny, shards=2)
    try:
        sharded.announce_originated()
        archive = CollectorDeployment.default_deployment(tiny, seed=SEED).collect_from_simulator(
            sharded
        )
    finally:
        sharded.close()
    outputs["shards=2 harvest"] = _mrt_digest(archive, directory, "sharded.mrt")

    simulator = BgpSimulator(tiny)
    deployment = CollectorDeployment.default_deployment(tiny, seed=SEED)
    events = origination_events(tiny)
    simulator.apply(events)
    plane = DataPlane(simulator)
    deployment.collect_from_simulator(simulator)
    withdrawn = [(event.origin_asn, event.prefix) for event in (events[0], events[-1])]
    plane.rebuild(simulator.withdraw_many(withdrawn))
    fibs = [[asn, [repr(entry) for entry in fib.entries()]] for asn, fib in plane.fibs.items()]
    traces = [
        [trace.source_asn, trace.destination, trace.outcome.name, trace.path, trace.dropped_at]
        for trace in (
            plane.traceroute(asn, prefix.host(), prefix.family)
            for _, prefix in withdrawn
            for asn in simulator.routers
        )
    ]
    archive = deployment.collect_from_simulator(simulator)
    outputs["withdraw, harvest again"] = _digest(
        json.dumps([fibs, traces, _mrt_digest(archive, directory, "reharvest.mrt")])
    )
    return outputs


def _output_keys() -> list[str]:
    """Every name ``collect_outputs`` digests: a new experiment adds one."""
    from repro.experiments import available

    return (
        [f"run {name}" for name in available()]
        + ["export-mrt synthetic"]
        + [f"run {name} hijack=True" for name in HIJACK_VARIANTS]
        + ["run report source=harvest", "export-mrt harvest", "stream", "shards=2 harvest"]
        + ["withdraw, harvest again"]
    )


OUTPUT_KEYS = _output_keys()


@pytest.fixture(scope="module")
def digests_by_hash_seed() -> dict[str, dict[str, str]]:
    """Each hash seed's digests, from one concurrent subprocess per seed."""
    here = Path(__file__).resolve()
    source = str(here.parents[1] / "src")
    processes = {}
    digests = {}
    try:
        for hash_seed in HASH_SEEDS:
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
            processes[hash_seed] = subprocess.Popen(
                [sys.executable, str(here)], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
            )
        for hash_seed, process in processes.items():
            stdout, stderr = process.communicate(timeout=300)
            assert process.returncode == 0, stderr.decode()
            digests[hash_seed] = json.loads(stdout)
    finally:
        for process in processes.values():
            process.kill()
    return digests


def test_every_output_is_digested_under_every_hash_seed(digests_by_hash_seed):
    for hash_seed in HASH_SEEDS:
        assert sorted(digests_by_hash_seed[hash_seed]) == sorted(OUTPUT_KEYS), hash_seed


@pytest.mark.parametrize("key", OUTPUT_KEYS)
def test_output_does_not_depend_on_the_hash_seed(digests_by_hash_seed, key):
    by_seed = {seed: digests_by_hash_seed[seed].get(key) for seed in HASH_SEEDS}
    assert by_seed[HASH_SEEDS[0]] is not None, f"{key} was not digested"
    assert len(set(by_seed.values())) == 1, f"{key} changes with PYTHONHASHSEED: {by_seed}"


def test_pinned_digests_name_every_output():
    assert sorted(json.loads(PINNED_DIGESTS.read_text())) == sorted(OUTPUT_KEYS)


@pytest.mark.parametrize("key", OUTPUT_KEYS)
def test_output_matches_its_pinned_digest(digests_by_hash_seed, key):
    pinned = json.loads(PINNED_DIGESTS.read_text())
    assert digests_by_hash_seed[HASH_SEEDS[0]].get(key) == pinned.get(key), (
        f"{key} differs from {PINNED_DIGESTS.name}; regenerate it only for an intended change"
    )


if __name__ == "__main__":
    # The collector is off for the whole process.  The perf ledger never
    # does that: it only calls gc.collect() between iterations, and its
    # speed probe pauses the collector inside the probe alone.  Each
    # experiment runs with it paused anyway (Experiment.run); the rest of
    # this short run leaves little cyclic garbage (same peak RSS).
    gc.disable()
    with tempfile.TemporaryDirectory() as scratch:
        print(json.dumps(collect_outputs(scratch), indent=2, sort_keys=True))
