"""The four ledger workloads: inputs from a seed, one iteration, one digest.

Every workload is a closed loop with one client.  ``setup()`` builds the
inputs from the seed (origins, community tags, deployment seed, spec
seeds; see :data:`TOPOLOGY_SEED` for what it does not pick) and whatever
converged state the iteration starts from; ``iterate()`` runs
one iteration and returns the number of work units it completed;
``digest()`` — called outside the timed region — is a sha256 over
everything that iteration produced.  The program under test only ever
sees the generated inputs.

Why these four (the README has the long form):

* ``converge-batch`` — the bulk *write* path of the in-process core.
* ``harvest-mrt`` — the bulk *read* path over the same Loc-RIBs, plus
  the collector / MRT stack; the core writes nothing.
* ``sharded-resident`` — the only workload where stream, shard, wire
  and residency do the work.
* ``paper-experiments`` — what ``repro-bgp run`` users pay: single-event
  announces with data-plane reads and probes in between.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path

from repro.bgp.community import Community, CommunitySet
from repro.bgp.prefix import Prefix
from repro.collectors.observation import ObservationArchive
from repro.collectors.platform import CollectorDeployment
from repro.dataplane.forwarding import DataPlane
from repro.experiments import get as get_experiment
from repro.experiments import run_experiment
from repro.routing.engine import BgpSimulator, RoutingEvent
from repro.routing.stream import SimulatorService
from repro.topology.asys import AsRole
from repro.topology.generator import TopologyGenerator, TopologyParameters
from repro.topology.topology import Topology


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one mode (full or ``--quick``)."""

    tier1: int
    transit: int
    stub: int
    ixp: int
    converge_prefixes: int
    harvest_prefixes: int
    resident_prefixes: int
    stream_window: int
    experiments: tuple[str, ...]


FULL = Sizes(
    tier1=3,
    transit=20,
    stub=80,
    ixp=2,
    converge_prefixes=128,
    harvest_prefixes=96,
    resident_prefixes=128,
    stream_window=64,
    experiments=(
        "blackhole-sweep",
        "feasibility",
        "propagation-check",
        "report",
        "route-manipulation",
        "rtbh",
        "rtbh-wild",
        "steering",
    ),
)

#: ``--quick``: a 30-AS topology, 16 prefixes and the six cheap experiments.
QUICK = Sizes(
    tier1=3,
    transit=7,
    stub=20,
    ixp=1,
    converge_prefixes=16,
    harvest_prefixes=16,
    resident_prefixes=16,
    stream_window=8,
    experiments=tuple(
        name for name in FULL.experiments if name not in ("report", "blackhole-sweep")
    ),
)


# ------------------------------------------------------------------- inputs
#: The generator seed of the canonical Internet the three simulator
#: workloads run on.  ``--seed`` decides which prefix each AS originates,
#: the community tags, the collector deployment and the experiment specs
#: — not the AS graph: over ten topology seeds the graph's structure
#: alone moved the announcements processed by 6 % and ``iter_s`` by 9 %
#: (``converge-batch``) to 20 % (``sharded-resident``, where the policy
#: mix decides how far a tag flip travels), while everything the seed
#: still picks moves it by 0 % (``converge-batch``, ``harvest-mrt``) to
#: 2 % (``sharded-resident``).  Another Internet is another workload
#: size, not a repeat of this one, and the benchmark driver reads the
#: spread over seeds as noise.
TOPOLOGY_SEED = 42


def build_topology(sizes: Sizes) -> Topology:
    return TopologyGenerator(
        TopologyParameters(
            tier1_count=sizes.tier1,
            transit_count=sizes.transit,
            stub_count=sizes.stub,
            ixp_count=sizes.ixp,
            seed=TOPOLOGY_SEED,
        )
    ).generate()


def tag_sets(seed: int, count: int) -> list[CommunitySet]:
    """``count`` seeded community sets of one and two private-ASN communities.

    Private ASNs on purpose: a tag that names an AS of the topology is
    stripped by that AS's strip-own policy, and *which* AS the seed
    happened to name moved the work of a tag flip by up to 47 %.  These
    tags are informational, so how far they travel depends on the AS
    graph and its forward / strip mix only.
    """
    rng = random.Random(seed)
    return [
        CommunitySet.of(
            *(
                Community(64512 + rng.randrange(1000), rng.randrange(1, 60000))
                for _ in range(1 + index % 2)
            )
        )
        for index in range(count)
    ]


def origination_events(
    topology: Topology, seed: int, count: int, tags: "CommunitySet | None" = None
) -> list[RoutingEvent]:
    """``count`` originations over the non-IXP ASes, matched to prefixes by seed.

    *Who* originates is fixed — every AS once, then the stubs again in
    ASN order until ``count`` is reached — because a tier-1 originating
    twice is more work than a stub doing so (it moved a tag flip's work
    by 10 % between seeds).  The seed decides which prefix each of them
    gets.  Every 8th prefix is an IPv6 /48, the rest IPv4 /24s.  With
    ``tags`` every event carries that set; otherwise every 4th event
    carries one of three seeded community sets (see :func:`tag_sets`).
    """
    rng = random.Random(seed)
    everyone = sorted(asys.asn for asys in topology if asys.role != AsRole.IXP)
    stubs = sorted(asys.asn for asys in topology.stub_ases())
    origins = (everyone + stubs * (count // len(stubs) + 1))[:count]
    rng.shuffle(origins)
    rotation = tag_sets(seed, 3)
    v4_base = int(Prefix.from_string("10.0.0.0/8").network)
    v6_base = int(Prefix.from_string("2a00::/16").network)
    events = []
    for index in range(count):
        if index % 8 == 7:
            prefix = Prefix.ipv6(v6_base + (index << 80), 48)
        else:
            prefix = Prefix.ipv4(v4_base + (index << 8), 24)
        communities = tags
        if tags is None and index % 4 == 3:
            communities = rotation[(index // 4) % 3]
        events.append(
            RoutingEvent(
                origin_asn=origins[index],
                prefix=prefix,
                communities=communities,
            )
        )
    return events


# ------------------------------------------------------------------ digests
def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def control_plane_lines(simulator: BgpSimulator) -> list[str]:
    """Every Loc-RIB best route, sorted, one canonical line each."""
    lines = []
    for asn in sorted(simulator.routers):
        for entry in sorted(simulator.routers[asn].loc_rib, key=lambda e: e.prefix):
            only = entry.announce_only_to
            lines.append(
                f"rib|{asn}|{entry.prefix}|{entry.learned_from}|{entry.attributes.as_path}"
                f"|{entry.attributes.communities}|{entry.attributes.local_pref}"
                f"|{entry.blackholed}|{entry.export_prepend}|{sorted(entry.suppress_to)}"
                f"|{None if only is None else sorted(only)}"
            )
    return lines


def fib_lines(dataplane: DataPlane) -> list[str]:
    lines = []
    for asn in sorted(dataplane.fibs):
        for entry in sorted(dataplane.fibs[asn].entries(), key=lambda e: e.prefix):
            lines.append(f"fib|{asn}|{entry.prefix}|{entry.next_hop_asn}|{entry.blackholed}")
    return lines


def dirty_lines(dirty: dict) -> list[str]:
    return [
        f"dirty|{asn}|{' '.join(sorted(str(prefix) for prefix in dirty[asn]))}"
        for asn in sorted(dirty)
    ]


def archive_lines(archive: ObservationArchive) -> list[str]:
    """Archive rows in archive order (the order is part of the contract)."""
    return [
        f"obs|{o.platform}|{o.collector_id}|{o.peer_asn}|{o.prefix}|{o.as_path}"
        f"|{o.communities}|{o.withdrawn}"
        for o in archive
    ]


# ---------------------------------------------------------------- workloads
class Workload:
    """Base: a seed, a size table, and the setup / iterate / teardown cycle."""

    name = ""

    def __init__(self, seed: int, quick: bool, scratch: Path):
        self.seed = seed
        self.sizes = QUICK if quick else FULL
        #: Directory for files the workload writes (inside the checkout).
        self.scratch = scratch
        #: Outputs of the latest iteration, until ``digest()`` takes them.
        self.last = None

    def setup(self) -> None:
        raise NotImplementedError

    def iterate(self) -> int:
        """One timed iteration; returns the work units completed."""
        raise NotImplementedError

    def digest(self) -> str:
        """sha256 over the outputs of the latest ``iterate()`` (untimed)."""
        raise NotImplementedError

    def take_last(self):
        """Hand over the latest outputs and drop the reference to them.

        Freeing a converged simulator costs tens of milliseconds; doing
        it here keeps that out of the next timed iteration and keeps one
        result set, not two, on the heap while it runs.
        """
        last, self.last = self.last, None
        return last

    def twin_iterate(self) -> "tuple[str, float] | None":
        """Run the iteration on an in-process twin; ``(digest, wall seconds)``.

        Only workloads with a second execution mode have one.
        """
        return None

    def teardown(self) -> None:
        """Release processes and files; the default holds none."""


class ConvergeBatch(Workload):
    """Fresh ``shards=1`` simulator, one ``apply()`` of the originations, FIB patch.

    Work unit: best routes installed.
    """

    name = "converge-batch"

    def setup(self) -> None:
        self.topology = build_topology(self.sizes)
        self.events = origination_events(self.topology, self.seed, self.sizes.converge_prefixes)

    def iterate(self) -> int:
        simulator = BgpSimulator(self.topology, shards=1)
        dataplane = DataPlane(simulator)
        report = simulator.apply(self.events)
        dataplane.rebuild(report)
        self.last = (simulator, dataplane, report)
        return sum(len(router.loc_rib) for router in simulator.routers.values())

    def digest(self) -> str:
        simulator, dataplane, report = self.take_last()
        return _digest(
            control_plane_lines(simulator) + fib_lines(dataplane) + dirty_lines(report.dirty)
        )


class HarvestMrt(Workload):
    """Harvest a preseeded simulator, write the archive as MRT, read it back.

    Work unit: observations harvested.
    """

    name = "harvest-mrt"

    def setup(self) -> None:
        self.topology = build_topology(self.sizes)
        self.simulator = BgpSimulator(self.topology, shards=1)
        self.simulator.apply(
            origination_events(self.topology, self.seed, self.sizes.harvest_prefixes)
        )
        self.deployment = CollectorDeployment.default_deployment(self.topology, seed=self.seed)
        # One file per process: concurrent runs share the scratch directory.
        self.path = self.scratch / f"harvest-{os.getpid()}.mrt"

    def iterate(self) -> int:
        archive = self.deployment.collect_from_simulator(self.simulator)
        records = archive.write_mrt(self.path)
        reread = ObservationArchive.from_mrt(self.path)
        self.last = (archive, records, reread)
        return len(archive)

    def digest(self) -> str:
        archive, records, reread = self.take_last()
        # A lossy MRT round trip (a row dropped or altered) changes the
        # digest: the re-read rows are compared field by field with what
        # MRT can carry of the originals.
        carried = [(o.peer_asn, o.prefix, o.as_path, o.communities) for o in archive]
        returned = [(o.peer_asn, o.prefix, o.as_path, o.communities) for o in reread]
        return _digest(
            archive_lines(archive)
            + [
                f"mrt|{records}|{hashlib.sha256(self.path.read_bytes()).hexdigest()}",
                f"roundtrip|{carried == returned}",
            ]
        )

    def teardown(self) -> None:
        self.simulator.close()
        self.path.unlink(missing_ok=True)


class ShardedResident(Workload):
    """Tag flips through ``SimulatorService`` onto two resident workers plus a sharded harvest.

    Work unit: events applied.
    """

    name = "sharded-resident"
    shards = 2

    def setup(self) -> None:
        self.topology = build_topology(self.sizes)
        count = self.sizes.resident_prefixes
        self.base_events = origination_events(self.topology, self.seed, count)
        transient, final = tag_sets(self.seed + 1, 2)
        transient = origination_events(self.topology, self.seed, count, tags=transient)
        final = origination_events(self.topology, self.seed, count, tags=final)
        # A bursty feed: every prefix is tagged twice in a row, so the
        # service coalesces half of what it sees.
        self.tag_burst = [event for pair in zip(transient, final) for event in pair]
        self.deployment = CollectorDeployment.default_deployment(self.topology, seed=self.seed)
        self.simulator = self._converged(self.shards)
        self.twin: "BgpSimulator | None" = None

    def _converged(self, shards: int) -> BgpSimulator:
        simulator = BgpSimulator(self.topology, shards=shards)
        simulator.apply(self.base_events)
        return simulator

    def _round(self, simulator: BgpSimulator, shards: int) -> int:
        """Tag every prefix, harvest, untag: the end state is the start state."""
        service = SimulatorService(simulator, window=self.sizes.stream_window, shards=shards)
        reports = service.feed(self.tag_burst) + [service.drain()]
        archive = self.deployment.collect_from_simulator(simulator, shards=shards)
        reports += service.feed(self.base_events) + [service.drain()]
        self.last = (simulator, archive, reports)
        return service.stats.events_applied

    def iterate(self) -> int:
        return self._round(self.simulator, self.shards)

    def digest(self) -> str:
        simulator, archive, reports = self.take_last()
        dirty: dict = {}
        for report in reports:
            for asn, prefixes in report.dirty.items():
                dirty.setdefault(asn, set()).update(prefixes)
        # Rows are sorted: a sharded harvest orders them by the parent's
        # Loc-RIB insertion order, which legitimately differs from the
        # in-process twin's.  ``harvest-mrt`` pins the row order.
        return _digest(
            sorted(archive_lines(archive)) + control_plane_lines(simulator) + dirty_lines(dirty)
        )

    def twin_iterate(self) -> tuple[str, float]:
        if self.twin is None:
            self.twin = self._converged(1)
        gc.collect()
        start = time.perf_counter()
        self._round(self.twin, 1)
        wall = time.perf_counter() - start
        return self.digest(), wall

    def teardown(self) -> None:
        self.simulator.close()


class PaperExperiments(Workload):
    """The registered experiments end to end, as ``repro-bgp run`` drives them.

    Work unit: experiments completed.
    """

    name = "paper-experiments"

    #: The two experiments whose cost is the size of the Internet and
    #: dataset their spec seed generates (2.7-4.3 s and 0.36-0.77 s over
    #: ten seeds, against 0.1 s for the other six together): they run
    #: on the canonical seed for the reason :data:`TOPOLOGY_SEED` gives.
    canonical = ("report", "blackhole-sweep")

    def setup(self) -> None:
        self.specs = [
            get_experiment(name).default_spec(
                seed=TOPOLOGY_SEED if name in self.canonical else self.seed
            )
            for name in self.sizes.experiments
        ]

    def iterate(self) -> int:
        self.last = [run_experiment(spec) for spec in self.specs]
        failed = [result.name for result in self.last if not result.succeeded]
        if failed:
            raise RuntimeError(f"experiment(s) did not end with status OK: {', '.join(failed)}")
        return len(self.last)

    def digest(self) -> str:
        return _digest(
            [
                json.dumps(result.comparable(), sort_keys=True, default=str)
                for result in self.take_last()
            ]
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ConvergeBatch, HarvestMrt, ShardedResident, PaperExperiments)
}
