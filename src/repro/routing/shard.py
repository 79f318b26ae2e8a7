"""Resident sharded propagation: partitioning, delta shipping, stateful workers.

PR 2 established that the propagation worklist partitions *exactly* by
prefix: a ``(router, prefix)`` pair only ever enqueues pairs of the same
prefix, so the per-prefix partitions are provably independent.  This
module turns that property into a **long-lived service**:

* :func:`stable_shard` — a deterministic hash of ``(family, network,
  length)`` mapping every prefix to one of K shards.  It is the same in
  every process and every run (no ``PYTHONHASHSEED`` dependence), so a
  prefix always lands on the same shard and results never depend on
  worker scheduling.
* :func:`partition_events` — split a :class:`RoutingEvent` batch into
  per-shard event lists (empty shards are dropped — they would only
  spawn idle workers).
* :func:`capture_prefix_state` / :func:`install_prefix_state` /
  :func:`clear_prefix_state` — move the *complete* per-prefix control
  plane state (origination attributes, every Adj-RIB-In entry, and the
  derived best route) of the routers that hold any, between a parent
  simulator and a shard worker.  Install replays a snapshot, re-running
  best-path selection so the Loc-RIB (and its LPM trie) is rebuilt
  through the exact same code path a sequential run uses.
* :class:`ShardPool` — K slot-pinned single-worker executors.  Shard
  ``i`` always runs on slot ``i % workers`` (:meth:`ShardPool.slot_for`),
  so a worker's **resident** RIB state for its shards stays valid across
  batches.  The ``(topology, router configuration)`` snapshot is parked
  in a pre-fork module-level registry and inherited by each worker via
  fork copy-on-write (no per-process ``pickle.loads``; a pickled
  payload is the fallback where ``fork`` is unavailable); afterwards
  tasks carry only events plus the parent-side *deltas* for their
  shard's prefixes, each framed as a :mod:`repro.routing.wire` blob.
  A simulator reaches its pool through a :mod:`repro.routing.residency`
  lease: one pool per
  simulator, built on its first sharded batch and shut down by
  ``close()``.

Residency protocol
------------------

The parent (:class:`BgpSimulator`) and the workers keep each other
consistent through two mechanisms:

* **Pending sync set** (parent side): every (prefix, router) pair the
  parent mutated since it last shipped that prefix to its slot — seeded
  with the full holder map at pool construction, extended by sequential
  applies and merge installs are excluded (the worker that produced a
  delta already holds it).  A sharded ``apply`` pops and ships exactly
  the pending pairs of its batch; a harvest flushes the whole backlog.
* **State epochs**: :attr:`ShardPool.epoch` names the router-config
  generation.  Before dispatch the parent re-captures the configuration
  (:func:`capture_router_config`) and bumps the epoch when it changed;
  each task carries ``(epoch, config-or-None)`` and a worker that sees a
  newer epoch discards **all** resident state and re-applies the config
  before converging (:func:`_sync_worker`).  A failed shard task also
  bumps the epoch, so partially-converged worker state can never leak
  into a later merge.

The per-router ``export_community_additions`` are still shipped with
every task because the attack drivers flip them between passes.
Sessions registered via
:meth:`BgpSimulator.register_collector_peering` do not influence
propagation (collector ASes have no router, so exports to them are
skipped).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.bgp.prefix import Prefix
from repro.routing import residency, wire

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.bgp.attributes import PathAttributes
    from repro.bgp.route import RouteEntry
    from repro.routing.engine import BgpSimulator, RoutingEvent, SimulationReport

#: The complete state one router holds for one prefix:
#: ``(prefix, asn, originated_attributes | None,
#: ((neighbor_asn, adj_rib_in_entry), ...))``.
PrefixState = tuple[Prefix, int, "PathAttributes | None", tuple]

#: A shard task envelope: ``(epoch, config_blob | None,
#: additions_blob, events_blob, states_blob)`` — all payload fields are
#: :mod:`repro.routing.wire` blobs; the router-config blob (kind ``C``)
#: rides along only on the first task a slot sees after an epoch bump.
ShardTask = tuple[int, "bytes | None", bytes, bytes, bytes]

_MIX_A = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9
_MASK = (1 << 64) - 1


def _mix_to_shard(value: int, key: int, shard_count: int) -> int:
    """The shared 64-bit multiply/xor-shift mix behind every shard hash."""
    mixed = (value * _MIX_A + key * _MIX_B) & _MASK
    mixed ^= mixed >> 29
    mixed = (mixed * _MIX_B) & _MASK
    mixed ^= mixed >> 32
    return mixed % shard_count


def stable_shard(prefix: Prefix, shard_count: int) -> int:
    """Deterministically map ``prefix`` to a shard in ``[0, shard_count)``.

    A 64-bit multiply/xor-shift mix of ``(family, network, length)`` —
    not Python's ``hash()``, whose value for the same prefix is stable
    but whose use here would still couple shard placement to interned
    object identity semantics; this keeps placement a pure function of
    the prefix value in every interpreter.
    """
    return _mix_to_shard(prefix.network, (int(prefix.family) << 8) ^ prefix.length, shard_count)


def stable_asn_shard(asn: int, shard_count: int) -> int:
    """Deterministically map an ASN to a shard in ``[0, shard_count)``."""
    return _mix_to_shard(asn, 0x5157, shard_count)


def partition_events(
    events: Iterable["RoutingEvent"], shard_count: int
) -> list[tuple[int, list["RoutingEvent"]]]:
    """Split a batch into ``(shard_index, events)`` groups, empty shards dropped.

    Events keep their relative order inside each shard, so per-prefix
    seeding order (and therefore the converged state) is identical to a
    sequential pass over the same batch.
    """
    buckets: dict[int, list["RoutingEvent"]] = {}
    for event in events:
        buckets.setdefault(stable_shard(event.prefix, shard_count), []).append(event)
    return sorted(buckets.items())


# ---------------------------------------------------------------- state moves
def capture_prefix_state(
    simulator: "BgpSimulator",
    prefixes: Sequence[Prefix],
    holders: "dict[Prefix, set[int]] | None" = None,
) -> list[PrefixState]:
    """Snapshot the per-prefix state of every holder router, deterministically.

    Holders with no remaining state (e.g. fully withdrawn prefixes) are
    captured too: installing their empty snapshot is what *clears* the
    receiving side.  ``holders`` overrides which (prefix, router) pairs
    are captured (default: everything the simulator ever touched); the
    resident protocol passes the pending-sync / last-touched pair sets
    so repeated applies only ship what actually changed.
    """
    states: list[PrefixState] = []
    holders_map = holders if holders is not None else simulator._prefix_holders
    routers = simulator.routers
    for prefix in prefixes:
        for asn in sorted(holders_map.get(prefix, ())):
            router = routers.get(asn)
            if router is None:
                continue
            adjacent = tuple(
                (neighbor, entry)
                for neighbor, rib in sorted(router.adj_rib_in.items())
                if (entry := rib.get(prefix)) is not None
            )
            states.append((prefix, asn, router.originated.get(prefix), adjacent))
    return states


def install_prefix_state(
    simulator: "BgpSimulator",
    states: Iterable[PrefixState],
    stale: "frozenset[Prefix] | set[Prefix] | None" = None,
) -> None:
    """Replay captured per-prefix state onto ``simulator``'s routers.

    Each ``(router, prefix)`` slot is cleared and rebuilt, then best-path
    selection re-runs so the Loc-RIB and its LPM trie are derived through
    the same ``_refresh_best`` path a sequential run uses — the receiving
    simulator is indistinguishable from one that converged in-process.

    ``stale`` lists the prefixes the receiver may already hold *other*
    state for (those slots are wiped before installing); ``None`` treats
    every prefix as stale — the resident worker path, where any shipped
    pair replaces whatever the worker held for it.
    """
    from repro.bgp.route import RouteEntry

    routers = simulator.routers
    holders_map = simulator._prefix_holders
    for prefix, asn, originated, adjacent in states:
        router = routers[asn]
        if originated is None:
            router.originated.pop(prefix, None)
        else:
            router.originated[prefix] = originated
        if stale is None or prefix in stale:
            for rib in router.adj_rib_in.values():
                rib.withdraw(prefix)
        for neighbor, entry in adjacent:
            router._rib_in(neighbor).update(entry)
        # Re-select through Router._refresh_best, but with the candidate
        # list built from the delta itself: after the install the
        # snapshot *is* the complete per-prefix RIB state, so scanning
        # every neighbor RIB again (O(degree) per pair) would only
        # rediscover these entries.
        candidates: list[RouteEntry] = []
        if originated is not None:
            candidates.append(RouteEntry(prefix, originated, asn))
        candidates.extend(entry for _neighbor, entry in adjacent)
        router._refresh_best(prefix, candidates)
        holders_map.setdefault(prefix, set()).add(asn)


def clear_prefix_state(simulator: "BgpSimulator", prefixes: Iterable[Prefix]) -> None:
    """Erase all state ``simulator`` holds for ``prefixes`` (epoch reset)."""
    routers = simulator.routers
    for prefix in prefixes:
        for asn in simulator._prefix_holders.pop(prefix, ()):
            router = routers.get(asn)
            if router is None:
                continue
            router.originated.pop(prefix, None)
            for rib in router.adj_rib_in.values():
                rib.withdraw(prefix)
            router.loc_rib.remove(prefix)


# ----------------------------------------------------------- snapshot registry
#: The ``fork`` multiprocessing context when the platform offers one —
#: the start method that makes copy-on-write snapshot inheritance work.
#: ``None`` (spawn-only platforms) falls back to pickled snapshots.
_FORK_CONTEXT = (
    multiprocessing.get_context("fork")
    if "fork" in multiprocessing.get_all_start_methods()
    else None
)

_SNAPSHOT_TOKENS = itertools.count(1)
#: Pre-fork snapshot registry: ``token -> (topology, router_config)``.
#: A :class:`ShardPool` parks its snapshot here at construction — before
#: any worker exists — and every slot executor forks *after*, so workers
#: inherit the objects through copy-on-write page sharing instead of
#: ``pickle.loads``-ing a multi-megabyte payload per process.  Write
#: once per pool, released at pool teardown; workers only ever read.
_SNAPSHOT_REGISTRY: dict[int, tuple] = {}


def _register_snapshot(snapshot: tuple) -> int:
    """Park ``(topology, router_config)`` for fork inheritance; return its token."""
    token = next(_SNAPSHOT_TOKENS)
    _SNAPSHOT_REGISTRY[token] = snapshot
    return token


def _release_snapshot(token: "int | None") -> None:
    """Drop a parked snapshot (idempotent; ``None`` means pickled fallback)."""
    if token is not None:
        _SNAPSHOT_REGISTRY.pop(token, None)


# ------------------------------------------------------------------- workers
#: Per-worker-process simulator, built once from the pool's topology
#: snapshot and kept **resident** — its per-shard RIB state survives
#: between tasks and is only discarded on an epoch bump.
_WORKER_SIMULATOR: "BgpSimulator | None" = None
#: The configuration epoch this worker's simulator reflects.
_WORKER_EPOCH: int = 0
#: Routers whose ``export_community_additions`` the previous task set
#: (cleared before the next task installs its own).
_WORKER_ADDITION_ASNS: set[int] = set()


def capture_router_config(simulator: "BgpSimulator") -> dict[int, tuple]:
    """Snapshot every router's effective configuration.

    Routers derive their policy objects from the topology at
    construction, but call sites may swap them afterwards (a custom
    inbound filter chain, a strict IRR, a vendor override).  The pool
    payload carries the capture taken at pool construction; before every
    sharded dispatch the parent re-captures and compares (``!=`` falls
    back to identity for policy objects, which is exactly the hand-swap
    signal) — a difference bumps the pool epoch so workers re-sync.
    """
    return {
        asn: (
            router.propagation_policy,
            router.services,
            router.vendor,
            router.inbound_filters,
            router.send_community_configured,
        )
        for asn, router in simulator.routers.items()
    }


def _apply_router_config(simulator: "BgpSimulator", router_config: dict[int, tuple]) -> None:
    """Overwrite the worker simulator's per-router configuration."""
    for asn, config in router_config.items():
        router = simulator.routers.get(asn)
        if router is None:
            continue
        (
            router.propagation_policy,
            router.services,
            router.vendor,
            router.inbound_filters,
            router.send_community_configured,
        ) = config


def _initialize_worker(snapshot_ref: "int | bytes", max_rounds: int) -> None:
    """Pool initializer: resolve the snapshot, build the mirrored simulator.

    ``snapshot_ref`` is an :data:`_SNAPSHOT_REGISTRY` token on fork
    platforms — the registry entry was written before this process
    forked, so the lookup is a copy-on-write page read, not a
    deserialisation — or the pickled ``(topology, router_config)``
    payload on spawn-only platforms (and for legacy callers that still
    hand :class:`ShardPool` pre-pickled bytes).
    """
    global _WORKER_SIMULATOR, _WORKER_EPOCH, _WORKER_ADDITION_ASNS
    from repro.routing.engine import BgpSimulator

    if isinstance(snapshot_ref, int):
        topology, router_config = _SNAPSHOT_REGISTRY[snapshot_ref]
    else:
        topology, router_config = pickle.loads(snapshot_ref)
    simulator = BgpSimulator(topology, max_rounds=max_rounds, shards=1)
    _apply_router_config(simulator, router_config)
    _WORKER_SIMULATOR = simulator
    _WORKER_EPOCH = 0
    _WORKER_ADDITION_ASNS = set()


def _sync_worker(
    simulator: "BgpSimulator", epoch: int, router_config: "bytes | dict[int, tuple] | None"
) -> None:
    """Bring a resident worker onto ``epoch`` before running a task.

    A stale epoch means the parent's router configuration changed (or a
    previous shard task failed): every resident pair was converged under
    the old rules, so all of it is discarded — the parent re-ships what
    the next batches need through its pending-sync set.  The config
    payload is a :func:`repro.routing.wire.encode_config` blob (a plain
    capture dict is still accepted for direct callers).
    """
    global _WORKER_EPOCH
    if epoch == _WORKER_EPOCH:
        return
    clear_prefix_state(simulator, list(simulator._prefix_holders))
    simulator._last_touched = {}
    if router_config is not None:
        if isinstance(router_config, (bytes, bytearray)):
            router_config = wire.decode_config(bytes(router_config))
        _apply_router_config(simulator, router_config)
    _WORKER_EPOCH = epoch


def _install_additions(
    simulator: "BgpSimulator", additions: dict[int, dict[int, Any]]
) -> None:
    """Mirror the parent's per-router export community additions."""
    global _WORKER_ADDITION_ASNS
    for asn in _WORKER_ADDITION_ASNS - set(additions):
        router = simulator.routers.get(asn)
        if router is not None:
            router.export_community_additions = {}
    for asn, mapping in additions.items():
        router = simulator.routers.get(asn)
        if router is not None:
            router.export_community_additions = dict(mapping)
    _WORKER_ADDITION_ASNS = set(additions)


def _resident_simulator() -> "BgpSimulator":
    """The worker-process simulator (initializer always ran)."""
    simulator = _WORKER_SIMULATOR
    if simulator is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("shard worker used before initialization")
    return simulator


def _run_shard(task: ShardTask) -> tuple["SimulationReport", bytes]:
    """Worker entry point: converge one shard on resident state, return deltas.

    Unlike the stateless protocol this replaces, nothing is cleared up
    front: the worker's RIB state for its shards is authoritative (the
    parent shipped every pair it mutated since the last task via
    ``states``), so the install replaces exactly the shipped pairs and
    convergence continues from where the previous batch left off.  Both
    directions ride :mod:`repro.routing.wire` blobs.
    """
    epoch, router_config, additions_blob, events_blob, states_blob = task
    simulator = _resident_simulator()
    _sync_worker(simulator, epoch, router_config)
    install_prefix_state(simulator, wire.decode_states(states_blob), stale=None)
    _install_additions(simulator, wire.decode_additions(additions_blob))
    report = simulator._apply_local(wire.decode_events(events_blob))
    # Ship back only the pairs this convergence touched: everything else
    # is either untouched in the parent or resident here for next time.
    deltas = capture_prefix_state(
        simulator, list(simulator._last_touched), holders=simulator._last_touched
    )
    return report, wire.encode_states(deltas)


def _fingerprint_shard(task: tuple) -> "list[PrefixState] | None":
    """Sanitizer audit entry point: capture the resident state of given pairs.

    ``task`` is ``(epoch, pairs)`` with ``pairs`` a list of
    ``(prefix, holder_asns)``.  Returns the worker's
    :func:`capture_prefix_state` snapshot for exactly those pairs, or
    ``None`` when the worker sits on a different epoch (its resident
    state is already condemned, so there is nothing settled to compare).
    Only dispatched by :func:`repro.analysis.sanitizer.check_drain`.
    """
    epoch, pairs = task
    simulator = _resident_simulator()
    if epoch != _WORKER_EPOCH:
        return None
    holders = {prefix: set(holder_asns) for prefix, holder_asns in pairs}
    return capture_prefix_state(
        simulator, [prefix for prefix, _holder_asns in pairs], holders=holders
    )


# ---------------------------------------------------------------------- pool
def _shutdown_executors(
    executors: "list[ProcessPoolExecutor | None]", wait: bool = True
) -> None:
    """Stop every live slot executor in place (idempotent)."""
    for index, executor in enumerate(executors):
        executors[index] = None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)


def _teardown_pool(
    executors: "list[ProcessPoolExecutor | None]", token: "int | None", wait: bool = True
) -> None:
    """Full pool teardown: stop the workers, release the parked snapshot."""
    _shutdown_executors(executors, wait=wait)
    _release_snapshot(token)


class ShardPool:
    """Slot-pinned, resident shard worker processes.

    ``shards`` fixes the partition granularity for the pool's lifetime
    and ``workers`` how many processes serve them; shard ``i`` is always
    dispatched to slot ``i % workers``, which is what makes worker RIB
    state reusable across batches.  Each slot is a single-worker
    executor started lazily on first use.

    ``snapshot`` is the ``(topology, router configuration)`` tuple the
    workers mirror.  On fork platforms it is parked in the pre-fork
    :data:`_SNAPSHOT_REGISTRY` and each slot executor forks after the
    write, so workers inherit it via copy-on-write without ever
    deserialising it; spawn-only platforms (and callers that pass
    pre-pickled ``bytes``) fall back to shipping the pickled payload to
    each worker's initializer.

    The pool is a context manager, shuts its workers down from a GC
    finalizer, and any stragglers are stopped by an ``atexit`` hook —
    a long-lived pool can never leak worker processes past interpreter
    exit.
    """

    def __init__(
        self,
        snapshot: "tuple | bytes",
        max_rounds: int = 1000,
        workers: int = 1,
        shards: int | None = None,
    ):
        self.workers = max(1, workers)
        #: Partition granularity — at least ``workers`` so every slot
        #: serves a non-empty shard range.
        self.shards = max(self.workers, shards if shards is not None else self.workers)
        #: Router-configuration generation (see :func:`_sync_worker`).
        self.epoch = 0
        #: Cumulative count of :class:`PrefixState` entries shipped
        #: parent -> worker (cheap, always on).
        self.shipped_state_entries = 0
        #: Cumulative encoded task payload bytes shipped parent ->
        #: worker (wire blobs, including the router config on epoch
        #: bumps).  Always on: the blob sizes are free to read.
        self.ship_bytes = 0
        self.tasks_dispatched = 0
        self._snapshot_token: "int | None" = None
        if isinstance(snapshot, (bytes, bytearray)):
            self._snapshot_ref: "int | bytes" = bytes(snapshot)
        elif _FORK_CONTEXT is not None:
            self._snapshot_token = _register_snapshot(snapshot)
            self._snapshot_ref = self._snapshot_token
        else:  # pragma: no cover - spawn-only platforms
            self._snapshot_ref = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
        self._max_rounds = max_rounds
        self._executors: "list[ProcessPoolExecutor | None]" = [None] * self.workers
        self._slot_epochs = [0] * self.workers
        self._finalizer = weakref.finalize(
            self, _teardown_pool, self._executors, self._snapshot_token
        )
        residency.track_pool(self)

    def slot_for(self, shard_index: int) -> int:
        """The worker slot that owns ``shard_index`` (pinned for life)."""
        return shard_index % self.workers

    def bump_epoch(self) -> int:
        """Invalidate all resident worker state (config change / failed task)."""
        self.epoch += 1
        return self.epoch

    def sync_header(
        self, slot: int, config_supplier: "Callable[[], bytes]"
    ) -> tuple[int, "bytes | None"]:
        """The ``(epoch, config-blob-or-None)`` header for a task bound to ``slot``.

        The configuration payload — a ``wire.encode_config`` blob —
        rides along only on the first task a slot sees after an epoch
        bump; ``config_supplier`` is called lazily so the common
        already-synced case pays nothing.
        """
        if self._slot_epochs[slot] != self.epoch:
            self._slot_epochs[slot] = self.epoch
            header: "tuple[int, bytes | None]" = (self.epoch, config_supplier())
        else:
            header = (self.epoch, None)
        if os.environ.get("REPRO_SANITIZE", "") not in ("", "0"):
            from repro.analysis.sanitizer import check_sync_header

            check_sync_header(self, slot, header[0], header[1])
        return header

    def submit(self, slot: int, fn, task) -> "Future":
        """Dispatch ``fn(task)`` to ``slot``'s resident worker."""
        if os.environ.get("REPRO_SANITIZE", "") not in ("", "0"):
            from repro.analysis.sanitizer import check_submit

            check_submit(self, slot, task)
        executor = self._executors[slot]
        if executor is None:
            executor = ProcessPoolExecutor(
                max_workers=1,
                mp_context=_FORK_CONTEXT,
                initializer=_initialize_worker,
                initargs=(self._snapshot_ref, self._max_rounds),
            )
            self._executors[slot] = executor
        self.tasks_dispatched += 1
        size = 0
        if isinstance(task, tuple):
            # Every payload field — including the router-config blob on
            # epoch bumps — is a wire blob, so the exact ship size is one
            # generic pass.
            for field in task:
                if isinstance(field, (bytes, bytearray)):
                    size += len(field)
        self.ship_bytes += size
        return executor.submit(fn, task)

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker processes, release the snapshot (idempotent)."""
        _teardown_pool(self._executors, self._snapshot_token, wait=wait)
        self._snapshot_token = None
