"""The propagation engine: drive announcements through the AS graph to convergence.

The simulator is synchronous and deterministic: announcements are
processed in waves (per-(router, prefix) worklist order is implied by
the queue), and a step only re-exports a prefix whose best path
actually changed at that router, so the process terminates once the
network is stable.  Determinism matters because every benchmark
compares concrete numbers run-to-run.

Batch semantics (``apply``)
---------------------------

:meth:`BgpSimulator.apply` is the core entry point.  It takes an
iterable of :class:`RoutingEvent` origination changes (announce or
withdraw, any mix of prefixes and origins), applies **all** of them to
the origin routers first, and then drives a **single shared worklist**
keyed on ``(router_asn, prefix)`` to convergence:

* every seeded or re-enqueued pair is deduplicated, and best-path
  refresh is *deferred* to the pop: a router that received several
  updates for one prefix while queued integrates them all, re-selects
  once, and re-exports once — with its latest best;
* a popped pair only exports onward when the refresh actually changed
  its best route (or it seeds an origination), so stable regions of
  the graph are never re-walked and transient bests that were
  overtaken in the queue are never exported;
* a popped pair exports through one :meth:`Router.export_fanout`: the
  route-level gates run once per changed best route, and the rewrite is
  memoised per batch under :meth:`Router.export_memo_key` (the policy's
  *neighbor signature* plus per-session additions, not the neighbor), so
  sessions treated alike and prefixes with equal attributes share it;
* the returned :class:`SimulationReport` merges every event: its
  ``dirty`` map records each (router, prefix) whose best route changed,
  which :meth:`~repro.dataplane.forwarding.DataPlane.rebuild` uses to
  patch only the affected FIB entries in one pass.

``announce``/``withdraw`` are thin single-event wrappers over
``apply``; ``announce_many``/``withdraw_many`` batch homogeneous event
lists; ``announce_originated`` seeds the simulation with every prefix
the topology records as owned — the pattern the RTBH sweeps, steering
experiments and dataset generators use to pre-load thousands of
originations without N independent BFS runs.

Sharded execution
-----------------

The per-(router, prefix) worklist partitions *exactly* by prefix (a
pair only ever enqueues pairs of the same prefix), so ``apply`` is
layered as a scheduler over a pure per-shard core:

* ``_apply_local`` seeds and converges a list of events entirely
  in-process — its one memo (export rewrites) is scoped to the call,
  which is what makes the core safe to run per shard;
* with ``shards`` = K > 1 (capped at the batch's distinct-prefix
  count) the batch is partitioned by a stable hash of
  ``(family, network, length)`` into the pool's pinned shard count, each
  shard driven by ``_apply_local`` in its **resident** worker process
  (see :mod:`repro.routing.shard`): workers keep their shards' RIB
  state between batches, the parent ships only the events plus the
  (prefix, router) pairs it mutated since the last dispatch (the
  pending-sync set), and the per-shard :class:`SimulationReport`\\ s plus
  Loc-RIB/Adj-RIB-In deltas are merged back so the parent ends up
  byte-identical to a sequential run — incremental
  :meth:`DataPlane.rebuild` works unchanged.  Router-config changes are
  detected before every dispatch and bump the pool's state epoch, which
  makes workers discard resident state and re-sync.  The pool is the
  simulator's own (see :mod:`repro.routing.residency`): built on the
  first sharded batch, shut down by :meth:`BgpSimulator.close`.

``shards`` is one explicit positive integer, 1 (the in-process core)
unless the caller asks for more; :func:`validate_shards` rejects
anything else where the value enters.

For incremental event streams (feed/drain with per-prefix coalescing)
see :mod:`repro.routing.stream`, a thin front end over ``apply``.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from repro.bgp.community import CommunitySet
from repro.bgp.prefix import Prefix
from repro.exceptions import ConvergenceError, RoutingError
from repro.routing.router import Router
from repro.topology.relationships import Relationship
from repro.topology.topology import Topology


def validate_shards(value: object) -> int:
    """``value`` if it is a shard count (a non-``bool`` ``int`` >= 1), else raise."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise RoutingError(f"shards must be a positive integer, got {value!r}")
    return value


@dataclass(frozen=True)
class RoutingEvent:
    """One origination change: announce (default) or withdraw a prefix at an AS.

    Events are plain values so call sites can build thousands of them
    up front and hand the whole batch to :meth:`BgpSimulator.apply`.
    """

    origin_asn: int
    prefix: Prefix
    withdraw: bool = False
    communities: CommunitySet | None = None
    #: Lets an attacker claim a different origin (a hijack with a
    #: fabricated origin, including AS0); by default the announcing AS
    #: is the origin.
    spoofed_origin_asn: int | None = None

    @classmethod
    def announcement(
        cls,
        origin_asn: int,
        prefix: Prefix,
        communities: CommunitySet | None = None,
        spoofed_origin_asn: int | None = None,
    ) -> "RoutingEvent":
        """Build an announce event."""
        return cls(
            origin_asn=origin_asn,
            prefix=prefix,
            communities=communities,
            spoofed_origin_asn=spoofed_origin_asn,
        )

    @classmethod
    def withdrawal(cls, origin_asn: int, prefix: Prefix) -> "RoutingEvent":
        """Build a withdraw event."""
        return cls(origin_asn=origin_asn, prefix=prefix, withdraw=True)


def origination_events(topology: Topology) -> list[RoutingEvent]:
    """Announce events for every prefix ``topology`` records as owned.

    Handing the list to :meth:`BgpSimulator.apply` (or
    ``announce_many``) pre-seeds a simulation with all of its
    originations in one batched convergence pass; the order is fixed
    (by owner ASN, then prefix) so runs are reproducible.
    """
    originations = sorted(
        topology.originated_prefixes().items(), key=lambda item: (item[1], item[0])
    )
    return [RoutingEvent(origin_asn=asn, prefix=prefix) for prefix, asn in originations]


def _distinct_prefixes(events: Iterable[RoutingEvent]) -> list[Prefix]:
    """The distinct prefixes of ``events`` in first-seen order."""
    seen: set[Prefix] = set()
    prefixes: list[Prefix] = []
    for event in events:
        if event.prefix not in seen:
            seen.add(event.prefix)
            prefixes.append(event.prefix)
    return prefixes


@dataclass
class SimulationReport:
    """Book-keeping of one simulation run."""

    announcements_processed: int = 0
    rounds: int = 0
    prefixes: set[Prefix] = field(default_factory=set)
    #: Per-router prefixes whose best route changed during this run.  The
    #: data plane uses this to patch only the affected FIB entries instead
    #: of rebuilding every AS's FIB (see :meth:`DataPlane.rebuild`).
    dirty: dict[int, set[Prefix]] = field(default_factory=dict)

    def mark_dirty(self, asn: int, prefix: Prefix) -> None:
        """Record that ``asn``'s best route for ``prefix`` (possibly) changed."""
        self.dirty.setdefault(asn, set()).add(prefix)

    def merge(self, other: "SimulationReport") -> None:
        """Accumulate another report into this one."""
        self.announcements_processed += other.announcements_processed
        self.rounds += other.rounds
        self.prefixes |= other.prefixes
        for asn, prefixes in other.dirty.items():
            self.dirty.setdefault(asn, set()).update(prefixes)


class BgpSimulator:
    """Builds one :class:`Router` per AS and propagates announcements to convergence.

    ``shards`` is the default shard count of :meth:`apply`: ``1`` runs
    the in-process core, an integer K partitions every multi-prefix
    batch into K prefix shards driven by ``min(K, os.cpu_count())``
    worker processes.
    """

    def __init__(self, topology: Topology, max_rounds: int = 1000, shards: int = 1):
        self.topology = topology
        self.max_rounds = max_rounds
        self.shards = validate_shards(shards)
        self.routers: dict[int, Router] = {}
        self.report = SimulationReport()
        #: Every router that ever held any state (origination, Adj-RIB-In
        #: entry, best route) for a prefix — the exact set of routers whose
        #: per-prefix state must travel to/from a shard worker.  Maintained
        #: by the engine; grows monotonically (like ``report``).
        self._prefix_holders: dict[Prefix, set[int]] = {}
        #: The (prefix -> routers) pairs touched by the most recent
        #: ``_apply_local`` call only.  A shard worker returns state for
        #: exactly these pairs: anything it did not touch is still
        #: byte-identical in the parent, so shipping it back would be
        #: pure serialization overhead.
        self._last_touched: dict[Prefix, set[int]] = {}
        #: The lease through which this simulator reaches its shard pool
        #: (see :mod:`repro.routing.residency`).  The lease — not the
        #: simulator — owns the router-config epoch state.
        self._pool_lease = None
        #: The (prefix -> routers) pairs the parent mutated since it last
        #: shipped that prefix's state to its resident shard worker.
        #: Seeded with the full holder map when a pool is leased; grown by
        #: sequential applies run while a pool exists; drained by sharded
        #: dispatches and harvests.  Empty for prefixes whose worker-side
        #: state already equals the parent's.
        self._pending_sync: dict[Prefix, set[int]] = {}
        for asys in topology:
            relationships = {
                neighbor: topology.relationship(asys.asn, neighbor)
                for neighbor in topology.neighbors(asys.asn)
            }
            self.routers[asys.asn] = Router(asys, relationships)

    @property
    def _shard_pool(self):
        """The leased pool, or ``None`` (read-only view over the lease)."""
        lease = self._pool_lease
        return None if lease is None else lease.pool

    def close(self) -> None:
        """Shut the shard pool down (idempotent; also runs on GC).

        The simulator stays usable: its next sharded batch builds a new
        pool and re-ships the state it holds.
        """
        lease, self._pool_lease = self._pool_lease, None
        self._pending_sync = {}
        if lease is not None:
            lease.release()

    def fork(self) -> "BgpSimulator":
        """An independent twin in this simulator's exact state.

        Shares the topology; forks every router (:meth:`Router.fork`) and
        copies the report and holder map.  The twin has no shard pool yet.
        """
        twin = copy.copy(self)
        twin.routers = {asn: router.fork() for asn, router in self.routers.items()}
        twin.report = SimulationReport()
        twin.report.merge(self.report)
        twin._prefix_holders = {prefix: set(asns) for prefix, asns in self._prefix_holders.items()}
        twin._last_touched = {}
        twin._pool_lease = None
        twin._pending_sync = {}
        return twin

    def router(self, asn: int) -> Router:
        """Return the router of ``asn``."""
        try:
            return self.routers[asn]
        except KeyError as exc:
            raise RoutingError(f"no router for AS{asn}") from exc

    # ---------------------------------------------------------------- peering
    def register_collector_peering(self, peer_asn: int, collector_asn: int) -> None:
        """Register a route-collector session on ``peer_asn``.

        The collector is modelled as a customer-like session so the peer
        exports its full table; the collector AS itself does not need a
        router (it only records what it receives).
        """
        router = self.router(peer_asn)
        router.add_neighbor(collector_asn, Relationship.CUSTOMER)

    # ------------------------------------------------------------ origination
    def announce(
        self,
        origin_asn: int,
        prefix: Prefix,
        communities: CommunitySet | None = None,
        spoofed_origin_asn: int | None = None,
    ) -> SimulationReport:
        """Originate ``prefix`` at ``origin_asn`` and propagate to convergence.

        ``spoofed_origin_asn`` lets an attacker claim a different origin
        (a hijack with a fabricated origin); by default the announcing AS
        is the origin.
        """
        return self.apply(
            [
                RoutingEvent(
                    origin_asn=origin_asn,
                    prefix=prefix,
                    communities=communities,
                    spoofed_origin_asn=spoofed_origin_asn,
                )
            ]
        )

    def withdraw(self, origin_asn: int, prefix: Prefix) -> SimulationReport:
        """Withdraw an origination and re-propagate."""
        return self.apply([RoutingEvent.withdrawal(origin_asn, prefix)])

    def announce_many(self, announcements: Iterable) -> SimulationReport:
        """Originate many prefixes and drive them all to convergence in one pass.

        Each item is a :class:`RoutingEvent`, an ``(origin_asn, prefix)``
        pair, or an ``(origin_asn, prefix, communities)`` triple.
        """
        return self.apply(self._coerce(a) for a in announcements)

    def withdraw_many(self, withdrawals: Iterable[tuple[int, Prefix]]) -> SimulationReport:
        """Withdraw many ``(origin_asn, prefix)`` originations in one pass."""
        return self.apply(
            RoutingEvent.withdrawal(origin_asn, prefix) for origin_asn, prefix in withdrawals
        )

    def announce_originated(self) -> SimulationReport:
        """Batch-announce every prefix the topology records as owned.

        This is how experiment drivers pre-seed a generated Internet with
        its full set of originations (thousands of prefixes) in a single
        shared convergence pass.
        """
        return self.apply(origination_events(self.topology))

    @staticmethod
    def _coerce(item) -> RoutingEvent:
        """Normalise an ``announce_many`` item into a :class:`RoutingEvent`."""
        if isinstance(item, RoutingEvent):
            return item
        if isinstance(item, tuple) and len(item) == 2:
            return RoutingEvent(origin_asn=item[0], prefix=item[1])
        if isinstance(item, tuple) and len(item) == 3:
            return RoutingEvent(origin_asn=item[0], prefix=item[1], communities=item[2])
        raise RoutingError(
            f"cannot interpret {item!r} as a routing event: expected RoutingEvent, "
            "(origin_asn, prefix) or (origin_asn, prefix, communities)"
        )

    # -------------------------------------------------------------- propagation
    def apply(
        self, events: Iterable[RoutingEvent], shards: int | None = None
    ) -> SimulationReport:
        """Apply a batch of origination events and converge them in one pass.

        This is the scheduler layer: it validates the batch, picks the
        in-process core or sharded multi-process execution (``shards``
        overrides the simulator's shard count for this call), runs it,
        and folds the outcome into the cumulative report.  The converged
        state — Loc-RIBs, FIBs after ``rebuild``, merged ``dirty`` maps —
        is identical whichever path ran.

        The batch is validated up front — a malformed event, an unknown
        origin ASN or a bad ``shards`` value raises before any router
        state changes, so a failing ``apply`` leaves the simulation
        untouched.
        """
        events = list(events)
        for event in events:
            self.router(event.origin_asn)
        shard_count = self.shards if shards is None else validate_shards(shards)
        if shard_count > 1:
            # Never cut more shards than there are prefixes: the surplus
            # shards would be empty and would only spawn idle workers.
            shard_count = min(shard_count, len({event.prefix for event in events}))
        if shard_count <= 1:
            report = self._apply_local(events)
            if self._pool_lease is not None:
                # A resident pool exists but this batch ran in-process:
                # every pair it touched is now newer in the parent than
                # in the workers, so it must ship with the next dispatch.
                for prefix, touched in self._last_touched.items():
                    self._pending_sync.setdefault(prefix, set()).update(touched)
        else:
            report = self._apply_sharded(events, shard_count)
        self.report.merge(report)
        return report

    def _apply_local(self, events: list[RoutingEvent]) -> SimulationReport:
        """The pure per-shard core: seed and converge ``events`` in-process.

        Runs unchanged in the parent (sequential execution) and inside
        shard workers; the export memo is scoped to this call, i.e. per
        shard.  Imports are not memoised: every update runs
        :meth:`Router.import_announcement` in full.
        """
        report = SimulationReport()
        self._last_touched = {}
        # Seed origins grouped per prefix, in first-seen prefix order.
        # All of a prefix's events are applied to their origin routers
        # *before* it propagates, so a batch is a net state change (an
        # announce followed by a withdraw of the same prefix cancels out).
        seeds: dict[Prefix, list[int]] = {}
        for event in events:
            router = self.router(event.origin_asn)
            if event.withdraw:
                router.withdraw_origination(event.prefix)
            else:
                router.originate(
                    event.prefix,
                    communities=event.communities,
                    origin_asn=event.spoofed_origin_asn,
                )
            report.prefixes.add(event.prefix)
            # The origination (or withdrawal) itself may have changed the
            # origin router's best route; its FIB entry must be re-derived.
            report.mark_dirty(event.origin_asn, event.prefix)
            origins = seeds.setdefault(event.prefix, [])
            if event.origin_asn not in origins:
                origins.append(event.origin_asn)
        # Worklist keys are (router, prefix) pairs and a pair can only
        # ever enqueue pairs of the *same* prefix, so the shared list
        # partitions exactly by prefix.  Draining it prefix-major is
        # observationally identical to one interleaved FIFO (same
        # imports in the same per-prefix order, same report) but keeps
        # each prefix's working set hot instead of cycling through
        # every prefix's RIB entries breadth-first.
        # Batch-scoped memo: outbound attributes depend on the best route
        # minus its prefix, so prefixes sharing attributes pay the export
        # rewrite once (see :meth:`Router.export_fanout`).
        export_cache: dict = {}
        for prefix, origins in seeds.items():
            self._drive_prefix(report, prefix, origins, export_cache)
        return report

    def _apply_sharded(
        self, events: list[RoutingEvent], shard_count: int
    ) -> SimulationReport:
        """Partition the batch by prefix and converge it on resident workers.

        Each worker already holds the converged state of its shards'
        prefixes from earlier batches; the dispatch ships only the
        events plus the pending-sync pairs the parent mutated since the
        last call, runs the same ``_apply_local`` core, and ships back
        the touched-pair deltas; the merge replays those onto the parent
        routers.  All results are collected *and decoded* before any
        merge, so a failing shard or a corrupt delta blob leaves the
        parent untouched (the pool epoch is bumped so the workers'
        partial state is discarded too).

        Everything on the wire is a :mod:`repro.routing.wire` blob: the
        additions encode once per batch (every slot ships the same
        bytes), events and states once per shard.
        """
        from repro.routing import shard as shard_module
        from repro.routing import wire

        pool = self._ensure_pool(shard_count)
        self._refresh_pool_epoch(pool)
        groups = shard_module.partition_events(events, pool.shards)
        additions = {
            asn: dict(router.export_community_additions)
            for asn, router in self.routers.items()
            if router.export_community_additions
        }
        futures = []
        stale: set[Prefix] = set()
        try:
            additions_blob = wire.encode_additions(additions)
            for shard_index, shard_events in groups:
                prefixes = _distinct_prefixes(shard_events)
                stale.update(p for p in prefixes if self._prefix_holders.get(p))
                sync: dict[Prefix, set[int]] = {}
                for prefix in prefixes:
                    pending = self._pending_sync.pop(prefix, None)
                    if pending:
                        sync[prefix] = pending
                states = shard_module.capture_prefix_state(self, list(sync), holders=sync)
                slot = pool.slot_for(shard_index)
                epoch, config = pool.sync_header(slot, self._pool_lease.config_blob)
                pool.shipped_state_entries += len(states)
                futures.append(
                    pool.submit(
                        slot,
                        shard_module._run_shard,
                        (
                            epoch,
                            config,
                            additions_blob,
                            wire.encode_events(shard_events),
                            wire.encode_states(states),
                        ),
                    )
                )
            results = [future.result() for future in futures]
            outcomes = [
                (worker_report, wire.decode_states(delta_blob))
                for worker_report, delta_blob in results
            ]
        except BaseException:
            # Worker state is now unknowable (popped pending pairs were
            # possibly never applied, some shards may have half-run):
            # discard all residency.  Parent state is untouched — the
            # merge below is all-or-nothing.
            self._invalidate_pool()
            raise
        report = SimulationReport()
        stale = frozenset(stale)
        for worker_report, deltas in outcomes:
            shard_module.install_prefix_state(self, deltas, stale=stale)
            report.merge(worker_report)
        return report

    def _ensure_pool(self, wanted_shards: int):
        """The leased resident worker pool, rebuilt only to grow.

        The pool's shard count is pinned at construction (that is what
        keeps shard-to-slot placement — and therefore worker residency —
        stable across batches), so only a batch wanting more shards than
        the pool has replaces it.  A new pool starts with no resident
        state: the pending-sync set is seeded from the full holder map.
        """
        from repro.routing.residency import PROVIDER

        lease = self._pool_lease
        if lease is not None:
            if wanted_shards <= lease.pool.shards:
                return lease.pool
            self.close()
        self._pool_lease = PROVIDER.acquire(self, wanted_shards)
        self._pending_sync = {
            prefix: set(holders) for prefix, holders in self._prefix_holders.items()
        }
        return self._pool_lease.pool

    def _refresh_pool_epoch(self, pool) -> None:
        """Bump the pool epoch when the router configuration changed.

        Policy objects compare by identity (hand-swapping one is the
        reconfiguration signal), so the lease's capture comparison is
        exactly "did anyone replace a router's config since the last
        dispatch".  An epoch bump makes every worker discard its
        resident state, so the parent re-arms the pending-sync set with
        the full holder map.
        """
        lease = self._pool_lease
        if lease is not None and lease.refresh(self):
            self._pending_sync = {
                prefix: set(holders) for prefix, holders in self._prefix_holders.items()
            }

    def _invalidate_pool(self) -> None:
        """Discard all resident worker state (after a failed dispatch)."""
        lease = self._pool_lease
        if lease is not None:
            lease.invalidate()
            self._pending_sync = {
                prefix: set(holders) for prefix, holders in self._prefix_holders.items()
            }

    def _drive_prefix(
        self,
        report: SimulationReport,
        prefix: Prefix,
        origins: list[int],
        export_cache: dict | None = None,
    ) -> None:
        """Converge one prefix's worklist partition (seeded at ``origins``).

        Imports are deferred: an export writes the receiver's Adj-RIB-In
        and enqueues the receiver, and the receiver runs best-path
        selection once when popped — integrating every update that
        arrived in the meantime — instead of once per incoming update.
        Only a router whose best actually changed (or a seeded origin)
        exports onward, so transient bests that are overtaken while
        still queued are never exported at all.
        """
        routers = self.routers
        # Holder tracking: every router this pass enqueues is a router
        # whose state for the prefix may now differ from "empty" — the
        # set a shard worker must receive; ``_last_touched`` narrows the
        # send-back to this call's work.
        holders = self._prefix_holders.setdefault(prefix, set())
        touched = self._last_touched.setdefault(prefix, set())
        queue: deque[int] = deque(dict.fromkeys(origins))
        queued: set[int] = set(origins)
        force: set[int] = set(origins)
        holders.update(origins)
        touched.update(origins)
        needs_refresh: set[int] = set()
        steps = processed = 0
        budget = self.max_rounds * max(1, len(routers))
        while queue:
            steps += 1
            if steps > budget:
                raise ConvergenceError(
                    f"prefix {prefix} did not converge after {steps} processing steps"
                )
            current_asn = queue.popleft()
            queued.discard(current_asn)
            current = routers.get(current_asn)
            if current is None:
                continue
            changed = False
            if current_asn in needs_refresh:
                needs_refresh.discard(current_asn)
                changed = current.refresh_best(prefix)
                if changed:
                    report.mark_dirty(current_asn, prefix)
            if current_asn in force:
                force.discard(current_asn)
                changed = True
            if not changed:
                continue
            for neighbor_asn, announcement in current.export_fanout(prefix, export_cache):
                neighbor = routers.get(neighbor_asn)
                if neighbor is None:
                    continue
                if announcement is not None:
                    neighbor.import_announcement(announcement)
                elif not neighbor.remove_announcement(prefix, current_asn):
                    continue
                processed += 1
                needs_refresh.add(neighbor_asn)
                if neighbor_asn not in queued:
                    queued.add(neighbor_asn)
                    queue.append(neighbor_asn)
                    holders.add(neighbor_asn)
                    touched.add(neighbor_asn)
        report.announcements_processed += processed
        report.rounds += steps

    # ------------------------------------------------------------- inspection
    def best_route(self, asn: int, prefix: Prefix):
        """Return the best route of ``asn`` for exactly ``prefix``."""
        return self.router(asn).loc_rib.best(prefix)

    def ases_with_route(self, prefix: Prefix) -> list[int]:
        """Return every AS holding a best route for exactly ``prefix``."""
        return sorted(
            asn for asn, router in self.routers.items() if router.loc_rib.best(prefix) is not None
        )

    def ases_with_blackholed_route(self, prefix: Prefix) -> list[int]:
        """Return every AS whose best route for ``prefix`` is blackholed."""
        return sorted(
            asn
            for asn, router in self.routers.items()
            if (best := router.loc_rib.best(prefix)) is not None and best.blackholed
        )

    def observed_path(self, asn: int, prefix: Prefix) -> list[int] | None:
        """Return the AS path (observer first, origin last) seen at ``asn``."""
        best = self.router(asn).loc_rib.best(prefix)
        if best is None:
            return None
        return [asn] + best.attributes.as_path.asns()
