"""Sharded, memoised collector harvesting.

``CollectorDeployment.collect_from_simulator`` used to be the last
serial hot path of the pipeline: one process re-ran each peer router's
full-table export policy chain once per (collector, peer) session.
This module is the subsystem that replaces that loop:

* :func:`build_worklist` flattens a deployment into the exact
  (collector, peer) sequence the serial loop walked — the item index is
  the merge key that keeps any parallel execution byte-identical;
* the **per-peer export table**: one harvest-scoped export cache holds
  one table per (peer, :meth:`Router.export_memo_key`), and each session
  runs only its own gates over it (see :meth:`Router.export_all_to`), so
  N collectors peering with the same AS read its Loc-RIB once; rows
  share one AS-path tuple per distinct path;
* :func:`harvest_archive` with ``shards=K`` (K > 1; capped at the
  distinct-peer count) exports from the **resident** Loc-RIBs of the
  owning simulator's slot-pinned :class:`~repro.routing.shard.ShardPool`
  — the same pool, topology snapshot and workers sharded propagation
  uses.  Each worker already holds the converged state of its prefix
  shards from propagation, so a harvest ships only the parent's
  pending-sync backlog (nothing, when the last batches ran sharded) plus
  the work-list — no per-harvest best-route re-shipping.  Every worker
  runs the same memoised export core over the full work-list restricted
  to its resident prefixes and returns observation rows tagged with
  their work-list index; the parent merges each item's rows back in its
  own per-peer Loc-RIB insertion order — the resulting archive is
  byte-identical to the serial loop for every shard count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.collectors.observation import ObservationArchive, RouteObservation, _observation
from repro.routing.engine import validate_shards
from repro.topology.relationships import Relationship
from repro.utils.collector import collector_paused

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.bgp.aspath import ASPath
    from repro.bgp.prefix import Prefix
    from repro.collectors.platform import CollectorDeployment
    from repro.routing.engine import BgpSimulator


@dataclass(frozen=True)
class HarvestItem:
    """One (collector, peer) session of the harvest work-list."""

    #: Position in the serial work-list — the merge key that keeps a
    #: sharded harvest byte-identical to the serial loop.
    index: int
    platform: str
    collector_id: str
    collector_asn: int
    peer_asn: int


def build_worklist(
    deployment: "CollectorDeployment", simulator: "BgpSimulator"
) -> list[HarvestItem]:
    """Flatten a deployment into the serial-order (collector, peer) work-list.

    Peers without a router in the simulation are skipped, exactly like
    the historical serial loop skipped them.
    """
    items: list[HarvestItem] = []
    routers = simulator.routers
    for collector in deployment.all_collectors():
        for peer_asn in collector.peer_asns:
            if peer_asn not in routers:
                continue
            items.append(
                HarvestItem(
                    index=len(items),
                    platform=collector.platform,
                    collector_id=collector.collector_id,
                    collector_asn=collector.collector_asn,
                    peer_asn=peer_asn,
                )
            )
    return items


class _Paths(dict):
    """``ASPath -> the plain tuple of its ASNs``, built on first use: one tuple per distinct path."""

    def __missing__(self, as_path: "ASPath") -> tuple[int, ...]:
        asns = self[as_path] = tuple(as_path)
        return asns


def _export_item(
    simulator: "BgpSimulator", item: HarvestItem, export_cache: dict, paths: dict
) -> list[RouteObservation]:
    """Export one session's full table through the shared memo."""
    router = simulator.router(item.peer_asn)
    platform, collector_id, peer_asn = item.platform, item.collector_id, item.peer_asn
    # Built in C from the tuple of all eight fields: one observation per
    # exported route.
    return [
        _observation(
            (
                platform, collector_id, peer_asn, announcement.prefix,
                paths[announcement.attributes.as_path], announcement.attributes.communities,
                0.0, False,
            )
        )
        for announcement in router.export_all_to(
            item.collector_asn, export_cache, router.export_memo_key(item.collector_asn)
        )
    ]


def _harvest_serial(
    items: Sequence[HarvestItem], simulator: "BgpSimulator"
) -> ObservationArchive:
    """The in-process reference path: serial order, memoised exports."""
    archive = ObservationArchive()
    export_cache: dict = {}
    paths = _Paths()
    for item in items:
        simulator.register_collector_peering(item.peer_asn, item.collector_asn)
        archive.extend(_export_item(simulator, item, export_cache, paths))
    return archive


# ---------------------------------------------------------------- sharded path
#: One slot's task payload: ``(epoch, router_config | None,
#: additions_blob, items_blob, states_blob)`` — the same
#: sync header the propagation tasks carry, the full work-list, and the
#: slot's pending state deltas, all as :mod:`repro.routing.wire` blobs.
HarvestTask = tuple


def _run_harvest_shard(task: HarvestTask) -> bytes:
    """Worker entry point: export the work-list from the resident Loc-RIBs.

    The worker's routers already hold the converged state of this
    slot's prefix shards (``states`` carries only what the parent
    mutated since the last dispatch), so each item's export is simply
    ``export_all_to`` over the resident table — which contains exactly
    this slot's share of the peer's prefixes.  Rows carry only the
    per-route payload (prefix, AS path, communities) plus their
    work-list index; the parent re-attaches the per-item constants and
    reorders each item's merged rows into its own Loc-RIB order.
    """
    from repro.routing import shard as shard_module
    from repro.routing import wire

    epoch, router_config, additions_blob, items_blob, states_blob = task
    simulator = shard_module._resident_simulator()
    shard_module._sync_worker(simulator, epoch, router_config)
    shard_module.install_prefix_state(simulator, wire.decode_states(states_blob), stale=None)
    shard_module._install_additions(simulator, wire.decode_additions(additions_blob))
    export_cache: dict = {}
    paths = _Paths()
    results: list[tuple[int, list[tuple]]] = []
    for item in wire.decode_items(items_blob):
        router = simulator.routers[item.peer_asn]
        router.add_neighbor(item.collector_asn, Relationship.CUSTOMER)
        shared_key = router.export_memo_key(item.collector_asn)
        rows = [
            (
                announcement.prefix,
                paths[announcement.attributes.as_path],
                announcement.attributes.communities,
            )
            for announcement in router.export_all_to(
                item.collector_asn, export_cache, shared_key
            )
        ]
        results.append((item.index, rows))
    return wire.encode_observations(results)


def _harvest_sharded(
    items: Sequence[HarvestItem],
    simulator: "BgpSimulator",
    shard_count: int,
) -> ObservationArchive:
    """Export from the resident workers, merge in work-list + Loc-RIB order."""
    from repro.routing import shard as shard_module
    from repro.routing import wire

    # The parent registers every session too, exactly like the serial
    # path — parent simulator state is identical whichever path ran.
    # (Collector sessions never influence propagation, so they do not
    # perturb the pool's config epoch either.)
    for item in items:
        simulator.register_collector_peering(item.peer_asn, item.collector_asn)
    pool = simulator._ensure_pool(shard_count)
    simulator._refresh_pool_epoch(pool)
    # A harvest reads *every* resident Loc-RIB, so the parent's entire
    # pending-sync backlog must flush — grouped by the slot that owns
    # each prefix.  Slots that hold no state at all are never dispatched.
    slot_sync: dict[int, dict["Prefix", set[int]]] = {}
    for prefix in list(simulator._pending_sync):
        slot = pool.slot_for(shard_module.stable_shard(prefix, pool.shards))
        slot_sync.setdefault(slot, {})[prefix] = simulator._pending_sync.pop(prefix)
    live_slots = sorted(
        {
            pool.slot_for(shard_module.stable_shard(prefix, pool.shards))
            for prefix, holders in simulator._prefix_holders.items()
            if holders
        }
    )
    additions = {
        asn: dict(router.export_community_additions)
        for asn, router in simulator.routers.items()
        if router.export_community_additions
    }
    by_index = {item.index: item for item in items}
    futures = []
    try:
        # The additions and the work-list encode once: every slot ships
        # the exact same blobs.
        additions_blob = wire.encode_additions(additions)
        items_blob = wire.encode_items(items)
        for slot in live_slots:
            sync = slot_sync.get(slot, {})
            states = shard_module.capture_prefix_state(simulator, list(sync), holders=sync)
            epoch, config = pool.sync_header(slot, simulator._pool_lease.config_blob)
            pool.shipped_state_entries += len(states)
            futures.append(
                pool.submit(
                    slot,
                    _run_harvest_shard,
                    (epoch, config, additions_blob, items_blob, wire.encode_states(states)),
                )
            )
        outcomes = [future.result() for future in futures]
    except BaseException:
        simulator._invalidate_pool()
        raise
    # Merge: each item's observations arrive split across slots; the
    # serial export order is the parent peer's Loc-RIB insertion order,
    # so sort each item's rows by the parent's own position map.  The
    # wire rows carry only (prefix, as_path, communities) — the
    # per-item constants are re-attached here.
    by_item: dict[int, list[RouteObservation]] = {}
    for blob in outcomes:
        for index, rows in wire.decode_observations(blob):
            if not rows:
                continue
            item = by_index[index]
            by_item.setdefault(index, []).extend(
                RouteObservation(
                    item.platform,
                    item.collector_id,
                    item.peer_asn,
                    prefix,
                    as_path,
                    communities,
                )
                for prefix, as_path, communities in rows
            )
    order_cache: dict[int, dict["Prefix", int]] = {}
    archive = ObservationArchive()
    for item in items:
        observations = by_item.get(item.index)
        if not observations:
            continue
        order = order_cache.get(item.peer_asn)
        if order is None:
            order = {
                prefix: position
                for position, prefix in enumerate(
                    simulator.router(item.peer_asn).loc_rib.prefixes()
                )
            }
            order_cache[item.peer_asn] = order
        observations.sort(key=lambda observation: order.get(observation.prefix, len(order)))
        archive.extend(observations)
    return archive


def harvest_archive(
    deployment: "CollectorDeployment",
    simulator: "BgpSimulator",
    shards: int | None = None,
) -> ObservationArchive:
    """Harvest a deployment's observations from a converged simulation.

    ``shards`` is the shard count: ``1`` serial, an integer K > 1
    parallel; ``None`` inherits the simulator's own (a
    ``BgpSimulator(shards=4)`` harvests sharded too).  The archive is
    byte-identical whichever path runs.

    The sharded path inherits the resident worker-pool contract of
    :mod:`repro.routing.shard`: router config changes (policies,
    vendor, filters) are detected before dispatch and bump the pool's
    state epoch, so workers re-sync automatically; per-router export
    community additions are re-shipped with every task and are always
    current.  A harvest flushes the parent's whole pending-sync backlog
    — after it, every resident Loc-RIB mirrors the parent exactly.

    The serial path runs with the cyclic collector paused (see
    :class:`~repro.utils.collector.collector_paused`): it makes no
    reference cycle, so the collector would only re-walk the converged
    simulator and the rows.  The sharded path is not paused, because a
    worker it forks would start with the collector off.
    """
    shard_count = simulator.shards if shards is None else validate_shards(shards)
    items = build_worklist(deployment, simulator)
    if shard_count > 1:
        # Surplus shards over the distinct peers would only idle.
        shard_count = min(shard_count, len({item.peer_asn for item in items}))
    if shard_count <= 1:
        with collector_paused():
            return _harvest_serial(items, simulator)
    return _harvest_sharded(items, simulator, shard_count)
