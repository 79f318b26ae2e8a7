"""Shard-pool leases: every sharded simulator owns one fresh pool.

A :class:`~repro.routing.engine.BgpSimulator` reaches its
:class:`~repro.routing.shard.ShardPool` through a :class:`PoolLease`
handed out by :data:`PROVIDER`:

* :meth:`PoolProvider.acquire` builds a fresh pool of
  ``min(shards, os.cpu_count())`` workers over the simulator's topology
  and current router configuration, and counts it in
  ``stats["builds"]``;
* the lease owns the router-config epoch state — the capture the pool's
  current epoch reflects, plus its
  :func:`~repro.routing.wire.encode_config` blob cached per epoch — and
  shuts the pool down on :meth:`PoolLease.release` (what
  :meth:`BgpSimulator.close` calls) or when the simulator is collected.

Pools are never parked or shared: a simulator that closes and shards
again gets a new pool and re-ships its state.  The interpreter-exit
hook below stops any pool that neither ``close()`` nor GC reached.
"""

from __future__ import annotations

import atexit
import os
import weakref
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.routing.engine import BgpSimulator
    from repro.routing.shard import ShardPool


# ------------------------------------------------------------- live pools
#: Every live pool, so the interpreter-exit hook can stop workers that
#: neither GC (lease finalizer) nor an explicit ``shutdown`` reached.
#: Registered by ``ShardPool.__init__`` via :func:`track_pool`.
_LIVE_POOLS: "weakref.WeakSet[ShardPool]" = weakref.WeakSet()


def track_pool(pool: "ShardPool") -> None:
    """Register ``pool`` with the interpreter-exit safety net."""
    _LIVE_POOLS.add(pool)


@atexit.register
def _shutdown_live_pools() -> None:  # pragma: no cover - interpreter teardown
    for pool in list(_LIVE_POOLS):
        pool.shutdown(wait=False)


# ------------------------------------------------------------------ lease
class PoolLease:
    """One simulator's handle on the :class:`ShardPool` built for it.

    The lease owns the router-config epoch state: the capture the pool's
    current epoch reflects, plus its wire blob cached per epoch.
    """

    __slots__ = ("pool", "_config", "_config_blob", "_finalizer")

    def __init__(self, pool: "ShardPool", config: dict[int, tuple], owner: "BgpSimulator"):
        self.pool = pool
        self._config = config
        self._config_blob: bytes | None = None
        # GC of the owning simulator must not leak worker processes.  The
        # callback references the lease, never the simulator.
        self._finalizer = weakref.finalize(owner, PoolLease.release, self)

    def config_blob(self) -> bytes:
        """The current capture as a wire blob (encoded once per epoch)."""
        if self._config_blob is None:
            from repro.routing import wire

            self._config_blob = wire.encode_config(self._config)
        return self._config_blob

    def refresh(self, simulator: "BgpSimulator") -> bool:
        """Re-capture the router configuration; bump the epoch if it changed.

        Returns ``True`` on a bump — the caller must re-arm its
        pending-sync set, because every worker will discard its resident
        state at the next dispatch.
        """
        from repro.routing.shard import capture_router_config

        current = capture_router_config(simulator)
        if current == self._config:
            return False
        self._config = current
        self._config_blob = None
        self.pool.bump_epoch()
        return True

    def invalidate(self) -> None:
        """Condemn all resident worker state (after a failed dispatch)."""
        self.pool.bump_epoch()

    def release(self) -> None:
        """Shut the pool down (idempotent)."""
        self._finalizer.detach()
        self.pool.shutdown()


# --------------------------------------------------------------- provider
class PoolProvider:
    """Builds one fresh :class:`ShardPool` per :meth:`acquire` call.

    ``stats["builds"]`` counts the pools built, so tests and benchmarks
    can observe pool construction without reaching into the engine.
    """

    def __init__(self) -> None:
        self.stats = {"builds": 0}

    def acquire(self, simulator: "BgpSimulator", shards: int) -> PoolLease:
        """Lease ``simulator`` a new pool partitioned into ``shards`` shards."""
        from repro.routing.shard import ShardPool, capture_router_config

        config = capture_router_config(simulator)
        pool = ShardPool(
            (simulator.topology, config),
            max_rounds=simulator.max_rounds,
            workers=min(shards, os.cpu_count() or 1),
            shards=shards,
        )
        self.stats["builds"] += 1
        return PoolLease(pool, config, simulator)


#: The provider every simulator leases its pools from.
PROVIDER = PoolProvider()
