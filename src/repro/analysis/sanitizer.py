"""Opt-in runtime checks of the resident-shard sync protocol.

With ``REPRO_SANITIZE=1`` the protocol hot points —
:meth:`repro.routing.shard.ShardPool.sync_header`,
:meth:`repro.routing.shard.ShardPool.submit` and
:meth:`repro.routing.stream.SimulatorService.drain` — call into the
check functions below, and any violated invariant raises
:class:`ProtocolViolationError` at the exact dispatch that broke it.
The tier-1 equivalence suites run unchanged under the flag, which turns
them into protocol conformance tests (CI's ``sanitize`` job).

Checked invariants:

* **per-slot epoch monotonicity** — a slot's task-header epoch never
  regresses, always equals the pool's current epoch, and an epoch
  *advance* ships the router-config payload with the first task
  (:func:`check_sync_header`);
* **well-formed dispatch** — every task envelope submitted to a slot is
  a ``(epoch, config-or-None, ...)`` tuple on the pool's current epoch,
  its config payload is a :func:`repro.routing.wire.encode_config` blob
  or ``None``, and its slot's header was issued first
  (:func:`check_submit`);
* **delta-completeness** — on stream drain, every (prefix, router) pair
  the parent considers *settled* (holder state minus the pending-sync
  backlog) is byte-equal in the resident worker that owns the prefix's
  shard (:func:`check_drain` fingerprints both sides through
  :func:`repro.routing.shard.capture_prefix_state`).

The checks read :data:`SANITIZE_ENV` live at each hook site, so tests
can flip the flag per subprocess; all hook sites gate on the variable
*before* importing this module, so the disabled path costs one ``dict``
lookup.  The drain audit bypasses :meth:`ShardPool.submit` and talks to
the slot executors directly: the ship-accounting counters
(``tasks_dispatched``, ``ship_bytes``, ``shipped_state_entries``) must
read exactly as an unsanitized run, and the audit task must not recurse
into :func:`check_submit`.
"""

from __future__ import annotations

import os
import weakref
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.routing.engine import BgpSimulator
    from repro.routing.shard import ShardPool

#: The environment variable that arms the runtime checks.
SANITIZE_ENV = "REPRO_SANITIZE"


def enabled() -> bool:
    """Whether sanitizing is armed (read live, not cached at import)."""
    return os.environ.get(SANITIZE_ENV, "") not in ("", "0")


class ProtocolViolationError(RuntimeError):
    """A resident-shard sync-protocol invariant was violated at run time."""


#: Shadow per-pool record of the last header epoch each slot was issued,
#: kept *outside* the pool (the sanitizer must observe the protocol, not
#: join it).  Weak keys: a collected pool takes its shadow along.
_SLOT_EPOCHS: "weakref.WeakKeyDictionary[ShardPool, dict[int, int]]" = (
    weakref.WeakKeyDictionary()
)


def check_sync_header(
    pool: "ShardPool", slot: int, epoch: int, config: "bytes | None"
) -> None:
    """Validate one ``sync_header`` result for ``slot`` and record it.

    A slot never seen before is accepted as-is (the sanitizer may have
    been enabled mid-run, after the slot was already synced), which is
    why the config-completeness check fires only on an epoch *advance*
    the sanitizer witnessed.
    """
    shadow = _SLOT_EPOCHS.get(pool)
    if shadow is None:
        shadow = {}
        _SLOT_EPOCHS[pool] = shadow
    previous = shadow.get(slot)
    if epoch != pool.epoch:
        raise ProtocolViolationError(
            f"sync header for slot {slot} carries epoch {epoch} but the pool "
            f"is on epoch {pool.epoch}: headers must always name the current "
            "config generation"
        )
    if previous is not None:
        if epoch < previous:
            raise ProtocolViolationError(
                f"slot {slot} epoch regressed {previous} -> {epoch}: epochs "
                "are monotone per slot (a regression would resurrect resident "
                "state the worker already discarded)"
            )
        if epoch > previous and config is None:
            raise ProtocolViolationError(
                f"slot {slot} advanced epoch {previous} -> {epoch} with no "
                "router-config payload: the first task after a bump must "
                "re-ship the configuration or the worker converges under "
                "stale policies"
            )
    if config is not None and not isinstance(config, (bytes, bytearray)):
        raise ProtocolViolationError(
            f"sync header config payload must be an encode_config wire blob "
            f"(bytes) or None, got {type(config).__name__}"
        )
    shadow[slot] = epoch


def check_submit(pool: "ShardPool", slot: int, task: object) -> None:
    """Validate one task envelope about to be dispatched to ``slot``."""
    if not isinstance(task, tuple) or len(task) not in (5, 6):
        raise ProtocolViolationError(
            "shard task envelopes are (epoch, config, additions, events/items, "
            f"states[, timestamp]) tuples; got {type(task).__name__} of length "
            f"{len(task) if isinstance(task, tuple) else 'n/a'}"
        )
    epoch, config = task[0], task[1]
    if epoch != pool.epoch:
        raise ProtocolViolationError(
            f"task submitted to slot {slot} carries epoch {epoch} but the pool "
            f"is on epoch {pool.epoch}: the header and the dispatch must agree"
        )
    if config is not None and not isinstance(config, (bytes, bytearray)):
        raise ProtocolViolationError(
            f"task config payload must be an encode_config wire blob (bytes) "
            f"or None, got {type(config).__name__}"
        )
    shadow = _SLOT_EPOCHS.get(pool)
    if shadow is not None and slot in shadow and shadow[slot] != epoch:
        raise ProtocolViolationError(
            f"task submitted to slot {slot} on epoch {epoch} but the slot's "
            f"last sync header was for epoch {shadow[slot]}: sync_header must "
            "be issued (and shipped) before every dispatch on a new epoch"
        )


def check_drain(simulator: "BgpSimulator") -> None:
    """Audit resident-vs-parent coherence after a stream drain.

    Every (prefix, router) pair the parent believes its workers already
    hold (``_prefix_holders`` minus the per-prefix ``_pending_sync``
    backlog) is fingerprinted on both sides with
    :func:`~repro.routing.shard.capture_prefix_state` and compared
    structurally.  Slots with no live executor, or whose resident state
    is already condemned by a newer epoch, are skipped — their next
    dispatch re-ships everything anyway.
    """
    pool = simulator._shard_pool
    if pool is None:
        return
    from repro.routing import shard as shard_module

    pending = simulator._pending_sync
    per_slot: "dict[int, list[tuple]]" = {}
    for prefix, holders in simulator._prefix_holders.items():
        settled = holders - pending.get(prefix, set())
        if not settled:
            continue
        slot = pool.slot_for(shard_module.stable_shard(prefix, pool.shards))
        if pool._executors[slot] is None or pool._slot_epochs[slot] != pool.epoch:
            continue
        per_slot.setdefault(slot, []).append((prefix, tuple(sorted(settled))))
    for slot in sorted(per_slot):
        pairs = per_slot[slot]
        # Deliberately NOT pool.submit: the audit must not perturb the
        # dispatch/ship counters or recurse into check_submit.  The slot
        # executor is single-worker and FIFO, so this task observes the
        # worker state after everything the drain dispatched.
        future = pool._executors[slot].submit(
            shard_module._fingerprint_shard, (pool.epoch, pairs)
        )
        resident = future.result()
        if resident is None:
            continue  # worker sits on an older epoch: nothing is settled
        expected = shard_module.capture_prefix_state(
            simulator,
            [prefix for prefix, _holders in pairs],
            holders={prefix: set(holder_asns) for prefix, holder_asns in pairs},
        )
        if resident != expected:
            mismatched = sorted(
                {
                    str(state[0])
                    for state in expected + resident
                    if state not in resident or state not in expected
                }
            )
            raise ProtocolViolationError(
                f"resident worker on slot {slot} diverged from the parent for "
                f"prefix(es) {', '.join(mismatched[:5])}"
                f"{' …' if len(mismatched) > 5 else ''}: a holder-state "
                "mutation was not recorded in _last_touched/_pending_sync "
                "(delta-completeness violated)"
            )
