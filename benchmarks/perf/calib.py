"""Reference seconds: a frozen speed probe and the ratio series behind every metric.

This host's single-core speed drifts by up to 2x from one minute to the
next (steal is charged to the guest, so CPU time drifts with wall time).
Every timed sample is therefore bracketed by :func:`probe` runs and
expressed in *reference seconds*::

    s_ref = wall / mean(probes around the sample) * REFERENCE_S

i.e. the time the sample would have taken on a core that runs the probe
in exactly :data:`REFERENCE_S`.  A metric is the median of those ratios
(:func:`reference_series`).
Multiply by ``host.calib_s / REFERENCE_S`` to get back to seconds on the
box that produced a record.

The probe is part of the unit: changing :func:`probe` or
:data:`PROBE_OPS` redefines ``s_ref`` and invalidates every earlier
ledger entry.
"""

from __future__ import annotations

import gc
import time

#: Operations per probe run; sized so one run takes ~0.1 s on a quiet
#: core of the host the first ledger entry was recorded on.
PROBE_OPS = 80_000

#: What one probe run is *defined* to cost, in reference seconds.
REFERENCE_S = 0.100

#: The probe's checksum — a changed value means the probe no longer
#: does the work the unit is defined by.
PROBE_CHECKSUM = 868_868


def probe() -> float:
    """Run the speed probe once; return its wall seconds.

    Deliberately shaped like the simulator's hot paths: tuple-keyed
    dict fill, small frozenset and str allocations, a keyed sort and a
    read-back pass.  The collector is paused inside it — with GC on, the
    probe's time depends on the size of the *caller's* heap (it doubled
    in the process holding the harvest archive), which is exactly the
    coupling a reference must not have.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for index in range(PROBE_OPS):
            key = (index & 1023, index >> 3, index % 7)
            table[key] = (frozenset((index, index ^ 21, index % 13)), str(index))
        ordered = sorted(table.items(), key=lambda item: (item[1][1], item[0]))
        total = 0
        for key, (members, text) in ordered:
            total += len(members) + len(text) + key[2]
        del table, ordered
        elapsed = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    if total != PROBE_CHECKSUM:
        raise AssertionError(f"calibration probe checksum {total} != {PROBE_CHECKSUM}")
    return elapsed


def to_reference(value: float, probes: list[float]) -> float:
    """Express ``value`` seconds in ``s_ref``, given probe runs taken around it."""
    return value / (sum(probes) / len(probes)) * REFERENCE_S


def reference_series(samples: list[tuple[float, float, float]]) -> list[float]:
    """``s_ref`` values of consecutive ``(value, probe_before, probe_after)`` samples.

    A 0.1 s probe is itself hit by sub-second interference bursts, so a
    sample's speed estimate is the mean of four probe runs: its own
    bracket plus the previous sample's ``before`` and the next sample's
    ``after`` (on a 120-iteration ``converge-batch`` recording that cut
    the scatter of a 12-sample median from 5.7 % to 4.1 %).  Host
    speed drifts over tens of seconds, so a window of about three
    iterations still tracks it.
    """
    series = []
    for index, (value, before, after) in enumerate(samples):
        probes = [before, after]
        if index > 0:
            probes.append(samples[index - 1][1])
        if index + 1 < len(samples):
            probes.append(samples[index + 1][2])
        series.append(to_reference(value, probes))
    return series
