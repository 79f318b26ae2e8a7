"""CPU seconds and peak RSS of a whole process tree, read from ``/proc``.

Resident shard workers are never reaped while a workload runs, so
``os.times()`` (which only adds *waited-for* children) misses them.
The tree is walked through ``/proc/<pid>/task/*/children`` instead and
each live process contributes its own ``utime + stime`` / ``VmHWM``.
A process that exits mid-walk simply drops out of the sum.
"""

from __future__ import annotations

import os
from pathlib import Path

_PROC = Path("/proc")
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def tree_pids(root_pid: int) -> list[int]:
    """``root_pid`` and every live descendant, parents first."""
    pids = [root_pid]
    for pid in pids:
        try:
            for task in (_PROC / str(pid) / "task").iterdir():
                pids.extend(int(child) for child in (task / "children").read_text().split())
        except OSError:
            continue
    return pids


def _cpu_seconds(pid: int) -> float:
    try:
        # On-CPU nanoseconds per thread; finer than the 10 ms ticks of ``stat``.
        return sum(
            int((task / "schedstat").read_text().split()[0])
            for task in (_PROC / str(pid) / "task").iterdir()
        ) / 1e9
    except (OSError, ValueError, IndexError):
        pass
    try:
        # Fields after the parenthesised command name (which may hold spaces).
        fields = (_PROC / str(pid) / "stat").read_text().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) * _TICK_S
    except (OSError, ValueError, IndexError):
        return 0.0


def tree_cpu_seconds(root_pid: int | None = None) -> float:
    """CPU seconds consumed so far by every live process of the tree."""
    return sum(_cpu_seconds(pid) for pid in tree_pids(root_pid or os.getpid()))


def _peak_rss_mb(pid: int) -> float:
    try:
        for line in (_PROC / str(pid) / "status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return 0.0


def tree_peak_rss_mb(root_pid: int | None = None) -> float:
    """Sum of ``VmHWM`` (MiB) over every live process of the tree.

    Forked workers share copy-on-write pages with their parent, so the
    sum over-counts shared memory; it is an upper bound that moves in
    the right direction, not an exact footprint.
    """
    return sum(_peak_rss_mb(pid) for pid in tree_pids(root_pid or os.getpid()))
