"""Pausing Python's cyclic garbage collector around bulk work that makes no cycles."""

from __future__ import annotations

import gc


class collector_paused:
    """Switch the cyclic collector off for a ``with`` block; back on only if it was on at entry.

    For code that allocates many long-lived objects and makes no
    reference cycle: reference counting frees all of it, so the
    collector would only re-walk live objects.  Even on error the
    collector is left as it was found, so a caller that switched it off
    keeps it off.  A process forked inside the block starts with the
    collector off: fork outside it.

    Leaving the block allocates nothing once the collector is back on,
    so the collection the block deferred runs at the caller's next
    allocation, after the caller has dropped what it no longer needs.
    (A ``contextlib.contextmanager`` would allocate its ``StopIteration``
    there, and walk everything the block left alive.)
    """

    __slots__ = ("_was_on",)

    def __enter__(self) -> None:
        self._was_on = gc.isenabled()
        gc.disable()

    def __exit__(self, exc_type, exc, traceback) -> None:
        if self._was_on:
            gc.enable()
