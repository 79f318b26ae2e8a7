"""The BGP best-path decision process.

Implements the part of the standard preference order the paper's
scenarios depend on: LOCAL_PREF first (which is how blackhole and
"customer backup" communities override everything else), then AS-path
length (which is what path prepending manipulates), and finally a
deterministic neighbor-ASN tie-break so simulations are reproducible.
Routes carry no ORIGIN or MED (see :mod:`repro.bgp.attributes`), so
those steps of RFC 4271 have nothing to compare.
"""

from __future__ import annotations

from typing import Iterable

from repro.bgp.route import RouteEntry


def _comparison_key(entry: RouteEntry) -> tuple:
    """Return a sort key; *smaller* keys are more preferred."""
    return (entry.attributes.decision_key(), entry.learned_from)


def best_path(candidates: Iterable[RouteEntry]) -> RouteEntry | None:
    """Return the most preferred route among ``candidates`` (None if empty).

    Rejected routes never win; if every candidate is rejected the result
    is None.
    """
    viable = [c for c in candidates if not c.rejected]
    if len(viable) > 1:
        return min(viable, key=_comparison_key)
    return viable[0] if viable else None
