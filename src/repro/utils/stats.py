"""Statistics helpers used by the measurement pipeline.

The paper's Section 4 figures are almost all empirical CDFs (ECDFs):
:class:`Ecdf` answers the points and quantiles the report reads off
them, :func:`percentile` interpolates, and :func:`fraction` is the
share every table prints.  Counts are :class:`collections.Counter`.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Sequence

from repro.exceptions import MeasurementError


def fraction(numerator: int, denominator: int) -> float:
    """Return ``numerator / denominator``, defining 0/0 as 0.0."""
    if denominator == 0:
        return 0.0
    return numerator / denominator


def percentile(values: Sequence[float], q: float) -> float:
    """Return the q-th percentile (0..100) using linear interpolation."""
    if not values:
        raise MeasurementError("cannot compute percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise MeasurementError(f"percentile {q} must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    weight = rank - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


class Ecdf:
    """Empirical cumulative distribution function over numeric samples."""

    def __init__(self, values: Iterable[float]):
        self._values = sorted(float(v) for v in values)

    def __len__(self) -> int:
        return len(self._values)

    def __bool__(self) -> bool:
        return bool(self._values)

    @property
    def values(self) -> list[float]:
        """The sorted underlying samples."""
        return list(self._values)

    def at(self, x: float) -> float:
        """Return P(X <= x)."""
        if not self._values:
            return 0.0
        return bisect.bisect_right(self._values, x) / len(self._values)

    def survival(self, x: float) -> float:
        """Return P(X > x) (0.0 for an empty sample)."""
        if not self._values:
            return 0.0
        return 1.0 - self.at(x)

    def quantile(self, q: float) -> float:
        """Return the q-quantile (0..1) of the samples."""
        return percentile(self._values, q * 100.0)
