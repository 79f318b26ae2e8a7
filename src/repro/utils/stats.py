"""Statistics helpers used by the measurement pipeline.

The paper's Section 4 figures are almost all empirical CDFs (ECDFs) and
histograms; this module provides small, dependency-light implementations
whose output maps directly onto the series the figures plot.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
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


@dataclass(frozen=True)
class EcdfPoint:
    """A single (x, cumulative fraction) point of an empirical CDF."""

    x: float
    fraction: float


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
        # Binary search for the right-most value <= x.
        lo, hi = 0, len(self._values)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._values[mid] <= x:
                lo = mid + 1
            else:
                hi = mid
        return lo / len(self._values)

    def survival(self, x: float) -> float:
        """Return P(X > x) (0.0 for an empty sample)."""
        if not self._values:
            return 0.0
        return 1.0 - self.at(x)

    def points(self) -> list[EcdfPoint]:
        """Return the ECDF as a list of step points at distinct sample values."""
        points: list[EcdfPoint] = []
        total = len(self._values)
        if total == 0:
            return points
        count = 0
        previous: float | None = None
        for value in self._values:
            count += 1
            if previous is not None and value == previous:
                points[-1] = EcdfPoint(value, count / total)
            else:
                points.append(EcdfPoint(value, count / total))
            previous = value
        return points

    def quantile(self, q: float) -> float:
        """Return the q-quantile (0..1) of the samples."""
        return percentile(self._values, q * 100.0)

    def mean(self) -> float:
        """Return the sample mean."""
        if not self._values:
            raise MeasurementError("cannot compute mean of an empty ECDF")
        return sum(self._values) / len(self._values)


class Histogram:
    """Counting histogram over hashable keys with convenience accessors."""

    def __init__(self, values: Iterable = ()):  # type: ignore[type-arg]
        self._counts: Counter = Counter(values)

    def add(self, key, count: int = 1) -> None:
        """Add ``count`` observations of ``key``."""
        self._counts[key] += count

    def count(self, key) -> int:
        """Return the number of observations of ``key``."""
        return self._counts.get(key, 0)

    def total(self) -> int:
        """Return the total number of observations."""
        return sum(self._counts.values())

    def top(self, n: int) -> list[tuple]:
        """Return the ``n`` most common (key, count) pairs."""
        return self._counts.most_common(n)

    def keys(self):
        """Return the observed keys."""
        return self._counts.keys()

    def items(self):
        """Return (key, count) pairs."""
        return self._counts.items()

    def fractions(self) -> dict:
        """Return key -> fraction-of-total."""
        total = self.total()
        return {key: fraction(count, total) for key, count in self._counts.items()}

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, key) -> bool:
        return key in self._counts
