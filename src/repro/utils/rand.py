"""Deterministic random-number helpers.

All synthetic dataset generation and topology generation is seeded so
every table and figure the benchmark harness regenerates is exactly
reproducible run-to-run.
"""

from __future__ import annotations

import random
from typing import Sequence, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """A thin, explicitly-seeded wrapper around :class:`random.Random`.

    Using a wrapper rather than the module-level functions keeps the
    generators used by different subsystems independent: the topology
    generator and the dataset generator receive separate child streams
    (see :meth:`child`) so adding draws to one does not perturb the
    other.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._rng = random.Random(self.seed)

    def child(self, label: str) -> "DeterministicRng":
        """Derive an independent, reproducible child stream for ``label``."""
        # ``hash`` of a str is salted per-process, so the child seed is mixed
        # from the label bytes only: children must be stable across
        # interpreter invocations for run-to-run reproducibility.
        mixed = self.seed
        for byte in label.encode("utf-8"):
            mixed = (mixed * 131 + byte) & 0x7FFFFFFFFFFF
        return DeterministicRng(mixed)

    def randint(self, low: int, high: int) -> int:
        """Return a uniform integer in [low, high]."""
        return self._rng.randint(low, high)

    def random(self) -> float:
        """Return a uniform float in [0, 1)."""
        return self._rng.random()

    def chance(self, probability: float) -> bool:
        """Return True with the given probability."""
        return self._rng.random() < probability

    def choice(self, items: Sequence[T]) -> T:
        """Return a uniformly chosen item."""
        return self._rng.choice(items)

    def sample(self, items: Sequence[T], count: int) -> list[T]:
        """Return ``count`` distinct items chosen without replacement."""
        count = min(count, len(items))
        return self._rng.sample(list(items), count)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Return one item chosen proportionally to ``weights``."""
        return self._rng.choices(list(items), weights=list(weights), k=1)[0]

    def pareto_int(self, alpha: float, minimum: int = 1, maximum: int | None = None) -> int:
        """Return a Pareto-distributed integer >= minimum (heavy-tailed sizes)."""
        value = int(minimum * self._rng.paretovariate(alpha))
        if maximum is not None:
            value = min(value, maximum)
        return max(minimum, value)
