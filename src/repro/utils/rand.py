"""Deterministic random-number helpers.

All synthetic dataset generation and topology generation is seeded so
every table and figure the benchmark harness regenerates is exactly
reproducible run-to-run.
"""

from __future__ import annotations

import random
from typing import Sequence, TypeVar

T = TypeVar("T")


class DeterministicRng(random.Random):
    """An explicitly-seeded :class:`random.Random` with labelled child streams.

    Separate instances keep the generators used by different subsystems
    independent: the topology generator and the dataset generator
    receive separate child streams (see :meth:`child`) so adding draws
    to one does not perturb the other.  ``randint``, ``random`` and
    ``choice`` are :class:`random.Random`'s own; :meth:`sample` clamps
    the count.  The seed is ``_seed``, because ``seed`` is the method
    that reseeds.
    """

    def __init__(self, seed: int):
        self._seed = int(seed)
        super().__init__(self._seed)

    def __reduce__(self):
        return DeterministicRng, (self._seed,), self.getstate()

    def child(self, label: str) -> "DeterministicRng":
        """Derive an independent, reproducible child stream for ``label``."""
        # ``hash`` of a str is salted per-process, so the child seed is mixed
        # from the label bytes only: children must be stable across
        # interpreter invocations for run-to-run reproducibility.
        mixed = self._seed
        for byte in label.encode("utf-8"):
            mixed = (mixed * 131 + byte) & 0x7FFFFFFFFFFF
        return DeterministicRng(mixed)

    def chance(self, probability: float) -> bool:
        """Return True with the given probability."""
        return self.random() < probability

    def sample(self, items: Sequence[T], count: int) -> list[T]:
        """Return ``min(count, len(items))`` distinct items chosen without replacement."""
        return super().sample(list(items), min(count, len(items)))

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Return one item chosen proportionally to ``weights``."""
        return self.choices(items, weights, k=1)[0]

    def pareto_int(self, alpha: float, minimum: int, maximum: int | None) -> int:
        """Return a Pareto-distributed integer >= minimum (heavy-tailed sizes)."""
        value = int(minimum * self.paretovariate(alpha))
        if maximum is not None:
            value = min(value, maximum)
        return max(minimum, value)
