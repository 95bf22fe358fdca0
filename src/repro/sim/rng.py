"""Deterministic random-number helpers.

Every stochastic component in the library draws from a
:class:`DeterministicRNG` seeded explicitly, so a given experiment
configuration always produces the same result.
"""

from __future__ import annotations

import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")


#: ``uniform_int`` inlines the rejection loop ``random.Random.randint``
#: reaches through ``randrange`` -> ``_randbelow``.  That is only the
#: same sequence while ``_randbelow`` is the ``getrandbits`` variant.
_INLINE_RANDINT = (random.Random._randbelow
                   is getattr(random.Random, "_randbelow_with_getrandbits", None))


class DeterministicRNG:
    """Thin wrapper over :class:`random.Random` with domain helpers."""

    __slots__ = ("seed", "_random", "_getrandbits")

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._random = random.Random(seed)
        self._getrandbits = self._random.getrandbits

    def uniform_int(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive.

        Draw for draw the same as ``random.Random.randint(low, high)``,
        at about half the cost per draw.
        """
        width = high - low + 1
        if width <= 0:
            return self._random.randint(low, high)  # raises randint's ValueError
        getrandbits = self._getrandbits
        bits = width.bit_length()
        draw = getrandbits(bits)
        while draw >= width:
            draw = getrandbits(bits)
        return low + draw

    if not _INLINE_RANDINT:
        def uniform_int(self, low: int, high: int) -> int:  # noqa: F811
            """Uniform integer in ``[low, high]`` inclusive."""
            return self._random.randint(low, high)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return self._random.uniform(low, high)

    def choice(self, items: Sequence[T]) -> T:
        return self._random.choice(items)

    def shuffle(self, items: List[T]) -> None:
        self._random.shuffle(items)

    def bernoulli(self, probability: float) -> bool:
        """Return True with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        return self._random.random() < probability

    def exponential(self, mean: float) -> float:
        """Exponential variate with the given mean (for arrival gaps)."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return self._random.expovariate(1.0 / mean)

    def zipf_index(self, n: int, skew: float = 0.99) -> int:
        """Zipf-distributed index in ``[0, n)`` via inverse-CDF sampling.

        Used by key-value workloads to model skewed key popularity.
        """
        if n <= 0:
            raise ValueError(f"population must be positive, got {n}")
        if skew <= 0:
            return self.uniform_int(0, n - 1)
        # Rejection-free approximation (Gray et al. quick Zipf).
        u = self._random.random()
        return min(n - 1, int(n * (u ** (1.0 / (1.0 - skew + 1e-9))) ) % n)

    def sample_indices(self, population: int, count: int) -> List[int]:
        """Distinct uniform indices from ``range(population)``."""
        if count > population:
            raise ValueError("cannot sample more indices than the population size")
        return self._random.sample(range(population), count)
