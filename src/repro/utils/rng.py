"""Deterministic random-number helpers.

Every stochastic component in the library (corpus generation, sampling,
MinHash permutations) takes an explicit seed so that experiments are
reproducible bit-for-bit.  ``derive_seed`` produces stable sub-seeds from a
parent seed and a string label, which keeps independent subsystems decoupled:
adding a new consumer of randomness never perturbs existing streams.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, List, Optional, Sequence, TypeVar

T = TypeVar("T")

_MASK_64 = (1 << 64) - 1


def derive_seed(parent: int, *labels: object) -> int:
    """Derive a stable 64-bit sub-seed from ``parent`` and label values.

    The derivation hashes the parent seed together with the labels, so two
    different labels always get statistically independent streams while the
    mapping stays stable across runs and platforms.
    """
    digest = hashlib.sha256()
    digest.update(str(parent).encode("utf-8"))
    for label in labels:
        digest.update(b"\x1f")
        digest.update(str(label).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big") & _MASK_64


def fork_seed(seed: int, *labels: object) -> int:
    """The seed of ``DeterministicRNG(seed).fork(*labels)``, without
    seeding either stream: what a caller that only hands the seed on
    needs."""
    return derive_seed(seed & _MASK_64, *labels)


class DeterministicRNG:
    """A seeded random stream with convenience draws used across the library.

    Thin wrapper over :class:`random.Random` that adds weighted choice over
    dictionaries and stable sub-stream forking.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed & _MASK_64
        self._rng = random.Random(self.seed)

    def fork(self, *labels: object) -> "DeterministicRNG":
        """Return an independent stream derived from this one."""
        return DeterministicRNG(fork_seed(self.seed, *labels))

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return self._rng.randint(lo, hi)

    @property
    def getrandbits(self):
        """The stream's own ``getrandbits(k)``, the draw ``randint`` is
        built on; bind it once in a hot loop."""
        return self._rng.getrandbits

    def random(self) -> float:
        return self._rng.random()

    def uniform(self, lo: float, hi: float) -> float:
        return self._rng.uniform(lo, hi)

    def choice(self, seq: Sequence[T]) -> T:
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return self._rng.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        return self._rng.sample(seq, k)

    def shuffle(self, items: List[T]) -> None:
        self._rng.shuffle(items)

    def shuffled(self, items: Iterable[T]) -> List[T]:
        out = list(items)
        self._rng.shuffle(out)
        return out

    def weighted_choice(self, weights: dict) -> object:
        """Choose a key from ``weights`` proportionally to its value."""
        if not weights:
            raise ValueError("cannot choose from an empty weight table")
        keys = list(weights.keys())
        vals = [float(weights[k]) for k in keys]
        total = sum(vals)
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        pick = self._rng.random() * total
        acc = 0.0
        for key, val in zip(keys, vals):
            acc += val
            if pick < acc:
                return key
        return keys[-1]

    def maybe(self, probability: float) -> bool:
        """Return True with the given probability."""
        return self._rng.random() < probability

    def gauss(self, mu: float, sigma: float) -> float:
        return self._rng.gauss(mu, sigma)

    def lognormal_int(
        self,
        median: float,
        sigma: float,
        lo: int = 1,
        hi: Optional[int] = None,
    ) -> int:
        """Draw a log-normally distributed integer, clamped to [lo, hi].

        Used for file sizes and repo sizes, which are heavy-tailed in real
        corpora (Figure 2 of the paper shows a log-scale length histogram).
        """
        import math

        value = int(round(math.exp(self._rng.gauss(math.log(median), sigma))))
        value = max(lo, value)
        if hi is not None:
            value = min(hi, value)
        return value
