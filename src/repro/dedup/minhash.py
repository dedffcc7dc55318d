"""MinHash signatures over shingle-hash sets.

Uses the standard family of universal hash permutations
``h_i(x) = (a_i * x + b_i) mod p`` with the Mersenne prime ``p = 2^31 - 1``.
With ``a, b, x < 2^31`` the product ``a*x + b`` stays below ``2^63``, so the
whole permutation evaluates exactly in vectorized uint64 arithmetic.  The
expected fraction of matching signature components between two documents
equals their Jaccard similarity.

:meth:`MinHasher.signature_of_hashes` is the definition (one document,
``%``).  The batched :meth:`MinHasher.signatures_of_hashes` that dedup runs
evaluates eight permutations per array operation and reduces mod ``p``
with shifts and masks (:func:`_mod_prime`, :func:`_mod_prime_product`),
since ``2^31 = 1 (mod p)``; its signatures are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dedup.shingle import DEFAULT_SHINGLE_WIDTH, shingle_hashes
from repro.utils.rng import DeterministicRNG

_PRIME = np.uint64((1 << 31) - 1)
_SHIFT = np.uint64(31)
#: permutations evaluated together by :meth:`MinHasher.signatures_of_hashes`
_BLOCK = 8
DEFAULT_NUM_PERMUTATIONS = 128


def _mod_prime(v: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``v % p`` in place for any uint64 ``v``, without a division;
    ``scratch`` is a same-shape buffer.

    ``2^31 = 1 (mod p)``, so a fold ``(v & p) + (v >> 31)`` keeps ``v``
    mod ``p``.  From ``v < 2^64`` one fold gives ``v < 5 * 2^31``, inside
    :func:`_mod_prime_product`'s domain, which finishes with a second
    fold.  Both folds are needed: one leaves a hash near ``2^64`` above
    ``2p``.
    """
    np.bitwise_and(v, _PRIME, out=scratch)
    v >>= _SHIFT
    v += scratch
    return _mod_prime_product(v, scratch)


def _mod_prime_product(v: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``v % p`` in place for ``v <= p(p - 1)``, the largest ``a*x + b``
    with ``a, b, x <= p - 1``; ``scratch`` is a same-shape buffer.

    One fold gives ``v <= p + (p - 2) = 2p - 2`` (``v >> 31 < p - 1`` in
    that range), so ``min(v, v - p)`` finishes: it subtracts ``p`` where
    that is still needed (``v - p`` wraps above ``2^63`` when ``v < p``).
    """
    np.bitwise_and(v, _PRIME, out=scratch)
    v >>= _SHIFT
    v += scratch
    np.subtract(v, _PRIME, out=scratch)
    np.minimum(v, scratch, out=v)
    return v


@dataclass(frozen=True)
class MinHashSignature:
    """Signature vector for one document."""

    values: np.ndarray  # shape (num_permutations,), dtype uint64

    def __len__(self) -> int:
        return len(self.values)


def estimate_jaccard(a: MinHashSignature, b: MinHashSignature) -> float:
    """Estimated Jaccard similarity = fraction of equal components."""
    if len(a) != len(b):
        raise ValueError("signatures have different permutation counts")
    if len(a) == 0:
        return 1.0
    return float(np.count_nonzero(a.values == b.values)) / len(a)


class MinHasher:
    """Computes MinHash signatures with a fixed, seeded permutation set."""

    def __init__(
        self,
        num_permutations: int = DEFAULT_NUM_PERMUTATIONS,
        seed: int = 0x5EED,
        shingle_width: int = DEFAULT_SHINGLE_WIDTH,
    ) -> None:
        if num_permutations < 1:
            raise ValueError("need at least one permutation")
        rng = DeterministicRNG(seed)
        prime = int(_PRIME)
        self.num_permutations = num_permutations
        self.shingle_width = shingle_width
        self._a = np.array(
            [rng.randint(1, prime - 1) for _ in range(num_permutations)],
            dtype=np.uint64,
        )
        self._b = np.array(
            [rng.randint(0, prime - 1) for _ in range(num_permutations)],
            dtype=np.uint64,
        )

    def signature_of_hashes(self, hashes: np.ndarray) -> MinHashSignature:
        """Signature from precomputed 64-bit shingle hashes."""
        if hashes.size == 0:
            # Empty documents share a canonical all-max signature.
            return MinHashSignature(
                values=np.full(self.num_permutations, _PRIME, dtype=np.uint64)
            )
        x = hashes.astype(np.uint64) % _PRIME
        mins = np.empty(self.num_permutations, dtype=np.uint64)
        for i in range(self.num_permutations):
            mins[i] = ((self._a[i] * x + self._b[i]) % _PRIME).min()
        return MinHashSignature(values=mins)

    def signature(self, text: str) -> MinHashSignature:
        """Signature of raw text (shingling + hashing + permutations)."""
        return self.signature_of_hashes(shingle_hashes(text, self.shingle_width))

    def signatures_of_hashes(self, hash_arrays) -> "list[MinHashSignature]":
        """Batch form of :meth:`signature_of_hashes` over many documents.

        Concatenates all shingle-hash arrays and evaluates the permutations
        ``_BLOCK`` at a time as one ``(_BLOCK, n)`` array over the whole
        batch, with per-document segment minima (``np.minimum.reduceat``),
        so the Python-level loop count drops from ``permutations *
        documents`` to ``permutations / _BLOCK``.  Both reductions mod
        ``p`` fold instead of dividing: the 64-bit hashes with
        :func:`_mod_prime`'s two folds, every ``a*x + b`` with
        :func:`_mod_prime_product`'s one; every returned
        signature is bit-identical to :meth:`signature_of_hashes`, the
        definition (``tests/test_dedup.py::TestMinHashFold``).
        """
        out: "list[MinHashSignature]" = [None] * len(hash_arrays)  # type: ignore[list-item]
        nonempty = [i for i, arr in enumerate(hash_arrays) if arr.size]
        for i, arr in enumerate(hash_arrays):
            if not arr.size:
                out[i] = MinHashSignature(
                    values=np.full(self.num_permutations, _PRIME, dtype=np.uint64)
                )
        if not nonempty:
            return out
        concat = np.concatenate([hash_arrays[i] for i in nonempty]).astype(
            np.uint64
        )
        concat = _mod_prime(concat, np.empty_like(concat))
        sizes = np.array([hash_arrays[i].size for i in nonempty], dtype=np.int64)
        offsets = np.zeros(len(nonempty), dtype=np.int64)
        np.cumsum(sizes[:-1], out=offsets[1:])
        mins = np.empty((self.num_permutations, len(nonempty)), dtype=np.uint64)
        block = np.empty((_BLOCK, concat.size), dtype=np.uint64)
        scratch = np.empty_like(block)
        for first in range(0, self.num_permutations, _BLOCK):
            rows = slice(first, min(first + _BLOCK, self.num_permutations))
            width = rows.stop - first
            v = block[:width]
            np.multiply(self._a[rows, None], concat, out=v)
            v += self._b[rows, None]
            _mod_prime_product(v, scratch[:width])
            mins[rows] = np.minimum.reduceat(v, offsets, axis=1)
        for j, i in enumerate(nonempty):
            out[i] = MinHashSignature(values=mins[:, j].copy())
        return out

    def signatures(self, texts) -> "list[MinHashSignature]":
        """Batch signatures of raw texts; equals ``[signature(t) for t in texts]``."""
        return self.signatures_of_hashes(
            [shingle_hashes(t, self.shingle_width) for t in texts]
        )
