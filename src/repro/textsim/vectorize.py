"""Character n-gram term-frequency vectors."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict

from repro.utils.textnorm import normalize_whitespace, strip_comments

#: Character n-gram size.  Calibrated so that true near-copies score ~1.0
#: while independently generated same-family modules stay clearly below
#: the 0.8 violation threshold (shorter n-grams over-reward shared RTL
#: idioms like "input wire [7:0]").
DEFAULT_NGRAM = 5


@dataclass(frozen=True)
class SparseVector:
    """A sparse TF vector with its precomputed L2 norm."""

    weights: Dict[str, float]
    norm: float

    @classmethod
    def from_counts(cls, counts: Counter) -> "SparseVector":
        weights = {term: float(count) for term, count in counts.items()}
        norm = math.sqrt(sum(w * w for w in weights.values()))
        return cls(weights=weights, norm=norm)

    def __len__(self) -> int:
        return len(self.weights)


class NgramVectorizer:
    """Maps text to character n-gram TF vectors.

    Text is normalized first (comments stripped, whitespace collapsed,
    lowercased) so that formatting and comment differences between a
    model completion and the original file do not mask a near-copy — the
    benchmark wants to detect *code* reuse, not comment reuse.
    """

    def __init__(self, n: int = DEFAULT_NGRAM, strip: bool = True) -> None:
        if n < 1:
            raise ValueError("n-gram size must be >= 1")
        self.n = n
        self.strip = strip

    def normalize(self, text: str) -> str:
        if self.strip:
            text = strip_comments(text)
        return normalize_whitespace(text).lower()

    def counts(self, text: str) -> Counter:
        """The n-gram counts of ``text``, in order of first occurrence: the
        one n-gram definition, which :meth:`vectorize` and the
        :class:`~repro.textsim.SimilarityIndex` queries share.  A
        normalized text shorter than ``n`` is its own single term."""
        normalized = self.normalize(text)
        size = len(normalized)
        if size < self.n:
            return Counter([normalized] if normalized else [])
        return Counter(
            map(
                normalized.__getitem__,
                map(slice, range(size - self.n + 1), range(self.n, size + 1)),
            )
        )

    def vectorize(self, text: str) -> SparseVector:
        return SparseVector.from_counts(self.counts(text))
