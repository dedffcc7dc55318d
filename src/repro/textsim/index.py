"""Nearest-neighbour similarity search over a reference corpus."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Hashable, List, Optional

import numpy as np

from repro.textsim.cosine import cosine_similarity
from repro.textsim.vectorize import NgramVectorizer, SparseVector


@dataclass
class SimilarityMatch:
    """Best corpus match for a query text."""

    key: Hashable
    score: float


class SimilarityIndex:
    """Max-cosine lookup against a fixed reference corpus.

    The corpus is a term x document CSR matrix: ``_terms`` maps each of
    the vectorizer's n-gram strings to a row, row ``t``'s postings are
    ``_docs[_indptr[t]:_indptr[t + 1]]`` (document numbers, in insertion
    order) with their counts in ``_counts``, and ``_norms[d]`` is
    document ``d``'s L2 norm.  A query's dot product with every document
    is one gather of its known terms' postings and one ``np.bincount``;
    documents sharing no n-gram have similarity 0 and are never reached.

    Every weight is an integer count, so every dot product and squared
    norm is an exact float64 integer in any summation order, and the
    score is the one expression ``dot / (q_norm * d_norm)``: scores are
    bit-identical to a per-posting loop's.

    Ties: the document with the largest dot product (the first reached,
    if several tie) wins if no document has a larger cosine; otherwise
    the first reached document with the largest cosine wins.  The query
    reaches documents through its terms in order of first occurrence,
    and each term's postings in insertion order.
    """

    def __init__(self, vectorizer: Optional[NgramVectorizer] = None) -> None:
        self.vectorizer = vectorizer or NgramVectorizer()
        #: every document's number, by key, in insertion order
        self._numbers: Dict[Hashable, int] = {}
        #: the vectors of the documents added since the last build
        self._pending: List[SparseVector] = []
        #: the CSR matrix of the packed documents and the key of each
        #: document number
        self._terms: Dict[str, int] = {}
        self._keys: List[Hashable] = []
        self._indptr = np.zeros(1, dtype=np.intp)
        self._docs = np.zeros(0, dtype=np.intp)
        self._counts = self._norms = np.zeros(0, dtype=np.float64)

    def add(self, key: Hashable, text: str) -> None:
        if key in self._numbers:
            raise KeyError(f"duplicate key {key!r}")
        self._numbers[key] = len(self._numbers)
        self._pending.append(self.vectorizer.vectorize(text))

    def build(self) -> None:
        """Pack the documents added since the last build into the CSR
        matrix, after the documents it holds; no vector is kept.

        :meth:`best_match` builds it when a document was added after the
        last build; a caller that times its queries builds it after its
        last :meth:`add`, so that no query pays for it.
        """
        vectors, self._pending = self._pending, []
        if not vectors:
            return
        # the packed postings row by row, then the new documents': a
        # stable sort keeps each row's postings in insertion order
        packed, terms = np.diff(self._indptr), self._terms
        rows = np.concatenate([
            np.repeat(np.arange(len(packed)), packed),
            [terms.setdefault(t, len(terms))
             for v in vectors for t in v.weights],
        ]).astype(np.intp)
        first = len(self._norms)
        docs = np.concatenate([self._docs, np.repeat(
            np.arange(first, first + len(vectors)), [len(v) for v in vectors]
        )])
        counts = np.concatenate([
            self._counts, [w for v in vectors for w in v.weights.values()]
        ])
        order = np.argsort(rows, kind="stable")
        self._indptr = np.zeros(len(terms) + 1, dtype=np.intp)
        np.cumsum(
            np.bincount(rows, minlength=len(terms)), out=self._indptr[1:]
        )
        self._docs, self._counts = docs[order], counts[order]
        # an empty document is never reached; norm 1 keeps its score 0
        self._norms = np.concatenate(
            [self._norms, [v.norm or 1.0 for v in vectors]]
        )
        self._keys = list(self._numbers)

    def __len__(self) -> int:
        return len(self._numbers)

    def best_match(self, text: str) -> Optional[SimilarityMatch]:
        """The corpus document with the highest cosine similarity."""
        counts = self.vectorizer.counts(text)
        if not self._numbers or not counts:
            return None
        self.build()
        rows = np.fromiter(
            map(self._terms.get, counts, repeat(-1)),
            dtype=np.intp, count=len(counts),
        )
        known = rows >= 0
        if not known.any():
            return None
        weights = np.fromiter(
            counts.values(), dtype=np.float64, count=len(counts)
        )
        reached, dots = self._dots(rows[known], weights[known])
        q_norm = math.sqrt(sum(c * c for c in counts.values()))
        scores = dots / (q_norm * self._norms)
        best = self._winner(reached, dots, scores)
        return SimilarityMatch(key=self._keys[best], score=float(scores[best]))

    def _dots(self, rows: np.ndarray, weights: np.ndarray):
        """``(reached, dots)``: the document of every posting of ``rows``
        in query order, and every document's dot product with the query
        whose known terms are ``rows`` with counts ``weights``."""
        # row r's postings sit at indptr[r] + 0 .. length - 1
        starts = self._indptr[rows]
        lengths = self._indptr[rows + 1] - starts
        ends = np.cumsum(lengths)
        positions = np.arange(ends[-1], dtype=np.intp) + np.repeat(
            starts - (ends - lengths), lengths
        )
        reached = self._docs[positions]
        dots = np.bincount(
            reached,
            weights=self._counts[positions] * np.repeat(weights, lengths),
            minlength=len(self._keys),
        )
        return reached, dots

    @classmethod
    def _winner(
        cls, reached: np.ndarray, dots: np.ndarray, scores: np.ndarray
    ) -> int:
        """The tie rule (see the class docstring).  Documents not reached
        have a zero dot product and score, and at least one was reached,
        so they never win."""
        best = cls._first_reached(reached, dots, dots.max())
        top = scores.max()
        if top > scores[best]:
            best = cls._first_reached(reached, scores, top)
        return best

    @staticmethod
    def _first_reached(reached: np.ndarray, values: np.ndarray, value) -> int:
        """The first document in ``reached`` whose entry in ``values`` is
        ``value``."""
        tied = np.flatnonzero(values == value)
        if len(tied) == 1:
            return int(tied[0])
        return int(reached[np.argmax(np.isin(reached, tied))])

    def score_against(self, key: Hashable, text: str) -> float:
        """Cosine similarity of ``text`` against one specific document,
        whose vector is read back from its postings."""
        number = self._numbers[key]
        self.build()
        at = np.flatnonzero(self._docs == number)
        rows = np.searchsorted(self._indptr, at, side="right") - 1
        terms = list(self._terms)
        document = SparseVector.from_counts(
            {terms[row]: count for row, count in zip(rows, self._counts[at])}
        )
        return cosine_similarity(self.vectorizer.vectorize(text), document)
