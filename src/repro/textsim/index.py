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
        self._vectors: Dict[Hashable, SparseVector] = {}
        #: the CSR matrix and the key of each document number; ``_terms``
        #: is None until :meth:`build` packs them
        self._terms: Optional[Dict[str, int]] = None
        self._keys: List[Hashable] = []
        self._indptr = self._docs = self._counts = self._norms = None

    def add(self, key: Hashable, text: str) -> None:
        if key in self._vectors:
            raise KeyError(f"duplicate key {key!r}")
        self._vectors[key] = self.vectorizer.vectorize(text)
        self._terms = None

    def build(self) -> None:
        """Pack the documents added so far into the CSR matrix.

        :meth:`best_match` builds it when a document was added after the
        last build; a caller that times its queries builds it after its
        last :meth:`add`, so that no query pays for it.
        """
        if self._terms is not None:
            return
        vectors = list(self._vectors.values())
        terms: Dict[str, int] = {}
        rows: List[int] = []
        for vector in vectors:
            rows.extend(
                [terms.setdefault(term, len(terms)) for term in vector.weights]
            )
        rows_arr = np.array(rows, dtype=np.intp)
        lengths = [len(vector) for vector in vectors]
        docs = np.repeat(np.arange(len(vectors), dtype=np.intp), lengths)
        counts = np.fromiter(
            (w for vector in vectors for w in vector.weights.values()),
            dtype=np.float64, count=len(rows),
        )
        # stable: each row keeps its postings in insertion order
        order = np.argsort(rows_arr, kind="stable")
        indptr = np.zeros(len(terms) + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows_arr, minlength=len(terms)), out=indptr[1:])
        self._keys = list(self._vectors)
        self._indptr = indptr
        self._docs = docs[order]
        self._counts = counts[order]
        # an empty document is never reached; norm 1 keeps its score 0
        self._norms = np.array(
            [v.norm or 1.0 for v in vectors], dtype=np.float64
        )
        self._terms = terms

    def __len__(self) -> int:
        return len(self._vectors)

    def best_match(self, text: str) -> Optional[SimilarityMatch]:
        """The corpus document with the highest cosine similarity."""
        counts = self.vectorizer.counts(text)
        if not self._vectors or not counts:
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
        """Cosine similarity of ``text`` against one specific document."""
        return cosine_similarity(
            self.vectorizer.vectorize(text), self._vectors[key]
        )
