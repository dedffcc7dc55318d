"""Nearest-neighbour similarity search over a reference corpus."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional

from repro.textsim.cosine import cosine_similarity
from repro.textsim.vectorize import NgramVectorizer, SparseVector


@dataclass
class SimilarityMatch:
    """Best corpus match for a query text."""

    key: Hashable
    score: float


class SimilarityIndex:
    """Max-cosine lookup against a fixed reference corpus.

    An inverted index over n-grams restricts each query to documents that
    share at least one n-gram, which in practice prunes most of the corpus
    while remaining exact (documents sharing no n-gram have similarity 0).
    """

    def __init__(self, vectorizer: Optional[NgramVectorizer] = None) -> None:
        self.vectorizer = vectorizer or NgramVectorizer()
        self._vectors: Dict[Hashable, SparseVector] = {}
        self._posting: Dict[str, List[Hashable]] = {}

    def add(self, key: Hashable, text: str) -> None:
        if key in self._vectors:
            raise KeyError(f"duplicate key {key!r}")
        vector = self.vectorizer.vectorize(text)
        self._vectors[key] = vector
        for term in vector.weights:
            self._posting.setdefault(term, []).append(key)

    def __len__(self) -> int:
        return len(self._vectors)

    def best_match(self, text: str) -> Optional[SimilarityMatch]:
        """The corpus document with the highest cosine similarity."""
        query = self.vectorizer.vectorize(text)
        if not self._vectors or query.norm == 0.0:
            return None
        # Gather exact candidates via the inverted index; accumulate dot
        # products in one pass over the query terms.
        dots: Dict[Hashable, float] = {}
        for term, weight in query.weights.items():
            for key in self._posting.get(term, ()):
                dots[key] = dots.get(key, 0.0) + weight * self._vectors[
                    key
                ].weights[term]
        if not dots:
            return None
        best_key, best_dot = max(dots.items(), key=lambda kv: kv[1])
        best_score = best_dot / (query.norm * self._vectors[best_key].norm)
        # The max dot product is not necessarily the max cosine (norms
        # differ); rescan the candidate set with true cosine.
        for key, dot in dots.items():
            score = dot / (query.norm * self._vectors[key].norm)
            if score > best_score:
                best_key, best_score = key, score
        return SimilarityMatch(key=best_key, score=best_score)

    def score_against(self, key: Hashable, text: str) -> float:
        """Cosine similarity of ``text`` against one specific document."""
        return cosine_similarity(
            self.vectorizer.vectorize(text), self._vectors[key]
        )
