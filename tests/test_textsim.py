"""Tests for the cosine-similarity subsystem."""

from collections import Counter

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.textsim import (
    NgramVectorizer,
    SimilarityIndex,
    SimilarityMatch,
    SparseVector,
    cosine_similarity,
)


def _tie_rule_match(vectorizer, query, texts):
    """Brute force of ``SimilarityIndex.best_match`` over ``doc<i>`` keys:
    every document's dot product and cosine, and the tie rule read off
    the order in which the query's terms reach the documents."""
    q = vectorizer.vectorize(query)
    docs = [vectorizer.vectorize(t) for t in texts]
    reach = []
    for term in q.weights:
        reach += [
            i for i, d in enumerate(docs)
            if term in d.weights and i not in reach
        ]
    if not reach:
        return None
    dots = {
        i: sum(w * docs[i].weights.get(t, 0.0) for t, w in q.weights.items())
        for i in reach
    }
    scores = {i: cosine_similarity(q, docs[i]) for i in reach}
    best = next(i for i in reach if dots[i] == max(dots.values()))
    top = max(scores.values())
    if scores[best] < top:
        best = next(i for i in reach if scores[i] == top)
    return (f"doc{best}", scores[best])


class TestVectorizer:
    def test_normalization_strips_comments_and_case(self):
        v = NgramVectorizer()
        a = v.vectorize("// header\nASSIGN Y = A;")
        b = v.vectorize("assign y = a;")
        assert cosine_similarity(a, b) == pytest.approx(1.0)

    def test_short_text(self):
        v = NgramVectorizer(n=4)
        vec = v.vectorize("ab")
        assert len(vec) == 1

    def test_empty_text(self):
        v = NgramVectorizer()
        assert v.vectorize("").norm == 0.0

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            NgramVectorizer(n=0)


class TestCosine:
    def test_identical(self):
        v = NgramVectorizer()
        vec = v.vectorize("module m; endmodule")
        assert cosine_similarity(vec, vec) == pytest.approx(1.0)

    def test_disjoint(self):
        v = NgramVectorizer()
        assert cosine_similarity(
            v.vectorize("aaaaaaaa"), v.vectorize("bbbbbbbb")
        ) == 0.0

    def test_empty_vs_anything_is_zero(self):
        v = NgramVectorizer()
        assert cosine_similarity(v.vectorize(""), v.vectorize("abcd")) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.text(alphabet="abcmodule ;=", min_size=8, max_size=60),
           st.text(alphabet="abcmodule ;=", min_size=8, max_size=60))
    def test_symmetry_and_range(self, t1, t2):
        v = NgramVectorizer()
        a, b = v.vectorize(t1), v.vectorize(t2)
        s1, s2 = cosine_similarity(a, b), cosine_similarity(b, a)
        assert s1 == pytest.approx(s2)
        assert -1e-9 <= s1 <= 1.0 + 1e-9


class TestSimilarityIndex:
    def _corpus_index(self, texts):
        index = SimilarityIndex()
        for i, text in enumerate(texts):
            index.add(f"doc{i}", text)
        return index

    def test_exact_match_found(self, tiny_verilog_corpus):
        texts = tiny_verilog_corpus[:20]
        index = self._corpus_index(texts)
        match = index.best_match(texts[7])
        assert match.key == "doc7"
        assert match.score == pytest.approx(1.0)

    def test_best_match_is_true_maximum(self, tiny_verilog_corpus):
        texts = tiny_verilog_corpus[:15]
        index = self._corpus_index(texts)
        v = index.vectorizer
        query = texts[3][: len(texts[3]) // 2]
        best = index.best_match(query)
        assert (best.key, best.score) == _tie_rule_match(v, query, texts)

    def test_no_shared_ngrams_returns_none_or_zero(self):
        index = self._corpus_index(["module m; endmodule"])
        assert index.best_match("@@@@ %%%% ^^^^") is None

    def test_empty_index(self):
        index = SimilarityIndex()
        assert index.best_match("anything") is None

    def test_duplicate_key_rejected(self):
        index = SimilarityIndex()
        index.add("k", "text one")
        with pytest.raises(KeyError):
            index.add("k", "text two")

    def test_score_against_specific_doc(self):
        index = self._corpus_index(["assign y = a & b;"])
        assert index.score_against("doc0", "assign y = a & b;") == pytest.approx(1.0)


class PostingListIndex:
    """The posting-list ``SimilarityIndex`` the CSR matrix replaced, kept
    verbatim (its vectorizer's counting loop included) as the reference
    of :class:`TestIndexOracle`."""

    def __init__(self, vectorizer=None):
        self.vectorizer = vectorizer or NgramVectorizer()
        self._vectors = {}
        self._posting = {}

    def _vectorize(self, text):
        normalized = self.vectorizer.normalize(text)
        n = self.vectorizer.n
        counts = Counter()
        if len(normalized) < n:
            if normalized:
                counts[normalized] += 1
        else:
            for i in range(len(normalized) - n + 1):
                counts[normalized[i:i + n]] += 1
        return SparseVector.from_counts(counts)

    def add(self, key, text):
        vector = self._vectorize(text)
        self._vectors[key] = vector
        for term in vector.weights:
            self._posting.setdefault(term, []).append(key)

    def best_match(self, text):
        query = self._vectorize(text)
        if not self._vectors or query.norm == 0.0:
            return None
        dots = {}
        for term, weight in query.weights.items():
            for key in self._posting.get(term, ()):
                dots[key] = dots.get(key, 0.0) + weight * self._vectors[
                    key
                ].weights[term]
        if not dots:
            return None
        best_key, best_dot = max(dots.items(), key=lambda kv: kv[1])
        best_score = best_dot / (query.norm * self._vectors[best_key].norm)
        for key, dot in dots.items():
            score = dot / (query.norm * self._vectors[key].norm)
            if score > best_score:
                best_key, best_score = key, score
        return SimilarityMatch(key=best_key, score=best_score)


_BODY = "module m(input a, output y); assign y = ~a; endmodule"
_OTHER = "module n(input [3:0] b, output z); assign z = &b; endmodule"

#: Documents whose cosines tie (verbatim duplicates, case and comment
#: variants that normalize to one text) and documents whose dot products
#: with a query tie while their norms differ (a document extended by text
#: sharing no n-gram with it); plus the degenerate texts.
_TIE_DOCS = [
    _BODY + "!!!!! ????? ##### $$$$$",
    _BODY,
    _OTHER,
    _BODY.upper(),
    "/* header */ " + _BODY,
    _OTHER + " " + _OTHER,
    _BODY,
    "abc",
    "",
    "m\ud800dule é ∑ ünïcödé",
    _OTHER,
]

_EDGE_QUERIES = [
    "", "ab", "abc", "zzzz", "@@@@ %%%% ^^^^", "\ud800", "m\ud800dule",
    "é ∑ ünïcödé", "\ud800" * 9,
]


def _queries(texts):
    """Every document, its halves, and neighbouring pairs concatenated."""
    out = list(_EDGE_QUERIES)
    for i, text in enumerate(texts):
        out += [text, text[: len(text) // 2], text[len(text) // 2:]]
        out.append(text + " " + texts[(i + 1) % len(texts)])
    return out


def _mismatches(corpus, queries):
    """Queries on which ``SimilarityIndex`` and :class:`PostingListIndex`
    over ``corpus`` (``(key, text)`` pairs, in insertion order) disagree
    on the key or the score."""
    index, reference = SimilarityIndex(), PostingListIndex()
    for key, text in corpus:
        index.add(key, text)
        reference.add(key, text)
    index.build()
    out = []
    for query in queries:
        got, want = index.best_match(query), reference.best_match(query)
        if want is None:
            assert got is None, query
        elif got is None or (got.key, got.score) != (want.key, want.score):
            out.append(query)
    return out


def _tie_corpora():
    """``_TIE_DOCS`` in four insertion orders: each tie resolves by reach
    order, so every order is a different case."""
    docs = [(f"doc{i}", text) for i, text in enumerate(_TIE_DOCS)]
    return [docs, docs[::-1], docs[1::2] + docs[::2], docs[::2] + docs[1::2]]


class TestIndexOracle:
    """``SimilarityIndex`` (one CSR gather and ``np.bincount`` per query)
    equals the posting-list index it replaced, key and score (``==``)."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_headline_copyright_queries(self, headline_runs, seed):
        workload, run = headline_runs[seed]
        queries = [
            r.prompt + r.completion
            for r in run.records
            if r.task_id == workload.copyright.task_id
        ]
        assert len(queries) == 98
        corpus = list(workload.corpus.entries.items())
        assert _mismatches(corpus, queries) == []

    def test_ties_and_degenerate_texts(self):
        for corpus in _tie_corpora():
            assert _mismatches(corpus, _queries(_TIE_DOCS)) == []

    def test_the_corpus_has_ties_of_both_kinds(self):
        v = NgramVectorizer()
        query = v.vectorize(_BODY)
        extended, body = (v.vectorize(t) for t in _TIE_DOCS[:2])
        dot = lambda d: sum(  # noqa: E731
            w * d.weights.get(t, 0.0) for t, w in query.weights.items()
        )
        assert dot(extended) == dot(body)
        assert extended.norm > body.norm
        assert cosine_similarity(query, v.vectorize(_TIE_DOCS[3])) == (
            cosine_similarity(query, body)
        )

    def test_no_shared_ngram_is_none(self):
        index = SimilarityIndex()
        for key, text in _tie_corpora()[0]:
            index.add(key, text)
        assert index.best_match("@@@@ %%%% ^^^^") is None
        assert index.best_match("") is None

    def test_an_add_after_a_query(self):
        docs = _tie_corpora()[0]
        index, reference = SimilarityIndex(), PostingListIndex()
        for key, text in docs[:3]:
            index.add(key, text)
            reference.add(key, text)
        queries = _queries([text for _, text in docs])
        for query in queries:
            index.best_match(query)
        for key, text in docs[3:]:
            index.add(key, text)
            reference.add(key, text)
            for query in queries:
                got = index.best_match(query)
                want = reference.best_match(query)
                assert (got and (got.key, got.score)) == (
                    want and (want.key, want.score)
                ), query

    def test_argmax_by_dot_product_fails(self, monkeypatch):
        monkeypatch.setattr(
            SimilarityIndex, "_winner",
            staticmethod(lambda reached, dots, scores: int(np.argmax(dots))),
        )
        assert any(
            _mismatches(c, _queries(_TIE_DOCS)) for c in _tie_corpora()
        )

    def test_last_reached_winning_a_tie_fails(self, monkeypatch):
        def last_reached(reached, values, value):
            tied = np.isin(reached, np.flatnonzero(values == value))
            return int(reached[len(reached) - 1 - np.argmax(tied[::-1])])

        monkeypatch.setattr(
            SimilarityIndex, "_first_reached", staticmethod(last_reached)
        )
        assert any(
            _mismatches(c, _queries(_TIE_DOCS)) for c in _tie_corpora()
        )

    def test_float32_weights_fail(self, monkeypatch):
        build = SimilarityIndex.build

        def build_float32(self):
            build(self)
            self._counts = self._counts.astype(np.float32)
            self._norms = self._norms.astype(np.float32)

        monkeypatch.setattr(SimilarityIndex, "build", build_float32)
        assert any(
            _mismatches(c, _queries(_TIE_DOCS)) for c in _tie_corpora()
        )
