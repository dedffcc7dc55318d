"""Tests for the n-gram count tables and backoff predictor."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TrainingError
from repro.llm.ngram import (
    DEFAULT_ORDERS,
    NGramCounts,
    NGramLM,
    hash_context,
    _hash_contexts,
)
from repro.llm.sampler import GenerationConfig, Sampler
from repro.llm.tokenizer import BPETokenizer
from repro.utils.rng import DeterministicRNG

ORDERS = (4, 2, 1, 0)


class TestHashing:
    def test_vectorized_matches_python(self):
        tokens = np.arange(50, dtype=np.int64)
        for order in (1, 3, 7):
            vec = _hash_contexts(tokens, order)
            for i in (0, 5, len(vec) - 1):
                window = list(tokens[i:i + order])
                assert int(vec[i]) == hash_context(window, order)

    def test_order_zero_constant(self):
        tokens = np.array([5, 6, 7], dtype=np.int64)
        hashes = _hash_contexts(tokens, 0)
        assert len(set(hashes.tolist())) == 1

    def test_short_context_rejected(self):
        with pytest.raises(ValueError):
            hash_context([1, 2], 5)


class TestTraining:
    def test_counts_simple_sequence(self):
        counts = NGramCounts.train([[1, 2, 3, 1, 2, 4]], orders=ORDERS)
        lm = NGramLM(counts)
        nexts, weights, order = lm.distribution([9, 9, 9, 1, 2])
        assert order == 2
        assert sorted(zip(nexts.tolist(), weights.tolist())) == [
            (3, 1.0), (4, 1.0)
        ]

    def test_ngrams_do_not_cross_files(self):
        counts = NGramCounts.train([[1, 2], [3, 4]], orders=(2, 1, 0))
        lm = NGramLM(counts)
        # context [2, 3] spans the file boundary; must not exist at order 2
        _, _, order = lm.distribution([2, 3])
        assert order < 2

    def test_unigram_fallback_always_available(self):
        counts = NGramCounts.train([[7, 8, 9]], orders=ORDERS)
        lm = NGramLM(counts)
        nexts, _, order = lm.distribution([12345])
        assert order == 0
        assert set(nexts.tolist()) <= {7, 8, 9}

    def test_empty_model_raises(self):
        counts = NGramCounts(orders=ORDERS)
        with pytest.raises(TrainingError):
            NGramLM(counts).distribution([1])

    def test_order_zero_required(self):
        with pytest.raises(TrainingError):
            NGramCounts(orders=(3, 2))

    def test_orders_must_decrease(self):
        with pytest.raises(TrainingError):
            NGramCounts(orders=(2, 3, 0))

    def test_default_orders_shape(self):
        assert DEFAULT_ORDERS[0] >= 12
        assert DEFAULT_ORDERS[-1] == 0


class TestMerging:
    def test_merge_adds_weighted_counts(self):
        a = NGramCounts.train([[1, 2, 3]], orders=(1, 0))
        b = NGramCounts.train([[1, 2, 3]], orders=(1, 0))
        merged = a.merged_with(b, weight=2.0)
        lm = NGramLM(merged)
        nexts, weights, order = lm.distribution([2])
        assert order == 1
        assert weights.tolist() == [3.0]  # 1 + 2*1

    def test_merge_disjoint_contexts(self):
        a = NGramCounts.train([[1, 2]], orders=(1, 0))
        b = NGramCounts.train([[3, 4]], orders=(1, 0))
        merged = a.merged_with(b)
        lm = NGramLM(merged)
        assert lm.greedy_next([1]) == 2
        assert lm.greedy_next([3]) == 4

    def test_merge_mismatched_orders_rejected(self):
        a = NGramCounts.train([[1, 2]], orders=(1, 0))
        b = NGramCounts.train([[1, 2]], orders=(2, 1, 0))
        with pytest.raises(TrainingError):
            a.merged_with(b)

    def test_merge_preserves_originals(self):
        a = NGramCounts.train([[1, 2, 3]], orders=(1, 0))
        b = NGramCounts.train([[2, 9]], orders=(1, 0))
        a.merged_with(b)
        # a unchanged: context [2] still only continues to 3
        assert NGramLM(a).greedy_next([2]) == 3

    def test_tokens_trained_accumulates(self):
        a = NGramCounts.train([[1] * 10], orders=(1, 0))
        b = NGramCounts.train([[2] * 6], orders=(1, 0))
        merged = a.merged_with(b, weight=0.5)
        assert merged.tokens_trained == pytest.approx(13.0)


class TestBackoff:
    def test_longest_match_wins(self):
        # train: "1 2 3" twice and "9 2 4" once; context [1, 2] should use
        # order 2 (only continuation 3), not the order-1 mix.
        counts = NGramCounts.train(
            [[1, 2, 3], [1, 2, 3], [9, 2, 4]], orders=(2, 1, 0)
        )
        lm = NGramLM(counts)
        _, _, order = lm.distribution([1, 2])
        assert order == 2
        assert lm.greedy_next([1, 2]) == 3

    def test_memorization_of_training_sequence(self):
        sequence = list(range(100, 160))
        counts = NGramCounts.train([sequence], orders=DEFAULT_ORDERS)
        lm = NGramLM(counts)
        context = sequence[:20]
        for expected in sequence[20:40]:
            token = lm.greedy_next(context)
            assert token == expected
            context.append(token)

    def test_greedy_picks_max_count(self):
        counts = NGramCounts.train(
            [[1, 2], [1, 2], [1, 3]], orders=(1, 0)
        )
        assert NGramLM(counts).greedy_next([1]) == 2


# -- stateful decoding against a stateless oracle ------------------------------


def _oracle_distribution(counts, min_evidence, context):
    """Longest-match backoff read straight off the table columns."""
    for order in counts.orders:
        if order > len(context):
            continue
        table = counts.tables[order]
        key = np.uint64(hash_context(context, order))
        pos = int(np.searchsorted(table.keys, key))
        if pos >= len(table.keys) or table.keys[pos] != key:
            continue
        lo, hi = int(table.offsets[pos]), int(table.offsets[pos + 1])
        weights = table.counts[lo:hi]
        if order > 0 and float(weights.sum()) < min_evidence:
            continue
        return table.next_tokens[lo:hi], weights, order
    raise TrainingError("empty")


def _oracle_generate(lm, prompt_tokens, temperature, max_new_tokens, seed):
    """One stateless query per token; checks ``lm.distribution`` on the way."""
    rng = DeterministicRNG(seed)
    sequence = list(prompt_tokens)
    for _ in range(max_new_tokens):
        next_tokens, weights, order = _oracle_distribution(
            lm.counts, lm.min_evidence, sequence
        )
        got_tokens, got_weights, got_order = lm.distribution(sequence)
        assert got_order == order
        assert got_tokens.tolist() == next_tokens.tolist()
        assert got_weights.tolist() == weights.tolist()
        if len(next_tokens) == 1:
            token = int(next_tokens[0])
        elif temperature <= 1e-6:
            token = int(next_tokens[int(np.argmax(weights))])
        else:
            logw = np.log(weights.astype(np.float64)) / temperature
            logw -= logw.max()
            probs = np.exp(logw)
            probs /= probs.sum()
            pick = rng.random()
            token = int(next_tokens[int(np.searchsorted(np.cumsum(probs), pick))])
        sequence.append(token)
    return sequence[len(prompt_tokens):]


def _phrase_corpus(seed, n_sequences=24):
    """Sequences over a-h stitched from a few recurring phrases, so long
    contexts recur (links, memorisation) and fork at the joins."""
    rng = random.Random(seed)
    phrases = [
        [rng.randrange(97, 105) for _ in range(rng.randrange(4, 24))]
        for _ in range(10)
    ]
    return [
        [t for _ in range(10) for t in rng.choice(phrases)]
        for _ in range(n_sequences)
    ]


_PROMPTS = {
    "empty": [],
    "shorter_than_top_order": _phrase_corpus(1)[0][:3],
    "training_prefix": _phrase_corpus(1)[3][:30],
    "never_seen": [88, 89, 90],
}


def _default_orders_lm():
    return NGramLM(NGramCounts.train(_phrase_corpus(1), orders=DEFAULT_ORDERS))


def _rows_below_evidence_lm():
    merged = _default_orders_lm().counts.merged_with(
        NGramCounts.train(_phrase_corpus(2), orders=DEFAULT_ORDERS), weight=0.5
    )
    lm = NGramLM(merged, min_evidence=1.5)
    top = merged.tables[DEFAULT_ORDERS[0]]
    assert (np.add.reduceat(top.counts, top.offsets[:-1]) < 1.5).any()
    return lm


def _orders_1_0_lm():
    return NGramLM(NGramCounts.train(_phrase_corpus(1), orders=(1, 0)))


class TestStatefulDecoding:
    @pytest.mark.parametrize(
        "make_lm", [_default_orders_lm, _rows_below_evidence_lm, _orders_1_0_lm]
    )
    @pytest.mark.parametrize("temperature", [0.0, 0.2, 0.8, 1.2])
    def test_generate_equals_stateless_oracle(self, make_lm, temperature):
        lm = make_lm()
        sampler = Sampler(BPETokenizer([]), lm)
        # no stop string: every completion runs into the token budget
        config = GenerationConfig(
            temperature=temperature, max_new_tokens=90, stop_strings=()
        )
        # Several seeds through one sampler: later ones run over the
        # links and the sampled-row memo the earlier ones left behind.
        for seed in range(4):
            for prompt_tokens in _PROMPTS.values():
                expected = _oracle_generate(lm, prompt_tokens, temperature, 90, seed)
                text = sampler.generate(
                    "", config, seed=seed, prompt_tokens=prompt_tokens
                )
                assert list(text.encode("ascii")) == expected

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.integers(0, 2**31 - 1),
            min_size=DEFAULT_ORDERS[0] + 1,
            max_size=3 * DEFAULT_ORDERS[0],
        )
    )
    def test_rolling_update_equals_rehash(self, tokens):
        lm = NGramLM(NGramCounts(orders=DEFAULT_ORDERS))
        for order in DEFAULT_ORDERS:
            view = lm.view(order)
            rolled = hash_context(tokens[:order], order)
            for i in range(order, len(tokens)):
                # at order 0 the token that enters is the one that leaves
                rolled = view.roll(rolled, tokens[i], tokens[i - order])
                assert rolled == hash_context(tokens[: i + 1], order)
