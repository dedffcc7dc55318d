"""Tests for the n-gram count tables and backoff predictor."""

import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import ConfigError, TrainingError
from repro.llm import LanguageModel
from repro.llm.ngram import (
    DEFAULT_ORDERS,
    NGramCounts,
    NGramLM,
    hash_context,
    _hash_contexts,
    _OrderTable,
    _pair_key_span,
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


def _oracle_generate(
    lm, prompt_tokens, temperature, max_new_tokens, seed,
    stops=(), include_stop=True,
):
    """The completion's bytes from one stateless query per token (checking
    ``lm.distribution`` on the way), tokens being the bytes of a
    ``BPETokenizer([])``.  After each token it looks for every stop string
    in the whole text; at the first token where any occurs it cuts at the
    smallest end (start, without ``include_stop``) of their first
    occurrences."""
    rng = DeterministicRNG(seed)
    sequence = list(prompt_tokens)
    stops = [s.encode("ascii") for s in stops if s]
    out = b""
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
        out += bytes([token])
        found = [(out.find(s), s) for s in stops if s in out]
        if found:
            return out[:min(p + len(s) if include_stop else p for p, s in found)]
    return out


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


def _phrase(index, start, stop):
    """Bytes of a training sequence, as a stop string."""
    return bytes(_phrase_corpus(1)[index][start:stop]).decode("ascii")


#: stop-string configurations over the phrase corpus's text: one
#: multi-token stop, two stops (of different lengths, so the earliest
#: *end* decides), and each without the stop kept
_STOP_CASES = {
    "multi_token": ((_phrase(0, 5, 8),), True),
    "multi_token_dropped": ((_phrase(0, 5, 8),), False),
    "two_stops": ((_phrase(2, 10, 14), _phrase(5, 3, 5)), True),
    "two_stops_dropped": ((_phrase(2, 10, 14), _phrase(5, 3, 5)), False),
}

_MAKE_LMS = [_default_orders_lm, _rows_below_evidence_lm, _orders_1_0_lm]


def _can_replay(lm):
    """Whether any top-order row has one continuation, so runs exist."""
    return max(lm.view(lm.counts.orders[0]).single) >= 0


def _replayed(fn):
    """``sampler.tokens_replayed`` moved while ``fn`` ran."""
    before = obs.counter_value("sampler.tokens_replayed")
    fn()
    return obs.counter_value("sampler.tokens_replayed") - before


class TestStatefulDecoding:
    """``Sampler.generate`` against ``_oracle_generate``, through one
    sampler per test, so later completions replay the runs that earlier
    ones recorded and draw on the sampled-row memo they left behind."""

    @staticmethod
    def _check(sampler, lm, temperature, seeds, budgets, stops=(), include_stop=True):
        for seed in seeds:
            for prompt_tokens in _PROMPTS.values():
                for budget in budgets:
                    config = GenerationConfig(
                        temperature=temperature, max_new_tokens=budget,
                        stop_strings=stops, include_stop=include_stop,
                    )
                    text = sampler.generate(
                        "", config, seed=seed, prompt_tokens=prompt_tokens
                    )
                    expected = _oracle_generate(
                        lm, prompt_tokens, temperature, budget, seed,
                        stops, include_stop,
                    )
                    assert text.encode("ascii") == expected

    @pytest.mark.parametrize("make_lm", _MAKE_LMS)
    @pytest.mark.parametrize("temperature", [0.0, 0.2, 0.8, 1.2])
    def test_generate_equals_stateless_oracle(self, make_lm, temperature):
        lm = make_lm()
        sampler = Sampler(BPETokenizer([]), lm)
        # no stop string: every completion runs into the token budget
        replayed = _replayed(
            lambda: self._check(sampler, lm, temperature, range(4), [90])
        )
        assert (replayed > 0) == _can_replay(lm)

    @pytest.mark.parametrize("make_lm", _MAKE_LMS)
    @pytest.mark.parametrize("temperature", [0.0, 0.8])
    @pytest.mark.parametrize("case", list(_STOP_CASES))
    def test_stop_strings_equal_stateless_oracle(self, make_lm, temperature, case):
        lm = make_lm()
        sampler = Sampler(BPETokenizer([]), lm)
        stops, include_stop = _STOP_CASES[case]
        # runs recorded without a stop in sight, then replayed under one
        self._check(sampler, lm, temperature, range(2), [90])
        replayed = _replayed(
            lambda: self._check(
                sampler, lm, temperature, range(4), [90], stops, include_stop
            )
        )
        assert (replayed > 0) == _can_replay(lm)

    @pytest.mark.parametrize("make_lm", _MAKE_LMS)
    def test_budgets_ending_inside_memoised_runs(self, make_lm):
        lm = make_lm()
        sampler = Sampler(BPETokenizer([]), lm)
        stops, include_stop = _STOP_CASES["two_stops"]
        self._check(sampler, lm, 0.8, range(3), [90])
        # every budget from one token to past the longest run
        self._check(sampler, lm, 0.8, range(3), range(1, 40))
        self._check(sampler, lm, 0.8, range(3), range(1, 40), stops, include_stop)

    def test_replays_cover_every_stop_outcome(self, monkeypatch):
        """The cases above put a stop before, across and inside memoised
        runs: a spy on the replay's stop check sees a run with no stop,
        one cut at its last token, one that falls back to per-token
        steps, and a stop that starts before the run it ends in."""
        from repro.llm import sampler as sampler_module

        seen = set()
        real = sampler_module._stop_cut

        def spy(out, since, last, stops, reach, include_stop):
            cut = real(out, since, last, stops, reach, include_stop)
            if last > since:  # a replayed run of two or more tokens
                seen.add("none" if cut == -1 else "inside" if cut < -1 else "cut")
                if cut >= 0 and any(
                    since > out.find(s, max(since - reach, 0)) >= 0 for s in stops
                ):
                    seen.add("straddles_start")
            return cut

        monkeypatch.setattr(sampler_module, "_stop_cut", spy)
        lm = _default_orders_lm()
        sampler = Sampler(BPETokenizer([]), lm)
        self._check(sampler, lm, 0.8, range(2), [90])
        for stops, include_stop in _STOP_CASES.values():
            self._check(sampler, lm, 0.8, range(4), [90], stops, include_stop)
        assert seen == {"none", "inside", "cut", "straddles_start"}

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


# -- count tables against a pure-Python reference ------------------------------


def _reference_pairs(files, order):
    """``Counter`` over ``(hash_context(window), next)`` per file."""
    pairs = Counter()
    for tokens in files:
        for i in range(len(tokens) - order):
            pairs[hash_context(tokens[i:i + order], order), tokens[i + order]] += 1
    return pairs


def _columns(pair_counts):
    """The four table columns of a ``{(context, next): count}`` map."""
    keys, offsets, nexts, counts = [], [], [], []
    for (ctx, nxt), count in sorted(pair_counts.items()):
        if not keys or keys[-1] != ctx:
            keys.append(ctx)
            offsets.append(len(nexts))
        nexts.append(nxt)
        counts.append(count)
    offsets.append(len(nexts))
    return (
        np.array(keys, dtype=np.uint64),
        np.array(offsets, dtype=np.int64),
        np.array(nexts, dtype=np.int32),
        np.array(counts, dtype=np.float64),
    )


def _reference_counts(files, orders, weight):
    tables = {}
    for order in orders:
        pairs = _reference_pairs(files, order)
        tables[order] = _columns({p: k * weight for p, k in pairs.items()})
    return tables, float(sum(map(len, files))) * weight


def _reference_merge(files_a, weight_a, files_b, orders, weight):
    """``train(files_a, weight_a) + weight x train(files_b)``, pair by pair."""
    tables = {}
    for order in orders:
        a, b = _reference_pairs(files_a, order), _reference_pairs(files_b, order)
        tables[order] = _columns(
            {p: a[p] * weight_a + b[p] * weight for p in a.keys() | b.keys()}
        )
    tokens = sum(map(len, files_a)) * weight_a + sum(map(len, files_b)) * weight
    return tables, tokens


def _assert_matches_reference(counts, reference):
    tables, tokens_trained = reference
    assert counts.tokens_trained == tokens_trained
    assert tuple(counts.tables) == tuple(tables)
    for order, expected in tables.items():
        table = counts.tables[order]
        got = (table.keys, table.offsets, table.next_tokens, table.counts)
        for name, column, want in zip(
            ("keys", "offsets", "next_tokens", "counts"), got, expected
        ):
            assert column.dtype == want.dtype, (order, name)
            assert column.tolist() == want.tolist(), (order, name)


#: a small alphabet, so contexts recur and rows branch, plus the int32
#: extremes, so the next-token span of the sort key is the widest it can be
_TOKEN = st.one_of(
    st.integers(0, 4), st.sampled_from([-(2**31), 2**31 - 1, 300])
)
_FILES = st.lists(st.lists(_TOKEN, max_size=14), max_size=8)
_ORDERS = st.sets(st.integers(1, 6), max_size=3).map(
    lambda s: tuple(sorted(s, reverse=True)) + (0,)
)
_WEIGHT = st.sampled_from([1.0, 0.5, 2.0])


def _crossing_train(files, orders, weight):
    """Naive variant: one file, so windows run across file ends."""
    return NGramCounts.train(
        [[t for tokens in files for t in tokens]], orders=orders, weight=weight
    )


def _context_sorted_from_pairs(cls, ctx_hashes, next_tokens, weights):
    """Naive variant: sorted by context alone, equal neighbours summed."""
    if len(ctx_hashes) == 0:
        return cls.empty()
    by_ctx = np.argsort(ctx_hashes, kind="stable")
    ctx, nxt = ctx_hashes[by_ctx], next_tokens[by_ctx].astype(np.int32)
    new_pair = np.ones(len(ctx), dtype=bool)
    new_pair[1:] = (ctx[1:] != ctx[:-1]) | (nxt[1:] != nxt[:-1])
    starts = np.flatnonzero(new_pair)
    new_ctx = np.ones(len(starts), dtype=bool)
    new_ctx[1:] = ctx[starts][1:] != ctx[starts][:-1]
    return cls(
        keys=ctx[starts][new_ctx],
        offsets=np.append(np.flatnonzero(new_ctx), len(starts)).astype(np.int64),
        next_tokens=nxt[starts],
        counts=np.add.reduceat(weights[by_ctx].astype(np.float64), starts),
    )


class TestCountTableOracle:
    """``train`` and ``merged_with`` against the Counter reference: every
    column's values and dtype, and ``tokens_trained``."""

    @settings(max_examples=150, deadline=None)
    @given(_FILES, _ORDERS, _WEIGHT)
    def test_train_equals_reference(self, files, orders, weight):
        counts = NGramCounts.train(files, orders=orders, weight=weight)
        _assert_matches_reference(counts, _reference_counts(files, orders, weight))

    @settings(max_examples=100, deadline=None)
    @given(_FILES, _FILES, _ORDERS, _WEIGHT, _WEIGHT)
    def test_merged_with_equals_reference(
        self, files_a, files_b, orders, weight_a, weight
    ):
        a = NGramCounts.train(files_a, orders=orders, weight=weight_a)
        b = NGramCounts.train(files_b, orders=orders)
        _assert_matches_reference(
            a.merged_with(b, weight=weight),
            _reference_merge(files_a, weight_a, files_b, orders, weight),
        )

    def test_gallery(self):
        # empty files, files no longer than an order, one token repeated
        files = [[], [1], [1, 2], [1, 2, 3], [], [2, 2, 2, 2, 2, 2], [3, 1, 2, 3]]
        for orders in ((3, 2, 1, 0), (2, 0), (7, 0)):
            for weight in (1.0, 0.5, 2.0):
                _assert_matches_reference(
                    NGramCounts.train(files, orders=orders, weight=weight),
                    _reference_counts(files, orders, weight),
                )

    def test_windows_across_file_ends_fail_it(self):
        files = [[1, 2], [3, 4]]
        with pytest.raises(AssertionError):
            _assert_matches_reference(
                _crossing_train(files, (2, 1, 0), 1.0),
                _reference_counts(files, (2, 1, 0), 1.0),
            )

    def test_sort_by_context_alone_fails_it(self, monkeypatch):
        # context [1] continues to 2, 3, 2: the two 2s are not neighbours
        files = [[1, 2, 1, 3, 1, 2]]
        monkeypatch.setattr(
            _OrderTable, "from_pairs", classmethod(_context_sorted_from_pairs)
        )
        with pytest.raises(AssertionError):
            _assert_matches_reference(
                NGramCounts.train(files, orders=(1, 0)),
                _reference_counts(files, (1, 0), 1.0),
            )

    def test_sort_key_cannot_wrap(self):
        # rank * span + (token - lowest) peaks at rows * span - 1
        assert _pair_key_span(2**31, -(2**31), 2**31 - 1) == 2**32
        with pytest.raises(TrainingError):
            _pair_key_span(2**31 + 1, -(2**31), 2**31 - 1)
        assert _pair_key_span(1 << 40, 0, 2**23 - 1) == 2**23
        with pytest.raises(TrainingError):
            _pair_key_span((1 << 40) + 1, 0, 2**23 - 1)


class TestWeightValidation:
    """A training weight is finite and > 0, at every entry point."""

    BAD = [0.0, -1.0, math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("weight", BAD)
    def test_train_refuses(self, weight):
        with pytest.raises(TrainingError):
            NGramCounts.train([[1, 2, 3]], orders=(1, 0), weight=weight)

    @pytest.mark.parametrize("weight", BAD)
    def test_merged_with_refuses(self, weight):
        a = NGramCounts.train([[1, 2, 3]], orders=(1, 0))
        with pytest.raises(TrainingError):
            a.merged_with(a, weight=weight)

    @pytest.mark.parametrize("weight", BAD)
    def test_continual_pretrain_refuses(self, tiny_model, weight):
        with pytest.raises(TrainingError):
            tiny_model.continual_pretrain("ft", ["module m; endmodule"], weight=weight)

    @pytest.mark.filterwarnings("ignore:divide by zero encountered in log")
    def test_zero_weight_would_change_sampling(self, tiny_model, tiny_verilog_corpus):
        # What a weight-0 merge did before it was refused: FreeV's counts
        # gain zero-count continuations, single-continuation rows become
        # sampled rows, and seeded completions leave the base's (9 of
        # these 30).
        new = NGramCounts.train(
            [tiny_model.tokenizer.encode(t) for t in tiny_verilog_corpus[60:]],
            orders=tiny_model.counts.orders,
        )
        base = tiny_model.counts
        zero = NGramCounts(
            orders=base.orders,
            tables={
                o: base.tables[o].merge(new.tables[o], 0.0) for o in base.orders
            },
            tokens_trained=base.tokens_trained,
        )
        assert (zero.tables[base.orders[0]].counts == 0.0).any()
        merged = LanguageModel("w0", tiny_model.tokenizer, zero)
        config = GenerationConfig(temperature=0.8, max_new_tokens=60)
        prompts = ["module ", "  assign ", "  always @(posedge clk) begin\n"]
        differ = sum(
            merged.generate(p, config, seed=s) != tiny_model.generate(p, config, seed=s)
            for p in prompts
            for s in range(10)
        )
        assert differ > 0


class TestSamplingValidation:
    """A temperature is a real number >= 0 and a token budget an int >= 0,
    refused at ``GenerationConfig`` and, for a plan, at ``EvalConfig``."""

    BAD_TEMPERATURES = [
        math.nan, -1.0, -1e-9, math.inf, -math.inf, True, "0.8", None,
    ]
    BAD_BUDGETS = [-1, 1.5, 10.0, True, "10", None]

    @pytest.mark.parametrize("temperature", BAD_TEMPERATURES)
    def test_generation_config_refuses_temperature(self, temperature):
        with pytest.raises(ConfigError, match="temperature"):
            GenerationConfig(temperature=temperature)

    @pytest.mark.parametrize("max_new_tokens", BAD_BUDGETS)
    def test_generation_config_refuses_budget(self, max_new_tokens):
        with pytest.raises(ConfigError, match="max_new_tokens"):
            GenerationConfig(max_new_tokens=max_new_tokens)

    @pytest.mark.parametrize("temperature", BAD_TEMPERATURES)
    def test_eval_config_refuses_temperature(self, temperature):
        from repro.vereval import EvalConfig

        with pytest.raises(ConfigError, match="temperature"):
            EvalConfig(temperatures=(0.2, temperature))

    @pytest.mark.parametrize("max_new_tokens", BAD_BUDGETS)
    def test_eval_config_refuses_budget(self, max_new_tokens):
        from repro.vereval import EvalConfig

        with pytest.raises(ConfigError, match="max_new_tokens"):
            EvalConfig(max_new_tokens=max_new_tokens)

    def test_copyright_task_refuses_before_a_plan_runs(self):
        from repro.evalkit import CopyrightTask

        with pytest.raises(ConfigError, match="temperature"):
            CopyrightTask(None, temperature=math.nan)
        with pytest.raises(ConfigError, match="max_new_tokens"):
            CopyrightTask(None, max_new_tokens=-1)

    def test_accepts_greedy_and_numpy_values(self):
        from repro.vereval import EvalConfig

        for temperature in (0, 0.0, 1e-7, np.float64(0.2), np.float32(1.5)):
            GenerationConfig(temperature=temperature)
        for budget in (0, 1, np.int64(600)):
            GenerationConfig(max_new_tokens=budget)
        EvalConfig(temperatures=(0.0, np.float64(0.8)), max_new_tokens=np.int32(0))

    def test_nan_temperature_would_collapse_the_seeds(self, tiny_model):
        # What a NaN temperature did before it was refused: every sampled
        # row's cumulative list is NaN, its bisection lands on the first
        # continuation, and 20 seeds give one completion.
        config = GenerationConfig(temperature=0.8, max_new_tokens=60)
        seeded = {tiny_model.generate("module ", config, seed=s) for s in range(20)}
        config.temperature = math.nan
        with np.errstate(invalid="ignore"):
            nan = {tiny_model.generate("module ", config, seed=s) for s in range(20)}
        assert len(seeded) > 1
        assert len(nan) == 1


class TestTrainingMemory:
    def test_transient_peak_per_token(self):
        """``train``'s peak above what it returns, per token, on ~200 k
        tokens in ~600 files.  Measured (numpy 2, x86-64): 133 B/token
        when every order's per-file arrays lived until the end, 52 B/token
        with one flat order-at-a-time pass (the returned tables hold 37)."""
        rng = random.Random(5)
        phrases = [
            [rng.randrange(700) for _ in range(rng.randrange(4, 40))]
            for _ in range(300)
        ]
        files, total = [], 0
        while total < 200_000:
            tokens = [t for _ in range(rng.randrange(1, 30)) for t in rng.choice(phrases)]
            files.append(tokens)
            total += len(tokens)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            counts = NGramCounts.train(files)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.tables[0].pair_count > 0
        assert (peak - held) / total < 90
        assert (held - before) / total < 45
