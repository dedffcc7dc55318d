"""Backoff n-gram language model with hashed contexts and numpy tables.

The model keeps, for each order ``m`` in :data:`DEFAULT_ORDERS`, a compact
count table mapping *hashed* length-``m`` contexts to observed next-token
distributions.  Tables are columnar numpy arrays (sorted context hash,
CSR offsets, next-token ids, counts), so memory is ~16 bytes per distinct
(context, next-token) pair and merging two tables (continual pre-training)
is a vectorized concatenate + re-aggregate.

Training is one flat pass per order: :meth:`NGramCounts.train`
concatenates the files into one token array, hashes every window of
that order in place, drops the windows that straddle a file end (a mask
built from the file lengths) and builds the order's table before it
hashes the next order.  :meth:`_OrderTable.from_pairs` aggregates with
two integer sorts — the context hashes, then each pair's dense context
rank x next-token span + next token — and ``merge`` re-aggregates the
two tables' pairs the same way.  Training weights are finite and > 0
(:func:`check_weight`).

Context hashing uses a polynomial rolling hash in uint64 wraparound
arithmetic; collisions between distinct contexts are possible but
astronomically unlikely at corpus scale and only perturb one
distribution if they occur.

Prediction uses *longest-match backoff*: the distribution comes from the
highest order whose context was observed (optionally requiring a minimum
evidence count).  This is what produces both memorization (training-file
prefixes have deterministic continuations at high orders) and graceful
degradation on novel prompts (fall back to generic code statistics).

What is stored, what is derived
-------------------------------

The four columns of :class:`_OrderTable` are the model: they are what
training builds, what ``merge`` combines and the only thing that is
pickled.  Everything a decoder asks of a table per token is *derived*
from them once, by :class:`_DecodeView` — one per (:class:`NGramLM`,
order), built on first use, dropped by ``NGramLM.__getstate__`` and
rebuilt per process:

* ``keys`` / ``rows``: the context hashes as python ints and their row
  numbers, so finding a row is one dict probe instead of a numpy search;
* ``single[row]``: the row's only continuation, or a marker — it
  branches (:data:`_BRANCHES`), or its total count is below the LM's
  ``min_evidence`` (:data:`_BELOW_EVIDENCE`, never at order 0).  A view
  belongs to an ``NGramLM`` rather than to the table because of this
  threshold;
* ``roll``: the O(1) update from one context's hash to the next one's
  (exact — it is the same polynomial, so it adds no collision caveat;
  :func:`hash_context` is its oracle and the way into a decode state);
* two memos, each with a bound that does not depend on how long the
  process lives: ``runs`` (the run memo: per top-order context, as a
  tuple of its tokens, the run of single-continuation steps the decoder
  took from it and the decode state after it; at most
  :data:`_RUNS_MAX_TOKENS` stored tokens) and ``_picks`` (cumulative
  probabilities of sampled rows per temperature, at most
  :data:`_PICKS_MAX` entries).

:meth:`NGramLM.distribution` is the stateless query over the views;
:class:`repro.llm.sampler.Sampler` is the stateful one.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import TrainingError

#: Orders (context lengths) tracked by the model, highest first.  Order 0
#: is the unigram fallback, so prediction always succeeds.  The high top
#: order makes continuations of distinctive training text near-
#: deterministic (memorization), while the intermediate orders provide
#: graceful backoff on novel prompts.
DEFAULT_ORDERS: Tuple[int, ...] = (16, 10, 6, 3, 1, 0)

_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)
_HASH_SEED = np.uint64(0x51_7CC1B727220A95)
_MULT = int(_HASH_MULT)
_MASK_64 = (1 << 64) - 1

#: ``_DecodeView.single`` markers (a real token id is >= 0)
_BRANCHES = -1
_BELOW_EVIDENCE = -2

#: bound on one view's sampled-row memo.  It can never hold more than
#: (branching rows) x (temperatures in use) entries — 9850 for the bench
#: world's largest table under the paper's two temperatures; past the
#: bound (a caller sweeping temperatures) it starts over.
_PICKS_MAX = 1 << 15

#: bound on one view's run memo, in stored tokens (each run's context key
#: and its tokens).  A headline pass stores about 77 k in the two models'
#: top-order views together, and later passes add none; past the bound it
#: starts over.
_RUNS_MAX_TOKENS = 1 << 18

#: a memoised run: its tokens, their bytes, where the last token's bytes
#: start, and the top-order row and context hash after the last token
_Run = Tuple[Tuple[int, ...], bytes, int, int, int]


def _hash_contexts(tokens: np.ndarray, order: int) -> np.ndarray:
    """Rolling polynomial hash of every length-``order`` window.

    Returns an array ``h`` where ``h[i]`` hashes ``tokens[i:i+order]`` —
    the context *ending just before* position ``i + order`` — for ``i in
    [0, len(tokens) - order]``; at order 0 every entry is the seed, one
    per token.  The windows are accumulated in place in one uint64
    array; ``tokens`` is read as uint64 (a negative id wraps, as
    :func:`hash_context`'s mask does).
    """
    tokens = np.asarray(tokens).astype(np.uint64, copy=False)
    n = len(tokens)
    if order == 0:
        return np.full(n, _HASH_SEED, dtype=np.uint64)
    if n < order:
        return np.empty(0, dtype=np.uint64)
    width = n - order + 1
    acc = np.full(width, _HASH_SEED, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(order):
            acc *= _HASH_MULT
            acc += tokens[j:j + width]
    return acc


def hash_context(context: Sequence[int], order: int) -> int:
    """Hash the last ``order`` tokens of ``context`` (python-side)."""
    acc = int(_HASH_SEED)
    if order > 0:
        # Slice only the tail: copying the whole context here made every
        # sampled token O(len(context)) per order — quadratic generation.
        window = context[-order:]
        if len(window) < order:
            raise ValueError("context shorter than requested order")
        for token in window:
            acc = ((acc * _MULT) + int(token)) & _MASK_64
    return acc


def check_weight(weight: float) -> None:
    """Training weights scale counts, so they must be finite and > 0.

    A zero weight adds zero-count continuations, which turns a row with
    one continuation into a sampled row; a negative or NaN count makes
    ``_DecodeView.sample`` take its log.
    """
    if not (math.isfinite(weight) and weight > 0):
        raise TrainingError(f"weight must be finite and > 0, got {weight!r}")


def _pair_key_span(rows: int, lowest: int, highest: int) -> int:
    """The span ``highest - lowest + 1`` of the next tokens, once it is
    known that ``from_pairs``' largest key ``rows * span - 1`` fits int64.

    At int32 token ids the span is at most 2**32, so only a table of
    more than 2**31 distinct contexts could be refused.
    """
    span = highest - lowest + 1
    if rows * span > 1 << 63:
        raise TrainingError(
            f"{rows} contexts x {span} next-token span overflows the sort key"
        )
    return span


@dataclass
class _OrderTable:
    """CSR count table for one order."""

    keys: np.ndarray      # sorted unique context hashes, uint64
    offsets: np.ndarray   # int64, len(keys)+1
    next_tokens: np.ndarray  # int32
    counts: np.ndarray    # float64 (weighted merges)

    @classmethod
    def empty(cls) -> "_OrderTable":
        return cls(
            keys=np.empty(0, dtype=np.uint64),
            offsets=np.zeros(1, dtype=np.int64),
            next_tokens=np.empty(0, dtype=np.int32),
            counts=np.empty(0, dtype=np.float64),
        )

    @classmethod
    def from_pairs(
        cls, ctx_hashes: np.ndarray, next_tokens: np.ndarray, weights: np.ndarray
    ) -> "_OrderTable":
        """The table of ``(context hash, next token, weight)`` triples:
        one entry per distinct pair, its weights summed.

        Two integer sorts instead of a lexsort over (hash, token): the
        hashes alone, which gives every pair its context's dense rank
        ``r``; then the key ``r * span + (token - lowest)``, which is
        already in rank order and only needs each row's continuations
        put in order — a stable sort takes those runs as they are.
        :func:`_pair_key_span` refuses a key that could wrap int64.

        Neither sort keeps tied pairs in their input order, and no
        current caller's sums can notice: ``NGramCounts.train`` gives
        every pair the same weight (any order of equal values is the
        same sequence), and ``merge`` sums at most two entries per
        pair, one from each table (``a + b == b + a``).  Each
        intermediate is dropped as soon as it is used: this is
        training's memory peak, and a test bounds it.
        """
        n = len(ctx_hashes)
        if n == 0:
            return cls.empty()
        by_ctx = np.argsort(ctx_hashes)
        ctx = ctx_hashes[by_ctx]
        new_ctx = np.empty(n, dtype=bool)
        new_ctx[0] = True
        np.not_equal(ctx[1:], ctx[:-1], out=new_ctx[1:])
        keys = ctx[new_ctx]
        del ctx
        lowest = int(next_tokens.min())
        span = _pair_key_span(len(keys), lowest, int(next_tokens.max()))
        # rank * span + (token - lowest); int64 arithmetic is modular, so
        # only the final key has to fit
        pair_key = np.cumsum(new_ctx, dtype=np.int64)
        del new_ctx
        pair_key -= 1
        pair_key *= span
        pair_key += next_tokens[by_ctx]
        pair_key -= lowest
        by_pair = np.argsort(pair_key, kind="stable")
        pair_key = pair_key[by_pair]
        by_ctx = by_ctx[by_pair]
        del by_pair
        new_pair = np.empty(n, dtype=bool)
        new_pair[0] = True
        np.not_equal(pair_key[1:], pair_key[:-1], out=new_pair[1:])
        starts = np.flatnonzero(new_pair)
        del new_pair
        counts = np.add.reduceat(
            weights[by_ctx].astype(np.float64, copy=False), starts
        )
        rows, tokens = np.divmod(pair_key[starts], span)
        tokens += lowest
        return cls(
            keys=keys,
            offsets=np.searchsorted(rows, np.arange(len(keys) + 1)).astype(
                np.int64, copy=False
            ),
            next_tokens=tokens.astype(np.int32),
            counts=counts,
        )

    def merge(self, other: "_OrderTable", weight: float) -> "_OrderTable":
        """Counts of self plus ``weight`` x counts of other."""
        if len(other.next_tokens) == 0:
            return self
        ctx_self = np.repeat(self.keys, np.diff(self.offsets))
        ctx_other = np.repeat(other.keys, np.diff(other.offsets))
        return _OrderTable.from_pairs(
            np.concatenate([ctx_self, ctx_other]),
            np.concatenate([self.next_tokens, other.next_tokens]),
            np.concatenate([self.counts, other.counts * weight]),
        )

    @property
    def pair_count(self) -> int:
        return len(self.next_tokens)


@dataclass
class NGramCounts:
    """Count tables for all orders (the model's trainable state)."""

    orders: Tuple[int, ...] = DEFAULT_ORDERS
    tables: Dict[int, _OrderTable] = field(default_factory=dict)
    tokens_trained: float = 0.0

    def __post_init__(self) -> None:
        if sorted(self.orders, reverse=True) != list(self.orders):
            raise TrainingError("orders must be strictly decreasing")
        if 0 not in self.orders:
            raise TrainingError("order 0 (unigram fallback) is required")
        for order in self.orders:
            self.tables.setdefault(order, _OrderTable.empty())

    @classmethod
    def train(
        cls,
        token_sequences: Sequence[Sequence[int]],
        orders: Tuple[int, ...] = DEFAULT_ORDERS,
        weight: float = 1.0,
    ) -> "NGramCounts":
        """Count n-grams from token sequences (each sequence = one file;
        n-grams never cross file boundaries).

        The files are concatenated into one token array and each order is
        one pass over it: every window hashed, the windows that straddle
        a file end dropped, the table built — before the next order is
        hashed.
        """
        check_weight(weight)
        counts = cls(orders=orders)
        sequences = list(token_sequences)
        lengths = np.fromiter(
            map(len, sequences), dtype=np.int64, count=len(sequences)
        )
        total = int(lengths.sum())
        signed = np.fromiter(
            chain.from_iterable(sequences), dtype=np.int64, count=total
        )
        tokens = signed.view(np.uint64)
        ends = np.cumsum(lengths)
        for order in orders:
            # windows that have a next token start at 0 .. width - 1
            width = total - order
            if width <= 0:
                continue
            ctx = _hash_contexts(tokens, order)[:width]
            nxt = signed[order:].astype(np.int32)
            if order:
                # A file of length L > order contributes the windows that
                # start in [end - L, end - order): +1 / -1 at those ends of
                # disjoint, non-touching runs, so the running sum is 0 / 1.
                longer = lengths > order
                edges = np.zeros(width + 1, dtype=np.int8)
                edges[(ends - lengths)[longer]] = 1
                edges[ends[longer] - order] = -1
                inside = np.cumsum(edges[:width], dtype=np.int8).view(bool)
                del edges
                ctx = ctx[inside]
                nxt = nxt[inside]
                del inside
            counts.tables[order] = _OrderTable.from_pairs(
                ctx, nxt, np.broadcast_to(np.float64(weight), ctx.shape)
            )
            del ctx, nxt
        counts.tokens_trained = float(total) * weight
        return counts

    def merged_with(self, other: "NGramCounts", weight: float = 1.0) -> "NGramCounts":
        """New counts = self + weight x other (continual pre-training)."""
        check_weight(weight)
        if self.orders != other.orders:
            raise TrainingError("cannot merge models with different orders")
        merged = NGramCounts(orders=self.orders)
        for order in self.orders:
            merged.tables[order] = self.tables[order].merge(
                other.tables[order], weight
            )
        merged.tokens_trained = self.tokens_trained + other.tokens_trained * weight
        return merged

    @property
    def pair_count(self) -> int:
        return sum(t.pair_count for t in self.tables.values())


class _DecodeView:
    """What a decoder asks of one order's table, derived once.

    See the module docstring for each field.  Python lists and ints
    throughout: the decode loop reads a few of them per token, and a
    numpy scalar costs more to box than the whole step.
    """

    __slots__ = (
        "table", "order", "rows", "single", "runs", "_run_tokens",
        "_out_mult", "_shift", "_picks",
    )

    def __init__(self, table: _OrderTable, order: int, min_evidence: float) -> None:
        self.table = table
        self.order = order
        self.rows: Dict[int, int] = dict(
            zip(table.keys.tolist(), range(len(table.keys)))
        )
        starts = table.offsets[:-1]
        sizes = np.diff(table.offsets)
        single = np.where(sizes == 1, table.next_tokens[starts], _BRANCHES)
        if order > 0 and len(starts):
            totals = np.add.reduceat(table.counts, starts)
            # The rule is stated on ``counts[lo:hi].sum()``, which may
            # round differently from ``reduceat``; settle the rows where
            # that could decide the comparison with the rule's own sum.
            close = (sizes > 1) & np.isclose(totals, min_evidence)
            for row in np.flatnonzero(close).tolist():
                lo, hi = self.bounds(row)
                totals[row] = table.counts[lo:hi].sum()
            single[totals < min_evidence] = _BELOW_EVIDENCE
        self.single: List[int] = single.tolist()
        # filled only in the view the sampler carries its state in (the
        # top order's), keyed by the top-order context's tokens
        self.runs: Dict[Tuple[int, ...], _Run] = {}
        self._run_tokens = 0
        # h' = h*M + t_in - t_out*M^K - seed*(M^(K+1) - M^K)  (mod 2^64)
        self._out_mult = pow(_MULT, order, 1 << 64)
        self._shift = int(_HASH_SEED) * self._out_mult * (_MULT - 1) & _MASK_64
        self._picks: Dict[Tuple[int, float], Tuple[List[float], List[int]]] = {}

    def roll(self, ctx_hash: int, t_in: int, t_out: int) -> int:
        """Hash of the window that drops ``t_out`` in front and gains
        ``t_in`` behind, from the hash of the window before: equals
        ``hash_context`` of the shifted window."""
        return (
            ctx_hash * _MULT + t_in - t_out * self._out_mult - self._shift
        ) & _MASK_64

    def record_run(
        self,
        context: Tuple[int, ...],
        tokens: Tuple[int, ...],
        data: bytes,
        last: int,
        row: int,
        ctx_hash: int,
    ) -> None:
        """Memoise the run the decoder took from ``context``."""
        stored = self._run_tokens + len(context) + len(tokens)
        if stored > _RUNS_MAX_TOKENS:
            self.runs.clear()
            stored = len(context) + len(tokens)
        self.runs[context] = tokens, data, last, row, ctx_hash
        self._run_tokens = stored

    def bounds(self, row: int) -> Tuple[int, int]:
        offsets = self.table.offsets
        return int(offsets[row]), int(offsets[row + 1])

    def greedy(self, row: int) -> int:
        lo, hi = self.bounds(row)
        best = int(np.argmax(self.table.counts[lo:hi]))
        return int(self.table.next_tokens[lo + best])

    def sample(self, row: int, temperature: float, pick: float) -> int:
        """The continuation of ``row`` that the uniform draw ``pick``
        lands on when p_i is proportional to count_i^(1/T)."""
        entry = self._picks.get((row, temperature))
        if entry is None:
            lo, hi = self.bounds(row)
            # softmax of log-counts / T
            logw = np.log(self.table.counts[lo:hi].astype(np.float64)) / temperature
            logw -= logw.max()
            probs = np.exp(logw)
            probs /= probs.sum()
            entry = np.cumsum(probs).tolist(), self.table.next_tokens[lo:hi].tolist()
            if len(self._picks) >= _PICKS_MAX:
                self._picks.clear()
            self._picks[row, temperature] = entry
        cumulative, tokens = entry
        return tokens[bisect_left(cumulative, pick)]


class NGramLM:
    """Longest-match backoff predictor over :class:`NGramCounts`.

    ``counts`` and ``min_evidence`` are fixed at construction: the decode
    views are derived from both.
    """

    def __init__(self, counts: NGramCounts, min_evidence: float = 1.0) -> None:
        self.counts = counts
        self.min_evidence = min_evidence
        self._views: Dict[int, _DecodeView] = {}

    def __getstate__(self):
        # Views are derived data: rebuilt per process, never pickled.
        return {"counts": self.counts, "min_evidence": self.min_evidence}

    def __setstate__(self, state) -> None:
        self.__init__(**state)

    def view(self, order: int) -> _DecodeView:
        view = self._views.get(order)
        if view is None:
            view = self._views[order] = _DecodeView(
                self.counts.tables[order], order, self.min_evidence
            )
        return view

    def locate(
        self, context: Sequence[int], orders: Sequence[int]
    ) -> Tuple[_DecodeView, int]:
        """``(view, row)`` of the longest of ``orders`` whose context was
        observed with at least ``min_evidence``; order 0 always matches
        (if anything was trained)."""
        for order in orders:
            if order > len(context):
                continue
            view = self.view(order)
            row = view.rows.get(hash_context(context, order), -1)
            if row >= 0 and view.single[row] != _BELOW_EVIDENCE:
                return view, row
        raise TrainingError("model has no training data (empty unigram table)")

    def distribution(
        self, context: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """(next_tokens, counts, order_used) for the longest matching order."""
        view, row = self.locate(context, self.counts.orders)
        lo, hi = view.bounds(row)
        table = view.table
        return table.next_tokens[lo:hi], table.counts[lo:hi], view.order

    def greedy_next(self, context: Sequence[int]) -> int:
        view, row = self.locate(context, self.counts.orders)
        return view.greedy(row)
