"""Backoff n-gram language model with hashed contexts and numpy tables.

The model keeps, for each order ``m`` in :data:`DEFAULT_ORDERS`, a compact
count table mapping *hashed* length-``m`` contexts to observed next-token
distributions.  Tables are columnar numpy arrays (sorted context hash,
CSR offsets, next-token ids, counts), so memory is ~16 bytes per distinct
(context, next-token) pair and merging two tables (continual pre-training)
is a vectorized concatenate + re-aggregate.

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
  process lives: ``succ_row`` / ``succ_out`` (two ints per row: where a
  single-continuation row leads, and the outgoing token that was
  computed under) and ``_picks`` (cumulative probabilities of sampled
  rows per temperature, at most :data:`_PICKS_MAX` entries).

:meth:`NGramLM.distribution` is the stateless query over the views;
:class:`repro.llm.sampler.Sampler` is the stateful one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
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


def _hash_contexts(tokens: np.ndarray, order: int) -> np.ndarray:
    """Rolling polynomial hash of every length-``order`` window.

    Returns an array ``h`` where ``h[i]`` hashes ``tokens[i-order:i]`` for
    ``i in [order, len(tokens)]`` — i.e. the context *ending just before*
    position ``i``; the array is aligned so entry ``j`` corresponds to
    next-token position ``j + order``.
    """
    n = len(tokens)
    if order == 0:
        return np.full(n, _HASH_SEED, dtype=np.uint64)
    if n < order:
        return np.empty(0, dtype=np.uint64)
    acc = np.full(n - order + 1, _HASH_SEED, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(order):
            acc = acc * _HASH_MULT + tokens[j:n - order + 1 + j].astype(np.uint64)
    # acc[i] hashes tokens[i : i+order]; contexts for next positions
    # order..n are acc[0 : n-order+1].
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
        if len(ctx_hashes) == 0:
            return cls.empty()
        order_idx = np.lexsort((next_tokens, ctx_hashes))
        ctx = ctx_hashes[order_idx]
        nxt = next_tokens[order_idx].astype(np.int32)
        wts = weights[order_idx].astype(np.float64)
        boundary = np.empty(len(ctx), dtype=bool)
        boundary[0] = True
        boundary[1:] = (ctx[1:] != ctx[:-1]) | (nxt[1:] != nxt[:-1])
        starts = np.flatnonzero(boundary)
        agg_counts = np.add.reduceat(wts, starts)
        agg_ctx = ctx[starts]
        agg_next = nxt[starts]
        key_boundary = np.empty(len(agg_ctx), dtype=bool)
        key_boundary[0] = True
        key_boundary[1:] = agg_ctx[1:] != agg_ctx[:-1]
        key_starts = np.flatnonzero(key_boundary)
        keys = agg_ctx[key_starts]
        offsets = np.empty(len(keys) + 1, dtype=np.int64)
        offsets[:-1] = key_starts
        offsets[-1] = len(agg_ctx)
        return cls(
            keys=keys, offsets=offsets, next_tokens=agg_next, counts=agg_counts
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
        n-grams never cross file boundaries)."""
        counts = cls(orders=orders)
        per_order_ctx: Dict[int, List[np.ndarray]] = {o: [] for o in orders}
        per_order_next: Dict[int, List[np.ndarray]] = {o: [] for o in orders}
        total = 0
        for sequence in token_sequences:
            tokens = np.asarray(sequence, dtype=np.int64)
            total += len(tokens)
            for order in orders:
                if len(tokens) <= order:
                    continue
                hashes = _hash_contexts(tokens, order)
                per_order_ctx[order].append(hashes[: len(tokens) - order])
                per_order_next[order].append(tokens[order:].astype(np.int32))
        for order in orders:
            if not per_order_ctx[order]:
                continue
            ctx = np.concatenate(per_order_ctx[order])
            nxt = np.concatenate(per_order_next[order])
            counts.tables[order] = _OrderTable.from_pairs(
                ctx, nxt, np.full(len(ctx), weight, dtype=np.float64)
            )
        counts.tokens_trained = float(total) * weight
        return counts

    def merged_with(self, other: "NGramCounts", weight: float = 1.0) -> "NGramCounts":
        """New counts = self + weight x other (continual pre-training)."""
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
        "table", "order", "keys", "rows", "single", "succ_row", "succ_out",
        "_out_mult", "_shift", "_picks",
    )

    def __init__(self, table: _OrderTable, order: int, min_evidence: float) -> None:
        self.table = table
        self.order = order
        self.keys: List[int] = table.keys.tolist()
        self.rows: Dict[int, int] = dict(zip(self.keys, range(len(self.keys))))
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
        # Links are only ever set on single-continuation rows, and only
        # in the view the sampler carries its state in (the top order's);
        # -1 is no token, so an unset link never matches.
        self.succ_row: List[int] = [-1] * len(self.keys)
        self.succ_out: List[int] = [-1] * len(self.keys)
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
