"""Lane-parallel numpy execution backend: many stimulus streams per visit.

:func:`batch_design` lowers an elaborated design into a
:class:`BatchDesign` — the third cycle-identical backend after the
interpreter and the scalar compiled backend:

* **lane-parallel state** — every signal slot holds a numpy ``int64``
  array of shape ``[n_lanes]`` (memories ``[depth, n_lanes]``), so one
  node visit evaluates every lane at once;
* **vectorized closures** — the expression/statement emitters of
  :class:`repro.sim.compile._Compiler` are re-emitted over vectorized
  integer ops: masking, two's-complement sign correction for signed
  compares/divides/shifts, ``np.where`` for selects, and per-lane
  predicate masks for control flow (``if``/``case``/``for`` execute every
  reachable branch, with writes merged only into active lanes);
* **full-level sweeps** — the PR-3 levelized schedule is reused, but a
  settle runs the whole topologically sorted schedule once instead of
  chasing a dirty cone: with many lanes a single vectorized sweep beats
  per-lane cone chasing.

There is one lane representation: one ``int64`` per lane holding a
nonnegative value in bits 0..62, masked arithmetic.  The backend is
intentionally narrower than the scalar one, with a *scalar-fallback
contract* mirroring the fixpoint-fallback contract of the compiled
backend:

* designs whose combinational region cannot be levelized, or that carry
  any signal, memory or expression wider than 63 bits, raise
  :class:`UnbatchableDesign` at lowering — callers (the ``Simulator``
  facade with ``backend="batch"``, :class:`~repro.sim.testbench.BatchTestbench`
  users, the vereval fast path) then fall back to the scalar backends,
  which are exact at any width and preserve ``SimulationError``
  classification per lane (python-int lanes for wide designs lost to
  that fallback at every lane count callers use and were deleted:
  ``BENCH_24.json`` → ``deleted_ab``);
* the rare runtime construct a lane cannot represent (a dynamic field
  write landing above bit 62) raises :class:`BatchDivergence` (a
  ``SimulationError``), again routing callers to the scalar replay.

Lane-for-lane identity with the scalar compiled backend — values *and*
error classification — is enforced by ``tests/test_sim_batch.py`` across
every ``vgen`` family, the vereval problem set, and hypothesis draws.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import SimulationError
from repro.verilog import ast
from repro.sim import eval as _ev
from repro.sim.elaborate import Design
from repro.sim.compile import (
    CompiledDesign,
    UncompilableDesign,
    _Compiler,
    compile_design,
)
from repro.sim.simulator import _MAX_LOOP_ITERS, Simulator

__all__ = [
    "BatchDesign",
    "BatchDivergence",
    "BatchSimulator",
    "LockstepGroup",
    "UnbatchableDesign",
    "batch_design",
    "build_lockstep_group",
    "is_stateless_comb",
    "lockstep_shape_digest",
]

#: int64 lanes hold nonnegative two's-complement values in bits 0..62;
#: any wider signal (or expression) cannot be represented per lane.
_MAX_LANE_WIDTH = 63

_I64 = np.int64


class UnbatchableDesign(UncompilableDesign):
    """The design cannot be lowered to int64 lane-parallel form.

    Subclasses :class:`~repro.sim.compile.UncompilableDesign` so every
    facade that already falls back to a scalar backend on uncompilable
    designs handles unbatchable ones the same way.
    """


class BatchDivergence(SimulationError):
    """A lane hit a construct int64 lanes cannot represent at runtime.

    Raised (for example) when a dynamic bit/part write lands above bit 62
    — the scalar backends keep such out-of-range bits in raw state, which
    an int64 lane cannot.  Callers replay the affected episode on the
    scalar backend, so verdicts stay lane-for-lane identical.
    """


def _parity_folds(width: int) -> Tuple[int, ...]:
    """Descending power-of-two xor-fold shifts covering ``width`` bits."""
    shifts: List[int] = []
    shift = 1
    while shift < max(width, 2):
        shifts.append(shift)
        shift <<= 1
    shifts.reverse()
    return tuple(shifts)


def _parity(v, shifts: Tuple[int, ...] = (32, 16, 8, 4, 2, 1)):
    """Per-lane XOR reduction (population-count parity) via xor-folding."""
    for shift in shifts:
        v = v ^ (v >> shift)
    return v & 1


def _bit_length_folds(width: int) -> Tuple[int, ...]:
    """Descending power-of-two probe shifts for values below 2**width."""
    shift = 1
    while (2 * shift - 1) < max(width - 1, 1):
        shift <<= 1
    shifts: List[int] = []
    while shift:
        shifts.append(shift)
        shift >>= 1
    return tuple(shifts)


def _bit_length(v, shifts: Tuple[int, ...] = (32, 16, 8, 4, 2, 1)):
    """Vectorized ``int.bit_length`` for nonnegative lane values."""
    out = np.zeros_like(v)
    for shift in shifts:
        big = v >= (1 << shift)
        out = out + np.where(big, shift, 0)
        v = np.where(big, v >> shift, v)
    return out + (v > 0)


def _signed(v, width: int):
    """Two's-complement reinterpretation at ``width`` (vector-safe)."""
    sign_bit = 1 << (width - 1)
    return (v ^ sign_bit) - sign_bit


class BatchDesign(CompiledDesign):
    """Compile-once lane-parallel execution image of one design."""

    __slots__ = ("n_lanes", "lane_ix", "ones", "sched_nodes", "nodes_pred",
                 "comb_latched")

    def __init__(self) -> None:
        super().__init__()
        self.n_lanes = 1
        self.lane_ix: np.ndarray = np.arange(1)
        self.ones: np.ndarray = np.ones(1, dtype=bool)
        #: combinational nodes pre-ordered by the levelized schedule
        self.sched_nodes: Tuple = ()
        #: per node (declaration order, like ``nodes``): a predicated
        #: runner ``run(st, mems, pred)`` writing only lanes in ``pred``
        #: — the building block of lockstep groups, where one node
        #: position carries different bodies for different lanes
        self.nodes_pred: Tuple = ()
        #: True when some comb block writes a signal only conditionally
        #: (a combinational latch): the signal then holds state between
        #: settles, so outputs are not a pure function of inputs
        self.comb_latched = False


def batch_design(design: Design, n_lanes: int) -> BatchDesign:
    """Lower ``design`` for ``n_lanes`` lanes, caching per lane count.

    Raises :class:`UnbatchableDesign` when the design cannot be lane
    lowered (not levelizable, or wider than the 63-bit int64 lane
    budget — the scalar-fallback signal); the negative outcome is cached
    too, so repeated probes stay cheap.  The cache is dropped on pickling
    (``Design.__getstate__``), like the scalar compile cache.
    ``n_lanes`` must be at least 1; asking for zero or negative lanes is
    a caller bug surfaced as ``ValueError`` instead of an empty-array
    failure deep inside numpy.
    """
    if n_lanes < 1:
        raise ValueError(f"n_lanes must be >= 1, got {n_lanes}")
    cache = getattr(design, "_batch", None)
    if cache is None:
        cache = {}
        design._batch = cache
    cached = cache.get(n_lanes, False)
    if cached is not False:
        if cached is None:
            raise UnbatchableDesign("design is not lane-parallelizable")
        return cached
    try:
        bd = _BatchCompiler(design, n_lanes).compile()
    except UncompilableDesign:
        cache[n_lanes] = None
        raise
    # the perf ledger's layer walk reads lowerings under this name
    obs.count("batch.rep.int64")
    cache[n_lanes] = bd
    return bd


def is_stateless_comb(bd: BatchDesign) -> bool:
    """No sequential blocks, memory writes, or combinational latches.

    Such a design's outputs after settle are a pure function of its
    current input values, so independent stimulus vectors can ride one
    lane each — the basis of the combinational all-vectors fast path in
    :mod:`repro.vereval.harness`.  A comb block that writes a signal
    only on some paths (``always @* if (en) y = a;``) is a latch: the
    signal carries state between settles, so such designs are excluded
    even though they levelize.
    """
    if bd.seq or bd.comb_latched:
        return False
    return all(ps < bd.n_signals for ps in bd.writers)


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------


class _BatchCompiler(_Compiler):
    """Re-emits the scalar compiler's lowering over numpy lane arrays.

    Sizing, signedness, constant folding, read/write-set analysis, and
    the levelized scheduler are inherited from
    :class:`repro.sim.compile._Compiler`; only closure emission differs.
    Expression closures keep the scalar signature
    ``(st, mems, o, mo) -> int64 array`` (constants stay python ints and
    broadcast); statement closures gain a lane-predicate argument:
    ``(st, mems, o, mo, nba, pred)``.
    """

    def __init__(self, design: Design, n_lanes: int) -> None:
        super().__init__(design)
        self.n_lanes = n_lanes
        self.lane_ix = np.arange(n_lanes)
        self.ones = np.ones(n_lanes, dtype=bool)
        self._latched = False
        #: predicated comb-node runners, appended in node build order
        self._pred_nodes: List = []
        for width in self.widths:
            self._check_width(width)
        for width in self.mem_widths:
            self._check_width(width)

    def _check_width(self, width: int) -> int:
        if width > _MAX_LANE_WIDTH:
            raise UnbatchableDesign(
                f"width {width} exceeds the {_MAX_LANE_WIDTH}-bit int64 "
                "lane budget"
            )
        return width

    def _new_image(self) -> BatchDesign:
        return BatchDesign()

    def compile(self) -> BatchDesign:
        bd = super().compile()
        if not bd.levelized:
            raise UnbatchableDesign(
                "combinational region is not levelizable (scalar fixpoint "
                "fallback applies)"
            )
        bd.n_lanes = self.n_lanes
        bd.lane_ix = self.lane_ix
        bd.ones = self.ones
        bd.sched_nodes = tuple(bd.nodes[i] for i in bd.topo)
        bd.nodes_pred = tuple(self._pred_nodes)
        bd.comb_latched = self._latched
        return bd

    def _lvalue_width(self, target: ast.Expr) -> int:
        return self._check_width(super()._lvalue_width(target))

    # -- expression emission -------------------------------------------------

    def _lanes_of(self, value):
        """Force a closure result to a full ``[n_lanes]`` int64 array."""
        if isinstance(value, np.ndarray) and value.shape == (self.n_lanes,):
            return value
        arr = np.empty(self.n_lanes, dtype=_I64)
        arr[:] = value
        return arr

    def _compile_operand(self, expr: ast.Expr, width: int, ov: bool):
        own = self._self_width(expr)
        fn = self._compile_eval(expr, max(own, width), ov)
        if width <= own:
            return fn
        ext_mask = (1 << width) - 1
        if self._is_signed(expr):
            own_mask = (1 << own) - 1
            sign_bit = 1 << (own - 1)

            def signed_ext(st, mems, o, mo, _f=fn):
                v = _f(st, mems, o, mo) & own_mask
                return ((v ^ sign_bit) - sign_bit) & ext_mask

            return signed_ext
        return lambda st, mems, o, mo, _f=fn: _f(st, mems, o, mo) & ext_mask

    def _emit_read_raw(self, name: str, ov: bool):
        """Overlay-aware unmasked read of a whole signal."""
        slot = self._slot(name)
        if ov:
            def read(st, mems, o, mo, _s=slot):
                v = o.get(_s)
                return st[_s] if v is None else v

            return read
        return lambda st, mems, o, mo, _s=slot: st[_s]

    def _compile_eval(self, expr: ast.Expr, width: int, ov: bool):
        self._check_width(width)
        if self._is_static(expr):
            try:
                value = _ev._eval(expr, self._static, width)
            except SimulationError as exc:
                raise UncompilableDesign(str(exc)) from None
            if value.bit_length() > _MAX_LANE_WIDTH:
                raise UnbatchableDesign(
                    f"constant {value} exceeds the int64 lane budget"
                )
            # a python int: broadcasts over the lanes
            return lambda st, mems, o, mo, _v=value: _v

        if isinstance(expr, ast.Identifier):
            name = expr.name
            if name in self.mem_of:
                raise UncompilableDesign(
                    f"memory {name!r} used without an index"
                )
            raw = self._emit_read_raw(name, ov)
            m = self.masks_for(name)
            return lambda st, mems, o, mo, _f=raw, _m=m: _f(st, mems, o, mo) & _m

        if isinstance(expr, ast.Unary):
            return self._compile_unary(expr, width, ov)
        if isinstance(expr, ast.Binary):
            return self._compile_binary(expr, width, ov)
        if isinstance(expr, ast.Ternary):
            cond = self._compile_expr(expr.cond, 0, ov)
            then = self._compile_operand(expr.then, width, ov)
            other = self._compile_operand(expr.other, width, ov)
            # Both arms evaluate (expression evaluation is effect-free and
            # error-free by construction); np.where selects per lane.
            return lambda st, mems, o, mo: np.where(
                np.not_equal(cond(st, mems, o, mo), 0),
                then(st, mems, o, mo),
                other(st, mems, o, mo),
            )
        if isinstance(expr, ast.Concat):
            parts = []
            offset = 0
            for part in reversed(expr.parts):
                pw = self._self_width(part)
                parts.append((self._compile_eval(part, pw, ov), offset))
                offset += pw
            self._check_width(offset)
            parts.reverse()
            m = (1 << max(width, 1)) - 1

            def concat(st, mems, o, mo, _parts=tuple(parts), _m=m):
                out = 0
                for fn, off in _parts:
                    out = out | (fn(st, mems, o, mo) << off)
                return out & _m

            return concat
        if isinstance(expr, ast.Repeat):
            times = self._static_int(expr.count)
            inner_width = self._self_width(expr.inner)
            self._check_width(inner_width * max(times, 1))
            inner = self._compile_eval(expr.inner, inner_width, ov)
            factor = 0
            for i in range(times):
                factor |= 1 << (inner_width * i)
            m = (1 << max(width, 1)) - 1
            return lambda st, mems, o, mo: (inner(st, mems, o, mo) * factor) & m
        if isinstance(expr, ast.Index):
            return self._compile_index(expr, ov)
        if isinstance(expr, ast.PartSelect):
            name = self._base_name(expr.base)
            msb = self._static_int(expr.msb)
            lsb = self._static_int(expr.lsb)
            if msb < lsb:
                msb, lsb = lsb, msb
            self._check_width(msb - lsb + 1)
            sel_mask = (1 << (msb - lsb + 1)) - 1
            # Lane values are < 2**63, so shifts past 62 read as 0 either
            # way; the clamp only keeps numpy's shift count in range.
            shift = min(lsb, _MAX_LANE_WIDTH)
            raw = self._emit_read_raw(name, ov)
            return lambda st, mems, o, mo: (
                raw(st, mems, o, mo) >> shift
            ) & sel_mask
        if isinstance(expr, ast.IndexedPartSelect):
            name = self._base_name(expr.base)
            start = self._compile_expr(expr.start, 0, ov)
            sel_width = self._static_int(expr.width)
            self._check_width(sel_width)
            sel_mask = (1 << sel_width) - 1
            ascending = expr.ascending
            raw = self._emit_read_raw(name, ov)
            cap = _MAX_LANE_WIDTH

            def indexed(st, mems, o, mo):
                lo = start(st, mems, o, mo)
                if not ascending:
                    lo = lo - sel_width + 1
                lo = np.maximum(lo, 0)
                return np.right_shift(
                    raw(st, mems, o, mo), np.minimum(lo, cap)
                ) & sel_mask

            return indexed
        if isinstance(expr, ast.SystemCall):
            return self._compile_system_call(expr, width, ov)
        raise UncompilableDesign(f"cannot compile {type(expr).__name__}")

    def _compile_unary(self, expr: ast.Unary, width: int, ov: bool):
        op = expr.op
        if op in ("&", "~&", "|", "~|", "^", "~^"):
            operand_width = self._self_width(expr.operand)
            self._check_width(operand_width)
            fn = self._compile_eval(expr.operand, operand_width, ov)
            invert = 1 if op.startswith("~") else 0
            if op in ("&", "~&"):
                full = (1 << operand_width) - 1
                return lambda st, mems, o, mo: np.equal(
                    fn(st, mems, o, mo), full
                ).astype(_I64) ^ invert
            if op in ("|", "~|"):
                return lambda st, mems, o, mo: np.not_equal(
                    fn(st, mems, o, mo), 0
                ).astype(_I64) ^ invert
            folds = _parity_folds(operand_width)
            return lambda st, mems, o, mo: _parity(
                fn(st, mems, o, mo), folds
            ) ^ invert
        if op == "!":
            fn = self._compile_expr(expr.operand, 0, ov)
            return lambda st, mems, o, mo: np.equal(
                fn(st, mems, o, mo), 0
            ).astype(_I64)
        fn = self._compile_operand(expr.operand, width, ov)
        m = (1 << width) - 1 if width > 0 else 0
        if op == "~":
            return lambda st, mems, o, mo: ~fn(st, mems, o, mo) & m
        if op == "-":
            return lambda st, mems, o, mo: -fn(st, mems, o, mo) & m
        if op == "+":
            return fn
        raise UncompilableDesign(f"unsupported unary operator {op!r}")

    def _compile_binary(self, expr: ast.Binary, width: int, ov: bool):
        op = expr.op
        if op in ("&&", "||"):
            lhs = self._compile_expr(expr.lhs, 0, ov)
            rhs = self._compile_expr(expr.rhs, 0, ov)
            if op == "&&":
                return lambda st, mems, o, mo: np.logical_and(
                    np.not_equal(lhs(st, mems, o, mo), 0),
                    np.not_equal(rhs(st, mems, o, mo), 0),
                ).astype(_I64)
            return lambda st, mems, o, mo: np.logical_or(
                np.not_equal(lhs(st, mems, o, mo), 0),
                np.not_equal(rhs(st, mems, o, mo), 0),
            ).astype(_I64)
        if op in ("==", "!=", "===", "!==", "<", "<=", ">", ">="):
            cmp_width = max(
                self._self_width(expr.lhs), self._self_width(expr.rhs)
            )
            self._check_width(cmp_width)
            signed = self._is_signed(expr.lhs) and self._is_signed(expr.rhs)
            lhs = self._compile_operand(expr.lhs, cmp_width, ov)
            rhs = self._compile_operand(expr.rhs, cmp_width, ov)
            ufunc = {
                "==": np.equal, "===": np.equal,
                "!=": np.not_equal, "!==": np.not_equal,
                "<": np.less, "<=": np.less_equal,
                ">": np.greater, ">=": np.greater_equal,
            }[op]
            if signed:
                def compare(st, mems, o, mo):
                    a = _signed(lhs(st, mems, o, mo), cmp_width)
                    b = _signed(rhs(st, mems, o, mo), cmp_width)
                    return ufunc(a, b).astype(_I64)
            else:
                def compare(st, mems, o, mo):
                    return ufunc(
                        lhs(st, mems, o, mo), rhs(st, mems, o, mo)
                    ).astype(_I64)
            return compare
        if op in ("<<", ">>", "<<<", ">>>"):
            lhs = self._compile_operand(expr.lhs, width, ov)
            amount_fn = self._compile_expr(expr.rhs, 0, ov)
            m = (1 << width) - 1 if width > 0 else 0
            # Lane values are nonnegative and < 2**63, so clamping the
            # shift count to 63 preserves the scalar backend's semantics
            # (a shift of >= width bits masks/reads to zero either way)
            # and keeps numpy's shift count in range.
            cap = _MAX_LANE_WIDTH
            if op in ("<<", "<<<"):
                def shl(st, mems, o, mo):
                    amount = np.minimum(amount_fn(st, mems, o, mo), cap)
                    return np.left_shift(lhs(st, mems, o, mo), amount) & m

                return shl
            if op == ">>>" and self._is_signed(expr.lhs):
                def sra(st, mems, o, mo):
                    amount = np.minimum(amount_fn(st, mems, o, mo), cap)
                    v = _signed(lhs(st, mems, o, mo) & m, width)
                    return np.right_shift(v, amount) & m

                return sra

            def shr(st, mems, o, mo):
                amount = np.minimum(amount_fn(st, mems, o, mo), cap)
                return np.right_shift(lhs(st, mems, o, mo), amount)

            return shr
        if op == "**":
            base = self._compile_operand(expr.lhs, width, ov)
            exp_fn = self._compile_expr(expr.rhs, 0, ov)
            m = (1 << width) - 1 if width > 0 else 0

            def power(st, mems, o, mo):
                exponent = np.minimum(exp_fn(st, mems, o, mo), 64)
                # int64 power wraps mod 2**64, which masking makes exact.
                return np.power(base(st, mems, o, mo), exponent) & m

            return power

        signed = self._is_signed(expr.lhs) and self._is_signed(expr.rhs)
        lhs = self._compile_operand(expr.lhs, width, ov)
        rhs = self._compile_operand(expr.rhs, width, ov)
        m = (1 << width) - 1 if width > 0 else 0
        if op == "+":
            return lambda st, mems, o, mo: (
                lhs(st, mems, o, mo) + rhs(st, mems, o, mo)
            ) & m
        if op == "-":
            return lambda st, mems, o, mo: (
                lhs(st, mems, o, mo) - rhs(st, mems, o, mo)
            ) & m
        if op == "*":
            return lambda st, mems, o, mo: (
                lhs(st, mems, o, mo) * rhs(st, mems, o, mo)
            ) & m
        if op in ("/", "%"):
            want_div = op == "/"
            if signed:
                def signed_divmod(st, mems, o, mo):
                    a = _signed(lhs(st, mems, o, mo), width)
                    b = _signed(rhs(st, mems, o, mo), width)
                    safe_b = np.where(np.equal(b, 0), 1, b)
                    quotient = np.abs(a) // np.abs(safe_b)
                    quotient = np.where(
                        np.not_equal(a < 0, b < 0), -quotient, quotient
                    )
                    result = quotient if want_div else a - b * quotient
                    return np.where(np.equal(b, 0), 0, result) & m

                return signed_divmod

            def divmod_fn(st, mems, o, mo):
                b = rhs(st, mems, o, mo)
                safe_b = np.where(np.equal(b, 0), 1, b)
                a = lhs(st, mems, o, mo)
                result = a // safe_b if want_div else a % safe_b
                return np.where(np.equal(b, 0), 0, result) & m

            return divmod_fn
        if op == "&":
            return lambda st, mems, o, mo: (
                lhs(st, mems, o, mo) & rhs(st, mems, o, mo)
            )
        if op == "|":
            return lambda st, mems, o, mo: (
                lhs(st, mems, o, mo) | rhs(st, mems, o, mo)
            )
        if op == "^":
            return lambda st, mems, o, mo: (
                lhs(st, mems, o, mo) ^ rhs(st, mems, o, mo)
            )
        if op in ("^~", "~^"):
            return lambda st, mems, o, mo: ~(
                lhs(st, mems, o, mo) ^ rhs(st, mems, o, mo)
            ) & m
        raise UncompilableDesign(f"unsupported binary operator {op!r}")

    def _compile_index(self, expr: ast.Index, ov: bool):
        name = self._base_name(expr.base)
        index_fn = self._compile_expr(expr.index, 0, ov)
        mem_slot = self.mem_of.get(name)
        if mem_slot is not None:
            base = self.mem_bases[mem_slot]
            depth = self.mem_depths[mem_slot]
            lane_ix = self.lane_ix
            use_overlay = ov
            # When the index expression's own width bounds it inside the
            # memory, the range guards are statically dead: read with one
            # fancy index instead of clip + compare + select per visit.
            index_width = self._self_width(expr.index)
            always_in_range = (
                base == 0
                and index_width <= _MAX_LANE_WIDTH
                and (1 << index_width) - 1 < depth
            )

            if always_in_range:
                def read_mem_direct(st, mems, o, mo, _ms=mem_slot):
                    column = mo.get(_ms) if use_overlay else None
                    if column is None:
                        column = mems[_ms]
                    idx = index_fn(st, mems, o, mo)
                    if isinstance(idx, (int, np.integer)):
                        return column[idx].copy()  # rows may mutate later
                    return column[idx, lane_ix]

                return read_mem_direct

            def read_mem(st, mems, o, mo, _ms=mem_slot):
                column = mo.get(_ms) if use_overlay else None
                if column is None:
                    column = mems[_ms]
                idx = index_fn(st, mems, o, mo) - base
                if isinstance(idx, (int, np.integer)):
                    if idx < 0 or idx >= depth:
                        return 0  # out-of-range read: two-state X
                    return column[idx].copy()  # copy: rows may mutate later
                safe = np.clip(idx, 0, depth - 1)
                return np.where(
                    (idx >= 0) & (idx < depth), column[safe, lane_ix], 0
                )

            return read_mem
        raw = self._emit_read_raw(name, ov)
        sig_width = self.widths[self._slot(name)]
        cap = _MAX_LANE_WIDTH

        def read_bit(st, mems, o, mo):
            idx = index_fn(st, mems, o, mo)
            v = np.right_shift(
                raw(st, mems, o, mo), np.minimum(idx, cap)
            ) & 1
            return np.where(idx < sig_width, v, 0)

        return read_bit

    def _compile_system_call(self, expr: ast.SystemCall, width: int, ov: bool):
        name = expr.name
        if name in ("$signed", "$unsigned"):
            if len(expr.args) != 1:
                raise UncompilableDesign(f"{name} takes exactly one argument")
            return self._compile_operand(expr.args[0], width, ov)
        if name == "$clog2":
            if len(expr.args) != 1:
                raise UncompilableDesign("$clog2 takes exactly one argument")
            arg = self._compile_expr(expr.args[0], 0, ov)
            folds = _bit_length_folds(
                max(self._self_width(expr.args[0]), 1)
            )

            def clog2(st, mems, o, mo):
                value = arg(st, mems, o, mo)
                return np.where(
                    value <= 1, 0,
                    _bit_length(np.maximum(value - 1, 1), folds),
                )

            return clog2
        if name in ("$time", "$stime", "$realtime"):
            return lambda st, mems, o, mo: 0
        raise UncompilableDesign(f"unsupported system function {name!r}")

    # -- lvalue emission -----------------------------------------------------

    def _compile_proc_write(self, target: ast.Expr, blocking: bool):
        """Predicated procedural write:
        ``(st, mems, o, mo, nba, value, pred)``."""
        if isinstance(target, ast.Concat):
            widths = [self._lvalue_width(p) for p in target.parts]
            total = sum(widths)
            self._check_width(total)
            writers = []
            offset = total
            for part, part_width in zip(target.parts, widths):
                offset -= part_width
                part_mask = (1 << part_width) - 1
                writers.append(
                    (self._compile_proc_write(part, blocking), offset, part_mask)
                )

            def write_concat(st, mems, o, mo, nba, value, pred):
                for writer, off, pm in writers:
                    writer(st, mems, o, mo, nba, (value >> off) & pm, pred)

            return write_concat

        if isinstance(target, ast.Identifier):
            slot = self._slot(target.name)
            if target.name in self.mem_of:
                raise UncompilableDesign(
                    f"cannot assign whole memory {target.name!r}"
                )
            width = self.widths[slot]
            m = (1 << width) - 1
            if blocking:
                def write_full(st, mems, o, mo, nba, value, pred):
                    cur = o.get(slot)
                    if cur is None:
                        cur = st[slot]
                    o[slot] = np.where(pred, value & m, cur)

                return write_full

            def nba_full(st, mems, o, mo, nba, value, pred):
                nba.append((False, slot, 0, width, value, pred))

            return nba_full

        if isinstance(target, ast.Index):
            name = self._base_name(target.base)
            index_fn = self._compile_expr(target.index, 0, True)
            mem_slot = self.mem_of.get(name)
            if mem_slot is not None:
                base = self.mem_bases[mem_slot]
                depth = self.mem_depths[mem_slot]
                mem_mask = (1 << self.mem_widths[mem_slot]) - 1
                mem_width = self.mem_widths[mem_slot]
                lane_ix = self.lane_ix
                if blocking:
                    def write_mem(st, mems, o, mo, nba, value, pred):
                        idx = index_fn(st, mems, o, mo) - base
                        column = mo.get(mem_slot)
                        if column is None:
                            column = mems[mem_slot].copy()
                            mo[mem_slot] = column
                        v = value & mem_mask
                        if isinstance(idx, (int, np.integer)):
                            if 0 <= idx < depth:
                                column[idx] = np.where(pred, v, column[idx])
                            return
                        sel = pred & (idx >= 0) & (idx < depth)
                        if sel.any():
                            vals = v[sel] if isinstance(v, np.ndarray) else v
                            column[idx[sel], lane_ix[sel]] = vals

                    return write_mem

                def nba_mem(st, mems, o, mo, nba, value, pred):
                    idx = index_fn(st, mems, o, mo) - base
                    nba.append(
                        (True, mem_slot, idx, mem_width, value & mem_mask, pred)
                    )

                return nba_mem
            slot = self._slot(name)
            sig_width = self.widths[slot]
            return self._emit_field_write(
                slot, sig_width, index_fn, 1, blocking, runtime_lo=True
            )

        if isinstance(target, ast.PartSelect):
            name = self._base_name(target.base)
            slot = self._slot(name)
            sig_width = self.widths[slot]
            msb = self._static_int(target.msb)
            lsb = self._static_int(target.lsb)
            if msb < lsb:
                msb, lsb = lsb, msb
            width = msb - lsb + 1
            return self._emit_field_write(
                slot, sig_width, lsb, width, blocking, runtime_lo=False
            )

        if isinstance(target, ast.IndexedPartSelect):
            name = self._base_name(target.base)
            slot = self._slot(name)
            sig_width = self.widths[slot]
            width = self._static_int(target.width)
            self._check_width(width)
            start_fn = self._compile_expr(target.start, 0, True)
            ascending = target.ascending

            def lo_fn(st, mems, o, mo):
                start = start_fn(st, mems, o, mo)
                lo = start if ascending else start - width + 1
                return np.maximum(lo, 0)

            return self._emit_field_write(
                slot, sig_width, lo_fn, width, blocking, runtime_lo=True
            )

        raise UncompilableDesign(
            f"invalid assignment target {type(target).__name__}"
        )

    def _emit_field_write(self, slot, sig_width, lo, width, blocking,
                          runtime_lo):
        value_mask = (1 << width) - 1
        sig_mask = (1 << sig_width) - 1
        # Highest bit a field write may touch: beyond it the scalar
        # backends keep out-of-range bits in raw state, which an int64
        # lane cannot — BatchDivergence routes the caller to them.
        limit = _MAX_LANE_WIDTH

        if not runtime_lo:
            if lo == 0 and width >= sig_width:
                if blocking:
                    def write_full(st, mems, o, mo, nba, value, pred):
                        cur = o.get(slot)
                        if cur is None:
                            cur = st[slot]
                        o[slot] = np.where(pred, value & sig_mask, cur)

                    return write_full

                def nba_full(st, mems, o, mo, nba, value, pred):
                    nba.append((False, slot, 0, width, value, pred))

                return nba_full
            if lo + width > limit:
                # The scalar backends keep such out-of-range bits in raw
                # state; bounded lanes cannot.
                raise UnbatchableDesign(
                    f"static field write at bits [{lo + width - 1}:{lo}] "
                    "exceeds the lane budget"
                )
            field_mask = value_mask << lo
            keep_mask = ~field_mask
            if blocking:
                def write_field(st, mems, o, mo, nba, value, pred):
                    cur = o.get(slot)
                    if cur is None:
                        cur = st[slot]
                    merged = (cur & keep_mask) | (
                        ((value & value_mask) << lo) & field_mask
                    )
                    o[slot] = np.where(pred, merged, cur)

                return write_field

            def nba_field(st, mems, o, mo, nba, value, pred):
                nba.append((False, slot, lo, width, value, pred))

            return nba_field

        lo_fn = lo

        def guard(at, pred):
            bad = pred & (at + width > limit)
            if width >= sig_width:
                bad = bad & np.not_equal(at, 0)
            if np.any(bad):
                raise BatchDivergence(
                    "dynamic field write above the lane budget "
                    f"(bit {limit}+)"
                )

        if blocking:
            def write_dynamic(st, mems, o, mo, nba, value, pred):
                at = lo_fn(st, mems, o, mo)
                guard(at, pred)
                cur = o.get(slot)
                if cur is None:
                    cur = st[slot]
                at_c = np.minimum(at, limit)
                field_mask = value_mask << at_c
                merged = (cur & ~field_mask) | (
                    ((value & value_mask) << at_c) & field_mask
                )
                if width >= sig_width:
                    merged = np.where(
                        np.equal(at, 0), value & sig_mask, merged
                    )
                o[slot] = np.where(pred, merged, cur)

            return write_dynamic

        def nba_dynamic(st, mems, o, mo, nba, value, pred):
            at = lo_fn(st, mems, o, mo)
            guard(at, pred)
            nba.append((False, slot, at, width, value, pred))

        return nba_dynamic

    def _compile_direct_write(self, target: ast.Expr):
        """Continuous-assign write over all lanes: ``(st, mems, value)``.

        No change detection: the full-level sweep makes it unnecessary.
        """
        if isinstance(target, ast.Concat):
            widths = [self._lvalue_width(p) for p in target.parts]
            total = sum(widths)
            self._check_width(total)
            writers = []
            offset = total
            for part, part_width in zip(target.parts, widths):
                offset -= part_width
                part_mask = (1 << part_width) - 1
                writers.append(
                    (self._compile_direct_write(part), offset, part_mask)
                )

            def write_concat(st, mems, value):
                for writer, off, pm in writers:
                    writer(st, mems, (value >> off) & pm)

            return write_concat

        if isinstance(target, ast.Identifier):
            if target.name in self.mem_of:
                raise UncompilableDesign(
                    f"cannot assign whole memory {target.name!r}"
                )
            slot = self._slot(target.name)
            m = (1 << self.widths[slot]) - 1
            lanes_of = self._lanes_of

            def write_full(st, mems, value):
                st[slot] = lanes_of(value & m)

            return write_full

        if isinstance(target, ast.Index):
            name = self._base_name(target.base)
            if name in self.mem_of:
                raise UncompilableDesign(
                    "continuous assignment to memory element is not supported"
                )
            slot = self._slot(name)
            sig_width = self.widths[slot]
            index_fn = self._compile_expr(target.index, 0, False)
            return self._emit_direct_field(slot, sig_width, index_fn, 1, True)

        if isinstance(target, ast.PartSelect):
            name = self._base_name(target.base)
            slot = self._slot(name)
            sig_width = self.widths[slot]
            msb = self._static_int(target.msb)
            lsb = self._static_int(target.lsb)
            if msb < lsb:
                msb, lsb = lsb, msb
            return self._emit_direct_field(
                slot, sig_width, lsb, msb - lsb + 1, False
            )

        if isinstance(target, ast.IndexedPartSelect):
            name = self._base_name(target.base)
            slot = self._slot(name)
            sig_width = self.widths[slot]
            width = self._static_int(target.width)
            self._check_width(width)
            start_fn = self._compile_expr(target.start, 0, False)
            ascending = target.ascending

            def lo_fn(st, mems, o, mo):
                start = start_fn(st, mems, o, mo)
                lo = start if ascending else start - width + 1
                return np.maximum(lo, 0)

            return self._emit_direct_field(slot, sig_width, lo_fn, width, True)

        raise UncompilableDesign(
            f"invalid assignment target {type(target).__name__}"
        )

    def _emit_direct_field(self, slot, sig_width, lo, width, runtime_lo):
        value_mask = (1 << width) - 1
        sig_mask = (1 << sig_width) - 1
        lanes_of = self._lanes_of
        limit = _MAX_LANE_WIDTH

        if not runtime_lo:
            if lo == 0 and width >= sig_width:
                def write_full(st, mems, value):
                    st[slot] = lanes_of(value & sig_mask)

                return write_full
            if lo + width > limit:
                raise UnbatchableDesign(
                    f"static field write at bits [{lo + width - 1}:{lo}] "
                    "exceeds the lane budget"
                )
            field_mask = value_mask << lo
            keep_mask = ~field_mask

            def write_field(st, mems, value):
                full = st[slot]
                st[slot] = (full & keep_mask) | (
                    ((value & value_mask) << lo) & field_mask
                )

            return write_field

        lo_fn = lo

        def write_dynamic(st, mems, value):
            at = lo_fn(st, mems, None, None)
            bad = at + width > limit
            if width >= sig_width:
                bad = bad & np.not_equal(at, 0)
            if np.any(bad):
                raise BatchDivergence(
                    "dynamic field write above the lane budget "
                    f"(bit {limit}+)"
                )
            full = st[slot]
            at_c = np.minimum(at, limit)
            field_mask = value_mask << at_c
            merged = (full & ~field_mask) | (
                ((value & value_mask) << at_c) & field_mask
            )
            if width >= sig_width:
                merged = np.where(np.equal(at, 0), value & sig_mask, merged)
            st[slot] = lanes_of(merged)

        return write_dynamic

    # -- statement emission --------------------------------------------------

    def _compile_stmt(self, stmt: ast.Stmt):
        if isinstance(stmt, ast.Block):
            compiled = [
                fn
                for fn in (self._compile_stmt(s) for s in stmt.stmts)
                if fn is not None
            ]
            if not compiled:
                return None
            if len(compiled) == 1:
                return compiled[0]
            steps = tuple(compiled)

            def block(st, mems, o, mo, nba, pred):
                for step in steps:
                    step(st, mems, o, mo, nba, pred)

            return block
        if isinstance(stmt, ast.Assign):
            lvalue_width = self._lvalue_width(stmt.target)
            value_fn = self._compile_expr(stmt.value, lvalue_width, True)
            writer = self._compile_proc_write(stmt.target, stmt.blocking)

            def assign(st, mems, o, mo, nba, pred):
                writer(st, mems, o, mo, nba, value_fn(st, mems, o, mo), pred)

            return assign
        if isinstance(stmt, ast.If):
            cond = self._compile_expr(stmt.cond, 0, True)
            then = self._compile_stmt(stmt.then)
            other = self._compile_stmt(stmt.other) if stmt.other else None

            def branch(st, mems, o, mo, nba, pred):
                taken = np.not_equal(cond(st, mems, o, mo), 0)
                if then is not None:
                    p = pred & taken
                    if p.any():
                        then(st, mems, o, mo, nba, p)
                if other is not None:
                    p = pred & ~taken
                    if p.any():
                        other(st, mems, o, mo, nba, p)

            return branch
        if isinstance(stmt, ast.Case):
            return self._compile_case(stmt)
        if isinstance(stmt, ast.For):
            init = self._compile_stmt(stmt.init)
            cond = self._compile_expr(stmt.cond, 0, True)
            step = self._compile_stmt(stmt.step)
            body = self._compile_stmt(stmt.body)

            def loop(st, mems, o, mo, nba, pred):
                if init is not None:
                    init(st, mems, o, mo, nba, pred)
                active = pred & np.not_equal(cond(st, mems, o, mo), 0)
                iterations = 0
                while active.any():
                    if body is not None:
                        body(st, mems, o, mo, nba, active)
                    if step is not None:
                        step(st, mems, o, mo, nba, active)
                    iterations += 1
                    if iterations > _MAX_LOOP_ITERS:
                        raise SimulationError(
                            f"for-loop exceeded {_MAX_LOOP_ITERS} iterations"
                        )
                    active = active & np.not_equal(
                        cond(st, mems, o, mo), 0
                    )

            return loop
        if isinstance(stmt, (ast.NullStmt, ast.SystemTaskCall)):
            return None
        raise UncompilableDesign(f"cannot compile {type(stmt).__name__}")

    def _compile_case(self, stmt: ast.Case):
        width = self._self_width(stmt.subject)
        for item in stmt.items:
            for label in item.labels:
                label_width = self._self_width(label)
                if label_width > width:
                    width = label_width
        self._check_width(width)
        subject_fn = self._compile_eval(stmt.subject, width, True)
        wildcard_kind = stmt.kind in ("casez", "casex")
        arms = []
        default_fn = None
        for item in stmt.items:
            body = self._compile_stmt(item.body)
            if item.is_default:
                default_fn = body  # last default wins, as in the interpreter
                continue
            for label in item.labels:
                wildcard = 0
                if wildcard_kind and isinstance(label, ast.Number):
                    wildcard = label.unknown_mask
                arms.append(
                    (self._compile_eval(label, width, True), ~wildcard, body)
                )
        arms_t = tuple(arms)

        def case(st, mems, o, mo, nba, pred):
            subject = subject_fn(st, mems, o, mo)
            remaining = pred
            for label_fn, care, body in arms_t:
                hit = remaining & np.equal(
                    subject & care, label_fn(st, mems, o, mo) & care
                )
                if hit.any():
                    if body is not None:
                        body(st, mems, o, mo, nba, hit)
                    remaining = remaining & ~hit
                    if not remaining.any():
                        return
            if default_fn is not None and remaining.any():
                default_fn(st, mems, o, mo, nba, remaining)

        return case

    # -- node assembly -------------------------------------------------------

    def _build_assign_node(self, assign):
        lvalue_width = self._lvalue_width(assign.target)
        value_fn = self._compile_expr(assign.value, lvalue_width, False)
        writer = self._compile_direct_write(assign.target)

        def run(st, mems):
            writer(st, mems, value_fn(st, mems, None, None))

        # Predicated variant for lockstep groups: the overlay-merging
        # procedural writer touches only lanes in ``pred``, then commits.
        pred_writer = self._compile_proc_write(assign.target, blocking=True)
        widths = self.widths
        lane_ix = self.lane_ix

        def run_pred(st, mems, pred):
            overlay: Dict[int, np.ndarray] = {}
            mem_overlay: Dict[int, np.ndarray] = {}
            pred_writer(
                st, mems, overlay, mem_overlay, None,
                value_fn(st, mems, None, None), pred,
            )
            _commit_lane_overlays(
                st, mems, overlay, mem_overlay, None, widths, lane_ix
            )

        self._pred_nodes.append(run_pred)
        reads = set()
        writes = set()
        self._expr_reads(assign.value, set(), reads)
        self._lvalue_effects(assign.target, True, set(), reads, writes)
        return run, reads, writes

    def _build_block_node(self, block):
        body = self._compile_stmt(block.body)
        if body is None:
            def run_empty(st, mems):
                return None

            def run_empty_pred(st, mems, pred):
                return None

            self._pred_nodes.append(run_empty_pred)
            return run_empty, set(), set()
        ones = self.ones
        widths = self.widths
        lane_ix = self.lane_ix

        def run_pred(st, mems, pred):
            overlay: Dict[int, np.ndarray] = {}
            mem_overlay: Dict[int, np.ndarray] = {}
            nba: List[tuple] = []
            body(st, mems, overlay, mem_overlay, nba, pred)
            _commit_lane_overlays(
                st, mems, overlay, mem_overlay, nba, widths, lane_ix
            )

        def run(st, mems):
            run_pred(st, mems, ones)

        self._pred_nodes.append(run_pred)
        reads = set()
        writes = set()
        # `written` ends as the names this block is *guaranteed* to fully
        # write on every execution; any other signal write is conditional
        # — a combinational latch, whose target carries state between
        # settles (nonblocking writes count as latched conservatively).
        written = set()
        self._stmt_effects(block.body, written, reads, writes)
        written_slots = {
            self.slot_of[name] for name in written if name in self.slot_of
        }
        if any(
            ps < self.n_signals and ps not in written_slots for ps in writes
        ):
            self._latched = True
        return run, reads, writes


def _commit_lane_overlays(st, mems, overlay, mem_overlay, nba, widths,
                          lane_ix) -> None:
    """Commit one blocking-overlay epoch (plus optional NBA list).

    The single definition of how overlays land in lane state — shared by
    node runners, sequential/initial execution, and lockstep variants,
    so commit semantics cannot silently diverge between them.
    """
    for slot, value in overlay.items():
        st[slot] = value
    for mem_slot, column in mem_overlay.items():
        mems[mem_slot] = column
    if nba:
        _commit_nba_lanes(st, mems, nba, widths, lane_ix)


def _commit_nba_lanes(st, mems, updates, widths, lane_ix) -> None:
    """Commit nonblocking updates lane-parallel, in append order.

    Updates are ``(is_mem, slot, lo, width, value, pred)``; ``lo`` and
    ``value`` may be per-lane arrays or python ints, and ``pred`` masks
    the lanes the write applies to.  Mirrors the scalar backend's
    ``_commit_nba`` update-for-update; the emission-time guards already
    rejected any field landing beyond the int64 budget the merge shift
    is clamped to.
    """
    for is_mem, slot, lo, width, value, pred in updates:
        if is_mem:
            column = mems[slot]
            depth = column.shape[0]
            if isinstance(lo, (int, np.integer)):
                if 0 <= lo < depth:
                    column[lo] = np.where(pred, value, column[lo])
                continue
            sel = pred & (lo >= 0) & (lo < depth)
            if sel.any():
                vals = value[sel] if isinstance(value, np.ndarray) else value
                column[lo[sel], lane_ix[sel]] = vals
            continue
        keep = st[slot]
        sig_width = widths[slot]
        sig_mask = (1 << sig_width) - 1
        if width >= sig_width and isinstance(lo, int) and lo == 0:
            # Whole-signal write (the common `reg <= expr` case): skip
            # the field-merge arithmetic entirely.
            st[slot] = np.where(pred, value & sig_mask, keep)
            continue
        value_mask = (1 << width) - 1
        at_c = np.minimum(lo, _MAX_LANE_WIDTH)
        field_mask = value_mask << at_c
        merged = (keep & ~field_mask) | (
            ((value & value_mask) << at_c) & field_mask
        )
        if width >= sig_width:
            merged = np.where(np.equal(lo, 0), value & sig_mask, merged)
        st[slot] = np.where(pred, merged, keep)


# ---------------------------------------------------------------------------
# Runtime
# ---------------------------------------------------------------------------


def _no_bit_moved(snapshot, current) -> bool:
    """True when no trigger bit differs in any lane: no edge can fire (the
    exit 3 of the 4 edge scans per clock cycle take)."""
    for before, after in zip(snapshot, current):
        if (before != after).any():
            return False
    return True


class BatchSimulator(Simulator):
    """Executes a :class:`BatchDesign` over ``n_lanes`` parallel lanes.

    With ``n_lanes=1`` (the default, and what the ``Simulator`` facade
    constructs for ``backend="batch"``) the scalar observable API —
    ``poke``/``poke_many``/``peek``/``state``/``mems`` — is drop-in
    compatible with the other backends (``peek`` returns ints).  With
    more lanes, pokes broadcast ints or take per-lane arrays, and
    ``peek_lanes`` exposes per-lane values; ``poke_many`` with array
    values is how wide sweeps route through the lanes.
    """

    def __init__(self, design: Design, max_settle_rounds: Optional[int] = None,
                 backend: Optional[str] = None, n_lanes: int = 1):
        bd = batch_design(design, n_lanes)
        self.design = design
        self.bdesign = bd
        self.n_lanes = n_lanes
        self.st: List[np.ndarray] = [
            np.zeros(n_lanes, dtype=_I64) for _ in range(bd.n_signals)
        ]
        self.mem_data: List[np.ndarray] = [
            np.zeros((depth, n_lanes), dtype=_I64) for depth in bd.mem_depths
        ]
        self._max_rounds = max_settle_rounds or (2 * bd.comb_count + 16)
        ones = bd.ones
        # Initial statements commit per statement, like the other backends.
        for body in bd.initial:
            overlay: Dict[int, np.ndarray] = {}
            mem_overlay: Dict[int, np.ndarray] = {}
            nba: List[tuple] = []
            body(self.st, self.mem_data, overlay, mem_overlay, nba, ones)
            _commit_lane_overlays(
                self.st, self.mem_data, overlay, mem_overlay, nba,
                bd.widths, bd.lane_ix,
            )
        self.settle()

    # -- state views ---------------------------------------------------------

    def _scalarize(self, array: np.ndarray):
        return int(array[0]) if self.n_lanes == 1 else array.copy()

    @property
    def state(self):
        """Name-keyed snapshot: ints for one lane, arrays otherwise."""
        return {
            name: self._scalarize(self.st[slot])
            for name, slot in self.bdesign.slot_of.items()
        }

    @property
    def mems(self):
        """Name-keyed memory snapshot (lists of ints for one lane)."""
        if self.n_lanes == 1:
            return {
                name: [int(v) for v in self.mem_data[ms][:, 0]]
                for name, ms in self.bdesign.mem_of.items()
            }
        return {
            name: self.mem_data[ms].copy()
            for name, ms in self.bdesign.mem_of.items()
        }

    def peek(self, name: str):
        try:
            slot = self.bdesign.slot_of[name]
        except KeyError:
            raise SimulationError(f"peek of unknown signal {name!r}") from None
        return self._scalarize(self.st[slot])

    def peek_lanes(self, name: str) -> np.ndarray:
        """Per-lane values of ``name`` as a fresh lane array."""
        try:
            slot = self.bdesign.slot_of[name]
        except KeyError:
            raise SimulationError(f"peek of unknown signal {name!r}") from None
        return self.st[slot].copy()

    def peek_mem(self, name: str, index: int):
        memory = self.design.memories[name]
        slot = index - memory.base
        if slot < 0 or slot >= memory.depth:
            raise SimulationError(
                f"memory index {index} out of range for {name!r}"
            )
        return self._scalarize(self.mem_data[self.bdesign.mem_of[name]][slot])

    # -- poke hooks ----------------------------------------------------------

    def _masked(self, slot: int, value):
        mask = self.bdesign.masks[slot]
        if isinstance(value, int):
            return value & mask  # python-int mask first: may exceed int64
        lanes = np.asarray(value, dtype=_I64)
        if lanes.ndim != 0 and lanes.shape != (self.n_lanes,):
            # Surface shape bugs here, with the lane contract named,
            # instead of as a broadcasting error deep inside numpy.
            raise ValueError(
                f"per-lane poke value has shape {lanes.shape}; expected a "
                f"scalar or shape ({self.n_lanes},) for {self.n_lanes} lanes"
            )
        return lanes & mask

    def _poke_pending(self, name: str, value) -> bool:
        slot = self.bdesign.slot_of.get(name)
        if slot is None:
            self.design.signal(name)  # raises the canonical error
        return bool(np.any(self.st[slot] != self._masked(slot, value)))

    def _poke_apply(self, name: str, value) -> None:
        slot = self.bdesign.slot_of[name]
        lanes = np.empty(self.n_lanes, dtype=_I64)
        lanes[:] = self._masked(slot, value)
        self.st[slot] = lanes

    def poke_lanes(self, name: str, values) -> None:
        """Per-lane poke (alias of :meth:`poke` with an array value)."""
        self.poke(name, values)

    def _trigger_bits(self) -> List[np.ndarray]:
        st = self.st
        return [st[s] & 1 for s in self.bdesign.trigger_slots]

    def _trigger_snapshot(self) -> List[np.ndarray]:
        return self._trigger_bits()

    # -- settle / edges ------------------------------------------------------

    def settle(self) -> None:
        """One full-level sweep of the levelized schedule (all lanes)."""
        st = self.st
        mems = self.mem_data
        for run in self.bdesign.sched_nodes:
            run(st, mems)

    def _fire_edges(self, snapshot: List[np.ndarray]) -> None:
        seq = self.bdesign.seq
        for _ in range(self._max_rounds):
            current = self._trigger_bits()
            if _no_bit_moved(snapshot, current):
                return
            fired = []
            for triggers, body in seq:
                lanes = None
                for want, ti in triggers:
                    edge = (snapshot[ti] != current[ti]) & (
                        current[ti] == want
                    )
                    lanes = edge if lanes is None else (lanes | edge)
                if lanes is not None and lanes.any():
                    fired.append((body, lanes))
            if not fired:
                return
            self._run_seq_blocks(fired)
            self.settle()
            snapshot = current
        raise SimulationError(
            "edge events failed to quiesce (oscillating clock loop?)"
        )

    def _run_seq_blocks(self, fired) -> None:
        bd = self.bdesign
        st = self.st
        mems = self.mem_data
        pending: List[tuple] = []
        for body, pred in fired:
            overlay: Dict[int, np.ndarray] = {}
            mem_overlay: Dict[int, np.ndarray] = {}
            body(st, mems, overlay, mem_overlay, pending, pred)
            # Blocking writes commit with the block; nonblocking updates
            # commit once, after every triggered block ran.
            _commit_lane_overlays(
                st, mems, overlay, mem_overlay, None, bd.widths, bd.lane_ix
            )
        if pending:
            _commit_nba_lanes(st, mems, pending, bd.widths, bd.lane_ix)


# ---------------------------------------------------------------------------
# Pinned remainder of the lane-per-candidate tier (deleted in PR 23, see
# docs/architecture.md §4).  Nothing in src/ calls these any more: the
# frozen ledger walk (benchmarks/perf/layers.py, spans
# sim.batch.shape_digest / sim.batch.lower) imports lockstep_shape_digest
# and build_lockstep_group, so they — with _lockstep_shape_digest,
# _comb_node_fingerprints, LockstepGroup and the Design._lockstep_digest
# memo — stay byte-for-byte until a [benchmark] PR drops those rows
# (one authorised edit since: PR 24 took the lane-representation line and
# the third batch_design argument out of build_lockstep_group).
# ---------------------------------------------------------------------------


def lockstep_shape_digest(design: Design) -> str:
    """Structural-compatibility key for lockstep candidate grouping.

    Two designs with equal digests share signal/memory tables (names,
    widths, signedness, directions), the same levelized schedule shape
    (node count, topological order, per-node read/write sets), the same
    sequential trigger structure, and the same initial-statement count —
    everything :func:`build_lockstep_group` needs to run them lane by
    lane under one schedule.  Node *bodies* are deliberately excluded:
    candidates that differ only in expressions (the typical near-miss
    completion) group together and diverge per lane at runtime.

    Raises :class:`~repro.sim.compile.UncompilableDesign` (or the
    narrower :class:`UnbatchableDesign`) when the design cannot carry a
    lane at all — not statically lowerable or not levelizable — which
    routes the candidate to the scalar backends under the usual fallback
    contract.  The digest (or the negative outcome) memoizes on the
    design object — it is a plain string derived from structure alone,
    so unlike the closure caches it survives pickling to pool workers.
    """
    cached = getattr(design, "_lockstep_digest", None)
    if cached is not None:
        if cached is False:
            raise UnbatchableDesign("design is not lane-parallelizable")
        return cached
    try:
        digest = _lockstep_shape_digest(design)
    except UnbatchableDesign:
        design._lockstep_digest = False
        raise
    design._lockstep_digest = digest
    return digest


def _lockstep_shape_digest(design: Design) -> str:
    cd = compile_design(design)
    if not cd.levelized:
        raise UnbatchableDesign(
            "combinational region is not levelizable (scalar fallback "
            "applies)"
        )
    key = (
        tuple(
            (name, sig.width, bool(sig.signed), sig.direction)
            for name, sig in design.signals.items()
        ),
        tuple(
            (name, memory.width, memory.depth, memory.base)
            for name, memory in design.memories.items()
        ),
        len(cd.nodes),
        tuple(cd.topo),
        tuple(sorted(cd.readers.items())),
        tuple(sorted(cd.writers.items())),
        cd.trigger_slots,
        tuple(tuple(triggers) for triggers, _ in cd.seq),
        len(cd.initial),
    )
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


def _comb_node_fingerprints(design: Design) -> List[str]:
    """Per-node AST fingerprints, aligned with ``CompiledDesign.nodes``.

    Nodes are assembled as all continuous assigns followed by all
    combinational blocks, in declaration order; the dataclass ``repr`` of
    the (elaborated, parameter-folded) AST identifies a body exactly, so
    equal fingerprints across candidates mean the compiled closures are
    interchangeable.
    """
    fps = [
        repr(("assign", assign.target, assign.value))
        for assign in design.comb_assigns
    ]
    fps.extend(repr(("block", block.body)) for block in design.comb_blocks)
    return fps


class LockstepGroup:
    """Execution plan for N structurally compatible candidate designs.

    Built by :func:`build_lockstep_group`; lane ``i`` carries
    ``designs[i]``.  Every per-node/per-block plan entry is a tuple of
    *variants* ``(lane_mask, runner...)`` with pairwise-disjoint masks
    covering all lanes — candidates sharing a body share one variant.
    """

    __slots__ = (
        "designs", "rep", "n_lanes", "comb_plan", "seq_plan",
        "initial_plan", "node_reads", "node_writes", "seq_writes",
    )

    def __init__(self) -> None:
        self.designs: List[Design] = []
        self.rep: Optional[BatchDesign] = None
        self.n_lanes = 0
        #: per node index: ((mask, plain_run, pred_run), ...)
        self.comb_plan: Tuple = ()
        #: per seq block: (triggers, ((mask, body), ...))
        self.seq_plan: Tuple = ()
        #: per initial statement: ((mask, body), ...)
        self.initial_plan: Tuple = ()
        self.node_reads: Tuple = ()
        self.node_writes: Tuple = ()
        #: per seq block: union of written pseudo-slots over all lanes
        self.seq_writes: Tuple = ()


def build_lockstep_group(designs: Sequence[Design]) -> LockstepGroup:
    """Lower N same-shape designs into one lane-per-candidate group.

    All designs must carry equal :func:`lockstep_shape_digest` values;
    violations (and any member the lane compiler cannot lower) raise
    :class:`UnbatchableDesign`, on which callers fall back to checking
    every member on the scalar backends.
    """
    designs = list(designs)
    n_lanes = len(designs)
    if n_lanes < 1:
        raise ValueError(f"a lockstep group needs >= 1 design, got {n_lanes}")
    # Full digest equality is the compatibility gate: it covers the
    # signal/memory tables (widths, signedness, directions), the node
    # read/write sets the dirty-skip settle relies on, and the trigger
    # structure — loose per-image checks would admit lookalikes (e.g. an
    # assign swapped for a latching block at the same schedule slot).
    digests = [lockstep_shape_digest(design) for design in designs]
    if len(set(digests)) > 1:
        raise UnbatchableDesign(
            "lockstep group members have mismatched schedule shapes"
        )
    node_fp_lists = [_comb_node_fingerprints(design) for design in designs]
    seq_fp_lists = [
        [repr((block.triggers, block.body)) for block in design.seq_blocks]
        for design in designs
    ]
    initial_fps = [repr(design.initial_stmts) for design in designs]
    # Candidates that are AST-identical after elaboration (whitespace or
    # comment variants — the duplicates source-level memoization cannot
    # see) share one compiled image: compile cost scales with distinct
    # structures, not with lanes.
    design_fps = [
        (
            repr(
                (
                    tuple(designs[lane].signals.items()),
                    tuple(designs[lane].memories.items()),
                )
            ),
            tuple(node_fp_lists[lane]),
            tuple(seq_fp_lists[lane]),
            initial_fps[lane],
        )
        for lane in range(n_lanes)
    ]
    shared: Dict[tuple, BatchDesign] = {}
    bds: List[BatchDesign] = []
    for lane, design in enumerate(designs):
        bd = shared.get(design_fps[lane])
        if bd is None:
            bd = batch_design(design, n_lanes)
            shared[design_fps[lane]] = bd
        bds.append(bd)
    rep = bds[0]
    n_nodes = len(rep.nodes)
    for bd in bds[1:]:
        if len(bd.nodes) != n_nodes or len(bd.initial) != len(rep.initial):
            raise UnbatchableDesign(
                "lockstep group members have mismatched schedule shapes"
            )

    group = LockstepGroup()
    group.designs = designs
    group.rep = rep
    group.n_lanes = n_lanes

    def variants(fingerprints, runners_of):
        """Dedup per-lane runners by fingerprint; first contributor wins."""
        by_fp: Dict[str, tuple] = {}
        order: List[str] = []
        for lane, fp in enumerate(fingerprints):
            entry = by_fp.get(fp)
            if entry is None:
                mask = np.zeros(n_lanes, dtype=bool)
                by_fp[fp] = (mask,) + tuple(runners_of(lane))
                order.append(fp)
                entry = by_fp[fp]
            entry[0][lane] = True
        return tuple(by_fp[fp] for fp in order)

    group.comb_plan = tuple(
        variants(
            [node_fp_lists[lane][i] for lane in range(n_lanes)],
            lambda lane, _i=i: (bds[lane].nodes[_i], bds[lane].nodes_pred[_i]),
        )
        for i in range(n_nodes)
    )
    group.seq_plan = tuple(
        (
            rep.seq[j][0],
            variants(
                [seq_fp_lists[lane][j] for lane in range(n_lanes)],
                lambda lane, _j=j: (bds[lane].seq[_j][1],),
            ),
        )
        for j in range(len(rep.seq))
    )
    # Initial bodies are fingerprinted wholesale: compiled statements do
    # not map 1:1 to AST statements (no-op statements compile away), so
    # per-statement alignment is only guaranteed between candidates whose
    # whole initial region matches.
    group.initial_plan = tuple(
        variants(
            initial_fps, lambda lane, _k=k: (bds[lane].initial[_k],)
        )
        for k in range(len(rep.initial))
    )

    reads: List[set] = [set() for _ in range(n_nodes)]
    writes: List[set] = [set() for _ in range(n_nodes)]
    for ps, nodes in rep.readers.items():
        for node in nodes:
            reads[node].add(ps)
    for ps, nodes in rep.writers.items():
        for node in nodes:
            writes[node].add(ps)
    group.node_reads = tuple(frozenset(r) for r in reads)
    group.node_writes = tuple(frozenset(w) for w in writes)

    seq_writes: List[set] = [set() for _ in range(len(rep.seq))]
    analysed: set = set()
    for lane, design in enumerate(designs):
        if design_fps[lane] in analysed:
            continue
        analysed.add(design_fps[lane])
        comp = _Compiler(design)
        for j, block in enumerate(design.seq_blocks):
            block_reads: set = set()
            block_writes: set = set()
            comp._stmt_effects(block.body, set(), block_reads, block_writes)
            seq_writes[j] |= block_writes
    group.seq_writes = tuple(frozenset(w) for w in seq_writes)
    return group
