"""Lane-parallel numpy evaluator for stateless combinational designs.

:func:`batch_design` lowers an elaborated design whose outputs are a
pure function of its current inputs into a :class:`BatchDesign`, and a
:class:`BatchSimulator` settles it once with one stimulus vector per
lane:

* **lane-parallel state** — every signal slot holds a numpy ``int64``
  array of shape ``[n_lanes]``, one nonnegative value in bits 0..62 per
  lane, so one node visit evaluates every lane at once;
* **vectorized closures** — the expression/statement emitters of
  :class:`repro.sim.compile._Compiler` are re-emitted over vectorized
  integer ops: masking, two's-complement sign correction for signed
  compares/divides/shifts, ``np.where`` for selects, and per-lane
  predicate masks for control flow (``if``/``case``/``for`` execute every
  reachable branch, with writes merged only into active lanes);
* **one full-level sweep** — a settle runs the levelized schedule once,
  in topological order.

Lanes are combinational.  A design that holds state of any kind — an
edge-triggered block, an ``initial`` statement, a memory, a
combinational latch, a nonblocking write — or that writes a bit-, part-
or indexed-part-select lvalue, or that carries anything wider than 63
bits raises :class:`UnbatchableDesign` at lowering (one that does not
levelize raises the scheduler's :class:`UncompilableDesign`, its base).
Sequential lanes, lane sweeps and the one-lane ``batch`` simulator
backend lost to the scalar replay at every size a caller used and were
deleted (``BENCH_25.json`` → ``deleted_ab``), and so was the pass@k
checker's all-vectors rung, which lost to it on every ledger workload:
no verdict path calls this module.  It stays for the perf ledger's
layer walk, which times :func:`batch_design` and the lockstep group
builder below.

One settle equals the scalar compiled backend vector for vector —
enforced by ``tests/test_sim_batch.py`` across every combinational
``vgen`` family, the vereval problem set and hypothesis draws.
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
from repro.sim.simulator import _MAX_LOOP_ITERS

__all__ = [
    "BatchDesign",
    "BatchSimulator",
    "LockstepGroup",
    "UnbatchableDesign",
    "batch_design",
    "build_lockstep_group",
    "lockstep_shape_digest",
]

#: int64 lanes hold nonnegative two's-complement values in bits 0..62;
#: any wider signal (or expression) cannot be represented per lane.
_MAX_LANE_WIDTH = 63

_I64 = np.int64


class UnbatchableDesign(UncompilableDesign):
    """The design cannot be lowered to int64 lane-parallel form.

    Subclasses :class:`~repro.sim.compile.UncompilableDesign` so every
    caller that already falls back to a scalar backend on uncompilable
    designs handles unbatchable ones the same way.
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

    __slots__ = ("sched_nodes", "nodes_pred")

    def __init__(self) -> None:
        super().__init__()
        #: combinational nodes pre-ordered by the levelized schedule
        self.sched_nodes: Tuple = ()
        #: per node (declaration order, like ``nodes``): a predicated
        #: runner ``run(st, mems, pred)`` writing only lanes in ``pred``
        #: — the building block of lockstep groups, where one node
        #: position carries different bodies for different lanes
        self.nodes_pred: Tuple = ()


def batch_design(design: Design, n_lanes: int) -> BatchDesign:
    """Lower ``design`` for ``n_lanes`` lanes, caching per lane count.

    Raises :class:`UnbatchableDesign` when the design cannot be lane
    lowered (not stateless combinational, or wider than the 63-bit int64
    lane budget — the scalar-fallback signal; a region that does not
    levelize raises its base, :class:`UncompilableDesign`); the
    negative outcome is cached too, so repeated probes stay cheap.  The
    cache is dropped on pickling (``Design.__getstate__``), as the scalar
    image is.
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
    ``(st, mems, o, mo, nba, pred)``.  A lowered design has no memory
    and no nonblocking write, so ``mems``, ``mo`` and ``nba`` are passed
    through untouched.
    """

    def __init__(self, design: Design, n_lanes: int) -> None:
        if design.seq_blocks or design.initial_stmts or design.memories:
            raise UnbatchableDesign(
                "lanes are combinational: the design has an edge-triggered "
                "block, an initial statement or a memory"
            )
        super().__init__(design)
        self.n_lanes = n_lanes
        self.ones = np.ones(n_lanes, dtype=bool)
        #: predicated comb-node runners, appended in node build order
        self._pred_nodes: List = []
        for width in self.widths:
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
        bd = super().compile()  # raises when the region does not levelize
        bd.sched_nodes = tuple(bd.nodes[i] for i in bd.topo)
        bd.nodes_pred = tuple(self._pred_nodes)
        return bd

    def _lvalue_width(self, target: ast.Expr) -> int:
        """Every assignment target passes here first: only whole signals
        and concatenations of them are lane-writable."""
        if isinstance(
            target, (ast.Index, ast.PartSelect, ast.IndexedPartSelect)
        ):
            raise UnbatchableDesign(
                f"{type(target).__name__} lvalue: lanes write whole "
                "signals only"
            )
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

    def _compile_proc_write(self, target: ast.Expr):
        """Predicated blocking write:
        ``(st, mems, o, mo, nba, value, pred)``.

        ``_lvalue_width`` has already admitted ``target``: a signal or a
        concatenation of signals."""
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
                    (self._compile_proc_write(part), offset, part_mask)
                )

            def write_concat(st, mems, o, mo, nba, value, pred):
                for writer, off, pm in writers:
                    writer(st, mems, o, mo, nba, (value >> off) & pm, pred)

            return write_concat

        slot = self._slot(target.name)
        m = (1 << self.widths[slot]) - 1

        def write_full(st, mems, o, mo, nba, value, pred):
            cur = o.get(slot)
            if cur is None:
                cur = st[slot]
            o[slot] = np.where(pred, value & m, cur)

        return write_full

    def _compile_direct_write(self, target: ast.Expr):
        """Continuous-assign write over all lanes: ``(st, mems, value)``.

        No change detection: the full-level sweep makes it unnecessary.
        ``_lvalue_width`` has already admitted ``target``.
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

        slot = self._slot(target.name)
        m = (1 << self.widths[slot]) - 1
        lanes_of = self._lanes_of

        def write_full(st, mems, value):
            st[slot] = lanes_of(value & m)

        return write_full

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
            if not stmt.blocking:
                raise UnbatchableDesign(
                    "nonblocking write: lanes are combinational"
                )
            lvalue_width = self._lvalue_width(stmt.target)
            value_fn = self._compile_expr(stmt.value, lvalue_width, True)
            writer = self._compile_proc_write(stmt.target)

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
        pred_writer = self._compile_proc_write(assign.target)

        def run_pred(st, mems, pred):
            overlay: Dict[int, np.ndarray] = {}
            pred_writer(
                st, mems, overlay, None, None,
                value_fn(st, mems, None, None), pred,
            )
            _commit_lane_overlays(st, overlay)

        self._pred_nodes.append(run_pred)
        reads = set()
        writes = set()
        self._expr_reads(assign.value, set(), reads)
        self._lvalue_effects(assign.target, True, set(), reads, writes)
        return run, reads, writes

    def _build_empty_node(self):
        def run_empty(st, mems):
            return None

        def run_empty_pred(st, mems, pred):
            return None

        self._pred_nodes.append(run_empty_pred)
        return run_empty, set(), set()

    def _build_block_node(self, block):
        body = self._compile_stmt(block.body)
        if body is None:
            return self._build_empty_node()
        reads = set()
        writes = set()
        # `written` ends as the names this block is *guaranteed* to fully
        # write on every execution; any other signal write is conditional
        # — a combinational latch, whose target carries state between
        # settles, so the design's outputs are not a function of its inputs.
        written = set()
        self._stmt_effects(block.body, written, reads, writes)
        if not writes <= {self.slot_of[name] for name in written}:
            raise UnbatchableDesign(
                "combinational latch: lanes are combinational"
            )
        ones = self.ones

        def run_pred(st, mems, pred):
            overlay: Dict[int, np.ndarray] = {}
            body(st, mems, overlay, None, None, pred)
            _commit_lane_overlays(st, overlay)

        def run(st, mems):
            run_pred(st, mems, ones)

        self._pred_nodes.append(run_pred)
        return run, reads, writes


def _commit_lane_overlays(st, overlay) -> None:
    """Commit one blocking-overlay epoch.

    The single definition of how overlays land in lane state — shared by
    the node runners and their predicated variants, so commit semantics
    cannot silently diverge between them.
    """
    for slot, value in overlay.items():
        st[slot] = value


# ---------------------------------------------------------------------------
# Runtime
# ---------------------------------------------------------------------------


class BatchSimulator:
    """Settles a :class:`BatchDesign` over ``n_lanes`` parallel lanes.

    :meth:`poke_many` drives inputs — an int broadcasts to every lane, an
    ``int64`` array of shape ``(n_lanes,)`` gives one value per lane —
    and settles once; :meth:`peek_lanes` reads one signal's per-lane
    values.  Each lane is an independent evaluation of one stateless
    combinational design, typically one stimulus vector per lane.
    Construction raises :class:`UnbatchableDesign` for any other design.
    """

    def __init__(self, design: Design, n_lanes: int = 1) -> None:
        bd = batch_design(design, n_lanes)
        self.design = design
        self.bdesign = bd
        self.n_lanes = n_lanes
        self.st: List[np.ndarray] = [
            np.zeros(n_lanes, dtype=_I64) for _ in range(bd.n_signals)
        ]
        self.settle()

    def peek_lanes(self, name: str) -> np.ndarray:
        """Per-lane values of ``name`` as a fresh lane array."""
        try:
            slot = self.bdesign.slot_of[name]
        except KeyError:
            raise SimulationError(f"peek of unknown signal {name!r}") from None
        return self.st[slot].copy()

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

    def poke_many(self, values) -> None:
        """Drive every ``name -> value`` entry, then settle once."""
        slot_of = self.bdesign.slot_of
        for name, value in values.items():
            slot = slot_of.get(name)
            if slot is None:
                self.design.signal(name)  # raises the canonical error
            lanes = np.empty(self.n_lanes, dtype=_I64)
            lanes[:] = self._masked(slot, value)
            self.st[slot] = lanes
        self.settle()

    def settle(self) -> None:
        """One full-level sweep of the levelized schedule (all lanes)."""
        st = self.st
        for run in self.bdesign.sched_nodes:
            run(st, None)


# ---------------------------------------------------------------------------
# Pinned remainder of the lane-per-candidate tier (deleted in PR 23, see
# docs/architecture.md §4).  Nothing in src/ calls these any more: the
# frozen ledger walk (benchmarks/perf/layers.py, spans
# sim.batch.shape_digest / sim.batch.lower) imports lockstep_shape_digest
# and build_lockstep_group, so they — with _lockstep_shape_digest,
# _comb_node_fingerprints, LockstepGroup and the Design._lockstep_digest
# memo — stay byte-for-byte until a [benchmark] PR drops those rows
# (one authorised edit since: PR 24 took the lane-representation line and
# the third batch_design argument out of build_lockstep_group).  Lanes
# are combinational, so a clocked group stops at batch_design's
# UnbatchableDesign, which the walk counts under sim.batch.unbatchable.
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
