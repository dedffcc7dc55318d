"""Compiled execution backend: levelized, slot-indexed, closure-compiled RTL.

:func:`compile_design` lowers an elaborated
:class:`~repro.sim.elaborate.Design` once into a :class:`CompiledDesign`:

* **slot-indexed state** — every signal resolves to an integer slot in a
  flat list (memories to an index into a list of lists), with widths,
  masks, and signedness frozen at compile time; the hot path never touches
  a string-keyed dict;
* **closure-compiled execution** — expressions and statement bodies lower
  to nested Python closures that bake in the interpreter's width-context
  and signedness decisions (no per-eval ``self_width``, no isinstance
  dispatch); constant subtrees fold to literals at compile time;
* **levelized scheduling** — the acyclic combinational region is
  topologically sorted into a single-pass schedule; a fanout-driven dirty
  set means a poke re-evaluates only the cone of logic it can reach;
* **bit-level dirty granularity** — continuous assigns that read a
  static part-select or bit of a wide bus record a per-reader bit mask;
  out-of-schedule writes (pokes, nonblocking commits, sequential-block
  overlays) carry the ``old ^ new`` changed-bit mask, and readers whose
  mask does not intersect are skipped instead of re-evaluated (counter:
  ``sim.dirty.reader_skips``);
* **compiled sequential blocks** — edge triggers resolve to precomputed
  trigger-bit slots, so edge detection snapshots a short list instead of
  rebuilding a name-keyed dict per poke.

The scheduler refuses to levelize regions it cannot order statically —
combinational cycles, several combinational drivers of one signal, or a
block that reads a value it also drives.  Those designs keep their
compiled node bodies but run them under the interpreter's bounded
full-pass **fixpoint fallback** (same node order, same round bound, same
``SimulationError`` on non-convergence), so combinational-loop
classification is identical to the reference backend.  Designs the
compiler cannot statically *size* at all (e.g. part selects with
non-constant bounds) raise :class:`UncompilableDesign`; under
``backend="auto"`` the :class:`~repro.sim.simulator.Simulator` facade
then falls back to the interpreter entirely.

Cycle-identity with :class:`~repro.sim.simulator.InterpreterSimulator` is
enforced by differential tests over every ``vgen`` family and the vereval
problem set (``tests/test_sim_compile.py``).
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import obs
from repro.errors import SimulationError
from repro.verilog import ast
from repro.sim import eval as _ev
from repro.sim.elaborate import Design
from repro.sim.simulator import _MAX_LOOP_ITERS, Simulator, _row_length_error

__all__ = [
    "CompiledDesign",
    "CompiledSimulator",
    "UncompilableDesign",
    "compile_design",
]

#: expression closure: (state, mems, overlay, mem_overlay) -> int
_ExprFn = Callable[..., int]
#: statement closure: (state, mems, overlay, mem_overlay, nba) -> None
_StmtFn = Callable[..., None]


class UncompilableDesign(Exception):
    """The compiler cannot statically lower this design.

    Under ``backend="auto"`` the Simulator facade catches this and falls
    back to the interpreter, which reproduces whatever runtime behaviour
    (including errors) the construct has there.
    """


class _StaticScope:
    """:class:`repro.sim.eval.Scope` over frozen compile-time tables.

    Widths and signedness come from the compiler's tables; reading any
    runtime state raises, which is how non-constant sizing expressions
    (and therefore uncompilable designs) are detected.
    """

    def __init__(self, comp: "_Compiler") -> None:
        self._comp = comp

    def read(self, name: str) -> int:
        raise SimulationError(f"{name!r} is not a compile-time constant")

    def width_of(self, name: str) -> int:
        try:
            return self._comp.widths[self._comp.slot_of[name]]
        except KeyError:
            raise SimulationError(f"no signal named {name!r}") from None

    def is_signed(self, name: str) -> bool:
        slot = self._comp.slot_of.get(name)
        return False if slot is None else self._comp.signed[slot]

    def is_mem(self, name: str) -> bool:
        return name in self._comp.mem_of

    def mem_width(self, name: str) -> int:
        return self._comp.mem_widths[self._comp.mem_of[name]]

    def read_mem(self, name: str, index: int) -> int:
        raise SimulationError("memory contents are not compile-time constants")


def _commit_nba(st, mems, updates, widths, n_signals, changed,
                masks=None) -> None:
    """Commit nonblocking updates; append changed pseudo-slots to ``changed``.

    Mirrors ``InterpreterSimulator._commit_nba`` update-for-update.
    Updates are ``(is_mem, slot, lo, width, value)`` tuples; memory
    changes are reported as pseudo-slot ``n_signals + mem_slot``.  When
    ``masks`` is a dict it accumulates the changed-bit mask
    (``old ^ new``) per pseudo-slot for bit-granular dirty marking;
    memory changes are conservatively all-bits.
    """
    for is_mem, slot, lo, width, value in updates:
        if is_mem:
            column = mems[slot]
            if 0 <= lo < len(column):
                new = value & ((1 << width) - 1)
                if column[lo] != new:
                    column[lo] = new
                    changed.append(n_signals + slot)
                    if masks is not None:
                        masks[n_signals + slot] = -1
            continue
        keep = st[slot]
        sig_width = widths[slot]
        if lo == 0 and width >= sig_width:
            new = value & ((1 << sig_width) - 1)
        else:
            field_mask = ((1 << width) - 1) << lo
            new = (keep & ~field_mask) | (
                ((value & ((1 << width) - 1)) << lo) & field_mask
            )
        if new != keep:
            st[slot] = new
            changed.append(slot)
            if masks is not None:
                masks[slot] = masks.get(slot, 0) | (keep ^ new)


class CompiledDesign:
    """The compile-once execution image of one elaborated design."""

    __slots__ = (
        "design",
        "n_signals",
        "slot_of",
        "names",
        "widths",
        "masks",
        "mem_of",
        "mem_names",
        "mem_widths",
        "mem_depths",
        "mem_bases",
        "comb_count",
        "nodes",
        "levelized",
        "topo",
        "pos_of",
        "readers",
        "read_masks",
        "writers",
        "seq",
        "trigger_slots",
        "initial",
    )

    def __init__(self) -> None:
        self.design: Optional[Design] = None
        self.n_signals = 0
        self.slot_of: Dict[str, int] = {}
        self.names: List[str] = []
        self.widths: List[int] = []
        self.masks: List[int] = []
        self.mem_of: Dict[str, int] = {}
        self.mem_names: List[str] = []
        self.mem_widths: List[int] = []
        self.mem_depths: List[int] = []
        self.mem_bases: List[int] = []
        self.comb_count = 0
        #: combinational nodes in declaration order; each is a callable
        #: ``run(st, mems) -> [changed pseudo-slots]``
        self.nodes: List[Callable] = []
        self.levelized = False
        self.topo: List[int] = []     # schedule position -> node index
        self.pos_of: List[int] = []   # node index -> schedule position
        self.readers: Dict[int, Tuple[int, ...]] = {}
        #: per pseudo-slot, one read-bit mask per entry of ``readers[ps]``
        #: (-1 = reads any bit); lets bit-granular external writes skip
        #: readers of untouched bits of a wide bus
        self.read_masks: Dict[int, Tuple[int, ...]] = {}
        self.writers: Dict[int, Tuple[int, ...]] = {}
        #: compiled seq blocks: (trigger list [(wanted bit, index)], body fn)
        self.seq: List[Tuple[List[Tuple[int, int]], _StmtFn]] = []
        self.trigger_slots: Tuple[int, ...] = ()
        self.initial: List[_StmtFn] = []


def compile_design(design: Design) -> CompiledDesign:
    """Compile ``design``, caching the result on the design object.

    The cache is dropped on pickling (``Design.__getstate__``), so designs
    shipped to process-pool workers recompile locally instead of dragging
    unpicklable closures along.
    """
    cached = getattr(design, "_compiled", None)
    if cached is not None:
        return cached
    with obs.span("sim.compile"):
        compiled = _Compiler(design).compile()
    design._compiled = compiled
    return compiled


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------


class _Compiler:
    def __init__(self, design: Design) -> None:
        self.design = design
        self.slot_of: Dict[str, int] = {}
        self.widths: List[int] = []
        self.signed: List[bool] = []
        self.mem_of: Dict[str, int] = {}
        self.mem_widths: List[int] = []
        self.mem_depths: List[int] = []
        self.mem_bases: List[int] = []
        for name, sig in design.signals.items():
            self.slot_of[name] = len(self.widths)
            self.widths.append(sig.width)
            self.signed.append(sig.signed)
        for name, memory in design.memories.items():
            self.mem_of[name] = len(self.mem_widths)
            self.mem_widths.append(memory.width)
            self.mem_depths.append(memory.depth)
            self.mem_bases.append(memory.base)
        self.n_signals = len(self.widths)
        self._static = _StaticScope(self)

    # -- static sizing ------------------------------------------------------

    def _self_width(self, expr: ast.Expr) -> int:
        try:
            return _ev.self_width(expr, self._static)
        except SimulationError as exc:
            raise UncompilableDesign(str(exc)) from None

    def _is_signed(self, expr: ast.Expr) -> bool:
        return _ev.is_signed_expr(expr, self._static)

    def _static_int(self, expr: ast.Expr) -> int:
        """A compile-time constant integer (self-determined evaluation)."""
        try:
            return _ev.eval_expr(expr, self._static)
        except SimulationError as exc:
            raise UncompilableDesign(str(exc)) from None

    def _is_static(self, expr: ast.Expr) -> bool:
        """Whether ``expr`` reads no runtime state (constant-foldable)."""
        if isinstance(expr, (ast.Number, ast.StringLiteral)):
            return True
        if isinstance(expr, ast.Unary):
            return self._is_static(expr.operand)
        if isinstance(expr, ast.Binary):
            return self._is_static(expr.lhs) and self._is_static(expr.rhs)
        if isinstance(expr, ast.Ternary):
            return (
                self._is_static(expr.cond)
                and self._is_static(expr.then)
                and self._is_static(expr.other)
            )
        if isinstance(expr, ast.Concat):
            return all(self._is_static(p) for p in expr.parts)
        if isinstance(expr, ast.Repeat):
            return self._is_static(expr.count) and self._is_static(expr.inner)
        if isinstance(expr, ast.SystemCall):
            if expr.name in ("$time", "$stime", "$realtime"):
                return True
            return all(self._is_static(a) for a in expr.args)
        return False

    def _slot(self, name: str) -> int:
        slot = self.slot_of.get(name)
        if slot is None:
            raise UncompilableDesign(f"no flat signal named {name!r}")
        return slot

    @staticmethod
    def _base_name(expr: ast.Expr) -> str:
        if not isinstance(expr, ast.Identifier):
            raise UncompilableDesign(
                "only simple identifiers may be indexed/selected"
            )
        return expr.name

    # -- expression compilation --------------------------------------------
    #
    # `_compile_expr` mirrors eval.eval_expr (context-width entry point),
    # `_compile_operand` mirrors eval._operand (context-determined operand
    # with sign extension), `_compile_eval` mirrors eval._eval.  Every
    # width and signedness decision the interpreter takes per evaluation
    # is taken here once, at compile time.

    def _compile_expr(self, expr: ast.Expr, context_width: int,
                      ov: bool) -> _ExprFn:
        width = max(context_width, self._self_width(expr))
        return self._compile_eval(expr, width, ov)

    def _compile_operand(self, expr: ast.Expr, width: int, ov: bool) -> _ExprFn:
        own = self._self_width(expr)
        fn = self._compile_eval(expr, max(own, width), ov)
        if width <= own:
            return fn
        ext_mask = (1 << width) - 1
        if self._is_signed(expr):
            own_mask = (1 << own) - 1
            sign_bit = 1 << (own - 1)
            own_full = 1 << own

            def signed_ext(st, mems, o, mo, _f=fn):
                v = _f(st, mems, o, mo) & own_mask
                if v & sign_bit:
                    v -= own_full
                return v & ext_mask

            return signed_ext
        return lambda st, mems, o, mo, _f=fn: _f(st, mems, o, mo) & ext_mask

    def _emit_read_raw(self, name: str, ov: bool) -> _ExprFn:
        """Overlay-aware unmasked read of a whole signal."""
        slot = self._slot(name)
        if ov:
            def read(st, mems, o, mo, _s=slot):
                v = o.get(_s)
                return st[_s] if v is None else v

            return read
        return lambda st, mems, o, mo, _s=slot: st[_s]

    def _compile_eval(self, expr: ast.Expr, width: int, ov: bool) -> _ExprFn:
        if self._is_static(expr):
            try:
                value = _ev._eval(expr, self._static, width)
            except SimulationError as exc:
                raise UncompilableDesign(str(exc)) from None
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
            return lambda st, mems, o, mo: (
                then(st, mems, o, mo)
                if cond(st, mems, o, mo) != 0
                else other(st, mems, o, mo)
            )
        if isinstance(expr, ast.Concat):
            parts = []
            offset = 0
            for part in reversed(expr.parts):
                pw = self._self_width(part)
                parts.append((self._compile_eval(part, pw, ov), offset))
                offset += pw
            parts.reverse()
            m = (1 << max(width, 1)) - 1

            def concat(st, mems, o, mo, _parts=tuple(parts), _m=m):
                out = 0
                for fn, off in _parts:
                    out |= fn(st, mems, o, mo) << off
                return out & _m

            return concat
        if isinstance(expr, ast.Repeat):
            times = self._static_int(expr.count)
            inner_width = self._self_width(expr.inner)
            inner = self._compile_eval(expr.inner, inner_width, ov)
            # Replication is multiplication by 0b...0001_0001 (one set bit
            # per copy, spaced inner_width apart).
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
            sel_mask = (1 << (msb - lsb + 1)) - 1
            raw = self._emit_read_raw(name, ov)
            return lambda st, mems, o, mo: (raw(st, mems, o, mo) >> lsb) & sel_mask
        if isinstance(expr, ast.IndexedPartSelect):
            name = self._base_name(expr.base)
            start = self._compile_expr(expr.start, 0, ov)
            sel_width = self._static_int(expr.width)
            sel_mask = (1 << sel_width) - 1
            ascending = expr.ascending
            raw = self._emit_read_raw(name, ov)

            def indexed(st, mems, o, mo):
                lo = start(st, mems, o, mo)
                if not ascending:
                    lo = lo - sel_width + 1
                if lo < 0:
                    lo = 0
                return (raw(st, mems, o, mo) >> lo) & sel_mask

            return indexed
        if isinstance(expr, ast.SystemCall):
            return self._compile_system_call(expr, width, ov)
        raise UncompilableDesign(f"cannot compile {type(expr).__name__}")

    def masks_for(self, name: str) -> int:
        return (1 << self.widths[self._slot(name)]) - 1

    def _compile_unary(self, expr: ast.Unary, width: int, ov: bool) -> _ExprFn:
        op = expr.op
        if op in ("&", "~&", "|", "~|", "^", "~^"):
            operand_width = self._self_width(expr.operand)
            fn = self._compile_eval(expr.operand, operand_width, ov)
            invert = 1 if op.startswith("~") else 0
            if op in ("&", "~&"):
                full = (1 << operand_width) - 1
                return lambda st, mems, o, mo: (
                    1 if fn(st, mems, o, mo) == full else 0
                ) ^ invert
            if op in ("|", "~|"):
                return lambda st, mems, o, mo: (
                    1 if fn(st, mems, o, mo) != 0 else 0
                ) ^ invert
            return lambda st, mems, o, mo: (
                bin(fn(st, mems, o, mo)).count("1") & 1
            ) ^ invert
        if op == "!":
            fn = self._compile_expr(expr.operand, 0, ov)
            return lambda st, mems, o, mo: 0 if fn(st, mems, o, mo) != 0 else 1
        fn = self._compile_operand(expr.operand, width, ov)
        m = (1 << width) - 1 if width > 0 else 0
        if op == "~":
            return lambda st, mems, o, mo: ~fn(st, mems, o, mo) & m
        if op == "-":
            return lambda st, mems, o, mo: -fn(st, mems, o, mo) & m
        if op == "+":
            return fn
        raise UncompilableDesign(f"unsupported unary operator {op!r}")

    def _compile_binary(self, expr: ast.Binary, width: int, ov: bool) -> _ExprFn:
        op = expr.op
        if op in ("&&", "||"):
            lhs = self._compile_expr(expr.lhs, 0, ov)
            rhs = self._compile_expr(expr.rhs, 0, ov)
            if op == "&&":
                return lambda st, mems, o, mo: (
                    1 if lhs(st, mems, o, mo) != 0 and rhs(st, mems, o, mo) != 0
                    else 0
                )
            return lambda st, mems, o, mo: (
                1 if lhs(st, mems, o, mo) != 0 or rhs(st, mems, o, mo) != 0
                else 0
            )
        if op in ("==", "!=", "===", "!==", "<", "<=", ">", ">="):
            cmp_width = max(
                self._self_width(expr.lhs), self._self_width(expr.rhs)
            )
            signed = self._is_signed(expr.lhs) and self._is_signed(expr.rhs)
            lhs = self._compile_operand(expr.lhs, cmp_width, ov)
            rhs = self._compile_operand(expr.rhs, cmp_width, ov)
            if signed:
                sign_bit = 1 << (cmp_width - 1)
                full = 1 << cmp_width

                def operands(st, mems, o, mo):
                    a = lhs(st, mems, o, mo)
                    b = rhs(st, mems, o, mo)
                    if a & sign_bit:
                        a -= full
                    if b & sign_bit:
                        b -= full
                    return a, b
            else:
                def operands(st, mems, o, mo):
                    return lhs(st, mems, o, mo), rhs(st, mems, o, mo)

            if op in ("==", "==="):
                def cmp(a, b):
                    return a == b
            elif op in ("!=", "!=="):
                def cmp(a, b):
                    return a != b
            elif op == "<":
                def cmp(a, b):
                    return a < b
            elif op == "<=":
                def cmp(a, b):
                    return a <= b
            elif op == ">":
                def cmp(a, b):
                    return a > b
            else:
                def cmp(a, b):
                    return a >= b

            def compare(st, mems, o, mo):
                a, b = operands(st, mems, o, mo)
                return 1 if cmp(a, b) else 0

            return compare
        if op in ("<<", ">>", "<<<", ">>>"):
            lhs = self._compile_operand(expr.lhs, width, ov)
            amount_fn = self._compile_expr(expr.rhs, 0, ov)
            clamp = max(width, 1) + 64
            m = (1 << width) - 1 if width > 0 else 0
            if op in ("<<", "<<<"):
                def shl(st, mems, o, mo):
                    amount = amount_fn(st, mems, o, mo)
                    if amount >= clamp:
                        amount = clamp
                    return (lhs(st, mems, o, mo) << amount) & m

                return shl
            if op == ">>>" and self._is_signed(expr.lhs):
                sign_bit = 1 << (width - 1)
                full = 1 << width

                def sra(st, mems, o, mo):
                    amount = amount_fn(st, mems, o, mo)
                    if amount >= clamp:
                        amount = clamp
                    v = lhs(st, mems, o, mo) & m
                    if v & sign_bit:
                        v -= full
                    return (v >> amount) & m

                return sra

            def shr(st, mems, o, mo):
                amount = amount_fn(st, mems, o, mo)
                if amount >= clamp:
                    amount = clamp
                return lhs(st, mems, o, mo) >> amount

            return shr
        if op == "**":
            base = self._compile_operand(expr.lhs, width, ov)
            exp_fn = self._compile_expr(expr.rhs, 0, ov)
            m = (1 << width) - 1 if width > 0 else 0

            def power(st, mems, o, mo):
                exponent = exp_fn(st, mems, o, mo)
                if exponent > 64:
                    exponent = 64
                return (base(st, mems, o, mo) ** exponent) & m

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
                sign_bit = 1 << (width - 1)
                full = 1 << width

                def signed_divmod(st, mems, o, mo):
                    a = lhs(st, mems, o, mo)
                    b = rhs(st, mems, o, mo)
                    if b == 0:
                        return 0  # two-state stand-in for X
                    if a & sign_bit:
                        a -= full
                    if b & sign_bit:
                        b -= full
                    quotient = abs(a) // abs(b)
                    if (a < 0) != (b < 0):
                        quotient = -quotient
                    if want_div:
                        return quotient & m
                    return (a - b * quotient) & m

                return signed_divmod

            def divmod_fn(st, mems, o, mo):
                b = rhs(st, mems, o, mo)
                if b == 0:
                    return 0  # two-state stand-in for X
                a = lhs(st, mems, o, mo)
                return (a // b if want_div else a % b) & m

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

    def _compile_index(self, expr: ast.Index, ov: bool) -> _ExprFn:
        name = self._base_name(expr.base)
        index_fn = self._compile_expr(expr.index, 0, ov)
        mem_slot = self.mem_of.get(name)
        if mem_slot is not None:
            base = self.mem_bases[mem_slot]
            depth = self.mem_depths[mem_slot]
            if ov:
                def read_mem(st, mems, o, mo, _ms=mem_slot):
                    idx = index_fn(st, mems, o, mo) - base
                    if idx < 0 or idx >= depth:
                        return 0  # out-of-range read: two-state X
                    v = mo.get((_ms, idx))
                    return mems[_ms][idx] if v is None else v

                return read_mem

            def read_mem_direct(st, mems, o, mo, _ms=mem_slot):
                idx = index_fn(st, mems, o, mo) - base
                if idx < 0 or idx >= depth:
                    return 0
                return mems[_ms][idx]

            return read_mem_direct
        raw = self._emit_read_raw(name, ov)
        sig_width = self.widths[self._slot(name)]

        def read_bit(st, mems, o, mo):
            idx = index_fn(st, mems, o, mo)
            if idx >= sig_width:
                return 0  # out-of-range select reads as 0 (two-state X)
            return (raw(st, mems, o, mo) >> idx) & 1

        return read_bit

    def _compile_system_call(self, expr: ast.SystemCall, width: int,
                             ov: bool) -> _ExprFn:
        name = expr.name
        if name in ("$signed", "$unsigned"):
            if len(expr.args) != 1:
                raise UncompilableDesign(f"{name} takes exactly one argument")
            return self._compile_operand(expr.args[0], width, ov)
        if name == "$clog2":
            if len(expr.args) != 1:
                raise UncompilableDesign("$clog2 takes exactly one argument")
            arg = self._compile_expr(expr.args[0], 0, ov)

            def clog2(st, mems, o, mo):
                value = arg(st, mems, o, mo)
                if value <= 1:
                    return 0
                return (value - 1).bit_length()

            return clog2
        if name in ("$time", "$stime", "$realtime"):
            return lambda st, mems, o, mo: 0
        raise UncompilableDesign(f"unsupported system function {name!r}")

    # -- lvalue compilation -------------------------------------------------

    def _lvalue_width(self, target: ast.Expr) -> int:
        if isinstance(target, ast.Identifier):
            if target.name in self.mem_of:
                raise UncompilableDesign(
                    f"cannot assign whole memory {target.name!r}"
                )
            return self.widths[self._slot(target.name)]
        if isinstance(target, ast.Concat):
            return sum(self._lvalue_width(p) for p in target.parts)
        if isinstance(target, ast.Index):
            name = self._base_name(target.base)
            if name in self.mem_of:
                return self.mem_widths[self.mem_of[name]]
            return 1
        if isinstance(target, ast.PartSelect):
            msb = self._static_int(target.msb)
            lsb = self._static_int(target.lsb)
            return abs(msb - lsb) + 1
        if isinstance(target, ast.IndexedPartSelect):
            return self._static_int(target.width)
        raise UncompilableDesign(
            f"invalid assignment target {type(target).__name__}"
        )

    def _compile_proc_write(self, target: ast.Expr, blocking: bool):
        """Procedural write closure: (st, mems, ov, mov, nba, value)."""
        if isinstance(target, ast.Concat):
            widths = [self._lvalue_width(p) for p in target.parts]
            total = sum(widths)
            writers = []
            offset = total
            for part, part_width in zip(target.parts, widths):
                offset -= part_width
                part_mask = (1 << part_width) - 1
                writers.append(
                    (self._compile_proc_write(part, blocking), offset, part_mask)
                )

            def write_concat(st, mems, o, mo, nba, value):
                for writer, off, pm in writers:
                    writer(st, mems, o, mo, nba, (value >> off) & pm)

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
                def write_full(st, mems, o, mo, nba, value):
                    o[slot] = value & m

                return write_full

            def nba_full(st, mems, o, mo, nba, value):
                nba.append((False, slot, 0, width, value))

            return nba_full

        if isinstance(target, ast.Index):
            name = self._base_name(target.base)
            index_fn = self._compile_expr(target.index, 0, True)
            mem_slot = self.mem_of.get(name)
            if mem_slot is not None:
                base = self.mem_bases[mem_slot]
                depth = self.mem_depths[mem_slot]
                mem_width = self.mem_widths[mem_slot]
                mem_mask = (1 << mem_width) - 1
                if blocking:
                    def write_mem(st, mems, o, mo, nba, value):
                        idx = index_fn(st, mems, o, mo) - base
                        if idx < 0 or idx >= depth:
                            return  # out-of-range write ignored
                        mo[(mem_slot, idx)] = value & mem_mask

                    return write_mem

                def nba_mem(st, mems, o, mo, nba, value):
                    idx = index_fn(st, mems, o, mo) - base
                    if idx < 0 or idx >= depth:
                        return
                    nba.append((True, mem_slot, idx, mem_width, value & mem_mask))

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
            start_fn = self._compile_expr(target.start, 0, True)
            ascending = target.ascending

            def lo_fn(st, mems, o, mo):
                start = start_fn(st, mems, o, mo)
                lo = start if ascending else start - width + 1
                return lo if lo > 0 else 0

            return self._emit_field_write(
                slot, sig_width, lo_fn, width, blocking, runtime_lo=True
            )

        raise UncompilableDesign(
            f"invalid assignment target {type(target).__name__}"
        )

    def _emit_field_write(self, slot, sig_width, lo, width, blocking,
                          runtime_lo):
        """Bit/part write to a signal; mirrors _write_lvalue's field path.

        ``lo`` is an int when static, else a closure.  The interpreter's
        "full write" shortcut fires when ``lo == 0 and width >= sig_width``;
        for runtime ``lo`` that choice is made per execution.
        """
        value_mask = (1 << width) - 1
        sig_mask = (1 << sig_width) - 1
        raw = None
        if blocking:
            # Blocking field writes merge with the overlay-aware current
            # value (unmasked, as the interpreter reads it).
            def read_current(st, o, _s=slot):
                v = o.get(_s)
                return st[_s] if v is None else v

            raw = read_current

        if not runtime_lo:
            if lo == 0 and width >= sig_width:
                if blocking:
                    def write_full(st, mems, o, mo, nba, value):
                        o[slot] = value & sig_mask

                    return write_full

                def nba_full(st, mems, o, mo, nba, value):
                    nba.append((False, slot, 0, width, value))

                return nba_full
            field_mask = value_mask << lo
            keep_mask = ~field_mask
            if blocking:
                def write_field(st, mems, o, mo, nba, value):
                    o[slot] = (raw(st, o) & keep_mask) | (
                        ((value & value_mask) << lo) & field_mask
                    )

                return write_field

            def nba_field(st, mems, o, mo, nba, value):
                nba.append((False, slot, lo, width, value))

            return nba_field

        lo_fn = lo
        if blocking:
            def write_dynamic(st, mems, o, mo, nba, value):
                at = lo_fn(st, mems, o, mo)
                if at == 0 and width >= sig_width:
                    o[slot] = value & sig_mask
                    return
                field_mask = value_mask << at
                o[slot] = (raw(st, o) & ~field_mask) | (
                    ((value & value_mask) << at) & field_mask
                )

            return write_dynamic

        def nba_dynamic(st, mems, o, mo, nba, value):
            nba.append((False, slot, lo_fn(st, mems, o, mo), width, value))

        return nba_dynamic

    def _compile_direct_write(self, target: ast.Expr):
        """Continuous-assign write: (st, mems, value, changed) with
        name-level change detection appended to ``changed``."""
        if isinstance(target, ast.Concat):
            widths = [self._lvalue_width(p) for p in target.parts]
            total = sum(widths)
            writers = []
            offset = total
            for part, part_width in zip(target.parts, widths):
                offset -= part_width
                part_mask = (1 << part_width) - 1
                writers.append(
                    (self._compile_direct_write(part), offset, part_mask)
                )

            def write_concat(st, mems, value, changed):
                for writer, off, pm in writers:
                    writer(st, mems, (value >> off) & pm, changed)

            return write_concat

        if isinstance(target, ast.Identifier):
            if target.name in self.mem_of:
                raise UncompilableDesign(
                    f"cannot assign whole memory {target.name!r}"
                )
            slot = self._slot(target.name)
            m = (1 << self.widths[slot]) - 1

            def write_full(st, mems, value, changed):
                new = value & m
                if st[slot] != new:
                    st[slot] = new
                    changed.append(slot)

            return write_full

        if isinstance(target, ast.Index):
            name = self._base_name(target.base)
            if name in self.mem_of:
                # The interpreter raises SimulationError when this runs;
                # refusing to compile routes "auto" to the interpreter,
                # which reproduces that exact behaviour.
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
            start_fn = self._compile_expr(target.start, 0, False)
            ascending = target.ascending

            def lo_fn(st, mems, o, mo):
                start = start_fn(st, mems, o, mo)
                lo = start if ascending else start - width + 1
                return lo if lo > 0 else 0

            return self._emit_direct_field(slot, sig_width, lo_fn, width, True)

        raise UncompilableDesign(
            f"invalid assignment target {type(target).__name__}"
        )

    def _emit_direct_field(self, slot, sig_width, lo, width, runtime_lo):
        value_mask = (1 << width) - 1
        sig_mask = (1 << sig_width) - 1

        if not runtime_lo:
            if lo == 0 and width >= sig_width:
                def write_full(st, mems, value, changed):
                    new = value & sig_mask
                    if st[slot] != new:
                        st[slot] = new
                        changed.append(slot)

                return write_full
            field_mask = value_mask << lo
            keep_mask = ~field_mask

            def write_field(st, mems, value, changed):
                full = st[slot]
                new = (full & keep_mask) | (
                    ((value & value_mask) << lo) & field_mask
                )
                if new != full:
                    st[slot] = new
                    changed.append(slot)

            return write_field

        lo_fn = lo

        def write_dynamic(st, mems, value, changed):
            at = lo_fn(st, mems, None, None)
            full = st[slot]
            if at == 0 and width >= sig_width:
                new = value & sig_mask
            else:
                field_mask = value_mask << at
                new = (full & ~field_mask) | (
                    ((value & value_mask) << at) & field_mask
                )
            if new != full:
                st[slot] = new
                changed.append(slot)

        return write_dynamic

    # -- statement compilation ----------------------------------------------

    def _compile_stmt(self, stmt: ast.Stmt) -> Optional[_StmtFn]:
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

            def block(st, mems, o, mo, nba):
                for step in steps:
                    step(st, mems, o, mo, nba)

            return block
        if isinstance(stmt, ast.Assign):
            lvalue_width = self._lvalue_width(stmt.target)
            value_fn = self._compile_expr(stmt.value, lvalue_width, True)
            writer = self._compile_proc_write(stmt.target, stmt.blocking)

            def assign(st, mems, o, mo, nba):
                writer(st, mems, o, mo, nba, value_fn(st, mems, o, mo))

            return assign
        if isinstance(stmt, ast.If):
            cond = self._compile_expr(stmt.cond, 0, True)
            then = self._compile_stmt(stmt.then)
            other = self._compile_stmt(stmt.other) if stmt.other else None

            def branch(st, mems, o, mo, nba):
                if cond(st, mems, o, mo) != 0:
                    if then is not None:
                        then(st, mems, o, mo, nba)
                elif other is not None:
                    other(st, mems, o, mo, nba)

            return branch
        if isinstance(stmt, ast.Case):
            return self._compile_case(stmt)
        if isinstance(stmt, ast.For):
            init = self._compile_stmt(stmt.init)
            cond = self._compile_expr(stmt.cond, 0, True)
            step = self._compile_stmt(stmt.step)
            body = self._compile_stmt(stmt.body)

            def loop(st, mems, o, mo, nba):
                if init is not None:
                    init(st, mems, o, mo, nba)
                iterations = 0
                while cond(st, mems, o, mo) != 0:
                    if body is not None:
                        body(st, mems, o, mo, nba)
                    if step is not None:
                        step(st, mems, o, mo, nba)
                    iterations += 1
                    if iterations > _MAX_LOOP_ITERS:
                        raise SimulationError(
                            f"for-loop exceeded {_MAX_LOOP_ITERS} iterations"
                        )

            return loop
        if isinstance(stmt, (ast.NullStmt, ast.SystemTaskCall)):
            return None
        raise UncompilableDesign(f"cannot compile {type(stmt).__name__}")

    def _compile_case(self, stmt: ast.Case) -> _StmtFn:
        # Same hoisted sizing as the interpreter's _exec_case: one subject
        # evaluation at the max width over subject and all labels.
        width = self._self_width(stmt.subject)
        for item in stmt.items:
            for label in item.labels:
                label_width = self._self_width(label)
                if label_width > width:
                    width = label_width
        subject_fn = self._compile_eval(stmt.subject, width, True)
        wildcard_kind = stmt.kind in ("casez", "casex")
        arms = []
        default_fn: Optional[_StmtFn] = None
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

        def case(st, mems, o, mo, nba):
            subject = subject_fn(st, mems, o, mo)
            for label_fn, care, body in arms_t:
                if (subject & care) == (label_fn(st, mems, o, mo) & care):
                    if body is not None:
                        body(st, mems, o, mo, nba)
                    return
            if default_fn is not None:
                default_fn(st, mems, o, mo, nba)

        return case

    # -- read/write-set analysis ---------------------------------------------
    #
    # Per combinational node: which pseudo-slots does it read from global
    # state, and which does it write?  Reads dominated by an earlier
    # unconditional full write of the same signal inside the same node are
    # *internal* (the classic `i = 0; ... use i ...` for-loop pattern) and
    # excluded, which is what keeps such nodes levelizable.  Memory reads
    # are always external (element granularity is not tracked).

    def _mem_pseudo(self, name: str) -> int:
        return self.n_signals + self.mem_of[name]

    def _expr_reads(self, expr: ast.Expr, written: Set[str],
                    reads: Set[int]) -> None:
        if isinstance(expr, (ast.Number, ast.StringLiteral)):
            return
        if isinstance(expr, ast.Identifier):
            if expr.name in self.mem_of:
                reads.add(self._mem_pseudo(expr.name))
            elif expr.name not in written:
                reads.add(self._slot(expr.name))
            return
        if isinstance(expr, ast.Unary):
            self._expr_reads(expr.operand, written, reads)
            return
        if isinstance(expr, ast.Binary):
            self._expr_reads(expr.lhs, written, reads)
            self._expr_reads(expr.rhs, written, reads)
            return
        if isinstance(expr, ast.Ternary):
            self._expr_reads(expr.cond, written, reads)
            self._expr_reads(expr.then, written, reads)
            self._expr_reads(expr.other, written, reads)
            return
        if isinstance(expr, ast.Concat):
            for part in expr.parts:
                self._expr_reads(part, written, reads)
            return
        if isinstance(expr, ast.Repeat):
            self._expr_reads(expr.count, written, reads)
            self._expr_reads(expr.inner, written, reads)
            return
        if isinstance(expr, ast.Index):
            name = self._base_name(expr.base)
            if name in self.mem_of:
                reads.add(self._mem_pseudo(name))
            elif name not in written:
                reads.add(self._slot(name))
            self._expr_reads(expr.index, written, reads)
            return
        if isinstance(expr, ast.PartSelect):
            name = self._base_name(expr.base)
            if name not in written:
                reads.add(self._slot(name))
            self._expr_reads(expr.msb, written, reads)
            self._expr_reads(expr.lsb, written, reads)
            return
        if isinstance(expr, ast.IndexedPartSelect):
            name = self._base_name(expr.base)
            if name not in written:
                reads.add(self._slot(name))
            self._expr_reads(expr.start, written, reads)
            self._expr_reads(expr.width, written, reads)
            return
        if isinstance(expr, ast.SystemCall):
            for arg in expr.args:
                self._expr_reads(arg, written, reads)
            return
        raise UncompilableDesign(f"cannot analyse {type(expr).__name__}")

    def _expr_read_masks(self, expr: ast.Expr,
                         masks: Dict[int, int]) -> None:
        """Accumulate per-pseudo-slot *bit* read masks for one expression.

        The bit-granular companion of :meth:`_expr_reads` for continuous
        assigns: a static part-select or bit index of a signal records
        only the bits it actually reads, everything else records -1 (any
        bit).  Memories are always -1 — words have no per-bit dirty
        tracking.  ``-1 | x == -1`` keeps accumulation a plain OR.
        """
        if isinstance(expr, (ast.Number, ast.StringLiteral)):
            return
        if isinstance(expr, ast.Identifier):
            if expr.name in self.mem_of:
                masks[self._mem_pseudo(expr.name)] = -1
            else:
                masks[self._slot(expr.name)] = -1
            return
        if isinstance(expr, ast.Unary):
            self._expr_read_masks(expr.operand, masks)
            return
        if isinstance(expr, ast.Binary):
            self._expr_read_masks(expr.lhs, masks)
            self._expr_read_masks(expr.rhs, masks)
            return
        if isinstance(expr, ast.Ternary):
            self._expr_read_masks(expr.cond, masks)
            self._expr_read_masks(expr.then, masks)
            self._expr_read_masks(expr.other, masks)
            return
        if isinstance(expr, ast.Concat):
            for part in expr.parts:
                self._expr_read_masks(part, masks)
            return
        if isinstance(expr, ast.Repeat):
            self._expr_read_masks(expr.count, masks)
            self._expr_read_masks(expr.inner, masks)
            return
        if isinstance(expr, ast.Index):
            name = self._base_name(expr.base)
            if name in self.mem_of:
                masks[self._mem_pseudo(name)] = -1
            else:
                slot = self._slot(name)
                if self._is_static(expr.index):
                    index = self._static_int(expr.index)
                    bit = (
                        1 << index
                        if 0 <= index < self.widths[slot]
                        else 0  # out-of-range bit reads as constant 0
                    )
                    masks[slot] = masks.get(slot, 0) | bit
                else:
                    masks[slot] = -1
            self._expr_read_masks(expr.index, masks)
            return
        if isinstance(expr, ast.PartSelect):
            name = self._base_name(expr.base)
            slot = self._slot(name)
            if self._is_static(expr.msb) and self._is_static(expr.lsb):
                msb = self._static_int(expr.msb)
                lsb = self._static_int(expr.lsb)
                if msb < lsb:
                    msb, lsb = lsb, msb
                field = ((1 << (msb - lsb + 1)) - 1) << max(lsb, 0)
                masks[slot] = masks.get(slot, 0) | field
            else:
                masks[slot] = -1
            self._expr_read_masks(expr.msb, masks)
            self._expr_read_masks(expr.lsb, masks)
            return
        if isinstance(expr, ast.IndexedPartSelect):
            name = self._base_name(expr.base)
            slot = self._slot(name)
            if self._is_static(expr.start) and self._is_static(expr.width):
                start = self._static_int(expr.start)
                width = self._static_int(expr.width)
                if not expr.ascending:
                    start = start - width + 1
                field = ((1 << max(width, 0)) - 1) << max(start, 0)
                masks[slot] = masks.get(slot, 0) | field
            else:
                masks[slot] = -1
            self._expr_read_masks(expr.start, masks)
            self._expr_read_masks(expr.width, masks)
            return
        if isinstance(expr, ast.SystemCall):
            for arg in expr.args:
                self._expr_read_masks(arg, masks)
            return
        raise UncompilableDesign(f"cannot analyse {type(expr).__name__}")

    def _assign_read_masks(self, assign,
                           reads: Set[int]) -> Dict[int, int]:
        """Read-bit masks for one continuous assign, aligned to ``reads``.

        Value-side reads get precise masks where statically known; reads
        contributed by the lvalue (dynamic index expressions, the
        self-read of a partial write) stay conservatively -1.  Any slot
        the mask walk could not classify defaults to -1, so this can
        only ever *narrow* the dirty set, never starve it.
        """
        masks: Dict[int, int] = {}
        try:
            self._expr_read_masks(assign.value, masks)
        except UncompilableDesign:
            masks = {}
        lvalue_reads: Set[int] = set()
        self._lvalue_effects(
            assign.target, True, set(), lvalue_reads, set()
        )
        for ps in lvalue_reads:
            masks[ps] = -1
        return {ps: masks.get(ps, -1) for ps in reads}

    def _lvalue_effects(self, target: ast.Expr, blocking: bool,
                        written: Set[str], reads: Set[int],
                        writes: Set[int]) -> None:
        if isinstance(target, ast.Concat):
            for part in target.parts:
                self._lvalue_effects(part, blocking, written, reads, writes)
            return
        if isinstance(target, ast.Identifier):
            writes.add(self._slot(target.name))
            if blocking:
                written.add(target.name)
            return
        if isinstance(target, ast.Index):
            name = self._base_name(target.base)
            self._expr_reads(target.index, written, reads)
            if name in self.mem_of:
                writes.add(self._mem_pseudo(name))
                return
            slot = self._slot(name)
            writes.add(slot)
            # Partial writes merge with the current value, which is an
            # external read unless the signal was fully written first.
            if name not in written:
                reads.add(slot)
            return
        if isinstance(target, ast.PartSelect):
            name = self._base_name(target.base)
            slot = self._slot(name)
            writes.add(slot)
            msb = self._static_int(target.msb)
            lsb = self._static_int(target.lsb)
            if msb < lsb:
                msb, lsb = lsb, msb
            if lsb == 0 and msb + 1 >= self.widths[slot]:
                # Covers the whole signal: behaves as a full write.
                if blocking:
                    written.add(name)
                return
            if name not in written:
                reads.add(slot)
            return
        if isinstance(target, ast.IndexedPartSelect):
            name = self._base_name(target.base)
            slot = self._slot(name)
            self._expr_reads(target.start, written, reads)
            writes.add(slot)
            if name not in written:
                reads.add(slot)
            return
        raise UncompilableDesign(
            f"invalid assignment target {type(target).__name__}"
        )

    def _stmt_effects(self, stmt: ast.Stmt, written: Set[str],
                      reads: Set[int], writes: Set[int]) -> None:
        if isinstance(stmt, ast.Block):
            for inner in stmt.stmts:
                self._stmt_effects(inner, written, reads, writes)
            return
        if isinstance(stmt, ast.Assign):
            self._expr_reads(stmt.value, written, reads)
            self._lvalue_effects(stmt.target, stmt.blocking, written, reads,
                                 writes)
            return
        if isinstance(stmt, ast.If):
            self._expr_reads(stmt.cond, written, reads)
            then_written = set(written)
            self._stmt_effects(stmt.then, then_written, reads, writes)
            other_written = set(written)
            if stmt.other is not None:
                self._stmt_effects(stmt.other, other_written, reads, writes)
            written |= then_written & other_written
            return
        if isinstance(stmt, ast.Case):
            self._expr_reads(stmt.subject, written, reads)
            arm_written: List[Set[str]] = []
            has_default = False
            for item in stmt.items:
                for label in item.labels:
                    self._expr_reads(label, written, reads)
                if item.is_default:
                    has_default = True
                branch = set(written)
                self._stmt_effects(item.body, branch, reads, writes)
                arm_written.append(branch)
            if has_default and arm_written:
                common = set.intersection(*arm_written)
                written |= common
            return
        if isinstance(stmt, ast.For):
            self._stmt_effects(stmt.init, written, reads, writes)
            self._expr_reads(stmt.cond, written, reads)
            # The loop may run zero times: body/step writes are not
            # guaranteed, so they are analysed on a scratch set.
            scratch = set(written)
            self._stmt_effects(stmt.body, scratch, reads, writes)
            self._stmt_effects(stmt.step, scratch, reads, writes)
            return
        if isinstance(stmt, (ast.NullStmt, ast.SystemTaskCall)):
            return
        raise UncompilableDesign(f"cannot analyse {type(stmt).__name__}")

    # -- node assembly -------------------------------------------------------

    def _build_assign_node(self, assign):
        lvalue_width = self._lvalue_width(assign.target)
        value_fn = self._compile_expr(assign.value, lvalue_width, False)
        writer = self._compile_direct_write(assign.target)

        def run(st, mems):
            changed: List[int] = []
            writer(st, mems, value_fn(st, mems, None, None), changed)
            return changed

        reads: Set[int] = set()
        writes: Set[int] = set()
        self._expr_reads(assign.value, set(), reads)
        self._lvalue_effects(assign.target, True, set(), reads, writes)
        return run, reads, writes

    def _build_block_node(self, block):
        body = self._compile_stmt(block.body)
        n_signals = self.n_signals
        widths = self.widths

        if body is None:
            def run_empty(st, mems):
                return ()

            return run_empty, set(), set()

        def run(st, mems):
            overlay: Dict[int, int] = {}
            mem_overlay: Dict[Tuple[int, int], int] = {}
            nba: List[tuple] = []
            body(st, mems, overlay, mem_overlay, nba)
            changed: List[int] = []
            for slot, value in overlay.items():
                if st[slot] != value:
                    st[slot] = value
                    changed.append(slot)
            if mem_overlay:
                for (mem_slot, idx), value in mem_overlay.items():
                    column = mems[mem_slot]
                    if column[idx] != value:
                        column[idx] = value
                        changed.append(n_signals + mem_slot)
            if nba:
                _commit_nba(st, mems, nba, widths, n_signals, changed)
            return changed

        reads: Set[int] = set()
        writes: Set[int] = set()
        self._stmt_effects(block.body, set(), reads, writes)
        return run, reads, writes

    # -- top-level compile ---------------------------------------------------

    def _new_image(self) -> CompiledDesign:
        """Execution-image factory; the batch compiler returns its own."""
        return CompiledDesign()

    def compile(self) -> CompiledDesign:
        design = self.design
        cd = self._new_image()
        cd.design = design
        cd.n_signals = self.n_signals
        cd.slot_of = self.slot_of
        cd.names = list(design.signals)
        cd.widths = self.widths
        cd.masks = [(1 << w) - 1 for w in self.widths]
        cd.mem_of = self.mem_of
        cd.mem_names = list(design.memories)
        cd.mem_widths = self.mem_widths
        cd.mem_depths = self.mem_depths
        cd.mem_bases = self.mem_bases
        cd.comb_count = len(design.comb_assigns) + len(design.comb_blocks)

        node_reads: List[Set[int]] = []
        node_writes: List[Set[int]] = []
        node_read_masks: List[Dict[int, int]] = []
        for assign in design.comb_assigns:
            run, reads, writes = self._build_assign_node(assign)
            cd.nodes.append(run)
            node_reads.append(reads)
            node_writes.append(writes)
            node_read_masks.append(self._assign_read_masks(assign, reads))
        for block in design.comb_blocks:
            run, reads, writes = self._build_block_node(block)
            cd.nodes.append(run)
            node_reads.append(reads)
            node_writes.append(writes)
            # Blocks read under control flow: conservatively any bit.
            node_read_masks.append({ps: -1 for ps in reads})

        # Sequential blocks + trigger-bit slots.
        trigger_names = sorted(
            {name for block in design.seq_blocks for _, name in block.triggers}
        )
        trigger_index = {}
        trigger_slots = []
        for name in trigger_names:
            trigger_index[name] = len(trigger_slots)
            trigger_slots.append(self._slot(name))
        cd.trigger_slots = tuple(trigger_slots)
        for block in design.seq_blocks:
            body = self._compile_stmt(block.body)
            if body is None:
                # Extra args absorb the batch backend's lane predicate.
                def body(st, mems, o, mo, nba, *_pred):  # noqa: E731
                    return None
            triggers = [
                (1 if edge == "posedge" else 0, trigger_index[name])
                for edge, name in block.triggers
            ]
            cd.seq.append((triggers, body))

        for stmt in design.initial_stmts:
            fn = self._compile_stmt(stmt)
            if fn is not None:
                cd.initial.append(fn)

        self._schedule(cd, node_reads, node_writes, node_read_masks)
        return cd

    def _schedule(self, cd: CompiledDesign, node_reads, node_writes,
                  node_read_masks=None) -> None:
        """Levelize the comb region; fall back to fixpoint order if the
        static scheduler cannot order it (cycle, multi-driver, self-dep)."""
        n = len(cd.nodes)
        writers: Dict[int, List[int]] = {}
        readers: Dict[int, List[int]] = {}
        for i in range(n):
            for ps in node_writes[i]:
                writers.setdefault(ps, []).append(i)
            for ps in node_reads[i]:
                readers.setdefault(ps, []).append(i)
        cd.readers = {ps: tuple(nodes) for ps, nodes in readers.items()}
        cd.writers = {ps: tuple(nodes) for ps, nodes in writers.items()}
        if node_read_masks is not None:
            cd.read_masks = {
                ps: tuple(node_read_masks[i].get(ps, -1) for i in nodes)
                for ps, nodes in readers.items()
                # All-readers-read-all-bits slots need no mask row; the
                # runtime treats a missing entry as -1 for every reader.
                if any(node_read_masks[i].get(ps, -1) != -1 for i in nodes)
            }

        levelized = all(len(nodes) == 1 for nodes in writers.values())
        succs: List[Set[int]] = [set() for _ in range(n)]
        indegree = [0] * n
        if levelized:
            for i in range(n):
                for ps in node_reads[i]:
                    for w in writers.get(ps, ()):
                        if w == i:
                            levelized = False
                        elif i not in succs[w]:
                            succs[w].add(i)
                            indegree[i] += 1
        if levelized:
            ready = [i for i in range(n) if indegree[i] == 0]
            heapq.heapify(ready)
            topo: List[int] = []
            while ready:
                i = heapq.heappop(ready)
                topo.append(i)
                for j in succs[i]:
                    indegree[j] -= 1
                    if indegree[j] == 0:
                        heapq.heappush(ready, j)
            if len(topo) != n:
                levelized = False  # combinational cycle
            else:
                cd.topo = topo
                pos_of = [0] * n
                for pos, i in enumerate(topo):
                    pos_of[i] = pos
                cd.pos_of = pos_of
        cd.levelized = levelized


# ---------------------------------------------------------------------------
# Runtime
# ---------------------------------------------------------------------------


class CompiledSimulator(Simulator):
    """Executes a :class:`CompiledDesign` (see module docstring)."""

    def __init__(self, design: Design, max_settle_rounds: Optional[int] = None,
                 backend: Optional[str] = None):
        cd = compile_design(design)
        self.design = design
        self.cdesign = cd
        self.st: List[int] = [0] * cd.n_signals
        self.mem_data: List[List[int]] = [[0] * d for d in cd.mem_depths]
        self._max_rounds = max_settle_rounds or (2 * cd.comb_count + 16)
        self._heap: List[int] = []
        self._queued = bytearray(len(cd.nodes))
        #: readers skipped because an external write's changed-bit mask
        #: missed their recorded read bits (``sim.dirty.reader_skips``)
        self.stat_reader_skips = 0
        # Initial statements commit per statement, like the interpreter.
        for body in cd.initial:
            overlay: Dict[int, int] = {}
            mem_overlay: Dict[Tuple[int, int], int] = {}
            nba: List[tuple] = []
            body(self.st, self.mem_data, overlay, mem_overlay, nba)
            for slot, value in overlay.items():
                self.st[slot] = value
            for (mem_slot, idx), value in mem_overlay.items():
                self.mem_data[mem_slot][idx] = value
            _commit_nba(self.st, self.mem_data, nba, cd.widths, cd.n_signals,
                        [])
        if cd.levelized:
            for i in range(len(cd.nodes)):
                self._queued[i] = 1
                heapq.heappush(self._heap, cd.pos_of[i])
        self.settle()

    # -- state views ---------------------------------------------------------

    @property
    def state(self) -> Dict[str, int]:
        """Name-keyed *snapshot* of the flat signal state.

        Unlike the interpreter's live dict this is introspection-only:
        slot-indexed storage is the source of truth, so mutations of the
        returned dict do not reach the simulation — drive state through
        ``poke``/``poke_many`` instead.
        """
        return dict(zip(self.cdesign.names, self.st))

    @property
    def mems(self) -> Dict[str, List[int]]:
        """Name-keyed *snapshot* of the memory contents (see ``state``)."""
        return {
            name: list(column)
            for name, column in zip(self.cdesign.mem_names, self.mem_data)
        }

    def peek(self, name: str) -> int:
        try:
            return self.st[self.cdesign.slot_of[name]]
        except KeyError:
            raise SimulationError(f"peek of unknown signal {name!r}") from None

    def peek_mem(self, name: str, index: int) -> int:
        memory = self.design.memories[name]
        slot = index - memory.base
        if slot < 0 or slot >= memory.depth:
            raise SimulationError(f"memory index {index} out of range for {name!r}")
        return self.mem_data[self.cdesign.mem_of[name]][slot]

    # -- poke hooks ----------------------------------------------------------

    def _poke_pending(self, name: str, value: int) -> bool:
        cd = self.cdesign
        slot = cd.slot_of.get(name)
        if slot is None:
            self.design.signal(name)  # raises the canonical error
        return self.st[slot] != (value & cd.masks[slot])

    def _poke_apply(self, name: str, value: int) -> None:
        cd = self.cdesign
        slot = cd.slot_of[name]
        old = self.st[slot]
        new = value & cd.masks[slot]
        self.st[slot] = new
        if cd.levelized:
            self._mark_external_masked(slot, old ^ new)

    def _trigger_snapshot(self) -> List[int]:
        st = self.st
        return [st[s] & 1 for s in self.cdesign.trigger_slots]

    def _mark_external(self, pseudo_slot: int) -> None:
        self._mark_external_masked(pseudo_slot, -1)

    def _mark_external_masked(self, pseudo_slot: int, mask: int) -> None:
        """An out-of-schedule write landed on ``pseudo_slot``: re-run its
        readers *and* its driver (so a poked comb-driven net is restored,
        exactly as the interpreter's full-pass settle would).  ``mask``
        is the changed-bit mask (``old ^ new``; -1 = unknown/all):
        readers with a recorded read mask that does not intersect it —
        e.g. a static part-select of untouched bits of a wide bus — are
        skipped."""
        cd = self.cdesign
        queued = self._queued
        heap = self._heap
        pos_of = cd.pos_of
        readers = cd.readers.get(pseudo_slot, ())
        if readers:
            read_masks = cd.read_masks.get(pseudo_slot)
            skipped = 0
            for index, node in enumerate(readers):
                if read_masks is not None and not (read_masks[index] & mask):
                    skipped += 1
                    continue
                if not queued[node]:
                    queued[node] = 1
                    heapq.heappush(heap, pos_of[node])
            if skipped:
                self.stat_reader_skips += skipped
                obs.count("sim.dirty.reader_skips", skipped)
        for node in cd.writers.get(pseudo_slot, ()):
            if not queued[node]:
                queued[node] = 1
                heapq.heappush(heap, pos_of[node])

    # -- cycle kernel --------------------------------------------------------

    def cycle_fn(self, clock, input_names, output_names):
        """Slot-resolved cycle kernel (contract: ``Simulator.cycle_fn``).

        Three facts, all read off the :class:`CompiledDesign`, decide
        whether the cycle can skip the generic poke protocol: the comb
        region is levelized; the clock slot (if there is a clock) has no
        combinational reader or driver, so toggling it dirties nothing,
        its settle is a no-op, and the only blocks its edge fires are
        the ones listing it; and the drive cannot move a trigger bit (no
        driven input and no comb-driven net is a trigger slot), so the
        drive needs no edge pass.  Then a clock poke is a state write
        plus the blocks of that edge, followed by the generic loop's
        re-check of the trigger bits so ripple and derived clocks still
        cascade.  Any other design gets the generic kernel.
        """
        generic = super().cycle_fn(clock, input_names, output_names)
        cd = self.cdesign
        slot_of = cd.slot_of
        in_slots = [slot_of[name] for name in input_names]
        clk = None if clock is None else slot_of[clock]
        triggers = cd.trigger_slots
        if (
            not cd.levelized
            or clk in cd.readers
            or clk in cd.writers
            or not set(triggers).isdisjoint(in_slots)
            or not cd.writers.keys().isdisjoint(triggers)
        ):
            obs.count("sim.kernel.generic")
            return generic
        obs.count("sim.kernel.specialised")
        negedge: list = []
        posedge: list = []
        if clk in triggers:
            clk_bit = triggers.index(clk)
            negedge = [p for p in cd.seq if (0, clk_bit) in p[0]]
            posedge = [p for p in cd.seq if (1, clk_bit) in p[0]]
        drives = list(zip(in_slots, [cd.masks[s] for s in in_slots]))
        n_inputs = len(drives)
        out_slots = [slot_of[name] for name in output_names]
        if len(out_slots) > 1:
            sample = itemgetter(*out_slots)
        else:
            def sample(st):
                return tuple([st[s] for s in out_slots])
        st = self.st
        mark = self._mark_external_masked
        settle = self._settle_levelized
        fire = self._fire_edges

        def step(row):
            if len(row) != n_inputs:
                raise _row_length_error(len(row), n_inputs)
            for (slot, mask), value in zip(drives, row):
                old = st[slot]
                new = value & mask
                if old != new:
                    st[slot] = new
                    mark(slot, old ^ new)
            settle()
            if clk is None:
                return sample(st)
            # poke(clock, 0); poke(clock, 1).  A block may itself write
            # the clock slot, so both writes keep poke's pending test.
            old = st[clk]
            if old:
                st[clk] = 0
                if negedge and old & 1:
                    fire(None, negedge)
                old = st[clk]
            if old != 1:
                st[clk] = 1
                if posedge and not old & 1:
                    fire(None, posedge)
            return sample(st)

        return step

    # -- settle --------------------------------------------------------------

    def settle(self) -> None:
        """Propagate combinational logic (dirty cone, or fixpoint fallback)."""
        if self.cdesign.levelized:
            self._settle_levelized()
        else:
            self._settle_fixpoint()

    def _settle_levelized(self) -> None:
        heap = self._heap
        if not heap:
            return
        cd = self.cdesign
        st = self.st
        mems = self.mem_data
        nodes = cd.nodes
        topo = cd.topo
        pos_of = cd.pos_of
        readers = cd.readers
        queued = self._queued
        pop = heapq.heappop
        push = heapq.heappush
        while heap:
            node = topo[pop(heap)]
            queued[node] = 0
            changed = nodes[node](st, mems)
            if changed:
                for ps in changed:
                    for reader in readers.get(ps, ()):
                        if not queued[reader]:
                            queued[reader] = 1
                            push(heap, pos_of[reader])

    def _settle_fixpoint(self) -> None:
        st = self.st
        mems = self.mem_data
        nodes = self.cdesign.nodes
        for _ in range(self._max_rounds):
            changed = False
            for run in nodes:
                if run(st, mems):
                    changed = True
            if not changed:
                return
        raise SimulationError(
            "combinational logic failed to settle "
            f"within {self._max_rounds} rounds (combinational loop?)"
        )

    # -- sequential execution ------------------------------------------------

    def _fire_edges(self, snapshot: Optional[List[int]],
                    known: Optional[list] = None) -> None:
        """Fire the blocks whose trigger bits moved since ``snapshot``,
        cascading until no trigger moves.  ``known`` names the blocks of
        the first round when the caller already knows them (the cycle
        kernel, which then needs no ``snapshot``)."""
        cd = self.cdesign
        st = self.st
        trigger_slots = cd.trigger_slots
        seq = cd.seq
        for _ in range(self._max_rounds):
            current = [st[s] & 1 for s in trigger_slots]
            if known is not None:
                triggered, known = known, None
            else:
                if current == snapshot:
                    # No trigger bit moved, so no edge can fire: the exit
                    # 3 of the 4 edge scans per generic clock cycle take.
                    return
                triggered = [
                    proc
                    for proc in seq
                    if any(
                        snapshot[ti] != current[ti] and current[ti] == want
                        for want, ti in proc[0]
                    )
                ]
                if not triggered:
                    return
            self._run_seq_blocks(triggered)
            self.settle()
            snapshot = current
        raise SimulationError(
            "edge events failed to quiesce (oscillating clock loop?)"
        )

    def _run_seq_blocks(self, procs) -> None:
        cd = self.cdesign
        st = self.st
        mems = self.mem_data
        n_signals = cd.n_signals
        pending: List[tuple] = []
        changed: List[int] = []
        masks: Dict[int, int] = {}
        for _, body in procs:
            overlay: Dict[int, int] = {}
            mem_overlay: Dict[Tuple[int, int], int] = {}
            body(st, mems, overlay, mem_overlay, pending)
            # Blocking writes commit with the block; nonblocking updates
            # commit once, after every triggered block ran.
            for slot, value in overlay.items():
                old = st[slot]
                if old != value:
                    st[slot] = value
                    changed.append(slot)
                    masks[slot] = masks.get(slot, 0) | (old ^ value)
            for (mem_slot, idx), value in mem_overlay.items():
                column = mems[mem_slot]
                if column[idx] != value:
                    column[idx] = value
                    changed.append(n_signals + mem_slot)
                    masks[n_signals + mem_slot] = -1
        _commit_nba(st, mems, pending, cd.widths, n_signals, changed, masks)
        if cd.levelized:
            for ps in changed:
                self._mark_external_masked(ps, masks.get(ps, -1))
