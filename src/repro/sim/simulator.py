"""Runtime for elaborated designs: settle/poke/peek cycle semantics.

The simulator is cycle-based and two-state:

* ``poke`` drives a signal; any edge-triggered blocks sensitive to the
  resulting transition fire (this is how both clocks and async resets are
  driven), with nonblocking updates committed atomically afterwards;
  ``poke_many`` applies a whole stimulus vector with a single settle and
  a single edge-detection pass;
* combinational logic (continuous assigns + ``always @(*)``) re-settles to
  a fixpoint after every change, with an iteration bound that turns
  combinational loops into :class:`~repro.errors.SimulationError` instead
  of hangs (``max_settle_rounds``, which also bounds edge cascades, is
  the interpreter's: a compiled design settles in one pass and fires one
  edge function per event, so it has nothing to bound);
* ``peek`` reads any flat signal.

Two execution backends implement these semantics behind one constructor:

* :class:`InterpreterSimulator` — the AST-walking reference backend in
  this module.  Every settle round re-evaluates every combinational node
  until a global fixpoint; simple, slow, and treated as ground truth.
* :class:`~repro.sim.compile.CompiledSimulator` — the compile-once
  backend in :mod:`repro.sim.compile`: slot-indexed state, expressions
  and statements lowered to generated Python source, the combinational
  region levelized into a topologically sorted schedule that one pass
  settles, and every edge event one generated function call.

``Simulator(design)`` picks the backend: ``"auto"`` (the default,
overridable via :func:`set_default_backend`) compiles the design and
falls back to the interpreter when the compiler cannot statically lower
it — a design it cannot size, whose combinational region does not
levelize (a combinational cycle, several drivers of one signal, a node
reading what it drives), or whose edges cascade or split across clock
domains (a block that can move a trigger, two triggers whose edges fire
block sets that do not nest) — and counts ``sim.interp_fallback``, so
combinational loops and oscillating clocks are always classified by the
interpreter's fixpoints; ``"compiled"`` requires the compiled backend and
refuses those designs; ``"interp"`` forces the interpreter.  Both
backends are cycle-identical (enforced by the differential tests in
``tests/test_sim_compile.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.errors import SimulationError
from repro.verilog import ast
from repro.sim.elaborate import CombAssign, CombBlock, Design, SeqBlock
from repro.sim.eval import eval_expr, self_width
from repro.sim.values import mask

_MAX_LOOP_ITERS = 1 << 16

BACKENDS = ("auto", "compiled", "interp")

_DEFAULT_BACKEND = "auto"


def default_backend() -> str:
    """The backend ``Simulator`` uses when none is passed explicitly."""
    return _DEFAULT_BACKEND


def set_default_backend(name: str) -> str:
    """Set the process-wide default backend; returns the previous value."""
    global _DEFAULT_BACKEND
    if name not in BACKENDS:
        raise SimulationError(
            f"unknown simulator backend {name!r} (expected one of {BACKENDS})"
        )
    previous = _DEFAULT_BACKEND
    _DEFAULT_BACKEND = name
    return previous


def _row_length_error(got: int, want: int) -> ValueError:
    return ValueError(
        f"cycle kernel row has {got} values; expected {want} "
        "(one per input name)"
    )


def _episode(step: Callable[[Sequence[int]], Tuple[int, ...]]):
    """``Simulator.replay_fn``'s contract over any cycle kernel."""
    count = obs.count

    def replay(rows, trace):
        cycle = -1
        try:
            for cycle, (row, expected) in enumerate(zip(rows, trace)):
                actual = step(row)
                if actual != expected:
                    return cycle, actual
            return cycle + 1, None
        finally:
            count("sim.cycles", cycle + 1)

    return replay


class _SimScope:
    """Evaluator scope reading simulator state through a blocking overlay."""

    def __init__(self, sim: "InterpreterSimulator",
                 overlay: Optional[Dict[str, int]] = None,
                 mem_overlay: Optional[Dict[Tuple[str, int], int]] = None) -> None:
        self._sim = sim
        self.overlay = overlay if overlay is not None else {}
        self.mem_overlay = mem_overlay if mem_overlay is not None else {}

    def read(self, name: str) -> int:
        if name in self.overlay:
            return self.overlay[name]
        try:
            return self._sim.state[name]
        except KeyError:
            raise SimulationError(f"read of unknown signal {name!r}") from None

    def width_of(self, name: str) -> int:
        return self._sim.design.signal(name).width

    def is_signed(self, name: str) -> bool:
        return self._sim.design.signal(name).signed

    def is_mem(self, name: str) -> bool:
        return name in self._sim.design.memories

    def mem_width(self, name: str) -> int:
        return self._sim.design.memories[name].width

    def read_mem(self, name: str, index: int) -> int:
        memory = self._sim.design.memories[name]
        slot = index - memory.base
        if slot < 0 or slot >= memory.depth:
            return 0  # out-of-range read: two-state stand-in for X
        key = (name, slot)
        if key in self.mem_overlay:
            return self.mem_overlay[key]
        return self._sim.mems[name][slot]


class _NBAUpdate:
    """A deferred nonblocking write, captured with its resolved location."""

    __slots__ = ("kind", "name", "lo", "width", "value")

    def __init__(self, kind: str, name: str, lo: int, width: int, value: int):
        self.kind = kind  # "signal" | "mem"
        self.name = name
        self.lo = lo      # bit offset, or memory slot
        self.width = width
        self.value = value


class Simulator:
    """Executes an elaborated :class:`~repro.sim.elaborate.Design`.

    This class is a transparent facade over the cycle-identical
    backends.  Constructing ``Simulator(design)`` returns an
    :class:`InterpreterSimulator` or a
    :class:`~repro.sim.compile.CompiledSimulator` depending on
    ``backend`` (``"auto"`` / ``"compiled"`` / ``"interp"``; ``None``
    means the process default, see :func:`set_default_backend`).  Both
    expose the same observable API: ``poke``, ``poke_many``, ``peek``,
    ``peek_mem``, ``settle``, ``cycle_fn`` (a whole testbench cycle as
    one call), ``replay_fn`` (a whole episode against a recorded trace as
    one call), and ``state`` / ``mems`` views of the flat state.  Under
    ``"auto"`` a design the compiler cannot lower falls back to the
    interpreter.

    Example (any backend name gives the same cycles):

    >>> from repro.sim import Simulator, elaborate
    >>> from repro.verilog import parse_source
    >>> design = elaborate(parse_source(
    ...     "module c(input clk, output reg [3:0] q);"
    ...     " always @(posedge clk) q <= q + 1; endmodule"), "c")
    >>> sim = Simulator(design)           # "auto": the compiled backend
    >>> for _ in range(3):
    ...     sim.poke("clk", 0); sim.poke("clk", 1)
    >>> sim.peek("q")
    3
    """

    def __new__(cls, design: Design, max_settle_rounds: Optional[int] = None,
                backend: Optional[str] = None):
        if cls is not Simulator:
            return object.__new__(cls)
        choice = backend or _DEFAULT_BACKEND
        if choice not in BACKENDS:
            raise SimulationError(
                f"unknown simulator backend {choice!r} "
                f"(expected one of {BACKENDS})"
            )
        if choice == "interp":
            return object.__new__(InterpreterSimulator)
        from repro.sim.compile import (
            CompiledSimulator,
            UncompilableDesign,
            compile_design,
        )
        try:
            compile_design(design)
        except UncompilableDesign as exc:
            if choice == "compiled":
                raise SimulationError(
                    f"design does not compile: {exc}"
                ) from None
            obs.count("sim.interp_fallback")
            return object.__new__(InterpreterSimulator)
        return object.__new__(CompiledSimulator)

    # -- shared poke protocol ------------------------------------------------
    #
    # Both backends implement `_poke_pending` (would this poke change
    # state?), `_poke_apply` (write the masked value), `_trigger_snapshot`
    # (trigger-signal bits as a list), `settle`, and `_fire_edges`.

    def poke(self, name: str, value: int) -> None:
        """Drive ``name`` to ``value``; fire any triggered edge blocks.

        Edge detection compares trigger-signal values before the poke with
        their values after combinational settle, so edges that propagate
        through hierarchy glue or derived-clock logic are seen.  On the
        interpreter, blocks whose updates create further edges (ripple
        counters) fire in cascading rounds, bounded to catch oscillating
        clock loops; the compiler admits no such design, so a compiled
        edge event is one generated function call.
        """
        if not self._poke_pending(name, value):
            return
        snapshot = self._trigger_snapshot()
        self._poke_apply(name, value)
        self.settle()
        self._fire_edges(snapshot)

    def poke_many(self, values: Mapping[str, int]) -> None:
        """Apply a whole stimulus vector with one settle + one edge pass.

        Equivalent to poking every entry "at the same instant": all values
        land before combinational logic re-settles, and edge detection
        compares trigger bits from before the first write against the
        post-settle state.  One batched call replaces N per-poke settles
        and N edge-detection passes, which is the hot loop of
        :meth:`repro.sim.testbench.Testbench.drive`.
        """
        snapshot = None
        for name, value in values.items():
            if not self._poke_pending(name, value):
                continue
            if snapshot is None:
                snapshot = self._trigger_snapshot()
            self._poke_apply(name, value)
        if snapshot is None:
            return
        self.settle()
        self._fire_edges(snapshot)

    def cycle_fn(
        self,
        clock: Optional[str],
        input_names: Sequence[str],
        output_names: Sequence[str],
    ) -> Callable[[Sequence[int]], Tuple[int, ...]]:
        """One testbench cycle as a single call: ``step(row) -> outputs``.

        The contract of ``step`` is exactly the four-call sequence ::

            poke_many(dict(zip(input_names, row)))
            poke(clock, 0)
            poke(clock, 1)
            tuple(peek(name) for name in output_names)

        (``clock=None``: drive and sample only), with state, cascades and
        ``SimulationError`` text identical to making those calls by hand.
        Names are resolved when the kernel is built — an unknown name
        raises here, with the error the corresponding call would raise —
        and a ``row`` whose length is not ``len(input_names)`` is a
        ``ValueError``.  This generic implementation *is* the sequence;
        :class:`~repro.sim.compile.CompiledSimulator` overrides it.
        """
        input_names = tuple(input_names)
        output_names = tuple(output_names)
        for name in input_names if clock is None else (*input_names, clock):
            self.design.signal(name)
        poke_many, poke, peek = self.poke_many, self.poke, self.peek
        for name in output_names:
            peek(name)
        n_inputs = len(input_names)

        def step(row: Sequence[int]) -> Tuple[int, ...]:
            if len(row) != n_inputs:
                raise _row_length_error(len(row), n_inputs)
            poke_many(dict(zip(input_names, row)))
            if clock is not None:
                poke(clock, 0)
                poke(clock, 1)
            return tuple([peek(name) for name in output_names])

        return step

    def replay_fn(
        self,
        clock: Optional[str],
        input_names: Sequence[str],
        output_names: Sequence[str],
    ) -> Callable[[Sequence[Sequence[int]], Sequence[Tuple[int, ...]]],
                  Tuple[int, Optional[Tuple[int, ...]]]]:
        """One episode against a recorded trace as a single call:
        ``replay(rows, trace) -> (cycles_matched, outputs)``.

        The contract is the :meth:`cycle_fn` loop with an early exit ::

            for cycle, (row, expected) in enumerate(zip(rows, trace)):
                actual = step(row)
                if actual != expected:
                    return cycle, actual
            return <cycles stepped>, None

        so ``outputs`` is None when every compared cycle matched, state,
        cascades and ``SimulationError`` text (which propagates) are the
        cycle kernel's, and names resolve when the episode kernel is
        built.  It counts the cycles it started, the mismatching or
        failing one included, under ``sim.cycles``.  Every backend runs
        this loop over its own :meth:`cycle_fn`.
        """
        return _episode(self.cycle_fn(clock, input_names, output_names))

    # -- backend hooks -------------------------------------------------------

    def _poke_pending(self, name: str, value: int) -> bool:
        raise NotImplementedError

    def _poke_apply(self, name: str, value: int) -> None:
        raise NotImplementedError

    def _trigger_snapshot(self) -> List[int]:
        raise NotImplementedError

    def settle(self) -> None:
        raise NotImplementedError

    def _fire_edges(self, snapshot: List[int]) -> None:
        raise NotImplementedError


class InterpreterSimulator(Simulator):
    """AST-interpreting reference backend (ground truth for differentials)."""

    def __init__(self, design: Design, max_settle_rounds: Optional[int] = None,
                 backend: Optional[str] = None):
        self.design = design
        self.state: Dict[str, int] = {name: 0 for name in design.signals}
        self.mems: Dict[str, List[int]] = {
            name: [0] * memory.depth for name, memory in design.memories.items()
        }
        comb_count = len(design.comb_assigns) + len(design.comb_blocks)
        self._max_rounds = max_settle_rounds or (2 * comb_count + 16)
        #: Every signal that appears in an edge sensitivity list anywhere in
        #: the flattened design.  Edges on these are detected after every
        #: settle, so clocks that reach child instances through port glue
        #: (or derived/gated clocks) fire correctly.
        self._trigger_signals = sorted(
            {name for block in design.seq_blocks for _, name in block.triggers}
        )
        trigger_index = {name: i for i, name in enumerate(self._trigger_signals)}
        #: Per seq block: (wanted post-edge bit, trigger list index) pairs,
        #: resolved once so edge detection never rebuilds name dicts.
        self._block_triggers = [
            [
                (1 if edge == "posedge" else 0, trigger_index[name])
                for edge, name in block.triggers
            ]
            for block in design.seq_blocks
        ]
        self._run_initial()
        self.settle()

    # -- poke hooks ---------------------------------------------------------

    def _poke_pending(self, name: str, value: int) -> bool:
        signal = self.design.signal(name)
        return self.state[name] != mask(value, signal.width)

    def _poke_apply(self, name: str, value: int) -> None:
        self.state[name] = mask(value, self.design.signal(name).width)

    def _trigger_snapshot(self) -> List[int]:
        state = self.state
        return [state[s] & 1 for s in self._trigger_signals]

    def _fire_edges(self, snapshot: List[int]) -> None:
        state = self.state
        names = self._trigger_signals
        for _ in range(self._max_rounds):
            current = [state[s] & 1 for s in names]
            triggered = [
                block
                for block, triggers in zip(
                    self.design.seq_blocks, self._block_triggers
                )
                if any(
                    snapshot[ti] != current[ti] and current[ti] == want
                    for want, ti in triggers
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

    def peek(self, name: str) -> int:
        try:
            return self.state[name]
        except KeyError:
            raise SimulationError(f"peek of unknown signal {name!r}") from None

    def peek_mem(self, name: str, index: int) -> int:
        memory = self.design.memories.get(name)
        if memory is None:
            raise SimulationError(f"peek_mem of unknown memory {name!r}")
        slot = index - memory.base
        if slot < 0 or slot >= memory.depth:
            raise SimulationError(f"memory index {index} out of range for {name!r}")
        return self.mems[name][slot]

    def settle(self) -> None:
        """Propagate combinational logic to a fixpoint."""
        for _ in range(self._max_rounds):
            changed = False
            for assign in self.design.comb_assigns:
                if self._apply_comb_assign(assign):
                    changed = True
            for block in self.design.comb_blocks:
                if self._run_comb_block(block):
                    changed = True
            if not changed:
                return
        raise SimulationError(
            "combinational logic failed to settle "
            f"within {self._max_rounds} rounds (combinational loop?)"
        )

    # -- initial / sequential execution --------------------------------------

    def _run_initial(self) -> None:
        for stmt in self.design.initial_stmts:
            scope = _SimScope(self)
            nba: List[_NBAUpdate] = []
            self._exec_stmt(stmt, scope, nba)
            self._commit_overlay(scope)
            self._commit_nba(nba)

    def _run_seq_blocks(self, blocks: List[SeqBlock]) -> None:
        """Run edge blocks concurrently: all read pre-edge state, then all
        nonblocking updates commit at once."""
        pending: List[_NBAUpdate] = []
        for block in blocks:
            scope = _SimScope(self)
            self._exec_stmt(block.body, scope, pending)
            # Blocking writes inside an edge block commit with the block
            # (they model local variables / intermediate nets).
            self._commit_overlay(scope)
        self._commit_nba(pending)

    def _commit_overlay(self, scope: _SimScope) -> None:
        for name, value in scope.overlay.items():
            self.state[name] = value
        for (name, slot), value in scope.mem_overlay.items():
            self.mems[name][slot] = value

    def _commit_nba(self, updates: List[_NBAUpdate]) -> bool:
        changed = False
        for upd in updates:
            if upd.kind == "mem":
                memory = self.design.memories[upd.name]
                if 0 <= upd.lo < memory.depth:
                    new = mask(upd.value, memory.width)
                    if self.mems[upd.name][upd.lo] != new:
                        self.mems[upd.name][upd.lo] = new
                        changed = True
                continue
            signal = self.design.signal(upd.name)
            keep = self.state[upd.name]
            if upd.lo == 0 and upd.width >= signal.width:
                new = mask(upd.value, signal.width)
            else:
                field_mask = ((1 << upd.width) - 1) << upd.lo
                new = (keep & ~field_mask) | (
                    (mask(upd.value, upd.width) << upd.lo) & field_mask
                )
            if new != keep:
                self.state[upd.name] = new
                changed = True
        return changed

    # -- combinational execution ---------------------------------------------

    def _apply_comb_assign(self, assign: CombAssign) -> bool:
        scope = _SimScope(self)
        width = self._lvalue_width(assign.target, scope)
        value = eval_expr(assign.value, scope, width)
        return self._write_lvalue(assign.target, value, scope, blocking=True,
                                  nba=None, direct=True)

    def _run_comb_block(self, block: CombBlock) -> bool:
        scope = _SimScope(self)
        nba: List[_NBAUpdate] = []
        self._exec_stmt(block.body, scope, nba)
        changed = False
        for name, value in scope.overlay.items():
            if self.state[name] != value:
                self.state[name] = value
                changed = True
        for (name, slot), value in scope.mem_overlay.items():
            if self.mems[name][slot] != value:
                self.mems[name][slot] = value
                changed = True
        if self._commit_nba(nba):
            changed = True
        return changed

    # -- statement execution --------------------------------------------------

    def _exec_stmt(
        self, stmt: ast.Stmt, scope: _SimScope, nba: List[_NBAUpdate]
    ) -> None:
        if isinstance(stmt, ast.Block):
            for inner in stmt.stmts:
                self._exec_stmt(inner, scope, nba)
            return
        if isinstance(stmt, ast.Assign):
            width = self._lvalue_width(stmt.target, scope)
            value = eval_expr(stmt.value, scope, width)
            self._write_lvalue(
                stmt.target, value, scope, blocking=stmt.blocking, nba=nba
            )
            return
        if isinstance(stmt, ast.If):
            if eval_expr(stmt.cond, scope) != 0:
                self._exec_stmt(stmt.then, scope, nba)
            elif stmt.other is not None:
                self._exec_stmt(stmt.other, scope, nba)
            return
        if isinstance(stmt, ast.Case):
            self._exec_case(stmt, scope, nba)
            return
        if isinstance(stmt, ast.For):
            self._exec_for(stmt, scope, nba)
            return
        if isinstance(stmt, (ast.NullStmt, ast.SystemTaskCall)):
            return
        raise SimulationError(f"cannot execute {type(stmt).__name__}")

    def _exec_case(
        self, stmt: ast.Case, scope: _SimScope, nba: List[_NBAUpdate]
    ) -> None:
        # Case comparison width is the max over the subject and every
        # label (IEEE 1364 case sizing); the subject is evaluated once at
        # that width instead of once per label.
        width = self_width(stmt.subject, scope)
        for item in stmt.items:
            for label in item.labels:
                label_width = self_width(label, scope)
                if label_width > width:
                    width = label_width
        subject = eval_expr(stmt.subject, scope, width)
        default: Optional[ast.CaseItem] = None
        for item in stmt.items:
            if item.is_default:
                default = item
                continue
            for label in item.labels:
                value = eval_expr(label, scope, width)
                wildcard = 0
                if stmt.kind in ("casez", "casex") and isinstance(
                    label, ast.Number
                ):
                    wildcard = label.unknown_mask
                if (subject & ~wildcard) == (value & ~wildcard):
                    self._exec_stmt(item.body, scope, nba)
                    return
        if default is not None:
            self._exec_stmt(default.body, scope, nba)

    def _exec_for(
        self, stmt: ast.For, scope: _SimScope, nba: List[_NBAUpdate]
    ) -> None:
        self._exec_stmt(stmt.init, scope, nba)
        iterations = 0
        while eval_expr(stmt.cond, scope) != 0:
            self._exec_stmt(stmt.body, scope, nba)
            self._exec_stmt(stmt.step, scope, nba)
            iterations += 1
            if iterations > _MAX_LOOP_ITERS:
                raise SimulationError(
                    f"for-loop exceeded {_MAX_LOOP_ITERS} iterations"
                )

    # -- lvalue handling --------------------------------------------------

    def _lvalue_width(self, target: ast.Expr, scope: _SimScope) -> int:
        if isinstance(target, ast.Identifier):
            return scope.width_of(target.name)
        if isinstance(target, ast.Concat):
            return sum(self._lvalue_width(p, scope) for p in target.parts)
        if isinstance(target, ast.Index):
            name = self._target_name(target.base)
            if scope.is_mem(name):
                return scope.mem_width(name)
            return 1
        if isinstance(target, ast.PartSelect):
            msb = eval_expr(target.msb, scope)
            lsb = eval_expr(target.lsb, scope)
            return abs(msb - lsb) + 1
        if isinstance(target, ast.IndexedPartSelect):
            return eval_expr(target.width, scope)
        raise SimulationError(
            f"invalid assignment target {type(target).__name__}"
        )

    @staticmethod
    def _target_name(expr: ast.Expr) -> str:
        if not isinstance(expr, ast.Identifier):
            raise SimulationError("assignment target must be a named signal")
        return expr.name

    def _write_lvalue(
        self,
        target: ast.Expr,
        value: int,
        scope: _SimScope,
        blocking: bool,
        nba: Optional[List[_NBAUpdate]],
        direct: bool = False,
    ) -> bool:
        """Write ``value`` to ``target``.

        ``direct`` writes go straight to simulator state (continuous
        assigns) and return whether state changed; procedural writes go to
        the blocking overlay or the NBA list and return False.
        """
        if isinstance(target, ast.Concat):
            changed = False
            # First part is most significant.
            widths = [self._lvalue_width(p, scope) for p in target.parts]
            total = sum(widths)
            offset = total
            for part, part_width in zip(target.parts, widths):
                offset -= part_width
                chunk = mask(value >> offset, part_width)
                if self._write_lvalue(
                    part, chunk, scope, blocking, nba, direct
                ):
                    changed = True
            return changed

        name, lo, width, is_mem = self._resolve_location(target, scope)
        if is_mem:
            memory = self.design.memories[name]
            if lo < 0 or lo >= memory.depth:
                return False  # out-of-range write ignored
            value = mask(value, memory.width)
            if direct:
                raise SimulationError(
                    "continuous assignment to memory element is not supported"
                )
            if blocking:
                scope.mem_overlay[(name, lo)] = value
            else:
                assert nba is not None
                nba.append(_NBAUpdate("mem", name, lo, memory.width, value))
            return False

        signal = self.design.signal(name)
        if direct:
            full = self.state[name]
            if lo == 0 and width >= signal.width:
                new = mask(value, signal.width)
            else:
                field_mask = ((1 << width) - 1) << lo
                new = (full & ~field_mask) | (
                    (mask(value, width) << lo) & field_mask
                )
            if new == full:
                return False
            self.state[name] = new
            return True
        if blocking:
            current = scope.read(name)
            if lo == 0 and width >= signal.width:
                scope.overlay[name] = mask(value, signal.width)
            else:
                field_mask = ((1 << width) - 1) << lo
                scope.overlay[name] = (current & ~field_mask) | (
                    (mask(value, width) << lo) & field_mask
                )
        else:
            assert nba is not None
            nba.append(_NBAUpdate("signal", name, lo, width, value))
        return False

    def _resolve_location(
        self, target: ast.Expr, scope: _SimScope
    ) -> Tuple[str, int, int, bool]:
        """Resolve a non-concat lvalue to (name, offset, width, is_mem)."""
        if isinstance(target, ast.Identifier):
            if scope.is_mem(target.name):
                raise SimulationError(
                    f"cannot assign whole memory {target.name!r}"
                )
            return target.name, 0, scope.width_of(target.name), False
        if isinstance(target, ast.Index):
            name = self._target_name(target.base)
            index = eval_expr(target.index, scope)
            if scope.is_mem(name):
                memory = self.design.memories[name]
                return name, index - memory.base, memory.width, True
            return name, index, 1, False
        if isinstance(target, ast.PartSelect):
            name = self._target_name(target.base)
            msb = eval_expr(target.msb, scope)
            lsb = eval_expr(target.lsb, scope)
            if msb < lsb:
                msb, lsb = lsb, msb
            return name, lsb, msb - lsb + 1, False
        if isinstance(target, ast.IndexedPartSelect):
            name = self._target_name(target.base)
            start = eval_expr(target.start, scope)
            width = eval_expr(target.width, scope)
            lo = start if target.ascending else start - width + 1
            return name, max(lo, 0), width, False
        raise SimulationError(
            f"invalid assignment target {type(target).__name__}"
        )
