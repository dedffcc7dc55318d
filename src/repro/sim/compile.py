"""Compiled execution backend: levelized, slot-indexed RTL as generated Python.

:func:`compile_design` lowers an elaborated
:class:`~repro.sim.elaborate.Design` once into a :class:`CompiledDesign`;
the staging is resolve, schedule, *then* generate text:

* **slot-indexed state** — every signal resolves to an integer slot in a
  flat list (memories to an index into a list of lists), with widths,
  masks, and signedness frozen at compile time;
* **levelized scheduling** — the combinational region is topologically
  sorted into a single-pass schedule, or refused (see below);
* **generated source** — :class:`_SourceCompiler` walks every expression
  and statement once and emits Python source: every width and signedness
  decision is taken at emission, constant subtrees fold to int literals,
  blocking writes live in function locals.  The text has one form:
  ``comb(st, mems)``, every combinational node in schedule order (the
  one combinational evaluator: it is ``settle``); ``init(st, mems)``,
  the ``initial`` statements, each committing before the next; and one
  ``e<pol>_<trigger>(st, mems)`` per (edge, trigger bit): that edge's
  blocks in declaration order, blocking writes committed per block,
  nonblocking updates held in per-slot locals and committed once after
  all blocks, then ``comb``.  :meth:`CompiledSimulator.cycle_fn` (which
  the episode kernel ``replay_fn`` loops) steps the clock's edge
  functions directly when the drive cannot move a trigger; ``poke`` runs
  them too;
* **one call per edge event, or the interpreter** — no sequential block
  may write a trigger or a slot in a trigger's combinational fan-in
  (ripple counters, a block writing its clock, register-gated clocks,
  oscillators), and for two different triggers the block sets of their
  edges must nest (two clock domains do not), so the edge that fires
  the most blocks is the whole event.  ``posedge clk or posedge rst``
  and ``or negedge rst_n`` pass both;
* **lower once, compile lazily** — emission happens inside
  :func:`compile_design` (so :class:`UncompilableDesign` is raised
  there); the text is byte-compiled the first time a simulator runs it,
  so a candidate that rides the numpy lanes never pays for it;
* **never persisted** — a pickled ``Design`` drops its image (see
  ``Design.__getstate__``), so a restored design lowers again on first
  run.  There is deliberately no process-wide memo of code by text or
  digest either: a cold check must stay cold.

**No character of the Verilog source reaches the text**: signals are slot
numbers, string literals fold to ints, ``$display`` is dropped, the
``compile()`` filename is a constant, and the functions run with empty
``__builtins__`` over ``st``, ``mems`` and a fixed set of helpers
(pinned by ``TestGeneratedTextIsClosed`` in ``tests/test_sim_compile.py``).

The scheduler refuses to levelize regions it cannot order statically —
combinational cycles, several combinational drivers of one signal, or a
node that reads a value it also drives.  A whole-signal identity
``assign x = x;`` is not such a node: it stores what it reads, so it is
scheduled with no body and no effects.  Those designs, the ones whose
edges cascade or split across clock domains, and the ones the compiler
cannot statically *size* (e.g. part selects with non-constant bounds)
raise :class:`UncompilableDesign`; under ``backend="auto"`` the
:class:`~repro.sim.simulator.Simulator` facade then runs them on the
interpreter, whose bounded fixpoints classify combinational loops and
oscillating clocks, and ``backend="compiled"`` refuses them.

Cycle-identity with :class:`~repro.sim.simulator.InterpreterSimulator` is
enforced by differential tests over every ``vgen`` family and the vereval
problem set (``tests/test_sim_compile.py``; ``TestCycleKernel`` is the
oracle for the kernels, ``TestEdgeAdmission`` for the admission rule).
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
from repro.sim.simulator import (
    _MAX_LOOP_ITERS,
    Simulator,
    _row_length_error,
)

__all__ = [
    "CompiledDesign",
    "CompiledSimulator",
    "UncompilableDesign",
    "compile_design",
]


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


# ---------------------------------------------------------------------------
# Helpers the generated text may call (its whole vocabulary beyond
# ``st``, ``mems`` and its own locals; see ``CompiledDesign._load``)
# ---------------------------------------------------------------------------


def _commit_nba(st, mems, updates, widths) -> None:
    """Commit nonblocking updates in order.

    Mirrors ``InterpreterSimulator._commit_nba`` update-for-update.
    Updates are ``(is_mem, slot, lo, width, value)`` tuples.
    """
    for is_mem, slot, lo, width, value in updates:
        if is_mem:
            column = mems[slot]
            if 0 <= lo < len(column):
                column[lo] = value & ((1 << width) - 1)
            continue
        sig_width = widths[slot]
        if lo == 0 and width >= sig_width:
            st[slot] = value & ((1 << sig_width) - 1)
        else:
            field_mask = ((1 << width) - 1) << lo
            st[slot] = (st[slot] & ~field_mask) | (
                ((value & ((1 << width) - 1)) << lo) & field_mask
            )


def _parity(value: int) -> int:
    return bin(value).count("1") & 1


def _clog2(value: int) -> int:
    return 0 if value <= 1 else (value - 1).bit_length()


def _sdivmod(a: int, b: int, width: int, want_div: int) -> int:
    """Signed ``/`` (``want_div``) or ``%`` of two ``width``-bit values,
    truncating toward zero; division by zero is 0 (two-state X)."""
    if b == 0:
        return 0
    sign_bit = 1 << (width - 1)
    a = (a ^ sign_bit) - sign_bit
    b = (b ^ sign_bit) - sign_bit
    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient
    result = quotient if want_div else a - b * quotient
    return result & ((1 << width) - 1)


def _loop_error() -> SimulationError:
    return SimulationError(f"for-loop exceeded {_MAX_LOOP_ITERS} iterations")


#: ``compile()`` filename of every generated module: a constant, so no
#: design-derived string reaches a code object
_FILENAME = "<repro.sim.compile>"


class CompiledDesign:
    """The compile-once execution image of one elaborated design."""

    #: the scheduler refuses any region it cannot levelize
    levelized = True

    __slots__ = (
        "design", "n_signals", "slot_of", "names", "widths", "masks",
        "mem_of", "mem_names", "mem_widths", "mem_depths", "mem_bases",
        "nodes", "topo", "readers", "writers", "seq", "trigger_slots",
        "trigger_fanin", "initial", "source", "code", "_fused",
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
        #: combinational nodes in declaration order (``None`` once the
        #: fused ``comb`` holds them; the lane dialect keeps closures)
        self.nodes: List[Optional[Callable]] = []
        self.topo: List[int] = []     # schedule position -> node index
        self.readers: Dict[int, Tuple[int, ...]] = {}
        self.writers: Dict[int, Tuple[int, ...]] = {}
        #: seq blocks: (trigger list [(wanted bit, index)], None); the
        #: bodies live in the edge functions
        self.seq: List[Tuple[List[Tuple[int, int]], None]] = []
        self.trigger_slots: Tuple[int, ...] = ()
        #: the trigger slots and every slot (memories as pseudo-slots) in
        #: their combinational fan-in: what can move a trigger bit
        self.trigger_fanin: frozenset = frozenset()
        #: one entry per non-empty ``initial`` statement (all in ``init``)
        self.initial: List[None] = []
        #: the generated Python source
        self.source: Optional[str] = None
        #: its code object, once something has run it
        self.code = None
        self._fused: Optional[dict] = None

    def attach(self, design: Design) -> None:
        """Resolve ``design``'s signals and memories to slots."""
        self.design = design
        self.names = list(design.signals)
        self.slot_of = {name: slot for slot, name in enumerate(self.names)}
        self.n_signals = len(self.names)
        self.widths = [sig.width for sig in design.signals.values()]
        self.masks = [(1 << width) - 1 for width in self.widths]
        self.mem_names = list(design.memories)
        self.mem_of = {name: slot for slot, name in enumerate(self.mem_names)}
        memories = design.memories.values()
        self.mem_widths = [memory.width for memory in memories]
        self.mem_depths = [memory.depth for memory in memories]
        self.mem_bases = [memory.base for memory in memories]

    # -- the generated functions ---------------------------------------------

    def fused(self) -> dict:
        """The generated functions by name: ``comb`` and ``init`` (each
        absent when the design has no combinational node, no ``initial``
        statement) and ``e<pol>_<trigger index>``."""
        if self._fused is None:
            self._fused = self._load()
        return self._fused

    def _load(self) -> dict:
        if self.code is None:
            self.code = compile(
                self.source, _FILENAME, "exec", dont_inherit=True
            )
        namespace = {
            "__builtins__": {},
            "commit": _commit_nba,
            "parity": _parity,
            "clog2": _clog2,
            "sdivmod": _sdivmod,
            "loop_error": _loop_error,
            "W": self.widths,
        }
        exec(self.code, namespace)
        return namespace


def _lower(design: Design) -> CompiledDesign:
    with obs.span("sim.compile"):
        compiled = _SourceCompiler(design).compile()
    obs.count("sim.codegen.emitted")
    obs.count("sim.codegen.lines", compiled.source.count("\n"))
    return compiled


def compile_design(design: Design) -> CompiledDesign:
    """Compile ``design``, caching the result on the design object."""
    cached = getattr(design, "_compiled", None)
    if cached is not None:
        return cached
    compiled = _lower(design)
    design._compiled = compiled
    return compiled


# ---------------------------------------------------------------------------
# Compiler: resolve and schedule (shared by every dialect)
# ---------------------------------------------------------------------------


def _edges_nest(seq) -> bool:
    """Whether, for every two different trigger bits, the block sets of
    their edges nest (one holds the other)."""
    fires: Dict[Tuple[int, int], Set[int]] = {}
    for j, (triggers, _) in enumerate(seq):
        for edge in triggers:
            fires.setdefault(edge, set()).add(j)
    return all(
        blocks <= others or others <= blocks
        for (_, bit), blocks in fires.items()
        for (_, other), others in fires.items()
        if bit < other
    )


class _Compiler:
    """Resolve and schedule: static sizing, read/write sets, the levelized
    order.  What is emitted for each expression and statement is a
    dialect's business (:class:`_SourceCompiler` here,
    ``repro.sim.batch._BatchCompiler`` for numpy lanes)."""

    def __init__(self, design: Design) -> None:
        self.design = design
        image = self._image = self._new_image()
        image.attach(design)
        self.slot_of = image.slot_of
        self.widths = image.widths
        self.signed = [sig.signed for sig in design.signals.values()]
        self.mem_of = image.mem_of
        self.mem_widths = image.mem_widths
        self.mem_depths = image.mem_depths
        self.mem_bases = image.mem_bases
        self.n_signals = image.n_signals
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


    # -- top-level compile ---------------------------------------------------
    #
    # A dialect supplies the emit half: `_compile_eval` and its helpers
    # (expressions), `_compile_stmt` (a procedural body, or None when it
    # holds no statement) and `_build_assign_node` / `_build_block_node` /
    # `_build_empty_node` (a combinational node plus its read and write
    # sets; the empty one has neither body nor effects).  What they
    # return is the dialect's own: source text here, closures over numpy
    # lanes in repro.sim.batch.

    def _compile_expr(self, expr: ast.Expr, context_width: int, ov: bool):
        """Mirror of ``eval.eval_expr``: the context-width entry point."""
        width = max(context_width, self._self_width(expr))
        return self._compile_eval(expr, width, ov)

    def masks_for(self, name: str) -> int:
        return (1 << self.widths[self._slot(name)]) - 1

    def _new_image(self) -> CompiledDesign:
        """Execution-image factory; the batch compiler returns its own."""
        return CompiledDesign()

    def _is_identity(self, assign) -> bool:
        """A whole-signal continuous assign of a signal to itself: same
        slot, same width, so the masked store is the value already there."""
        target, value = assign.target, assign.value
        return (
            isinstance(target, ast.Identifier)
            and isinstance(value, ast.Identifier)
            and target.name == value.name
            and target.name in self.slot_of
            and target.name not in self.mem_of
        )

    def compile(self) -> CompiledDesign:
        design = self.design
        cd = self._image

        node_reads: List[Set[int]] = []
        node_writes: List[Set[int]] = []
        for assign in design.comb_assigns:
            if self._is_identity(assign):
                # `assign x = x;` stores exactly what it reads: no body and
                # no effects, so it neither blocks levelization nor wakes
                # anything.  The node keeps its index.
                run, reads, writes = self._build_empty_node()
            else:
                run, reads, writes = self._build_assign_node(assign)
            cd.nodes.append(run)
            node_reads.append(reads)
            node_writes.append(writes)
        for block in design.comb_blocks:
            run, reads, writes = self._build_block_node(block)
            cd.nodes.append(run)
            node_reads.append(reads)
            node_writes.append(writes)

        # Sequential blocks + trigger-bit slots.  A trigger a whole-signal
        # assign copies (port glue) moves exactly when its source's bit 0
        # does, so its edges are the source's: one clock reaching several
        # instances is one trigger bit.  (A cycle of copies does not
        # levelize and is refused below.)
        copies = {
            assign.target.name: assign.value.name
            for assign in design.comb_assigns
            if isinstance(assign.target, ast.Identifier)
            and isinstance(assign.value, ast.Identifier)
            and assign.value.name in self.slot_of
        }

        def source(name: str) -> str:
            for _ in copies:
                name = copies.get(name, name)
            return name

        block_triggers = [
            [(1 if edge == "posedge" else 0, source(name))
             for edge, name in block.triggers]
            for block in design.seq_blocks
        ]
        trigger_names = sorted(
            {name for triggers in block_triggers for _, name in triggers}
        )
        trigger_index = {}
        trigger_slots = []
        for name in trigger_names:
            trigger_index[name] = len(trigger_slots)
            trigger_slots.append(self._slot(name))
        cd.trigger_slots = tuple(trigger_slots)
        for block, named in zip(design.seq_blocks, block_triggers):
            triggers = [(want, trigger_index[name]) for want, name in named]
            cd.seq.append((triggers, self._compile_stmt(block.body)))

        for stmt in design.initial_stmts:
            fn = self._compile_stmt(stmt)
            if fn is not None:
                cd.initial.append(fn)

        self._schedule(cd, node_reads, node_writes)
        cd.trigger_fanin = self._trigger_fanin(cd, node_reads)
        self._admit(cd)
        return cd

    def _trigger_fanin(self, cd: CompiledDesign, node_reads) -> frozenset:
        """The trigger slots and, transitively, what their comb drivers
        read: every slot whose change can move a trigger bit."""
        fanin: Set[int] = set()
        stack = list(cd.trigger_slots)
        while stack:
            ps = stack.pop()
            if ps not in fanin:
                fanin.add(ps)
                for node in cd.writers.get(ps, ()):
                    stack += node_reads[node]
        return frozenset(fanin)

    def _admit(self, cd: CompiledDesign) -> None:
        """Refuse a design that one edge function per event cannot run
        (the generated code has no cascade and no union of edges): a
        sequential block writes a slot in ``trigger_fanin``, so its edge
        can fire further edges; or two triggers' edges fire block sets
        that do not nest, so bits moving together would fire a union no
        edge function holds.  When every pair nests, the largest moved
        edge is the union."""
        reads: Set[int] = set()
        writes: Set[int] = set()
        for block in self.design.seq_blocks:
            self._stmt_effects(block.body, set(), reads, writes)
        if not cd.trigger_fanin.isdisjoint(writes):
            raise UncompilableDesign(
                "a sequential block can move an edge trigger"
            )
        if not _edges_nest(cd.seq):
            raise UncompilableDesign(
                "two edge triggers fire blocks no single edge fires"
            )

    def _schedule(self, cd: CompiledDesign, node_reads, node_writes) -> None:
        """Levelize the comb region, or raise :class:`UncompilableDesign`
        when the static scheduler cannot order it (cycle, multi-driver,
        self-dependency): such a design runs on the interpreter.

        An identity ``assign x = x;`` arrives here with empty read and
        write sets (see :meth:`compile`): it is never a self-dependency
        and never a second driver of ``x``."""
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

        def refuse(why: str):
            return UncompilableDesign(
                f"combinational region does not levelize: {why}"
            )

        if any(len(nodes) > 1 for nodes in writers.values()):
            raise refuse("several combinational drivers of one signal")
        succs: List[Set[int]] = [set() for _ in range(n)]
        indegree = [0] * n
        for i in range(n):
            for ps in node_reads[i]:
                for w in writers.get(ps, ()):
                    if w == i:
                        raise refuse("a node reads a signal it drives")
                    if i not in succs[w]:
                        succs[w].add(i)
                        indegree[i] += 1
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
            raise refuse("a combinational cycle")
        cd.topo = topo


# ---------------------------------------------------------------------------
# The scalar dialect: Python source text
# ---------------------------------------------------------------------------

#: every this-many levels of expression nesting, an operand is spilled to
#: a temporary on its own line: CPython refuses ~200 nested parentheses,
#: and an emitted level costs at most four
_SPILL_EVERY = 24


class _Body:
    """One procedural body (comb block, seq block, ``initial`` statement)
    lowered to lines: ``str`` entries are final, tuples are nonblocking
    signal writes ``(pad, slot, lo, width, value)`` that each function
    renders its own way (:meth:`_SourceCompiler._render`)."""

    __slots__ = ("blocking", "mem_blocking", "nonblocking", "mem_nba", "lines")

    def __init__(self) -> None:
        #: signal slots some statement writes with ``=``: function locals
        self.blocking: Set[int] = set()
        #: memories some statement writes with ``=``: a local overlay dict
        self.mem_blocking: Set[int] = set()
        #: signal slots some statement writes with ``<=``
        self.nonblocking: Set[int] = set()
        #: whether a memory word is written with ``<=`` (always listed)
        self.mem_nba = False
        self.lines: list = []


def _mask(width: int) -> int:
    return (1 << width) - 1


def _and(text: str, mask: int) -> str:
    """``text & mask``, folded when ``text`` is a literal."""
    if text.isdigit():
        return str(int(text) & mask)
    return f"{text} & {mask}"


class _SourceCompiler(_Compiler):
    """Emits the design as Python source (see the module docstring).

    Expression emitters return an expression string that is an atom or
    parenthesized, whose value is a nonnegative int below ``2 ** width``
    (comparisons and logical operators return ``bool``, which every store
    turns back into ``int`` by masking).  They mirror ``eval._eval`` /
    ``eval._operand`` decision for decision.  Statement emitters return
    indented lines.  Names in the text: ``st`` / ``mems`` (state),
    ``b<slot>`` (blocking local), ``n<slot>`` (pending nonblocking
    value), ``t<k>`` / ``k`` (temporaries), ``mo`` (blocking memory
    overlay), ``nba`` (ordered nonblocking list) and the helpers
    ``CompiledDesign._load`` binds.
    """

    def __init__(self, design: Design) -> None:
        super().__init__(design)
        self._temps = 0
        self._depth = 0
        #: temporaries spilled by the expression being emitted, to be
        #: placed on their own lines before the statement that uses it
        self._pre: List[str] = []
        #: the body being emitted (an empty one between bodies)
        self._body = _Body()

    def _temp(self) -> str:
        self._temps += 1
        return f"t{self._temps}"

    def _flush(self, pad: str) -> List[str]:
        lines = [pad + line for line in self._pre]
        self._pre.clear()
        return lines

    def _atom(self, text: str) -> str:
        """``text`` if it is a name or literal, else a temporary bound to
        it (for operands the emitted code mentions more than once)."""
        if text.isalnum():
            return text
        temp = self._temp()
        self._pre.append(f"{temp} = {text}")
        return temp

    # -- expressions ---------------------------------------------------------

    def _raw(self, name: str) -> str:
        """Unmasked read of a whole signal: its blocking local inside a
        body that writes it with ``=``.  (Which body is being emitted
        decides that; the ``ov`` flag threaded through the emitters is
        the lane dialect's, where it selects an overlay lookup.)"""
        slot = self._slot(name)
        return f"b{slot}" if slot in self._body.blocking else f"st[{slot}]"

    def _compile_operand(self, expr: ast.Expr, width: int, ov: bool) -> str:
        own = self._self_width(expr)
        text = self._compile_eval(expr, max(own, width), ov)
        if width <= own:
            return text
        if self._is_signed(expr):
            sign_bit = 1 << (own - 1)
            if text.isdigit():
                value = ((int(text) & _mask(own)) ^ sign_bit) - sign_bit
                return str(value & _mask(width))
            return (
                f"(({text} & {_mask(own)} ^ {sign_bit}) - {sign_bit}"
                f" & {_mask(width)})"
            )
        # Zero-extension is the value itself: `text` was evaluated at
        # `width` and is below 2 ** width already.
        return text

    def _compile_eval(self, expr: ast.Expr, width: int, ov: bool) -> str:
        if self._is_static(expr):
            try:
                return str(_ev._eval(expr, self._static, width))
            except SimulationError as exc:
                raise UncompilableDesign(str(exc)) from None
        self._depth += 1
        try:
            text = self._emit_eval(expr, width, ov)
        finally:
            self._depth -= 1
        if self._depth and self._depth % _SPILL_EVERY == 0:
            return self._atom(text)
        return text

    def _emit_eval(self, expr: ast.Expr, width: int, ov: bool) -> str:
        if isinstance(expr, ast.Identifier):
            if expr.name in self.mem_of:
                raise UncompilableDesign(
                    f"memory {expr.name!r} used without an index"
                )
            return f"({self._raw(expr.name)} & {self.masks_for(expr.name)})"
        if isinstance(expr, ast.Unary):
            return self._compile_unary(expr, width, ov)
        if isinstance(expr, ast.Binary):
            return self._compile_binary(expr, width, ov)
        if isinstance(expr, ast.Ternary):
            cond = self._compile_expr(expr.cond, 0, ov)
            then = self._compile_operand(expr.then, width, ov)
            other = self._compile_operand(expr.other, width, ov)
            return f"({then} if {cond} else {other})"
        if isinstance(expr, ast.Concat):
            parts = []
            offset = 0
            for part in reversed(expr.parts):
                part_width = self._self_width(part)
                text = self._compile_eval(part, part_width, ov)
                if text != "0":
                    parts.append(f"{text} << {offset}" if offset else text)
                offset += part_width
            parts.reverse()
            return f"(({' | '.join(parts) or 0}) & {_mask(max(width, 1))})"
        if isinstance(expr, ast.Repeat):
            times = self._static_int(expr.count)
            inner_width = self._self_width(expr.inner)
            inner = self._compile_eval(expr.inner, inner_width, ov)
            # Replication is multiplication by 0b...0001_0001 (one set bit
            # per copy, spaced inner_width apart).
            factor = 0
            for i in range(times):
                factor |= 1 << (inner_width * i)
            return f"({inner} * {factor} & {_mask(max(width, 1))})"
        if isinstance(expr, ast.Index):
            return self._compile_index(expr, ov)
        if isinstance(expr, ast.PartSelect):
            raw = self._raw(self._base_name(expr.base))
            lsb, sel_width = self._static_range(expr)
            shifted = f"{raw} >> {lsb}" if lsb else raw
            return f"({shifted} & {_mask(sel_width)})"
        if isinstance(expr, ast.IndexedPartSelect):
            raw = self._raw(self._base_name(expr.base))
            sel_width = self._static_int(expr.width)
            lo = self._select_lo(expr, sel_width, ov)
            return f"({raw} >> {lo} & {_mask(sel_width)})"
        if isinstance(expr, ast.SystemCall):
            return self._compile_system_call(expr, width, ov)
        raise UncompilableDesign(f"cannot compile {type(expr).__name__}")

    def _static_range(self, expr: ast.PartSelect) -> Tuple[int, int]:
        """``base[msb:lsb]`` as (low bit, width), either bound order."""
        msb = self._static_int(expr.msb)
        lsb = self._static_int(expr.lsb)
        return min(msb, lsb), abs(msb - lsb) + 1

    def _select_lo(self, expr: ast.IndexedPartSelect, sel_width: int,
                   ov: bool) -> str:
        """Low bit of ``base[start +: w]`` / ``base[start -: w]``, clamped
        at 0 like the interpreter's ``max(lo, 0)``."""
        start = self._compile_expr(expr.start, 0, ov)
        if expr.ascending or sel_width == 1:
            return start
        if start.isdigit():
            return str(max(int(start) - sel_width + 1, 0))
        temp = self._temp()
        return (
            f"({temp} if ({temp} := {start} - {sel_width - 1}) > 0 else 0)"
        )

    def _compile_unary(self, expr: ast.Unary, width: int, ov: bool) -> str:
        op = expr.op
        if op in ("&", "~&", "|", "~|", "^", "~^"):
            operand_width = self._self_width(expr.operand)
            text = self._compile_eval(expr.operand, operand_width, ov)
            if op in ("&", "~&"):
                relation = "==" if op == "&" else "!="
                return f"({text} {relation} {_mask(operand_width)})"
            if op in ("|", "~|"):
                return f"({text} {'!=' if op == '|' else '=='} 0)"
            if op == "^":
                return f"parity({text})"
            return f"(parity({text}) ^ 1)"
        if op == "!":
            return f"({self._compile_expr(expr.operand, 0, ov)} == 0)"
        text = self._compile_operand(expr.operand, width, ov)
        mask = _mask(width) if width > 0 else 0
        if op == "~":
            return f"(~{text} & {mask})"
        if op == "-":
            return f"(-{text} & {mask})"
        if op == "+":
            return text
        raise UncompilableDesign(f"unsupported unary operator {op!r}")

    def _clamped(self, amount: str, limit: int, amount_width: int) -> str:
        """``min(amount, limit)`` without the call."""
        if amount.isdigit():
            return str(min(int(amount), limit))
        if _mask(amount_width) <= limit:
            return amount
        temp = self._temp()
        return f"({temp} if ({temp} := {amount}) < {limit} else {limit})"

    def _compile_binary(self, expr: ast.Binary, width: int, ov: bool) -> str:
        op = expr.op
        if op in ("&&", "||"):
            # `x and y` is 0/1 only over 0/1 operands: wider ones compare
            sides = [
                self._compile_expr(side, 0, ov)
                + ("" if self._self_width(side) == 1 else " != 0")
                for side in (expr.lhs, expr.rhs)
            ]
            return f"({sides[0]} {'and' if op == '&&' else 'or'} {sides[1]})"
        if op in ("==", "!=", "===", "!==", "<", "<=", ">", ">="):
            cmp_width = max(
                self._self_width(expr.lhs), self._self_width(expr.rhs)
            )
            lhs = self._compile_operand(expr.lhs, cmp_width, ov)
            rhs = self._compile_operand(expr.rhs, cmp_width, ov)
            if self._is_signed(expr.lhs) and self._is_signed(expr.rhs):
                # Flipping the sign bit maps two's-complement order onto
                # unsigned order.
                sign_bit = 1 << (cmp_width - 1)
                lhs = f"({lhs} ^ {sign_bit})"
                rhs = f"({rhs} ^ {sign_bit})"
            return f"({lhs} {op[:2]} {rhs})"
        mask = _mask(width) if width > 0 else 0
        if op in ("<<", ">>", "<<<", ">>>"):
            lhs = self._compile_operand(expr.lhs, width, ov)
            amount = self._clamped(
                self._compile_expr(expr.rhs, 0, ov),
                max(width, 1) + 64,
                self._self_width(expr.rhs),
            )
            if op in ("<<", "<<<"):
                return f"({lhs} << {amount} & {mask})"
            if op == ">>>" and self._is_signed(expr.lhs):
                sign_bit = 1 << (width - 1)
                return (
                    f"(({lhs} & {mask} ^ {sign_bit}) - {sign_bit}"
                    f" >> {amount} & {mask})"
                )
            return f"({lhs} >> {amount})"
        if op == "**":
            base = self._compile_operand(expr.lhs, width, ov)
            exponent = self._clamped(
                self._compile_expr(expr.rhs, 0, ov), 64,
                self._self_width(expr.rhs),
            )
            return f"({base} ** {exponent} & {mask})"

        signed = self._is_signed(expr.lhs) and self._is_signed(expr.rhs)
        lhs = self._compile_operand(expr.lhs, width, ov)
        rhs = self._compile_operand(expr.rhs, width, ov)
        if op in ("+", "-", "*"):
            return f"({lhs} {op} {rhs} & {mask})"
        if op in ("/", "%"):
            if signed:
                return f"sdivmod({lhs}, {rhs}, {width}, {int(op == '/')})"
            # Division by zero is 0: the two-state stand-in for X.
            temp = self._temp()
            python_op = "//" if op == "/" else "%"
            return (
                f"(0 if ({temp} := {rhs}) == 0"
                f" else {lhs} {python_op} {temp} & {mask})"
            )
        if op in ("&", "|", "^"):
            return f"({lhs} {op} {rhs})"
        if op in ("^~", "~^"):
            return f"(~({lhs} ^ {rhs}) & {mask})"
        raise UncompilableDesign(f"unsupported binary operator {op!r}")

    def _compile_index(self, expr: ast.Index, ov: bool) -> str:
        name = self._base_name(expr.base)
        index = self._compile_expr(expr.index, 0, ov)
        mem_slot = self.mem_of.get(name)
        if mem_slot is None:
            raw = self._raw(name)
            sig_width = self.widths[self._slot(name)]
            if index.isdigit():
                # out-of-range select reads as 0 (two-state X)
                if int(index) >= sig_width:
                    return "0"
                return f"({raw} >> {index} & 1)" if index != "0" else f"({raw} & 1)"
            temp = self._temp()
            return (
                f"({raw} >> {temp} & 1 if ({temp} := {index}) < {sig_width}"
                f" else 0)"
            )
        base = self.mem_bases[mem_slot]
        depth = self.mem_depths[mem_slot]
        if index.isdigit():
            word = int(index) - base
            if word < 0 or word >= depth:
                return "0"  # out-of-range read: two-state X
            return self._mem_word(mem_slot, str(word))
        temp = self._temp()
        bind = f"({temp} := {index} - {base})" if base else f"({temp} := {index})"
        in_range = f"0 <= {bind} < {depth}" if base else f"{bind} < {depth}"
        return f"({self._mem_word(mem_slot, temp)} if {in_range} else 0)"

    def _mem_word(self, mem_slot: int, word: str) -> str:
        """An in-range memory word, through the body's blocking overlay."""
        direct = f"mems[{mem_slot}][{word}]"
        if mem_slot not in self._body.mem_blocking:
            return direct
        key = self._temp()
        return (
            f"(mo[{key}] if ({key} := ({mem_slot}, {word})) in mo"
            f" else {direct})"
        )

    def _compile_system_call(self, expr: ast.SystemCall, width: int,
                             ov: bool) -> str:
        name = expr.name
        if name in ("$signed", "$unsigned"):
            if len(expr.args) != 1:
                raise UncompilableDesign(f"{name} takes exactly one argument")
            return self._compile_operand(expr.args[0], width, ov)
        if name == "$clog2":
            if len(expr.args) != 1:
                raise UncompilableDesign("$clog2 takes exactly one argument")
            return f"clog2({self._compile_expr(expr.args[0], 0, ov)})"
        # $time / $stime / $realtime are static (folded to 0 above)
        raise UncompilableDesign(f"unsupported system function {name!r}")

    # -- writes --------------------------------------------------------------

    @staticmethod
    def _merge(current: str, sig_width: int, lo: str, width: int,
               value: str) -> str:
        """The new value of a signal after writing ``value`` into its
        ``width`` bits at ``lo`` (digits when static, else a name) —
        ``_write_lvalue``'s field path, including its "full write"
        shortcut when ``lo == 0 and width >= sig_width``."""
        full = _and(value, _mask(sig_width))
        if lo.isdigit():
            if lo == "0" and width >= sig_width:
                return full
            field = _mask(width) << int(lo)
            return f"{current} & {~field} | ({_and(value, _mask(width))}) << {lo}"
        field = (
            f"{current} & ~({_mask(width)} << {lo})"
            f" | ({_and(value, _mask(width))}) << {lo}"
        )
        if width >= sig_width:
            return f"{full} if {lo} == 0 else {field}"
        return field

    def _write_location(self, target: ast.Expr, ov: bool):
        """A non-concat signal lvalue as ``(slot, lo, width)``; ``lo`` is
        digits when static, else a name bound on a spilled line."""
        if isinstance(target, ast.Identifier):
            if target.name in self.mem_of:
                raise UncompilableDesign(
                    f"cannot assign whole memory {target.name!r}"
                )
            slot = self._slot(target.name)
            return slot, "0", self.widths[slot]
        if isinstance(target, ast.Index):
            slot = self._slot(self._base_name(target.base))
            lo = self._compile_expr(target.index, 0, ov)
            return slot, self._atom(lo), 1
        if isinstance(target, ast.PartSelect):
            slot = self._slot(self._base_name(target.base))
            lsb, width = self._static_range(target)
            return slot, str(lsb), width
        if isinstance(target, ast.IndexedPartSelect):
            slot = self._slot(self._base_name(target.base))
            width = self._static_int(target.width)
            return slot, self._atom(self._select_lo(target, width, ov)), width
        raise UncompilableDesign(
            f"invalid assignment target {type(target).__name__}"
        )

    def _split_concat(self, target: ast.Concat, value: str):
        """``(part, its slice of value)`` pairs, most significant first."""
        widths = [self._lvalue_width(p) for p in target.parts]
        value = self._atom(value)
        offset = sum(widths)
        for part, part_width in zip(target.parts, widths):
            offset -= part_width
            yield part, f"({value} >> {offset} & {_mask(part_width)})"

    def _compile_proc_write(self, target: ast.Expr, blocking: bool,
                            value: str, pad: str) -> list:
        """Lines of one procedural write (spills land in ``self._pre``)."""
        if isinstance(target, ast.Concat):
            lines: list = []
            for part, chunk in self._split_concat(target, value):
                lines += self._compile_proc_write(part, blocking, chunk, pad)
            return lines
        if isinstance(target, ast.Index):
            mem_slot = self.mem_of.get(self._base_name(target.base))
            if mem_slot is not None:
                return self._compile_mem_write(
                    mem_slot, target.index, blocking, value, pad
                )
        slot, lo, width = self._write_location(target, True)
        if not blocking:
            return [(pad, slot, lo, width, value)]
        local = f"b{slot}"
        merged = self._merge(local, self.widths[slot], lo, width, value)
        return [f"{pad}{local} = {merged}"]

    def _compile_mem_write(self, mem_slot: int, index_expr: ast.Expr,
                           blocking: bool, value: str, pad: str) -> list:
        base = self.mem_bases[mem_slot]
        depth = self.mem_depths[mem_slot]
        width = self.mem_widths[mem_slot]
        index = self._compile_expr(index_expr, 0, True)
        if index.isdigit():
            if not 0 <= int(index) - base < depth:
                return []  # out-of-range write ignored
            word, guard = str(int(index) - base), ""
        elif base:
            word = self._atom(f"{index} - {base}")
            guard = f"if 0 <= {word} < {depth}: "
        else:
            word = self._atom(index)
            guard = f"if {word} < {depth}: "
        stored = _and(value, _mask(width))
        if blocking:
            return [f"{pad}{guard}mo[({mem_slot}, {word})] = {stored}"]
        self._body.mem_nba = True
        return [
            f"{pad}{guard}nba += ((1, {mem_slot}, {word}, {width}, {stored}),)"
        ]

    def _compile_direct_write(self, target: ast.Expr, value: str):
        """Continuous-assign stores as ``(slot, new value)`` pairs, in
        order (a later one may read what an earlier one stored)."""
        if isinstance(target, ast.Concat):
            stores = []
            for part, chunk in self._split_concat(target, value):
                stores += self._compile_direct_write(part, chunk)
            return stores
        if isinstance(target, ast.Index) and (
            self._base_name(target.base) in self.mem_of
        ):
            # The interpreter raises SimulationError when this runs;
            # refusing to compile routes "auto" to the interpreter,
            # which reproduces that exact behaviour.
            raise UncompilableDesign(
                "continuous assignment to memory element is not supported"
            )
        slot, lo, width = self._write_location(target, False)
        current = f"st[{slot}]"
        return [
            (slot, self._merge(current, self.widths[slot], lo, width, value))
        ]

    # -- statements ----------------------------------------------------------

    def _targets(self, stmt: ast.Stmt, body: _Body) -> None:
        """Record which signals and memories ``stmt`` writes, by kind."""
        if isinstance(stmt, ast.Block):
            for inner in stmt.stmts:
                self._targets(inner, body)
        elif isinstance(stmt, ast.Assign):
            self._target(stmt.target, stmt.blocking, body)
        elif isinstance(stmt, ast.If):
            self._targets(stmt.then, body)
            if stmt.other is not None:
                self._targets(stmt.other, body)
        elif isinstance(stmt, ast.Case):
            for item in stmt.items:
                self._targets(item.body, body)
        elif isinstance(stmt, ast.For):
            for inner in (stmt.init, stmt.body, stmt.step):
                self._targets(inner, body)

    def _target(self, target: ast.Expr, blocking: bool, body: _Body) -> None:
        if isinstance(target, ast.Concat):
            for part in target.parts:
                self._target(part, blocking, body)
            return
        if isinstance(target, ast.Identifier):
            name = target.name
        elif isinstance(
            target, (ast.Index, ast.PartSelect, ast.IndexedPartSelect)
        ):
            name = self._base_name(target.base)
        else:
            raise UncompilableDesign(
                f"invalid assignment target {type(target).__name__}"
            )
        if name not in self.mem_of:
            kind = body.blocking if blocking else body.nonblocking
            kind.add(self._slot(name))
        elif blocking:
            body.mem_blocking.add(self.mem_of[name])

    def _compile_stmt(self, stmt: ast.Stmt) -> Optional[_Body]:
        """One procedural body, or None when it holds no statement."""
        body = _Body()
        self._targets(stmt, body)
        self._body = body
        try:
            body.lines = self._stmt(stmt, 1)
        finally:
            self._body = _Body()
        return None if body.lines is None else body

    def _stmt(self, stmt: ast.Stmt, depth: int) -> Optional[list]:
        pad = " " * depth
        if isinstance(stmt, ast.Block):
            lines: list = []
            for inner in stmt.stmts:
                lines += self._stmt(inner, depth) or ()
            return lines or None
        if isinstance(stmt, ast.Assign):
            lvalue_width = self._lvalue_width(stmt.target)
            value = self._compile_expr(stmt.value, lvalue_width, True)
            write = self._compile_proc_write(
                stmt.target, stmt.blocking, value, pad
            )
            return (self._flush(pad) + write) or None
        if isinstance(stmt, ast.If):
            cond = self._compile_expr(stmt.cond, 0, True)
            lines = self._flush(pad)
            then = self._stmt(stmt.then, depth + 1)
            lines.append(f"{pad}if {cond}:")
            lines += then or [f"{pad} pass"]
            other = None
            if isinstance(stmt.other, ast.If):
                # `else if` chains stay flat: Python allows 100 nested
                # blocks, a priority encoder can have more arms.
                chain = self._stmt(stmt.other, depth)
                if chain is not None and str(chain[0]).startswith(f"{pad}if "):
                    return lines + [f"{pad}el{chain[0][depth:]}"] + chain[1:]
            if stmt.other is not None:
                other = self._stmt(stmt.other, depth + 1)
            if other is None:
                return None if then is None else lines
            return lines + [f"{pad}else:"] + other
        if isinstance(stmt, ast.Case):
            return self._compile_case(stmt, depth)
        if isinstance(stmt, ast.For):
            init = self._stmt(stmt.init, depth) or []
            cond = self._compile_expr(stmt.cond, 0, True)
            cond_spills = self._flush(pad + " ")
            counter = self._temp()
            lines = init + [f"{pad}{counter} = 0"]
            if cond_spills:
                lines.append(f"{pad}while True:")
                lines += cond_spills
                lines.append(f"{pad} if not {cond}: break")
            else:
                lines.append(f"{pad}while {cond}:")
            lines += self._stmt(stmt.body, depth + 1) or ()
            lines += self._stmt(stmt.step, depth + 1) or ()
            lines.append(f"{pad} {counter} += 1")
            lines.append(
                f"{pad} if {counter} > {_MAX_LOOP_ITERS}: raise loop_error()"
            )
            return lines
        if isinstance(stmt, (ast.NullStmt, ast.SystemTaskCall)):
            return None
        raise UncompilableDesign(f"cannot compile {type(stmt).__name__}")

    def _compile_case(self, stmt: ast.Case, depth: int) -> Optional[list]:
        # Same hoisted sizing as the interpreter's _exec_case: one subject
        # evaluation at the max width over subject and all labels.
        pad = " " * depth
        width = self._self_width(stmt.subject)
        for item in stmt.items:
            for label in item.labels:
                width = max(width, self._self_width(label))
        subject = self._atom(self._compile_eval(stmt.subject, width, True))
        wildcard_kind = stmt.kind in ("casez", "casex")
        conditions = []  # per item: its labels' match condition
        for item in stmt.items:
            matches = []
            for label in item.labels:
                care = -1
                if wildcard_kind and isinstance(label, ast.Number):
                    care = ~label.unknown_mask
                text = self._compile_eval(label, width, True)
                if care == -1:
                    matches.append(f"{subject} == {text}")
                else:
                    matches.append(f"{subject} & {care} == {_and(text, care)}")
            conditions.append(" or ".join(matches))
        lines = self._flush(pad)
        arms = []  # (condition, body lines or None)
        default: Optional[list] = None
        for item, condition in zip(stmt.items, conditions):
            body = self._stmt(item.body, depth + 1)
            if item.is_default:
                default = body  # last default wins, as in the interpreter
            elif condition:
                arms.append((condition, body))
        if default is None and all(body is None for _, body in arms):
            return None
        keyword = "if"
        if not arms:
            arms.append(("1", default))
            default = None
        for condition, body in arms:
            lines.append(f"{pad}{keyword} {condition}:")
            lines += body or [f"{pad} pass"]
            keyword = "elif"
        if default is not None:
            lines.append(f"{pad}else:")
            lines += default
        return lines

    # -- node assembly -------------------------------------------------------

    def _build_assign_node(self, assign):
        lvalue_width = self._lvalue_width(assign.target)
        value = self._compile_expr(assign.value, lvalue_width, False)
        stores = self._compile_direct_write(assign.target, value)
        node = (self._flush(" "), stores)
        reads: Set[int] = set()
        writes: Set[int] = set()
        self._expr_reads(assign.value, set(), reads)
        self._lvalue_effects(assign.target, True, set(), reads, writes)
        return node, reads, writes

    def _build_empty_node(self):
        return None, set(), set()

    def _build_block_node(self, block):
        body = self._compile_stmt(block.body)
        if body is None:
            return self._build_empty_node()
        reads: Set[int] = set()
        writes: Set[int] = set()
        self._stmt_effects(block.body, set(), reads, writes)
        return body, reads, writes

    def _render(self, body: _Body, pending):
        """Lines of one body, and whether they use ``nba``.

        Blocking targets are locals, read at entry and committed at exit.
        A nonblocking write to a slot in ``pending`` updates that slot's
        ``n<slot>`` local; any other joins the ordered list.
        """
        blocking = sorted(body.blocking)
        lines = [f" b{slot} = st[{slot}]" for slot in blocking]
        if body.mem_blocking:
            lines.append(" mo = {}")
        listed = body.mem_nba
        for line in body.lines:
            if isinstance(line, str):
                lines.append(line)
                continue
            pad, slot, lo, width, value = line
            if slot in pending:
                merged = self._merge(
                    f"n{slot}", self.widths[slot], lo, width, value
                )
                lines.append(f"{pad}n{slot} = {merged}")
            else:
                listed = True
                lines.append(
                    f"{pad}nba += ((0, {slot}, {lo}, {width}, {value}),)"
                )
        lines += [f" st[{slot}] = b{slot}" for slot in blocking]
        if body.mem_blocking:
            lines.append(" for k in mo:")
            lines.append("  mems[k[0]][k[1]] = mo[k]")
        return lines, listed

    def _standalone(self, body: _Body) -> List[str]:
        """A body that commits its own nonblocking writes, after its
        blocking ones: a comb block or an ``initial`` statement."""
        lines, listed = self._render(body, ())
        if listed:
            lines.insert(0, " nba = []")
            lines.append(" commit(st, mems, nba, W)")
        return lines

    def _source(self, cd: CompiledDesign) -> str:
        """``comb``, ``init`` and one function per (edge, trigger bit)."""
        out: List[str] = []
        if cd.nodes:
            out.append("def comb(st, mems):")
            for index in cd.topo:
                node = cd.nodes[index]
                if isinstance(node, tuple):
                    spills, stores = node
                    out += spills
                    out += [f" st[{slot}] = {new}" for slot, new in stores]
                elif node is not None:
                    out += self._standalone(node)
            if len(out) == 1:
                out.append(" pass")
        if cd.initial:
            out.append("def init(st, mems):")
            for body in cd.initial:
                # each statement commits before the next, like the
                # interpreter's
                out += self._standalone(body)
        emitted: Dict[Tuple[int, ...], str] = {}
        edges = sorted(
            {edge for triggers, _ in cd.seq for edge in triggers}
        )
        for want, bit in edges:
            members = tuple(
                j for j, (triggers, _) in enumerate(cd.seq)
                if (want, bit) in triggers
            )
            name = f"e{want}_{bit}"
            if members in emitted:
                # e.g. `posedge clk or posedge rst`: one body, two names
                out.append(f"{name} = {emitted[members]}")
                continue
            emitted[members] = name
            out.append(f"def {name}(st, mems):")
            out += self._edge_lines(cd, [cd.seq[j][1] for j in members])
        out.append("")
        return "\n".join(out)

    def _edge_lines(self, cd: CompiledDesign, bodies) -> List[str]:
        bodies = [body for body in bodies if body is not None]
        blocking = {slot for body in bodies for slot in body.blocking}
        # A slot some block of this edge also writes with `=` cannot hold
        # its pending value in a local read at entry: it keeps the list.
        pending = sorted(
            {slot for body in bodies for slot in body.nonblocking} - blocking
        )
        lines = [f" n{slot} = st[{slot}]" for slot in pending]
        rendered = [self._render(body, pending) for body in bodies]
        listed = any(uses_list for _, uses_list in rendered)
        if listed:
            lines.append(" nba = []")
        for body_lines, _ in rendered:
            lines += body_lines
        lines += [f" st[{slot}] = n{slot}" for slot in pending]
        if listed:
            lines.append(" commit(st, mems, nba, W)")
        if cd.nodes:
            lines.append(" comb(st, mems)")
        return lines or [" pass"]

    def compile(self) -> CompiledDesign:
        cd = super().compile()
        cd.source = self._source(cd)
        # The image keeps the shape; the text binds on first use.
        cd.nodes = [None] * len(cd.nodes)
        cd.seq = [(triggers, None) for triggers, _ in cd.seq]
        cd.initial = [None] * len(cd.initial)
        return cd


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
        fused = cd.fused()
        self._comb = fused.get("comb")  # all of `settle`, or None
        if "init" in fused:
            fused["init"](self.st, self.mem_data)
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
        memory = self.design.memories.get(name)
        if memory is None:
            raise SimulationError(f"peek_mem of unknown memory {name!r}")
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
        self.st[slot] = value & cd.masks[slot]

    def _trigger_snapshot(self) -> List[int]:
        st = self.st
        return [st[s] & 1 for s in self.cdesign.trigger_slots]

    # -- cycle kernel ---------------------------------------------------------

    def cycle_fn(self, clock, input_names, output_names):
        """Slot-resolved cycle kernel (contract: ``Simulator.cycle_fn``).

        Two facts, read off the :class:`CompiledDesign`, decide which
        cycle it runs: the clock slot (if there is a clock) has no
        combinational reader or driver, so toggling it needs no settle and
        fires only its own edges; and no driven input is in
        :attr:`~CompiledDesign.trigger_fanin`, so the drive cannot fire an
        edge.  Then the drive is a row of stores plus one full ``comb``
        pass, and a clock poke is a store plus that edge's function (the
        admission rule lets no block move a trigger, so nothing cascades).
        Any other cycle runs the poke sequence (``Simulator.cycle_fn``,
        which also checks the names), whose ``poke`` fires the same edge
        functions.  The episode kernel (``Simulator.replay_fn``) loops
        this step.
        """
        pokes = super().cycle_fn(clock, input_names, output_names)
        cd = self.cdesign
        slot_of = cd.slot_of
        in_slots = [slot_of[name] for name in input_names]
        clk = None if clock is None else slot_of[clock]
        if (
            clk in cd.readers
            or clk in cd.writers
            or not cd.trigger_fanin.isdisjoint(in_slots)
        ):
            obs.count("sim.kernel.generic")
            return pokes
        obs.count("sim.kernel.specialised")
        fused = cd.fused()
        negedge = posedge = None
        if clk in cd.trigger_slots:
            clk_bit = cd.trigger_slots.index(clk)
            negedge = fused.get(f"e0_{clk_bit}")
            posedge = fused.get(f"e1_{clk_bit}")
        drives = list(zip(in_slots, [cd.masks[s] for s in in_slots]))
        out_slots = [slot_of[name] for name in output_names]
        if len(out_slots) > 1:
            sample = itemgetter(*out_slots)
        elif out_slots:
            (out,) = out_slots

            def sample(st):
                return (st[out],)
        else:
            def sample(st):
                return ()
        n_inputs = len(drives)
        comb = self._comb
        st = self.st
        mems = self.mem_data

        def step(row):
            if len(row) != n_inputs:
                raise _row_length_error(len(row), n_inputs)
            for (slot, mask), value in zip(drives, row):
                st[slot] = value & mask
            if comb is not None:
                comb(st, mems)
            if clk is None:
                return sample(st)
            # poke(clock, 0); poke(clock, 1): nothing else writes the
            # clock slot, so the second poke always lands
            old = st[clk]
            if old:
                st[clk] = 0
                if negedge is not None and old & 1:
                    negedge(st, mems)
            st[clk] = 1
            if posedge is not None:
                posedge(st, mems)
            return sample(st)

        return step

    # -- settle --------------------------------------------------------------

    def settle(self) -> None:
        """Propagate combinational logic: one schedule-order pass of the
        fused ``comb`` settles a levelized region, whatever moved."""
        if self._comb is not None:
            self._comb(self.st, self.mem_data)

    # -- sequential execution ------------------------------------------------

    def _fire_edges(self, snapshot: List[int]) -> None:
        """Run the edge that fires the most blocks among the trigger bits
        that moved since ``snapshot``.  The admission rule (see
        ``_Compiler._admit``) makes its blocks the union of every moved
        bit's and lets none of them move a trigger, so that one call,
        which ends on the ``comb`` pass, is the whole event."""
        cd = self.cdesign
        st = self.st
        moved = [
            (st[slot] & 1, bit)
            for bit, (slot, old) in enumerate(zip(cd.trigger_slots, snapshot))
            if st[slot] & 1 != old
        ]
        fired = [sum(edge in triggers for triggers, _ in cd.seq)
                 for edge in moved]
        if moved and max(fired):
            want, bit = moved[fired.index(max(fired))]
            cd.fused()[f"e{want}_{bit}"](st, self.mem_data)
