"""Elaboration: parsed AST -> flat simulatable design.

Elaboration resolves parameters to constants, computes signal widths,
flattens the module hierarchy (instance signals get dotted prefixes such as
``u0.count``), and converts port connections into continuous-assignment
glue.  The output :class:`Design` contains only flat signals, memories, and
processes — everything the runtime in :mod:`repro.sim.simulator` needs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.errors import ElaborationError
from repro.verilog import ast
from repro.sim.eval import eval_constant

_MAX_DEPTH = 32


@dataclass
class Signal:
    """A flat scalar/vector signal in the elaborated design."""

    name: str
    width: int
    signed: bool = False
    kind: str = "wire"  # wire | reg | integer
    direction: Optional[str] = None  # input | output | None (internal)
    lsb: int = 0  # declared LSB index ([7:4] has lsb 4)


@dataclass
class Memory:
    """A flat one-dimensional memory (``reg [W-1:0] mem [0:D-1]``)."""

    name: str
    width: int
    depth: int
    base: int = 0  # lowest declared index


@dataclass
class CombAssign:
    """Continuous assignment (or instance-port glue)."""

    target: ast.Expr
    value: ast.Expr


@dataclass
class CombBlock:
    """Combinational ``always`` block (``@(*)`` or all-level sensitivity)."""

    body: ast.Stmt


@dataclass
class SeqBlock:
    """Edge-triggered ``always`` block."""

    triggers: List[Tuple[str, str]]  # (posedge|negedge, flat signal name)
    body: ast.Stmt


@dataclass
class Design:
    """A fully elaborated, flattened design."""

    top: str
    signals: Dict[str, Signal] = field(default_factory=dict)
    memories: Dict[str, Memory] = field(default_factory=dict)
    comb_assigns: List[CombAssign] = field(default_factory=list)
    comb_blocks: List[CombBlock] = field(default_factory=list)
    seq_blocks: List[SeqBlock] = field(default_factory=list)
    initial_stmts: List[ast.Stmt] = field(default_factory=list)
    params: Dict[str, int] = field(default_factory=dict)

    @property
    def inputs(self) -> List[Signal]:
        return [s for s in self.signals.values() if s.direction == "input"]

    @property
    def outputs(self) -> List[Signal]:
        return [s for s in self.signals.values() if s.direction == "output"]

    def signal(self, name: str) -> Signal:
        try:
            return self.signals[name]
        except KeyError:
            raise ElaborationError(f"no signal named {name!r}") from None

    def __getstate__(self):
        # The execution images (repro.sim.compile, repro.sim.batch) are
        # caches of what the AST lowers to, and the lane images are
        # closures that cannot pickle: a restored design lowers again on
        # first run.
        state = dict(self.__dict__)
        state.pop("_compiled", None)
        state.pop("_batch", None)
        return state


class _Rewriter:
    """Rewrites identifiers in an AST: params fold to constants, signal
    names gain the instance prefix, and nonzero-LSB selects are
    renormalized to zero-based indices."""

    def __init__(
        self,
        params: Dict[str, int],
        rename: Dict[str, str],
        lsb_offsets: Dict[str, int],
    ) -> None:
        self._params = params
        self._rename = rename
        self._lsb = lsb_offsets

    # -- expressions ------------------------------------------------------

    def expr(self, node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.Number) or isinstance(node, ast.StringLiteral):
            return node
        if isinstance(node, ast.Identifier):
            if node.name in self._params:
                return ast.Number(line=node.line, value=self._params[node.name])
            return ast.Identifier(line=node.line, name=self._map(node.name))
        if isinstance(node, ast.Unary):
            return dataclasses.replace(node, operand=self.expr(node.operand))
        if isinstance(node, ast.Binary):
            return dataclasses.replace(
                node, lhs=self.expr(node.lhs), rhs=self.expr(node.rhs)
            )
        if isinstance(node, ast.Ternary):
            return dataclasses.replace(
                node,
                cond=self.expr(node.cond),
                then=self.expr(node.then),
                other=self.expr(node.other),
            )
        if isinstance(node, ast.Concat):
            return dataclasses.replace(
                node, parts=[self.expr(p) for p in node.parts]
            )
        if isinstance(node, ast.Repeat):
            inner = self.expr(node.inner)
            if not isinstance(inner, ast.Concat):
                inner = ast.Concat(line=node.line, parts=[inner])
            return dataclasses.replace(
                node, count=self.expr(node.count), inner=inner
            )
        if isinstance(node, ast.Index):
            return dataclasses.replace(
                node,
                base=self.expr(node.base),
                index=self._shift_index(node.base, self.expr(node.index)),
            )
        if isinstance(node, ast.PartSelect):
            return dataclasses.replace(
                node,
                base=self.expr(node.base),
                msb=self._shift_index(node.base, self.expr(node.msb)),
                lsb=self._shift_index(node.base, self.expr(node.lsb)),
            )
        if isinstance(node, ast.IndexedPartSelect):
            return dataclasses.replace(
                node,
                base=self.expr(node.base),
                start=self._shift_index(node.base, self.expr(node.start)),
                width=self.expr(node.width),
            )
        if isinstance(node, ast.SystemCall):
            return dataclasses.replace(
                node, args=[self.expr(a) for a in node.args]
            )
        raise ElaborationError(f"cannot rewrite {type(node).__name__}")

    def _map(self, name: str) -> str:
        try:
            return self._rename[name]
        except KeyError:
            raise ElaborationError(f"undeclared identifier {name!r}") from None

    def _shift_index(self, base: ast.Expr, index: ast.Expr) -> ast.Expr:
        """Subtract the declared LSB offset of the selected signal."""
        if not isinstance(base, ast.Identifier):
            return index
        offset = self._lsb.get(base.name, 0)
        if offset == 0:
            return index
        return ast.Binary(
            line=index.line,
            op="-",
            lhs=index,
            rhs=ast.Number(line=index.line, value=offset),
        )

    # -- statements --------------------------------------------------------

    def stmt(self, node: ast.Stmt) -> ast.Stmt:
        if isinstance(node, ast.Block):
            return dataclasses.replace(
                node, stmts=[self.stmt(s) for s in node.stmts]
            )
        if isinstance(node, ast.Assign):
            return dataclasses.replace(
                node, target=self.expr(node.target), value=self.expr(node.value)
            )
        if isinstance(node, ast.If):
            return dataclasses.replace(
                node,
                cond=self.expr(node.cond),
                then=self.stmt(node.then),
                other=self.stmt(node.other) if node.other else None,
            )
        if isinstance(node, ast.Case):
            items = [
                ast.CaseItem(
                    labels=[self.expr(l) for l in item.labels],
                    body=self.stmt(item.body),
                )
                for item in node.items
            ]
            return dataclasses.replace(
                node, subject=self.expr(node.subject), items=items
            )
        if isinstance(node, ast.For):
            init = self.stmt(node.init)
            step = self.stmt(node.step)
            assert isinstance(init, ast.Assign) and isinstance(step, ast.Assign)
            return dataclasses.replace(
                node,
                init=init,
                cond=self.expr(node.cond),
                step=step,
                body=self.stmt(node.body),
            )
        if isinstance(node, ast.NullStmt):
            return node
        if isinstance(node, ast.SystemTaskCall):
            # Display/monitor tasks are inert in this simulator; keep the
            # node (with unresolved args dropped) so execution can skip it.
            return ast.SystemTaskCall(line=node.line, name=node.name, args=[])
        raise ElaborationError(f"cannot rewrite statement {type(node).__name__}")


def _resolve_params(
    module: ast.Module, overrides: Dict[str, int]
) -> Dict[str, int]:
    """Evaluate parameter declarations in order, applying overrides."""
    env: Dict[str, int] = {}
    for decl in module.params:
        if not decl.local and decl.name in overrides:
            env[decl.name] = overrides[decl.name]
        else:
            try:
                env[decl.name] = eval_constant(decl.value, env)
            except Exception as exc:
                raise ElaborationError(
                    f"module {module.name!r}: cannot evaluate parameter "
                    f"{decl.name!r}: {exc}"
                ) from None
    unknown = set(overrides) - {p.name for p in module.params if not p.local}
    if unknown:
        raise ElaborationError(
            f"module {module.name!r} has no parameter(s) "
            f"{', '.join(sorted(unknown))}"
        )
    return env


def _range_geometry(
    rng: Optional[ast.Range], params: Dict[str, int], what: str
) -> Tuple[int, int]:
    """Return (width, lsb) for a declared range."""
    if rng is None:
        return 1, 0
    try:
        msb = eval_constant(rng.msb, params)
        lsb = eval_constant(rng.lsb, params)
    except Exception as exc:
        raise ElaborationError(f"cannot evaluate range of {what}: {exc}") from None
    width = abs(msb - lsb) + 1
    return width, min(msb, lsb)


class _Elaborator:
    def __init__(self, source: ast.SourceFile) -> None:
        self._source = source

    def elaborate(
        self, top: str, overrides: Optional[Dict[str, int]] = None
    ) -> Design:
        module = self._source.module(top)
        if module is None:
            raise ElaborationError(f"no module named {top!r}")
        design = Design(top=top)
        self._instantiate(
            design, module, prefix="", overrides=dict(overrides or {}), depth=0,
            is_top=True,
        )
        return design

    # -- per-instance elaboration -----------------------------------------

    def _instantiate(
        self,
        design: Design,
        module: ast.Module,
        prefix: str,
        overrides: Dict[str, int],
        depth: int,
        is_top: bool,
    ) -> Dict[str, str]:
        """Elaborate one instance; returns local-name -> flat-name map."""
        if depth > _MAX_DEPTH:
            raise ElaborationError(
                f"instantiation depth exceeds {_MAX_DEPTH} "
                f"(recursive hierarchy at {module.name!r}?)"
            )
        params = _resolve_params(module, overrides)
        if is_top:
            design.params = dict(params)

        rename: Dict[str, str] = {}
        lsb_offsets: Dict[str, int] = {}

        # Ports and nets become flat signals; memories are split out.
        declared: Dict[str, Signal] = {}
        port_dirs: Dict[str, str] = {}
        for port in module.ports:
            width, lsb = _range_geometry(
                port.range, params, f"port {port.name!r}"
            )
            flat = prefix + port.name
            declared[port.name] = Signal(
                name=flat,
                width=width,
                signed=port.signed,
                kind="reg" if port.is_reg else "wire",
                direction=port.direction if is_top else None,
                lsb=lsb,
            )
            port_dirs[port.name] = port.direction
            rename[port.name] = flat
            lsb_offsets[port.name] = lsb

        init_assigns: List[Tuple[str, ast.Expr]] = []
        for net in module.nets:
            if net.name in declared:
                # ``output reg q;`` style re-declaration refines the port.
                if port_dirs.get(net.name):
                    existing = declared[net.name]
                    if net.kind == "reg":
                        existing.kind = "reg"
                    if net.range is not None:
                        width, lsb = _range_geometry(
                            net.range, params, f"net {net.name!r}"
                        )
                        existing.width = width
                        existing.lsb = lsb
                        lsb_offsets[net.name] = lsb
                    continue
                raise ElaborationError(
                    f"module {module.name!r}: duplicate declaration "
                    f"{net.name!r}"
                )
            flat = prefix + net.name
            if net.array_dims:
                if len(net.array_dims) != 1:
                    raise ElaborationError(
                        "only one-dimensional memories are supported"
                    )
                width, _ = _range_geometry(
                    net.range, params, f"memory {net.name!r}"
                )
                dim = net.array_dims[0]
                lo = eval_constant(dim.msb, params)
                hi = eval_constant(dim.lsb, params)
                base, top_idx = min(lo, hi), max(lo, hi)
                design.memories[flat] = Memory(
                    name=flat, width=width, depth=top_idx - base + 1, base=base
                )
                rename[net.name] = flat
                continue
            width, lsb = _range_geometry(net.range, params, f"net {net.name!r}")
            if net.kind == "integer":
                width, lsb = 32, 0
            declared[net.name] = Signal(
                name=flat,
                width=width,
                signed=net.signed or net.kind == "integer",
                kind=net.kind,
                direction=None,
                lsb=lsb,
            )
            rename[net.name] = flat
            lsb_offsets[net.name] = lsb
            if net.init is not None:
                init_assigns.append((net.name, net.init))

        for sig in declared.values():
            design.signals[sig.name] = sig

        rewriter = _Rewriter(params, rename, lsb_offsets)

        # Declaration initializers: wire x = expr  ->  continuous assign;
        # reg r = expr  ->  initial value.
        for name, expr in init_assigns:
            target = ast.Identifier(name=rename[name])
            value = rewriter.expr(expr)
            if declared[name].kind == "wire":
                design.comb_assigns.append(CombAssign(target=target, value=value))
            else:
                design.initial_stmts.append(
                    ast.Assign(target=target, value=value, blocking=True)
                )

        for assign in module.assigns:
            design.comb_assigns.append(
                CombAssign(
                    target=rewriter.expr(assign.target),
                    value=rewriter.expr(assign.value),
                )
            )

        for block in module.always_blocks:
            body = rewriter.stmt(block.body)
            if block.is_combinational:
                design.comb_blocks.append(CombBlock(body=body))
            else:
                triggers = []
                for item in block.edge_items:
                    if item.signal not in rename:
                        raise ElaborationError(
                            f"module {module.name!r}: unknown trigger "
                            f"{item.signal!r}"
                        )
                    triggers.append((item.edge, rename[item.signal]))
                design.seq_blocks.append(SeqBlock(triggers=triggers, body=body))

        for block in module.initial_blocks:
            design.initial_stmts.append(rewriter.stmt(block.body))

        for inst in module.instances:
            self._elaborate_instance(
                design, module, inst, prefix, params, rewriter, depth
            )
        return rename

    def _elaborate_instance(
        self,
        design: Design,
        parent: ast.Module,
        inst: ast.Instance,
        prefix: str,
        parent_params: Dict[str, int],
        parent_rewriter: _Rewriter,
        depth: int,
    ) -> None:
        child = self._source.module(inst.module_name)
        if child is None:
            raise ElaborationError(
                f"module {parent.name!r} instantiates unknown module "
                f"{inst.module_name!r}"
            )
        # Parameter overrides fold in the parent's constant environment.
        child_overrides: Dict[str, int] = {}
        public_params = [p.name for p in child.params if not p.local]
        for pos, (name, expr) in enumerate(inst.param_overrides):
            value = eval_constant(expr, parent_params)
            if name is None:
                if pos >= len(public_params):
                    raise ElaborationError(
                        f"too many positional parameters for "
                        f"{inst.module_name!r}"
                    )
                child_overrides[public_params[pos]] = value
            else:
                child_overrides[name] = value

        child_prefix = f"{prefix}{inst.instance_name}."
        child_rename = self._instantiate(
            design, child, child_prefix, child_overrides, depth + 1, is_top=False
        )

        # Map connections to port names.
        conn_map: Dict[str, Optional[ast.Expr]] = {}
        positional = all(c.name is None for c in inst.connections)
        if positional and inst.connections:
            if len(inst.connections) > len(child.port_order):
                raise ElaborationError(
                    f"too many connections for {inst.module_name!r}"
                )
            for port_name, conn in zip(child.port_order, inst.connections):
                conn_map[port_name] = conn.expr
        else:
            for conn in inst.connections:
                if conn.name is None:
                    raise ElaborationError(
                        "cannot mix positional and named connections"
                    )
                conn_map[conn.name] = conn.expr

        for port in child.ports:
            flat_child = child_rename[port.name]
            expr = conn_map.get(port.name)
            if expr is None:
                if port.direction == "input":
                    # Unconnected input ties to 0.
                    design.comb_assigns.append(
                        CombAssign(
                            target=ast.Identifier(name=flat_child),
                            value=ast.Number(value=0),
                        )
                    )
                continue
            parent_expr = parent_rewriter.expr(expr)
            if port.direction == "input":
                design.comb_assigns.append(
                    CombAssign(
                        target=ast.Identifier(name=flat_child),
                        value=parent_expr,
                    )
                )
            elif port.direction == "output":
                design.comb_assigns.append(
                    CombAssign(
                        target=parent_expr,
                        value=ast.Identifier(name=flat_child),
                    )
                )
            else:
                raise ElaborationError("inout ports are not supported")
        unknown = set(conn_map) - {p.name for p in child.ports}
        if unknown:
            raise ElaborationError(
                f"{inst.module_name!r} has no port(s) "
                f"{', '.join(sorted(unknown))}"
            )


def elaborate(
    source: ast.SourceFile,
    top: str,
    overrides: Optional[Dict[str, int]] = None,
) -> Design:
    """Elaborate ``top`` from ``source`` with optional parameter overrides."""
    with obs.span("sim.elaborate"):
        return _Elaborator(source).elaborate(top, overrides)
