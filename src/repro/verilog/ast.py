"""AST node definitions for the Verilog-2001 subset.

All nodes are plain dataclasses.  Expressions and statements keep source
position (``line``) for diagnostics only: it takes no part in equality
*or* ``repr``, so both are purely structural — :mod:`repro.sim.batch`
fingerprints bodies by ``repr``, and a comment or blank line above a
module must not make two identical bodies look different.
Width/parameter resolution happens later, in
:mod:`repro.sim.elaborate`, so ranges and literals store expressions, not
resolved integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class for expression nodes."""

    line: int = field(default=0, compare=False, repr=False)


@dataclass
class Number(Expr):
    """Integer literal, optionally sized/based (``8'hFF``)."""

    value: int = 0
    width: Optional[int] = None
    signed: bool = False
    #: True when the literal contained x/z/? digits; the two-state simulator
    #: treats those bits as 0 but casez pattern matching treats them as
    #: wildcards.
    has_unknown: bool = False
    #: Bit mask of positions holding x/z/? digits (LSB-aligned).
    unknown_mask: int = 0


@dataclass
class StringLiteral(Expr):
    value: str = ""


@dataclass
class Identifier(Expr):
    name: str = ""


@dataclass
class Unary(Expr):
    """Unary operator: ``~ ! - + & | ^ ~& ~| ~^``."""

    op: str = ""
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class Binary(Expr):
    """Binary operator with Verilog semantics."""

    op: str = ""
    lhs: Expr = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]


@dataclass
class Ternary(Expr):
    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    other: Expr = None  # type: ignore[assignment]


@dataclass
class Concat(Expr):
    parts: List[Expr] = field(default_factory=list)


@dataclass
class Repeat(Expr):
    """Replication ``{N{expr, ...}}``."""

    count: Expr = None  # type: ignore[assignment]
    inner: Concat = None  # type: ignore[assignment]


@dataclass
class Index(Expr):
    """Bit select or memory/array element select: ``a[i]``."""

    base: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]


@dataclass
class PartSelect(Expr):
    """Constant part select ``a[msb:lsb]``."""

    base: Expr = None  # type: ignore[assignment]
    msb: Expr = None  # type: ignore[assignment]
    lsb: Expr = None  # type: ignore[assignment]


@dataclass
class IndexedPartSelect(Expr):
    """Indexed part select ``a[base +: width]`` or ``a[base -: width]``."""

    base: Expr = None  # type: ignore[assignment]
    start: Expr = None  # type: ignore[assignment]
    width: Expr = None  # type: ignore[assignment]
    ascending: bool = True  # True for +:, False for -:


@dataclass
class SystemCall(Expr):
    """System function call in expression position (``$signed``, ``$clog2``)."""

    name: str = ""
    args: List[Expr] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    line: int = field(default=0, compare=False, repr=False)


@dataclass
class Block(Stmt):
    """``begin ... end`` (optionally named)."""

    stmts: List[Stmt] = field(default_factory=list)
    name: Optional[str] = None


@dataclass
class Assign(Stmt):
    """Blocking (``=``) or nonblocking (``<=``) procedural assignment."""

    target: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]
    blocking: bool = True


@dataclass
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: Stmt = None  # type: ignore[assignment]
    other: Optional[Stmt] = None


@dataclass
class CaseItem:
    """One arm of a case statement; empty labels means ``default``."""

    labels: List[Expr] = field(default_factory=list)
    body: Stmt = None  # type: ignore[assignment]

    @property
    def is_default(self) -> bool:
        return not self.labels


@dataclass
class Case(Stmt):
    kind: str = "case"  # case | casez | casex
    subject: Expr = None  # type: ignore[assignment]
    items: List[CaseItem] = field(default_factory=list)


@dataclass
class For(Stmt):
    init: Assign = None  # type: ignore[assignment]
    cond: Expr = None  # type: ignore[assignment]
    step: Assign = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class NullStmt(Stmt):
    """A lone semicolon."""


@dataclass
class SystemTaskCall(Stmt):
    """System task statement (``$display(...);``) — parsed, ignored in sim."""

    name: str = ""
    args: List[Expr] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Module items
# ---------------------------------------------------------------------------


@dataclass
class Range:
    """A ``[msb:lsb]`` range with unresolved expressions."""

    msb: Expr
    lsb: Expr


@dataclass
class PortDecl:
    """Port declaration (ANSI header style or body style)."""

    direction: str  # input | output | inout
    name: str
    range: Optional[Range] = None
    is_reg: bool = False
    signed: bool = False
    line: int = 0


@dataclass
class NetDecl:
    """wire/reg/integer declaration of one identifier.

    ``array_dims`` is non-empty for memories (``reg [7:0] mem [0:15]``).
    ``init`` carries a declaration-assignment (``wire x = a & b;``).
    """

    kind: str  # wire | reg | integer
    name: str
    range: Optional[Range] = None
    array_dims: List[Range] = field(default_factory=list)
    signed: bool = False
    init: Optional[Expr] = None
    line: int = 0


@dataclass
class ParamDecl:
    name: str
    value: Expr
    local: bool = False
    range: Optional[Range] = None
    line: int = 0


@dataclass
class ContinuousAssign:
    target: Expr
    value: Expr
    line: int = 0


@dataclass
class SensItem:
    """One sensitivity-list entry: ``posedge clk``, ``negedge rst``, or a
    level-sensitive signal name.  ``edge`` is ``posedge``/``negedge``/``level``."""

    edge: str
    signal: str


@dataclass
class AlwaysBlock:
    """``always @(...)`` block.  ``sensitivity is None`` means ``@(*)``."""

    sensitivity: Optional[List[SensItem]]
    body: Stmt
    line: int = 0

    @property
    def is_combinational(self) -> bool:
        if self.sensitivity is None:
            return True
        return all(item.edge == "level" for item in self.sensitivity)

    @property
    def edge_items(self) -> List[SensItem]:
        if self.sensitivity is None:
            return []
        return [item for item in self.sensitivity if item.edge != "level"]


@dataclass
class InitialBlock:
    body: Stmt
    line: int = 0


@dataclass
class PortConnection:
    """Connection in an instantiation; ``name is None`` for positional."""

    name: Optional[str]
    expr: Optional[Expr]


@dataclass
class Instance:
    """Module instantiation."""

    module_name: str
    instance_name: str
    param_overrides: List[Tuple[Optional[str], Expr]] = field(default_factory=list)
    connections: List[PortConnection] = field(default_factory=list)
    line: int = 0


@dataclass
class Module:
    """A parsed module: ordered port names plus all body items."""

    name: str
    port_order: List[str] = field(default_factory=list)
    ports: List[PortDecl] = field(default_factory=list)
    params: List[ParamDecl] = field(default_factory=list)
    nets: List[NetDecl] = field(default_factory=list)
    assigns: List[ContinuousAssign] = field(default_factory=list)
    always_blocks: List[AlwaysBlock] = field(default_factory=list)
    initial_blocks: List[InitialBlock] = field(default_factory=list)
    instances: List[Instance] = field(default_factory=list)
    line: int = 0

    def port(self, name: str) -> Optional[PortDecl]:
        for port in self.ports:
            if port.name == name:
                return port
        return None


@dataclass
class SourceFile:
    """All modules parsed from one source text."""

    modules: List[Module] = field(default_factory=list)

    def module(self, name: str) -> Optional[Module]:
        for mod in self.modules:
            if mod.name == name:
                return mod
        return None
