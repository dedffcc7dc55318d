"""Recursive-descent parser for the Verilog-2001 subset.

The grammar covers the synthesizable constructs produced by the corpus
generators in :mod:`repro.vgen` (see the package docstring of
:mod:`repro.verilog` for the exact subset).  Anything outside the subset
raises :class:`~repro.errors.ParseError` with a position, which is exactly
the behaviour the curation pipeline needs: a file either parses (kept) or
does not (dropped), mirroring the paper's Icarus-based syntax filter.

There is one parser and it reads one representation: the parallel lists
of a :class:`~repro.verilog.tokens.TokenStream`, by index.  "Is the next
token this operator / keyword" is ``syms[pos] == text`` — no token
object, no helper call — and is safe without a kind check because a
string literal's symbol keeps its opening quote (see ``TokenStream``).
Line numbers are read from a per-token list built once per parse;
columns are computed only when an error is raised.  Both lexers feed the
same grammar functions, so the AST and every ``ParseError`` are the same
from either (``tests/test_fastlex.py``).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.errors import ParseError
from repro.verilog import ast
from repro.verilog.fastlex import lex_fast
from repro.verilog.lexer import lex
from repro.verilog.tokens import (
    K_BASED_NUMBER,
    K_EOF,
    K_IDENT,
    K_KEYWORD,
    K_NUMBER,
    K_STRING,
    K_SYSTEM_IDENT,
    Token,
    TokenStream,
)

# Binary operator precedence, low to high.  Each tier is left-associative
# except ** (handled specially).
_BINARY_TIERS: Tuple[Tuple[str, ...], ...] = (
    ("||",),
    ("&&",),
    ("|",),
    ("^", "^~", "~^"),
    ("&",),
    ("==", "!=", "===", "!=="),
    ("<", "<=", ">", ">="),
    ("<<", ">>", "<<<", ">>>"),
    ("+", "-"),
    ("*", "/", "%"),
)

#: operator -> tier index (higher binds tighter), for precedence climbing
_BINARY_OP_TIER = {
    op: tier for tier, ops in enumerate(_BINARY_TIERS) for op in ops
}

_UNARY_OPS = frozenset(["~", "!", "-", "+", "&", "|", "^", "~&", "~|", "~^"])

_PORT_DIRECTIONS = ("input", "output", "inout")

#: the keywords a top-level module starts with
MODULE_KEYWORDS = ("module", "macromodule")

_BASE_RADIX = {"b": 2, "o": 8, "d": 10, "h": 16}

#: the digits (lower case) a based literal of each radix may hold
_RADIX_DIGITS = {
    radix: frozenset("0123456789abcdef"[:radix] + "xz?")
    for radix in _BASE_RADIX.values()
}
_UNKNOWN_DIGIT_RE = re.compile("[xXzZ?]")
_KNOWN_DIGIT_RE = re.compile("[^xXzZ?]")
#: one digit with every bit set, per power-of-two radix
_ALL_ONES_DIGIT = {2: "1", 8: "7", 16: "f"}


#: based literal text -> its ``Number`` fields after ``line``; cleared
#: when it reaches ``_BASED_FIELDS_BOUND`` entries
_BASED_FIELDS: Dict[str, Tuple[int, Optional[int], bool, bool, int]] = {}
_BASED_FIELDS_BOUND = 4096


def parse_based_literal(text: str, line: int = 0) -> ast.Number:
    """Parse a sized/based literal such as ``8'hF0`` or ``4'b10x?``.

    X/Z/? digits are recorded in ``unknown_mask`` (used by casez/casex
    matching) and contribute zero to ``value`` (two-state semantics).

    A corpus repeats a few literal texts many times (on the perf bench's
    seed-0 worlds, 98 % of the calls from the curation syntax stage and
    from the headline completions read a text already seen), so the
    fields of a text already read come from ``_BASED_FIELDS`` (ints and
    bools only; every call returns a fresh node).  A malformed text is
    never stored and raises on every call.
    """
    fields = _BASED_FIELDS.get(text)
    if fields is None:
        fields = _based_literal_fields(text, line)
        if len(_BASED_FIELDS) >= _BASED_FIELDS_BOUND:
            _BASED_FIELDS.clear()
        _BASED_FIELDS[text] = fields
    return ast.Number(line, *fields)


def _based_literal_fields(
    text: str, line: int
) -> Tuple[int, Optional[int], bool, bool, int]:
    """``(value, width, signed, has_unknown, unknown_mask)`` of ``text``."""
    tick = text.index("'")
    size_text = text[:tick].replace("_", "")
    width = int(size_text) if size_text else None
    rest = text[tick + 1:]
    signed = False
    if rest and rest[0] in "sS":
        signed = True
        rest = rest[1:]
    if not rest:
        raise ParseError("malformed based literal", line)
    radix = _BASE_RADIX.get(rest[0].lower())
    if radix is None:
        raise ParseError(f"unknown number base {rest[0]!r}", line)
    digits = rest[1:].replace("_", "")
    if not digits:
        raise ParseError("based literal has no digits", line)
    allowed = _RADIX_DIGITS[radix]
    if not allowed.issuperset(digits.lower()):
        # Checked before any int(): int() takes "0b1" as base 2.
        bad = next(d for d in digits if d.lower() not in allowed)
        raise ParseError(f"digit {bad!r} invalid for base {radix}", line)
    if not _UNKNOWN_DIGIT_RE.search(digits):
        value = int(digits, radix)
        unknown = 0
    elif radix == 10:
        # A decimal x/z literal sets every bit unknown.
        value = 0
        unknown = (1 << (width or 32)) - 1
    else:
        # An x/z/? digit is all of its bits unknown and contributes zero.
        value = int(_UNKNOWN_DIGIT_RE.sub("0", digits), radix)
        unknown = int(
            _UNKNOWN_DIGIT_RE.sub(
                _ALL_ONES_DIGIT[radix], _KNOWN_DIGIT_RE.sub("0", digits)
            ),
            radix,
        )
    if width is not None:
        mask = (1 << width) - 1
        value &= mask
        unknown &= mask
    return value, width, signed, bool(unknown), unknown


class Parser:
    """Parses one source's tokens into a :class:`repro.verilog.ast.SourceFile`.

    ``tokens`` is a :class:`~repro.verilog.tokens.TokenStream` (what
    ``lex_fast`` returns) or the reference lexer's ``Token`` list, which is
    converted to a stream once here — the oracle path, nothing timed uses
    it.  Either way the grammar functions read the stream's lists by index.
    """

    def __init__(self, tokens: Union[TokenStream, Sequence[Token]]) -> None:
        stream = (
            tokens if isinstance(tokens, TokenStream)
            else TokenStream.from_tokens(tokens)
        )
        self._stream = stream
        self._kinds = stream.kinds
        self._syms = stream.syms
        #: token lines, filled by :meth:`parse_module_at` for the range
        #: each module parse reads, so a file the syntax checker's module
        #: table mostly skips computes few of them
        self._lines = [0] * len(stream.kinds)
        # Every advance below follows a successful match of a non-EOF
        # token, so the position never moves past the trailing EOF.
        self._pos = 0

    # -- token helpers ------------------------------------------------------

    def _error(self, message: str, pos: Optional[int] = None) -> ParseError:
        if pos is None:  # not ``pos or``: token 0 is a position too
            pos = self._pos
        stream = self._stream
        line, col = stream.position(stream.starts[pos])
        return ParseError(f"{message}, got {stream.text(pos)!r}", line, col)

    def _expect(self, sym: str) -> int:
        """Consume operator or keyword ``sym``; returns its position."""
        pos = self._pos
        if self._syms[pos] != sym:
            raise self._error(f"expected {sym!r}")
        self._pos = pos + 1
        return pos

    def _expect_ident(self) -> int:
        pos = self._pos
        if self._kinds[pos] != K_IDENT:
            raise self._error("expected identifier")
        self._pos = pos + 1
        return pos

    def _accept(self, sym: str) -> bool:
        """Consume operator or keyword ``sym`` if it is next."""
        if self._syms[self._pos] == sym:
            self._pos += 1
            return True
        return False

    def _parse_range(self) -> ast.Range:
        """Parse ``[msb:lsb]``."""
        self._expect("[")
        msb = self._parse_expr()
        self._expect(":")
        lsb = self._parse_expr()
        self._expect("]")
        return ast.Range(msb=msb, lsb=lsb)

    def _maybe_range(self) -> Optional[ast.Range]:
        if self._syms[self._pos] == "[":
            return self._parse_range()
        return None

    # -- top level -----------------------------------------------------------

    def parse_source(self) -> ast.SourceFile:
        source = ast.SourceFile()
        pos = 0
        while self._kinds[pos] != K_EOF:
            module, pos = self.parse_module_at(pos)
            source.modules.append(module)
        if not source.modules:
            raise ParseError("source contains no modules")
        return source

    def parse_module_at(self, pos: int) -> Tuple[ast.Module, int]:
        """The top-level module starting at token ``pos`` and the position
        after it, exactly as :meth:`parse_source`'s loop reads it there.

        On success the module ends at the first ``endmodule`` keyword after
        ``pos``: every item parser stops at (or fails on) that keyword and
        nothing reads a token past it, so the outcome is a function of
        that token range alone (the syntax checker's module table relies
        on this).
        """
        self._pos = pos
        syms = self._syms
        if syms[pos] not in MODULE_KEYWORDS:
            raise self._error("expected 'module' at top level")
        try:
            stop = syms.index("endmodule", pos) + 1
        except ValueError:
            stop = len(syms)  # no endmodule: the parse fails, but may read on
        self._lines[pos:stop] = self._stream.lines(pos, stop)
        return self._parse_module(), self._pos

    def _parse_module(self) -> ast.Module:
        start = self._pos  # module
        self._pos += 1
        name = self._syms[self._expect_ident()]
        module = ast.Module(name=name, line=self._lines[start])
        if self._accept("#"):
            self._parse_module_param_list(module)
        if self._syms[self._pos] == "(":
            self._parse_port_list(module)
        self._expect(";")
        while self._syms[self._pos] != "endmodule":
            if self._kinds[self._pos] == K_EOF:
                raise self._error("unexpected end of file inside module")
            self._parse_module_item(module)
        self._pos += 1  # endmodule
        return module

    def _parse_module_param_list(self, module: ast.Module) -> None:
        """``#(parameter A = 1, parameter [3:0] B = 2, ...)``"""
        self._expect("(")
        while True:
            self._accept("parameter")
            rng = self._maybe_range()
            name = self._expect_ident()
            self._expect("=")
            value = self._parse_expr()
            module.params.append(
                ast.ParamDecl(
                    name=self._syms[name],
                    value=value,
                    local=False,
                    range=rng,
                    line=self._lines[name],
                )
            )
            if not self._accept(","):
                break
        self._expect(")")

    def _parse_port_list(self, module: ast.Module) -> None:
        self._expect("(")
        if self._accept(")"):
            return
        # Decide ANSI vs non-ANSI from the first token.
        direction: Optional[str] = None
        is_reg = False
        signed = False
        rng: Optional[ast.Range] = None
        while True:
            if self._syms[self._pos] in _PORT_DIRECTIONS:
                direction = self._syms[self._pos]
                self._pos += 1
                is_reg = self._accept("reg")
                self._accept("wire")
                signed = self._accept("signed")
                rng = self._maybe_range()
            name = self._expect_ident()
            module.port_order.append(self._syms[name])
            if direction is not None:
                module.ports.append(
                    ast.PortDecl(
                        direction=direction,
                        name=self._syms[name],
                        range=rng,
                        is_reg=is_reg,
                        signed=signed,
                        line=self._lines[name],
                    )
                )
            if not self._accept(","):
                break
        self._expect(")")

    # -- module items ----------------------------------------------------

    def _parse_module_item(self, module: ast.Module) -> None:
        pos = self._pos
        kind = self._kinds[pos]
        if kind == K_KEYWORD:
            handler = _MODULE_ITEM_HANDLERS.get(self._syms[pos])
            if handler is None:
                raise self._error(
                    f"unsupported module item {self._syms[pos]!r}"
                )
            handler(self, module)
            return
        if kind == K_IDENT:
            module.instances.extend(self._parse_instances())
            return
        if self._syms[pos] == ";":
            self._pos += 1
            return
        raise self._error("expected module item")

    def _parse_body_port(self, module: ast.Module) -> None:
        direction = self._syms[self._pos]
        self._pos += 1
        is_reg = self._accept("reg")
        self._accept("wire")
        signed = self._accept("signed")
        rng = self._maybe_range()
        while True:
            name = self._expect_ident()
            module.ports.append(
                ast.PortDecl(
                    direction=direction,
                    name=self._syms[name],
                    range=rng,
                    is_reg=is_reg,
                    signed=signed,
                    line=self._lines[name],
                )
            )
            if not self._accept(","):
                break
        self._expect(";")

    def _parse_net_decl(self, module: ast.Module) -> None:
        kind = self._syms[self._pos]
        self._pos += 1
        signed = self._accept("signed")
        rng = self._maybe_range() if kind != "integer" else None
        while True:
            name = self._expect_ident()
            dims: List[ast.Range] = []
            while self._syms[self._pos] == "[":
                dims.append(self._parse_range())
            init = None
            if self._accept("="):
                init = self._parse_expr()
            module.nets.append(
                ast.NetDecl(
                    kind=kind,
                    name=self._syms[name],
                    range=rng,
                    array_dims=dims,
                    signed=signed,
                    init=init,
                    line=self._lines[name],
                )
            )
            if not self._accept(","):
                break
        self._expect(";")

    def _parse_param_decl(self, module: ast.Module) -> None:
        local = self._syms[self._pos] == "localparam"
        self._pos += 1
        rng = self._maybe_range()
        while True:
            name = self._expect_ident()
            self._expect("=")
            value = self._parse_expr()
            module.params.append(
                ast.ParamDecl(
                    name=self._syms[name],
                    value=value,
                    local=local,
                    range=rng,
                    line=self._lines[name],
                )
            )
            if not self._accept(","):
                break
        self._expect(";")

    def _parse_continuous_assign(self, module: ast.Module) -> None:
        line = self._lines[self._pos]  # assign
        self._pos += 1
        while True:
            target = self._parse_lvalue()
            self._expect("=")
            value = self._parse_expr()
            module.assigns.append(
                ast.ContinuousAssign(target=target, value=value, line=line)
            )
            if not self._accept(","):
                break
        self._expect(";")

    def _parse_always(self, module: ast.Module) -> None:
        line = self._lines[self._pos]  # always
        self._pos += 1
        sensitivity: Optional[List[ast.SensItem]] = None
        if self._accept("@"):
            if self._accept("*"):
                sensitivity = None
            else:
                self._expect("(")
                if self._accept("*"):
                    sensitivity = None
                else:
                    sensitivity = [self._parse_sens_item()]
                    while self._accept("or") or self._accept(","):
                        sensitivity.append(self._parse_sens_item())
                self._expect(")")
        else:
            raise self._error("always block without sensitivity list")
        body = self._parse_statement()
        module.always_blocks.append(
            ast.AlwaysBlock(sensitivity=sensitivity, body=body, line=line)
        )

    def _parse_sens_item(self) -> ast.SensItem:
        edge = "level"
        if self._accept("posedge"):
            edge = "posedge"
        elif self._accept("negedge"):
            edge = "negedge"
        return ast.SensItem(edge=edge, signal=self._syms[self._expect_ident()])

    def _parse_initial(self, module: ast.Module) -> None:
        line = self._lines[self._pos]  # initial
        self._pos += 1
        body = self._parse_statement()
        module.initial_blocks.append(ast.InitialBlock(body=body, line=line))

    def _parse_instances(self) -> List[ast.Instance]:
        """One instantiation statement (may declare several instances)."""
        module_name = self._syms[self._expect_ident()]
        param_overrides: List[Tuple[Optional[str], ast.Expr]] = []
        if self._accept("#"):
            self._expect("(")
            param_overrides = self._parse_connection_list()
            self._expect(")")
        instances: List[ast.Instance] = []
        while True:
            name = self._expect_ident()
            self._expect("(")
            raw = (
                [] if self._syms[self._pos] == ")"
                else self._parse_connection_list()
            )
            self._expect(")")
            connections = [
                ast.PortConnection(name=port, expr=expr) for port, expr in raw
            ]
            instances.append(
                ast.Instance(
                    module_name=module_name,
                    instance_name=self._syms[name],
                    param_overrides=list(param_overrides),
                    connections=connections,
                    line=self._lines[name],
                )
            )
            if not self._accept(","):
                break
        self._expect(";")
        return instances

    def _parse_connection_list(self) -> List[Tuple[Optional[str], ast.Expr]]:
        """Named (``.a(x)``) or positional expression list."""
        out: List[Tuple[Optional[str], ast.Expr]] = []
        while True:
            if self._accept("."):
                name = self._syms[self._expect_ident()]
                self._expect("(")
                expr = (
                    None if self._syms[self._pos] == ")"
                    else self._parse_expr()
                )
                self._expect(")")
                out.append((name, expr))
            else:
                out.append((None, self._parse_expr()))
            if not self._accept(","):
                return out

    # -- statements --------------------------------------------------------

    def _parse_statement(self) -> ast.Stmt:
        pos = self._pos
        sym = self._syms[pos]
        if sym == "begin":
            return self._parse_block()
        if sym == "if":
            return self._parse_if()
        if sym in ("case", "casez", "casex"):
            return self._parse_case()
        if sym == "for":
            return self._parse_for()
        if sym == ";":
            self._pos = pos + 1
            return ast.NullStmt(line=self._lines[pos])
        kind = self._kinds[pos]
        if kind == K_SYSTEM_IDENT:
            return self._parse_system_task()
        if kind == K_IDENT or sym == "{":
            stmt = self._parse_assignment()
            self._expect(";")
            return stmt
        raise self._error("expected statement")

    def _parse_block(self) -> ast.Block:
        line = self._lines[self._pos]  # begin
        self._pos += 1
        name = None
        if self._accept(":"):
            name = self._syms[self._expect_ident()]
        stmts: List[ast.Stmt] = []
        while self._syms[self._pos] != "end":
            if self._kinds[self._pos] == K_EOF:
                raise self._error("unexpected end of file inside begin/end")
            stmts.append(self._parse_statement())
        self._pos += 1  # end
        return ast.Block(line=line, stmts=stmts, name=name)

    def _parse_if(self) -> ast.If:
        line = self._lines[self._pos]  # if
        self._pos += 1
        self._expect("(")
        cond = self._parse_expr()
        self._expect(")")
        then = self._parse_statement()
        other = None
        if self._accept("else"):
            other = self._parse_statement()
        return ast.If(line=line, cond=cond, then=then, other=other)

    def _parse_case(self) -> ast.Case:
        start = self._pos  # case / casez / casex
        self._pos += 1
        self._expect("(")
        subject = self._parse_expr()
        self._expect(")")
        items: List[ast.CaseItem] = []
        while self._syms[self._pos] != "endcase":
            if self._kinds[self._pos] == K_EOF:
                raise self._error("unexpected end of file inside case")
            if self._accept("default"):
                self._accept(":")
                items.append(ast.CaseItem(labels=[], body=self._parse_statement()))
                continue
            labels = [self._parse_expr()]
            while self._accept(","):
                labels.append(self._parse_expr())
            self._expect(":")
            items.append(ast.CaseItem(labels=labels, body=self._parse_statement()))
        self._pos += 1  # endcase
        return ast.Case(
            line=self._lines[start],
            kind=self._syms[start],
            subject=subject,
            items=items,
        )

    def _parse_for(self) -> ast.For:
        line = self._lines[self._pos]  # for
        self._pos += 1
        self._expect("(")
        init = self._parse_assignment()
        if not isinstance(init, ast.Assign) or not init.blocking:
            raise self._error("for-loop init must be a blocking assignment")
        self._expect(";")
        cond = self._parse_expr()
        self._expect(";")
        step = self._parse_assignment()
        if not isinstance(step, ast.Assign) or not step.blocking:
            raise self._error("for-loop step must be a blocking assignment")
        self._expect(")")
        body = self._parse_statement()
        return ast.For(line=line, init=init, cond=cond, step=step, body=body)

    def _parse_system_task(self) -> ast.SystemTaskCall:
        start = self._pos
        self._pos += 1
        args: List[ast.Expr] = []
        if self._accept("("):
            if self._syms[self._pos] != ")":
                args.append(self._parse_expr())
                while self._accept(","):
                    args.append(self._parse_expr())
            self._expect(")")
        self._expect(";")
        return ast.SystemTaskCall(
            line=self._lines[start], name=self._syms[start], args=args
        )

    def _parse_assignment(self) -> ast.Assign:
        target = self._parse_lvalue()
        pos = self._pos
        sym = self._syms[pos]
        if sym != "=" and sym != "<=":
            raise self._error("expected '=' or '<=' in assignment")
        self._pos = pos + 1
        return ast.Assign(
            line=self._lines[pos],
            target=target,
            value=self._parse_expr(),
            blocking=sym == "=",
        )

    def _parse_lvalue(self) -> ast.Expr:
        """Identifier with optional selects, or a concatenation of lvalues."""
        if self._syms[self._pos] == "{":
            return self._parse_concat()
        name = self._expect_ident()
        expr: ast.Expr = ast.Identifier(
            line=self._lines[name], name=self._syms[name]
        )
        while self._syms[self._pos] == "[":
            expr = self._parse_select_suffix(expr)
        return expr

    # -- expressions --------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        cond = self._parse_binary(0)
        if self._syms[self._pos] != "?":
            return cond
        self._pos += 1
        then = self._parse_expr()
        self._expect(":")
        other = self._parse_expr()  # right associative
        return ast.Ternary(line=cond.line, cond=cond, then=then, other=other)

    def _parse_binary(self, tier: int) -> ast.Expr:
        # Precedence climbing: equivalent to the straightforward
        # one-method-per-tier cascade (left-associative within a tier,
        # higher tiers bind tighter) but recurses only where an operator
        # actually appears instead of through every tier per operand.
        #
        # The leaf path: most operands are a bare identifier or a literal,
        # which ``_parse_power`` -> ``_parse_unary`` -> ``_parse_primary``
        # would build after three calls.  It is built here instead; an
        # identifier followed by ``[`` (a select) takes the full descent,
        # and a leaf followed by ``**`` continues as ``_parse_power`` does.
        syms = self._syms
        pos = self._pos
        kind = self._kinds[pos]
        if kind == K_IDENT and syms[pos + 1] != "[":
            lhs: ast.Expr = ast.Identifier(self._lines[pos], syms[pos])
        elif kind == K_NUMBER and "." not in syms[pos]:
            lhs = ast.Number(self._lines[pos], int(syms[pos].replace("_", "")))
        elif kind == K_BASED_NUMBER:
            lhs = parse_based_literal(syms[pos], self._lines[pos])
        else:
            lhs = None
        if lhs is None:
            lhs = self._parse_power()
        elif syms[pos + 1] == "**":
            self._pos = pos + 2
            lhs = ast.Binary(
                line=lhs.line, op="**", lhs=lhs, rhs=self._parse_power()
            )
        else:
            self._pos = pos + 1
        while True:
            op = syms[self._pos]
            op_tier = _BINARY_OP_TIER.get(op)
            if op_tier is None or op_tier < tier:
                return lhs
            self._pos += 1
            rhs = self._parse_binary(op_tier + 1)
            lhs = ast.Binary(line=lhs.line, op=op, lhs=lhs, rhs=rhs)

    def _parse_power(self) -> ast.Expr:
        base = self._parse_unary()
        if self._syms[self._pos] == "**":
            self._pos += 1
            exponent = self._parse_power()  # right associative
            return ast.Binary(line=base.line, op="**", lhs=base, rhs=exponent)
        return base

    def _parse_unary(self) -> ast.Expr:
        pos = self._pos
        op = self._syms[pos]
        if op in _UNARY_OPS:
            self._pos = pos + 1
            operand = self._parse_unary()
            return ast.Unary(line=self._lines[pos], op=op, operand=operand)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        pos = self._pos
        kind = self._kinds[pos]
        sym = self._syms[pos]
        if kind == K_IDENT:
            self._pos = pos + 1
            expr: ast.Expr = ast.Identifier(line=self._lines[pos], name=sym)
            while self._syms[self._pos] == "[":
                expr = self._parse_select_suffix(expr)
            return expr
        if kind == K_NUMBER:
            self._pos = pos + 1
            if "." in sym:
                raise self._error("real literals are not supported", pos)
            return ast.Number(
                line=self._lines[pos], value=int(sym.replace("_", ""))
            )
        if kind == K_BASED_NUMBER:
            self._pos = pos + 1
            return parse_based_literal(sym, self._lines[pos])
        if sym == "(":
            self._pos = pos + 1
            inner = self._parse_expr()
            self._expect(")")
            return inner
        if sym == "{":
            return self._parse_concat()
        if kind == K_STRING:
            self._pos = pos + 1
            return ast.StringLiteral(line=self._lines[pos], value=sym[1:])
        if kind == K_SYSTEM_IDENT:
            return self._parse_system_call()
        raise self._error("expected expression")

    def _parse_system_call(self) -> ast.SystemCall:
        start = self._pos
        self._pos += 1
        args: List[ast.Expr] = []
        if self._accept("("):
            if self._syms[self._pos] != ")":
                args.append(self._parse_expr())
                while self._accept(","):
                    args.append(self._parse_expr())
            self._expect(")")
        return ast.SystemCall(
            line=self._lines[start], name=self._syms[start], args=args
        )

    def _parse_concat(self) -> ast.Expr:
        line = self._lines[self._expect("{")]
        first = self._parse_expr()
        if self._syms[self._pos] == "{":
            # Replication: {N{...}}
            inner = self._parse_concat()
            if not isinstance(inner, ast.Concat):
                inner = ast.Concat(line=line, parts=[inner])
            self._expect("}")
            return ast.Repeat(line=line, count=first, inner=inner)
        parts = [first]
        while self._accept(","):
            parts.append(self._parse_expr())
        self._expect("}")
        return ast.Concat(line=line, parts=parts)

    def _parse_select_suffix(self, base: ast.Expr) -> ast.Expr:
        """Parse one ``[...]`` suffix: index, part, or indexed part select."""
        line = self._lines[self._expect("[")]
        first = self._parse_expr()
        if self._accept(":"):
            lsb = self._parse_expr()
            self._expect("]")
            return ast.PartSelect(line=line, base=base, msb=first, lsb=lsb)
        if self._accept("+:"):
            width = self._parse_expr()
            self._expect("]")
            return ast.IndexedPartSelect(
                line=line, base=base, start=first, width=width, ascending=True
            )
        if self._accept("-:"):
            width = self._parse_expr()
            self._expect("]")
            return ast.IndexedPartSelect(
                line=line, base=base, start=first, width=width, ascending=False
            )
        self._expect("]")
        return ast.Index(line=line, base=base, index=first)


_MODULE_ITEM_HANDLERS = {
    "input": Parser._parse_body_port,
    "output": Parser._parse_body_port,
    "inout": Parser._parse_body_port,
    "wire": Parser._parse_net_decl,
    "reg": Parser._parse_net_decl,
    "integer": Parser._parse_net_decl,
    "parameter": Parser._parse_param_decl,
    "localparam": Parser._parse_param_decl,
    "assign": Parser._parse_continuous_assign,
    "always": Parser._parse_always,
    "initial": Parser._parse_initial,
}


def _lex(source: str, lexer):
    """``lexer``'s tokens for ``source``, under the front end's lex
    telemetry: one ``verilog.lex`` span per source (never per token) and
    the exact ``verilog.tokens`` counter."""
    with obs.span("verilog.lex"):
        tokens = lexer(source)
    obs.count("verilog.tokens", len(tokens))
    return tokens


def lex_stream(source: str, lexer) -> TokenStream:
    """``lexer``'s tokens for ``source`` as a stream (a reference-lexer
    ``Token`` list is converted), under :func:`_lex`'s telemetry."""
    tokens = _lex(source, lexer)
    if isinstance(tokens, TokenStream):
        return tokens
    return TokenStream.from_tokens(tokens)


def parse_with_lexer(source: str, lexer) -> ast.SourceFile:
    """Lex ``source`` with ``lexer`` and parse the result.

    Takes the front end's telemetry under the names the perf ledger's
    layer walk already uses, as ``syntax.check_with_lexer`` does: a
    ``verilog.lex`` and a ``verilog.parse`` span per source and the exact
    ``verilog.tokens`` counter.
    """
    stream = lex_stream(source, lexer)
    with obs.span("verilog.parse"):
        return Parser(stream).parse_source()


def parse_source(source: str) -> ast.SourceFile:
    """Lex and parse Verilog ``source`` text into a :class:`SourceFile`."""
    return parse_with_lexer(source, lex)


def parse_source_fast(source: str) -> ast.SourceFile:
    """:func:`parse_source` through the regex lexer.

    ``lex_fast`` produces the exact tokens of ``lex`` (the contract
    :mod:`repro.verilog.fastlex` states and ``tests/test_fastlex.py``
    enforces), so the resulting AST is identical; only the cost changes.
    Evaluation-side hot paths use this entry point.
    """
    return parse_with_lexer(source, lex_fast)


def lex_source_digest(
    source: str, prompt: Optional[TokenStream] = None
) -> Tuple[TokenStream, bytes]:
    """The regex lexer's stream of ``source`` and its token digest
    (:meth:`~repro.verilog.tokens.TokenStream.digest`).

    The functional checker's front end: it lexes first, so a source its
    digest decides is never parsed, and hands the rest to
    :func:`parse_stream`.  The curation path (``check_syntax_fast``)
    digests module ranges, never a whole stream.  ``prompt`` is the
    :func:`~repro.verilog.fastlex.lex_prompt` stream of a closed prompt
    ``source`` starts with, which ``lex_fast`` lexes on from; the
    ``verilog.lex`` span and ``verilog.tokens`` counter still cover the
    whole source.
    """
    stream = _lex(source, lambda text: lex_fast(text, prompt))
    return stream, stream.digest()


def parse_stream(stream: TokenStream) -> ast.SourceFile:
    """Parse a :func:`lex_source_digest` stream, under the
    ``verilog.parse`` span: with it, :func:`parse_source_fast`."""
    with obs.span("verilog.parse"):
        return Parser(stream).parse_source()
