"""Unit tests for the Verilog parser."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.verilog import ast, parse_source
from repro.verilog.parser import parse_based_literal


def only_module(source):
    parsed = parse_source(source)
    assert len(parsed.modules) == 1
    return parsed.modules[0]


class TestModuleHeaders:
    def test_ansi_ports(self):
        m = only_module(
            "module m(input wire a, output reg [3:0] b); endmodule"
        )
        assert m.port_order == ["a", "b"]
        assert m.port("a").direction == "input"
        assert m.port("b").is_reg
        assert m.port("b").range is not None

    def test_port_direction_carries_to_following_names(self):
        m = only_module("module m(input [3:0] a, b, output y); endmodule")
        assert m.port("b").direction == "input"
        assert m.port("b").range is not None
        assert m.port("y").direction == "output"

    def test_non_ansi_ports(self):
        m = only_module(
            "module m(a, b); input a; output [7:0] b; endmodule"
        )
        assert m.port_order == ["a", "b"]
        assert m.port("b").range is not None

    def test_parameter_header(self):
        m = only_module(
            "module m #(parameter W = 4, parameter D = W*2)(input [W-1:0] a);"
            " endmodule"
        )
        assert [p.name for p in m.params] == ["W", "D"]

    def test_empty_port_list(self):
        m = only_module("module m(); endmodule")
        assert m.port_order == []

    def test_no_port_list(self):
        m = only_module("module m; wire x; endmodule")
        assert m.port_order == []

    def test_two_modules(self):
        parsed = parse_source("module a; endmodule module b; endmodule")
        assert [m.name for m in parsed.modules] == ["a", "b"]

    def test_empty_source_is_error(self):
        with pytest.raises(ParseError):
            parse_source("// only a comment\n")

    def test_garbage_at_top_level_is_error(self):
        with pytest.raises(ParseError):
            parse_source("wire x;")


class TestDeclarations:
    def test_wire_with_init(self):
        m = only_module("module m; wire [3:0] x = 4'd3; endmodule")
        assert m.nets[0].init is not None

    def test_multiple_names_share_range(self):
        m = only_module("module m; reg [7:0] a, b, c; endmodule")
        assert len(m.nets) == 3
        assert all(n.range is not None for n in m.nets)

    def test_memory_declaration(self):
        m = only_module("module m; reg [7:0] mem [0:15]; endmodule")
        assert len(m.nets[0].array_dims) == 1

    def test_integer_declaration(self):
        m = only_module("module m; integer i; endmodule")
        assert m.nets[0].kind == "integer"

    def test_localparam(self):
        m = only_module("module m; localparam N = 5; endmodule")
        assert m.params[0].local

    def test_signed_reg(self):
        m = only_module("module m; reg signed [7:0] s; endmodule")
        assert m.nets[0].signed


class TestStatements:
    def test_always_posedge(self):
        m = only_module(
            "module m(input clk); reg q;"
            " always @(posedge clk) q <= ~q; endmodule"
        )
        block = m.always_blocks[0]
        assert not block.is_combinational
        assert block.edge_items[0].edge == "posedge"

    def test_always_star_both_syntaxes(self):
        for sens in ["@(*)", "@*"]:
            m = only_module(
                f"module m(input a, output reg y);"
                f" always {sens} y = a; endmodule"
            )
            assert m.always_blocks[0].is_combinational

    def test_sensitivity_list_or_and_comma(self):
        for sep in [" or ", ", "]:
            m = only_module(
                f"module m(input a, input b, output reg y);"
                f" always @(a{sep}b) y = a & b; endmodule"
            )
            assert len(m.always_blocks[0].sensitivity) == 2

    def test_always_without_at_is_error(self):
        with pytest.raises(ParseError):
            parse_source("module m; always begin end endmodule")

    def test_if_else_chain(self):
        m = only_module(
            "module m(input a, input b, output reg y); always @(*)"
            " if (a) y = 1'b1; else if (b) y = 1'b0; else y = a; endmodule"
        )
        stmt = m.always_blocks[0].body
        assert isinstance(stmt, ast.If)
        assert isinstance(stmt.other, ast.If)

    def test_case_with_default(self):
        m = only_module(
            "module m(input [1:0] s, output reg y); always @(*)"
            " case (s) 2'd0: y = 1'b0; 2'd1, 2'd2: y = 1'b1;"
            " default: y = 1'bx; endcase endmodule"
        )
        case = m.always_blocks[0].body
        assert isinstance(case, ast.Case)
        assert len(case.items) == 3
        assert len(case.items[1].labels) == 2
        assert case.items[2].is_default

    def test_casez(self):
        m = only_module(
            "module m(input [3:0] s, output reg y); always @(*)"
            " casez (s) 4'b1???: y = 1'b1; default: y = 1'b0;"
            " endcase endmodule"
        )
        assert m.always_blocks[0].body.kind == "casez"

    def test_for_loop(self):
        m = only_module(
            "module m(input [3:0] d, output reg [3:0] y); integer i;"
            " always @(*) begin y = 4'd0;"
            " for (i = 0; i < 4; i = i + 1) y[i] = d[3-i]; end endmodule"
        )
        block = m.always_blocks[0].body
        assert isinstance(block.stmts[1], ast.For)

    def test_named_block(self):
        m = only_module(
            "module m(input a, output reg y); always @(*)"
            " begin : blk y = a; end endmodule"
        )
        assert m.always_blocks[0].body.name == "blk"

    def test_initial_block(self):
        m = only_module("module m; reg q; initial q = 1'b0; endmodule")
        assert len(m.initial_blocks) == 1

    def test_system_task_statement(self):
        m = only_module(
            'module m; initial $display("hi", 3); endmodule'
        )
        assert isinstance(m.initial_blocks[0].body, ast.SystemTaskCall)


class TestExpressions:
    def _rhs(self, expr_text):
        m = only_module(f"module m; wire x = {expr_text}; endmodule")
        return m.nets[0].init

    def test_precedence_arith_over_shift(self):
        expr = self._rhs("a + b << 2")
        assert isinstance(expr, ast.Binary) and expr.op == "<<"
        assert expr.lhs.op == "+"

    def test_precedence_and_over_or(self):
        expr = self._rhs("a | b & c")
        assert expr.op == "|"
        assert expr.rhs.op == "&"

    def test_power_right_associative(self):
        expr = self._rhs("a ** b ** c")
        assert expr.op == "**"
        assert expr.rhs.op == "**"

    def test_ternary_nested(self):
        expr = self._rhs("a ? b : c ? d : e")
        assert isinstance(expr, ast.Ternary)
        assert isinstance(expr.other, ast.Ternary)

    def test_concat_and_replication(self):
        expr = self._rhs("{a, {3{b}}, c}")
        assert isinstance(expr, ast.Concat)
        assert isinstance(expr.parts[1], ast.Repeat)

    def test_part_select_forms(self):
        assert isinstance(self._rhs("a[7:4]"), ast.PartSelect)
        assert isinstance(self._rhs("a[i]"), ast.Index)
        plus = self._rhs("a[i +: 4]")
        assert isinstance(plus, ast.IndexedPartSelect) and plus.ascending
        minus = self._rhs("a[i -: 4]")
        assert isinstance(minus, ast.IndexedPartSelect) and not minus.ascending

    def test_system_function_call(self):
        expr = self._rhs("$clog2(16)")
        assert isinstance(expr, ast.SystemCall)

    def test_unary_reduction(self):
        expr = self._rhs("&a")
        assert isinstance(expr, ast.Unary) and expr.op == "&"

    def test_real_literal_rejected(self):
        with pytest.raises(ParseError):
            self._rhs("3.14")


def _ident(name):
    return ast.Identifier(name=name)


def _num(value, **fields):
    return ast.Number(value=value, **fields)


def _bin(op, lhs, rhs):
    return ast.Binary(op=op, lhs=lhs, rhs=rhs)


#: expression text -> its exact tree (``line`` takes no part in ``==``)
LEAF_CASES = {
    "a ** b ** c": _bin("**", _ident("a"), _bin("**", _ident("b"), _ident("c"))),
    "-a ** b": _bin("**", ast.Unary(op="-", operand=_ident("a")), _ident("b")),
    "x[1] ** 2": _bin(
        "**", ast.Index(base=_ident("x"), index=_num(1)), _num(2)
    ),
    "8'hF ** 2": _bin("**", _num(15, width=8), _num(2)),
    "a ** 2 * b": _bin("*", _bin("**", _ident("a"), _num(2)), _ident("b")),
    "a ? b : c ? d : e": ast.Ternary(
        cond=_ident("a"),
        then=_ident("b"),
        other=ast.Ternary(cond=_ident("c"), then=_ident("d"), other=_ident("e")),
    ),
    "a + b * c - d": _bin(
        "-", _bin("+", _ident("a"), _bin("*", _ident("b"), _ident("c"))),
        _ident("d"),
    ),
    "4'sb1010 + 16'hFF_FF - 8'bx0z1 + 1_000": _bin(
        "+",
        _bin(
            "-",
            _bin("+", _num(10, width=4, signed=True), _num(0xFFFF, width=16)),
            _num(1, width=8, has_unknown=True, unknown_mask=0b1010),
        ),
        _num(1000),
    ),
    "y[0] ? 'hz : x[2:1]": ast.Ternary(
        cond=ast.Index(base=_ident("y"), index=_num(0)),
        then=_num(0, has_unknown=True, unknown_mask=0xF),
        other=ast.PartSelect(base=_ident("x"), msb=_num(2), lsb=_num(1)),
    ),
}

#: one expression over six lines, and the ``(node, line)`` of every node
#: in pre-order: a binary node takes its left operand's line, a select
#: the line of its ``[``
MULTI_LINE = "a\n  + b[1]\n  * 8'hF\n  ** c\n  ? d : e"
MULTI_LINE_LINES = [
    ("Ternary", 2), ("Binary", 2), ("Identifier", 2), ("Binary", 3),
    ("Index", 3), ("Identifier", 3), ("Number", 3), ("Binary", 4),
    ("Number", 4), ("Identifier", 5), ("Identifier", 6), ("Identifier", 6),
]


def _rhs(expr_text):
    module = only_module(f"module m;\nwire x = {expr_text};\nendmodule")
    return module.nets[0].init


def _preorder_lines(node):
    out = [(type(node).__name__, node.line)]
    for field in dataclasses.fields(node):
        child = getattr(node, field.name)
        if isinstance(child, ast.Expr):
            out.extend(_preorder_lines(child))
    return out


def _leaf_mismatches():
    """Cases whose tree or lines differ from the expected (or that fail)."""
    bad = []
    for text, want in LEAF_CASES.items():
        try:
            if _rhs(text) != want:
                bad.append(text)
        except ParseError:
            bad.append(text)
    try:
        if _preorder_lines(_rhs(MULTI_LINE)) != MULTI_LINE_LINES:
            bad.append(MULTI_LINE)
    except ParseError:
        bad.append(MULTI_LINE)
    return bad


def _naive_leaf_path(select_check, power_check):
    """``Parser._parse_binary`` with its leaf path missing a check."""
    from repro.verilog.parser import _BINARY_OP_TIER
    from repro.verilog.tokens import K_BASED_NUMBER, K_IDENT, K_NUMBER

    def parse_binary(self, tier):
        syms, pos = self._syms, self._pos
        kind = self._kinds[pos]
        if kind == K_IDENT and (not select_check or syms[pos + 1] != "["):
            lhs = ast.Identifier(self._lines[pos], syms[pos])
        elif kind == K_NUMBER and "." not in syms[pos]:
            lhs = ast.Number(self._lines[pos], int(syms[pos].replace("_", "")))
        elif kind == K_BASED_NUMBER:
            lhs = parse_based_literal(syms[pos], self._lines[pos])
        else:
            lhs = None
        if lhs is None:
            lhs = self._parse_power()
        elif power_check and syms[pos + 1] == "**":
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
            rhs = parse_binary(self, op_tier + 1)
            lhs = ast.Binary(line=lhs.line, op=op, lhs=lhs, rhs=rhs)

    return parse_binary


class TestLeafPath:
    """``_parse_binary`` builds a bare identifier or literal operand
    itself instead of descending ``power -> unary -> primary``: exact
    trees and lines where that shortcut must step aside (a following
    ``[`` or ``**``, a unary operator, a ternary) or may not."""

    @pytest.mark.parametrize("text", list(LEAF_CASES))
    def test_exact_tree(self, text):
        assert _rhs(text) == LEAF_CASES[text]

    def test_line_of_every_node(self):
        assert _preorder_lines(_rhs(MULTI_LINE)) == MULTI_LINE_LINES

    @pytest.mark.parametrize(
        "select_check, power_check", [(False, True), (True, False)],
        ids=["ignores-select", "ignores-power"],
    )
    def test_catches_a_leaf_path_missing_a_check(
        self, monkeypatch, select_check, power_check
    ):
        from repro.verilog.parser import Parser

        assert _leaf_mismatches() == []
        monkeypatch.setattr(
            Parser, "_parse_binary", _naive_leaf_path(select_check, power_check)
        )
        assert _leaf_mismatches()


class TestInstances:
    def test_named_connections_with_params(self):
        m = only_module(
            "module m(input clk, output [3:0] q);"
            " counter #(.W(4)) u0 (.clk(clk), .q(q)); endmodule"
        )
        inst = m.instances[0]
        assert inst.module_name == "counter"
        assert inst.param_overrides[0][0] == "W"
        assert inst.connections[0].name == "clk"

    def test_positional_connections(self):
        m = only_module(
            "module m(input a, output y); inv u1 (a, y); endmodule"
        )
        assert all(c.name is None for c in m.instances[0].connections)

    def test_multiple_instances_one_statement(self):
        m = only_module(
            "module m(input a, b, output x, y);"
            " inv u1 (a, x), u2 (b, y); endmodule"
        )
        assert len(m.instances) == 2

    def test_unconnected_named_port(self):
        m = only_module(
            "module m(input a); blk u0 (.x(a), .y()); endmodule"
        )
        assert m.instances[0].connections[1].expr is None


class TestBasedLiterals:
    def test_sized_hex(self):
        n = parse_based_literal("8'hFF")
        assert (n.value, n.width) == (255, 8)

    def test_value_masked_to_width(self):
        n = parse_based_literal("4'hFF")
        assert n.value == 15

    def test_signed_flag(self):
        assert parse_based_literal("4'sb1010").signed

    def test_unknown_digits_mask(self):
        n = parse_based_literal("4'b1?0z")
        assert n.has_unknown
        assert n.unknown_mask == 0b0101
        assert n.value == 0b1000

    def test_decimal_x(self):
        n = parse_based_literal("4'dx")
        assert n.unknown_mask == 0b1111

    def test_underscores_ignored(self):
        assert parse_based_literal("16'hFF_FF").value == 0xFFFF

    def test_bad_digit_for_base(self):
        with pytest.raises(ParseError):
            parse_based_literal("8'b123")

    def test_a_python_prefix_is_a_bad_digit(self, monkeypatch):
        from repro.verilog import parser, parse_source_fast

        # the fields table must not keep what the patched digits decide
        monkeypatch.setattr(parser, "_BASED_FIELDS", {})
        source = "module m(output [3:0] y); assign y = 4'b0b1; endmodule"
        for parse in (parse_source, parse_source_fast):
            with pytest.raises(ParseError, match="digit 'b' invalid for base 2"):
                parse(source)
        # int() alone takes "0b1" as base 2: without the digit check the
        # literal would parse to 1
        lexer_digits = frozenset("0123456789abcdefxz?")
        monkeypatch.setattr(
            parser, "_RADIX_DIGITS", dict.fromkeys((2, 8, 10, 16), lexer_digits)
        )
        assert parse_based_literal("4'b0b1").value == 1

    def test_decimal_letter_is_a_parse_error(self):
        with pytest.raises(ParseError, match="digit 'a' invalid for base 10"):
            parse_based_literal("4'd1a")

    @given(
        st.sampled_from("bBoOhH"),
        st.text("0123456789abcdefABCDEFxXzZ?_", min_size=1, max_size=24),
        st.sampled_from(["", "1", "7", "32", "70"]),
    )
    def test_matches_the_digit_loop(self, base, digits, size):
        text = f"{size}'{base}{digits}"
        try:
            want = _digit_loop(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse_based_literal(text)
            assert str(got.value) == str(exc)
        else:
            assert parse_based_literal(text) == want


def _digit_loop(text):
    """A radix-2/8/16 literal decoded one digit at a time."""
    tick = text.index("'")
    width = int(text[:tick]) if text[:tick] else None
    radix = {"b": 2, "o": 8, "h": 16}[text[tick + 1].lower()]
    digits = text[tick + 2:].replace("_", "")
    if not digits:
        raise ParseError("based literal has no digits", 0)
    bits = {2: 1, 8: 3, 16: 4}[radix]
    value = unknown = 0
    for digit in digits:
        value <<= bits
        unknown <<= bits
        if digit.lower() in "xz?":
            unknown |= (1 << bits) - 1
        elif digit.lower() in "0123456789abcdef"[:radix]:
            value |= int(digit, radix)
        else:
            raise ParseError(f"digit {digit!r} invalid for base {radix}", 0)
    if width is not None:
        value &= (1 << width) - 1
        unknown &= (1 << width) - 1
    return ast.Number(
        line=0, value=value, width=width, signed=False,
        has_unknown=bool(unknown), unknown_mask=unknown,
    )


class TestErrorRecoveryBoundaries:
    @pytest.mark.parametrize(
        "source",
        [
            "module m(input a; endmodule",        # bad port list
            "module m; assign = 1; endmodule",    # missing lvalue
            "module m; wire x = ; endmodule",     # missing expression
            "module m; always @(posedge) q <= 1; endmodule",
            "module m(input a) endmodule",        # missing semicolon
            "module m; case (x) endcase endmodule",  # case outside always
            "module m; generate endgenerate endmodule",  # unsupported
        ],
    )
    def test_malformed_input_raises_parse_error(self, source):
        with pytest.raises(ParseError):
            parse_source(source)

    def test_error_carries_position(self):
        try:
            parse_source("module m(\n  input a;\n endmodule")
        except ParseError as exc:
            assert exc.line == 2
        else:
            pytest.fail("expected ParseError")
