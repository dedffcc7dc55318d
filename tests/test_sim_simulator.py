"""Behavioural tests for elaboration + simulation."""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ElaborationError, SimulationError
from repro.sim import (
    InterpreterSimulator,
    Simulator,
    Testbench,
    elaborate,
    set_default_backend,
)
from repro.verilog import parse_source


@pytest.fixture(scope="module", params=["compiled", "interp"], autouse=True)
def sim_backend(request):
    """Run every behavioural test against both execution backends."""
    previous = set_default_backend(request.param)
    yield request.param
    set_default_backend(previous)


def build(source, top, **overrides):
    return elaborate(parse_source(source), top, overrides or None)


class TestCombinational:
    def test_continuous_assign(self):
        d = build("module m(input [3:0] a, output [3:0] y);"
                  " assign y = ~a; endmodule", "m")
        sim = Simulator(d)
        sim.poke("a", 0b1010)
        assert sim.peek("y") == 0b0101

    def test_carry_capture_through_concat(self):
        d = build(
            "module m(input [7:0] a, input [7:0] b, output [7:0] s,"
            " output co); assign {co, s} = a + b; endmodule", "m"
        )
        sim = Simulator(d)
        sim.poke("a", 200)
        sim.poke("b", 100)
        assert sim.peek("s") == (300 & 0xFF)
        assert sim.peek("co") == 1

    def test_wrap_at_lvalue_width(self):
        d = build("module m(input [7:0] a, output [7:0] y);"
                  " assign y = a + 8'd1; endmodule", "m")
        sim = Simulator(d)
        sim.poke("a", 255)
        assert sim.peek("y") == 0

    def test_always_star_case(self):
        d = build(
            "module m(input [1:0] op, input [3:0] a, input [3:0] b,"
            " output reg [3:0] y); always @(*) case (op)"
            " 2'd0: y = a + b; 2'd1: y = a - b; 2'd2: y = a & b;"
            " default: y = a | b; endcase endmodule", "m"
        )
        sim = Simulator(d)
        sim.poke("a", 9)
        sim.poke("b", 3)
        for op, expected in [(0, 12), (1, 6), (2, 1), (3, 11)]:
            sim.poke("op", op)
            assert sim.peek("y") == expected

    def test_chained_assign_propagation(self):
        d = build(
            "module m(input a, output y); wire w1, w2;"
            " assign w1 = ~a; assign w2 = ~w1; assign y = ~w2;"
            " endmodule", "m"
        )
        sim = Simulator(d)
        sim.poke("a", 1)
        assert sim.peek("y") == 0

    def test_combinational_loop_detected(self):
        d = build("module m(output y); wire a, b;"
                  " assign a = ~b; assign b = a; assign y = a;"
                  " endmodule", "m")
        with pytest.raises(SimulationError):
            Simulator(d)

    def test_division_by_zero_yields_zero(self):
        d = build("module m(input [3:0] a, input [3:0] b,"
                  " output [3:0] q); assign q = a / b; endmodule", "m")
        sim = Simulator(d)
        sim.poke("a", 9)
        sim.poke("b", 0)
        assert sim.peek("q") == 0

    def test_casez_wildcards(self):
        d = build(
            "module m(input [3:0] s, output reg [1:0] y);"
            " always @(*) casez (s)"
            " 4'b1???: y = 2'd3; 4'b01??: y = 2'd2;"
            " 4'b001?: y = 2'd1; default: y = 2'd0;"
            " endcase endmodule", "m"
        )
        sim = Simulator(d)
        for value, expected in [(0b1000, 3), (0b0100, 2), (0b0010, 1), (0b0001, 0)]:
            sim.poke("s", value)
            assert sim.peek("y") == expected

    def test_case_mixed_label_widths(self):
        # The subject is evaluated once at the max width over subject and
        # all labels (IEEE case sizing); labels of differing width still
        # match by value.
        d = build(
            "module m(input [3:0] s, output reg [1:0] y);"
            " always @(*) case (s)"
            " 2'd1: y = 2'd1; 8'd2: y = 2'd2; default: y = 2'd0;"
            " endcase endmodule", "m"
        )
        sim = Simulator(d)
        for value, expected in [(1, 1), (2, 2), (3, 0)]:
            sim.poke("s", value)
            assert sim.peek("y") == expected

    def test_poke_many_batches_settle(self):
        d = build(
            "module m(input [7:0] a, input [7:0] b, output [8:0] s);"
            " assign s = a + b; endmodule", "m"
        )
        sim = Simulator(d)
        sim.poke_many({"a": 200, "b": 100})
        assert sim.peek("s") == 300


class TestSequential:
    COUNTER = """
    module counter(input clk, input rst, input en, output reg [3:0] q);
        always @(posedge clk) begin
            if (rst) q <= 4'd0;
            else if (en) q <= q + 1'b1;
        end
    endmodule
    """

    def test_counter_counts(self):
        tb = Testbench(build(self.COUNTER, "counter"), "clk", "rst")
        tb.apply_reset()
        for _ in range(5):
            out = tb.step({"en": 1})
        assert out["q"] == 5

    def test_enable_holds_value(self):
        tb = Testbench(build(self.COUNTER, "counter"), "clk", "rst")
        tb.apply_reset()
        tb.step({"en": 1})
        out = tb.step({"en": 0})
        assert out["q"] == 1

    def test_counter_wraps(self):
        tb = Testbench(build(self.COUNTER, "counter"), "clk", "rst")
        tb.apply_reset()
        for _ in range(17):
            out = tb.step({"en": 1})
        assert out["q"] == 1

    def test_nonblocking_swap(self):
        d = build(
            "module m(input clk, output reg a, output reg b);"
            " initial begin a = 1'b0; b = 1'b1; end"
            " always @(posedge clk) begin a <= b; b <= a; end"
            " endmodule", "m"
        )
        tb = Testbench(d, "clk")
        assert (tb.sim.peek("a"), tb.sim.peek("b")) == (0, 1)
        tb.tick()
        assert (tb.sim.peek("a"), tb.sim.peek("b")) == (1, 0)
        tb.tick()
        assert (tb.sim.peek("a"), tb.sim.peek("b")) == (0, 1)

    def test_async_reset_without_clock(self):
        d = build(
            "module m(input clk, input rst, input d, output reg q);"
            " always @(posedge clk or posedge rst) begin"
            " if (rst) q <= 1'b0; else q <= d; end endmodule", "m"
        )
        tb = Testbench(d, "clk", "rst")
        tb.step({"d": 1})
        assert tb.sim.peek("q") == 1
        tb.sim.poke("rst", 1)  # no clock edge
        assert tb.sim.peek("q") == 0

    def test_negedge_trigger(self):
        d = build(
            "module m(input clk, output reg [1:0] n);"
            " always @(negedge clk) n <= n + 1'b1; endmodule", "m"
        )
        sim = Simulator(d)
        sim.poke("clk", 1)
        assert sim.peek("n") == 0
        sim.poke("clk", 0)
        assert sim.peek("n") == 1

    def test_blocking_order_within_block(self):
        d = build(
            "module m(input clk, input [3:0] d, output reg [3:0] y);"
            " reg [3:0] tmp;"
            " always @(posedge clk) begin tmp = d + 4'd1; y <= tmp; end"
            " endmodule", "m"
        )
        tb = Testbench(d, "clk")
        out = tb.step({"d": 3})
        assert out["y"] == 4


class TestHierarchy:
    NESTED = """
    module leaf #(parameter W = 4)(input [W-1:0] a, output [W-1:0] y);
        assign y = a + {{(W-1){1'b0}}, 1'b1};
    endmodule
    module mid(input [7:0] a, output [7:0] y);
        wire [7:0] t;
        leaf #(.W(8)) u0 (.a(a), .y(t));
        leaf #(.W(8)) u1 (.a(t), .y(y));
    endmodule
    """

    def test_two_level_hierarchy(self):
        sim = Simulator(build(self.NESTED, "mid"))
        sim.poke("a", 10)
        assert sim.peek("y") == 12

    def test_clock_reaches_child(self):
        source = """
        module child(input clk, output reg [2:0] c);
            always @(posedge clk) c <= c + 1'b1;
        endmodule
        module parent(input clk, output [2:0] n);
            child u (.clk(clk), .count(n));
        endmodule
        """
        # port name mismatch must fail loudly
        with pytest.raises(ElaborationError):
            build(source, "parent")

    def test_child_clock_counts(self):
        source = """
        module child(input clk, output reg [2:0] c);
            always @(posedge clk) c <= c + 1'b1;
        endmodule
        module parent(input clk, output [2:0] n);
            child u (.clk(clk), .c(n));
        endmodule
        """
        tb = Testbench(build(source, "parent"), "clk")
        tb.tick(5)
        assert tb.sim.peek("n") == 5

    def test_positional_connections(self):
        source = """
        module inv(input a, output y); assign y = ~a; endmodule
        module top(input x, output z); inv u0 (x, z); endmodule
        """
        sim = Simulator(build(source, "top"))
        sim.poke("x", 0)
        assert sim.peek("z") == 1

    def test_unconnected_input_ties_low(self):
        source = """
        module orer(input a, input b, output y); assign y = a | b; endmodule
        module top(input x, output z); orer u (.a(x), .y(z)); endmodule
        """
        sim = Simulator(build(source, "top"))
        sim.poke("x", 1)
        assert sim.peek("z") == 1
        sim.poke("x", 0)
        assert sim.peek("z") == 0

    def test_parameter_override_at_elaborate(self):
        d = build(
            "module m #(parameter W = 2)(input [W-1:0] a,"
            " output [W-1:0] y); assign y = a; endmodule", "m", W=8
        )
        assert d.signal("a").width == 8

    def test_unknown_module_error(self):
        with pytest.raises(ElaborationError):
            build("module m(input a); ghost u (.x(a)); endmodule", "m")

    def test_unknown_parameter_error(self):
        with pytest.raises(ElaborationError):
            build("module m(input a, output y); assign y = a;"
                  " endmodule", "m", NOPE=1)


class TestMemories:
    RF = """
    module rf(input clk, input we, input [1:0] wa, input [7:0] wd,
              input [1:0] ra, output [7:0] rd);
        reg [7:0] mem [0:3];
        always @(posedge clk) if (we) mem[wa] <= wd;
        assign rd = mem[ra];
    endmodule
    """

    def test_write_then_read(self):
        tb = Testbench(build(self.RF, "rf"), "clk")
        tb.step({"we": 1, "wa": 2, "wd": 0xAB, "ra": 0})
        out = tb.step({"we": 0, "wa": 0, "wd": 0, "ra": 2})
        assert out["rd"] == 0xAB

    def test_write_disabled(self):
        tb = Testbench(build(self.RF, "rf"), "clk")
        tb.step({"we": 0, "wa": 1, "wd": 0xFF, "ra": 1})
        out = tb.step({"we": 0, "wa": 0, "wd": 0, "ra": 1})
        assert out["rd"] == 0

    def test_out_of_range_read_is_zero(self):
        d = build(
            "module m(input [3:0] idx, output [7:0] v);"
            " reg [7:0] mem [0:3]; assign v = mem[idx];"
            " endmodule", "m"
        )
        sim = Simulator(d)
        sim.poke("idx", 9)
        assert sim.peek("v") == 0


class TestLvalueForms:
    def test_bit_select_write(self):
        d = build(
            "module m(input clk, input [1:0] i, input b,"
            " output reg [3:0] q);"
            " always @(posedge clk) q[i] <= b; endmodule", "m"
        )
        tb = Testbench(d, "clk")
        tb.step({"i": 2, "b": 1})
        assert tb.sim.peek("q") == 0b0100

    def test_part_select_write(self):
        d = build(
            "module m(input clk, input [3:0] n, output reg [7:0] q);"
            " always @(posedge clk) q[7:4] <= n; endmodule", "m"
        )
        tb = Testbench(d, "clk")
        tb.step({"n": 0xA})
        assert tb.sim.peek("q") == 0xA0

    def test_concat_lvalue_in_always(self):
        d = build(
            "module m(input clk, input [3:0] a, input [3:0] b,"
            " output reg [3:0] x, output reg [3:0] y);"
            " always @(posedge clk) {x, y} <= {b, a}; endmodule", "m"
        )
        tb = Testbench(d, "clk")
        tb.step({"a": 1, "b": 2})
        assert (tb.sim.peek("x"), tb.sim.peek("y")) == (2, 1)


class TestForLoops:
    def test_bit_reverse(self, sim_backend):
        source = (
            "module m(input [7:0] d, output reg [7:0] y); integer i;"
            " always @(*) begin"
            " for (i = 0; i < 8; i = i + 1) y[i] = d[7 - i]; end"
            " endmodule"
        )
        if sim_backend == "compiled":
            # `y[i] = ...` merges into the y the block drives: the region
            # does not levelize, so "compiled" refuses it and "auto" runs
            # it on the interpreter.
            with pytest.raises(SimulationError, match="does not compile"):
                Simulator(build(source, "m"))
        sim = Simulator(build(source, "m"), backend="auto")
        assert isinstance(sim, InterpreterSimulator)
        sim.poke("d", 0b11010010)
        assert sim.peek("y") == 0b01001011


class TestVerilogArithmeticProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 255), st.integers(0, 255))
    def test_adder_matches_python(self, a, b):
        d = build("module m(input [7:0] a, input [7:0] b,"
                  " output [8:0] s); assign s = a + b; endmodule", "m")
        sim = Simulator(d)
        sim.poke("a", a)
        sim.poke("b", b)
        assert sim.peek("s") == a + b

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 255), st.integers(0, 255))
    def test_subtract_wraps_like_twos_complement(self, a, b):
        d = build("module m(input [7:0] a, input [7:0] b,"
                  " output [7:0] y); assign y = a - b; endmodule", "m")
        sim = Simulator(d)
        sim.poke("a", a)
        sim.poke("b", b)
        assert sim.peek("y") == (a - b) % 256

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 15), st.integers(0, 15))
    def test_comparators_match_python(self, a, b):
        d = build(
            "module m(input [3:0] a, input [3:0] b, output lt,"
            " output eq, output gt); assign lt = a < b;"
            " assign eq = a == b; assign gt = a > b; endmodule", "m"
        )
        sim = Simulator(d)
        sim.poke("a", a)
        sim.poke("b", b)
        assert sim.peek("lt") == int(a < b)
        assert sim.peek("eq") == int(a == b)
        assert sim.peek("gt") == int(a > b)

    def test_signed_comparison(self):
        d = build(
            "module m(input signed [3:0] a, input signed [3:0] b,"
            " output lt); assign lt = a < b; endmodule", "m"
        )
        sim = Simulator(d)
        sim.poke("a", 0b1111)  # -1
        sim.poke("b", 0b0001)  # +1
        assert sim.peek("lt") == 1

    def test_signed_shift_right(self):
        d = build(
            "module m(input signed [7:0] a, output signed [7:0] y);"
            " assign y = a >>> 2; endmodule", "m"
        )
        sim = Simulator(d)
        sim.poke("a", 0x80)  # -128
        assert sim.peek("y") == 0xE0  # -32
