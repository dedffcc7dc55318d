"""Tests for the testbench and equivalence-check harness."""

import pytest

from repro.sim import (
    Testbench,
    elaborate,
    equivalence_check,
    random_stimulus,
    set_default_backend,
    stimulus_rows,
)
from repro.verilog import parse_source


@pytest.fixture(scope="module", params=["compiled", "interp"], autouse=True)
def sim_backend(request):
    """Run the harness tests against both execution backends."""
    previous = set_default_backend(request.param)
    yield request.param
    set_default_backend(previous)

ALU = """
module alu(input [7:0] a, input [7:0] b, input [1:0] op,
           output reg [7:0] y);
    always @(*) begin
        case (op)
            2'd0: y = a + b;
            2'd1: y = a - b;
            2'd2: y = a & b;
            default: y = a | b;
        endcase
    end
endmodule
"""

COUNTER = """
module counter(input clk, input rst, input en, output reg [3:0] q);
    always @(posedge clk) begin
        if (rst) q <= 4'd0;
        else if (en) q <= q + 1'b1;
    end
endmodule
"""


def design(source, top):
    return elaborate(parse_source(source), top)


class TestRandomStimulus:
    def test_respects_widths(self):
        d = design(ALU, "alu")
        vectors = random_stimulus(d, 50, seed=1)
        assert len(vectors) == 50
        for vector in vectors:
            assert set(vector) == {"a", "b", "op"}
            assert 0 <= vector["a"] < 256
            assert 0 <= vector["op"] < 4

    def test_deterministic_per_seed(self):
        d = design(ALU, "alu")
        assert random_stimulus(d, 10, seed=3) == random_stimulus(d, 10, seed=3)
        assert random_stimulus(d, 10, seed=3) != random_stimulus(d, 10, seed=4)

    def test_excludes_control_signals(self):
        d = design(COUNTER, "counter")
        vectors = random_stimulus(d, 5, seed=0)
        assert all(set(v) == {"en"} for v in vectors)


class TestStimulusRows:
    def test_names_once_and_one_row_per_cycle(self):
        d = design(ALU, "alu")
        vectors = random_stimulus(d, 6, seed=2)
        names, rows = stimulus_rows(vectors)
        assert names == ("a", "b", "op")
        assert [dict(zip(names, row)) for row in rows] == vectors
        assert stimulus_rows([]) == ((), [])

    def test_key_order_may_differ_key_sets_may_not(self):
        names, rows = stimulus_rows([{"a": 1, "b": 2}, {"b": 4, "a": 3}])
        assert (names, rows) == (("a", "b"), [(1, 2), (3, 4)])
        for ragged in ({"a": 1}, {"a": 1, "b": 2, "op": 0}, {"a": 1, "c": 2}):
            with pytest.raises(ValueError, match="same inputs"):
                stimulus_rows([{"a": 1, "b": 2}, ragged])


class TestEquivalence:
    def test_identical_designs_equivalent(self):
        g = design(ALU, "alu")
        c = design(ALU, "alu")
        stim = random_stimulus(g, 40, seed=9)
        assert equivalence_check(g, c, stim, clock=None).equivalent

    def test_functional_bug_detected(self):
        g = design(ALU, "alu")
        c = design(ALU.replace("a + b", "a + b + 1"), "alu")
        stim = random_stimulus(g, 40, seed=9)
        verdict = equivalence_check(g, c, stim, clock=None)
        assert not verdict.equivalent
        assert verdict.mismatched_output == "y"
        assert verdict.first_mismatch_cycle is not None

    def test_interface_mismatch_fails_fast(self):
        g = design(ALU, "alu")
        c = design(ALU.replace("[7:0] y", "[6:0] y"), "alu")
        verdict = equivalence_check(g, c, [], clock=None)
        assert not verdict.equivalent
        assert verdict.error == "interface mismatch"

    def test_sequential_equivalence(self):
        g = design(COUNTER, "counter")
        c = design(COUNTER.replace("q + 1'b1", "q + 4'd1"), "counter")
        stim = random_stimulus(g, 30, seed=2)
        assert equivalence_check(
            g, c, stim, clock="clk", reset="rst"
        ).equivalent

    def test_sequential_bug_detected(self):
        g = design(COUNTER, "counter")
        c = design(COUNTER.replace("q + 1'b1", "q + 4'd2"), "counter")
        stim = [{"en": 1}] * 5
        verdict = equivalence_check(g, c, stim, clock="clk", reset="rst")
        assert not verdict.equivalent

    def test_reset_behaviour_compared(self):
        # Candidate missing the reset branch differs right after reset
        # because the register holds whatever it counted to.
        g = design(COUNTER, "counter")
        bad = COUNTER.replace("if (rst) q <= 4'd0;\n        else ", "")
        c = design(bad, "counter")
        stim = [{"en": 1}] * 3
        verdict = equivalence_check(g, c, stim, clock="clk", reset="rst")
        assert verdict.equivalent  # both start at 0, same increments
        # ... but after a mid-run reset they diverge:
        tb_g = Testbench(g, "clk", "rst")
        tb_c = Testbench(c, "clk", "rst")
        for tb in (tb_g, tb_c):
            tb.apply_reset()
            tb.step({"en": 1})
            tb.apply_reset(cycles=1)
        assert tb_g.sim.peek("q") == 0
        assert tb_c.sim.peek("q") != 0


class TestTestbench:
    def test_missing_clock_tolerated(self):
        tb = Testbench(design(ALU, "alu"), clock="clk")
        assert tb.clock is None
        out = tb.step({"a": 3, "b": 4, "op": 0})
        assert out["y"] == 7

    def test_input_names_exclude_clock_and_reset(self):
        tb = Testbench(design(COUNTER, "counter"), "clk", "rst")
        assert tb.input_names == ["en"]
        assert tb.output_names == ["q"]

    def test_name_lists_resolved_once(self):
        tb = Testbench(design(COUNTER, "counter"), "clk", "rst")
        assert tb.output_names is tb.output_names
        assert tb.input_names is tb.input_names

    def test_drive_applies_whole_vector(self):
        tb = Testbench(design(ALU, "alu"), clock=None)
        tb.drive({"a": 9, "b": 3, "op": 1})
        assert tb.sample()["y"] == 6

    def test_active_low_reset(self):
        source = COUNTER.replace("input rst", "input rst_n").replace(
            "if (rst)", "if (!rst_n)"
        )
        tb = Testbench(
            design(source, "counter"), "clk", "rst_n", reset_active_high=False
        )
        tb.apply_reset()
        assert tb.sim.peek("rst_n") == 1
        out = tb.step({"en": 1})
        assert out["q"] == 1
