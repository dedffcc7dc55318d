"""``random_rows`` draws the seed-era stimulus stream.

The reference is :func:`oracle.reference_stimulus`: one
``DeterministicRNG.randint(0, 2**w - 1)`` per data input per cycle.
``random_rows`` reaches the same values through the stream's bound
``getrandbits`` (``w + 1`` bits, drawn again while ``>= 2**w``).  Every
generator family, the 60 vereval goldens and a gallery of widths (1, 63,
64 and 100 bits) must give the same names and rows at three seeds, and
the naive draws must fail the same comparison.
"""

import pytest

from oracle import reference_stimulus
from repro.sim import elaborate, random_rows, random_stimulus, stimulus_rows
from repro.utils.rng import DeterministicRNG
from repro.vereval import build_problem_set
from repro.vgen import FAMILIES, generate_family
from repro.verilog import parse_source

SEEDS = (0, 7, 2**40 + 3)
CYCLES = 48
CONTROL = ("clk", "rst", "rst_n", "reset", "resetn")

WIDTHS = """
module widths(input clk, input rst, input a, input [62:0] b,
              input [63:0] c, input [99:0] d, output y);
    assign y = a ^ b[0] ^ c[63] ^ d[99];
endmodule
"""


def _widths():
    return elaborate(parse_source(WIDTHS), "widths")


def _assert_matches_reference(design, cycles=CYCLES):
    for seed in SEEDS:
        want = reference_stimulus(design, cycles, seed)
        assert random_rows(design, cycles, seed) == stimulus_rows(want)
        assert random_stimulus(design, cycles, seed) == want


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_family(family):
    for variant in range(2):
        module = generate_family(
            family, DeterministicRNG(variant).fork(family)
        )
        _assert_matches_reference(
            elaborate(parse_source(module.source), module.name)
        )


def test_every_problem_golden():
    problems = build_problem_set(60)
    assert len(problems) == 60
    for problem in problems:
        golden = elaborate(
            parse_source(problem.golden_source), problem.module.name
        )
        _assert_matches_reference(golden, problem.stimulus_cycles)


def test_widths_1_63_64_100():
    design = _widths()
    widths = {s.name: s.width for s in design.inputs}
    assert widths == {"clk": 1, "rst": 1, "a": 1, "b": 63, "c": 64, "d": 100}
    _assert_matches_reference(design, 200)
    names, rows = random_rows(design, 200, seed=1)
    assert names == ("a", "b", "c", "d")
    # the wide inputs reach their top bit: the draw is not capped at 63
    for index, name in enumerate(names):
        assert max(row[index] for row in rows).bit_length() == widths[name]


def test_no_data_inputs_and_no_cycles():
    design = elaborate(
        parse_source("module t(input clk, output y); assign y = 1; endmodule"),
        "t",
    )
    assert random_rows(design, 3, seed=0) == ((), [(), (), ()])
    assert random_stimulus(design, 3, seed=0) == [{}, {}, {}]
    assert random_rows(_widths(), 0, seed=0) == (("a", "b", "c", "d"), [])


def _naive_exact_width(getrandbits, bits):
    return getrandbits(bits)


def _naive_masked(getrandbits, bits):
    return getrandbits(bits + 1) & ((1 << bits) - 1)


@pytest.mark.parametrize("draw", [_naive_exact_width, _naive_masked])
def test_naive_draws_fail_the_oracle(draw):
    """``getrandbits(w)`` is uniform over the same range but another
    stream; masking ``w + 1`` bits drops the redraws."""
    design = _widths()
    spans = [(s.name, s.width) for s in design.inputs if s.name not in CONTROL]
    for seed in SEEDS:
        getrandbits = DeterministicRNG(seed).getrandbits
        naive = [
            {name: draw(getrandbits, width) for name, width in spans}
            for _ in range(CYCLES)
        ]
        assert naive != reference_stimulus(design, CYCLES, seed)
