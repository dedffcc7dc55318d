"""Tests for the syntax checker (the Icarus-substitute filter)."""

import pickle
from dataclasses import dataclass

import pytest

from repro import obs
from repro.core.freeset import FreeSetBuilder
from repro.curation import CurationConfig, CurationPipeline
from repro.engine import SyntaxCheckStage
from repro.errors import LexError, ParseError
from repro.github import WorldConfig
from repro.utils.rng import DeterministicRNG
from repro.verilog import (
    Parser, TokenStream, check_syntax, check_syntax_fast, parse_source_fast,
)
from repro.verilog import syntax
from repro.verilog.syntax import _semantic_lint


GOOD = """
module good(input wire clk, input wire rst, output reg [3:0] q);
    always @(posedge clk) begin
        if (rst) q <= 4'd0;
        else q <= q + 1'b1;
    end
endmodule
"""


class TestAccepts:
    def test_valid_module(self):
        report = check_syntax(GOOD)
        assert report.ok
        assert report.module_names == ["good"]
        assert report.errors == []

    def test_bool_protocol(self):
        assert check_syntax(GOOD)
        assert not check_syntax("module broken(")

    def test_unknown_submodule_is_not_an_error(self):
        # The paper keeps files whose only issue is cross-file references.
        source = (
            "module top(input a, output y);"
            " other_module u0 (.in(a), .out(y)); endmodule"
        )
        assert check_syntax(source).ok

    def test_directives_ignored(self):
        assert check_syntax("`timescale 1ns/1ps\n" + GOOD).ok


class TestRejects:
    def test_missing_endmodule(self):
        assert not check_syntax("module m(input a);").ok

    def test_dropped_semicolon(self):
        bad = GOOD.replace("q <= 4'd0;", "q <= 4'd0", 1)
        assert not check_syntax(bad).ok

    def test_duplicate_module_names(self):
        report = check_syntax("module m; endmodule module m; endmodule")
        assert not report.ok
        assert "duplicate module" in report.errors[0]

    def test_duplicate_port(self):
        report = check_syntax("module m(input a, input a); endmodule")
        assert not report.ok

    def test_undeclared_header_port(self):
        report = check_syntax("module m(a, b); input a; endmodule")
        assert not report.ok
        assert any("never declared" in e for e in report.errors)

    def test_duplicate_parameter(self):
        report = check_syntax(
            "module m; parameter P = 1; parameter P = 2; endmodule"
        )
        assert not report.ok

    def test_empty_file(self):
        assert not check_syntax("").ok


class TestWorldCorruptions:
    """The corruption kinds injected by the world generator must all be
    caught — otherwise the funnel's syntax stage undercounts."""

    def test_all_corruption_kinds_detected(self):
        from repro.github.world import _corrupt
        from repro.utils.rng import DeterministicRNG

        detected = 0
        total = 0
        for seed in range(24):
            rng = DeterministicRNG(seed)
            bad = _corrupt(GOOD, rng)
            total += 1
            if not check_syntax(bad).ok:
                detected += 1
        # 'typo' corruption replaces 'module' with 'modul', which still
        # fails (no module at top level); all kinds should be caught here.
        assert detected == total


# -- the module table -----------------------------------------------------

_COUNTER = (
    "module counter(input clk, output reg [3:0] q);\n"
    "  always @(posedge clk) q <= q + 1;\n"
    "endmodule\n"
)
#: token-identical to ``_COUNTER``: other whitespace, comments and lines
_COUNTER_REFORMATTED = (
    "/* forked */ module counter (input clk,\n\n output reg[3:0] q) ;\n"
    "always@( posedge clk )q<=q+1; // tick\n endmodule\n"
)
#: a failing module named like ``_COUNTER``
_COUNTER_BROKEN = _COUNTER.replace("q + 1;", "q + ;")
#: a module with duplicate-port and duplicate-parameter lint errors
_LINTED = (
    "module linted(input a, input a, output y);\n"
    "  parameter P = 1;\n"
    "  parameter P = 2;\n"
    "  assign y = a;\n"
    "endmodule\n"
)
#: a non-ANSI module whose header port ``b`` is never declared
_UNDECLARED = "module h(a, b);\n  input a;\nendmodule\n"
_WORDS = (
    "module says(input clk);\n"
    '  initial $display("endmodule");\n'
    "  // endmodule\n"
    "  /* endmodule */\n"
    "endmodule\n"
)
_MACRO = "macromodule mm(input a, output y); assign y = a; endmodule\n"

#: files checked in this order through one table; each names the rule
#: it is there for
TABLE_GALLERY = [
    ("counter", _COUNTER),
    ("one module twice in a file", _COUNTER + _COUNTER),
    ("repeated across files, no duplicate", _COUNTER + "module o; endmodule"),
    ("cached module with lint errors", _LINTED),
    ("lint errors replayed from the table", "// a copy\n\n" + _LINTED),
    ("lint errors after a duplicate", _LINTED + _LINTED),
    ("undeclared header port", _UNDECLARED),
    ("undeclared header port, cached", _COUNTER + _UNDECLARED),
    ("token-identical, other layout", _COUNTER_REFORMATTED),
    ("failing module named like a cached one", _COUNTER_BROKEN),
    ("the same failure on other lines", "\n\n\n" + _COUNTER_BROKEN),
    ("failure after cached modules", _COUNTER + _LINTED + _COUNTER_BROKEN),
    ("endmodule in a string and comments", _WORDS),
    ("the same, cached", _COUNTER + _WORDS),
    ("macromodule", _MACRO + _COUNTER),
    ("macromodule, cached", _MACRO),
    ("module keyword differs", _COUNTER.replace("module", "macromodule", 1)),
    ("missing endmodule", _COUNTER + "module open(input a);\n  wire w;\n"),
    ("stray tokens between modules", _COUNTER + "wire stray;\n" + _LINTED),
    ("stray semicolon between modules", _COUNTER + ";\n" + _COUNTER),
    ("stray endmodule", _COUNTER + "endmodule\n"),
    ("lex error after cached modules", _COUNTER + 'module s; initial $display("open);'),
    ("empty file", ""),
    ("comments only", "// nothing\n/* here */\n"),
    ("directive only", "`timescale 1ns/1ps\n"),
]


def whole_file_report(source):
    """The reference verdict: one whole-file parse, then the file's lint."""
    try:
        source_file = parse_source_fast(source)
    except (LexError, ParseError) as exc:
        return False, [str(exc)], []
    errors = _semantic_lint(source_file)
    return not errors, errors, [m.name for m in source_file.modules]


def table_mismatches(sources, table=None, expected=None):
    """Indices of ``sources`` whose report through one shared table
    differs from ``expected`` (default: :func:`whole_file_report`'s)."""
    table = {} if table is None else table
    if expected is None:
        expected = [whole_file_report(source) for source in sources]
    bad = []
    for index, (source, want) in enumerate(zip(sources, expected)):
        report = check_syntax_fast(source, table)
        if (report.ok, report.errors, report.module_names) != want:
            bad.append(index)
    return bad


def reuse_counts(sources):
    """(modules parsed, modules reused) over ``sources`` through one table."""
    before = obs.counters("verilog.modules_")
    table = {}
    for source in sources:
        check_syntax_fast(source, table)
    after = obs.counters("verilog.modules_")
    return tuple(
        after.get(name, 0) - before.get(name, 0)
        for name in ("verilog.modules_parsed", "verilog.modules_reused")
    )


@pytest.fixture(scope="module")
def syntax_stage_inputs():
    """What the syntax stage sees in a seed-0 pass of the perf ledger's
    ``curate_stream``: the bench world in its seed-0 arrival order through
    license, dedup and copyright filters."""
    world = WorldConfig(
        n_repos=400,
        mega_file_modules=1100,
        proprietary_rate=0.012,
        seed=0xDAC25,
        licensed_repo_fraction=0.46,
        duplicate_rate=0.55,
    )
    files, _ = FreeSetBuilder(world_config=world).scrape()
    arrivals = DeterministicRNG(0).fork("arrival").fork("shuffle").shuffled(
        list(files)
    )
    dataset = CurationPipeline(CurationConfig(syntax_check=False)).run(arrivals)
    return [f.content for f in dataset.files]


GALLERY_SOURCES = [source for _, source in TABLE_GALLERY]


class TestModuleTableIdentity:
    """One differential oracle for the syntax checker's module table.

    Every ``SyntaxReport`` (``ok``, ``errors``, ``module_names``) from one
    table shared across files must equal a whole-file
    ``parse_source_fast`` + ``_semantic_lint``, over the gallery above,
    every world file in two arrival orders and the perf ledger's syntax
    stage inputs; the gallery catches three naive tables.
    """

    def test_gallery(self):
        assert table_mismatches(GALLERY_SOURCES) == []
        parsed, reused = reuse_counts(GALLERY_SOURCES)
        assert reused >= 10 and parsed >= 10

    @pytest.mark.parametrize("order", ["scrape", "reversed"])
    def test_world_files(self, raw_files, order):
        sources = [f.content for f in raw_files]
        if order == "reversed":
            sources.reverse()
        assert table_mismatches(sources) == []

    def test_syntax_stage_inputs(self, syntax_stage_inputs):
        assert table_mismatches(syntax_stage_inputs) == []
        parsed, reused = reuse_counts(syntax_stage_inputs)
        # the duplication the table exists for: most modules recur
        assert reused > parsed

    def test_a_table_cleared_at_any_point_decides_the_same(self, monkeypatch):
        monkeypatch.setattr(syntax, "MODULE_TABLE_BOUND", 2)
        table = {}
        assert table_mismatches(GALLERY_SOURCES, table) == []
        assert len(table) <= 2

    def test_counted_once_per_source(self):
        assert reuse_counts([_COUNTER + _COUNTER + _LINTED]) == (2, 1)
        assert reuse_counts(
            [_COUNTER, _COUNTER_REFORMATTED + _COUNTER_BROKEN]
        ) == (2, 1)
        assert reuse_counts([""]) == (0, 0)

    def test_stage_table_is_not_pickled(self):
        stage = SyntaxCheckStage()
        assert stage.process([_Item(_COUNTER), _Item(_COUNTER_BROKEN)]) == [
            _Item(_COUNTER)
        ]
        assert stage._modules
        restored = pickle.loads(pickle.dumps(stage))
        assert restored._modules == {} and stage._modules
        assert restored.process([_Item(_COUNTER)]) == [_Item(_COUNTER)]

    # -- the naive tables the oracle must catch ---------------------------

    def test_catches_a_table_keyed_by_module_name(self, monkeypatch):
        monkeypatch.setattr(
            TokenStream, "digest",
            lambda self, start=0, stop=None: self.syms[start + 1],
        )
        assert table_mismatches(GALLERY_SOURCES)

    def test_catches_a_table_caching_failures(self, monkeypatch):
        # the reference parses through ``parse_module_at`` too: take it first
        expected = [whole_file_report(source) for source in GALLERY_SOURCES]
        failures = {}
        parse_module_at = Parser.parse_module_at

        def remembering(self, pos):
            stream = self._stream
            try:
                stop = stream.syms.index("endmodule", pos) + 1
            except ValueError:
                return parse_module_at(self, pos)
            key = stream.digest(pos, stop)
            if key in failures:
                raise failures[key]
            try:
                return parse_module_at(self, pos)
            except ParseError as exc:
                failures[key] = exc
                raise

        monkeypatch.setattr(Parser, "parse_module_at", remembering)
        assert table_mismatches(GALLERY_SOURCES, expected=expected)

    def test_catches_a_table_not_replaying_module_lint(self):
        class LintlessTable(dict):
            def get(self, key, default=None):
                entry = super().get(key)
                return default if entry is None else (entry[0], ())

        assert table_mismatches(GALLERY_SOURCES, LintlessTable())


@dataclass(frozen=True)
class _Item:
    content: str
