"""The Verilog front end's differential oracle.

``lex_fast`` + the index-reading parser carry the engine's syntax stage
and the pass@k checker, whose outputs must be byte-identical to what the
reference lexer produces.  Everything here compares the fast path with
the reference path on the same source and allows no difference but
speed: *exact* token equality (kind, text, line, column, ``LexError``
iff), AST equality with ``line`` fields included, ``ParseError`` text
with its ``(line L, col C)``, and ``SyntaxReport`` equality — over a
gallery of adversarial inputs, the whole test world, near-miss mutants,
every golden truncated at every token, and generated token soup.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexError, ParseError
from repro.vereval import build_problem_set
from repro.verilog import (
    Parser,
    check_syntax,
    check_syntax_fast,
    lex,
    lex_fast,
    lex_prompt,
    parse_source,
    parse_source_fast,
)
from repro.verilog.syntax import check_with_lexer
from repro.verilog.tokens import (
    MULTI_CHAR_OPS,
    SINGLE_CHAR_OPS,
    Token,
    TokenKind,
)
from repro.vgen import mutate

#: A string literal whose decoded text is an operator or a keyword must
#: never be accepted as one — strings are the only kind that can collide.
#: The parser is shared, so fast-vs-reference cannot see this trap: the
#: error each source must raise is spelled out.
STRING_COLLISIONS = {
    'module m "(" ; endmodule': "expected ';', got '(' (line 1, col 10)",
    'module m ";" endmodule': "expected ';', got ';' (line 1, col 10)",
    'module m; always @(*) "begin" x = 1; end endmodule':
        "expected statement, got 'begin' (line 1, col 23)",
    'module "module" m; endmodule':
        "expected identifier, got 'module' (line 1, col 8)",
    'module m; assign x = a "+" b; endmodule':
        "expected ';', got '+' (line 1, col 24)",
}

#: Inputs covering every token class, every reference-lexer error path,
#: and the traps a single-alternation lexer / index-reading parser can
#: fall into.
ADVERSARIAL = [
    "",
    "   \t\r\n  ",
    "// line comment only",
    "/* block */",
    "/* unterminated",
    "a /* nested /* still one */ tail",
    "module m; endmodule",
    "`timescale 1ns/1ps\nmodule m; endmodule",
    "`define FOO \\\n  multi \\\n  line\nmodule m; endmodule",
    "`",
    "`\\\n",
    "wire [7:0] x = 8'hFF;",
    "x = 'b1010; y = 'd_; z = 12'sb01_zx?;",
    "v = 1_000.5; w = 1.; u = 16'hDEAD_beef;",
    "1'b0 2'o7 3'd9 4'hA 5'sHff",
    "12'",
    "12'q",
    "'sb1",
    "9'",
    "12.34.56",
    "$display(\"esc \\n \\t \\\\ \\\" \\q done\")",
    "$",
    "a $ b",
    "\"unterminated",
    "\"newline\nin string\"",
    "\"trailing backslash \\",
    '"escaped \\\n newline" wire w;',
    '"two \\\n escaped \\\n newlines" x; // and\ny',
    "x <= y; a <<< b; c >>> d; e === f; g !== h;",
    "i -> j; k +: l; m -: n; o ** p;",
    "~& ~| ~^ ^~ && || == != < > <= >=",
    "\\escaped_ident_unsupported",
    "x\x0cy",
    "_leading $sys0 trailing$",
    "{a, b[3:0], {2{c}}} @ # ;",
    # `/*` at a token position is an unterminated comment, not `/` `*`
    "x = a /* open",
    "x = a /*/ b",
    "x = a / * b /**/ c",
    # a keyword is re-tagged after the match: its offset must stay its own
    "/* c */  module /* d */\n   endmodule // e\n  begin",
    # multi-line tokens must keep every later token's line right
    '`define A \\\n b \\\n c\nmodule m;\n  initial $display("p\\\nq", 1.5);\nendmodule',
    "module m;\n`ifdef X\n  wire w\n`endif\nendmodule",
    'module m; initial $display("begin", "module", "(", ";"); endmodule',
    *STRING_COLLISIONS,
]

#: What ``lex_fast`` says about each way lexing can fail.  The text lands
#: in ``SyntaxReport.errors``, so it is pinned, not just the verdict (the
#: reference lexer words and places some of these differently).
LEX_ERRORS = {
    '"unterminated': "unterminated string literal (line 1, col 1)",
    '"trailing backslash \\': "unterminated string literal (line 1, col 1)",
    'wire w;\n  "newline\nin string"':
        "newline in string literal (line 2, col 3)",
    '"a\\\nb" "c\n': "newline in string literal (line 2, col 4)",
    "module m;\n/* unterminated":
        "unterminated block comment (line 2, col 1)",
    "x = a /*/ b": "unterminated block comment (line 1, col 7)",
    "x\x0cy": "illegal character '\\x0c' (line 1, col 2)",
    "a $ b": "illegal character '$' (line 1, col 3)",
    "12'q": "illegal character \"'\" (line 1, col 3)",
    "\\escaped": "illegal character '\\\\' (line 1, col 1)",
}


# -- the oracle -----------------------------------------------------------------


def _reference(source):
    """The reference lexer's tokens, or None where it raises."""
    try:
        return lex(source)
    except LexError:
        return None


def _parse_outcome(tokens):
    """``asdict`` of the AST — ``line`` is ``compare=False``, so ``==`` on
    the nodes would not see it — or the ParseError text, position included."""
    try:
        return dataclasses.asdict(Parser(tokens).parse_source())
    except ParseError as exc:
        return str(exc)


def assert_same_tokens(source, reference):
    if reference is None:
        with pytest.raises(LexError):
            lex_fast(source)
        return
    stream = lex_fast(source)
    assert stream == reference
    assert len(stream) == len(reference)


def assert_same_parse(source, reference):
    """Returns the shared outcome (None where the source does not lex)."""
    if reference is None:
        return None
    outcome = _parse_outcome(lex_fast(source))
    assert outcome == _parse_outcome(reference)
    return outcome


def assert_same_report(source, reference):
    fast = check_syntax_fast(source)
    if reference is None:
        assert not fast.ok and not fast.module_names and len(fast.errors) == 1
        return
    # check_syntax(source) without lexing the source a second time
    slow = check_with_lexer(source, lambda _: reference)
    assert (fast.ok, fast.module_names, fast.errors) == (
        slow.ok, slow.module_names, slow.errors
    )


def assert_identical(source):
    reference = _reference(source)
    assert_same_tokens(source, reference)
    assert_same_parse(source, reference)
    assert_same_report(source, reference)


@pytest.fixture(scope="module")
def world_reference(raw_files):
    """Every distinct world file with its reference tokens, lexed once:
    the reference lexer is the slow side and three oracles read it."""
    return {
        source: _reference(source)
        for source in dict.fromkeys(record.content for record in raw_files)
    }


def _prefixes(source):
    """``source`` cut at the start of every token, EOF included, each with
    the tokens the reference lexer returns for it: the tokens before the
    cut, then EOF where the cut token stood."""
    tokens = lex(source)
    offsets = [0]
    for line in source.split("\n"):
        offsets.append(offsets[-1] + len(line) + 1)
    for i, tok in enumerate(tokens):
        prefix = source[:offsets[tok.line - 1] + tok.col - 1]
        eof = Token(TokenKind.EOF, "", tok.line, tok.col)
        yield prefix, tokens[:i] + [eof]


# Token soup: fragments of every token class (and of every way to fail)
# glued with arbitrary trivia — or none, so neighbours merge.
_FRAGMENTS = [
    "a", "_x1", "clk$", "module", "endmodule", "begin", "end", "Module",
    "$display", "$signed", "0", "42", "1_000", "3.14", "8'hFF", "'b1010",
    "12'sb01_zx?", "4'd9", '"s"', '"("', '"begin"', '"e \\n \\" \\q"',
    '"a\\\nb"', "`timescale 1ns/1ps", "`define X \\\n 1",
    *MULTI_CHAR_OPS, *sorted(SINGLE_CHAR_OPS),
    "\x0c", "$", "'", '"open', "/* open", "\\",
]
_TRIVIA = ["", " ", "\n", "\t", "\r\n", "// c\n", "/* c */", "/* a\nb */"]
_SOUP = st.lists(
    st.tuples(st.sampled_from(_TRIVIA), st.sampled_from(_FRAGMENTS)),
    max_size=24,
).map(lambda parts: "".join(trivia + text for trivia, text in parts))


class TestTokenEquivalence:
    @pytest.mark.parametrize("source", ADVERSARIAL)
    def test_adversarial_inputs(self, source):
        assert_identical(source)

    def test_generated_corpus_identical(self, tiny_verilog_corpus):
        for source in tiny_verilog_corpus:
            assert_identical(source)

    def test_world_corpus_identical(self, world_reference):
        assert len(world_reference) > 1500
        for source, reference in world_reference.items():
            assert_same_tokens(source, reference)

    @settings(deadline=None)
    @given(_SOUP)
    def test_token_soup(self, source):
        assert_identical(source)

    def test_positions_track_lines_and_columns(self):
        tokens = lex_fast("module m;\n  wire x;\nendmodule\n")
        reference = lex("module m;\n  wire x;\nendmodule\n")
        assert [(t.line, t.col) for t in tokens] == [
            (t.line, t.col) for t in reference
        ]

    def test_stream_is_a_sequence_of_tokens(self):
        source = "`timescale 1ns/1ps\nmodule m; // c\nendmodule\n`undef X"
        stream, reference = lex_fast(source), lex(source)
        # directives and EOF count, though the parser never reads the former
        assert len(stream) == len(reference) == 7
        assert list(stream) == reference
        assert [stream[i] for i in range(len(stream))] == reference
        assert stream[-1] == reference[-1] and stream[1:3] == reference[1:3]
        assert stream != reference[:-1]

    @pytest.mark.parametrize("source", sorted(LEX_ERRORS))
    def test_lex_error_text_is_pinned(self, source):
        with pytest.raises(LexError) as raised:
            lex_fast(source)
        assert str(raised.value) == LEX_ERRORS[source]
        assert check_syntax_fast(source).errors == [LEX_ERRORS[source]]
        assert _reference(source) is None


class TestParseEquivalence:
    def test_world_corpus_asts(self, world_reference):
        # every other file: two asdict()s per file are the suite's slow
        # part, and the world is forks of forks (tokens above and verdicts
        # below are compared on every file)
        outcomes = {
            type(assert_same_parse(source, reference))
            for source, reference in list(world_reference.items())[::2]
        }
        assert {dict, str} <= outcomes  # ASTs and ParseErrors both compared

    def test_near_miss_mutants(self, module_pool):
        mutants = [m.source for module in module_pool for m in mutate(module)]
        assert len(mutants) > 100
        for source in mutants:
            assert_identical(source)

    def test_goldens_truncated_at_every_token(self):
        # every prefix ends in an EOF the parser must report, not pass
        prefixes = 0
        for problem in build_problem_set():
            for prefix, reference in _prefixes(problem.golden_source):
                if prefixes % 16 == 0:  # spot-check _prefixes' shortcut
                    assert lex(prefix) == reference
                assert_same_parse(prefix, reference)
                prefixes += 1
        assert prefixes > 5000

    @pytest.mark.parametrize("source", STRING_COLLISIONS)
    def test_string_is_never_an_operator_or_keyword(self, source):
        for parse in (parse_source_fast, parse_source):
            with pytest.raises(ParseError) as raised:
                parse(source)
            assert str(raised.value) == STRING_COLLISIONS[source]

    def test_error_at_the_first_token_is_reported_there(self):
        # position 0 is falsy: `pos or current` would blame the EOF
        parser = Parser(lex_fast("1.5"))
        with pytest.raises(ParseError) as raised:
            parser._parse_primary()
        assert str(raised.value) == (
            "real literals are not supported, got '1.5' (line 1, col 1)"
        )


class TestVerdictEquivalence:
    def test_corpus_verdicts(self, world_reference):
        for source, reference in world_reference.items():
            assert_same_report(source, reference)

    @pytest.mark.parametrize(
        "source",
        [
            "module m; endmodule",
            "module m(input a; endmodule",   # parse error
            "module m; /* unterminated",     # lex error
            "module m; endmodule module m; endmodule",  # lint: duplicate
            "not verilog at all",
        ],
    )
    def test_error_paths(self, source):
        fast, slow = check_syntax_fast(source), check_syntax(source)
        assert fast.ok == slow.ok
        assert fast.module_names == slow.module_names


class TestTokenDigest:
    """``TokenStream.digest`` keys the checker's golden-equal rule: equal
    digests must mean equal parser-visible symbols, nothing more."""

    SOURCE = 'module m(output [3:0] y); assign y = 4\'d3; endmodule\n'

    @staticmethod
    def digest(source):
        return lex_fast(source).digest()

    def test_trivia_and_directives_do_not_count(self):
        respelt = "`timescale 1ns/1ps\n// c\n" + self.SOURCE.replace(
            " ", "\n  /* x */ "
        )
        assert self.digest(respelt) == self.digest(self.SOURCE)

    def test_every_symbol_counts(self):
        for variant in (
            self.SOURCE.replace("= 4'd3", "= (4'd3)"),
            self.SOURCE.replace("4'd3", "4'b11"),
            self.SOURCE.replace("y", "z"),
        ):
            assert self.digest(variant) != self.digest(self.SOURCE)

    def test_symbol_boundaries_count(self):
        # the same kinds and the same text once joined: a digest over the
        # joined text alone would take one for the other
        one, two = lex_fast('"ab" c'), lex_fast('"a" bc')
        assert one.kinds == two.kinds
        assert "".join(one.syms) == "".join(two.syms)
        assert one.digest() != two.digest()

    def test_the_split_front_end_is_parse_source_fast(self):
        from dataclasses import asdict

        from repro.verilog import (
            lex_source_digest, parse_source_fast, parse_stream,
        )

        for problem in build_problem_set(n_problems=10):
            source = problem.golden_source
            stream, digest = lex_source_digest(source)
            assert digest == self.digest(source)
            assert asdict(parse_stream(stream)) == asdict(
                parse_source_fast(source)
            )

    def test_both_lexers_give_one_digest(self):
        from repro.verilog.tokens import TokenStream

        for problem in build_problem_set(n_problems=10):
            source = problem.golden_source
            assert TokenStream.from_tokens(lex(source)).digest() == (
                self.digest(source)
            )


# -- lexing on from a closed prompt -----------------------------------------


def _stream_or_error(lex_it):
    """Everything a stream holds, and its digest, or the LexError text."""
    try:
        stream = lex_it()
    except LexError as exc:
        return str(exc)
    return (
        stream.kinds, stream.syms, stream.starts, stream.directives,
        stream.newlines, stream.digest(),
    )


def _on_from_prompt_mismatches(closure, cases):
    """The ``(prompt, completion)`` cases on which lexing on from
    ``closure(prompt)`` (a prompt stream, or None: not closed, lexed
    whole) differs from ``lex_fast`` of the whole source."""
    out = []
    for prompt, completion in cases:
        stream = closure(prompt)
        if stream is None:
            continue
        source = prompt + completion
        if _stream_or_error(lambda: lex_fast(source, stream)) != (
            _stream_or_error(lambda: lex_fast(source))
        ):
            out.append((prompt, completion))
    return out


#: completions that end or break lexing in every way the prompt's end
#: could hide
_ADVERSARIAL_COMPLETIONS = [
    "",
    "\n",
    "  assign y = a;\nendmodule\n",
    "/* unterminated\nendmodule",
    "/* closed */ endmodule",
    "// only a comment",
    "`define W \\\n  8\nendmodule",
    "`timescale 1ns/1ps",
    '  initial $display("a \\\n b");\nendmodule',
    '  initial $display("open\nendmodule',
    "  wire \x0c w;",
    "  assign y = a $ b;",
    "\r\n  assign y = a;\r\nendmodule\r\n",
    "b);\nendmodule",
    "12'hFF;",
]

#: prompts that are not closed, each with why
_OPEN_PROMPTS = {
    "module m(input a": "no trailing newline",
    "module m(input a, output y);  ": "no trailing newline",
    "module m(input a, output y); // trailing\n": "a trailing line comment",
    "module m(input a, output y); /* trailing */\n": "a trailing comment",
    "`define X 1 \\\n": "a continued directive",
    "`define X 1 \n": "a directive reaching into the run",
    "module m(input a, output y);\n/* open\n": "does not lex",
    'module m; initial $display("a \\\n': "does not lex",
}


def _prompt_cases():
    prompts = [p.prompt() for p in build_problem_set(n_problems=6)]
    prompts += [
        "\n", " \t\r\n",
        "`timescale 1ns/1ps\nmodule m(input a, output y);\r\n",
    ]
    prompts += list(_OPEN_PROMPTS)
    return [(p, c) for p in prompts for c in _ADVERSARIAL_COMPLETIONS]


class TestLexOnFromPrompt:
    """A pass@k source is its problem's prompt + a completion; the checker
    lexes it on from the prompt's stream (``lex_fast(source, prompt)``)
    when :func:`lex_prompt` calls the prompt closed.  That stream must be
    ``lex_fast(source)``'s in every field, digest and error text."""

    def test_every_headline_source(self, headline_runs):
        sources = {}
        for workload, run in headline_runs.values():
            for record in run.records:
                if record.task_id == workload.passk.task_id:
                    sources[record.prompt + record.completion] = record.prompt
        assert len(sources) > 1000
        closed = {p: lex_prompt(p) for p in set(sources.values())}
        assert len(closed) == 60
        assert None not in closed.values()
        cases = [(p, s[len(p):]) for s, p in sources.items()]
        assert _on_from_prompt_mismatches(closed.get, cases) == []

    def test_adversarial_completions(self):
        cases = _prompt_cases()
        for prompt in dict.fromkeys(p for p, _ in cases):
            assert (lex_prompt(prompt) is None) == (prompt in _OPEN_PROMPTS)
        assert _on_from_prompt_mismatches(lex_prompt, cases) == []

    @pytest.mark.parametrize("prompt", list(_OPEN_PROMPTS))
    def test_an_open_prompt_is_refused(self, prompt):
        assert lex_prompt(prompt) is None, _OPEN_PROMPTS[prompt]

    def test_dropping_the_trailing_newline_condition_fails(self):
        def without_newline_rule(prompt):
            # lex_prompt's rule, a missing trailing newline forgiven
            if lex_prompt(prompt + "\n") is None:
                return None
            return lex_fast(prompt)

        assert _on_from_prompt_mismatches(
            without_newline_rule, _prompt_cases()
        )

    def test_the_checker_lexes_on_from_the_prompt(self, monkeypatch):
        from repro.vereval import check_completion, harness, reset_caches

        problem = build_problem_set(n_problems=1)[0]
        seen = []
        real = harness.lex_source_digest

        def spy(source, *prompt):
            seen.append(prompt)
            return real(source, *prompt)

        monkeypatch.setattr(harness, "lex_source_digest", spy)
        reset_caches()
        check_completion(problem, "\nendmodule\n")
        # the candidate on from the prompt, then the golden (bundle) whole
        closed = harness._prompt_stream(problem.prompt())
        assert closed is not None
        assert seen == [(closed,), ()]
        seen.clear()
        harness.check_candidates_lockstep(
            problem, ["// not the prompt\n" + problem.golden_source]
        )
        assert seen == [()]
