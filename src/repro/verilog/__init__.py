"""Verilog-2001 subset front end: lexer, parser, AST, and syntax checker.

This package is the reproduction's substitute for Icarus Verilog 10.3,
which the paper uses to drop syntactically invalid files from FreeSet
(Sec. III-D2).  It also feeds the RTL simulator in :mod:`repro.sim`, which
the functional benchmark uses to decide pass/fail per completion.

Supported subset (the synthesizable constructs our corpus generators emit):

* ``module``/``endmodule`` with ANSI or non-ANSI port lists
* ``parameter``/``localparam`` declarations and overrides
* ``wire``/``reg``/``integer`` declarations with ranges and array dims
* ``assign`` continuous assignments
* ``always`` blocks with edge or combinational sensitivity lists
* ``initial`` blocks (parsed; used only for constant reg initialization)
* ``if``/``else``, ``case``/``casez``/``casex``, ``for`` loops, ``begin``/``end``
* blocking and nonblocking assignments
* full operator set with standard precedence, ``{}`` concat/replication,
  bit/part selects including indexed (``+:``/``-:``) selects
* module instantiation with named or positional connections and parameter
  overrides
"""

from repro.verilog.tokens import Token, TokenKind, TokenStream, KEYWORDS
from repro.verilog.lexer import Lexer, lex
from repro.verilog.fastlex import check_syntax_fast, lex_fast, lex_prompt
from repro.verilog.parser import (
    Parser, lex_source_digest, parse_source, parse_source_fast,
    parse_stream,
)
from repro.verilog.syntax import SyntaxReport, check_syntax
from repro.verilog import ast

__all__ = [
    "Token",
    "TokenKind",
    "TokenStream",
    "KEYWORDS",
    "Lexer",
    "lex",
    "lex_fast",
    "lex_prompt",
    "check_syntax_fast",
    "Parser",
    "parse_source",
    "parse_source_fast",
    "lex_source_digest",
    "parse_stream",
    "SyntaxReport",
    "check_syntax",
    "ast",
]
