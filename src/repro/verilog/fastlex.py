"""Single-pass regex lexer: the front end's fast path.

The hand-written :class:`repro.verilog.lexer.Lexer` advances one character
per Python-level loop iteration, which made the syntax-check stage the
dominant cost of corpus curation.  This module implements the *same*
token grammar as one compiled alternation driven by ``finditer``: leading
trivia is folded into every match, and string literals, end of input and
a catch-all for anything illegal are branches of the same alternation, so
nothing runs at Python level between two tokens.  The result is a
:class:`~repro.verilog.tokens.TokenStream` — three parallel lists the
parser reads by index — not a list of ``Token`` objects.

Identity contract (relied on by the execution engine and the pass@k
checker, enforced by ``tests/test_fastlex.py``): read as a sequence,
``lex_fast(source)`` equals ``lex(source)`` token for token — kind, text,
line and column, directives and EOF included — or raises
:class:`LexError` exactly when ``lex`` raises (message and position may
differ from the reference lexer's; they are pinned by the same tests).
The shared :class:`repro.verilog.parser.Parser` therefore builds the same
AST and raises the same ``ParseError`` from either lexer, and
:func:`check_syntax_fast` is a drop-in replacement for
:func:`repro.verilog.syntax.check_syntax`.  Nothing but speed may differ.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.errors import LexError
from repro.verilog.tokens import (
    K_BASED_NUMBER,
    K_DIRECTIVE,
    K_EOF,
    K_IDENT,
    K_KEYWORD,
    K_NUMBER,
    K_OP,
    K_STRING,
    K_SYSTEM_IDENT,
    KEYWORDS,
    MULTI_CHAR_OPS,
    SINGLE_CHAR_OPS,
    TokenStream,
)

#: whitespace, line comments, and *terminated* block comments.  An
#: unterminated ``/*`` is left unconsumed; the operator branch refuses it
#: and the catch-all reports it.
_TRIVIA = r"[ \t\r\n]*(?:(?://[^\n]*|/\*.*?\*/)[ \t\r\n]*)*"

_OPS = "|".join(re.escape(op) for op in MULTI_CHAR_OPS) + (
    "|[" + re.escape("".join(sorted(SINGLE_CHAR_OPS))) + "]"
)

#: A string literal's inside: an escape hides the character after it (a
#: newline included); a raw newline or the end of input ends it unclosed.
_STRING_BODY = r'(?:\\.|[^"\\\n])*'
_STRING_BODY_RE = re.compile(_STRING_BODY, re.DOTALL)

#: One capture group per token class, keyed by the kind it lexes to.
#: Where prefixes overlap the reference lexer's dispatch order is kept
#: (sized/unsized based numbers before plain numbers).  Unsized based
#: literals admit no sign flag — ``'sb1`` is an error in the reference
#: lexer, so it must not match here.  The ``(?!/\*)`` guards the *whole*
#: operator alternation: ``/*`` at a token position is an unterminated
#: comment, never ``/`` then ``*``.
_TOKEN_PATTERNS = {
    K_IDENT: r"[A-Za-z_][A-Za-z0-9_$]*",
    K_OP: rf"(?!/\*)(?:{_OPS})",
    K_BASED_NUMBER: r"(?:[0-9][0-9_]*'[sS]?|')[bBoOdDhH][0-9a-fA-FxXzZ?_]+",
    K_NUMBER: r"[0-9][0-9_]*(?:\.[0-9]+)?",
    K_SYSTEM_IDENT: r"\$[A-Za-z_][A-Za-z0-9_$]*",
    K_DIRECTIVE: r"`(?:\\\n|[^\n])*",
    K_STRING: f'"{_STRING_BODY}"',
    K_EOF: r"\Z",
}
#: the group after the last kind: any character no token starts with
_K_ILLEGAL = K_EOF + 1

_TOKEN_RE = re.compile(
    _TRIVIA
    + "(?:"
    + "|".join(f"({_TOKEN_PATTERNS[k]})" for k in range(K_IDENT, _K_ILLEGAL))
    + "|(.))",
    re.DOTALL,
)
_NEWLINE_RE = re.compile("\n")

_STRING_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_STRING_ESCAPES = {"n": "\n", "t": "\t"}


def _string_sym(literal: str) -> str:
    """The stream symbol of a terminated string literal: its opening quote
    (see ``TokenStream``), then its text — recognized escapes decoded,
    unknown escapes keeping the escaped character, exactly the reference
    lexer's rule."""
    sym = literal[:-1]
    if "\\" not in sym:
        return sym
    return _STRING_ESCAPE_RE.sub(
        lambda m: _STRING_ESCAPES.get(m[1], m[1]), sym
    )


def _illegal(source: str, start: int, stream: TokenStream) -> LexError:
    """The error for a position no token branch matched."""
    line, col = stream.position(start)
    ch = source[start]
    if source.startswith("/*", start):
        return LexError("unterminated block comment", line, col)
    if ch == '"':
        # The string branch matches every terminated literal, so this one
        # runs into a raw newline or the end of input.
        end = _STRING_BODY_RE.match(source, start + 1).end()
        if source.startswith("\n", end):
            return LexError("newline in string literal", line, col)
        return LexError("unterminated string literal", line, col)
    return LexError(f"illegal character {ch!r}", line, col)


def lex_fast(
    source: str, prompt: Optional[TokenStream] = None
) -> TokenStream:
    """Lex ``source``: the stream form of what :func:`lexer.lex` returns.

    ``prompt``, if given, is the :func:`lex_prompt` stream of a closed
    prompt that ``source`` starts with: its tokens are taken as they are
    and lexing goes on from the prompt's end (its EOF offset).
    """
    if prompt is None:
        resume = 0
        kinds: List[int] = []
        syms: List[str] = []
        starts: List[int] = []
        directives: List[Tuple[int, str]] = []
        newlines = [-1]
    else:
        resume = prompt.starts[-1]
        kinds = prompt.kinds[:-1]
        syms = prompt.syms[:-1]
        starts = prompt.starts[:-1]
        directives = prompt.directives[:]
        newlines = prompt.newlines[:-1]
    newlines += [m.start() for m in _NEWLINE_RE.finditer(source, resume)]
    newlines.append(len(source) + 1)
    stream = TokenStream(kinds, syms, starts, directives, newlines)
    add_kind, add_sym, add_start = kinds.append, syms.append, starts.append

    for match in _TOKEN_RE.finditer(source, resume):
        kind = match.lastindex
        sym = match[kind]
        # the token's own offset: group 0 starts at the leading trivia
        start = match.start(kind)
        if kind == K_IDENT:
            if sym in KEYWORDS:
                kind = K_KEYWORD
        elif kind >= K_DIRECTIVE:
            if kind == K_DIRECTIVE:
                directives.append((start, sym))
                continue
            if kind == K_EOF:
                # finditer would offer one more, empty, match at the end
                break
            if kind == _K_ILLEGAL:
                raise _illegal(source, start, stream)
            sym = _string_sym(sym)
        add_kind(kind)
        add_sym(sym)
        add_start(start)
    add_kind(K_EOF)
    add_sym("")
    add_start(len(source))
    return stream


def lex_prompt(prompt: str) -> Optional[TokenStream]:
    """The stream of ``prompt`` if it is *closed*, else None.

    A prompt is closed when it lexes, ends in a whitespace run that ends
    with ``\\n``, and no token or directive reaches into that run (a
    trailing comment is refused too).  Every match of ``_TOKEN_RE`` then
    ends before the run, and the run ends a line, so no match inside the
    prompt can read past it: a directive or a line comment stops at its
    newline, and a string or block comment that would cross it does not
    lex.  For any text after a closed prompt, the whole source's matches
    up to the run are the prompt's own, and the next match's leading
    trivia swallows the run, so ``_TOKEN_RE.finditer(source, len(prompt))``
    yields the rest of the whole source's stream: the basis of
    :func:`lex_fast`'s ``prompt`` argument.
    """
    if not prompt.endswith("\n"):
        return None
    try:
        stream = lex_fast(prompt)
    except LexError:
        return None
    last = max(
        stream.starts[-2] if len(stream.starts) > 1 else -1,
        stream.directives[-1][0] if stream.directives else -1,
    )
    # matched from its own start (where trivia ends), the last token or
    # directive is matched alone: its end is the match's
    end = _TOKEN_RE.match(prompt, last).end() if last >= 0 else 0
    if end != len(prompt.rstrip(" \t\r\n")):
        return None
    return stream


def check_syntax_fast(source: str, table=None):
    """:func:`repro.verilog.syntax.check_syntax` via the fast lexer.

    Identical verdicts by the identity contract above; the engine's
    syntax stage uses this entry point on whole-corpus runs, passing its
    module ``table`` (see :func:`~repro.verilog.syntax.check_with_lexer`).
    """
    from repro.verilog.syntax import check_with_lexer

    return check_with_lexer(source, lex_fast, table)
