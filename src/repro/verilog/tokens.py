"""Token definitions for the Verilog front end.

Two representations of the same tokens live here.  :class:`Token` is the
object form: what the reference lexer returns and what tests, errors and
debugging read.  :class:`TokenStream` is the working form: three parallel
lists (small-int kind, symbol, start offset) that ``fastlex`` fills and
the parser reads by index, so no per-token object exists on a hot path.
A stream *is* a sequence of ``Token`` s — ``len``, iteration, indexing and
``==`` materialise them on demand — which is how ``tests/test_fastlex.py``
holds the two lexers to token identity.
"""

from __future__ import annotations

import enum
import hashlib
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple


class TokenKind(enum.Enum):
    """Lexical category of a token."""

    IDENT = "ident"
    KEYWORD = "keyword"
    NUMBER = "number"        # plain decimal: 42
    BASED_NUMBER = "based"   # sized/based: 8'hFF, 'b1010, 4'd9
    STRING = "string"
    OP = "op"                # operators and punctuation
    SYSTEM_IDENT = "system"  # $display, $signed, ...
    DIRECTIVE = "directive"  # `define, `timescale, ... (skipped bodies)
    EOF = "eof"


#: Verilog-2001 keywords recognized by the subset grammar.  Keywords outside
#: the subset are still lexed as keywords so the parser can produce precise
#: "unsupported construct" errors instead of misparsing them as identifiers.
KEYWORDS = frozenset(
    """
    module endmodule input output inout wire reg integer real time
    parameter localparam assign always initial begin end if else case
    casez casex endcase default for while repeat forever posedge negedge
    or and not nand nor xor xnor buf bufif0 bufif1 notif0 notif1
    supply0 supply1 tri triand trior tri0 tri1 trireg
    function endfunction task endtask generate endgenerate genvar
    signed unsigned defparam specify endspecify primitive endprimitive
    table endtable fork join wait disable deassign force release
    event real realtime scalared vectored small medium large
    strong0 strong1 pull0 pull1 weak0 weak1 highz0 highz1
    macromodule cell config endconfig design instance liblist library
    use automatic cmos rcmos nmos pmos rnmos rpmos rtran tran tranif0
    tranif1 rtranif0 rtranif1 pulldown pullup
    """.split()
)

#: Multi-character operators, longest first so the lexer can greedily match.
MULTI_CHAR_OPS = (
    "<<<", ">>>", "===", "!==",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "**", "+:", "-:", "~&", "~|", "~^", "^~", "->",
)

#: All single-character operator / punctuation characters.
SINGLE_CHAR_OPS = frozenset("+-*/%><=!&|^~?:;,.()[]{}#@")


@dataclass(frozen=True)
class Token:
    """A single lexed token with source position for error reporting."""

    kind: TokenKind
    text: str
    line: int
    col: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.col})"


#: Small-int kinds of a :class:`TokenStream`.  ``K_IDENT`` .. ``K_EOF`` are
#: numbered as the capture groups of ``fastlex``'s alternation (most
#: frequent class first), so ``Match.lastindex`` *is* the kind; keywords
#: match as identifiers and are re-tagged ``K_KEYWORD``.
(
    K_KEYWORD,
    K_IDENT,
    K_OP,
    K_BASED_NUMBER,
    K_NUMBER,
    K_SYSTEM_IDENT,
    K_DIRECTIVE,
    K_STRING,
    K_EOF,
) = range(9)

_KIND_OF_K = (
    TokenKind.KEYWORD,
    TokenKind.IDENT,
    TokenKind.OP,
    TokenKind.BASED_NUMBER,
    TokenKind.NUMBER,
    TokenKind.SYSTEM_IDENT,
    TokenKind.DIRECTIVE,
    TokenKind.STRING,
    TokenKind.EOF,
)
_K_OF_KIND = {kind: k for k, kind in enumerate(_KIND_OF_K)}


class TokenStream(Sequence):
    """One source's tokens as parallel lists, ``Token`` s only on demand.

    ``kinds[i]``, ``syms[i]`` and ``starts[i]`` describe the ``i``-th token
    the *parser* reads: directives are position markers the grammar
    ignores, so they are kept aside in ``directives`` (``(start, text)``
    pairs) and merged back only when the stream is read as a sequence.
    The last entry is always EOF.

    ``syms[i]`` is the token's text with one exception: a string
    literal's symbol is ``'"'`` followed by its decoded text.  Strings are
    the only kind whose text can equal an operator or a keyword
    (``"("``, ``"begin"``); keeping the quote means ``syms[i] == "("`` is
    true for the operator and nothing else, so the parser never has to
    pair a text compare with a kind check.

    ``newlines`` holds the offset of every ``\\n`` in the source between
    two sentinels, ``-1`` and one past EOF, so a token's line is the count
    of entries below its start and its column the distance to the last of
    them.
    """

    __slots__ = ("kinds", "syms", "starts", "directives", "newlines")

    def __init__(
        self,
        kinds: List[int],
        syms: List[str],
        starts: List[int],
        directives: List[Tuple[int, str]],
        newlines: List[int],
    ) -> None:
        self.kinds = kinds
        self.syms = syms
        self.starts = starts
        self.directives = directives
        self.newlines = newlines

    @classmethod
    def from_tokens(cls, tokens: Sequence[Token]) -> "TokenStream":
        """The stream of a ``Token`` list (the reference lexer's output).

        A ``Token`` carries no offset, so positions are laid out as if
        every source line were ``width`` characters long; lines and
        columns read back exactly.
        """
        width = max(tok.col for tok in tokens) + 1
        kinds: List[int] = []
        syms: List[str] = []
        starts: List[int] = []
        directives: List[Tuple[int, str]] = []
        for tok in tokens:
            start = (tok.line - 1) * width + tok.col - 1
            if tok.kind is TokenKind.DIRECTIVE:
                directives.append((start, tok.text))
                continue
            kinds.append(_K_OF_KIND[tok.kind])
            syms.append(
                '"' + tok.text if tok.kind is TokenKind.STRING else tok.text
            )
            starts.append(start)
        newlines = [line * width - 1 for line in range(tokens[-1].line + 1)]
        return cls(kinds, syms, starts, directives, newlines)

    def digest(self, start: int = 0, stop: Optional[int] = None) -> bytes:
        """A 16-byte ``blake2b`` of what the parser reads in tokens
        ``start:stop`` (default: all of them, EOF included): the token
        count, every token's kind and the length and text of every symbol.

        Two ranges with one digest hold the same kinds and symbols in the
        same order, so the parser takes the same path through both and
        builds ASTs that differ at most in their ``line`` fields (the
        count and lengths make the encoding injective: a string literal
        may hold any character).  Positions, trivia and directives are
        not part of it.  The whole-stream digest is persisted (a golden
        bundle in ``sim.cache`` stores it as ``_GoldenRef.digest``), so
        its bytes must not change.
        """
        kinds, syms = self.kinds[start:stop], self.syms[start:stop]
        h = hashlib.blake2b(len(syms).to_bytes(8, "little"), digest_size=16)
        h.update(bytes(kinds))
        h.update(array("Q", map(len, syms)))
        h.update("".join(syms).encode("utf-8", "surrogatepass"))
        return h.digest()

    # -- positions ---------------------------------------------------------

    def lines(self, start: int = 0, stop: Optional[int] = None) -> List[int]:
        """The line of every parser-visible token in ``start:stop``
        (default: all of them), by one bisect and one merge pass.

        Starts and newline offsets are both ascending, so walking them
        together costs one compare per token — cheaper than a bisect per
        request once a quarter of the tokens are asked for, and the parser
        asks for more (every identifier, literal and statement).
        """
        starts = self.starts[start:stop]
        if not starts:
            return []
        newlines = self.newlines
        # the line before the first token's: newlines[0] precedes offset 0
        line = bisect_left(newlines, starts[0]) - 1
        upcoming = newlines[line]
        out: List[int] = []
        add = out.append
        for offset in starts:
            while offset > upcoming:
                line += 1
                upcoming = newlines[line]
            add(line)
        return out

    def position(self, start: int) -> Tuple[int, int]:
        """``(line, col)``, both 1-based, of the token at offset ``start``."""
        line = bisect_left(self.newlines, start)
        return line, start - self.newlines[line - 1]

    def text(self, index: int) -> str:
        """The ``Token.text`` of parser-visible token ``index``."""
        sym = self.syms[index]
        return sym[1:] if self.kinds[index] == K_STRING else sym

    # -- the sequence-of-Token view ------------------------------------------

    def __len__(self) -> int:
        return len(self.kinds) + len(self.directives)

    def __iter__(self) -> Iterator[Token]:
        entries = [
            (start, _KIND_OF_K[self.kinds[i]], self.text(i))
            for i, start in enumerate(self.starts)
        ]
        entries += [
            (start, TokenKind.DIRECTIVE, text) for start, text in self.directives
        ]
        entries.sort()
        for start, kind, text in entries:
            yield Token(kind, text, *self.position(start))

    def __getitem__(self, index):
        return list(self)[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (TokenStream, list)):
            return list(self) == list(other)
        return NotImplemented
