"""Text normalization helpers shared by curation, prompts, and similarity.

The paper's copyright benchmark strips all comments from the copyrighted
files before prompting (Sec. III-A), then keeps the first 20% of the code
capped at 64 words.  These helpers implement the stripping and the word
cap for Verilog text without requiring a full parse (the inputs may be
syntactically broken, so the stripper is a small scanner that respects
string literals).
"""

from __future__ import annotations

import re

_WS_RE = re.compile(r"\s+")

#: One left-to-right scan: string literals (kept verbatim, honouring
#: escapes, unterminated runs to end of input), line comments (removed),
#: and block comments, terminated or not (replaced by one space).  The
#: alternation order makes comment markers inside strings — and quotes
#: inside comments — inert, exactly like a character-by-character scanner.
_STRIP_RE = re.compile(
    r'"(?:\\.|[^"\\])*(?:"|\\?\Z)'
    r"|//[^\n]*"
    r"|/\*.*?\*/"
    r"|/\*.*\Z",
    re.DOTALL,
)


def _strip_repl(match: "re.Match") -> str:
    text = match.group()
    if text[0] == '"':
        return text
    if text[1] == "/":  # line comment
        return ""
    # Preserve a separator so tokens do not merge across block comments.
    return " "


def strip_comments(text: str) -> str:
    """Remove ``//`` line comments and ``/* */`` block comments.

    String literals are respected: comment markers inside double quotes are
    kept.  Unterminated block comments run to the end of input, matching
    compiler behaviour.
    """
    return _STRIP_RE.sub(_strip_repl, text)


def normalize_whitespace(text: str) -> str:
    """Collapse all whitespace runs to single spaces and trim the ends."""
    return _WS_RE.sub(" ", text).strip()


def word_count(text: str) -> int:
    """Number of whitespace-separated words."""
    return len(text.split())


def truncate_words(text: str, max_words: int) -> str:
    """Keep at most ``max_words`` whitespace-separated words."""
    if max_words <= 0:
        return ""
    words = text.split()
    if len(words) <= max_words:
        return text.strip()
    return " ".join(words[:max_words])
