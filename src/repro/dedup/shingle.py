"""Tokenized w-shingling of Verilog text.

Shingles are overlapping windows of ``w`` whitespace-separated tokens,
computed on comment-stripped text with any whitespace run as one
separator, so that purely cosmetic edits (reindentation, fork comments)
do not defeat duplicate detection — the same normalization VeriGen-style
dedup relies on.
"""

from __future__ import annotations

import hashlib
from typing import List, Set

import numpy as np

from repro.utils.textnorm import strip_comments

DEFAULT_SHINGLE_WIDTH = 5


def _tokens(text: str) -> List[str]:
    # split() with no separator already collapses whitespace runs and
    # trims the ends; a normalising regex pass in front of it is wasted.
    return strip_comments(text).split()


def shingles(text: str, width: int = DEFAULT_SHINGLE_WIDTH) -> Set[str]:
    """The set of w-token shingles of ``text``."""
    if width < 1:
        raise ValueError("shingle width must be >= 1")
    tokens = _tokens(text)
    if not tokens:
        return set()
    if len(tokens) <= width:
        return {" ".join(tokens)}
    return {
        " ".join(tokens[i:i + width])
        for i in range(len(tokens) - width + 1)
    }


def _stable_hash64(shingle: str) -> int:
    digest = hashlib.blake2b(shingle.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def shingle_hashes(
    text: str, width: int = DEFAULT_SHINGLE_WIDTH
) -> "np.ndarray":
    """64-bit stable hashes of the shingle set, as a sorted numpy array.

    Hashing to integers lets MinHash permutations run vectorized; sorting
    makes the representation canonical for caching and testing.
    """
    hashed = sorted(_stable_hash64(s) for s in shingles(text, width))
    return np.array(hashed, dtype=np.uint64)
