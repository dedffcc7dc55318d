"""Tokenized w-shingling of Verilog text.

Shingles are overlapping windows of ``w`` whitespace-separated tokens,
computed on comment-stripped text with any whitespace run as one
separator, so that purely cosmetic edits (reindentation, fork comments)
do not defeat duplicate detection — the same normalization VeriGen-style
dedup relies on.

Two forms of one definition live here.  :func:`shingles` +
:func:`_stable_hash64` *define* a document's shingle hashes (a set of
strings, one ``blake2b`` each, read big-endian); :func:`hashes_of_tokens`
is what runs: it builds the same sorted ``uint64`` array in one pass —
raw digests joined into one buffer, read with ``np.frombuffer`` and
sorted in place — instead of through a sorted list of Python ints, and
it starts from a token list so a caller that already split the text
(:meth:`repro.dedup.dedup.StreamingDeduplicator.offer_batch`) does not
split it again.  ``tests/test_dedup.py`` holds the two equal in values,
order and dtype.
"""

from __future__ import annotations

import hashlib
from itertools import islice
from typing import List, Sequence, Set

import numpy as np

from repro.utils.textnorm import strip_comments

DEFAULT_SHINGLE_WIDTH = 5


def shingle_tokens(text: str) -> List[str]:
    """The token sequence shingles are cut from."""
    # split() with no separator already collapses whitespace runs and
    # trims the ends; a normalising regex pass in front of it is wasted.
    return strip_comments(text).split()


def shingles(text: str, width: int = DEFAULT_SHINGLE_WIDTH) -> Set[str]:
    """The set of w-token shingles of ``text``."""
    if width < 1:
        raise ValueError("shingle width must be >= 1")
    tokens = shingle_tokens(text)
    if not tokens:
        return set()
    if len(tokens) <= width:
        return {" ".join(tokens)}
    return {
        " ".join(tokens[i:i + width])
        for i in range(len(tokens) - width + 1)
    }


def _stable_hash64(shingle: str) -> int:
    # surrogatepass: a scraped file may carry a lone surrogate (a JSON
    # "\ud800" escape); it must hash, not abort the curation run
    digest = hashlib.blake2b(
        shingle.encode("utf-8", "surrogatepass"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def hashes_of_tokens(
    tokens: Sequence[str], width: int = DEFAULT_SHINGLE_WIDTH
) -> "np.ndarray":
    """:func:`shingle_hashes` of a text already split by :func:`shingle_tokens`."""
    if width < 1:
        raise ValueError("shingle width must be >= 1")
    if not tokens:
        return np.empty(0, dtype=np.uint64)
    if len(tokens) <= width:
        windows = {" ".join(tokens)}
    else:
        # zip over islice walks `width` cursors down the one list; slicing
        # would copy the token list (477 kB of text in the bench world's
        # largest file) `width` times over.
        windows = set(
            map(" ".join, zip(*(islice(tokens, i, None) for i in range(width))))
        )
    blake2b = hashlib.blake2b
    digests = b"".join(
        [
            blake2b(s.encode("utf-8", "surrogatepass"), digest_size=8).digest()
            for s in windows
        ]
    )
    hashed = np.frombuffer(digests, dtype=">u8").astype(np.uint64)
    hashed.sort()
    return hashed


def shingle_hashes(
    text: str, width: int = DEFAULT_SHINGLE_WIDTH
) -> "np.ndarray":
    """64-bit stable hashes of the shingle set, as a sorted numpy array.

    Hashing to integers lets MinHash permutations run vectorized; sorting
    makes the representation canonical for caching and testing.
    """
    return hashes_of_tokens(shingle_tokens(text), width)
