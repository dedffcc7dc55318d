"""Byte-fallback BPE tokenizer.

Text is pre-tokenized into words (identifiers, numbers, punctuation runs,
whitespace runs), each word is mapped to its UTF-8 bytes, and learned BPE
merges combine frequent adjacent byte pairs *within* words.  The base
vocabulary is all 256 byte values, so any input encodes without unknown
tokens — important because prompts at inference time contain identifiers
never seen in training.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import TrainingError

_PRETOKEN_RE = re.compile(
    r"[A-Za-z_$][A-Za-z0-9_$]*"   # identifiers / keywords
    r"|\d+"                        # number runs
    r"|[ ]+|\t+|\n+"               # whitespace runs (kept, code is spatial)
    r"|\s"                         # rare whitespace (\r, \f, ...) singly
    r"|[^\sA-Za-z0-9_$]"           # single punctuation
)

Pair = Tuple[int, int]


def pretokenize(text: str) -> List[str]:
    """Split text into the word units BPE merges operate within."""
    return _PRETOKEN_RE.findall(text)


class BPETokenizer:
    """Encoder/decoder over a fixed merge list.

    Token ids 0..255 are raw bytes; id 256+i is the result of merge i.
    """

    def __init__(self, merges: Sequence[Pair]) -> None:
        self.merges: List[Pair] = list(merges)
        #: pair -> merged token id, in priority order
        self._ranks: Dict[Pair, int] = {
            pair: 256 + i for i, pair in enumerate(self.merges)
        }
        #: token id -> bytes
        self._decode_table: List[bytes] = [bytes([i]) for i in range(256)]
        for left, right in self.merges:
            self._decode_table.append(
                self._decode_table[left] + self._decode_table[right]
            )
        self._word_cache: Dict[str, Tuple[int, ...]] = {}

    @property
    def vocab_size(self) -> int:
        return 256 + len(self.merges)

    def _encode_word(self, word: str) -> Tuple[int, ...]:
        cached = self._word_cache.get(word)
        if cached is not None:
            return cached
        symbols: List[int] = list(word.encode("utf-8"))
        while len(symbols) > 1:
            # Find the lowest-rank (earliest-learned) applicable merge.
            best_rank = None
            best_index = -1
            for i in range(len(symbols) - 1):
                rank = self._ranks.get((symbols[i], symbols[i + 1]))
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank = rank
                    best_index = i
            if best_rank is None:
                break
            symbols[best_index:best_index + 2] = [best_rank]
        result = tuple(symbols)
        if len(self._word_cache) < 1 << 18:
            self._word_cache[word] = result
        return result

    def encode(self, text: str) -> List[int]:
        out: List[int] = []
        for word in pretokenize(text):
            out.extend(self._encode_word(word))
        return out

    def token_bytes(self, token: int) -> bytes:
        """The UTF-8 bytes of one token.  A character can span several
        tokens, so join the bytes of a sequence before decoding them."""
        return self._decode_table[token]

    def decode(self, ids: Iterable[int]) -> str:
        data = b"".join(self._decode_table[i] for i in ids)
        return data.decode("utf-8", errors="replace")


def train_tokenizer(
    texts: Sequence[str],
    num_merges: int = 512,
    max_chars: int = 2_000_000,
) -> BPETokenizer:
    """Learn BPE merges from sample texts.

    Uses the classic word-frequency formulation with incremental pair-count
    maintenance, so training is proportional to (unique words x merges
    actually touching them), not corpus size.
    """
    if num_merges < 0:
        raise TrainingError("num_merges must be non-negative")
    # Count unique words over a bounded sample.
    word_freq: Dict[str, int] = {}
    budget = max_chars
    for text in texts:
        if budget <= 0:
            break
        sample = text[:budget]
        budget -= len(sample)
        for word in pretokenize(sample):
            word_freq[word] = word_freq.get(word, 0) + 1

    words: List[List[int]] = []
    freqs: List[int] = []
    for word, freq in word_freq.items():
        words.append(list(word.encode("utf-8")))
        freqs.append(freq)

    # pair -> total count; pair -> set of word indices containing it
    pair_counts: Dict[Pair, int] = {}
    pair_words: Dict[Pair, set] = {}

    def add_word_pairs(index: int, sign: int) -> None:
        symbols = words[index]
        freq = freqs[index] * sign
        for a, b in zip(symbols, symbols[1:]):
            pair = (a, b)
            pair_counts[pair] = pair_counts.get(pair, 0) + freq
            if sign > 0:
                pair_words.setdefault(pair, set()).add(index)

    for index in range(len(words)):
        add_word_pairs(index, +1)

    merges: List[Pair] = []
    for _ in range(num_merges):
        live = {p: c for p, c in pair_counts.items() if c > 0}
        if not live:
            break
        best = max(live.items(), key=lambda kv: (kv[1], kv[0]))[0]
        if live[best] < 2:
            break
        new_id = 256 + len(merges)
        merges.append(best)
        affected = list(pair_words.get(best, ()))
        for index in affected:
            symbols = words[index]
            if len(symbols) < 2:
                continue
            add_word_pairs(index, -1)
            merged: List[int] = []
            i = 0
            while i < len(symbols):
                if (
                    i + 1 < len(symbols)
                    and symbols[i] == best[0]
                    and symbols[i + 1] == best[1]
                ):
                    merged.append(new_id)
                    i += 2
                else:
                    merged.append(symbols[i])
                    i += 1
            words[index] = merged
            add_word_pairs(index, +1)
    return BPETokenizer(merges)
