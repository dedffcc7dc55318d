"""Shared utilities: deterministic RNG, text normalization, statistics."""

from repro.utils.rng import DeterministicRNG, derive_seed, fork_seed
from repro.utils.textnorm import (
    normalize_whitespace,
    strip_comments,
    truncate_words,
    word_count,
)
from repro.utils.stats import Histogram, log_bins, summarize

__all__ = [
    "DeterministicRNG",
    "derive_seed",
    "fork_seed",
    "normalize_whitespace",
    "strip_comments",
    "truncate_words",
    "word_count",
    "Histogram",
    "log_bins",
    "summarize",
]
