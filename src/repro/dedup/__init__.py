"""MinHash/LSH de-duplication (Sec. III-D2 of the paper).

The paper follows VeriGen's recipe: files are represented by MinHash
signatures, banded Locality-Sensitive Hashing buckets likely-similar
pairs, and candidates whose (estimated) Jaccard similarity exceeds 0.85
are treated as duplicates, keeping one representative per cluster.

:func:`deduplicate` signs every file and is the reference;
:meth:`StreamingDeduplicator.offer_batch`, which the curation engine
runs, makes the same decisions while signing each distinct
comment-stripped text once (``docs/architecture.md`` §8).
"""

from repro.dedup.shingle import shingles, shingle_hashes
from repro.dedup.jaccard import jaccard_similarity
from repro.dedup.minhash import MinHasher, MinHashSignature, estimate_jaccard
from repro.dedup.lsh import LSHIndex, choose_bands
from repro.dedup.dedup import DedupResult, StreamingDeduplicator, deduplicate

__all__ = [
    "StreamingDeduplicator",
    "shingles",
    "shingle_hashes",
    "jaccard_similarity",
    "MinHasher",
    "MinHashSignature",
    "estimate_jaccard",
    "LSHIndex",
    "choose_bands",
    "DedupResult",
    "deduplicate",
]
