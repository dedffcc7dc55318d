"""End-to-end streaming de-duplication.

Files are processed in order; each file's MinHash signature is queried
against an LSH index of the already-kept files, and the file is discarded
when any candidate's estimated Jaccard similarity reaches the threshold
(paper: 0.85).  Processing in corpus order keeps the *first* publication
of each duplicate cluster, matching the intuition that the original is
the canonical copy.

Two paths make the same decisions.  The per-file path
(:meth:`StreamingDeduplicator.offer`, :func:`deduplicate`) signs every
file and is the oracle.  The batched path
(:meth:`StreamingDeduplicator.offer_batch`, which the engine's
``DedupStage`` runs) signs each *distinct* normalised text once: most
duplicates in a scraped corpus are exact copies under a different
licence header — a comment, which shingling strips — so an exact-text
table in front of MinHash/LSH decides them with one dict lookup.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Sequence, Tuple

from repro import obs
from repro.dedup.lsh import LSHIndex, choose_bands
from repro.dedup.minhash import (
    DEFAULT_NUM_PERMUTATIONS,
    MinHasher,
    estimate_jaccard,
)
from repro.dedup.shingle import hashes_of_tokens, shingle_tokens

DEFAULT_DEDUP_THRESHOLD = 0.85


@dataclass
class DedupResult:
    """Outcome of a de-duplication run."""

    kept_keys: List[Hashable] = field(default_factory=list)
    #: discarded key -> the kept key it duplicated
    removed: Dict[Hashable, Hashable] = field(default_factory=dict)
    threshold: float = DEFAULT_DEDUP_THRESHOLD
    #: LSH candidate comparisons made.  Lower on the batched path, where
    #: exact-text hits make none; nothing under ``src/``, ``tests/`` or
    #: ``benchmarks/perf/`` reads it.
    candidate_checks: int = 0

    @property
    def kept_count(self) -> int:
        return len(self.kept_keys)

    @property
    def removed_count(self) -> int:
        return len(self.removed)

    @property
    def removal_fraction(self) -> float:
        total = self.kept_count + self.removed_count
        return self.removed_count / total if total else 0.0


class StreamingDeduplicator:
    """Order-preserving streaming dedup with externally ownable state.

    Files are offered one (or a batch) at a time; the LSH index of kept
    files persists between offers, so a caller can feed incremental
    batches across a long-lived run — or pickle the whole object as a
    checkpoint — without ever re-deduplicating already-processed files.
    Candidates are scanned in index insertion order, so the
    ``removed -> kept`` attribution is stable across ``PYTHONHASHSEED``.
    """

    def __init__(
        self,
        threshold: float = DEFAULT_DEDUP_THRESHOLD,
        num_permutations: int = DEFAULT_NUM_PERMUTATIONS,
        seed: int = 0x5EED,
    ) -> None:
        self.threshold = threshold
        self.hasher = MinHasher(num_permutations=num_permutations, seed=seed)
        bands, rows = choose_bands(num_permutations, threshold)
        self.index = LSHIndex(bands, rows)
        self.result = DedupResult(threshold=threshold)
        #: digest of a normalised text -> the kept key that text resolves
        #: to (see :meth:`offer_batch`); one entry per distinct text
        self.exact: Dict[bytes, Hashable] = {}

    def __setstate__(self, state: dict) -> None:
        # a snapshot pickled before the table existed restores with an
        # empty one, which changes no decision (see offer_batch)
        self.__dict__.update(state)
        self.__dict__.setdefault("exact", {})

    def offer_signature(self, key: Hashable, signature) -> bool:
        """Keep ``key`` unless ``signature`` duplicates a kept file.

        Returns True when the file was kept (and indexed).
        """
        match = None
        for candidate in self.index.candidates_in_order(signature):
            self.result.candidate_checks += 1
            if (
                estimate_jaccard(signature, self.index.signature_of(candidate))
                >= self.threshold
            ):
                match = candidate
                break
        if match is None:
            self.index.insert(key, signature)
            self.result.kept_keys.append(key)
            return True
        self.result.removed[key] = match
        return False

    def offer(self, key: Hashable, text: str) -> bool:
        """Signature-and-offer one ``(key, text)`` pair."""
        return self.offer_signature(key, self.hasher.signature(text))

    def offer_batch(
        self, items: Sequence[Tuple[Hashable, str]]
    ) -> List[Hashable]:
        """Offer many pairs, signing each distinct text once; returns kept keys.

        Decides exactly what calling :meth:`offer` in sequence decides
        (``kept_keys`` and the ``removed -> kept`` map), with less work:
        each text is tokenised once and keyed by a 16-byte ``blake2b`` of
        its space-joined tokens; ``self.exact`` maps that digest to the
        kept key the text *resolves to*.  A hit is ``removed[key] =
        exact[digest]`` — no shingling, no permutations, no band lookups.
        A miss is shingled from the tokens in hand, signed with the
        batch's other misses in one ``signatures_of_hashes`` call, goes
        through :meth:`offer_signature` unchanged, and records what it
        resolved to.

        Why a hit's decision is the one LSH would have made.  Let F have
        the token sequence — hence the shingle set and signature S — of
        an earlier file E.  Candidates are scanned in insertion order,
        the first whose estimated Jaccard reaches the threshold wins, the
        index only grows, and the threshold is below 1.

        * E was kept: every candidate inserted before E failed against S
          (that is why E was kept), and E itself shares every band with
          S and scores 1.0.  F matches E.
        * E was removed with match K: every candidate inserted before K
          failed against S, K passed, and nothing is ever inserted
          *before* K.  F matches K.

        By induction over arrival order ``exact[digest]`` is always that
        key; files in one batch are decided in order, so a second copy
        in the same batch hits the entry the first just wrote.

        The table is an accelerator, never an authority: dropping any of
        its entries changes no decision, because a miss takes the MinHash
        path to the same answer.  So it may start empty over a non-empty
        index (a snapshot from before it existed), and :meth:`offer`,
        which neither reads nor writes it, may be mixed in freely.
        """
        with obs.span("dedup.offer_batch", items=len(items)):
            exact = self.exact
            width = self.hasher.shingle_width
            digests: List[bytes] = []
            #: digest of each text this batch must sign -> its signature slot
            unsigned: Dict[bytes, int] = {}
            hash_arrays = []
            for _, text in items:
                tokens = shingle_tokens(text)
                digest = hashlib.blake2b(
                    " ".join(tokens).encode("utf-8", "surrogatepass"),
                    digest_size=16,
                ).digest()
                digests.append(digest)
                if digest not in exact and digest not in unsigned:
                    unsigned[digest] = len(hash_arrays)
                    hash_arrays.append(hashes_of_tokens(tokens, width))
            signatures = self.hasher.signatures_of_hashes(hash_arrays)
            kept: List[Hashable] = []
            removed = self.result.removed
            for (key, _), digest in zip(items, digests):
                if digest in exact:
                    removed[key] = exact[digest]
                elif self.offer_signature(key, signatures[unsigned[digest]]):
                    kept.append(key)
                    exact[digest] = key
                else:
                    exact[digest] = removed[key]
            obs.count("dedup.exact_hits", len(items) - len(hash_arrays))
            obs.count("dedup.signed", len(hash_arrays))
            return kept


def deduplicate(
    items: Sequence[Tuple[Hashable, str]],
    threshold: float = DEFAULT_DEDUP_THRESHOLD,
    num_permutations: int = DEFAULT_NUM_PERMUTATIONS,
    seed: int = 0x5EED,
) -> DedupResult:
    """De-duplicate ``(key, text)`` pairs, keeping first occurrences.

    Returns which keys were kept and, for each removed key, the retained
    key it matched.
    """
    dedup = StreamingDeduplicator(
        threshold=threshold, num_permutations=num_permutations, seed=seed
    )
    for key, text in items:
        dedup.offer(key, text)
    return dedup.result
