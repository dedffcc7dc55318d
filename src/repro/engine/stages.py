"""Concrete curation stages, registered for declarative composition.

Each stage wraps one of the existing curation/dedup components, so stage
semantics are exactly the seed pipeline's; what changes is the execution
shape (chunked streaming, one MinHash signature per distinct text,
pool-safe filters, the token-stream Verilog front end) and the per-stage
metrics.  Funnel names match the seed: ``license_filter``,
``length_cap``, ``dedup``, ``copyright_filter``, ``syntax_check``.
"""

from __future__ import annotations

import copy
from typing import Any, List, Optional, Sequence

from repro.curation.copyright_filter import CopyrightFilter
from repro.curation.license_filter import LicenseFilter
from repro.dedup.dedup import DEFAULT_DEDUP_THRESHOLD, StreamingDeduplicator
from repro.dedup.minhash import DEFAULT_NUM_PERMUTATIONS
from repro.engine.registry import register_stage
from repro.engine.stage import FilterStage, StatefulStage
from repro.verilog import check_syntax_fast
from repro.verilog.syntax import ModuleTable


def file_key(item: Any) -> Any:
    """Default dedup key: the scraped file's stable identity."""
    return item.file_id


@register_stage("license_filter")
class LicenseFilterStage(FilterStage):
    name = "license_filter"

    def __init__(
        self,
        allowed: Optional[Sequence[str]] = None,
        allow_unlicensed: bool = False,
    ) -> None:
        self._filter = LicenseFilter(
            allowed=allowed, allow_unlicensed=allow_unlicensed
        )

    def accepts(self, item: Any) -> bool:
        return self._filter.accepts(item)


@register_stage("length_cap")
class LengthCapStage(FilterStage):
    name = "length_cap"

    def __init__(self, max_chars: int = 0) -> None:
        # Any cap is legal, mirroring the seed's inline filter: zero (or
        # a negative value) simply keeps only empty (or no) files.
        self.max_chars = max_chars

    def accepts(self, item: Any) -> bool:
        return len(item.content) <= self.max_chars


@register_stage("copyright_filter")
class CopyrightFilterStage(FilterStage):
    name = "copyright_filter"

    def __init__(self, **filter_params) -> None:
        self._filter = CopyrightFilter(**filter_params)

    def accepts(self, item: Any) -> bool:
        return self._filter.is_clean(item.content)


@register_stage("syntax_check")
class SyntaxCheckStage(FilterStage):
    """Drops files the Verilog front end rejects.

    Runs :func:`repro.verilog.check_syntax_fast` — the token-stream lexer
    and the shared parser — which is verdict-identical to the reference
    :func:`repro.verilog.check_syntax` by the identity contract
    ``tests/test_fastlex.py`` enforces.

    The stage owns one module table for all the files it sees, so a
    module a file shares with an earlier one (forks and copies survive
    file-level dedup inside files that are not duplicates) is not parsed
    again.  The table is an accelerator, never an authority, like dedup's
    exact-text table: no verdict depends on it, so it is dropped from the
    stage's pickle, bounded by ``MODULE_TABLE_BOUND``, kept across
    ``reset`` and never checkpointed.
    """

    name = "syntax_check"

    def __init__(self) -> None:
        self._modules: ModuleTable = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_modules"] = {}
        return state

    def accepts(self, item: Any) -> bool:
        return check_syntax_fast(item.content, self._modules).ok


@register_stage("dedup")
class DedupStage(StatefulStage):
    """Streaming MinHash/LSH dedup, one ``offer_batch`` call per chunk.

    The stage owns a :class:`~repro.dedup.dedup.StreamingDeduplicator`
    and nothing else: the LSH index and the exact-text table in front of
    it live across chunks *and* across ingest batches, so incremental
    corpora dedup against everything already kept without re-signing
    historical files, and a text seen before is decided by one lookup.
    The whole deduplicator is the stage's checkpoint payload.
    """

    name = "dedup"

    def __init__(
        self,
        threshold: float = DEFAULT_DEDUP_THRESHOLD,
        num_permutations: int = DEFAULT_NUM_PERMUTATIONS,
        seed: int = 0x5EED,
    ) -> None:
        self.threshold = threshold
        self.num_permutations = num_permutations
        self.seed = seed
        self._dedup = self._fresh()

    def _fresh(self) -> StreamingDeduplicator:
        return StreamingDeduplicator(
            threshold=self.threshold,
            num_permutations=self.num_permutations,
            seed=self.seed,
        )

    @property
    def dedup(self) -> StreamingDeduplicator:
        return self._dedup

    def reset(self) -> None:
        self._dedup = self._fresh()

    def process(self, chunk: Sequence[Any]) -> List[Any]:
        kept = self._dedup.offer_batch(
            [(file_key(item), item.content) for item in chunk]
        )
        # kept keys come back in chunk order, so one forward walk pairs
        # each with its item
        survivors: List[Any] = []
        rest = iter(chunk)
        for key in kept:
            for item in rest:
                if file_key(item) == key:
                    survivors.append(item)
                    break
        return survivors

    def state_dict(self) -> StreamingDeduplicator:
        # A deep snapshot, not the live object: checkpoint_state() holders
        # may keep it around while ingestion continues, and a restored
        # snapshot must not alias the restoring stage either.
        return copy.deepcopy(self._dedup)

    def load_state(self, state: StreamingDeduplicator) -> None:
        self._dedup = copy.deepcopy(state)
        # Adopt the snapshot's hyperparameters so the stage never claims
        # a threshold its restored index was not built with.
        self.threshold = self._dedup.threshold
        self.num_permutations = self._dedup.hasher.num_permutations
