"""Incremental curation: grow a curated corpus batch by batch.

A full recuration recomputes signatures and re-parses every historical
file just to admit a few new ones.  :class:`IncrementalCurator` keeps the
engine graph — most importantly the dedup stage's LSH index — alive
between batches, so each :meth:`ingest` costs only the new batch: new
files are filtered, signed, deduplicated *against everything already
kept*, and appended.  The whole curator state checkpoints to a
:class:`repro.engine.CheckpointStore`, so ingestion can resume in a later
process.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.curation.pipeline import (
    CuratedDataset,
    CurationConfig,
    CurationPipeline,
)
from repro.curation.report import FunnelReport, funnel_from_graph
from repro.github.scraper import ScrapedFile


class IncrementalCurator:
    """Stateful curation front end over the execution engine."""

    def __init__(
        self,
        config: Optional[CurationConfig] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        self.pipeline = CurationPipeline(config, chunk_size=chunk_size)
        self.graph = self.pipeline.compile()
        self.kept_files: List[ScrapedFile] = []
        self.batches_ingested = 0

    @property
    def config(self) -> CurationConfig:
        return self.pipeline.config

    def ingest(self, files: Iterable[ScrapedFile]) -> List[ScrapedFile]:
        """Curate one additional batch; returns the batch's survivors.

        Ingesting batches B1..Bn yields exactly the files one full run
        over B1+...+Bn would keep (first occurrence wins in dedup), while
        doing per-batch work only.
        """
        survivors = self.graph.ingest(files)
        self.kept_files.extend(survivors)
        self.batches_ingested += 1
        return survivors

    @property
    def funnel(self) -> FunnelReport:
        """Cumulative funnel over every batch ingested so far."""
        return funnel_from_graph(self.graph)

    def dataset(self, name: str = "FreeSet") -> CuratedDataset:
        """Snapshot the cumulative result as a :class:`CuratedDataset`."""
        return CuratedDataset(
            name=name,
            files=list(self.kept_files),
            funnel=self.funnel,
            license_check=self.config.license_check,
            copyright_check=self.config.copyright_check,
        )

    # -- persistence ------------------------------------------------------

    def save(self, store, tag: str = "curator") -> None:
        """Checkpoint graph state plus the kept-file accumulator.

        Everything goes into one store key so the snapshot is atomic: a
        crash mid-save leaves the previous snapshot intact rather than a
        torn graph/files pair.
        """
        store.save(
            tag,
            {
                "graph": self.graph.checkpoint_state(),
                "kept_files": self.kept_files,
                "batches_ingested": self.batches_ingested,
            },
        )

    def load(self, store, tag: str = "curator") -> bool:
        """Restore a snapshot; returns False when none exists."""
        state = store.load(tag)
        if state is None:
            return False
        self.graph.restore_state(state["graph"])
        self.kept_files = list(state["kept_files"])
        self.batches_ingested = state["batches_ingested"]
        return True
