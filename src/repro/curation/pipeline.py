"""The end-to-end curation pipeline producing a curated dataset.

Since the engine refactor, :class:`CurationPipeline` is a thin facade: it
*compiles* a :class:`CurationConfig` into a declarative stage-spec list,
builds a :class:`repro.engine.StageGraph` through the stage registry, and
derives the paper's :class:`FunnelReport` from the engine's per-stage
metrics.  Output (kept files and funnel counts) is identical to the
seed's serial loop; execution is chunked, streamable, and optionally
parallel.

Example (runnable; the same block in ``docs/architecture.md`` is
executed by ``tools/check_docs.py``)::

    from repro.curation import CurationConfig, CurationPipeline
    from repro.github import (
        GitHubScraper, SimulatedGitHubAPI, WorldConfig, generate_world,
    )

    api = SimulatedGitHubAPI(generate_world(WorldConfig(n_repos=30)))
    dataset = CurationPipeline(CurationConfig()).run(
        GitHubScraper(api).scrape()
    )
    print(dataset.funnel.to_text())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Optional, Tuple

from repro import obs
from repro.curation.report import FunnelReport, funnel_from_graph
from repro.dedup.dedup import DEFAULT_DEDUP_THRESHOLD
from repro.github.scraper import ScrapedFile


@dataclass
class CurationConfig:
    """Which stages run and with what parameters.

    The defaults are the FreeSet policy; prior-work dataset policies are
    expressed by switching stages off (see
    :mod:`repro.core.comparison`).
    """

    license_check: bool = True
    allow_unlicensed: bool = False
    dedup: bool = True
    dedup_threshold: float = DEFAULT_DEDUP_THRESHOLD
    copyright_check: bool = True
    syntax_check: bool = True
    #: drop files longer than this many characters (CodeV-style policies
    #: use a small cap; FreeSet keeps everything -> None)
    max_file_chars: Optional[int] = None
    seed: int = 0x5EED

    def stage_specs(self) -> List[Tuple[str, Mapping]]:
        """The declarative stage list this config compiles to."""
        specs: List[Tuple[str, Mapping]] = []
        if self.license_check:
            specs.append(
                ("license_filter", {"allow_unlicensed": self.allow_unlicensed})
            )
        if self.max_file_chars is not None:
            specs.append(("length_cap", {"max_chars": self.max_file_chars}))
        if self.dedup:
            specs.append(
                ("dedup", {"threshold": self.dedup_threshold, "seed": self.seed})
            )
        if self.copyright_check:
            specs.append(("copyright_filter", {}))
        if self.syntax_check:
            specs.append(("syntax_check", {}))
        return specs


@dataclass
class CuratedDataset:
    """The pipeline output plus the metadata Table I reports."""

    name: str
    files: List[ScrapedFile] = field(default_factory=list)
    funnel: FunnelReport = field(default_factory=FunnelReport)
    structure: str = "Continual Pre-Training"
    augmented: bool = False
    open_source: bool = True
    license_check: bool = True
    copyright_check: bool = True
    #: lazily computed by :attr:`size_bytes`; Table I benchmarks read the
    #: size per row, so re-encoding the corpus on every access is O(n^2)
    _size_bytes: Optional[int] = field(
        default=None, repr=False, compare=False
    )

    @property
    def rows(self) -> int:
        return len(self.files)

    @property
    def size_bytes(self) -> int:
        if self._size_bytes is None:
            self._size_bytes = sum(
                len(f.content.encode("utf-8", "surrogatepass"))
                for f in self.files
            )
        return self._size_bytes

    def texts(self) -> List[str]:
        return [f.content for f in self.files]

    def char_lengths(self) -> List[int]:
        return [len(f.content) for f in self.files]


class CurationPipeline:
    """Runs the staged curation over scraped files with funnel accounting.

    ``chunk_size`` and ``executor`` tune the underlying engine run;
    the defaults stream serially in chunks and match the seed pipeline's
    output exactly.  ``executor`` may be an instance or a spec string
    (``"serial"``, ``"pool"``, ``"auto"``) resolved via
    :func:`repro.engine.make_executor`; a string-built executor is owned
    by :meth:`run` and closed when the run finishes.
    """

    def __init__(
        self,
        config: Optional[CurationConfig] = None,
        chunk_size: Optional[int] = None,
        executor=None,
    ) -> None:
        self.config = config or CurationConfig()
        self.chunk_size = chunk_size
        self.executor = executor

    def compile(self, executor=None):
        """Build the engine :class:`StageGraph` for this configuration."""
        # Imported lazily: repro.engine's stages import curation filters,
        # so a top-level import here would be circular.
        from repro.engine import (
            DEFAULT_CHUNK_SIZE,
            StageGraph,
            build_stages,
            make_executor,
        )

        chunk_size = (
            self.chunk_size if self.chunk_size is not None else DEFAULT_CHUNK_SIZE
        )
        spec = executor if executor is not None else self.executor
        resolved = make_executor(spec) if isinstance(spec, str) else spec
        return StageGraph(
            build_stages(self.config.stage_specs()),
            chunk_size=chunk_size,
            executor=resolved,
        )

    def run(
        self, files: Iterable[ScrapedFile], name: str = "FreeSet"
    ) -> CuratedDataset:
        graph = self.compile()
        try:
            with obs.run_capture("curation", dataset=name):
                current = graph.run(files)
                # Funnel counters mirror the FunnelReport rows so a traced
                # curation shows up in the same registry as eval runs.
                obs.count("curation.files_in", graph.items_in)
                obs.count("curation.files_kept", len(current))
                for stat in graph.stage_stats():
                    obs.count(f"curation.{stat.stage}.removed", stat.removed)
        finally:
            if isinstance(self.executor, str):
                # compile() built this run's executor from the spec
                # string; nobody else holds it, so release it here.
                graph.executor.close()
        return CuratedDataset(
            name=name,
            files=current,
            funnel=funnel_from_graph(graph),
            license_check=self.config.license_check,
            copyright_check=self.config.copyright_check,
        )
