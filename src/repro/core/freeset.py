"""FreeSet: world -> granularized scrape -> curation pipeline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.curation import CurationConfig, CuratedDataset, CurationPipeline
from repro.github import (
    GitHubScraper,
    GitHubWorld,
    ScrapedFile,
    SimulatedGitHubAPI,
    WorldConfig,
    generate_world,
)
from repro.github.scraper import ScrapeReport


@dataclass
class FreeSetResult:
    """Everything the FreeSet build produces."""

    dataset: CuratedDataset
    scrape_report: ScrapeReport
    #: all scraped files (pre-curation), for prior-work simulations and
    #: the copyright benchmark corpus
    raw_files: List[ScrapedFile]


class FreeSetBuilder:
    """Builds FreeSet from a synthetic world (creating one if needed).

    The scraper is run *with unlicensed repositories included* so that the
    explicit license-filter stage shows up in the funnel exactly as in the
    paper (1.3M extracted -> 608k licensed); the search-level license
    facets remain what granularizes the queries.
    """

    def __init__(
        self,
        world: Optional[GitHubWorld] = None,
        world_config: Optional[WorldConfig] = None,
        curation_config: Optional[CurationConfig] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        self.world = world if world is not None else generate_world(world_config)
        self.curation_config = curation_config or CurationConfig()
        self.chunk_size = chunk_size

    def scrape(self) -> tuple:
        api = SimulatedGitHubAPI(self.world)
        scraper = GitHubScraper(api, include_unlicensed=True)
        files = scraper.scrape()
        return files, scraper.report

    def build(self, name: str = "FreeSet") -> FreeSetResult:
        files, report = self.scrape()
        pipeline = CurationPipeline(
            self.curation_config, chunk_size=self.chunk_size
        )
        dataset = pipeline.run(files, name=name)
        return FreeSetResult(
            dataset=dataset, scrape_report=report, raw_files=files
        )

    def incremental_curator(self):
        """An :class:`repro.curation.IncrementalCurator` with this
        builder's curation policy, for batch-by-batch corpus growth."""
        from repro.curation.incremental import IncrementalCurator

        return IncrementalCurator(
            self.curation_config, chunk_size=self.chunk_size
        )
