"""Policy simulations of prior-work datasets and models.

Each prior work is reduced to the levers the paper itself identifies:

* **dataset policy** (Table I): license check?  file-level copyright
  check?  de-duplication?  augmented (LLM-generated description/code
  pairs)?  length caps?  These determine both the dataset columns in
  Table I and *which world files end up in the model's training data* —
  in particular whether vendored proprietary files slip in (Fig. 3).
* **training recipe** (Table II): base-model Verilog exposure, amount of
  fine-tuning data, and whether the data is *instruction-style*
  (description + module pairs, which match the VerilogEval prompt format
  and therefore lift pass@k the way instruction tuning does in the
  paper).

These are simulations of curation *policies*, not reimplementations of
the cited works; see DESIGN.md Sec. 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.basecorpus import BaseCorpusConfig, build_base_corpus
from repro.curation import CurationConfig, CuratedDataset, CurationPipeline
from repro.github.scraper import ScrapedFile
from repro.llm import LanguageModel
from repro.utils.rng import DeterministicRNG
from repro.vgen import generate as generate_module


@dataclass(frozen=True)
class DatasetPolicy:
    """One prior work's curation policy + Table I metadata."""

    name: str
    structure: str               # "Continual Pre-Training" | "Instruction-Tuning"
    augmented: bool
    open_source: bool
    license_check: bool
    copyright_check: bool
    dedup: bool = True
    max_file_chars: Optional[int] = None
    #: fraction of the (eligible) scraped files the dataset actually kept
    #: (prior datasets are much smaller than the full scrape)
    sample_fraction: float = 1.0


#: Table I rows (paper's columns: structure/augmented/open-source/license
#: check; the copyright-check column is what FreeSet uniquely adds).
DATASET_POLICIES: Dict[str, DatasetPolicy] = {
    "VeriGen": DatasetPolicy(
        name="VeriGen",
        structure="Continual Pre-Training",
        augmented=False,
        open_source=True,
        license_check=False,
        copyright_check=False,
        sample_fraction=0.40,
    ),
    "RTLCoder": DatasetPolicy(
        name="RTLCoder",
        structure="Instruction-Tuning",
        augmented=True,
        open_source=True,
        license_check=False,
        copyright_check=False,
        sample_fraction=0.14,
    ),
    "CodeV": DatasetPolicy(
        name="CodeV",
        structure="Instruction-Tuning",
        augmented=True,
        open_source=False,
        license_check=False,
        copyright_check=False,
        max_file_chars=2096,
        sample_fraction=0.8,
    ),
    "BetterV": DatasetPolicy(
        name="BetterV",
        structure="Instruction-Tuning",
        augmented=True,
        open_source=False,
        license_check=True,
        copyright_check=False,
        sample_fraction=0.5,
    ),
    "CraftRTL": DatasetPolicy(
        name="CraftRTL",
        structure="Instruction-Tuning",
        augmented=True,
        open_source=False,
        license_check=False,
        copyright_check=False,
        sample_fraction=0.4,
    ),
    "OriGen": DatasetPolicy(
        name="OriGen",
        structure="Instruction-Tuning",
        augmented=True,
        open_source=True,
        license_check=False,
        copyright_check=False,
        # OriGen's rows nearly tie FreeSet's (222,075 vs 222,624) but its
        # disk size is ~30x smaller: augmented instruction snippets are
        # short, modeled here as a tight length cap.
        max_file_chars=700,
        sample_fraction=0.9,
    ),
    "FreeSet": DatasetPolicy(
        name="FreeSet",
        structure="Continual Pre-Training",
        augmented=False,
        open_source=True,
        license_check=True,
        copyright_check=True,
        sample_fraction=1.0,
    ),
}


def simulate_prior_dataset(
    policy: DatasetPolicy,
    raw_files: Sequence[ScrapedFile],
    seed: int = 0xDA7A,
) -> CuratedDataset:
    """Run a prior work's curation policy over the same scraped world."""
    config = CurationConfig(
        license_check=policy.license_check,
        allow_unlicensed=not policy.license_check,
        dedup=policy.dedup,
        copyright_check=policy.copyright_check,
        syntax_check=True,
        max_file_chars=policy.max_file_chars,
        seed=seed,
    )
    rng = DeterministicRNG(seed).fork(policy.name)
    files = list(raw_files)
    if policy.sample_fraction < 1.0:
        keep = max(1, int(len(files) * policy.sample_fraction))
        files = rng.sample(files, keep)
    dataset = CurationPipeline(config).run(files, name=policy.name)
    dataset.structure = policy.structure
    dataset.augmented = policy.augmented
    dataset.open_source = policy.open_source
    return dataset


# ---------------------------------------------------------------------------
# Model zoo
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """Training recipe for one simulated model.

    ``base`` names another spec this model is fine-tuned from (None for
    foundation models).  ``contamination_fraction`` is the share of the
    copyrighted population present in this model's *own* training slice
    (bases: web pre-training leakage; fine-tunes: what their dataset
    policy let through) — the paper's Fig. 3 premise is exactly that
    these fractions differ across curation policies.
    """

    name: str
    base: Optional[str] = None
    #: base-corpus knobs (foundation models only)
    prose_docs: int = 100
    c_docs: int = 60
    verilog_files: int = 60
    contamination_fraction: float = 0.0
    #: fine-tuning knobs
    dataset_policy: Optional[str] = None
    instruct_pairs: int = 0        # LLM-augmented description+code pairs
    finetune_weight: float = 2.0


MODEL_SPECS: Dict[str, ModelSpec] = {
    # Foundation models (Table II upper block + Fig. 3 bases).
    "Llama-3.1-8B-Instruct": ModelSpec(
        name="Llama-3.1-8B-Instruct",
        verilog_files=8,
        contamination_fraction=0.03,
    ),
    "CodeLlama-7B": ModelSpec(
        name="CodeLlama-7B", verilog_files=12, contamination_fraction=0.05
    ),
    "CodeQwen-7B": ModelSpec(
        name="CodeQwen-7B", verilog_files=18, contamination_fraction=0.06
    ),
    "DeepSeek-Coder-6.7B": ModelSpec(
        name="DeepSeek-Coder-6.7B",
        verilog_files=25,
        contamination_fraction=0.07,
    ),
    "CodeGen-6B-multi": ModelSpec(
        name="CodeGen-6B-multi", verilog_files=15, contamination_fraction=0.12
    ),
    "StarCoder2-15B": ModelSpec(
        name="StarCoder2-15B", verilog_files=30, contamination_fraction=0.06
    ),
    "GPT-4": ModelSpec(
        name="GPT-4",
        prose_docs=200,
        c_docs=150,
        verilog_files=120,
        contamination_fraction=0.05,
        instruct_pairs=250,
    ),
    # Verilog-tuned models (Table II lower block + Fig. 3 bars).
    "VeriGen": ModelSpec(
        name="VeriGen",
        base="CodeGen-6B-multi",
        dataset_policy="VeriGen",
        contamination_fraction=0.20,
    ),
    "RTLCoder-DS": ModelSpec(
        name="RTLCoder-DS",
        base="DeepSeek-Coder-6.7B",
        dataset_policy="RTLCoder",
        instruct_pairs=420,
        contamination_fraction=0.10,
    ),
    "BetterV-CodeQwen": ModelSpec(
        name="BetterV-CodeQwen",
        base="CodeQwen-7B",
        dataset_policy="BetterV",
        instruct_pairs=520,
        contamination_fraction=0.08,
    ),
    "CodeV-DS-6.7B": ModelSpec(
        name="CodeV-DS-6.7B",
        base="DeepSeek-Coder-6.7B",
        dataset_policy="CodeV",
        instruct_pairs=700,
        contamination_fraction=0.15,
    ),
    "OriGen-DS": ModelSpec(
        name="OriGen-DS",
        base="DeepSeek-Coder-6.7B",
        dataset_policy="OriGen",
        instruct_pairs=720,
        contamination_fraction=0.09,
    ),
    "CraftRTL-StarCoder2": ModelSpec(
        name="CraftRTL-StarCoder2",
        base="StarCoder2-15B",
        dataset_policy="CraftRTL",
        instruct_pairs=1300,
        contamination_fraction=0.06,
    ),
    "OpenLLM-RTL": ModelSpec(
        name="OpenLLM-RTL",
        base="DeepSeek-Coder-6.7B",
        dataset_policy="RTLCoder",
        instruct_pairs=450,
        contamination_fraction=0.08,
    ),
    "FreeV-Llama3.1": ModelSpec(
        name="FreeV-Llama3.1",
        base="Llama-3.1-8B-Instruct",
        dataset_policy="FreeSet",
        contamination_fraction=0.0,
    ),
}


def _instruction_pairs(count: int, seed: int) -> List[str]:
    """LLM-augmented training pairs: description comment + module source.

    This is the CodeV/RTLCoder-style augmentation; the format matches the
    VerilogEval prompt layout, which is why instruction-tuned policies
    outscore continual pre-training in Table II.
    """
    rng = DeterministicRNG(seed)
    pairs: List[str] = []
    for i in range(count):
        module = generate_module(rng.fork("pair", i))
        desc_lines = []
        words = module.description.split()
        line: List[str] = []
        for word in words:
            line.append(word)
            if sum(len(w) + 1 for w in line) > 72:
                desc_lines.append("// " + " ".join(line))
                line = []
        if line:
            desc_lines.append("// " + " ".join(line))
        pairs.append("\n".join(desc_lines) + "\n" + module.source)
    return pairs


class ModelZoo:
    """Lazily builds simulated models over one shared world scrape."""

    def __init__(
        self,
        raw_files: Sequence[ScrapedFile],
        copyrighted_texts: Sequence[str],
        seed: int = 0x200,
        max_train_tokens: int = 800_000,
    ) -> None:
        self._raw = list(raw_files)
        self._copyrighted = list(copyrighted_texts)
        self._seed = seed
        self._max_tokens = max_train_tokens
        self._cache: Dict[str, LanguageModel] = {}
        self._datasets: Dict[str, CuratedDataset] = {}
        # A pool of public (non-proprietary) scraped texts for base slices.
        self._public_texts = [
            f.content for f in self._raw if f.header_kind != "proprietary"
        ]

    def dataset(self, policy_name: str) -> CuratedDataset:
        if policy_name not in self._datasets:
            self._datasets[policy_name] = simulate_prior_dataset(
                DATASET_POLICIES[policy_name], self._raw, seed=self._seed
            )
        return self._datasets[policy_name]

    def _contamination(self, fraction: float, label: str) -> List[str]:
        if fraction <= 0.0 or not self._copyrighted:
            return []
        rng = DeterministicRNG(self._seed).fork("contam", label)
        count = max(1, int(len(self._copyrighted) * fraction))
        count = min(count, len(self._copyrighted))
        return rng.sample(self._copyrighted, count)

    def model(self, name: str) -> LanguageModel:
        if name in self._cache:
            return self._cache[name]
        spec = MODEL_SPECS[name]
        if spec.base is None:
            built = self._build_foundation(spec)
        else:
            built = self._build_finetuned(spec)
        self._cache[name] = built
        return built

    def evict(self, name: str) -> None:
        """Free a cached model (benchmarks build many large models)."""
        self._cache.pop(name, None)

    def evaluate(
        self,
        names: Sequence[str],
        tasks: Sequence,
        store=None,
        tag: str = "zoo",
    ):
        """Evaluate several zoo models through one shared evalkit plan.

        The Table II / Fig. 3 sweep shape: every model in ``names`` runs
        every :class:`repro.evalkit.EvalTask` in ``tasks``, sharing the
        problem set and the copyright similarity index across models
        instead of rebuilding them per model.  Returns the
        :class:`repro.evalkit.RunResult`; per-model aggregates come back
        via ``run.result(name, task_id)``.  ``store`` makes the sweep
        resumable.
        """
        from repro.evalkit import EvalPlan

        models = [self.model(name) for name in names]
        plan = EvalPlan(models, list(tasks))
        return plan.run(store=store, tag=tag)

    def _build_foundation(self, spec: ModelSpec) -> LanguageModel:
        rng = DeterministicRNG(self._seed).fork("slice", spec.name)
        slice_count = min(spec.verilog_files, len(self._public_texts))
        verilog_slice = (
            rng.sample(self._public_texts, slice_count) if slice_count else []
        )
        corpus = build_base_corpus(
            BaseCorpusConfig(
                name=spec.name,
                prose_docs=spec.prose_docs,
                c_docs=spec.c_docs,
                verilog_files=spec.verilog_files,
                seed=DeterministicRNG(self._seed).fork("base", spec.name).seed,
            ),
            verilog_slice=verilog_slice,
            contamination_slice=self._contamination(
                spec.contamination_fraction, spec.name
            ),
        )
        if spec.instruct_pairs:
            corpus = corpus + _instruction_pairs(
                spec.instruct_pairs,
                DeterministicRNG(self._seed).fork("instr", spec.name).seed,
            )
        return LanguageModel.pretrain(
            spec.name, corpus, max_train_tokens=self._max_tokens
        )

    def _build_finetuned(self, spec: ModelSpec) -> LanguageModel:
        base = self.model(spec.base)
        corpus: List[str] = []
        if spec.dataset_policy is not None:
            corpus.extend(self.dataset(spec.dataset_policy).texts())
        if spec.instruct_pairs:
            corpus.extend(
                _instruction_pairs(
                    spec.instruct_pairs,
                    DeterministicRNG(self._seed).fork("instr", spec.name).seed,
                )
            )
        corpus.extend(
            self._contamination(spec.contamination_fraction, spec.name)
        )
        return base.continual_pretrain(
            spec.name,
            corpus,
            weight=spec.finetune_weight,
            max_train_tokens=self._max_tokens,
        )
