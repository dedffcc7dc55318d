"""FreeV: the paper's own fine-tuning run, plus the headline comparison.

``FreeVTrainer`` reproduces Sec. III-E end to end: build (or accept) a
FreeSet dataset, build the simulated Llama-3.1-8B-Instruct base, run
continual pre-training, then evaluate both models on the functional
benchmark and the copyright benchmark.  ``HeadlineReport`` carries the
numbers behind the abstract's claims (pass@5/@10 gains, 3% violation
rate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.copyright import (
    CopyrightBenchmark,
    CopyrightedCorpus,
    collect_copyrighted_corpus,
)
from repro.core.basecorpus import BaseCorpusConfig, build_base_corpus
from repro.core.freeset import FreeSetBuilder, FreeSetResult
from repro.llm import LanguageModel
from repro.utils.rng import DeterministicRNG
from repro.vereval import EvalConfig, EvalResult, build_problem_set


@dataclass
class HeadlineReport:
    """FreeV vs base: the paper's two headline claims in one object."""

    base_eval: EvalResult
    freev_eval: EvalResult
    base_violation_rate: float
    freev_violation_rate: float

    def passk_delta(self) -> Dict[int, float]:
        base = self.base_eval.best()
        tuned = self.freev_eval.best()
        # Only ks both evals report: base and tuned runs made with
        # different ``ks`` used to raise KeyError here.
        return {
            k: tuned[k] - base[k] for k in sorted(set(base) & set(tuned))
        }

    def summary(self) -> str:
        delta = self.passk_delta()
        parts = [
            self.base_eval.summary(),
            self.freev_eval.summary(),
            "delta: "
            + " ".join(
                f"pass@{k}:{d * 100:+.1f}" for k, d in sorted(delta.items())
            ),
            f"violations: base {self.base_violation_rate:.1%} "
            f"-> FreeV {self.freev_violation_rate:.1%}",
        ]
        return "\n".join(parts)


class FreeVTrainer:
    """Builds the Llama-sim base and fine-tunes FreeV on FreeSet."""

    def __init__(
        self,
        freeset: Optional[FreeSetResult] = None,
        builder: Optional[FreeSetBuilder] = None,
        base_verilog_files: int = 8,
        base_contamination_fraction: float = 0.03,
        finetune_weight: float = 2.0,
        max_train_tokens: int = 800_000,
        seed: int = 0xF5EE,
    ) -> None:
        if freeset is None:
            builder = builder or FreeSetBuilder()
            freeset = builder.build()
        self.freeset = freeset
        self.base_verilog_files = base_verilog_files
        self.base_contamination_fraction = base_contamination_fraction
        self.finetune_weight = finetune_weight
        self.max_train_tokens = max_train_tokens
        self.seed = seed
        self._base: Optional[LanguageModel] = None
        self._freev: Optional[LanguageModel] = None
        self._corpus: Optional[CopyrightedCorpus] = None

    # -- artifacts -----------------------------------------------------------

    @property
    def copyrighted_corpus(self) -> CopyrightedCorpus:
        if self._corpus is None:
            self._corpus = collect_copyrighted_corpus(self.freeset.raw_files)
        return self._corpus

    def base_model(self) -> LanguageModel:
        if self._base is None:
            rng = DeterministicRNG(self.seed)
            public = [
                f.content
                for f in self.freeset.raw_files
                if f.header_kind != "proprietary"
            ]
            slice_count = min(self.base_verilog_files, len(public))
            verilog_slice = rng.sample(public, slice_count) if slice_count else []
            contamination: List[str] = []
            texts = list(self.copyrighted_corpus.entries.values())
            if self.base_contamination_fraction > 0 and texts:
                count = max(
                    1, int(len(texts) * self.base_contamination_fraction)
                )
                contamination = rng.sample(texts, min(count, len(texts)))
            corpus = build_base_corpus(
                BaseCorpusConfig(
                    name="Llama-3.1-8B-Instruct",
                    verilog_files=self.base_verilog_files,
                    seed=rng.fork("base").seed,
                ),
                verilog_slice=verilog_slice,
                contamination_slice=contamination,
            )
            self._base = LanguageModel.pretrain(
                "Llama-3.1-8B-Instruct",
                corpus,
                max_train_tokens=self.max_train_tokens,
            )
        return self._base

    def train(self) -> LanguageModel:
        """Continual pre-training of the base on FreeSet (Sec. III-E1)."""
        if self._freev is None:
            self._freev = self.base_model().continual_pretrain(
                "FreeV-Llama3.1",
                self.freeset.dataset.texts(),
                weight=self.finetune_weight,
                max_train_tokens=self.max_train_tokens,
            )
        return self._freev

    # -- evaluation ----------------------------------------------------------

    def headline(
        self,
        n_problems: int = 40,
        eval_config: Optional[EvalConfig] = None,
        num_prompts: int = 100,
        seed: int = 0,
        store=None,
        checkpoint_tag: str = "headline",
    ) -> HeadlineReport:
        """Run the joint evaluation behind the paper's abstract.

        One :class:`repro.evalkit.EvalPlan` covers both models and both
        benchmarks, so the problem set and the copyright similarity index
        are built once and shared; numbers are identical to evaluating
        each (model, benchmark) pair serially.  ``store`` makes the sweep
        resumable under ``checkpoint_tag``.
        """
        from repro.evalkit import CopyrightTask, EvalPlan, PassAtKTask

        problems = build_problem_set(n_problems=n_problems)
        config = eval_config or EvalConfig()
        base = self.base_model()
        freev = self.train()
        benchmark = CopyrightBenchmark(
            self.copyrighted_corpus, num_prompts=num_prompts
        )
        passk = PassAtKTask(problems, config)
        copyright_task = CopyrightTask(benchmark, seed=seed)
        plan = EvalPlan([base, freev], [passk, copyright_task])
        run = plan.run(store=store, tag=checkpoint_tag)
        return HeadlineReport(
            base_eval=run.result(base.name, passk.task_id),
            freev_eval=run.result(freev.name, passk.task_id),
            base_violation_rate=run.result(
                base.name, copyright_task.task_id
            ).violation_rate,
            freev_violation_rate=run.result(
                freev.name, copyright_task.task_id
            ).violation_rate,
        )
