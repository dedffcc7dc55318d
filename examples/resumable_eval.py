#!/usr/bin/env python
"""Multi-model evaluation as one resumable evalkit plan.

Both of the paper's benchmarks (pass@k functional correctness and the
copyright violation rate) for both models (base and FreeV) run as a
single :class:`repro.evalkit.EvalPlan`: the problem set and the
similarity index are built once and shared across models, sample-level
work units stream through the engine in one process, and the whole
sweep checkpoints — kill the script mid-run and start it again: it
resumes where it stopped and finishes with the identical result.
"""

import pathlib
import tempfile

from repro import WorldConfig
from repro.copyright import CopyrightBenchmark
from repro.core.freeset import FreeSetBuilder
from repro.core.freev import FreeVTrainer
from repro.engine import CheckpointStore
from repro.evalkit import CopyrightTask, EvalPlan, PassAtKTask
from repro.vereval import EvalConfig, build_problem_set

CHECKPOINT_DIR = pathlib.Path(tempfile.gettempdir()) / "repro-resumable-eval"


def main() -> None:
    freeset = FreeSetBuilder(
        world_config=WorldConfig(n_repos=150, seed=3, mega_file_modules=20)
    ).build()
    trainer = FreeVTrainer(freeset=freeset)
    base = trainer.base_model()
    freev = trainer.train()

    # Shared once across both models: the held-out problems and the
    # copyrighted-corpus similarity index.
    problems = build_problem_set(n_problems=12)
    benchmark = CopyrightBenchmark(trainer.copyrighted_corpus, num_prompts=40)

    plan = EvalPlan(
        models=[base, freev],
        tasks=[
            PassAtKTask(
                problems,
                EvalConfig(n_samples=10, ks=(1, 5, 10),
                           temperatures=(0.2, 0.8), max_new_tokens=500),
            ),
            CopyrightTask(benchmark, temperature=0.2),
        ],
    )

    store = CheckpointStore(CHECKPOINT_DIR)
    print(f"{plan.total_specs()} samples; checkpoints in {CHECKPOINT_DIR}")
    print("(kill and re-run this script: it resumes from the checkpoint)")
    run = plan.run(store=store, tag="example")

    for model in (base, freev):
        print()
        print(run.result(model.name, "passk").summary())
        print(run.result(model.name, "copyright").summary())

    report = run.to_json(include_text=False)
    out_path = CHECKPOINT_DIR / "run_result.json"
    out_path.write_text(report)
    print(f"\nper-sample provenance written to {out_path}")
    print("\nengine stage throughput:")
    print(run.engine_report)


if __name__ == "__main__":
    main()
