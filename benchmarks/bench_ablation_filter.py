"""A2 — ablation: FreeV trained with vs without the copyright filter.

The paper's central causal claim: removing copyright-protected files from
the fine-tuning corpus is what keeps FreeV's violation rate at its base's
level.  The ablation trains the *same* base on FreeSet curated with and
without the file-level copyright filter and compares violation rates.
"""

from repro.curation import CurationConfig, CurationPipeline
from benchmarks.conftest import write_result


def test_copyright_filter_ablation(
    trainer, freeset_result, violation_benchmark
):
    base = trainer.base_model()
    freev = trainer.train()  # with filter (the real FreeSet)

    unfiltered_config = CurationConfig(copyright_check=False)
    unfiltered = CurationPipeline(unfiltered_config).run(
        freeset_result.raw_files, name="FreeSet-no-copyright-filter"
    )
    freev_dirty = base.continual_pretrain(
        "FreeV-no-filter", unfiltered.texts(), weight=2.0,
        max_train_tokens=600_000,
    )

    rate_base = violation_benchmark.evaluate(base).violation_rate
    rate_clean = violation_benchmark.evaluate(freev).violation_rate
    rate_dirty = violation_benchmark.evaluate(freev_dirty).violation_rate

    write_result(
        "ablation_filter",
        "\n".join(
            [
                f"base (Llama-sim):          {rate_base:.2%}",
                f"FreeV (filter ON):         {rate_clean:.2%}",
                f"FreeV (filter OFF):        {rate_dirty:.2%}",
                f"filter effect:             {rate_dirty - rate_clean:+.2%}",
            ]
        ),
    )

    # the filter is what keeps violations down
    assert rate_dirty > rate_clean
    assert rate_dirty - rate_clean >= 0.05
