"""E6 — the abstract's headline numbers, jointly.

Paper: FreeV improves VerilogEval pass@1/5/10 by +0.7/+7.9/+10.1 points
over its base, while showing a 3% violation rate (base: 2%) — the lowest
among fine-tuned models.  The reproduction asserts the joint shape: real
functional gains concentrated at higher k AND a violation rate that stays
within a few points of the base.
"""

from repro.vereval import EvalConfig
from benchmarks.conftest import write_result


def test_headline(trainer):
    def run():
        return trainer.headline(
            n_problems=20,
            eval_config=EvalConfig(
                n_samples=10,
                ks=(1, 5, 10),
                temperatures=(0.2, 0.8),
                max_new_tokens=600,
            ),
            num_prompts=100,
        )

    report = run()
    write_result("headline", report.summary())

    delta = report.passk_delta()
    # functional gains, concentrated at higher k
    assert delta[10] > 0
    assert delta[10] >= delta[1] - 0.02
    # violation rate stays near the base (paper: +1 point)
    assert (
        report.freev_violation_rate <= report.base_violation_rate + 0.05
    )
    assert report.freev_violation_rate <= 0.10
