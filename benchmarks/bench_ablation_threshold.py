"""A3 — ablation: violation-rate sensitivity.

Sweeps the two knobs the paper fixes by fiat: the cosine-similarity
violation threshold (0.8) and the prompt prefix fraction (20%).  The
discussion section calls out both as candidates for future robustness
work; the sweep quantifies how the measured rate depends on them for a
contaminated reference model.
"""

from repro.copyright import CopyrightBenchmark, PromptSpec
from benchmarks.conftest import write_result

THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
FRACTIONS = (0.1, 0.2, 0.3, 0.4)


def test_threshold_and_prefix_sweep(model_zoo, copyrighted_corpus):
    # VeriGen is the paper's most-contaminated model: a good probe.
    model = model_zoo.model("VeriGen")

    base_bench = CopyrightBenchmark(copyrighted_corpus, num_prompts=60)
    report = base_bench.evaluate(model, temperature=0.2)
    scores = [r.similarity for r in report.results]

    lines = [f"{'threshold':>10}{'violation_rate':>16}"]
    rates = {}
    for threshold in THRESHOLDS:
        rate = sum(s >= threshold for s in scores) / len(scores)
        rates[threshold] = rate
        lines.append(f"{threshold:>10.2f}{rate:>16.2%}")

    lines.append("")
    lines.append(f"{'prefix_frac':>12}{'violation_rate':>16}")
    frac_rates = {}
    for fraction in FRACTIONS:
        bench = CopyrightBenchmark(
            copyrighted_corpus,
            num_prompts=60,
            prompt_spec=PromptSpec(prefix_fraction=fraction),
        )
        frac_rates[fraction] = bench.evaluate(
            model, temperature=0.2
        ).violation_rate
        lines.append(f"{fraction:>12.2f}{frac_rates[fraction]:>16.2%}")
    write_result("ablation_threshold", "\n".join(lines))

    # threshold sweep is monotone non-increasing by construction
    ordered = [rates[t] for t in THRESHOLDS]
    assert ordered == sorted(ordered, reverse=True)
    # at the paper's settings the contaminated model violates measurably
    assert rates[0.8] > 0.0

    model_zoo.evict("VeriGen")
