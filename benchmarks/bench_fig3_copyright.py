"""E4 — Figure 3: hardware copyright infringement rates across LLMs.

The paper evaluates each fine-tuned model and its base model on the
100-prompt benchmark.  Shape to reproduce:

* fine-tuned models trained on unfiltered scrapes (VeriGen, CodeV)
  violate clearly more than their bases;
* FreeV has the smallest violation rate among fine-tuned models and sits
  within ~a couple points of its Llama base (paper: 2% -> 3%).
"""

from benchmarks.conftest import write_result

#: (fine-tuned, base) pairs evaluated in the paper's Fig. 3.
FIG3_PAIRS = [
    ("VeriGen", "CodeGen-6B-multi"),
    ("RTLCoder-DS", "DeepSeek-Coder-6.7B"),
    ("CodeV-DS-6.7B", "DeepSeek-Coder-6.7B"),
    ("OriGen-DS", "DeepSeek-Coder-6.7B"),
    ("FreeV-Llama3.1", "Llama-3.1-8B-Instruct"),
]


def test_fig3(model_zoo, violation_benchmark):
    rates = {}

    def rate_of(name):
        if name not in rates:
            report = violation_benchmark.evaluate(
                model_zoo.model(name), temperature=0.2
            )
            rates[name] = report.violation_rate
        return rates[name]

    lines = [f"{'model':<24}{'base':<24}{'ft_rate':>9}{'base_rate':>11}"]
    for tuned, base in FIG3_PAIRS:
        lines.append(
            f"{tuned:<24}{base:<24}{rate_of(tuned):>9.2%}{rate_of(base):>11.2%}"
        )
    write_result("fig3_copyright", "\n".join(lines))

    # Unfiltered-scrape models violate more than their bases.
    assert rate_of("VeriGen") > rate_of("CodeGen-6B-multi")
    assert rate_of("CodeV-DS-6.7B") > rate_of("DeepSeek-Coder-6.7B")
    # FreeV is the least-violating fine-tuned model ...
    finetuned = [t for t, _ in FIG3_PAIRS]
    assert rate_of("FreeV-Llama3.1") == min(rate_of(t) for t in finetuned)
    # ... and stays within a few points of its base.
    assert (
        rate_of("FreeV-Llama3.1")
        <= rate_of("Llama-3.1-8B-Instruct") + 0.05
    )
    # FreeV's rate is small in absolute terms (paper: 3%).
    assert rate_of("FreeV-Llama3.1") <= 0.10

    # free the fine-tuned models (bases stay cached for other benches)
    for tuned, _ in FIG3_PAIRS:
        model_zoo.evict(tuned)
