"""E2 — Table II: functional Verilog generation (mini-VerilogEval pass@k).

Regenerates the table's two blocks: foundation models and Verilog-tuned
models.  Shape to reproduce (the paper's orderings, not its absolute
numbers — our substrate is a scaled simulation):

* every Verilog-tuned model beats its own base model;
* instruction-tuned policies (CraftRTL, CodeV, OriGen) sit at the top,
  continual-pre-training-only models (VeriGen, FreeV) below them;
* FreeV improves on Llama-3.1 with the gain concentrated at pass@5/10
  (paper: +0.7 / +7.9 / +10.1).
"""

from repro.vereval import EvalConfig, evaluate_model
from benchmarks.conftest import write_result

FOUNDATION = [
    "GPT-4",
    "CodeLlama-7B",
    "DeepSeek-Coder-6.7B",
    "CodeQwen-7B",
    "Llama-3.1-8B-Instruct",
]
TUNED = [
    ("VeriGen", "CodeGen-6B-multi"),
    ("RTLCoder-DS", "DeepSeek-Coder-6.7B"),
    ("BetterV-CodeQwen", "CodeQwen-7B"),
    ("CodeV-DS-6.7B", "DeepSeek-Coder-6.7B"),
    ("OriGen-DS", "DeepSeek-Coder-6.7B"),
    ("CraftRTL-StarCoder2", "StarCoder2-15B"),
    ("FreeV-Llama3.1", "Llama-3.1-8B-Instruct"),
]

_CONFIG = EvalConfig(
    n_samples=10, ks=(1, 5, 10), temperatures=(0.2, 0.8), max_new_tokens=600
)


def test_table2(model_zoo, problems):
    scores = {}

    def eval_model(name):
        if name not in scores:
            result = evaluate_model(model_zoo.model(name), problems, _CONFIG)
            scores[name] = result.best()
        return scores[name]

    bases_of_tuned = sorted({base for _, base in TUNED})
    lines = [f"{'model':<24}{'pass@1':>8}{'pass@5':>8}{'pass@10':>9}"]
    lines.append("-- foundation models --")
    for name in sorted(set(FOUNDATION) | set(bases_of_tuned)):
        s = eval_model(name)
        lines.append(
            f"{name:<24}{s[1]:>8.1%}{s[5]:>8.1%}{s[10]:>9.1%}"
        )
    lines.append("-- verilog-tuned models --")
    for name, _base in TUNED:
        s = eval_model(name)
        lines.append(
            f"{name:<24}{s[1]:>8.1%}{s[5]:>8.1%}{s[10]:>9.1%}"
        )
        if name != "FreeV-Llama3.1":
            model_zoo.evict(name)
    write_result("table2_verilogeval", "\n".join(lines))

    # fine-tuning on Verilog helps: every tuned model clears its base at
    # pass@10 (small tolerance for sampling noise at this problem count)
    for tuned, base in TUNED:
        assert scores[tuned][10] >= scores[base][10] - 0.05, (tuned, base)
    # FreeV's gain over Llama is real and concentrated at higher k
    llama = scores["Llama-3.1-8B-Instruct"]
    freev = scores["FreeV-Llama3.1"]
    assert freev[10] > llama[10]
    assert freev[10] - llama[10] >= freev[1] - llama[1] - 0.02
    # Verilog-tuned models dominate the foundation block on average
    # (GPT-4 excluded, as in the paper's narrative)
    tuned_mean = sum(scores[t][10] for t, _ in TUNED) / len(TUNED)
    foundation_mean = sum(
        scores[f][10] for f in FOUNDATION if f != "GPT-4"
    ) / (len(FOUNDATION) - 1)
    assert tuned_mean > foundation_mean
    # instruction-tuned policies at least match the pretrain-only ones at
    # the top (paper: CraftRTL tops Table II; with 20 problems the pass@10
    # granularity is 5%, so assert tie-or-better)
    instruct = [
        t for t, _ in TUNED if t not in ("VeriGen", "FreeV-Llama3.1")
    ]
    pretrain_only = ["VeriGen", "FreeV-Llama3.1"]
    assert max(scores[t][10] for t in instruct) >= max(
        scores[t][10] for t in pretrain_only
    )
