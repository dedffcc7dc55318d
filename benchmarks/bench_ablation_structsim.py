"""A4 — extension: structural vs textual similarity (the GNN4IP item).

Sec. V proposes structure-aware similarity (GNN4IP) as future work for
the copyright benchmark.  This bench quantifies why: a *rename attack*
(consistently re-prefixing every identifier in a copied design) drives
textual cosine similarity below the 0.8 violation threshold while the
Weisfeiler-Lehman structural similarity of the name-free dataflow graphs
remains 1.0.
"""

from repro.github.world import _brand_identifiers
from repro.structsim import StructuralIndex
from repro.textsim import SimilarityIndex
from repro.verilog import check_syntax
from benchmarks.conftest import write_result


def test_rename_attack_detection(copyrighted_corpus):
    # Use the syntactically valid copyrighted files as the protected IP.
    entries = [
        (key, text)
        for key, text in copyrighted_corpus.entries.items()
        if check_syntax(text).ok
    ][:30]
    assert len(entries) >= 10

    textual = SimilarityIndex()
    structural = StructuralIndex()
    for key, text in entries:
        textual.add(key, text)
        structural.add(key, text)

    text_scores = []
    struct_scores = []
    for key, text in entries:
        laundered = _brand_identifiers(text, "laundered_")
        text_match = textual.best_match(laundered)
        struct_match = structural.best_match(laundered)
        text_scores.append(text_match.score if text_match else 0.0)
        struct_scores.append(struct_match.score if struct_match else 0.0)
        # the structural detector must attribute the laundered copy to a
        # protected design with near-certain similarity
        assert struct_match is not None and struct_match.score > 0.99

    text_caught = sum(s >= 0.8 for s in text_scores)
    struct_caught = sum(s >= 0.8 for s in struct_scores)
    lines = [
        f"protected designs:            {len(entries)}",
        f"textual detector catches:     {text_caught}/{len(entries)} "
        f"(mean sim {sum(text_scores) / len(text_scores):.2f})",
        f"structural detector catches:  {struct_caught}/{len(entries)} "
        f"(mean sim {sum(struct_scores) / len(struct_scores):.2f})",
    ]
    write_result("ablation_structsim", "\n".join(lines))

    # the attack meaningfully degrades the textual detector ...
    assert text_caught < len(entries)
    # ... while the structural detector catches everything
    assert struct_caught == len(entries)
