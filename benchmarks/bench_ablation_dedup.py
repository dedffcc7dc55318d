"""A1 — ablation: de-duplication threshold sweep.

The paper fixes the VeriGen-style Jaccard threshold at 0.85.  This
ablation sweeps the threshold and reports how many files survive: lower
thresholds collapse same-family variants together (over-merging), higher
thresholds keep trivial fork copies (under-merging).
"""

from repro.dedup import deduplicate
from benchmarks.conftest import write_result

THRESHOLDS = (0.70, 0.80, 0.85, 0.90, 0.95)


def test_dedup_threshold_sweep(freeset_result):
    # sweep over the post-license-filter population, like the pipeline
    licensed = [
        (f.file_id, f.content)
        for f in freeset_result.raw_files
        if f.license_key is not None
    ]
    kept = {}
    for threshold in THRESHOLDS:
        kept[threshold] = deduplicate(licensed, threshold=threshold).kept_count

    lines = [f"{'threshold':>10}{'kept':>8}{'removed_frac':>14}"]
    for threshold in THRESHOLDS:
        removed = 1 - kept[threshold] / len(licensed)
        lines.append(f"{threshold:>10.2f}{kept[threshold]:>8}{removed:>14.2%}")
    write_result("ablation_dedup", "\n".join(lines))

    # monotone: stricter similarity requirement keeps more files
    ordered = [kept[t] for t in THRESHOLDS]
    assert ordered == sorted(ordered)
    # the paper's 0.85 setting removes the majority of licensed files
    assert 1 - kept[0.85] / len(licensed) > 0.45
