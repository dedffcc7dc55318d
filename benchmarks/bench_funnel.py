"""E5 — the Sec. IV-A dataset-minimization funnel.

Paper series (absolute, full scale): 1.3M extracted -> 608,180 licensed
-> de-dup removes 62.5% -> syntax+copyright checks -> 222,624 final, with
copyrighted data ~1% of the original corpus.  At 1/100 scale we assert
the *ratios*.
"""

from benchmarks.conftest import write_result


def test_funnel_ratios(freeset_result):
    funnel = freeset_result.dataset.funnel
    write_result(
        "funnel",
        funnel.to_text()
        + f"\nfinal rows: {freeset_result.dataset.rows}"
        + f"\nfinal size: {freeset_result.dataset.size_bytes / 1e6:.2f} MB",
        values={
            "initial_count": funnel.initial_count,
            "final_count": funnel.final_count,
            "final_rows": freeset_result.dataset.rows,
            "final_size_bytes": freeset_result.dataset.size_bytes,
            "stages": [
                {
                    "name": stage.name,
                    "in": stage.in_count,
                    "out": stage.out_count,
                }
                for stage in funnel.stages
            ],
        },
    )

    license_stage = funnel.stage("license_filter")
    dedup_stage = funnel.stage("dedup")
    copyright_stage = funnel.stage("copyright_filter")

    # license filter keeps roughly half (paper: 46.8%)
    keep = 1 - license_stage.removal_fraction
    assert 0.35 < keep < 0.70
    # de-duplication removes the majority (paper: 62.5%)
    assert 0.45 < dedup_stage.removal_fraction < 0.80
    # copyrighted files are a small but real share of the original corpus
    copyrighted_share = copyright_stage.removed / funnel.initial_count
    assert 0.001 < copyrighted_share < 0.03
    assert funnel.final_count > 0
