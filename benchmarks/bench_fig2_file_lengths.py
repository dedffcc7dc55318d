"""E3 — Figure 2: distribution of Verilog file lengths, FreeSet vs VeriGen.

The paper plots file counts over log-spaced character-length bins
(10^1..10^8).  Shape to reproduce: FreeSet has far more files overall,
dominated by small files (10..10k chars), plus extreme outliers (the
paper found a 90M-char file; our scaled world carries a proportionally
huge generated netlist).
"""

from repro.core.comparison import DATASET_POLICIES, simulate_prior_dataset
from repro.utils.stats import Histogram, log_bins
from benchmarks.conftest import write_result


def _histogram(lengths):
    hist = Histogram(edges=log_bins(1, 8))
    hist.add_all(lengths)
    return hist


def test_fig2(raw_files, freeset_result):
    freeset = freeset_result.dataset
    verigen = simulate_prior_dataset(DATASET_POLICIES["VeriGen"], raw_files)

    hist_free = _histogram(freeset.char_lengths())
    hist_veri = _histogram(verigen.char_lengths())

    lines = [f"{'bin_center':>14}{'FreeSet':>10}{'VeriGen':>10}"]
    for (center, count_free), (_, count_veri) in zip(
        hist_free.series(), hist_veri.series()
    ):
        lines.append(f"{center:>14.0f}{count_free:>10}{count_veri:>10}")
    write_result("fig2_file_lengths", "\n".join(lines))

    # the bulk of FreeSet files are 10..10,000 chars (paper's observation)
    counts = dict(zip(hist_free.bin_centers(), hist_free.counts))
    small_mass = sum(
        c for center, c in counts.items() if center < 10_000
    )
    assert small_mass / max(hist_free.total, 1) > 0.8
    # extreme outlier present (the scaled mega netlist)
    assert max(freeset.char_lengths()) > 100_000
