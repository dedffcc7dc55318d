"""E1 — Table I: comparison of FreeSet with prior curated datasets.

Regenerates the table's columns for every dataset policy run over the
same synthetic world scrape.  The paper's qualitative claims that must
hold at any scale: FreeSet is the largest open-source dataset, and it is
the only one with BOTH a license check and a file-level copyright check.
"""

from repro.core.comparison import DATASET_POLICIES, simulate_prior_dataset
from benchmarks.conftest import write_result

_COLUMNS = (
    f"{'dataset':<12}{'size(MB)':>10}{'rows':>8}{'structure':>24}"
    f"{'augmented':>11}{'open':>6}{'lic':>5}{'copy':>6}"
)


def _row(dataset):
    return (
        f"{dataset.name:<12}{dataset.size_bytes / 1e6:>10.2f}"
        f"{dataset.rows:>8}{dataset.structure:>24}"
        f"{'Yes' if dataset.augmented else 'No':>11}"
        f"{'Yes' if dataset.open_source else 'No':>6}"
        f"{'Yes' if dataset.license_check else 'No':>5}"
        f"{'Yes' if dataset.copyright_check else 'No':>6}"
    )


def test_table1(raw_files, freeset_result):
    datasets = {}
    for name, policy in DATASET_POLICIES.items():
        if name == "FreeSet":
            datasets[name] = freeset_result.dataset
        else:
            datasets[name] = simulate_prior_dataset(policy, raw_files)

    lines = [_COLUMNS]
    lines.extend(_row(d) for d in datasets.values())
    write_result("table1_datasets", "\n".join(lines))

    freeset = datasets["FreeSet"]
    open_source = [d for d in datasets.values() if d.open_source]
    # FreeSet is the largest open-source dataset by size; by rows it is
    # competitive with OriGen (paper: 222,624 vs 222,075 — a near-tie) ...
    assert freeset.size_bytes == max(d.size_bytes for d in open_source)
    assert freeset.rows >= 0.6 * max(d.rows for d in open_source)
    # ... and uniquely performs both checks (Table I's last two columns).
    both_checks = [
        d.name
        for d in datasets.values()
        if d.license_check and d.copyright_check
    ]
    assert both_checks == ["FreeSet"]
