"""The perf ledger's own harness: names, exit codes, estimator, diff.

Collected by tier-1.  The runs use ``run.py --quick`` (small inputs, one
round, one iteration), so nothing here is a measurement; the estimator
and ``diff.py`` are exercised on synthetic timings.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import diff  # noqa: E402
import estimator  # noqa: E402

RUN = os.path.join(HERE, "run.py")

BENCH = diff.load_benchmark()


def run_py(*args):
    return subprocess.run(
        [sys.executable, RUN, *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=120,
    )


def last_json(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


# -- BENCHMARK.json against the driver's static limits -----------------------


def test_benchmark_json_shape():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    names = [w["name"] for w in BENCH["workloads"]]
    assert 2 <= len(names) <= 8
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        names.append(metric["name"])
        assert unit_re.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(name_re.match(n) for n in names)
    assert len(set(names)) == len(names)
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert 1 <= BENCH["run_seconds"] <= 60


# -- run.py --quick ----------------------------------------------------------


def test_quick_set_emits_declared_workloads_and_metrics(tmp_path):
    out = tmp_path / "set.json"
    done = run_py("--quick", "--out", str(out))
    assert done.returncode == 0, done.stdout
    result = json.loads(out.read_text())
    assert sorted(result["workloads"]) == sorted(
        w["name"] for w in BENCH["workloads"]
    )
    for name, entry in result["workloads"].items():
        got = {k: m["unit"] for k, m in entry["metrics"].items()}
        assert got == declared("end_to_end"), name
        assert all(m["value"] > 0 for m in entry["metrics"].values()), name
        assert entry["failed_frac"] == 0, name
        for metric, unit in declared("end_to_end").items():
            assert re.search(rf"^\s+{re.escape(metric)}\s+\S+ {re.escape(unit)}$",
                             done.stdout, re.M), (name, metric)


def test_quick_traced_run_emits_every_layer_metric():
    done = run_py("--quick", "--workload", "check_cold", "--trace", "1")
    assert done.returncode == 0, done.stdout
    line = last_json(done)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    got = {k: m["unit"] for k, m in line["metrics"].items()}
    assert got == declared("per_layer")
    with open(os.path.join(HERE, "out", "trace_check_cold.jsonl")) as handle:
        spans = [json.loads(row) for row in handle]
    assert {"id", "parent", "name", "unit", "start", "end"} <= set(spans[0])
    assert {"unit", "verilog.lex", "sim.elaborate", "setup.pools"} <= {
        s["name"] for s in spans
    }


def test_corrupted_expected_verdict_fails_the_run(tmp_path):
    import make_expected
    from workloads import QUICK

    expected = make_expected.build(0, QUICK, workloads=("check_cold",))
    verdict = expected["check"]["verdicts"][0][0]
    verdict[0] = not verdict[0]
    make_expected.write(str(tmp_path), expected)
    done = run_py(
        "--quick", "--workload", "check_cold", "--expected-dir", str(tmp_path)
    )
    assert done.returncode != 0
    line = last_json(done)
    assert line["correct"] is False
    assert line["failed"] >= 1 and line["failed"] / line["attempted"] > 0


# -- the estimator on synthetic timings --------------------------------------


def test_quiet_wall_is_the_sum_of_unit_minima():
    base = [0.010, 0.040, 0.020]
    # a slow phase covers a different unit in each iteration
    rows = [
        [base[0] * 1.3, base[1], base[2]],
        [base[0], base[1] * 1.3, base[2] * 1.3],
        [base[0] * 1.3, base[1] * 1.3, base[2]],
    ]
    assert estimator.unit_minima(rows) == pytest.approx(base)
    assert estimator.quiet_wall_s(rows) == pytest.approx(sum(base))
    assert estimator.median_wall_s(rows) > sum(base)
    with pytest.raises(ValueError):
        estimator.unit_minima([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        estimator.unit_minima([])


def test_calibration_cancels_a_host_wide_slow_phase():
    ref = estimator.SPIN_REF_S
    units = [0.010, 0.020, 0.030, 0.040, 0.050, 0.060]
    quiet = estimator.calibrate(units, [ref] * 6)
    assert quiet == pytest.approx(units)
    slow = estimator.calibrate([u * 1.25 for u in units], [ref * 1.25] * 6)
    assert slow == pytest.approx(units)
    # one descheduled spin does not deflate its region
    spins = [ref] * 6
    spins[2] = ref * 10
    assert estimator.calibrate(units, spins) == pytest.approx(units)
    # code that got slower (units up, spins unchanged) is not cancelled
    worse = estimator.calibrate([u * 1.25 for u in units], [ref] * 6)
    assert worse == pytest.approx([u * 1.25 for u in units])
    with pytest.raises(ValueError):
        estimator.calibrate([1.0], [])


def test_percentile_steps_and_spread():
    values = [float(v) for v in range(1, 12)]
    assert estimator.percentile(values, 50) == 6.0
    assert estimator.percentile(values, 90) == 10.0
    assert estimator.percentile([3.0], 90) == 3.0
    ref = estimator.SPIN_REF_S
    # three repetitions, the middle one in a slow phase of the host
    steps = [[1.0, 5.0], [1.5, 7.5], [2.0, 6.0]]
    spins = [[ref, ref], [ref * 1.5, ref * 1.5], [ref, ref]]
    assert estimator.setup_median_s(steps, spins) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        estimator.setup_median_s([], [])
    assert estimator.relative_spread([10.0]) == 0.0
    assert estimator.relative_spread([9.0, 10.0, 12.0]) == pytest.approx(0.3)


# -- diff.py on synthetic sets -----------------------------------------------


def synthetic_set(scale=1.0, spin=0.003, round_factors=(1.0, 1.0, 1.0),
                  failed_frac=0.0):
    """A set in ``run.py --out`` shape whose metrics are ``scale`` times a
    fixed base (timings up, throughput down), rounds spread as given."""

    def metrics(factor):
        return {
            "setup_s": 2.0 * factor, "items_per_s": 100.0 / factor,
            "unit_ms_p50": 10.0 * factor, "unit_ms_p90": 30.0 * factor,
            "peak_rss_mb": 50.0,
        }

    workloads = {}
    for workload in BENCH["workloads"]:
        workloads[workload["name"]] = {
            "metrics": {
                k: {"value": v, "unit": declared("end_to_end")[k]}
                for k, v in metrics(scale).items()
            },
            "failed_frac": failed_frac,
            "round_metrics": [metrics(scale * f) for f in round_factors],
            "rounds": [{"iterations": [{"unit_s": [1.0], "spin_s": [spin]}]}],
        }
    return {"workloads": workloads}


def verdicts(rows, metric):
    return {r["verdict"] for r in rows if r["metric"] == metric}


def test_diff_applies_each_metrics_bound():
    bound = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    base = synthetic_set()
    same = diff.compare(base, synthetic_set(1.01), BENCH)
    assert {r["verdict"] for r in same} == {"unchanged"}
    assert len(same) == len(BENCH["workloads"]) * (len(BENCH["end_to_end"]) + 1)
    worse = diff.compare(base, synthetic_set(1.0 + bound["unit_ms_p50"] + 0.1), BENCH)
    assert verdicts(worse, "unit_ms_p50") == {"regression"}
    assert verdicts(worse, "peak_rss_mb") == {"unchanged"}
    better = diff.compare(base, synthetic_set(0.5), BENCH)
    assert verdicts(better, "items_per_s") == {"improved"}
    row = worse[0]
    assert row["ratio"] == pytest.approx(row["new"] / row["base"])


def test_diff_says_unresolved_not_unchanged_when_it_cannot_tell():
    base = synthetic_set()
    # the host itself changed speed between the two files
    moved = diff.compare(base, synthetic_set(spin=0.003 * 1.08), BENCH)
    assert verdicts(moved, "items_per_s") == {"unresolved"}
    # a row whose own rounds disagree by more than its bound
    noisy = diff.compare(
        base, synthetic_set(round_factors=(1.0, 1.0, 1.6)), BENCH
    )
    assert verdicts(noisy, "unit_ms_p90") == {"unresolved"}
    assert verdicts(noisy, "peak_rss_mb") == {"unchanged"}
    # a regression stays a regression however noisy
    both = diff.compare(
        base, synthetic_set(2.0, round_factors=(1.0, 1.0, 1.6)), BENCH
    )
    assert verdicts(both, "setup_s") == {"regression"}


def test_diff_exit_code_and_failed_frac(tmp_path):
    paths = {}
    for name, payload in {
        "base": synthetic_set(),
        "same": {"sets": [synthetic_set(3.0), synthetic_set(1.02)]},
        "wrong": synthetic_set(failed_frac=0.01),
    }.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as handle:
            json.dump(payload, handle)
    assert diff.main([paths["base"], paths["same"]]) == 0
    assert diff.main([paths["base"], paths["wrong"]]) == 1
    rows = diff.compare(synthetic_set(), synthetic_set(failed_frac=0.01), BENCH)
    assert verdicts(rows, "failed_frac") == {"regression"}
    assert diff.main([paths["base"]]) == 2
