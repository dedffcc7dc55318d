#!/usr/bin/env python
"""A two-worker cluster evaluation with an injected worker kill.

Runs a pass@k plan twice — serially, then on a two-worker
:class:`~repro.engine.ClusterExecutor` whose worker 1 is configured to
hard-die (``os._exit``) on its second lease — and asserts the cluster
run is verdict-identical, candidate for candidate, after the requeue.
Progress streams through ``on_progress`` while chunks are out on lease,
and the trace export carries ``cluster.*`` counters.

Render the coordinator + worker logs as one report with::

    python tools/trace_report.py repro_obs --merge

CI runs this script as its cluster smoke test.
"""

from repro import obs
from repro.engine import ClusterExecutor
from repro.evalkit import EvalPlan, PassAtKTask
from repro.llm import LanguageModel
from repro.vereval import EvalConfig, build_problem_set


def main() -> None:
    obs.configure(obs.MODE_TRACE)

    model = LanguageModel.pretrain(
        "demo",
        ["module m(input a, output y); assign y = ~a; endmodule"] * 6,
    )
    task = PassAtKTask(
        build_problem_set(n_problems=4),
        EvalConfig(n_samples=4, ks=(1,), temperatures=(0.4,),
                   max_new_tokens=64),
    )
    # One chunk per problem's sample pool: enough leases that the
    # doomed worker reaches its second one.
    plan = EvalPlan([model], [task], chunk_size=4)

    serial = plan.run()

    executor = ClusterExecutor(
        workers=2,
        heartbeat_s=0.2,
        timeout_s=2.0,
        worker_faults={1: {"die_on_lease": 2}},  # hard os._exit mid-run
    )
    with executor:
        clustered = plan.run(
            executor=executor,
            on_progress=lambda p: print(
                f"progress: {p.done}/{p.total} checked, {p.passed} passed"
            ),
        )
        progress = executor.progress()

    def verdicts(run):
        return [
            (r.model_name, r.task_id, r.unit_id, r.sample_index,
             r.passed, r.completion)
            for r in run.records
        ]

    assert verdicts(serial) == verdicts(clustered), (
        "cluster run diverged from serial"
    )
    assert progress.worker_deaths == 1, progress
    assert progress.requeues >= 1, progress
    counters = clustered.telemetry.counters
    assert counters.get("cluster.worker_deaths") == 1, counters
    assert counters.get("cluster.requeues", 0) >= 1, counters

    print(clustered.result(model.name, "passk").summary())
    print()
    print(f"verdict-identical to serial across {len(serial.records)} "
          "candidates, surviving 1 worker death "
          f"({progress.requeues} chunk(s) requeued)")
    print(f"trace artifacts in {obs.obs_dir()}/ — merge the worker logs "
          "with `python tools/trace_report.py --merge`")


if __name__ == "__main__":
    main()
