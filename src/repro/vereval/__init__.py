"""Mini-VerilogEval: functional-correctness benchmark (Sec. III-E2).

A held-out problem set in the VerilogEval-Human format: each problem is
an English description plus the module header; a model completes the
body; the completion passes when it is cycle-for-cycle equivalent to the
golden module under randomized stimulus in :mod:`repro.sim`.  Scores are
the unbiased pass@k estimator (Eq. 1) with the paper's protocol: n
samples per problem, temperatures {0.2, 0.8}, best result reported.
"""

from repro.vereval.passk import pass_at_k
from repro.vereval.problems import EvalProblem, build_problem_set
from repro.vereval.harness import (
    EvalConfig,
    EvalResult,
    ProblemOutcome,
    check_candidate_source,
    check_candidates_lockstep,
    check_completion,
    evaluate_model,
    reset_caches,
)
from repro.vereval.cegis import (
    CegisConfig,
    DistinguishingSet,
    DistinguishingVector,
    active_config as cegis_active_config,
    configure as cegis_configure,
    distinguishing_set,
    fingerprint_token as cegis_fingerprint_token,
)

__all__ = [
    "pass_at_k",
    "EvalProblem",
    "build_problem_set",
    "EvalConfig",
    "EvalResult",
    "ProblemOutcome",
    "check_candidate_source",
    "check_candidates_lockstep",
    "check_completion",
    "evaluate_model",
    "reset_caches",
    "CegisConfig",
    "DistinguishingSet",
    "DistinguishingVector",
    "cegis_active_config",
    "cegis_configure",
    "cegis_fingerprint_token",
    "distinguishing_set",
]
