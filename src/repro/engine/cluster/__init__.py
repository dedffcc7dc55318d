"""repro.engine.cluster — sharded coordinator/worker chunk execution.

The next scale axis past the in-process pool: a
:class:`ClusterExecutor` coordinator shards any
:class:`~repro.engine.StageGraph`'s parallel-safe pooled phases across
N worker *processes behind a socket*, speaking small typed, versioned
protocol messages.  Leases with heartbeats and a bounded requeue budget
survive worker death; a plan-fingerprint handshake rejects stale
workers; sticky shape-aware routing keeps one problem's pass@k pool (and
its hot golden artifacts) on one worker; results stream back in
submission order so verdicts are identical to a serial run.

Layout:

* :mod:`repro.engine.cluster.protocol` — wire messages, schema
  versioning, and the plan fingerprint;
* :mod:`repro.engine.cluster.worker` — the worker process entry point
  (handshake, heartbeat thread, lease loop, fault injection);
* :mod:`repro.engine.cluster.coordinator` — :class:`ClusterExecutor`:
  lease tracking, requeue, routing, streaming merge.
"""

from repro.engine.cluster.coordinator import (
    ClusterExecutor,
    ClusterProgress,
    default_route_key,
)
from repro.engine.cluster.protocol import (
    PROTOCOL_VERSION,
    ChunkLease,
    ChunkResult,
    ClusterError,
    Heartbeat,
    Hello,
    PlanAck,
    PlanHandshake,
    ProtocolError,
    Requeue,
    Shutdown,
    StaleWorkerError,
    decode,
    encode,
    plan_fingerprint,
)
from repro.engine.cluster.worker import DEFAULT_HEARTBEAT_S, cluster_worker_main

__all__ = [
    "ClusterExecutor",
    "ClusterProgress",
    "default_route_key",
    "PROTOCOL_VERSION",
    "ChunkLease",
    "ChunkResult",
    "ClusterError",
    "Heartbeat",
    "Hello",
    "PlanAck",
    "PlanHandshake",
    "ProtocolError",
    "Requeue",
    "Shutdown",
    "StaleWorkerError",
    "decode",
    "encode",
    "plan_fingerprint",
    "DEFAULT_HEARTBEAT_S",
    "cluster_worker_main",
]
