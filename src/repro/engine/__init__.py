"""repro.engine — streaming, parallel, checkpointable stage execution.

The curation substrate: instead of the seed's serial whole-corpus loop,
items stream through a declared :class:`StageGraph` in chunks (serially,
or with parallel-safe stages fanned across a :class:`ParallelExecutor`
pool behind an order-preserving merge), while stateful stages (dedup)
keep their state across chunks and across incremental batches.
Progress, metrics, and stage state persist through
:class:`CheckpointStore`, so runs resume and corpora grow without
re-curating the world.

Layout:

* :mod:`repro.engine.stage` — the ``Stage`` protocol and per-stage metrics;
* :mod:`repro.engine.graph` — the chunked ``StageGraph`` runner;
* :mod:`repro.engine.executor` — serial and process-pool chunk executors;
* :mod:`repro.engine.checkpoint` — atomic pickle-per-key snapshot store
  with two-generation corruption fallback;
* :mod:`repro.engine.registry` — declarative stage registration/compilation;
* :mod:`repro.engine.stages` — the concrete curation stages.
"""

from repro.engine.checkpoint import CheckpointStore
from repro.engine.executor import (
    ChunkTrace,
    ParallelExecutor,
    SerialExecutor,
    StageStat,
    WorkerDiedError,
    apply_stages,
)
from repro.engine.graph import DEFAULT_CHUNK_SIZE, StageGraph, iter_chunks
from repro.engine.registry import (
    build_stages,
    create_stage,
    register_stage,
    registered_stages,
)
from repro.engine.stage import (
    FilterStage,
    FunctionFilterStage,
    MapStage,
    Stage,
    StageMetrics,
    StatefulStage,
)
from repro.engine.stages import (
    CopyrightFilterStage,
    DedupStage,
    LengthCapStage,
    LicenseFilterStage,
    SyntaxCheckStage,
)

__all__ = [
    "CheckpointStore",
    "ChunkTrace",
    "ParallelExecutor",
    "SerialExecutor",
    "StageStat",
    "WorkerDiedError",
    "apply_stages",
    "DEFAULT_CHUNK_SIZE",
    "StageGraph",
    "iter_chunks",
    "build_stages",
    "create_stage",
    "register_stage",
    "registered_stages",
    "FilterStage",
    "FunctionFilterStage",
    "MapStage",
    "Stage",
    "StageMetrics",
    "StatefulStage",
    "CopyrightFilterStage",
    "DedupStage",
    "LengthCapStage",
    "LicenseFilterStage",
    "SyntaxCheckStage",
]
