"""The floating-random-walk core: walk engine, estimators, the Alg. 1
baseline and Alg. 2 reproducible schemes, schedulers, and the solver
facade."""

from .alg1_baseline import extract_row_alg1
from .alg2_reproducible import (
    RowProgress,
    RunStats,
    extract_row_alg2,
    extract_row_alg2_from_structure,
    machine_rng,
    make_streams,
)
from .context import ExtractionContext, SharedAssets, StructureView, build_context
from .cross_master import extract_rows_interleaved, resolve_wave
from .engine import (
    ArenaWorkspace,
    StageTimers,
    WalkPipeline,
    WalkResults,
    run_walks,
    run_walks_pipelined,
)
from .estimator import CapacitanceRow, RowAccumulator
from .multilevel import GroupPlan, multilevel_extract, plan_groups
from .parallel import (
    PendingBatch,
    PersistentExecutor,
    make_batch_runner,
    resolve_start_method,
    resolve_workers,
    run_walks_processes,
    stream_spec,
    streams_from_spec,
)
from .shm import (
    ContextManifest,
    attach_context,
    publish_context,
    published_blocks,
    release_all,
    release_manifest,
)
from .scheduler import (
    ScheduleResult,
    allocate_quota,
    jittered_durations,
    simulate_dynamic_queue,
    simulate_static_blocks,
    variance_weights,
)
from .solver import ExtractionResult, FRWSolver, assemble_result, extract
from .walk import WalkTrace, run_single_walk, trace_walks

__all__ = [
    "CapacitanceRow",
    "ContextManifest",
    "ExtractionContext",
    "ExtractionResult",
    "FRWSolver",
    "GroupPlan",
    "PendingBatch",
    "PersistentExecutor",
    "RowAccumulator",
    "RowProgress",
    "RunStats",
    "ScheduleResult",
    "SharedAssets",
    "StructureView",
    "WalkPipeline",
    "WalkResults",
    "WalkTrace",
    "allocate_quota",
    "assemble_result",
    "attach_context",
    "build_context",
    "extract",
    "extract_row_alg1",
    "extract_row_alg2",
    "extract_row_alg2_from_structure",
    "extract_rows_interleaved",
    "jittered_durations",
    "machine_rng",
    "make_batch_runner",
    "make_streams",
    "multilevel_extract",
    "plan_groups",
    "publish_context",
    "published_blocks",
    "release_all",
    "release_manifest",
    "run_single_walk",
    "ArenaWorkspace",
    "StageTimers",
    "resolve_start_method",
    "resolve_workers",
    "run_walks",
    "run_walks_pipelined",
    "run_walks_processes",
    "resolve_wave",
    "simulate_dynamic_queue",
    "simulate_static_blocks",
    "stream_spec",
    "streams_from_spec",
    "trace_walks",
    "variance_weights",
]
