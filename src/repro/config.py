"""Solver configuration dataclasses.

One :class:`FRWConfig` drives all solver variants; the named constructors
mirror the paper's experiment matrix (Sec. V):

* ``alg1``   — the baseline parallel scheme of [1] (Alg. 1): per-thread
  private streams, per-thread convergence at ``eps * sqrt(T)``, naive
  summation.  Reproducible only at fixed DOP.
* ``frw_nk`` — the reproducible scheme (Alg. 2) *without* Kahan summation.
* ``frw_nc`` — Alg. 2 with Mersenne-Twister per-walk reseeding instead of
  the counter-based RNG.
* ``frw_r``  — Alg. 2 with all Sec. III-C optimisations (the paper's FRW-R).
* ``frw_rr`` — FRW-R plus the reliability regularization (Alg. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigError

VARIANTS = ("alg1", "frw-nk", "frw-nc", "frw-r", "frw-rr")
RNG_KINDS = ("philox", "mt")
SUMMATION_KINDS = ("kahan", "naive")
EXECUTOR_KINDS = ("serial", "process")
ALLOCATION_KINDS = ("even", "variance")
MP_START_METHODS = ("auto", "fork", "spawn", "forkserver")

#: Config fields that determine the extracted bits.  Two extractions of the
#: same structure whose configs agree on every field here produce
#: byte-identical rows — this is the paper's reproducibility guarantee made
#: into a cache key: the memoizing extraction service
#: (:mod:`repro.service`) hashes exactly these fields (plus the canonical
#: geometry) and replays cached rows for any request that collides.
#: ``n_threads`` is here because the virtual-thread merge replay decides
#: the accumulation order (the last floating-point bits are a documented
#: function of the DOP ``T``); ``machine_seed``/``scheduler_jitter`` feed
#: the simulated machine whose schedule Alg. 2 replays deterministically.
RESULT_FIELDS = (
    "seed",
    "n_threads",
    "batch_size",
    "tolerance",
    "max_walks",
    "min_walks",
    "variant",
    "rng",
    "summation",
    "table_resolution",
    "offset_fraction",
    "h_cap_fraction",
    "absorption_fraction",
    "interface_snap_fraction",
    "first_hop_interface_floor",
    "max_steps",
    "check_every",
    "scheduler_jitter",
    "machine_seed",
    "deterministic_merge",
    "antithetic",
    "antithetic_group",
    "antithetic_depth",
)

#: Config fields certified bit-invisible by the golden suites: they change
#: wall time, scheduling, or diagnostics only, never a result bit.  The
#: service's canonical hash ignores them, so e.g. a serial-backend request
#: hits a row cached by a process-backend solve.  Every ``FRWConfig``
#: field must appear in exactly one of the two tuples (enforced by
#: ``tests/test_canonical.py``); a new field must be classified before the
#: suite passes, which keeps the cache key honest by construction.
#:
#: This tuple is also the *justified allowlist* of the det-lint DET009
#: cache-key-completeness pass (docs/STATIC_ANALYSIS.md): a field read on
#: the solver/engine/estimator result path that appears in neither tuple
#: fails CI.  Justifications, by group — backend placement (``executor``,
#: ``n_workers``, ``chunk_size``, ``mp_start_method``, ``shared_context``:
#: UID-ordered reassembly makes worker layout invisible), scheduling
#: (``pipeline``, ``pipeline_lookahead``, ``rng_prefetch_depth``,
#: ``interleave_masters``, ``allocation``, ``allocation_hysteresis``,
#: ``max_inflight_batches``, ``register_wave``: walk draws are a pure
#: function of (seed, uid, step), so issue order cannot reach a bit),
#: query fast paths (``far_field``, ``sort_queries``,
#: ``bounds_resolution``: conservative bounds return exactly the
#: brute-force answer), and guards (``sanitize``: raises or no-ops).
ENGINE_FIELDS = (
    "executor",
    "n_workers",
    "chunk_size",
    "mp_start_method",
    "shared_context",
    "pipeline",
    "pipeline_lookahead",
    "rng_prefetch_depth",
    "interleave_masters",
    "allocation",
    "allocation_hysteresis",
    "max_inflight_batches",
    "register_wave",
    "far_field",
    "sort_queries",
    "bounds_resolution",
    "sanitize",
)


@dataclass(frozen=True)
class FRWConfig:
    """Configuration of an FRW extraction.

    Parameters mirror Alg. 1/2 inputs plus engine knobs.

    Attributes
    ----------
    seed:
        Global seed ``s``.
    n_threads:
        Degree of parallelism ``T`` (virtual threads of the reproducible
        scheme; also used by the real executors).
    batch_size:
        Walks per batch ``B`` between global checkpoints (paper uses 10000).
    tolerance:
        Relative standard error target on the self-capacitance (paper: 1e-3
        for cases 1-2, 1e-2 otherwise).
    max_walks:
        Hard cap on walks per master conductor.
    min_walks:
        Walks required before the stopping rule may fire.
    variant:
        One of :data:`VARIANTS`.
    rng:
        ``"philox"`` (CBRNG) or ``"mt"`` (per-walk-reseeded Mersenne
        Twister, the FRW-NC ablation).
    summation:
        ``"kahan"`` or ``"naive"`` per-thread accumulators.
    table_resolution:
        Cells per cube-face edge of the transition table.
    offset_fraction:
        Gaussian surface offset as a fraction of conductor clearance.
    h_cap_fraction:
        Transition-cube half-size cap as a fraction of the enclosure's
        smallest edge.
    absorption_fraction:
        Absorption tolerance as a fraction of the master's Gaussian offset.
    interface_snap_fraction:
        Walks closer to a dielectric interface than this fraction of their
        free space snap onto it and take the two-medium sphere step.
    first_hop_interface_floor:
        Lower bound on the first transition cube, as a fraction of the
        conductor-limited size, applied when a launch point sits very close
        to a dielectric interface (its cube then crosses the interface
        slightly).  Bounds the flux-weight variance at the cost of a small,
        documented bias; production solvers use multi-dielectric transition
        tables here instead.
    max_steps:
        Step cap per walk (safety; survivors absorb to the enclosure and are
        counted as truncated).
    check_every:
        Alg. 1 only: walks between per-thread convergence checks.
    scheduler_jitter:
        Relative timing noise of the simulated machine (0 disables).
    machine_seed:
        Seed of the simulated machine's timing noise (distinct values model
        distinct machines/OS schedules; never affects walk samples).
    deterministic_merge:
        Extension (not in the paper): accumulate each batch in walk-ID order
        regardless of the schedule, guaranteeing bitwise-identical results
        (RI = 17) for any DOP.
    executor:
        Backend executing walk batches: ``"serial"`` (the default: the
        in-process engine, one refill pipeline per master, all masters
        interleaved on the calling thread) or ``"process"`` (a persistent
        process pool fed through the shared-memory context plane — the
        only way past one core).  Results are reassembled in UID order, so
        both backends are bit-identical — the choice changes wall time
        only, which is the DOP-independence contract of Alg. 2.  There is
        no thread backend: the engine issues many small NumPy calls per
        step, which hold the GIL for most of their time, so a thread pool
        ran at 0.5-0.64x the serial engine (docs/PERFORMANCE.md, layer 1).
    n_workers:
        Workers of the real executor; ``0`` means auto (the CPUs this
        process may actually run on — ``os.sched_getaffinity`` where
        available, so containerized/affinity-restricted hosts size pools
        correctly — falling back to the host CPU count).  With one worker
        the process backend degrades to the serial path.
    chunk_size:
        UIDs per executor work item; ``0`` means auto (an even split of the
        batch over the workers).
    mp_start_method:
        Start method of the process backend: ``"fork"``, ``"spawn"``,
        ``"forkserver"``, or ``"auto"`` (fork where available, else
        spawn).  With the shared-memory context plane all methods are
        bit-identical; spawn/forkserver cost more per pool start but work
        on every platform and give workers a clean interpreter state.
    shared_context:
        Ship contexts to process workers through the shared-memory context
        plane (:mod:`repro.frw.shm`): registration publishes blocks and
        per-batch dispatch carries only a small manifest, so the pool never
        restarts and any start method works.  Disabling falls back to the
        legacy fork-inheritance protocol (POSIX fork only; registering
        after the pool forked restarts it).  Results are bit-identical
        either way.
    pipeline:
        Cross-batch walk pipelining: when walks absorb, their vector slots
        are refilled with UIDs from the next batch so the engine's vector
        width stays near ``batch_size`` instead of shrinking to a ragged
        tail.  Results are banked per batch and remain bit-identical.
    pipeline_lookahead:
        How many batches ahead the pipeline may refill from (bounds the
        work discarded when the stopping rule fires mid-pipeline).
    rng_prefetch_depth:
        Steps of RNG prefetched per fused Philox pass (1-16, default 8).
        The engine keeps a ring buffer of draws for the next
        ``rng_prefetch_depth`` steps of every live walk and refills it
        with one span kernel instead of one draw kernel per step, cutting
        the rng stage's Python-dispatch count by up to that factor.
        Because draws are pure functions of ``(seed, uid, step, slot)``,
        prefetching is bit-invisible: results are byte-identical for
        every depth, backend, worker count, and start method, antithetic
        on or off.  The engine fuses adaptively — wide vectors whose span
        lattice would fall out of cache take the per-step path (see
        PERFORMANCE.md layer 8) — so oversizing the depth wastes only
        ring memory (``24 * depth`` bytes per arena slot).  1 disables
        prefetching; the stateful MT ablation streams cannot seek, so
        they always run as if 1.
    interleave_masters:
        Multi-master extraction submits batches from *all* masters into
        the one executor as a single interleaved stream (the cross-master
        scheduler), so one master's convergence never idles workers while
        another still needs walks.  Each master keeps its own UID stream,
        batch order, and checkpoints, so every row is bit-identical to the
        serial per-master extraction — interleaving trades wall time only.
        Ignored for single-master calls and the ``alg1`` variant.
    allocation:
        Cross-master in-flight quota policy: ``"even"`` gives every
        unconverged master the same speculative batch depth; ``"variance"``
        reweights the quota toward the least-converged masters (relative
        half-width vs. tolerance), with hysteresis — quotas are recomputed
        only when the weight vector moves by more than
        ``allocation_hysteresis`` or the live set changes.  Allocation
        decides only *which* batches are in flight, never their contents,
        so rows are bit-identical under either policy.  Default ``"even"``:
        on balanced master sets the variance feedback loop tends to thrash
        quotas without converging faster (see BENCH_extract.json); prefer
        ``"variance"`` only for strongly heterogeneous masters.
    allocation_hysteresis:
        Relative L-inf movement of the normalised variance weight vector
        required before quotas are recomputed (``"variance"`` policy only;
        0 reweights every round).
    far_field:
        Spatial-index tier-1 fast path: precompute per-grid-cell distance
        bounds so points in cells provably farther than the cap from every
        conductor answer ``(h_cap, -1)`` without touching candidate lists,
        and prune candidates that can never win.  Results are
        bit-identical with the flag off; disable only to A/B the cost of
        the bounds arrays on dense structures with no open space.
    sort_queries:
        Spatial-index tier-2 fast path: process near-field points in
        cell-id order so candidate rows are gathered once per unique cell
        (cache-friendly, deduplicated); results are scattered back in
        point order and stay bit-identical.
    bounds_resolution:
        Grid cells per ``h_cap`` along each axis (1-8, default 2: at 1 the
        corner-to-corner slack of cap-sized cells leaves few cells provably
        far on tight enclosures).  Finer grids give
        tighter far-field bounds and shorter candidate lists at the cost
        of bounds memory (~17 bytes/cell) and CSR size.
    max_inflight_batches:
        Total cross-master in-flight batch cap (0 = auto: enough to cover
        the executor width with a margin).  Bounds the walk work thrown
        away when stopping rules fire while speculative batches run.
    register_wave:
        Masters activated (and, on the process backend, contexts
        registered/shipped) per scheduler wave; 0 = auto.  Large master
        sets are admitted in waves so context registration is lazy but
        batched — one pool restart per wave instead of per master.
    antithetic:
        Generalized antithetic sampling (variance reduction): walk UIDs
        are grouped in aligned blocks of ``antithetic_group`` consecutive
        UIDs; the first UID of each group is the *primary* and the rest
        are partners whose hop-direction draws are fixed
        reflections/rotations of the primary's Philox words
        (:class:`repro.rng.MirroredDraws`).  Partners launch from the
        primary's Gaussian-surface point and take mirrored first hops, so
        their flux weights are negatively correlated and fewer walks
        reach a given tolerance.  Estimation switches to per-group means
        (unbiased mean *and* variance under the intra-group correlation),
        and the stopping rule consumes the group-mean standard error.
        Because partners are a pure function of ``(seed, primary uid,
        partner index, step, slot)``, bit-identity across backends,
        worker counts, and start methods holds exactly as without the
        flag.  Requires ``rng="philox"`` (partners re-read the primary's
        counter words; the stateful MT ablation streams cannot express
        that), a ``batch_size`` divisible by ``antithetic_group``, and a
        variant other than ``alg1``.  Off by default; ``min_walks`` /
        ``max_walks`` keep counting raw walks (groups × group size).
    antithetic_group:
        Walks per antithetic group (2-8): 2 is the classic reflected
        pair ``u -> 1 - u``; 4 adds the half-rotated pair (dihedral
        set).  Larger groups buy smoother first-hop stratification but
        dilute the per-partner anticorrelation; 2 is the sweet spot on
        the bus benchmarks (see PERFORMANCE.md layer 7).
    antithetic_depth:
        Walk steps (1-64, counting from the first hop) whose draws are
        mirrored; beyond this depth partners reuse the primary's words
        untransformed (common random numbers).  Depth 1 mirrors only the
        first hop — the step that dominates the flux-weight sign — and
        is the default; deeper mirroring keeps diverged paths
        anticorrelated slightly longer at no extra cost, but the effect
        fades once geometry decorrelates the paths.
    sanitize:
        Arm the runtime RNG sanitizer
        (:func:`repro.lint.sanitizer.forbid_global_rng`) for the duration
        of ``extract``/``extract_row``: any global ``np.random.*`` or
        stdlib ``random.*`` call — from this library or a third-party
        dependency — raises :class:`~repro.errors.DeterminismError`
        instead of silently breaking bit-identity.  Private seeded
        generators are unaffected.  Off by default (tiny patch/unpatch
        cost, and test frameworks like hypothesis legitimately use the
        global stdlib RNG between extractions).
    """

    seed: int = 0
    n_threads: int = 1
    batch_size: int = 10_000
    tolerance: float = 1e-2
    max_walks: int = 20_000_000
    min_walks: int = 1_000
    variant: str = "frw-r"
    rng: str = "philox"
    summation: str = "kahan"
    table_resolution: int = 32
    offset_fraction: float = 0.5
    h_cap_fraction: float = 0.25
    absorption_fraction: float = 2e-3
    interface_snap_fraction: float = 0.05
    first_hop_interface_floor: float = 0.02
    max_steps: int = 10_000
    check_every: int = 1_000
    scheduler_jitter: float = 0.05
    machine_seed: int = 0
    deterministic_merge: bool = False
    executor: str = "serial"
    n_workers: int = 0
    chunk_size: int = 0
    mp_start_method: str = "auto"
    shared_context: bool = True
    pipeline: bool = True
    pipeline_lookahead: int = 1
    rng_prefetch_depth: int = 8
    interleave_masters: bool = True
    allocation: str = "even"
    allocation_hysteresis: float = 0.25
    max_inflight_batches: int = 0
    register_wave: int = 0
    far_field: bool = True
    sort_queries: bool = True
    bounds_resolution: int = 2
    antithetic: bool = False
    antithetic_group: int = 2
    antithetic_depth: int = 1
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.rng not in RNG_KINDS:
            raise ConfigError(f"rng must be one of {RNG_KINDS}, got {self.rng!r}")
        if self.summation not in SUMMATION_KINDS:
            raise ConfigError(
                f"summation must be one of {SUMMATION_KINDS}, got {self.summation!r}"
            )
        if self.seed < 0:
            # Seeds are folded through splitmix64 as unsigned 64-bit values;
            # negative Python ints would alias positive seeds ambiguously.
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.machine_seed < 0:
            raise ConfigError(f"machine_seed must be >= 0, got {self.machine_seed}")
        if self.n_threads < 1:
            raise ConfigError(f"n_threads must be >= 1, got {self.n_threads}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0 < self.tolerance < 1):
            raise ConfigError(f"tolerance must be in (0, 1), got {self.tolerance}")
        if self.min_walks < 2:
            raise ConfigError(f"min_walks must be >= 2, got {self.min_walks}")
        if self.max_walks < self.min_walks:
            raise ConfigError("max_walks must be >= min_walks")
        if not (0.0 < self.interface_snap_fraction <= 0.25):
            # Snapping displaces the walk onto the interface; the induced
            # bias is first-order in the displacement, so the threshold must
            # stay a small fraction of the local free space.
            raise ConfigError(
                "interface_snap_fraction must be in (0, 0.25], got "
                f"{self.interface_snap_fraction}"
            )
        if not (0.0 < self.absorption_fraction < 0.5):
            raise ConfigError(
                f"absorption_fraction must be in (0, 0.5), got "
                f"{self.absorption_fraction}"
            )
        if not (0.0 <= self.first_hop_interface_floor <= 0.1):
            raise ConfigError(
                "first_hop_interface_floor must be in [0, 0.1], got "
                f"{self.first_hop_interface_floor}"
            )
        if not (2 <= self.table_resolution <= 1024):
            raise ConfigError(
                f"table_resolution must be in [2, 1024], got "
                f"{self.table_resolution}"
            )
        if not (0.0 < self.offset_fraction < 1.0):
            # The Gaussian surface must sit strictly between the conductor
            # and its nearest neighbour; >= 1 would touch or cross it.
            raise ConfigError(
                f"offset_fraction must be in (0, 1), got {self.offset_fraction}"
            )
        if not (0.0 < self.h_cap_fraction <= 1.0):
            raise ConfigError(
                f"h_cap_fraction must be in (0, 1], got {self.h_cap_fraction}"
            )
        if self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.check_every < 1:
            raise ConfigError(f"check_every must be >= 1, got {self.check_every}")
        if not (0.0 <= self.scheduler_jitter <= 1.0):
            raise ConfigError(
                f"scheduler_jitter must be in [0, 1], got {self.scheduler_jitter}"
            )
        if self.executor not in EXECUTOR_KINDS:
            raise ConfigError(
                f"executor must be one of {EXECUTOR_KINDS}, got {self.executor!r}"
            )
        if self.n_workers < 0:
            raise ConfigError(f"n_workers must be >= 0, got {self.n_workers}")
        if self.chunk_size < 0:
            raise ConfigError(f"chunk_size must be >= 0, got {self.chunk_size}")
        if self.mp_start_method not in MP_START_METHODS:
            raise ConfigError(
                f"mp_start_method must be one of {MP_START_METHODS}, got "
                f"{self.mp_start_method!r}"
            )
        if not self.shared_context and self.mp_start_method in (
            "spawn",
            "forkserver",
        ):
            # The legacy protocol ships contexts by fork inheritance, which
            # spawn/forkserver children do not get.
            raise ConfigError(
                "shared_context=False requires mp_start_method 'fork' or "
                f"'auto', got {self.mp_start_method!r}"
            )
        if self.pipeline_lookahead < 0:
            raise ConfigError(
                f"pipeline_lookahead must be >= 0, got {self.pipeline_lookahead}"
            )
        if not (1 <= self.rng_prefetch_depth <= 16):
            raise ConfigError(
                f"rng_prefetch_depth must be in [1, 16], got "
                f"{self.rng_prefetch_depth}"
            )
        if self.allocation not in ALLOCATION_KINDS:
            raise ConfigError(
                f"allocation must be one of {ALLOCATION_KINDS}, got "
                f"{self.allocation!r}"
            )
        if self.max_inflight_batches < 0:
            raise ConfigError(
                f"max_inflight_batches must be >= 0, got "
                f"{self.max_inflight_batches}"
            )
        if self.register_wave < 0:
            raise ConfigError(
                f"register_wave must be >= 0, got {self.register_wave}"
            )
        if not (0.0 <= self.allocation_hysteresis <= 1.0):
            raise ConfigError(
                f"allocation_hysteresis must be in [0, 1], got "
                f"{self.allocation_hysteresis}"
            )
        if not (1 <= self.bounds_resolution <= 8):
            raise ConfigError(
                f"bounds_resolution must be in [1, 8], got "
                f"{self.bounds_resolution}"
            )
        if not (2 <= self.antithetic_group <= 8):
            raise ConfigError(
                f"antithetic_group must be in [2, 8], got "
                f"{self.antithetic_group}"
            )
        if not (1 <= self.antithetic_depth <= 64):
            raise ConfigError(
                f"antithetic_depth must be in [1, 64], got "
                f"{self.antithetic_depth}"
            )
        if self.antithetic:
            if self.rng != "philox":
                # Partners re-read the primary's counter words; the
                # stateful MT ablation streams consume sequentially and
                # cannot express shared draws.
                raise ConfigError(
                    "antithetic requires rng='philox', got "
                    f"{self.rng!r}"
                )
            if self.variant == "alg1":
                raise ConfigError(
                    "antithetic requires the reproducible variants; "
                    "alg1 has no per-walk UID streams to mirror"
                )
            if self.batch_size % self.antithetic_group != 0:
                # Groups are aligned UID blocks; a batch boundary inside
                # a group would split it across checkpoints.
                raise ConfigError(
                    f"batch_size ({self.batch_size}) must be a multiple "
                    f"of antithetic_group ({self.antithetic_group})"
                )
            if self.min_walks < 2 * self.antithetic_group:
                raise ConfigError(
                    "min_walks must cover at least two antithetic "
                    f"groups ({2 * self.antithetic_group}), got "
                    f"{self.min_walks}"
                )

    # ------------------------------------------------------------------
    # Named variant constructors
    # ------------------------------------------------------------------
    @classmethod
    def alg1(cls, **kwargs) -> "FRWConfig":
        """Baseline Alg. 1 of [1]: naive summation, isolated convergence."""
        kwargs.setdefault("summation", "naive")
        return cls(variant="alg1", **kwargs)

    @classmethod
    def frw_nk(cls, **kwargs) -> "FRWConfig":
        """FRW-R without Kahan summation."""
        return cls(variant="frw-nk", summation="naive", **kwargs)

    @classmethod
    def frw_nc(cls, **kwargs) -> "FRWConfig":
        """FRW-R with Mersenne Twister per-walk reseeding."""
        return cls(variant="frw-nc", rng="mt", **kwargs)

    @classmethod
    def frw_r(cls, **kwargs) -> "FRWConfig":
        """The reproducible solver with all optimisations."""
        return cls(variant="frw-r", **kwargs)

    @classmethod
    def frw_rr(cls, **kwargs) -> "FRWConfig":
        """FRW-R plus the reliability regularization (Alg. 3)."""
        return cls(variant="frw-rr", **kwargs)

    def with_(self, **kwargs) -> "FRWConfig":
        """Return a copy with fields replaced."""
        return replace(self, **kwargs)

    def result_key(self) -> tuple:
        """The result-determining projection of this config.

        An ordered ``(name, value)`` tuple over :data:`RESULT_FIELDS`.
        Two configs with equal result keys produce byte-identical rows on
        the same structure (engine knobs are bit-invisible); the service
        cache and :func:`repro.service.canonical_hash` key on exactly
        this.
        """
        return tuple((name, getattr(self, name)) for name in RESULT_FIELDS)

    @property
    def uses_regularization(self) -> bool:
        """Whether the reliability post-process runs after extraction."""
        return self.variant == "frw-rr"
