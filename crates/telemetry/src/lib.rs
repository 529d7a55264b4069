//! Zero-dependency telemetry substrate for the CounterPoint pipeline.
//!
//! Every engineered hot path in the workspace — the batched dual simplex, the
//! Farkas-certificate pool, the parallel lattice frontier, the multiplexing
//! campaign runner — reports *what it did* through this crate: how many pivots
//! each LP solve took, how often a cached certificate refuted an observation
//! without touching the solver, how often a warm basis handed down the lattice
//! actually seeded a resolve.  The substrate has three parts:
//!
//! * a **metrics registry** ([`Metric`], [`Histogram`]) of process-global
//!   atomic counters and log₂-bucketed histograms, aggregated in a stable
//!   order so snapshots are deterministic across thread counts;
//! * hierarchical **spans** ([`span`], [`StageSpan`]) with deterministic
//!   FNV-1a identifiers and integer-microsecond timestamps, recorded as
//!   Chrome Trace Event `B`/`E` pairs;
//! * **exporters** on [`TelemetryReport`]: a compact JSON metrics snapshot
//!   ([`TelemetryReport::metrics_json`]) and a `chrome://tracing` /
//!   Perfetto-loadable trace dump ([`TelemetryReport::chrome_trace_json`]).
//!
//! Recording is **disabled by default** and the disabled fast path of every
//! instrumentation call is a single `Relaxed` atomic load — cheap enough to
//! leave the call sites in the hottest loops unconditionally.  A session
//! enables collection by claiming the process-wide sink with
//! [`Recording::start`] (or the non-blocking [`Recording::try_start`]) and
//! harvests everything recorded in between with [`Recording::finish`]:
//!
//! ```
//! use counterpoint_telemetry as telemetry;
//!
//! let recording = telemetry::Recording::start();
//! {
//!     let _span = telemetry::span("work", "unit-1");
//!     telemetry::add(telemetry::Metric::LpSolves, 1);
//!     telemetry::observe(telemetry::Histogram::LpPivotsPerSolve, 12);
//! }
//! let report = recording.finish();
//! assert_eq!(report.counter(telemetry::Metric::LpSolves), 1);
//! assert!(report.metrics_json().contains("\"lp_solves\":1"));
//! ```
//!
//! The crate is hand-rolled with no dependencies (like the workspace's other
//! vendored shims) so it can sit at the very bottom of the crate DAG: `lp`,
//! `core`, `collect` and `session` all instrument themselves against it
//! without cycles.
//!
//! # Determinism contract
//!
//! Counter and histogram updates are commutative, and the exporters emit them
//! in a fixed registry order, so a metrics snapshot taken over a
//! deterministic workload is byte-identical across runs and worker-thread
//! counts.  Two recorded quantities are exempt and documented as diagnostic:
//! span *timestamps* (wall-clock by nature; the trace exporter is for humans
//! and Perfetto, not for diffing) and [`TelemetryReport::per_worker_frontier_models`]
//! (the dynamic work split across lattice workers depends on scheduling; only
//! its *order* — worker index — and its *total* are stable).

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

// ---------------------------------------------------------------------------
// The gate.
// ---------------------------------------------------------------------------

/// Whether a [`Recording`] is active.  Every instrumentation helper loads this
/// once with `Relaxed` ordering and returns immediately when it is false —
/// that load is the entire cost of disabled telemetry.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Returns true while a [`Recording`] is active.
///
/// Instrumentation sites that need to do non-trivial preparation (formatting
/// a span key, say) can consult this first; the plain [`add`]/[`observe`]/
/// [`span`] helpers already check it internally.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Metrics registry: counters.
// ---------------------------------------------------------------------------

/// The registry of monotonic event counters.
///
/// The variants enumerate every count the pipeline reports; snapshots list
/// them in this (declaration) order so output is stable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// LP feasibility solves driven to completion by the dual simplex.
    LpSolves,
    /// Simplex pivots performed while restoring feasibility.
    LpPivots,
    /// Basis refactorizations (product-form resets to the slack identity).
    LpRefactorizations,
    /// Pivots replayed while re-seating a handed-down basis.
    LpBasisReplayPivots,
    /// Lattice evaluations that received a warm basis from a parent model.
    WarmBasisHandoffHits,
    /// Lattice evaluations that found no compatible parent basis.
    WarmBasisHandoffMisses,
    /// Observations refuted by a cached Farkas certificate without an LP solve.
    CertificatePrunes,
    /// Observations settled feasible by a cached witness ray without an LP solve.
    WitnessRaySettlements,
    /// Batch-feasibility calls that reused the cached coefficient matrix.
    CoefficientCacheHits,
    /// Batch-feasibility calls that had to rebuild the coefficient matrix.
    CoefficientCacheMisses,
    /// Warm-started solves that hit their iteration limit and were re-solved
    /// cold.
    ColdSolverFallbacks,
    /// Lattice frontier batches dispatched to the worker pool.
    FrontierBatches,
    /// Models evaluated across all lattice frontier batches.
    FrontierModelsEvaluated,
    /// Campaign cells executed.
    CampaignCells,
    /// Multiplexing rounds planned across all event schedules.
    ScheduleRounds,
    /// Events beyond physical-counter capacity (multiplexed, not dropped).
    ScheduleOversubscribedEvents,
    /// Schedules whose noise inflation exceeded the warning threshold.
    ScheduleInflationWarnings,
    /// Warm feasibility solves whose verdict margin was too thin to trust and
    /// were re-solved cold from the all-slack basis.
    LpTier2Escalations,
    /// Harvested certificates or witness rays whose float margin was
    /// near-degenerate and were re-verified in exact rational arithmetic.
    LpExactRecertifications,
    /// Enumerated model candidates skipped because their μDD exceeded the
    /// configured path limit.
    PathLimitModelSkips,
    /// Feasibility decisions that reported an inconclusive verdict instead of
    /// a decision: a non-finite observation, or a warm solve and its cold
    /// re-solve that both failed to converge.
    LpInconclusiveVerdicts,
    /// Pooled Farkas certificates harvested in one model family that pruned
    /// an observation in a *different* family.
    CrossFamilyCertificateHits,
    /// Pooled witness rays harvested in one model family that settled an
    /// observation feasible in a *different* family.
    CrossFamilyWitnessHits,
}

impl Metric {
    /// Every counter, in stable snapshot order.
    pub const ALL: [Metric; 23] = [
        Metric::LpSolves,
        Metric::LpPivots,
        Metric::LpRefactorizations,
        Metric::LpBasisReplayPivots,
        Metric::WarmBasisHandoffHits,
        Metric::WarmBasisHandoffMisses,
        Metric::CertificatePrunes,
        Metric::WitnessRaySettlements,
        Metric::CoefficientCacheHits,
        Metric::CoefficientCacheMisses,
        Metric::ColdSolverFallbacks,
        Metric::FrontierBatches,
        Metric::FrontierModelsEvaluated,
        Metric::CampaignCells,
        Metric::ScheduleRounds,
        Metric::ScheduleOversubscribedEvents,
        Metric::ScheduleInflationWarnings,
        Metric::LpTier2Escalations,
        Metric::LpExactRecertifications,
        Metric::PathLimitModelSkips,
        Metric::LpInconclusiveVerdicts,
        Metric::CrossFamilyCertificateHits,
        Metric::CrossFamilyWitnessHits,
    ];

    /// The snake_case name used in metrics snapshots.
    pub fn name(self) -> &'static str {
        match self {
            Metric::LpSolves => "lp_solves",
            Metric::LpPivots => "lp_pivots",
            Metric::LpRefactorizations => "lp_refactorizations",
            Metric::LpBasisReplayPivots => "lp_basis_replay_pivots",
            Metric::WarmBasisHandoffHits => "warm_basis_handoff_hits",
            Metric::WarmBasisHandoffMisses => "warm_basis_handoff_misses",
            Metric::CertificatePrunes => "certificate_prunes",
            Metric::WitnessRaySettlements => "witness_ray_settlements",
            Metric::CoefficientCacheHits => "coefficient_cache_hits",
            Metric::CoefficientCacheMisses => "coefficient_cache_misses",
            Metric::ColdSolverFallbacks => "cold_solver_fallbacks",
            Metric::FrontierBatches => "frontier_batches",
            Metric::FrontierModelsEvaluated => "frontier_models_evaluated",
            Metric::CampaignCells => "campaign_cells",
            Metric::ScheduleRounds => "schedule_rounds",
            Metric::ScheduleOversubscribedEvents => "schedule_oversubscribed_events",
            Metric::ScheduleInflationWarnings => "schedule_inflation_warnings",
            Metric::LpTier2Escalations => "lp_tier2_escalations",
            Metric::LpExactRecertifications => "lp_exact_recertifications",
            Metric::PathLimitModelSkips => "path_limit_model_skips",
            Metric::LpInconclusiveVerdicts => "lp_inconclusive_verdicts",
            Metric::CrossFamilyCertificateHits => "cross_family_certificate_hits",
            Metric::CrossFamilyWitnessHits => "cross_family_witness_hits",
        }
    }
}

const METRIC_COUNT: usize = Metric::ALL.len();

static COUNTERS: [AtomicU64; METRIC_COUNT] = [const { AtomicU64::new(0) }; METRIC_COUNT];

/// Adds `n` to a counter.  A no-op (one relaxed load) when telemetry is off.
#[inline]
pub fn add(metric: Metric, n: u64) {
    if !enabled() {
        return;
    }
    COUNTERS[metric as usize].fetch_add(n, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Metrics registry: histograms.
// ---------------------------------------------------------------------------

/// The registry of log₂-bucketed value distributions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Histogram {
    /// Pivots needed by each completed LP feasibility solve.
    LpPivotsPerSolve,
    /// Models per lattice frontier batch.
    FrontierBatchSize,
}

impl Histogram {
    /// Every histogram, in stable snapshot order.
    pub const ALL: [Histogram; 2] = [Histogram::LpPivotsPerSolve, Histogram::FrontierBatchSize];

    /// The snake_case name used in metrics snapshots.
    pub fn name(self) -> &'static str {
        match self {
            Histogram::LpPivotsPerSolve => "lp_pivots_per_solve",
            Histogram::FrontierBatchSize => "frontier_batch_size",
        }
    }
}

const HISTOGRAM_COUNT: usize = Histogram::ALL.len();

/// Bucket `b` holds values whose bit length is `b` (bucket 0 holds the value
/// 0, bucket 1 holds 1, bucket 2 holds 2–3, …); everything of 32 bits or more
/// lands in the final bucket.
const HISTOGRAM_BUCKETS: usize = 33;

struct HistogramStore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

static HISTOGRAMS: [HistogramStore; HISTOGRAM_COUNT] = [const {
    HistogramStore {
        buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
        count: AtomicU64::new(0),
        sum: AtomicU64::new(0),
    }
}; HISTOGRAM_COUNT];

fn bucket_of(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Records one observation of `value`.  A no-op when telemetry is off.
#[inline]
pub fn observe(histogram: Histogram, value: u64) {
    if !enabled() {
        return;
    }
    let store = &HISTOGRAMS[histogram as usize];
    store.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    store.count.fetch_add(1, Ordering::Relaxed);
    store.sum.fetch_add(value, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Per-worker gauges.
// ---------------------------------------------------------------------------

/// Models processed per lattice worker index, across all frontier batches.
/// Written by the lattice driver after each batch joins, in worker-index
/// order, so the vector layout is stable.
static WORKER_FRONTIER: Mutex<Vec<u64>> = Mutex::new(Vec::new());

/// Credits `models` frontier evaluations to lattice worker `worker`.
///
/// Call from the batch driver after the worker scope joins, iterating
/// workers in index order: the snapshot then lists workers in a stable order
/// even though the dynamic work split between them is scheduling-dependent.
pub fn add_worker_frontier_models(worker: usize, models: u64) {
    if !enabled() {
        return;
    }
    let mut gauges = lock(&WORKER_FRONTIER);
    if gauges.len() <= worker {
        gauges.resize(worker + 1, 0);
    }
    gauges[worker] += models;
}

// ---------------------------------------------------------------------------
// Structured warnings.
// ---------------------------------------------------------------------------

/// A structured warning recorded by an instrumented subsystem.
///
/// Warnings are aggregated at snapshot time: identical `(kind, message)`
/// pairs merge into one entry with a [`count`](Warning::count), and entries
/// sort by kind then message, so the snapshot is deterministic even when the
/// emitting code runs across worker threads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Warning {
    /// Machine-readable category, e.g. `schedule_noise_inflation`.
    pub kind: &'static str,
    /// Human-readable description with the offending values interpolated.
    pub message: String,
    /// How many times this exact warning was emitted during the recording.
    pub count: u64,
}

static WARNINGS: Mutex<Vec<(&'static str, String)>> = Mutex::new(Vec::new());

/// Records a structured warning.  A no-op when telemetry is off.
pub fn warn(kind: &'static str, message: String) {
    if !enabled() {
        return;
    }
    lock(&WARNINGS).push((kind, message));
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

/// One Chrome Trace Event (`ph` is `B` for span begin, `E` for span end).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (the instrumentation site, e.g. `model_sweep`).
    pub name: &'static str,
    /// Event phase: `'B'` opens a span, `'E'` closes the most recent open
    /// span on the same logical thread.
    pub phase: char,
    /// Microseconds since the process-wide trace epoch.
    pub ts_us: u64,
    /// Logical thread id (assigned densely per OS thread, first use wins).
    pub tid: u64,
    /// Deterministic span id: FNV-1a over the parent span's id, the span
    /// name, and the key.  Identical on both the `B` and `E` event.
    pub id: u64,
    /// Site-specific key (model name, cell label, batch index, …).
    pub key: String,
}

static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

fn thread_tid() -> u64 {
    TID.with(|cell| {
        let mut tid = cell.get();
        if tid == 0 {
            tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            cell.set(tid);
        }
        tid
    })
}

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    if hash == 0 {
        hash = 0xcbf2_9ce4_8422_2325;
    }
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// An RAII guard for an open span: records a `B` event on creation (when
/// telemetry is on) and the matching `E` event on drop.  Keep it on the
/// thread that created it — `B`/`E` pairs are matched per logical thread.
#[derive(Debug)]
pub struct Span {
    live: bool,
    name: &'static str,
    id: u64,
    tid: u64,
}

/// Opens a span.  `key` distinguishes instances of the same site (a model
/// name, a cell label, a batch index); pass `""` when the site is unique.
///
/// The span id is FNV-1a over the innermost enclosing span's id on this
/// thread, the name, and the key — deterministic across runs and thread
/// counts for deterministic keys.  A no-op guard (one relaxed load, no
/// allocation) when telemetry is off.
pub fn span(name: &'static str, key: &str) -> Span {
    if !enabled() {
        return Span {
            live: false,
            name,
            id: 0,
            tid: 0,
        };
    }
    let tid = thread_tid();
    let parent = SPAN_STACK.with(|stack| stack.borrow().last().copied().unwrap_or(0));
    let mut id = fnv1a(parent, name.as_bytes());
    id = fnv1a(id, key.as_bytes());
    SPAN_STACK.with(|stack| stack.borrow_mut().push(id));
    lock(&EVENTS).push(TraceEvent {
        name,
        phase: 'B',
        ts_us: now_us(),
        tid,
        id,
        key: key.to_string(),
    });
    Span {
        live: true,
        name,
        id,
        tid,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        lock(&EVENTS).push(TraceEvent {
            name: self.name,
            phase: 'E',
            ts_us: now_us(),
            tid: self.tid,
            id: self.id,
            key: String::new(),
        });
    }
}

/// A span that always measures wall-clock time, even with telemetry off.
///
/// Pipeline stages report their durations (the session layer's per-stage
/// timings) through this type so the numbers exist unconditionally, while
/// the underlying [`Span`] only reaches the trace when a recording is
/// active.
#[derive(Debug)]
pub struct StageSpan {
    start: Instant,
    _span: Span,
}

/// Opens a stage span (see [`StageSpan`]).
pub fn stage_span(name: &'static str) -> StageSpan {
    StageSpan {
        start: Instant::now(),
        _span: span(name, ""),
    }
}

impl StageSpan {
    /// Closes the span and returns the elapsed wall-clock milliseconds.
    pub fn finish_ms(self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }
}

// ---------------------------------------------------------------------------
// Recording lifecycle.
// ---------------------------------------------------------------------------

static CLAIM: Mutex<()> = Mutex::new(());

/// Exclusive ownership of the process-wide telemetry sink.
///
/// Only one recording exists at a time: [`Recording::start`] blocks until the
/// sink is free (serialising concurrent test recordings), while
/// [`Recording::try_start`] returns `None` when another recording is already
/// active — instrumentation keeps flowing into *that* recording, so a nested
/// session simply contributes to its enclosing one.
#[derive(Debug)]
pub struct Recording {
    _claim: MutexGuard<'static, ()>,
}

fn reset_sink() {
    for counter in &COUNTERS {
        counter.store(0, Ordering::Relaxed);
    }
    for store in &HISTOGRAMS {
        for bucket in &store.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        store.count.store(0, Ordering::Relaxed);
        store.sum.store(0, Ordering::Relaxed);
    }
    lock(&WORKER_FRONTIER).clear();
    lock(&WARNINGS).clear();
    lock(&EVENTS).clear();
}

impl Recording {
    /// Claims the sink, resets it, and enables collection.  Blocks while
    /// another recording is active.
    pub fn start() -> Recording {
        let claim = lock(&CLAIM);
        EPOCH.get_or_init(Instant::now);
        reset_sink();
        ACTIVE.store(true, Ordering::SeqCst);
        Recording { _claim: claim }
    }

    /// Like [`Recording::start`], but returns `None` instead of blocking when
    /// the sink is already claimed (including by the calling thread).
    pub fn try_start() -> Option<Recording> {
        let claim = CLAIM.try_lock().ok()?;
        EPOCH.get_or_init(Instant::now);
        reset_sink();
        ACTIVE.store(true, Ordering::SeqCst);
        Some(Recording { _claim: claim })
    }

    /// Disables collection and returns everything recorded.
    pub fn finish(self) -> TelemetryReport {
        ACTIVE.store(false, Ordering::SeqCst);
        let counters = Metric::ALL
            .iter()
            .map(|&m| (m.name(), COUNTERS[m as usize].load(Ordering::Relaxed)))
            .collect();
        let histograms = Histogram::ALL
            .iter()
            .map(|&h| {
                let store = &HISTOGRAMS[h as usize];
                HistogramSnapshot {
                    name: h.name(),
                    count: store.count.load(Ordering::Relaxed),
                    sum: store.sum.load(Ordering::Relaxed),
                    buckets: store
                        .buckets
                        .iter()
                        .enumerate()
                        .filter_map(|(bits, bucket)| {
                            let n = bucket.load(Ordering::Relaxed);
                            (n > 0).then_some((bits as u32, n))
                        })
                        .collect(),
                }
            })
            .collect();
        let per_worker_frontier_models = lock(&WORKER_FRONTIER).clone();
        let mut raw_warnings = lock(&WARNINGS).clone();
        raw_warnings.sort();
        let mut warnings: Vec<Warning> = Vec::new();
        for (kind, message) in raw_warnings {
            match warnings.last_mut() {
                Some(last) if last.kind == kind && last.message == message => last.count += 1,
                _ => warnings.push(Warning {
                    kind,
                    message,
                    count: 1,
                }),
            }
        }
        let events = lock(&EVENTS).clone();
        TelemetryReport {
            counters,
            histograms,
            per_worker_frontier_models,
            warnings,
            events,
        }
    }
}

impl Drop for Recording {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------------
// Snapshot + exporters.
// ---------------------------------------------------------------------------

/// One histogram's state at the end of a recording.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registry name (see [`Histogram::name`]).
    pub name: &'static str,
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Non-empty log₂ buckets as `(bit length, observations)` pairs, in
    /// ascending bit-length order.
    pub buckets: Vec<(u32, u64)>,
}

/// Everything one [`Recording`] collected.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryReport {
    /// Counter values in [`Metric::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// Histogram snapshots in [`Histogram::ALL`] order.
    pub histograms: Vec<HistogramSnapshot>,
    /// Frontier models processed per lattice worker index (diagnostic: the
    /// split is scheduling-dependent, the order and total are not).
    pub per_worker_frontier_models: Vec<u64>,
    /// Aggregated structured warnings, sorted by kind then message.
    pub warnings: Vec<Warning>,
    /// The raw span events, in emission order.
    pub events: Vec<TraceEvent>,
}

impl TelemetryReport {
    /// Looks up one counter's final value.
    pub fn counter(&self, metric: Metric) -> u64 {
        self.counters[metric as usize].1
    }

    /// Looks up one histogram's snapshot.
    pub fn histogram(&self, histogram: Histogram) -> &HistogramSnapshot {
        &self.histograms[histogram as usize]
    }

    /// The metrics snapshot as compact JSON.
    ///
    /// Emits counters, histograms, per-worker gauges and warnings — not the
    /// span events (see [`chrome_trace_json`](TelemetryReport::chrome_trace_json)).
    /// All values are integers or strings, and everything is ordered by the
    /// fixed registries, so the snapshot of a deterministic workload is
    /// byte-identical across runs and thread counts.
    pub fn metrics_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            out.push(':');
            out.push_str(&value.to_string());
        }
        out.push_str("},\"histograms\":{");
        for (i, hist) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, hist.name);
            out.push_str(":{\"count\":");
            out.push_str(&hist.count.to_string());
            out.push_str(",\"sum\":");
            out.push_str(&hist.sum.to_string());
            out.push_str(",\"buckets\":{");
            for (j, (bits, n)) in hist.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_json_string(&mut out, &bits.to_string());
                out.push(':');
                out.push_str(&n.to_string());
            }
            out.push_str("}}");
        }
        out.push_str("},\"per_worker_frontier_models\":[");
        for (i, n) in self.per_worker_frontier_models.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&n.to_string());
        }
        out.push_str("],\"warnings\":[");
        for (i, warning) in self.warnings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"kind\":");
            push_json_string(&mut out, warning.kind);
            out.push_str(",\"message\":");
            push_json_string(&mut out, &warning.message);
            out.push_str(",\"count\":");
            out.push_str(&warning.count.to_string());
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// The span dump in Chrome Trace Event Format (the JSON object form,
    /// `{"traceEvents":[...]}`), loadable by `chrome://tracing` and
    /// [Perfetto](https://ui.perfetto.dev).
    ///
    /// Every value is an integer or a string, so parsing the dump with a
    /// JSON library that preserves key order and re-serialising it compactly
    /// reproduces the bytes exactly.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"traceEvents\":[");
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_json_string(&mut out, event.name);
            out.push_str(",\"cat\":\"counterpoint\",\"ph\":");
            push_json_string(&mut out, &event.phase.to_string());
            out.push_str(",\"ts\":");
            out.push_str(&event.ts_us.to_string());
            out.push_str(",\"pid\":1,\"tid\":");
            out.push_str(&event.tid.to_string());
            out.push_str(",\"args\":{\"id\":");
            out.push_str(&event.id.to_string());
            out.push_str(",\"key\":");
            push_json_string(&mut out, &event.key);
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Writes `<prefix>.metrics.json` and `<prefix>.trace.json`, returning
    /// the two paths.
    pub fn write_files(&self, prefix: &str) -> std::io::Result<(String, String)> {
        let metrics_path = format!("{prefix}.metrics.json");
        let trace_path = format!("{prefix}.trace.json");
        std::fs::write(&metrics_path, self.metrics_json() + "\n")?;
        std::fs::write(&trace_path, self.chrome_trace_json() + "\n")?;
        Ok((metrics_path, trace_path))
    }
}

/// Appends `s` as a JSON string literal, with the same escaping rules as the
/// workspace's vendored `serde_json` (so round-tripping through it is
/// byte-exact): `"`, `\`, `\n`, `\r`, `\t`, and `\u00XX` for other control
/// characters.
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        // Hold the claim directly (without enabling collection) so no other
        // test can be mid-recording while this one emits: every helper below
        // must hit the disabled fast path and record nothing at all.
        let _guard = lock(&CLAIM);
        reset_sink();
        add(Metric::LpPivots, 5);
        observe(Histogram::LpPivotsPerSolve, 5);
        warn("test", "dropped".to_string());
        add_worker_frontier_models(0, 3);
        {
            let _span = span("dropped", "");
        }
        assert_eq!(
            COUNTERS[Metric::LpPivots as usize].load(Ordering::Relaxed),
            0
        );
        let store = &HISTOGRAMS[Histogram::LpPivotsPerSolve as usize];
        assert_eq!(store.count.load(Ordering::Relaxed), 0);
        assert!(lock(&WORKER_FRONTIER).is_empty());
        assert!(lock(&WARNINGS).is_empty());
        assert!(lock(&EVENTS).is_empty());
    }

    #[test]
    fn counters_histograms_and_warnings_accumulate() {
        let recording = Recording::start();
        add(Metric::CertificatePrunes, 3);
        add(Metric::CertificatePrunes, 4);
        observe(Histogram::LpPivotsPerSolve, 0);
        observe(Histogram::LpPivotsPerSolve, 1);
        observe(Histogram::LpPivotsPerSolve, 6);
        observe(Histogram::LpPivotsPerSolve, 7);
        warn("k", "b".to_string());
        warn("k", "a".to_string());
        warn("k", "b".to_string());
        add_worker_frontier_models(1, 4);
        add_worker_frontier_models(0, 2);
        let report = recording.finish();
        assert_eq!(report.counter(Metric::CertificatePrunes), 7);
        let hist = report.histogram(Histogram::LpPivotsPerSolve);
        assert_eq!(hist.count, 4);
        assert_eq!(hist.sum, 14);
        // 0 → bucket 0, 1 → bucket 1, 6 and 7 → bucket 3.
        assert_eq!(hist.buckets, vec![(0, 1), (1, 1), (3, 2)]);
        // Warnings sort and merge.
        assert_eq!(report.warnings.len(), 2);
        assert_eq!(report.warnings[0].message, "a");
        assert_eq!(report.warnings[1].count, 2);
        // Worker gauges keep index order regardless of write order.
        assert_eq!(report.per_worker_frontier_models, vec![2, 4]);
    }

    #[test]
    fn spans_nest_with_deterministic_ids() {
        let recording = Recording::start();
        {
            let _outer = span("outer", "");
            let _inner = span("inner", "x");
        }
        let first = recording.finish();

        let recording = Recording::start();
        {
            let _outer = span("outer", "");
            let _inner = span("inner", "x");
        }
        let second = recording.finish();

        assert_eq!(first.events.len(), 4);
        let phases: Vec<char> = first.events.iter().map(|e| e.phase).collect();
        assert_eq!(phases, vec!['B', 'B', 'E', 'E']);
        // Same hierarchy → same ids across recordings.
        let ids = |r: &TelemetryReport| -> Vec<u64> { r.events.iter().map(|e| e.id).collect() };
        assert_eq!(ids(&first), ids(&second));
        // B/E pairs share ids; parent and child differ.
        assert_eq!(first.events[0].id, first.events[3].id);
        assert_eq!(first.events[1].id, first.events[2].id);
        assert_ne!(first.events[0].id, first.events[1].id);
    }

    #[test]
    fn stage_span_measures_even_when_disabled() {
        // Claim (without recording) so the stage's inner span cannot leak
        // into a concurrent test's recording.
        let _guard = lock(&CLAIM);
        let stage = stage_span("stage");
        assert!(stage.finish_ms() >= 0.0);
    }

    #[test]
    fn try_start_yields_to_an_active_recording() {
        let recording = Recording::start();
        assert!(Recording::try_start().is_none());
        add(Metric::LpSolves, 1);
        let report = recording.finish();
        assert_eq!(report.counter(Metric::LpSolves), 1);
        // Once released, the sink can be claimed again.
        let again = Recording::try_start().expect("sink is free");
        assert_eq!(again.finish().counter(Metric::LpSolves), 0);
    }

    #[test]
    fn metrics_json_is_all_integer_and_ordered() {
        let recording = Recording::start();
        add(Metric::LpSolves, 2);
        warn("kind", "needs \"escaping\"\n".to_string());
        let json = recording.finish().metrics_json();
        assert!(json.starts_with("{\"counters\":{\"lp_solves\":2,"));
        assert!(json.contains("\"needs \\\"escaping\\\"\\n\""));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn chrome_trace_json_shape() {
        let recording = Recording::start();
        {
            let _span = span("unit", "k");
        }
        let json = recording.finish().chrome_trace_json();
        assert!(json.starts_with(
            "{\"traceEvents\":[{\"name\":\"unit\",\"cat\":\"counterpoint\",\"ph\":\"B\","
        ));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.ends_with("}]}"));
    }
}
