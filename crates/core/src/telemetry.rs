//! Phase-level telemetry for the SMM runtime.
//!
//! The paper's method is *measurement decomposition*: the P2C ratio of
//! §III-A (Eqs. 1–3) splits run time into packing vs. computing, Table
//! II breaks parallel overhead into packing and synchronization shares,
//! and Fig. 7 compares achieved kernel rates against the machine model.
//! This module makes the same decomposition observable on our own hot
//! path:
//!
//! * every GEMM call's lifecycle is tagged with [`Phase`] spans — plan
//!   lookup, A/B packing, kernel compute, pool dispatch, and
//!   barrier/reduce — timed in nanoseconds and accumulated into
//!   hand-rolled log2-bucket [`LatencyHistogram`]s;
//! * recording goes through per-thread *shards* of relaxed atomics
//!   (a thread-local slot index picks the shard), so the enabled hot
//!   path takes no locks and concurrent recorders do not contend;
//! * per-shape throughput is accumulated in a fixed-size lock-free
//!   open-addressing table so a snapshot can compare achieved Gflops
//!   against the `smm-model` prediction for every shape seen;
//! * [`Telemetry::report`] aggregates the shards into a
//!   [`TelemetryReport`] with the derived paper metrics — observed P2C,
//!   model efficiency fractions, and a Table-II-style
//!   pack/compute/sync percentage breakdown per call site — and the
//!   report serializes to JSON text or a Prometheus-style exposition.
//!
//! Everything is `std`-only: no external metric crates, no global
//! registries. A [`Telemetry`] instance belongs to one
//! [`crate::Smm`]; the disabled state is a single branch per call.

use std::cmp::Reverse;
use std::time::{Duration, Instant};

use smm_sync::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use smm_gemm::arena::ArenaStats;
use smm_gemm::pool::PoolStats;
use smm_model::{p2c_as_published, MachineSpec, Precision};

use crate::metrics::{self, Record};
use crate::plan::choose_kernel;
use crate::rate::{RateReport, RateWindow};
use crate::runtime::RuntimeStats;
use crate::trace::{TraceExemplar, EXEMPLAR_CAP};
use crate::tune::TunerStats;

/// Default sliding window of the rate estimators (see [`crate::rate`]).
pub const DEFAULT_RATE_WINDOW: Duration = Duration::from_secs(8);

/// Number of log2 latency buckets. Bucket `i` covers `[2^i, 2^(i+1))`
/// nanoseconds (bucket 0 covers `[0, 2)`); the last bucket saturates,
/// so 40 buckets reach ~2^40 ns ≈ 18 minutes before saturation.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Number of per-thread shards (a power of two; thread slots wrap).
const SHARDS: usize = 16;

/// Capacity of the lock-free per-shape table.
const SHAPE_SLOTS: usize = 256;

/// FMA latency (cycles) used for the model's chain-bound prediction,
/// matching the planner's constant.
const FMA_LATENCY: usize = 5;

/// A lifecycle phase of one GEMM call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Plan-cache lookup (or miss-path plan construction).
    PlanLookup,
    /// Packing `A` panels.
    PackA,
    /// Packing `B` slivers (including Fig. 8 edge packing).
    PackB,
    /// Micro-kernel execution.
    Compute,
    /// Pool dispatch: queue push, wakeup, and the workers' execution
    /// window of one multi-threaded call (submission to last result).
    Dispatch,
    /// Synchronization: barrier wait beyond the slowest worker's busy
    /// time, plus the reduce/merge of private blocks and `beta` scaling.
    Sync,
    /// Serving layer: time a request sat in the admission queue before
    /// the dispatcher picked it up.
    EnqueueWait,
    /// Serving layer: the shape-coalescing window — time the dispatcher
    /// held a group open waiting for more same-shape arrivals.
    Coalesce,
    /// Serving layer: answering requests after compute (copy-out of
    /// `C` windows plus waking the submitters).
    Reply,
}

/// Number of distinct [`Phase`] values.
pub const NUM_PHASES: usize = 9;

impl Phase {
    /// All phases, in display order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::PlanLookup,
        Phase::PackA,
        Phase::PackB,
        Phase::Compute,
        Phase::Dispatch,
        Phase::Sync,
        Phase::EnqueueWait,
        Phase::Coalesce,
        Phase::Reply,
    ];

    /// Stable snake_case name (used as the metric label).
    pub fn name(self) -> &'static str {
        match self {
            Phase::PlanLookup => "plan_lookup",
            Phase::PackA => "pack_a",
            Phase::PackB => "pack_b",
            Phase::Compute => "compute",
            Phase::Dispatch => "dispatch",
            Phase::Sync => "sync",
            Phase::EnqueueWait => "enqueue_wait",
            Phase::Coalesce => "coalesce",
            Phase::Reply => "reply",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            Phase::PlanLookup => 0,
            Phase::PackA => 1,
            Phase::PackB => 2,
            Phase::Compute => 3,
            Phase::Dispatch => 4,
            Phase::Sync => 5,
            Phase::EnqueueWait => 6,
            Phase::Coalesce => 7,
            Phase::Reply => 8,
        }
    }
}

/// The public API entry a span was recorded under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallSite {
    /// [`crate::Smm::gemm`] — single GEMM.
    Gemm,
    /// [`crate::Smm::gemm_batch`].
    GemmBatch,
    /// Direct [`crate::execute_in`]-style invocations.
    Direct,
    /// The `smm-serve` request dispatcher (queue wait, coalescing,
    /// batched dispatch, and reply — the service-boundary spans).
    Serve,
}

/// Number of distinct [`CallSite`] values.
pub const NUM_SITES: usize = 4;

impl CallSite {
    /// All call sites, in display order.
    pub const ALL: [CallSite; NUM_SITES] = [
        CallSite::Gemm,
        CallSite::GemmBatch,
        CallSite::Direct,
        CallSite::Serve,
    ];

    /// Stable snake_case name (used as the metric label).
    pub fn name(self) -> &'static str {
        match self {
            CallSite::Gemm => "gemm",
            CallSite::GemmBatch => "gemm_batch",
            CallSite::Direct => "direct",
            CallSite::Serve => "serve",
        }
    }

    fn index(self) -> usize {
        match self {
            CallSite::Gemm => 0,
            CallSite::GemmBatch => 1,
            CallSite::Direct => 2,
            CallSite::Serve => 3,
        }
    }
}

/// A log2-bucketed latency histogram (plain, non-atomic form).
///
/// This is the aggregation/snapshot type: shards are merged into it and
/// tests drive it directly. Bucket `i` counts samples in
/// `[2^i, 2^(i+1))` ns, except bucket 0 (`[0, 2)`) and the last bucket,
/// which absorbs everything at or above its lower bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Per-bucket sample counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values (ns).
    pub sum_ns: u64,
    /// Smallest recorded value (0 when empty).
    pub min_ns: u64,
    /// Largest recorded value (0 when empty).
    pub max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: 0,
            max_ns: 0,
        }
    }

    /// Bucket index for a value: `floor(log2(ns))`, clamped to the
    /// table ([0, 2) ns collapses into bucket 0; the last bucket
    /// saturates).
    pub fn bucket_index(ns: u64) -> usize {
        if ns < 2 {
            0
        } else {
            ((63 - ns.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Inclusive upper bound of a bucket (`u64::MAX` for the saturated
    /// last bucket).
    pub fn bucket_upper_bound(i: usize) -> u64 {
        assert!(i < HISTOGRAM_BUCKETS, "bucket out of range");
        if i == HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// Record one sample.
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket_index(ns)] += 1;
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Merge another histogram (shard aggregation).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count == 0 {
            return;
        }
        for (b, ob) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += ob;
        }
        if self.count == 0 {
            self.min_ns = other.min_ns;
            self.max_ns = other.max_ns;
        } else {
            self.min_ns = self.min_ns.min(other.min_ns);
            self.max_ns = self.max_ns.max(other.max_ns);
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// Quantile estimate: the upper bound of the first bucket whose
    /// cumulative count reaches `q · count`, clamped to the observed
    /// `[min_ns, max_ns]` range. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Self::bucket_upper_bound(i).clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }

    /// Mean recorded value in ns (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }
}

/// One per-thread shard of relaxed atomics, cache-line separated so
/// concurrent recorders on different shards never false-share.
#[repr(align(128))]
struct Shard {
    hist: [[AtomicU64; HISTOGRAM_BUCKETS]; NUM_PHASES],
    phase_min: [AtomicU64; NUM_PHASES],
    phase_max: [AtomicU64; NUM_PHASES],
    site_phase_ns: [[AtomicU64; NUM_PHASES]; NUM_SITES],
    site_calls: [AtomicU64; NUM_SITES],
    packed_bytes: AtomicU64,
    flops: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            hist: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            phase_min: std::array::from_fn(|_| AtomicU64::new(u64::MAX)),
            phase_max: std::array::from_fn(|_| AtomicU64::new(0)),
            site_phase_ns: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            site_calls: std::array::from_fn(|_| AtomicU64::new(0)),
            packed_bytes: AtomicU64::new(0),
            flops: AtomicU64::new(0),
        }
    }
}

/// Lock-free per-shape accumulator slot states.
const SLOT_EMPTY: usize = 0;
const SLOT_CLAIMED: usize = 1;
const SLOT_READY: usize = 2;

/// One open-addressing slot of the shape table. Writers claim an empty
/// slot with a CAS, publish the key with a release store, and from then
/// on only relaxed counter adds touch the slot.
struct ShapeSlot {
    state: AtomicUsize,
    m: AtomicUsize,
    n: AtomicUsize,
    k: AtomicUsize,
    elem_bytes: AtomicUsize,
    calls: AtomicU64,
    total_ns: AtomicU64,
}

impl ShapeSlot {
    fn new() -> Self {
        ShapeSlot {
            state: AtomicUsize::new(SLOT_EMPTY),
            m: AtomicUsize::new(0),
            n: AtomicUsize::new(0),
            k: AtomicUsize::new(0),
            elem_bytes: AtomicUsize::new(0),
            calls: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        }
    }

    fn matches(&self, m: usize, n: usize, k: usize, elem: usize) -> bool {
        self.m.load(Ordering::Relaxed) == m
            && self.n.load(Ordering::Relaxed) == n
            && self.k.load(Ordering::Relaxed) == k
            && self.elem_bytes.load(Ordering::Relaxed) == elem
    }

    fn bump(&self, calls: u64, ns: u64) {
        self.calls.fetch_add(calls, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

/// Thread-slot allocator; relaxed — a monotonic counter whose only
/// contract is distinctness, with no ordering against any other access.
static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Monotonic per-thread slot; masked into a shard index. Threads
    /// keep their slot for life, so a thread always writes one shard.
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
}

/// Read the clock iff `timed` (`None` otherwise) — the guard for timed
/// paths that run outside a [`Recorder`] (pooled worker closures), so
/// untimed hot paths provably never reach `Instant::now`.
pub fn now_if(timed: bool) -> Option<Instant> {
    timed.then(Instant::now)
}

/// The telemetry registry of one [`crate::Smm`] instance.
///
/// All recording is wait-free on the enabled path: a thread-local shard
/// pick plus relaxed `fetch_add`s. When constructed disabled, every
/// recording call is a single branch.
pub struct Telemetry {
    enabled: bool,
    /// Zero point for windowed rate accounting. Read (via `elapsed`)
    /// only on the enabled path — the disabled registry never touches
    /// the clock.
    epoch: Instant,
    rate: RateWindow,
    shards: Vec<Shard>,
    slots: Vec<ShapeSlot>,
    /// Shapes discarded once `slots` filled; relaxed counter add, read
    /// only by the aggregating reporter after recording has quiesced.
    dropped_shapes: AtomicU64,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled)
            .finish()
    }
}

impl Telemetry {
    /// A registry; `enabled == false` turns every record into a no-op.
    pub fn new(enabled: bool) -> Self {
        Self::with_rate_window(enabled, DEFAULT_RATE_WINDOW)
    }

    /// A registry whose rate estimators slide over `window`.
    pub fn with_rate_window(enabled: bool, window: Duration) -> Self {
        Telemetry {
            enabled,
            epoch: Instant::now(),
            rate: RateWindow::new(window.as_nanos().min(u64::MAX as u128) as u64),
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
            slots: (0..SHAPE_SLOTS).map(|_| ShapeSlot::new()).collect(),
            dropped_shapes: AtomicU64::new(0),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A recording handle bound to a call site. Inactive (all no-ops)
    /// when the registry is disabled.
    pub fn recorder(&self, site: CallSite) -> Recorder<'_> {
        Recorder {
            tel: if self.enabled { Some(self) } else { None },
            site,
        }
    }

    fn shard(&self) -> &Shard {
        let slot = THREAD_SLOT.with(|s| *s);
        &self.shards[slot & (SHARDS - 1)]
    }

    pub(crate) fn record_span(&self, site: CallSite, phase: Phase, ns: u64) {
        let shard = self.shard();
        let p = phase.index();
        shard.hist[p][LatencyHistogram::bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        shard.phase_min[p].fetch_min(ns, Ordering::Relaxed);
        shard.phase_max[p].fetch_max(ns, Ordering::Relaxed);
        shard.site_phase_ns[site.index()][p].fetch_add(ns, Ordering::Relaxed);
    }

    pub(crate) fn add_packed_bytes(&self, bytes: u64) {
        if bytes > 0 {
            self.shard()
                .packed_bytes
                .fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Account one completed API call: `entries` GEMMs of shape
    /// `(m, n, k)` over `elem_bytes`-wide scalars took `total_ns`
    /// end to end.
    ///
    /// Public so out-of-crate layers (the `smm-serve` dispatcher) can
    /// feed the per-shape table; this bypasses the [`Recorder`] gate,
    /// so callers must check [`Telemetry::enabled`] themselves.
    #[allow(clippy::too_many_arguments)]
    pub fn record_call(
        &self,
        site: CallSite,
        m: usize,
        n: usize,
        k: usize,
        elem_bytes: usize,
        entries: u64,
        total_ns: u64,
    ) {
        let shard = self.shard();
        shard.site_calls[site.index()].fetch_add(1, Ordering::Relaxed);
        let flops = 2 * (m as u64) * (n as u64) * (k as u64) * entries;
        shard.flops.fetch_add(flops, Ordering::Relaxed);
        if self.enabled {
            // Rate ticks need a wall-clock sample; keep the disabled
            // registry clock-free even through this bypass path.
            self.rate.record(self.epoch_ns(), entries, flops, total_ns);
        }
        self.record_shape(m, n, k, elem_bytes, entries, total_ns);
    }

    /// Count one call at `site` without accounting any GEMM work: how
    /// a layer above the library (the `smm-serve` dispatcher) counts
    /// its own calls when the GEMMs they ran were already recorded by
    /// `gemm`/`gemm_batch`. Like [`Telemetry::record_call`], this
    /// bypasses the [`Recorder`] gate.
    pub fn record_site_call(&self, site: CallSite) {
        self.shard().site_calls[site.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Nanoseconds since this registry's construction — the time base
    /// of its [`RateWindow`].
    pub fn epoch_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record_shape(&self, m: usize, n: usize, k: usize, elem: usize, entries: u64, ns: u64) {
        let h = m
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(n.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            .wrapping_add(k.wrapping_mul(0x1656_67B1_9E37_79F9))
            .wrapping_add(elem);
        for probe in 0..SHAPE_SLOTS {
            let slot = &self.slots[(h + probe) & (SHAPE_SLOTS - 1)];
            match slot.state.load(Ordering::Acquire) {
                SLOT_READY if slot.matches(m, n, k, elem) => {
                    slot.bump(entries, ns);
                    return;
                }
                SLOT_EMPTY => {
                    match slot.state.compare_exchange(
                        SLOT_EMPTY,
                        SLOT_CLAIMED,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => {
                            slot.m.store(m, Ordering::Relaxed);
                            slot.n.store(n, Ordering::Relaxed);
                            slot.k.store(k, Ordering::Relaxed);
                            slot.elem_bytes.store(elem, Ordering::Relaxed);
                            slot.state.store(SLOT_READY, Ordering::Release);
                            slot.bump(entries, ns);
                            return;
                        }
                        Err(SLOT_READY) => {
                            if slot.matches(m, n, k, elem) {
                                slot.bump(entries, ns);
                                return;
                            }
                        }
                        // Claimed by a concurrent inserter whose key we
                        // cannot read yet: probe on. A racing insert of
                        // the same shape may land in two slots; the
                        // snapshot merges duplicates by key.
                        Err(_) => {}
                    }
                }
                // SLOT_CLAIMED: key not yet published; probe on.
                _ => {}
            }
        }
        self.dropped_shapes.fetch_add(entries, Ordering::Relaxed);
    }

    /// Aggregate every shard and the shape table into a report.
    ///
    /// `runtime`, `pool`, and `arena` snapshots are provided by the
    /// owning [`crate::Smm`] so the report is one self-contained
    /// document.
    pub fn report(
        &self,
        runtime: RuntimeStats,
        pool: PoolStats,
        arena: ArenaStats,
    ) -> TelemetryReport {
        let mut phases: Vec<PhaseReport> = Phase::ALL
            .iter()
            .map(|&p| PhaseReport {
                phase: p,
                histogram: LatencyHistogram::new(),
            })
            .collect();
        let mut site_phase_ns = [[0u64; NUM_PHASES]; NUM_SITES];
        let mut site_calls = [0u64; NUM_SITES];
        let mut packed_bytes = 0u64;
        let mut flops = 0u64;
        for shard in &self.shards {
            // A phase's count is its bucket mass and its total the sum
            // of its per-site totals, so neither needs its own counter.
            let mut shard_site_ns = [[0u64; NUM_PHASES]; NUM_SITES];
            for (si, row) in shard_site_ns.iter_mut().enumerate() {
                for (pi, cell) in row.iter_mut().enumerate() {
                    *cell = shard.site_phase_ns[si][pi].load(Ordering::Relaxed);
                    site_phase_ns[si][pi] += *cell;
                }
                site_calls[si] += shard.site_calls[si].load(Ordering::Relaxed);
            }
            for (pi, pr) in phases.iter_mut().enumerate() {
                let mut h = LatencyHistogram::new();
                for (bi, b) in h.buckets.iter_mut().enumerate() {
                    *b = shard.hist[pi][bi].load(Ordering::Relaxed);
                }
                h.count = h.buckets.iter().sum();
                if h.count == 0 {
                    continue;
                }
                h.sum_ns = shard_site_ns.iter().map(|row| row[pi]).sum();
                h.min_ns = shard.phase_min[pi].load(Ordering::Relaxed);
                h.max_ns = shard.phase_max[pi].load(Ordering::Relaxed);
                pr.histogram.merge(&h);
            }
            packed_bytes += shard.packed_bytes.load(Ordering::Relaxed);
            flops += shard.flops.load(Ordering::Relaxed);
        }

        let sites: Vec<SiteBreakdown> = CallSite::ALL
            .iter()
            .map(|&s| {
                let row = &site_phase_ns[s.index()];
                SiteBreakdown::from_phase_ns(s, site_calls[s.index()], row)
            })
            .collect();

        // Merge shape slots (duplicates from racing inserts collapse).
        let spec = MachineSpec::phytium_2000_plus();
        let mut merged: Vec<ShapeReport> = Vec::new();
        for slot in &self.slots {
            if slot.state.load(Ordering::Acquire) != SLOT_READY {
                continue;
            }
            let (m, n, k, elem) = (
                slot.m.load(Ordering::Relaxed),
                slot.n.load(Ordering::Relaxed),
                slot.k.load(Ordering::Relaxed),
                slot.elem_bytes.load(Ordering::Relaxed),
            );
            let calls = slot.calls.load(Ordering::Relaxed);
            let total_ns = slot.total_ns.load(Ordering::Relaxed);
            if calls == 0 {
                continue;
            }
            if let Some(existing) = merged
                .iter_mut()
                .find(|r| r.m == m && r.n == n && r.k == k && r.elem_bytes == elem)
            {
                existing.calls += calls;
                existing.total_ns += total_ns;
            } else {
                let prec = if elem == 8 {
                    Precision::F64
                } else {
                    Precision::F32
                };
                let kernel = choose_kernel(m, n, k);
                let eff = kernel.chain_bound_efficiency(spec.lanes(prec), FMA_LATENCY);
                merged.push(ShapeReport {
                    m,
                    n,
                    k,
                    elem_bytes: elem,
                    calls,
                    total_ns,
                    achieved_gflops: 0.0,
                    predicted_gflops: eff * spec.peak_gflops(prec, 1),
                    model_fraction: 0.0,
                    p2c: p2c_as_published(m, n),
                });
            }
        }

        let mut report = TelemetryReport {
            enabled: self.enabled,
            runtime,
            pool,
            arena,
            phases,
            sites,
            shapes: merged,
            packed_bytes,
            flops,
            observed_p2c: 0.0,
            rate: self.rate.report(self.epoch_ns()),
            slow: Vec::new(),
            dropped_shapes: self.dropped_shapes.load(Ordering::Relaxed),
            tuner: TunerStats::default(),
        };
        report.derive();
        report
    }

    /// Observed traffic per shape from the lock-free shape table:
    /// `((m, n, k), calls)` pairs for every ready slot. This is what
    /// [`crate::Smm::flush_plan_db`] folds into the plan database so
    /// shape popularity survives restarts and drives pre-warming.
    pub fn shape_calls(&self) -> Vec<((usize, usize, usize), u64)> {
        let mut out: Vec<((usize, usize, usize), u64)> = Vec::new();
        for slot in &self.slots {
            if slot.state.load(Ordering::Acquire) != SLOT_READY {
                continue;
            }
            let key = (
                slot.m.load(Ordering::Relaxed),
                slot.n.load(Ordering::Relaxed),
                slot.k.load(Ordering::Relaxed),
            );
            let calls = slot.calls.load(Ordering::Relaxed);
            if calls == 0 {
                continue;
            }
            // Duplicate slots from racing inserts collapse here, same
            // as in `report`.
            if let Some(existing) = out.iter_mut().find(|(k2, _)| *k2 == key) {
                existing.1 += calls;
            } else {
                out.push((key, calls));
            }
        }
        out
    }
}

/// A copyable recording handle bound to one call site.
///
/// The inactive handle ([`Recorder::none`] or a disabled registry) does
/// not read the clock and performs no atomic operations.
#[derive(Clone, Copy)]
pub struct Recorder<'a> {
    tel: Option<&'a Telemetry>,
    site: CallSite,
}

impl<'a> Recorder<'a> {
    /// A handle that records nothing.
    pub fn none() -> Self {
        Recorder {
            tel: None,
            site: CallSite::Direct,
        }
    }

    /// Whether this handle records.
    pub fn active(&self) -> bool {
        self.tel.is_some()
    }

    /// Read the clock iff recording (`None` otherwise) — the inactive
    /// hot path must not pay for `Instant::now`.
    pub fn now(&self) -> Option<Instant> {
        self.tel.map(|_| Instant::now())
    }

    /// Record the span from `start` (a [`Recorder::now`] result) to the
    /// present; returns the span length in ns (0 when inactive).
    pub fn span_since(&self, phase: Phase, start: Option<Instant>) -> u64 {
        match (self.tel, start) {
            (Some(tel), Some(t0)) => {
                let ns = t0.elapsed().as_nanos() as u64;
                tel.record_span(self.site, phase, ns);
                ns
            }
            _ => 0,
        }
    }

    /// Record a span of known length.
    pub fn span_ns(&self, phase: Phase, ns: u64) {
        if let Some(tel) = self.tel {
            tel.record_span(self.site, phase, ns);
        }
    }

    /// Account bytes written by packing.
    pub fn packed_bytes(&self, bytes: u64) {
        if let Some(tel) = self.tel {
            tel.add_packed_bytes(bytes);
        }
    }
}

impl std::fmt::Debug for Recorder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("active", &self.active())
            .field("site", &self.site.name())
            .finish()
    }
}

/// Latency histogram of one phase, with derived quantiles.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// The phase.
    pub phase: Phase,
    /// Merged histogram across all shards.
    pub histogram: LatencyHistogram,
}

/// Table-II-style overhead breakdown for one call site.
#[derive(Debug, Clone)]
pub struct SiteBreakdown {
    /// The call site.
    pub site: CallSite,
    /// API calls recorded at this site (one batched call counts once).
    pub calls: u64,
    /// Accumulated ns per phase (indexed like [`Phase::ALL`]).
    pub phase_ns: [u64; NUM_PHASES],
    /// Packing share of pack+compute+sync time, in percent.
    pub pack_pct: f64,
    /// Compute share, in percent.
    pub compute_pct: f64,
    /// Synchronization share, in percent.
    pub sync_pct: f64,
}

impl SiteBreakdown {
    fn from_phase_ns(site: CallSite, calls: u64, phase_ns: &[u64; NUM_PHASES]) -> Self {
        let pack = phase_ns[Phase::PackA.index()] + phase_ns[Phase::PackB.index()];
        let compute = phase_ns[Phase::Compute.index()];
        let sync = phase_ns[Phase::Sync.index()];
        let total = (pack + compute + sync) as f64;
        let pct = |x: u64| ratio(x as f64, total) * 100.0;
        SiteBreakdown {
            site,
            calls,
            phase_ns: *phase_ns,
            pack_pct: pct(pack),
            compute_pct: pct(compute),
            sync_pct: pct(sync),
        }
    }
}

/// Per-shape achieved throughput against the machine model.
#[derive(Debug, Clone)]
pub struct ShapeReport {
    /// Rows of `A`/`C`.
    pub m: usize,
    /// Columns of `B`/`C`.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// Scalar width in bytes (4 = f32, 8 = f64).
    pub elem_bytes: usize,
    /// GEMMs executed on this shape (batch entries count individually).
    pub calls: u64,
    /// Accumulated end-to-end wall time.
    pub total_ns: u64,
    /// Achieved Gflops/s (`2mnk · calls / total_ns`).
    pub achieved_gflops: f64,
    /// `smm-model` single-core prediction: chain-bound efficiency of
    /// the adaptively chosen kernel × Phytium 2000+ one-core peak.
    pub predicted_gflops: f64,
    /// `achieved / predicted` (the Fig. 7 efficiency-gap view).
    pub model_fraction: f64,
    /// The paper's Eq. 3 P2C for the shape.
    pub p2c: f64,
}

/// A full snapshot of telemetry, runtime, and pool state.
///
/// Serializable to JSON ([`TelemetryReport::to_json`]) and to a
/// Prometheus-style text exposition
/// ([`TelemetryReport::to_prometheus`]); `Display` renders a compact
/// human-readable summary.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Whether the source registry was recording.
    pub enabled: bool,
    /// Plan-cache counters of the owning `Smm`.
    pub runtime: RuntimeStats,
    /// Worker-pool counters.
    pub pool: PoolStats,
    /// Packing-arena counters (hits, misses, allocated bytes): a
    /// warmed-up steady state shows hits climbing while misses and
    /// `alloc_bytes` stay flat — the zero-allocation evidence.
    pub arena: ArenaStats,
    /// Per-phase latency histograms.
    pub phases: Vec<PhaseReport>,
    /// Per-call-site overhead breakdowns.
    pub sites: Vec<SiteBreakdown>,
    /// Per-shape throughput vs. model, sorted by call count.
    pub shapes: Vec<ShapeReport>,
    /// Total bytes written by packing.
    pub packed_bytes: u64,
    /// Total useful flops (`2mnk` per GEMM).
    pub flops: u64,
    /// Observed packing-to-computing ratio (Eq. 1/Eq. 2 with measured
    /// packed bytes and executed flops).
    pub observed_p2c: f64,
    /// Windowed rate estimators (req/s, Gflops/s, p99 trend) over the
    /// registry's sliding window.
    pub rate: RateReport,
    /// Worst-K slow-request exemplars (filled by the owning `Smm` from
    /// its tracer; empty when tracing is off or nothing breached).
    pub slow: Vec<TraceExemplar>,
    /// Shape records dropped because the shape table was full.
    pub dropped_shapes: u64,
    /// Two-stage tuner counters (database hits, nearest-neighbor
    /// matches, online refinements, delta persistence; filled by the
    /// owning `Smm`, zero when no plan database is loaded).
    pub tuner: TunerStats,
}

impl TelemetryReport {
    /// Total recorded span count of a phase.
    pub fn phase_count(&self, phase: Phase) -> u64 {
        self.phases[phase.index()].histogram.count
    }

    /// Total recorded ns of a phase.
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.phases[phase.index()].histogram.sum_ns
    }

    /// The breakdown row of one call site.
    pub fn site(&self, site: CallSite) -> &SiteBreakdown {
        &self.sites[site.index()]
    }

    /// Serialize to a self-contained JSON document (std-only writer;
    /// histogram buckets are emitted sparsely as `[upper_bound, count]`
    /// pairs). The series and their keys are declared in
    /// [`crate::metrics`].
    pub fn to_json(&self) -> String {
        metrics::document(self)
    }

    /// Serialize to a Prometheus text exposition (counter, gauge, and
    /// cumulative-histogram families under the `smm_` namespace).
    ///
    /// Every phase gets the *full* bucket ladder — one cumulative
    /// `_bucket{le=...}` series per boundary on every scrape, zero
    /// counts included, closed by `le="+Inf"` plus `_sum`/`_count` — so
    /// the label set is stable across scrapes and
    /// `histogram_quantile()` works. Each family is one contiguous
    /// block under its own `# TYPE` line.
    pub fn to_prometheus(&self) -> String {
        let mut s = String::with_capacity(16384);
        metrics::prometheus(&mut s, self.phases.iter().map(|r| (r.labels(), r)));
        metrics::prometheus(&mut s, self.sites.iter().map(|r| (r.labels(), r)));
        metrics::prometheus(&mut s, self.shapes.iter().map(|r| (r.labels(), r)));
        metrics::prometheus(&mut s, std::iter::once((String::new(), self)));
        s
    }

    /// Fold `other` into `self`, producing the fleet-wide view of N
    /// independent runtime shards: each series merges by its declared
    /// [`Merge`](crate::metrics::Merge) rule — counters and histograms
    /// sum, high-water marks take the max, the process-global arena
    /// counters are carried once, per-shape rows merge by shape key —
    /// and ratios are then recomputed from the merged raw counts. This
    /// is what the sharded serving layer uses to aggregate per-shard
    /// [`TelemetryReport`]s into one report behind the `STATS` opcode.
    pub fn absorb(&mut self, other: &TelemetryReport) {
        metrics::fold(self, other);
        self.derive();
    }

    /// Recompute what follows from the raw counts — each site's shares,
    /// each shape's achieved rate and model fraction, the observed P2C
    /// — and keep the worst [`EXEMPLAR_CAP`] exemplars. A snapshot and
    /// a merge both end here.
    fn derive(&mut self) {
        for sb in &mut self.sites {
            *sb = SiteBreakdown::from_phase_ns(sb.site, sb.calls, &sb.phase_ns);
        }
        for r in &mut self.shapes {
            let flops = 2.0 * r.m as f64 * r.n as f64 * r.k as f64 * r.calls as f64;
            r.achieved_gflops = ratio(flops, r.total_ns as f64);
            r.model_fraction = ratio(r.achieved_gflops, r.predicted_gflops);
        }
        self.shapes.sort_by_key(|r| Reverse((r.calls, r.total_ns)));
        // Observed P2C with the paper's Eq. 1/2 widths: packed vector
        // loads (one per SIMD register of packed bytes) over FMA
        // instructions (one per `fma_width` MACs).
        let spec = MachineSpec::phytium_2000_plus();
        let loads = self.packed_bytes as f64 / spec.simd_bytes as f64;
        let fmas = (self.flops as f64 / 2.0) / spec.fma_width(Precision::F32) as f64;
        self.observed_p2c = ratio(loads, fmas);
        self.slow.sort_by_key(|e| Reverse(e.total_ns));
        self.slow.truncate(EXEMPLAR_CAP);
    }
}

/// `x / y`, or 0 when `y` is not positive.
fn ratio(x: f64, y: f64) -> f64 {
    if y > 0.0 {
        x / y
    } else {
        0.0
    }
}

impl std::fmt::Display for TelemetryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "telemetry report ({})",
            if self.enabled { "enabled" } else { "disabled" }
        )?;
        writeln!(
            f,
            "  plans: {} hits / {} misses / {} evictions, {} resident; pool: {} workers, queue hw {}, {} wakeups, {} inline-drained",
            self.runtime.plan_hits,
            self.runtime.plan_misses,
            self.runtime.plan_evictions,
            self.runtime.cached_plans,
            self.pool.workers,
            self.pool.queue_highwater,
            self.pool.worker_wakeups,
            self.pool.inline_drained,
        )?;
        writeln!(
            f,
            "  arena: {} hits / {} misses ({:.2}% hit rate), {} bytes allocated",
            self.arena.hits,
            self.arena.misses,
            self.arena.hit_rate() * 100.0,
            self.arena.alloc_bytes,
        )?;
        writeln!(f, "  phase latency (ns):")?;
        for pr in &self.phases {
            let h = &pr.histogram;
            if h.count == 0 {
                continue;
            }
            writeln!(
                f,
                "    {:<12} n={:<9} mean={:<10.0} p50={:<8} p99={:<10} max={}",
                pr.phase.name(),
                h.count,
                h.mean_ns(),
                h.quantile(0.50),
                h.quantile(0.99),
                h.max_ns
            )?;
        }
        writeln!(
            f,
            "  overhead breakdown (pack/compute/sync, % of phase time):"
        )?;
        for sb in &self.sites {
            if sb.calls == 0 {
                continue;
            }
            writeln!(
                f,
                "    {:<12} calls={:<8} pack={:>5.1}%  compute={:>5.1}%  sync={:>5.1}%",
                sb.site.name(),
                sb.calls,
                sb.pack_pct,
                sb.compute_pct,
                sb.sync_pct
            )?;
        }
        writeln!(
            f,
            "  observed P2C = {:.4} ({} packed bytes / {} flops)",
            self.observed_p2c, self.packed_bytes, self.flops
        )?;
        if self.tuner.lookups() > 0 || self.tuner.db_entries > 0 {
            writeln!(
                f,
                "  tuner: {} db entries, {} db hits / {} nn matches / {} refines / {} untuned ({:.1}% db coverage), deltas {} pending / {} persisted",
                self.tuner.db_entries,
                self.tuner.db_hits,
                self.tuner.nn_matches,
                self.tuner.online_refines,
                self.tuner.untuned_builds,
                self.tuner.db_coverage() * 100.0,
                self.tuner.pending_deltas,
                self.tuner.persisted_deltas,
            )?;
        }
        writeln!(
            f,
            "  rate window ({:.1}s, {:.1}s covered): {:.1} req/s, {:.3} Gflops/s, p99 now {} ns, p99 trend {:+.0} ns/s",
            self.rate.window_secs,
            self.rate.covered_secs,
            self.rate.req_per_sec,
            self.rate.gflops_per_sec,
            self.rate.p99_now_ns,
            self.rate.p99_trend_ns_per_sec,
        )?;
        writeln!(f, "  shapes (achieved vs. model single-core prediction):")?;
        for r in self.shapes.iter().take(8) {
            writeln!(
                f,
                "    {:>4}x{:<4}x{:<5} calls={:<8} {:>8.3} Gflops vs {:>7.3} predicted ({:>5.1}% of model), P2C {:.3}",
                r.m,
                r.n,
                r.k,
                r.calls,
                r.achieved_gflops,
                r.predicted_gflops,
                r.model_fraction * 100.0,
                r.p2c
            )?;
        }
        if !self.slow.is_empty() {
            writeln!(f, "  slow-request exemplars (worst first):")?;
            for e in &self.slow {
                writeln!(
                    f,
                    "    trace {} [{}]: {} ns end-to-end, {} spans",
                    e.trace,
                    e.label,
                    e.total_ns,
                    e.spans.len()
                )?;
                // Indent children under their in-tree parent; parents
                // outside this trace (the coalesced-batch span) render
                // at the root level.
                for sp in &e.spans {
                    let depth = {
                        let mut d = 0usize;
                        let mut parent = sp.parent;
                        while parent != 0 && d < 8 {
                            match e.spans.iter().find(|c| c.span == parent) {
                                Some(p) => {
                                    d += 1;
                                    parent = p.parent;
                                }
                                None => break,
                            }
                        }
                        d
                    };
                    writeln!(
                        f,
                        "      {:indent$}{} tid={} +{} ns for {} ns",
                        "",
                        sp.name.name(),
                        sp.tid,
                        sp.start_ns,
                        sp.dur_ns,
                        indent = depth * 2
                    )?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_gemm::pool::PoolStats;

    fn empty_runtime() -> RuntimeStats {
        RuntimeStats {
            plan_hits: 0,
            plan_misses: 0,
            plan_evictions: 0,
            cached_plans: 0,
            pool_workers: 0,
        }
    }

    fn empty_pool() -> PoolStats {
        PoolStats {
            workers: 0,
            queue_highwater: 0,
            worker_wakeups: 0,
            worker_tasks: 0,
            inline_drained: 0,
            park_ns: 0,
            scoped_calls: 0,
        }
    }

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 0);
        assert_eq!(LatencyHistogram::bucket_index(2), 1);
        assert_eq!(LatencyHistogram::bucket_index(3), 1);
        assert_eq!(LatencyHistogram::bucket_index(4), 2);
        assert_eq!(LatencyHistogram::bucket_index(1023), 9);
        assert_eq!(LatencyHistogram::bucket_index(1024), 10);
        assert_eq!(LatencyHistogram::bucket_upper_bound(0), 1);
        assert_eq!(LatencyHistogram::bucket_upper_bound(9), 1023);
    }

    #[test]
    fn overflow_bucket_saturates() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 60);
        h.record(1u64 << (HISTOGRAM_BUCKETS - 1));
        assert_eq!(h.buckets[HISTOGRAM_BUCKETS - 1], 3);
        assert_eq!(h.count, 3);
        assert_eq!(h.max_ns, u64::MAX);
        assert_eq!(
            LatencyHistogram::bucket_upper_bound(HISTOGRAM_BUCKETS - 1),
            u64::MAX
        );
        // Sum saturates rather than wrapping.
        assert_eq!(h.sum_ns, u64::MAX);
    }

    #[test]
    fn merge_is_exact() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for v in [0u64, 1, 5, 100, 1000, 1_000_000] {
            a.record(v);
            whole.record(v);
        }
        for v in [3u64, 100, 40_000] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        // Merging an empty histogram changes nothing.
        let before = a.clone();
        a.merge(&LatencyHistogram::new());
        assert_eq!(a, before);
    }

    #[test]
    fn quantiles_on_known_distribution() {
        let mut h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(100); // bucket [64, 128)
        }
        for _ in 0..100 {
            h.record(10_000); // bucket [8192, 16384)
        }
        assert_eq!(h.quantile(0.25), 127);
        assert_eq!(h.quantile(0.50), 127);
        assert_eq!(h.quantile(0.75), 10_000); // clamped to max_ns
        assert_eq!(h.quantile(0.99), 10_000);
        assert_eq!(h.quantile(0.0), 127);
        assert_eq!(h.min_ns, 100);
        assert_eq!(h.max_ns, 10_000);
        // Constant distribution: every quantile equals the value
        // (bucket bound clamped to the observed range).
        let mut c = LatencyHistogram::new();
        for _ in 0..1000 {
            c.record(100);
        }
        for q in [0.0, 0.5, 0.9, 0.999, 1.0] {
            assert_eq!(c.quantile(q), 100);
        }
        assert_eq!(LatencyHistogram::new().quantile(0.5), 0);
    }

    #[test]
    fn shards_merge_across_threads() {
        let tel = Telemetry::new(true);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let tel = &tel;
                s.spawn(move || {
                    for i in 0..50 {
                        tel.record_span(CallSite::Gemm, Phase::Compute, t * 1000 + i);
                    }
                });
            }
        });
        let r = tel.report(empty_runtime(), empty_pool(), ArenaStats::default());
        let h = &r.phases[Phase::Compute.index()].histogram;
        assert_eq!(h.count, 400);
        let want_sum: u64 = (0..8u64)
            .flat_map(|t| (0..50).map(move |i| t * 1000 + i))
            .sum();
        assert_eq!(h.sum_ns, want_sum);
        assert_eq!(h.min_ns, 0);
        assert_eq!(h.max_ns, 7049);
        assert_eq!(
            r.site(CallSite::Gemm).phase_ns[Phase::Compute.index()],
            want_sum
        );
    }

    #[test]
    fn shape_table_merges_concurrent_inserts() {
        let tel = Telemetry::new(true);
        std::thread::scope(|s| {
            for t in 0..8 {
                let tel = &tel;
                s.spawn(move || {
                    for i in 0..100 {
                        tel.record_call(CallSite::Gemm, 8, 8, 8, 4, 1, 10);
                        tel.record_call(CallSite::Gemm, 4 + (t % 2), 4, 4, 4, 1, 20 + i % 3);
                    }
                });
            }
        });
        let r = tel.report(empty_runtime(), empty_pool(), ArenaStats::default());
        assert_eq!(r.dropped_shapes, 0);
        assert!(r.shapes.len() <= 3, "shapes {:?}", r.shapes.len());
        let s888 = r
            .shapes
            .iter()
            .find(|s| (s.m, s.n, s.k) == (8, 8, 8))
            .expect("8x8x8 present");
        assert_eq!(s888.calls, 800);
        assert_eq!(s888.total_ns, 8000);
        assert!(s888.achieved_gflops > 0.0);
        assert!(s888.predicted_gflops > 0.0);
        assert!((s888.p2c - p2c_as_published(8, 8)).abs() < 1e-12);
    }

    #[test]
    fn shape_table_saturation_counts_drops() {
        let tel = Telemetry::new(true);
        for m in 0..SHAPE_SLOTS + 50 {
            tel.record_call(CallSite::Gemm, m + 1, 3, 3, 4, 1, 5);
        }
        let r = tel.report(empty_runtime(), empty_pool(), ArenaStats::default());
        assert_eq!(r.shapes.len(), SHAPE_SLOTS);
        assert_eq!(r.dropped_shapes, 50);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let tel = Telemetry::new(false);
        let rec = tel.recorder(CallSite::Gemm);
        assert!(!rec.active());
        assert!(rec.now().is_none());
        rec.span_ns(Phase::Compute, 100);
        rec.packed_bytes(64);
        tel.record_call(CallSite::Gemm, 8, 8, 8, 4, 1, 10);
        let r = tel.report(empty_runtime(), empty_pool(), ArenaStats::default());
        assert!(!r.enabled);
        assert_eq!(r.phase_count(Phase::Compute), 0);
        // record_call bypasses the recorder gate (callers must check);
        // Smm only invokes it through an active recorder path.
        assert_eq!(r.packed_bytes, 0);
    }

    #[test]
    fn breakdown_percentages_sum_to_100() {
        let tel = Telemetry::new(true);
        tel.record_span(CallSite::GemmBatch, Phase::PackA, 100);
        tel.record_span(CallSite::GemmBatch, Phase::PackB, 150);
        tel.record_span(CallSite::GemmBatch, Phase::Compute, 600);
        tel.record_span(CallSite::GemmBatch, Phase::Sync, 150);
        tel.record_span(CallSite::GemmBatch, Phase::Dispatch, 950);
        let r = tel.report(empty_runtime(), empty_pool(), ArenaStats::default());
        let sb = r.site(CallSite::GemmBatch);
        assert!((sb.pack_pct - 25.0).abs() < 1e-9);
        assert!((sb.compute_pct - 60.0).abs() < 1e-9);
        assert!((sb.sync_pct - 15.0).abs() < 1e-9);
        assert!((sb.pack_pct + sb.compute_pct + sb.sync_pct - 100.0).abs() < 1e-9);
        // Dispatch is reported alongside but not part of the 100%.
        assert_eq!(sb.phase_ns[Phase::Dispatch.index()], 950);
    }

    #[test]
    fn json_and_prometheus_smoke() {
        let tel = Telemetry::new(true);
        tel.record_span(CallSite::Gemm, Phase::Compute, 500);
        tel.record_span(CallSite::Gemm, Phase::PlanLookup, 80);
        tel.add_packed_bytes(1024);
        tel.record_call(CallSite::Gemm, 16, 16, 16, 4, 1, 700);
        let arena = ArenaStats {
            hits: 198,
            misses: 2,
            alloc_bytes: 4096,
        };
        let r = tel.report(empty_runtime(), empty_pool(), arena);
        let j = r.to_json();
        assert!(j.contains("\"compute\""), "{j}");
        assert!(j.contains("\"observed_p2c\""));
        assert!(j.contains("\"m\": 16"));
        assert!(j.contains("\"packed_bytes\": 1024"));
        assert!(j.contains("\"arena\": {\"hits\": 198, \"misses\": 2, \"alloc_bytes\": 4096"));
        let p = r.to_prometheus();
        assert!(p.contains("smm_phase_latency_ns_bucket{phase=\"compute\""));
        assert!(p.contains("le=\"+Inf\"} 1"));
        assert!(p.contains("smm_calls_total{site=\"gemm\"} 1"));
        assert!(p.contains("smm_shape_gflops{m=\"16\",n=\"16\",k=\"16\"}"));
        assert!(p.contains("smm_packed_bytes_total 1024"));
        assert!(p.contains("smm_arena_hits_total 198"));
        assert!(p.contains("smm_arena_misses_total 2"));
        assert!(p.contains("smm_arena_alloc_bytes_total 4096"));
        assert!(p.contains("smm_arena_hit_rate 0.99"));
        let d = format!("{r}");
        assert!(d.contains("observed P2C"));
        assert!(d.contains("arena: 198 hits / 2 misses"));
        assert!(d.contains("rate window"));
    }

    #[test]
    fn prometheus_histograms_expose_the_full_cumulative_ladder() {
        let tel = Telemetry::new(true);
        // Two compute spans far apart: buckets between them are empty
        // but must still be exposed (cumulative, stable label set).
        tel.record_span(CallSite::Gemm, Phase::Compute, 3); // bucket [2,4)
        tel.record_span(CallSite::Gemm, Phase::Compute, 5000); // bucket [4096,8192)
        let r = tel.report(empty_runtime(), empty_pool(), ArenaStats::default());
        let p = r.to_prometheus();
        let buckets: Vec<(u64, u64)> = p
            .lines()
            .filter_map(|l| {
                let rest = l.strip_prefix("smm_phase_latency_ns_bucket{phase=\"compute\",le=\"")?;
                let (le, val) = rest.split_once("\"} ")?;
                Some((le.parse().ok()?, val.parse().ok()?))
            })
            .collect();
        assert_eq!(
            buckets.len(),
            HISTOGRAM_BUCKETS,
            "every finite bucket boundary is exposed on every scrape"
        );
        // Cumulative and monotone: 0 below the first sample, 1 between
        // the two, 2 at and above the second, ending at count.
        assert!(buckets.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(buckets[0], (1, 0), "empty leading bucket still present");
        let at = |ns: u64| buckets.iter().find(|(le, _)| *le >= ns).unwrap().1;
        assert_eq!(at(3), 1);
        assert_eq!(at(5000), 2);
        assert_eq!(buckets.last().unwrap().1, 2);
        assert!(p.contains("smm_phase_latency_ns_bucket{phase=\"compute\",le=\"+Inf\"} 2"));
        // Empty phases expose the ladder too (all zeros).
        assert!(p.contains("smm_phase_latency_ns_bucket{phase=\"reply\",le=\"+Inf\"} 0"));
        // Every sample family has a TYPE line naming it exactly.
        for family in [
            "smm_plan_cache_hits_total",
            "smm_pool_workers",
            "smm_arena_hit_rate",
            "smm_rate_req_per_sec",
            "smm_rate_p99_trend_ns_per_sec",
        ] {
            assert!(
                p.contains(&format!("# TYPE {family} ")),
                "missing TYPE for {family}"
            );
        }
    }

    #[test]
    fn rate_window_rides_along_in_reports() {
        let tel = Telemetry::with_rate_window(true, Duration::from_secs(8));
        for _ in 0..50 {
            tel.record_call(CallSite::Serve, 8, 8, 8, 4, 1, 10_000);
        }
        let r = tel.report(empty_runtime(), empty_pool(), ArenaStats::default());
        assert!(r.rate.req_per_sec > 0.0, "{:?}", r.rate);
        assert!(r.rate.gflops_per_sec > 0.0);
        assert!(r.rate.live_slots >= 1);
        assert_eq!(r.rate.mean_ns, 10_000);
        let j = r.to_json();
        assert!(j.contains("\"rate\": {\"window_secs\": 8.000000"));
        assert!(j.contains("\"slow\": ["));
        // Disabled registries never tick the window.
        let off = Telemetry::new(false);
        off.record_call(CallSite::Serve, 8, 8, 8, 4, 1, 10_000);
        let r = off.report(empty_runtime(), empty_pool(), ArenaStats::default());
        assert_eq!(r.rate.live_slots, 0);
        assert_eq!(r.rate.req_per_sec, 0.0);
    }

    #[test]
    fn absorb_carries_the_process_arena_once_and_the_worst_exemplars() {
        // Every shard reads the same process-global arena counters.
        let arena = ArenaStats {
            hits: 4,
            misses: 20,
            alloc_bytes: 11_824,
        };
        let exemplar = |trace: u64, total_ns: u64| TraceExemplar {
            trace,
            total_ns,
            label: format!("serve {trace}"),
            spans: Vec::new(),
        };
        let shard = |first: u64| {
            let mut r = Telemetry::new(true).report(empty_runtime(), empty_pool(), arena);
            r.slow = (first..first + 3).map(|t| exemplar(t, t * 1000)).collect();
            r
        };
        let mut fleet = shard(1);
        for first in [10, 20, 30] {
            fleet.absorb(&shard(first));
        }
        assert_eq!(fleet.arena, arena, "arena counted once per process");
        let worst: Vec<u64> = fleet.slow.iter().map(|e| e.trace).collect();
        assert_eq!(worst, [32, 31, 30, 22], "worst EXEMPLAR_CAP, worst first");
        assert_eq!(fleet.slow.len(), EXEMPLAR_CAP);
    }

    #[test]
    fn observed_p2c_uses_paper_widths() {
        let tel = Telemetry::new(true);
        // 1 GEMM of 8x8x8: flops = 1024, MACs = 512, fmas = 512/8 = 64.
        // 1024 packed bytes = 64 vector loads -> P2C = 1.0.
        tel.add_packed_bytes(1024);
        tel.record_call(CallSite::Gemm, 8, 8, 8, 4, 1, 100);
        let r = tel.report(empty_runtime(), empty_pool(), ArenaStats::default());
        assert!((r.observed_p2c - 1.0).abs() < 1e-9, "{}", r.observed_p2c);
    }
}
