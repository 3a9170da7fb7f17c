//! The public SMM entry point with plan caching.

use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use smm_gemm::matrix::{MatMut, MatRef};
use smm_gemm::pool::TaskPool;
use smm_kernels::Scalar;
use smm_tune::{PlanDb, PlanDbError};

use crate::exec::execute_with;
use crate::plan::{PlanConfig, SmmPlan};
use crate::runtime::{RuntimeStats, ShardedPlanCache, DEFAULT_PLAN_CAPACITY};
use crate::telemetry::{CallSite, Phase, Telemetry, TelemetryReport, DEFAULT_RATE_WINDOW};
use crate::trace::{shape_arg, AssembledSpan, SpanName, Tracer};
use crate::tune::{PlanSource, TunerStats};

/// Default slow-request threshold when tracing is enabled without an
/// explicit [`SmmBuilder::slow_trace_threshold`].
pub const DEFAULT_SLOW_TRACE_THRESHOLD: Duration = Duration::from_millis(10);

/// High-performance small-scale GEMM with adaptive, cached plans.
///
/// Implements the reference design of §IV of the paper: packing-optional
/// execution, a shape-tuned micro-kernel set with Fig. 8 edge packing,
/// plan generation in lieu of JIT code generation, and run-time
/// multi-dimensional parallelization. Plans are memoized in a sharded
/// read-mostly cache and multi-threaded execution runs on a persistent
/// worker pool, so the steady-state call path allocates no threads and
/// takes only a shared lock (see [`crate::runtime`]).
///
/// # Example
///
/// ```
/// use smm_core::Smm;
/// use smm_gemm::matrix::Mat;
///
/// let smm = Smm::<f32>::new();
/// let a = Mat::random(12, 7, 1);
/// let b = Mat::random(7, 9, 2);
/// let mut c = Mat::zeros(12, 9);
/// smm.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
/// ```
///
/// Construction goes through [`Smm::builder`]; [`Smm::new`] and
/// `Default` are thin wrappers over it.
pub struct Smm<S: Scalar> {
    cfg: PlanConfig,
    cache: ShardedPlanCache,
    source: PlanSource,
    persist_on_drop: bool,
    pool: TaskPool,
    telemetry: Telemetry,
    pub(crate) tracer: Tracer,
    _elem: PhantomData<S>,
}

/// Builder for [`Smm`] — the single construction path.
///
/// ```
/// use smm_core::Smm;
///
/// let smm = Smm::<f32>::builder()
///     .threads(4)
///     .cache_capacity(256)
///     .pack_a(Some(false))
///     .build();
/// assert_eq!(smm.config().max_threads, 4);
/// ```
#[derive(Debug, Clone)]
pub struct SmmBuilder<S: Scalar> {
    cfg: PlanConfig,
    cache_capacity: usize,
    telemetry: bool,
    tracing: bool,
    slow_trace_threshold: Duration,
    rate_window: Duration,
    plan_db: Option<(PlanDb, Option<PathBuf>)>,
    nn_threshold: Option<f64>,
    online_refine: bool,
    persist_on_drop: bool,
    _elem: PhantomData<S>,
}

impl<S: Scalar> SmmBuilder<S> {
    fn new() -> Self {
        // Runtime plans are sized for the register file that runs
        // them: the host's, for element types with SIMD tiles. Other
        // types run the scalar loops, which the NEON-sized plans suit
        // (a 512-bit plan's 32-row tiles would take the dynamic scalar
        // fallback). `PlanConfig::default()` stays the paper's NEON-128
        // for the simulated paths (tuning, figures).
        let isa = if S::SIMD_TILES {
            smm_model::VectorIsa::host()
        } else {
            smm_model::VectorIsa::neon128()
        };
        SmmBuilder {
            cfg: PlanConfig {
                isa,
                ..PlanConfig::default()
            },
            cache_capacity: DEFAULT_PLAN_CAPACITY,
            telemetry: true,
            tracing: false,
            slow_trace_threshold: DEFAULT_SLOW_TRACE_THRESHOLD,
            rate_window: DEFAULT_RATE_WINDOW,
            plan_db: None,
            nn_threshold: None,
            online_refine: true,
            persist_on_drop: true,
            _elem: PhantomData,
        }
    }

    /// Maximum threads a plan may use (clamped to at least 1). The
    /// model still decides how many of them a given shape deserves.
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.max_threads = threads.max(1);
        self
    }

    /// Bound on the number of memoized plans (0 = unbounded).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Force the `A`-packing decision (`None` = model-driven).
    pub fn pack_a(mut self, pack: Option<bool>) -> Self {
        self.cfg.pack_a = pack;
        self
    }

    /// Force the `B`-packing decision (`None` = model-driven).
    pub fn pack_b(mut self, pack: Option<bool>) -> Self {
        self.cfg.pack_b = pack;
        self
    }

    /// Toggle packing of N-edge slivers when `B` is otherwise unpacked
    /// (the Fig. 8 optimization; on by default).
    pub fn pack_edge_b(mut self, pack: bool) -> Self {
        self.cfg.pack_edge_b = pack;
        self
    }

    /// Execute on this pool instead of the process-wide
    /// [`TaskPool::global`] pool.
    pub fn pool(mut self, pool: TaskPool) -> Self {
        self.cfg.pool = Some(pool);
        self
    }

    /// Target vector ISA for plans. The default is the register file
    /// that executes them: for `f32`,
    /// [`VectorIsa::host`](smm_model::VectorIsa::host) — AVX-512 or
    /// AVX2 on x86-64 hosts that have them, the paper's NEON-128
    /// elsewhere; for `f64`, which runs the scalar loops, NEON-128.
    /// Widths with predication tile edges with one masked remainder
    /// instead of the greedy kernel cascade. The kernels themselves
    /// always run on the host's own implementation; the ISA sizes the
    /// tiles.
    pub fn isa(mut self, isa: smm_model::VectorIsa) -> Self {
        self.cfg.isa = isa;
        self
    }

    /// Replace the whole [`PlanConfig`] (retains the builder's cache
    /// capacity).
    pub fn config(mut self, cfg: PlanConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Toggle telemetry recording (on by default). The enabled hot
    /// path costs only per-thread relaxed atomics and a handful of
    /// clock reads per call — no locks; disabling reduces every record
    /// to a branch.
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Toggle request-scoped span tracing (off by default). When off,
    /// no tracer state is constructed and every trace operation on the
    /// hot path is a single branch with no clock read; when on, spans
    /// flow into the bounded flight recorder (see [`crate::trace`]).
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.tracing = enabled;
        self
    }

    /// Latency threshold above which a traced request's span tree is
    /// pinned as a slow-request exemplar (default 10 ms; only
    /// meaningful with [`SmmBuilder::tracing`] enabled).
    pub fn slow_trace_threshold(mut self, threshold: Duration) -> Self {
        self.slow_trace_threshold = threshold;
        self
    }

    /// Sliding window of the telemetry rate estimators (req/s,
    /// Gflops/s, p99 trend; default 8 s).
    pub fn rate_window(mut self, window: Duration) -> Self {
        self.rate_window = window;
        self
    }

    /// Load a persistent plan database from `path` (the output of
    /// `smm-tune sweep`). Plan-cache misses are then answered from the
    /// database — exact hit, else nearest-neighbor match, else online
    /// refinement — and refinements are persisted back to `path` on
    /// [`Smm::flush_plan_db`] or drop.
    ///
    /// The database must have been swept for this builder's ISA, so
    /// call [`SmmBuilder::isa`] *before* this; a foreign-ISA file is
    /// rejected with [`PlanDbError::IsaMismatch`], and every other form
    /// of corruption with its own typed error.
    pub fn plan_db(mut self, path: impl AsRef<Path>) -> Result<Self, PlanDbError> {
        let path = path.as_ref().to_path_buf();
        let db = PlanDb::load_for(&path, self.cfg.isa)?;
        self.plan_db = Some((db, Some(path)));
        Ok(self)
    }

    /// Use an in-memory plan database (no file persistence). Same
    /// staging rules as [`SmmBuilder::plan_db`]: the database's ISA
    /// must match the builder's.
    pub fn plan_db_handle(mut self, db: PlanDb) -> Result<Self, PlanDbError> {
        if db.isa() != self.cfg.isa {
            return Err(PlanDbError::IsaMismatch {
                db: db.isa().name,
                active: self.cfg.isa.name,
            });
        }
        self.plan_db = Some((db, None));
        Ok(self)
    }

    /// Acceptance threshold for nearest-neighbor matches, in log-space
    /// shape distance (default [`smm_tune::DEFAULT_NN_THRESHOLD`]).
    pub fn nn_threshold(mut self, threshold: f64) -> Self {
        self.nn_threshold = Some(threshold);
        self
    }

    /// Whether double misses (no exact hit, no NN match) pay for full
    /// online tuning and record the result as a persistable delta
    /// (default true). When false they build the plain heuristic plan.
    pub fn online_refine(mut self, refine: bool) -> Self {
        self.online_refine = refine;
        self
    }

    /// Whether dropping the instance best-effort flushes pending
    /// refinement deltas to the database file (default true; only
    /// meaningful with a path-backed [`SmmBuilder::plan_db`]).
    pub fn persist_on_drop(mut self, persist: bool) -> Self {
        self.persist_on_drop = persist;
        self
    }

    /// Construct the [`Smm`] instance.
    pub fn build(self) -> Smm<S> {
        let pool = self
            .cfg
            .pool
            .clone()
            .unwrap_or_else(|| TaskPool::global().clone());
        let mut source = match self.plan_db {
            Some((db, path)) => {
                // plan_db()/plan_db_handle() validated against the ISA
                // configured at that point; a later .isa() call would
                // silently cross-wire tuned kernels to another width.
                assert_eq!(
                    db.isa(),
                    self.cfg.isa,
                    "plan database ISA diverged from the configured ISA: \
                     call .isa(..) before .plan_db(..)"
                );
                PlanSource::with_db(db, path)
            }
            None => PlanSource::untuned(),
        };
        if let Some(t) = self.nn_threshold {
            source.set_nn_threshold(t);
        }
        source.set_refine_online(self.online_refine);
        Smm {
            cfg: self.cfg,
            cache: ShardedPlanCache::new(self.cache_capacity),
            source,
            persist_on_drop: self.persist_on_drop,
            pool,
            telemetry: Telemetry::with_rate_window(self.telemetry, self.rate_window),
            tracer: if self.tracing {
                Tracer::new(self.slow_trace_threshold)
            } else {
                Tracer::disabled()
            },
            _elem: PhantomData,
        }
    }
}

impl<S: Scalar> Smm<S> {
    /// Start building an instance.
    pub fn builder() -> SmmBuilder<S> {
        SmmBuilder::new()
    }

    /// Single-threaded SMM with model-driven decisions.
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// The active configuration.
    pub fn config(&self) -> &PlanConfig {
        &self.cfg
    }

    /// The pool executing this instance's multi-threaded plans.
    pub fn pool(&self) -> &TaskPool {
        &self.pool
    }

    /// Get (building and caching if needed) the plan for a shape.
    ///
    /// Cache misses are answered by the two-stage plan source: exact
    /// database hit, else nearest-neighbor match, else online tuning
    /// (recorded as a delta) — or the plain heuristic when no database
    /// is loaded.
    pub fn plan(&self, m: usize, n: usize, k: usize) -> Arc<SmmPlan> {
        self.cache
            .get_or_insert_with(m, n, k, || self.source.plan_for(m, n, k, &self.cfg))
    }

    /// Counters of the two-stage plan source (database hits, NN
    /// matches, online refinements, pending/persisted deltas).
    pub fn tuner_stats(&self) -> TunerStats {
        self.source.stats()
    }

    /// Persist pending refinement deltas and the telemetry shape
    /// table's observed traffic into the plan database (and its file,
    /// when loaded from a path). Returns the number of deltas
    /// persisted, `None` when there was nothing to do.
    pub fn flush_plan_db(&self) -> Result<Option<usize>, PlanDbError> {
        self.source.flush(&self.telemetry.shape_calls())
    }

    /// The hottest shapes by traffic recorded in the plan database —
    /// what a server should pre-warm at startup.
    pub fn hot_shapes(&self, limit: usize) -> Vec<(usize, usize, usize)> {
        self.source.hot_shapes(limit)
    }

    /// Number of distinct shapes planned so far.
    pub fn cached_plans(&self) -> usize {
        self.cache.len()
    }

    /// Runtime counters: plan-cache hits/misses/evictions, residency,
    /// and pool width.
    pub fn stats(&self) -> RuntimeStats {
        self.cache.stats(self.pool.workers())
    }

    /// This instance's telemetry registry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Full telemetry snapshot: per-phase latency histograms, a
    /// Table-II-style pack/compute/sync breakdown per call site,
    /// per-shape achieved throughput against the `smm-model`
    /// prediction, the observed P2C ratio, and the plan-cache,
    /// worker-pool, and packing-arena counters. Serializable via
    /// [`TelemetryReport::to_json`] and
    /// [`TelemetryReport::to_prometheus`].
    pub fn stats_report(&self) -> TelemetryReport {
        let mut report =
            self.telemetry
                .report(self.stats(), self.pool.stats(), smm_gemm::arena::stats());
        report.slow = self.tracer.exemplars();
        report.tuner = self.source.stats();
        report
    }

    /// This instance's request tracer (the disabled tracer unless
    /// [`SmmBuilder::tracing`] was set).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Drain the flight recorder into assembled spans (see
    /// [`crate::trace::chrome_trace_json`] for the Perfetto export).
    /// Empty when tracing is off.
    pub fn drain_trace(&self) -> Vec<AssembledSpan> {
        self.tracer.drain()
    }

    /// `C = alpha·A·B + beta·C`.
    pub fn gemm(
        &self,
        alpha: S,
        a: MatRef<'_, S>,
        b: MatRef<'_, S>,
        beta: S,
        mut c: MatMut<'_, S>,
    ) {
        let (m, n, k) = (a.rows(), b.cols(), a.cols());
        if m == 0 || n == 0 {
            return;
        }
        if k == 0 {
            c.scale(beta);
            return;
        }
        let _root = self.tracer.span(SpanName::Gemm, shape_arg(m, n, k));
        let rec = self.telemetry.recorder(CallSite::Gemm);
        let t0 = rec.now();
        let plan = self.plan(m, n, k);
        rec.span_since(Phase::PlanLookup, t0);
        let split = Some((&self.pool, &self.tracer));
        execute_with(split, &plan, rec, alpha, a, b, beta, c);
        if let Some(t0) = t0 {
            self.telemetry.record_call(
                CallSite::Gemm,
                m,
                n,
                k,
                std::mem::size_of::<S>(),
                1,
                t0.elapsed().as_nanos() as u64,
            );
        }
    }
}

impl<S: Scalar> Default for Smm<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Scalar> Drop for Smm<S> {
    /// Best-effort persistence of online refinements: deltas learned
    /// this run are what make the *next* process start warm, so they
    /// are flushed on shutdown unless [`SmmBuilder::persist_on_drop`]
    /// opted out. Errors are ignored — drop cannot report them, and an
    /// unsaved delta only costs a re-tune later.
    fn drop(&mut self) {
        if self.persist_on_drop && self.tuner_stats().pending_deltas > 0 {
            let _ = self.flush_plan_db();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_gemm::gemm_naive;
    use smm_gemm::matrix::Mat;

    #[test]
    fn gemm_matches_naive_over_shape_sweep() {
        let smm = Smm::<f32>::new();
        for &(m, n, k) in &[
            (5, 5, 5),
            (40, 40, 40),
            (2, 192, 192),
            (192, 2, 192),
            (192, 192, 2),
        ] {
            let a = Mat::<f32>::random(m, k, 31);
            let b = Mat::<f32>::random(k, n, 32);
            let mut c = Mat::<f32>::random(m, n, 33);
            let mut c_ref = c.clone();
            smm.gemm(1.0, a.as_ref(), b.as_ref(), 1.0, c.as_mut());
            gemm_naive(1.0, a.as_ref(), b.as_ref(), 1.0, c_ref.as_mut());
            assert!(c.max_abs_diff(&c_ref) < 1e-3, "{m}x{n}x{k}");
        }
    }

    #[test]
    fn plans_are_cached_per_shape() {
        let smm = Smm::<f32>::new();
        let a = Mat::<f32>::random(8, 8, 1);
        let b = Mat::<f32>::random(8, 8, 2);
        for _ in 0..5 {
            let mut c = Mat::<f32>::zeros(8, 8);
            smm.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        }
        assert_eq!(smm.cached_plans(), 1);
        let p1 = smm.plan(8, 8, 8);
        let p2 = smm.plan(8, 8, 8);
        assert!(Arc::ptr_eq(&p1, &p2));
        smm.plan(9, 8, 8);
        assert_eq!(smm.cached_plans(), 2);
    }

    #[test]
    fn degenerate_dimensions_short_circuit() {
        let smm = Smm::<f32>::new();
        let a = Mat::<f32>::zeros(4, 0);
        let b = Mat::<f32>::zeros(0, 4);
        let mut c = Mat::<f32>::from_fn(4, 4, |_, _| 8.0);
        smm.gemm(1.0, a.as_ref(), b.as_ref(), 0.25, c.as_mut());
        assert_eq!(c[(0, 0)], 2.0);
        assert_eq!(smm.cached_plans(), 0, "no plan for degenerate shapes");
    }

    #[test]
    fn threaded_smm_is_correct() {
        let smm = Smm::<f32>::builder().threads(8).build();
        let a = Mat::<f32>::random(64, 32, 41);
        let b = Mat::<f32>::random(32, 96, 42);
        let mut c = Mat::<f32>::zeros(64, 96);
        let mut c_ref = c.clone();
        smm.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        gemm_naive(1.0, a.as_ref(), b.as_ref(), 0.0, c_ref.as_mut());
        assert!(c.max_abs_diff(&c_ref) < 1e-3);
    }

    #[test]
    fn f64_path_works() {
        let smm = Smm::<f64>::new();
        let a = Mat::<f64>::random(17, 11, 51);
        let b = Mat::<f64>::random(11, 13, 52);
        let mut c = Mat::<f64>::zeros(17, 13);
        let mut c_ref = c.clone();
        smm.gemm(2.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        gemm_naive(2.0, a.as_ref(), b.as_ref(), 0.0, c_ref.as_mut());
        assert!(c.max_abs_diff(&c_ref) < 1e-9);
    }

    #[test]
    fn smm_is_shareable_across_threads() {
        let smm = std::sync::Arc::new(Smm::<f32>::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let smm = smm.clone();
                s.spawn(move || {
                    let a = Mat::<f32>::random(10 + t, 8, 1);
                    let b = Mat::<f32>::random(8, 6, 2);
                    let mut c = Mat::<f32>::zeros(10 + t, 6);
                    smm.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
                });
            }
        });
        assert_eq!(smm.cached_plans(), 4);
    }

    #[test]
    fn builder_configures_threads_cache_and_packing() {
        let smm = Smm::<f32>::builder()
            .threads(4)
            .cache_capacity(64)
            .pack_a(Some(true))
            .pack_b(Some(false))
            .pack_edge_b(false)
            .build();
        assert_eq!(smm.config().max_threads, 4);
        assert_eq!(smm.config().pack_a, Some(true));
        assert_eq!(smm.config().pack_b, Some(false));
        assert!(!smm.config().pack_edge_b);
        let plan = smm.plan(20, 20, 20);
        assert!(plan.pack_a);
        assert!(!plan.pack_b);
    }

    #[test]
    fn builder_private_pool_is_used() {
        let pool = TaskPool::new(2);
        let smm = Smm::<f32>::builder().threads(4).pool(pool.clone()).build();
        assert_eq!(smm.pool().workers(), 2);
        assert_eq!(smm.stats().pool_workers, 2);
        let a = Mat::<f32>::random(48, 24, 61);
        let b = Mat::<f32>::random(24, 40, 62);
        let mut c = Mat::<f32>::zeros(48, 40);
        let mut c_ref = c.clone();
        smm.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        gemm_naive(1.0, a.as_ref(), b.as_ref(), 0.0, c_ref.as_mut());
        assert!(c.max_abs_diff(&c_ref) < 1e-3);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let smm = Smm::<f32>::new();
        let a = Mat::<f32>::random(8, 8, 1);
        let b = Mat::<f32>::random(8, 8, 2);
        for _ in 0..5 {
            let mut c = Mat::<f32>::zeros(8, 8);
            smm.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        }
        let s = smm.stats();
        assert_eq!(s.plan_misses, 1);
        assert_eq!(s.plan_hits, 4);
        assert_eq!(s.cached_plans, 1);
        assert_eq!(s.plan_evictions, 0);
    }

    #[test]
    fn cache_capacity_is_enforced() {
        let smm = Smm::<f32>::builder().cache_capacity(16).build();
        for m in 1..=64 {
            smm.plan(m, 4, 4);
        }
        assert!(smm.cached_plans() <= 16, "resident {}", smm.cached_plans());
        assert!(smm.stats().plan_evictions > 0);
    }

    #[test]
    fn tracing_is_off_by_default_and_spans_flow_when_on() {
        let off = Smm::<f32>::new();
        assert!(!off.tracer().enabled());
        let a = Mat::<f32>::random(32, 32, 71);
        let b = Mat::<f32>::random(32, 32, 72);
        let mut c = Mat::<f32>::zeros(32, 32);
        off.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        assert!(off.drain_trace().is_empty(), "disabled tracer stays empty");

        let smm = Smm::<f32>::builder().threads(4).tracing(true).build();
        let mut c = Mat::<f32>::zeros(32, 32);
        let mut c_ref = c.clone();
        smm.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        gemm_naive(1.0, a.as_ref(), b.as_ref(), 0.0, c_ref.as_mut());
        assert!(c.max_abs_diff(&c_ref) < 1e-3, "tracing must not perturb");
        let spans = smm.drain_trace();
        let root = spans
            .iter()
            .find(|s| s.name == crate::trace::SpanName::Gemm)
            .expect("gemm root span");
        assert_eq!(root.parent, 0);
        assert_eq!(root.arg, shape_arg(32, 32, 32));
        let workers: Vec<_> = spans
            .iter()
            .filter(|s| s.name == crate::trace::SpanName::Worker)
            .collect();
        if !workers.is_empty() {
            // Multi-threaded plan: workers parent under the gemm root
            // and share its trace despite running on pool threads.
            assert!(workers.iter().all(|w| w.parent == root.span));
            assert!(workers.iter().all(|w| w.trace == root.trace));
        }
    }

    #[test]
    fn slow_exemplars_surface_in_stats_report() {
        let smm = Smm::<f32>::builder()
            .tracing(true)
            .slow_trace_threshold(Duration::from_nanos(0))
            .build();
        let a = Mat::<f32>::random(16, 16, 81);
        let b = Mat::<f32>::random(16, 16, 82);
        let mut c = Mat::<f32>::zeros(16, 16);
        smm.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        // Note a request done against the trace gemm just minted (the
        // serve layer does this per request).
        let spans = smm.tracer().snapshot_trace(1);
        assert!(!spans.is_empty());
        smm.tracer().note_request_done(1, 123_456, "gemm 16x16x16");
        let report = smm.stats_report();
        assert_eq!(report.slow.len(), 1);
        assert_eq!(report.slow[0].total_ns, 123_456);
        assert!(!report.slow[0].spans.is_empty(), "span tree pinned");
        assert!(format!("{report}").contains("slow-request exemplars"));
    }

    #[test]
    fn legacy_constructors_are_builder_wrappers() {
        for smm in [Smm::<f32>::new(), Smm::default()] {
            assert_eq!(smm.config().max_threads, 1);
            assert_eq!(smm.config().pack_a, PlanConfig::default().pack_a);
            assert_eq!(smm.config().isa, smm_model::VectorIsa::host());
        }
        // f64 runs the scalar loops and keeps the plans that suit them.
        let f64_isa = Smm::<f64>::new().config().isa;
        assert_eq!(f64_isa, smm_model::VectorIsa::neon128());
        let smm = Smm::<f32>::builder().threads(0).build();
        assert_eq!(smm.config().max_threads, 1, "threads clamp to 1");
        let cfg = PlanConfig {
            max_threads: 3,
            ..Default::default()
        };
        let smm = Smm::<f32>::builder().config(cfg).build();
        assert_eq!(smm.config().max_threads, 3);
    }

    fn tiny_db(isa: smm_model::VectorIsa) -> PlanDb {
        let cfg = PlanConfig {
            isa,
            ..Default::default()
        };
        let mut db = PlanDb::new(isa);
        for &(m, n, k) in &[(8usize, 8usize, 8usize), (16, 8, 8)] {
            db.upsert(crate::tune::tune_shape(m, n, k, &cfg).to_entry(4, false));
        }
        db
    }

    #[test]
    fn plan_db_answers_misses_and_reports_stats() {
        let smm = Smm::<f32>::builder()
            .isa(smm_model::VectorIsa::neon128())
            .plan_db_handle(tiny_db(smm_model::VectorIsa::neon128()))
            .unwrap()
            .build();
        let a = Mat::<f32>::random(8, 8, 1);
        let b = Mat::<f32>::random(8, 8, 2);
        let mut c = Mat::<f32>::zeros(8, 8);
        let mut c_ref = c.clone();
        smm.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        gemm_naive(1.0, a.as_ref(), b.as_ref(), 0.0, c_ref.as_mut());
        assert!(c.max_abs_diff(&c_ref) < 1e-3, "db-sourced plan correct");
        smm.plan(9, 8, 8); // NN match
        let s = smm.tuner_stats();
        assert_eq!(s.db_hits, 1);
        assert_eq!(s.nn_matches, 1);
        assert_eq!(s.db_entries, 2);
        assert_eq!(s.db_coverage(), 1.0);
        // Cache hits don't touch the source again.
        smm.plan(8, 8, 8);
        assert_eq!(smm.tuner_stats().db_hits, 1);
        // The counters ride in every report surface.
        let report = smm.stats_report();
        assert_eq!(report.tuner.db_hits, 1);
        assert!(report.to_json().contains("\"tuner\""));
        assert!(report.to_prometheus().contains("smm_tuner_db_hits_total 1"));
        assert!(format!("{report}").contains("db coverage"));
    }

    #[test]
    fn foreign_isa_handle_is_rejected() {
        let err = Smm::<f32>::builder()
            .isa(smm_model::VectorIsa::neon128())
            .plan_db_handle(tiny_db(smm_model::VectorIsa::sve256()))
            .unwrap_err();
        assert_eq!(
            err,
            PlanDbError::IsaMismatch {
                db: "sve256",
                active: "neon128"
            }
        );
    }

    #[test]
    fn drop_persists_pending_deltas() {
        let dir = std::env::temp_dir().join(format!("smm-drop-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("drop.smmdb");
        tiny_db(smm_model::VectorIsa::neon128())
            .save(&path)
            .unwrap();
        {
            let smm = Smm::<f32>::builder()
                .isa(smm_model::VectorIsa::neon128())
                .plan_db(&path)
                .unwrap()
                .build();
            smm.plan(40, 40, 40); // far from the grid → online refine
            assert_eq!(smm.tuner_stats().pending_deltas, 1);
        } // drop flushes
        let reloaded = PlanDb::load(&path).unwrap();
        assert_eq!(reloaded.len(), 3);
        assert!(reloaded.get(40, 40, 40).unwrap().refined);
        std::fs::remove_dir_all(&dir).ok();
    }
}
