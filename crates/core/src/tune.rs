//! Simulator-driven auto-tuning: the online stage and the persistent
//! two-stage scheme.
//!
//! §IV's "adaptive code generation" recommends picking the kernel
//! combination per input shape. The heuristic planner ([`crate::plan`])
//! does this with closed-form models; [`tune_shape`] goes further, the
//! way LIBXSMM's JIT measures what it generates: it *simulates* each
//! candidate plan on the Phytium 2000+ model and keeps the one with the
//! fewest cycles. Tuning costs milliseconds per shape, which matches
//! the SMM usage pattern (few distinct shapes, many invocations) —
//! [`Autotuner`] caches it per process.
//!
//! Per-process caching still pays the full tuning cost once per shape
//! per restart. [`PlanSource`] adds IAAT's persistent two-stage scheme
//! on top: an offline sweep (the `smm-tune` binary) writes a
//! [`PlanDb`]; at runtime, a lookup first tries an exact database hit,
//! then nearest-neighbor matching in log-space shape distance, and only
//! pays for full online tuning when both miss — recording the result as
//! a delta so the *next* process never tunes that shape again.

use std::collections::HashMap;
use std::path::PathBuf;

use smm_sync::sync::atomic::{AtomicU64, Ordering};
use smm_sync::sync::RwLock;

use smm_model::KernelShape;
use smm_tune::{DeltaBuffer, PlanDb, PlanDbError, PlanEntry, DEFAULT_NN_THRESHOLD};

use crate::plan::{PlanConfig, SmmPlan, KERNEL_CANDIDATES};
use crate::simprog::build_sim;

/// Outcome of tuning one shape.
#[derive(Debug, Clone)]
pub struct TunedPlan {
    /// The winning plan.
    pub plan: SmmPlan,
    /// Simulated cycles of the winner.
    pub cycles: u64,
    /// Simulated cycles of the heuristic (model-driven) plan, for
    /// reporting the tuning gain.
    pub heuristic_cycles: u64,
    /// Number of candidate plans simulated.
    pub candidates: usize,
}

impl TunedPlan {
    /// Speedup of the tuned plan over the heuristic plan.
    pub fn gain(&self) -> f64 {
        self.heuristic_cycles as f64 / self.cycles as f64
    }

    /// This tuning outcome as a persistable database entry for
    /// `elem_bytes`-sized elements.
    pub fn to_entry(&self, elem_bytes: u16, refined: bool) -> PlanEntry {
        PlanEntry {
            m: self.plan.m as u32,
            n: self.plan.n as u32,
            k: self.plan.k as u32,
            mr: self.plan.kernel.mr as u16,
            nr: self.plan.kernel.nr as u16,
            pack_a: self.plan.pack_a,
            pack_b: self.plan.pack_b,
            refined,
            elem_bytes,
            cycles: self.cycles,
            heuristic_cycles: self.heuristic_cycles,
            traffic: 0,
        }
    }
}

/// Candidate configurations for tuning: every kernel from the planner's
/// candidate set crossed with the packing choices, derived from `base`
/// (thread budget, ISA etc. are taken from it).
pub fn candidate_configs(base: &PlanConfig) -> Vec<PlanConfig> {
    let mut out = Vec::new();
    for &(mr, nr) in KERNEL_CANDIDATES {
        for pack_b in [Some(false), Some(true)] {
            for pack_a in [Some(false), Some(true)] {
                out.push(PlanConfig {
                    kernel: Some(KernelShape::new(mr, nr)),
                    pack_a,
                    pack_b,
                    ..base.clone()
                });
            }
        }
    }
    out
}

/// Fully tune one shape (uncached): simulate the heuristic plan and
/// every candidate, keep the cheapest. This is the single online-tuning
/// primitive — the [`Autotuner`] caches it per process, the `smm-tune`
/// sweep binary runs it over a grid, and [`PlanSource`] falls back to
/// it when the database and nearest-neighbor stages both miss.
pub fn tune_shape(m: usize, n: usize, k: usize, base: &PlanConfig) -> TunedPlan {
    let heuristic = SmmPlan::build(m, n, k, base);
    let heuristic_cycles = build_sim(&heuristic).run().cycles;

    let mut best_plan = heuristic;
    let mut best_cycles = heuristic_cycles;
    let candidates = candidate_configs(base);
    let n_candidates = candidates.len();
    for cfg in candidates {
        let plan = SmmPlan::build(m, n, k, &cfg);
        let cycles = build_sim(&plan).run().cycles;
        if cycles < best_cycles {
            best_cycles = cycles;
            best_plan = plan;
        }
    }
    TunedPlan {
        plan: best_plan,
        cycles: best_cycles,
        heuristic_cycles,
        candidates: n_candidates + 1,
    }
}

/// Number of independently locked cache shards (power of two, same
/// scheme as the runtime's `ShardedPlanCache`): tuning a shape takes
/// milliseconds, so a single `Mutex` would serialize every *cached*
/// lookup behind any in-flight tuning of an unrelated shape.
const SHARDS: usize = 16;

fn shard_of(key: (usize, usize, usize)) -> usize {
    // Fibonacci-hash the shape so near-identical shapes (the common
    // case in sweeps) spread across shards.
    let h = key
        .0
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(key.1.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .wrapping_add(key.2.wrapping_mul(0x1656_67B1_9E37_79F9));
    (h >> 48) & (SHARDS - 1)
}

type Shard = RwLock<HashMap<(usize, usize, usize), TunedPlan>>;

/// Exhaustive-ish candidate search with sharded-lock caching: cached
/// lookups take a shared lock on one shard only, candidate simulation
/// happens outside any lock, and the insert double-checks so
/// concurrent tunings of one shape converge on a single entry.
pub struct Autotuner {
    base: PlanConfig,
    shards: [Shard; SHARDS],
}

impl Autotuner {
    /// Tuner deriving candidates from a base configuration (thread
    /// budget etc. are taken from `base`).
    pub fn new(base: PlanConfig) -> Self {
        Autotuner {
            base,
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        }
    }

    /// Tune a shape (cached).
    pub fn tune(&self, m: usize, n: usize, k: usize) -> TunedPlan {
        let key = (m, n, k);
        let shard = &self.shards[shard_of(key)];
        if let Some(hit) = shard.read().unwrap().get(&key) {
            return hit.clone();
        }
        // Simulate outside any lock: tuning one shape must not block
        // cached lookups of the fifteen unrelated shards, nor even
        // cached lookups of other shapes on this shard.
        let tuned = tune_shape(m, n, k, &self.base);
        let mut map = shard.write().unwrap();
        if let Some(hit) = map.get(&key) {
            // A concurrent tuning won the race; adopt its result so
            // every caller observes one entry per shape.
            return hit.clone();
        }
        map.insert(key, tuned.clone());
        tuned
    }

    /// Shapes tuned so far.
    pub fn cached(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().len()).sum()
    }
}

impl Default for Autotuner {
    fn default() -> Self {
        Self::new(PlanConfig::default())
    }
}

/// Counters of the two-stage plan source, exported through
/// `TelemetryReport` (text/JSON/Prometheus).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TunerStats {
    /// Entries resident in the loaded plan database (0 when none).
    pub db_entries: u64,
    /// Plan builds answered by an exact database hit.
    pub db_hits: u64,
    /// Plan builds answered by a nearest-neighbor match within the
    /// threshold.
    pub nn_matches: u64,
    /// Plan builds that fell through to full online tuning (and were
    /// recorded as refinement deltas).
    pub online_refines: u64,
    /// Plan builds with no database at all, or with online refinement
    /// disabled — the plain heuristic path.
    pub untuned_builds: u64,
    /// Refinement deltas recorded but not yet flushed to disk.
    pub pending_deltas: u64,
    /// Refinement deltas written out by flushes so far.
    pub persisted_deltas: u64,
}

impl TunerStats {
    /// Total plan builds that went through the source.
    pub fn lookups(&self) -> u64 {
        self.db_hits + self.nn_matches + self.online_refines + self.untuned_builds
    }

    /// Fraction of lookups the persistent stage answered (exact hit or
    /// nearest-neighbor match) — the cold-start acceptance metric.
    pub fn db_coverage(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            (self.db_hits + self.nn_matches) as f64 / total as f64
        }
    }
}

/// The runtime half of the two-stage scheme: where plans come from when
/// the sharded cache misses.
///
/// Without a database this is exactly the old behavior — build the
/// heuristic plan. With one, a miss walks the IAAT ladder:
///
/// 1. **exact hit** — the shape was swept (or previously refined);
///    build straight from the stored entry, no simulation;
/// 2. **nearest-neighbor match** — an entry within `nn_threshold`
///    log-space distance lends its kernel/packing choice (blocking is
///    re-derived for the actual shape by the planner);
/// 3. **online refinement** — full simulation via [`tune_shape`], with
///    the winner upserted into the in-memory database and recorded as a
///    delta for [`PlanSource::flush`] to persist.
pub struct PlanSource {
    db: Option<RwLock<PlanDb>>,
    db_path: Option<PathBuf>,
    nn_threshold: f64,
    refine_online: bool,
    deltas: DeltaBuffer,
    // relaxed — independent monotonic counters, read only for reporting.
    db_hits: AtomicU64,
    nn_matches: AtomicU64,
    online_refines: AtomicU64,
    untuned_builds: AtomicU64,
    persisted_deltas: AtomicU64,
}

impl PlanSource {
    /// A source with no persistent stage: every miss builds the
    /// heuristic plan, bit-for-bit the pre-database behavior.
    pub fn untuned() -> Self {
        PlanSource {
            db: None,
            db_path: None,
            nn_threshold: DEFAULT_NN_THRESHOLD,
            refine_online: true,
            deltas: DeltaBuffer::new(),
            db_hits: AtomicU64::new(0),
            nn_matches: AtomicU64::new(0),
            online_refines: AtomicU64::new(0),
            untuned_builds: AtomicU64::new(0),
            persisted_deltas: AtomicU64::new(0),
        }
    }

    /// A source backed by `db`; `db_path` is where flushes persist
    /// (None = in-memory only).
    pub fn with_db(db: PlanDb, db_path: Option<PathBuf>) -> Self {
        PlanSource {
            db: Some(RwLock::new(db)),
            db_path,
            ..Self::untuned()
        }
    }

    /// Nearest-neighbor acceptance threshold (log-space distance).
    pub fn set_nn_threshold(&mut self, threshold: f64) {
        self.nn_threshold = threshold.max(0.0);
    }

    /// Whether double misses pay for full online tuning (true) or fall
    /// back to the plain heuristic plan (false).
    pub fn set_refine_online(&mut self, refine: bool) {
        self.refine_online = refine;
    }

    /// ISA the loaded database was swept under, if any.
    pub fn db_isa(&self) -> Option<smm_model::VectorIsa> {
        self.db.as_ref().map(|db| db.read().unwrap().isa())
    }

    /// Whether a persistent database is loaded.
    pub fn has_db(&self) -> bool {
        self.db.is_some()
    }

    /// Build the plan for one shape, walking the two-stage ladder.
    pub fn plan_for(&self, m: usize, n: usize, k: usize, cfg: &PlanConfig) -> SmmPlan {
        let Some(db) = &self.db else {
            // relaxed — monotonic counter, read only for reporting.
            self.untuned_builds.fetch_add(1, Ordering::Relaxed);
            return SmmPlan::build(m, n, k, cfg);
        };
        {
            let db = db.read().unwrap();
            if let Some(entry) = db.get(m, n, k) {
                // relaxed — monotonic counter, read only for reporting.
                self.db_hits.fetch_add(1, Ordering::Relaxed);
                return self.build_from_entry(m, n, k, entry, cfg);
            }
            if let Some((entry, dist)) = db.nearest(m, n, k) {
                if dist <= self.nn_threshold {
                    // relaxed — monotonic counter, read only for reporting.
                    self.nn_matches.fetch_add(1, Ordering::Relaxed);
                    return self.build_from_entry(m, n, k, entry, cfg);
                }
            }
        }
        // Outside the swept envelope. Refine online (full simulation,
        // outside any lock) and remember the answer, or fall back to
        // the heuristic when refinement is disabled.
        if !self.refine_online {
            // relaxed — monotonic counter, read only for reporting.
            self.untuned_builds.fetch_add(1, Ordering::Relaxed);
            return SmmPlan::build(m, n, k, cfg);
        }
        let tuned = tune_shape(m, n, k, cfg);
        let entry = tuned.to_entry(4, true);
        self.deltas.record(entry.clone());
        db.write().unwrap().upsert(entry);
        // relaxed — monotonic counter, read only for reporting.
        self.online_refines.fetch_add(1, Ordering::Relaxed);
        tuned.plan
    }

    /// Build a plan from a stored entry: the entry pins the kernel and
    /// packing decisions, the planner re-derives blocking for the
    /// actual shape (which may differ from the entry's under a
    /// nearest-neighbor match). Entries that fail the Eq. 4 budget for
    /// the active ISA — possible only through a hand-edited database,
    /// since sweeps validate — fall back to the heuristic.
    fn build_from_entry(
        &self,
        m: usize,
        n: usize,
        k: usize,
        entry: &PlanEntry,
        cfg: &PlanConfig,
    ) -> SmmPlan {
        let (mr, nr) = (entry.mr as usize, entry.nr as usize);
        if cfg.isa.check_register_budget(mr, nr, 4).is_err() {
            return SmmPlan::build(m, n, k, cfg);
        }
        let derived = PlanConfig {
            kernel: Some(KernelShape::new(mr, nr)),
            pack_a: Some(entry.pack_a),
            pack_b: Some(entry.pack_b),
            ..cfg.clone()
        };
        SmmPlan::build(m, n, k, &derived)
    }

    /// Persist pending refinement deltas and observed traffic.
    ///
    /// Drains the delta buffer into the database, folds `traffic`
    /// (shape → observed calls, typically from the telemetry shape
    /// table) into the entries' popularity counters, and — when the
    /// source was loaded from a path — rewrites the file. Returns the
    /// number of deltas persisted, or `None` if there was nothing to do
    /// and no traffic to record. Cumulative counters may double-count
    /// traffic across repeated flushes; traffic is a pre-warm ranking
    /// heuristic, not an exact measure, so that is acceptable.
    pub fn flush(
        &self,
        traffic: &[((usize, usize, usize), u64)],
    ) -> Result<Option<usize>, PlanDbError> {
        let Some(db) = &self.db else {
            return Ok(None);
        };
        let drained = self.deltas.drain();
        if drained.is_empty() && traffic.is_empty() {
            return Ok(None);
        }
        let n = drained.len();
        {
            let mut db = db.write().unwrap();
            for entry in drained {
                db.upsert(entry);
            }
            for &((m, nn, k), calls) in traffic {
                db.add_traffic(m, nn, k, calls);
            }
            if let Some(path) = &self.db_path {
                db.save(path)?;
            }
        }
        // relaxed — monotonic counter, read only for reporting.
        self.persisted_deltas.fetch_add(n as u64, Ordering::Relaxed);
        Ok(Some(n))
    }

    /// The hottest shapes by recorded traffic, for pre-warming.
    pub fn hot_shapes(&self, limit: usize) -> Vec<(usize, usize, usize)> {
        match &self.db {
            Some(db) => db.read().unwrap().top_by_traffic(limit),
            None => Vec::new(),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TunerStats {
        TunerStats {
            db_entries: self
                .db
                .as_ref()
                .map_or(0, |db| db.read().unwrap().len() as u64),
            // relaxed — independent monotonic counters, reporting only.
            db_hits: self.db_hits.load(Ordering::Relaxed),
            nn_matches: self.nn_matches.load(Ordering::Relaxed),
            online_refines: self.online_refines.load(Ordering::Relaxed),
            untuned_builds: self.untuned_builds.load(Ordering::Relaxed),
            pending_deltas: self.deltas.len() as u64,
            persisted_deltas: self.persisted_deltas.load(Ordering::Relaxed),
        }
    }
}

impl Default for PlanSource {
    fn default() -> Self {
        Self::untuned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuned_never_loses_to_heuristic() {
        let tuner = Autotuner::default();
        for &(m, n, k) in &[(8usize, 8usize, 8usize), (13, 7, 21), (40, 40, 40)] {
            let t = tuner.tune(m, n, k);
            assert!(t.cycles <= t.heuristic_cycles, "{m}x{n}x{k}: {t:?}");
            assert!(t.gain() >= 1.0);
            assert!(t.candidates > KERNEL_CANDIDATES.len());
        }
    }

    #[test]
    fn tuning_is_cached() {
        let tuner = Autotuner::default();
        let a = tuner.tune(6, 6, 6);
        let b = tuner.tune(6, 6, 6);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(tuner.cached(), 1);
    }

    #[test]
    fn concurrent_tuning_converges_on_one_entry_per_shape() {
        let tuner = Autotuner::default();
        let shapes = [
            (6usize, 6usize, 6usize),
            (13, 7, 21),
            (9, 5, 4),
            (16, 16, 8),
        ];
        std::thread::scope(|s| {
            for t in 0..4 {
                let tuner = &tuner;
                s.spawn(move || {
                    // Every thread tunes every shape, rotated so the
                    // same shape races across threads.
                    for i in 0..shapes.len() {
                        let (m, n, k) = shapes[(i + t) % shapes.len()];
                        let tuned = tuner.tune(m, n, k);
                        assert!(tuned.cycles <= tuned.heuristic_cycles);
                    }
                });
            }
        });
        // Racing tunings of one shape must converge on a single cache
        // entry, and repeat lookups must agree with the cached winner.
        assert_eq!(tuner.cached(), shapes.len());
        for &(m, n, k) in &shapes {
            let again = tuner.tune(m, n, k);
            assert_eq!(again.cycles, tuner.tune(m, n, k).cycles);
        }
        assert_eq!(tuner.cached(), shapes.len());
    }

    #[test]
    fn tuned_plan_executes_correctly() {
        use smm_gemm::gemm_naive;
        use smm_gemm::matrix::Mat;
        let tuner = Autotuner::default();
        let t = tuner.tune(15, 11, 9);
        let a = Mat::<f32>::random(15, 9, 1);
        let b = Mat::<f32>::random(9, 11, 2);
        let mut c = Mat::<f32>::zeros(15, 11);
        let mut c_ref = c.clone();
        let pool = smm_gemm::pool::TaskPool::global();
        crate::exec::execute_in(pool, &t.plan, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        gemm_naive(1.0, a.as_ref(), b.as_ref(), 0.0, c_ref.as_mut());
        assert!(c.max_abs_diff(&c_ref) < 1e-3);
    }

    #[test]
    fn tuner_respects_thread_budget() {
        let tuner = Autotuner::new(PlanConfig {
            max_threads: 8,
            ..Default::default()
        });
        let t = tuner.tune(64, 96, 32);
        assert!(t.plan.threads() <= 8);
    }

    fn db_with(shapes: &[(usize, usize, usize)], cfg: &PlanConfig) -> PlanDb {
        let mut db = PlanDb::new(cfg.isa);
        for &(m, n, k) in shapes {
            db.upsert(tune_shape(m, n, k, cfg).to_entry(4, false));
        }
        db
    }

    #[test]
    fn untuned_source_matches_plain_build() {
        let cfg = PlanConfig::default();
        let src = PlanSource::untuned();
        let a = src.plan_for(13, 7, 21, &cfg);
        let b = SmmPlan::build(13, 7, 21, &cfg);
        assert_eq!(a.kernel, b.kernel);
        assert_eq!((a.pack_a, a.pack_b), (b.pack_a, b.pack_b));
        let s = src.stats();
        assert_eq!(s.untuned_builds, 1);
        assert_eq!(s.lookups(), 1);
        assert_eq!(s.db_coverage(), 0.0);
        assert!(src.flush(&[]).unwrap().is_none(), "no db, nothing to do");
    }

    #[test]
    fn source_walks_the_two_stage_ladder() {
        let cfg = PlanConfig::default();
        let swept = tune_shape(8, 8, 8, &cfg);
        let src = PlanSource::with_db(db_with(&[(8, 8, 8)], &cfg), None);
        // Exact hit: reproduces the swept winner without re-simulating.
        let p = src.plan_for(8, 8, 8, &cfg);
        assert_eq!(p.kernel, swept.plan.kernel);
        assert_eq!(src.stats().db_hits, 1);
        // Close shape: nearest-neighbor match borrows the kernel.
        let p = src.plan_for(9, 8, 8, &cfg);
        assert_eq!(p.kernel, swept.plan.kernel);
        assert_eq!(src.stats().nn_matches, 1);
        // Far shape: online refinement, recorded as a delta and
        // answered from the database on the next lookup.
        src.plan_for(40, 40, 40, &cfg);
        let s = src.stats();
        assert_eq!(s.online_refines, 1);
        assert_eq!(s.pending_deltas, 1);
        assert_eq!(s.db_entries, 2, "refinement upserted");
        src.plan_for(40, 40, 40, &cfg);
        let s = src.stats();
        assert_eq!(s.db_hits, 2, "second lookup is an exact hit");
        assert_eq!(s.online_refines, 1);
        assert!(s.db_coverage() > 0.7);
    }

    #[test]
    fn refinement_disabled_falls_back_to_heuristic() {
        let cfg = PlanConfig::default();
        let mut src = PlanSource::with_db(db_with(&[(8, 8, 8)], &cfg), None);
        src.set_refine_online(false);
        src.plan_for(40, 40, 40, &cfg);
        let s = src.stats();
        assert_eq!(s.online_refines, 0);
        assert_eq!(s.untuned_builds, 1);
        assert_eq!(s.pending_deltas, 0);
    }

    #[test]
    fn flush_persists_deltas_and_traffic() {
        let cfg = PlanConfig::default();
        let dir = std::env::temp_dir().join(format!("smm-core-tune-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flush.smmdb");
        let db = db_with(&[(8, 8, 8)], &cfg);
        db.save(&path).unwrap();
        let src = PlanSource::with_db(db, Some(path.clone()));
        src.plan_for(40, 40, 40, &cfg);
        let n = src.flush(&[((8, 8, 8), 17)]).unwrap();
        assert_eq!(n, Some(1));
        let s = src.stats();
        assert_eq!(s.persisted_deltas, 1);
        assert_eq!(s.pending_deltas, 0);
        assert_eq!(src.hot_shapes(4), vec![(8, 8, 8)]);
        // The file round-trips with the refined entry and traffic.
        let reloaded = PlanDb::load(&path).unwrap();
        assert_eq!(reloaded.len(), 2);
        assert!(reloaded.get(40, 40, 40).unwrap().refined);
        assert_eq!(reloaded.get(8, 8, 8).unwrap().traffic, 17);
        // Nothing pending → flush with no traffic is a no-op.
        assert_eq!(src.flush(&[]).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn infeasible_entry_falls_back_to_heuristic() {
        let cfg = PlanConfig::default();
        let mut db = PlanDb::new(cfg.isa);
        // 32x12 needs 512-bit vectors; infeasible on neon128. Only a
        // hand-edited database can contain this, and it must degrade
        // gracefully rather than build an over-budget kernel.
        db.upsert(PlanEntry {
            m: 8,
            n: 8,
            k: 8,
            mr: 32,
            nr: 12,
            pack_a: false,
            pack_b: false,
            refined: false,
            elem_bytes: 4,
            cycles: 1,
            heuristic_cycles: 1,
            traffic: 0,
        });
        let src = PlanSource::with_db(db, None);
        let p = src.plan_for(8, 8, 8, &cfg);
        let h = SmmPlan::build(8, 8, 8, &cfg);
        assert_eq!(p.kernel, h.kernel);
        assert!(cfg
            .isa
            .check_register_budget(p.kernel.mr, p.kernel.nr, 4)
            .is_ok());
    }

    #[test]
    fn db_plans_execute_correctly() {
        use smm_gemm::gemm_naive;
        use smm_gemm::matrix::Mat;
        let cfg = PlanConfig::default();
        let src = PlanSource::with_db(db_with(&[(15, 11, 9)], &cfg), None);
        // Exercise the exact-hit and the NN-match paths end to end.
        for (m, n, k) in [(15usize, 11usize, 9usize), (14, 12, 10)] {
            let plan = src.plan_for(m, n, k, &cfg);
            let a = Mat::<f32>::random(m, k, 1);
            let b = Mat::<f32>::random(k, n, 2);
            let mut c = Mat::<f32>::zeros(m, n);
            let mut c_ref = c.clone();
            let pool = smm_gemm::pool::TaskPool::global();
            crate::exec::execute_in(pool, &plan, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
            gemm_naive(1.0, a.as_ref(), b.as_ref(), 0.0, c_ref.as_mut());
            assert!(c.max_abs_diff(&c_ref) < 1e-3, "{m}x{n}x{k}");
        }
        let s = src.stats();
        assert_eq!(s.db_hits, 1);
        assert_eq!(s.nn_matches, 1);
    }
}
