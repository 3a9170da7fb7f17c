//! The persistent two-stage autotuning flow, end to end.
//!
//! IAAT splits tuning across process lifetimes: an **offline** sweep
//! simulates candidate plans over a shape grid and persists the winners
//! to a versioned, checksummed database; the **runtime** stage answers
//! plan-cache misses from that database — exact hit, else
//! nearest-neighbor match in log-space shape distance, else full online
//! tuning whose result is recorded as a delta and persisted, so the
//! *next* process never tunes that shape again.
//!
//! This example walks the whole loop in-process: sweep → save →
//! bit-identical round-trip check → load into an [`Smm`] runtime →
//! exact / NN / refine lookups (verified against the naive oracle) →
//! flush → reload showing the refinement persisted → foreign-ISA load
//! rejected with a typed error.
//!
//! Run with: `cargo run --release --example autotune`

use smm_core::{
    tune_shape, PlanConfig, PlanDb, PlanDbError, Smm, SweepGrid, VectorIsa, DEFAULT_NN_THRESHOLD,
};
use smm_gemm::gemm_naive;
use smm_gemm::matrix::Mat;

/// Run one GEMM through the runtime and verify it against the oracle.
fn gemm_checked(smm: &Smm<f32>, m: usize, n: usize, k: usize) {
    let a = Mat::<f32>::random(m, k, 11);
    let b = Mat::<f32>::random(k, n, 12);
    let mut c = Mat::<f32>::zeros(m, n);
    let mut c_ref = Mat::<f32>::zeros(m, n);
    smm.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
    gemm_naive(1.0, a.as_ref(), b.as_ref(), 0.0, c_ref.as_mut());
    assert!(c.max_abs_diff(&c_ref) < 1e-3, "{m}x{n}x{k} diverged");
}

fn main() {
    let dir = std::env::temp_dir().join(format!("smm-autotune-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("plans.smmdb");

    // ---- Offline stage: sweep a small grid and persist the winners.
    let cfg = PlanConfig::default();
    let grid = SweepGrid::geometric(4, 32, 3);
    let shapes = grid.shapes();
    println!(
        "sweeping {} shapes (axis {:?}, coverage radius {:.2}, NN threshold {:.2})",
        shapes.len(),
        grid.axis(),
        grid.max_log_radius(),
        DEFAULT_NN_THRESHOLD,
    );
    let mut db = PlanDb::new(cfg.isa);
    for &(m, n, k) in &shapes {
        db.upsert(tune_shape(m, n, k, &cfg).to_entry(4, false));
    }
    db.save(&path).unwrap();

    // The canonical encoding round-trips bit-identically: decoding and
    // re-encoding reproduces the exact bytes, and so does the file.
    let encoded = db.encode();
    let reencoded = PlanDb::decode(&encoded).unwrap().encode();
    assert_eq!(encoded, reencoded, "encode→decode→encode not bit-identical");
    assert_eq!(
        encoded,
        std::fs::read(&path).unwrap(),
        "file differs from encoding"
    );
    println!(
        "saved {} entries ({} bytes), round-trip bit-identical",
        db.len(),
        encoded.len()
    );

    // ---- Runtime stage: a fresh process would start exactly here.
    let smm = Smm::<f32>::builder()
        .telemetry(true)
        .isa(cfg.isa)
        .plan_db(&path)
        .expect("database swept for this ISA loads cleanly")
        .build();

    // 1. Exact hit: a swept grid shape builds straight from its entry.
    let (m, n, k) = shapes[0];
    gemm_checked(&smm, m, n, k);
    assert_eq!(smm.tuner_stats().db_hits, 1);
    println!("{m}x{n}x{k}: exact database hit");

    // 2. Nearest-neighbor match: an unswept shape near a grid point
    //    borrows its kernel/packing (blocking is re-derived).
    gemm_checked(&smm, 12, 10, 11);
    assert_eq!(smm.tuner_stats().nn_matches, 1);
    println!("12x10x11: nearest-neighbor match (grid point 11x11x11)");

    // 3. Online refinement: far outside the swept envelope, the source
    //    pays for full simulation once and records a delta.
    gemm_checked(&smm, 160, 160, 160);
    let s = smm.tuner_stats();
    assert_eq!(s.online_refines, 1);
    assert_eq!(s.pending_deltas, 1);
    println!(
        "160x160x160: online refinement ({} pending delta)",
        s.pending_deltas
    );

    // Within this process the shape never reaches the database again:
    // the sharded plan cache in front of the source absorbs the repeat.
    let plan_hits_before = smm.stats().plan_hits;
    gemm_checked(&smm, 160, 160, 160);
    assert_eq!(smm.stats().plan_hits, plan_hits_before + 1);
    assert_eq!(smm.tuner_stats().online_refines, 1, "not re-tuned");

    // ---- Persist refinements (also happens best-effort on drop).
    let flushed = smm.flush_plan_db().unwrap();
    assert_eq!(flushed, Some(1));
    let s = smm.tuner_stats();
    assert_eq!((s.pending_deltas, s.persisted_deltas), (0, 1));
    println!(
        "flushed {} refinement delta to {}",
        s.persisted_deltas,
        path.display()
    );

    // A later process loads the grown database: the refined shape is
    // now an exact hit — tuned once, ever.
    let reloaded = PlanDb::load(&path).unwrap();
    assert_eq!(reloaded.len(), shapes.len() + 1);
    assert!(reloaded.get(160, 160, 160).unwrap().refined);
    let next = Smm::<f32>::builder()
        .telemetry(true)
        .isa(cfg.isa)
        .plan_db(&path)
        .unwrap()
        .build();
    gemm_checked(&next, 160, 160, 160);
    let s = next.tuner_stats();
    assert_eq!((s.db_hits, s.online_refines), (1, 0));
    println!("next process: 160x160x160 is an exact hit, no re-tuning");

    // ---- A database swept for another ISA is rejected with a typed
    //      error, never silently cross-wired to the wrong vector width.
    let err = PlanDb::load_for(&path, VectorIsa::sve256()).unwrap_err();
    assert!(matches!(err, PlanDbError::IsaMismatch { .. }));
    println!("sve256 load rejected: {err}");

    std::fs::remove_dir_all(&dir).ok();
    println!("\ntwo-stage flow verified: sweep, persist, match, refine, flush, reload");
}
