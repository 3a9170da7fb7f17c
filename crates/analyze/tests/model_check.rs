//! Exhaustive-schedule model checking of the runtime's concurrency
//! protocols, plus the seeded-mutant regression net.
//!
//! Compiled (and meaningful) only under the instrumented facade:
//!
//! ```text
//! RUSTFLAGS='--cfg smm_model_check' cargo test -p smm-analyze --test model_check
//! ```
#![cfg(smm_model_check)]

use smm_analyze::mc::{mutants, protocols, run_all};
use smm_sync::mc::FailureKind;

/// The acceptance bound: every protocol must pass *exhaustively* with
/// at least this many preemptions available to the scheduler.
const BOUND: usize = 3;

#[test]
fn flight_seqlock_exhaustive_at_bound() {
    let out = protocols::flight_seqlock(BOUND);
    assert!(out.passed(), "{}", out.summary());
    assert!(out.complete, "exploration truncated: {}", out.summary());
}

#[test]
fn pool_scoped_drain_exhaustive_at_bound() {
    let out = protocols::pool_scoped_drain(BOUND);
    assert!(out.passed(), "{}", out.summary());
    assert!(out.complete, "exploration truncated: {}", out.summary());
}

#[test]
fn arena_checkout_reuse_exhaustive_at_bound() {
    let out = protocols::arena_checkout_reuse(BOUND);
    assert!(out.passed(), "{}", out.summary());
    assert!(out.complete, "exploration truncated: {}", out.summary());
}

#[test]
fn plan_cache_dcl_exhaustive_at_bound() {
    let out = protocols::plan_cache_dcl(BOUND);
    assert!(out.passed(), "{}", out.summary());
    assert!(out.complete, "exploration truncated: {}", out.summary());
}

#[test]
fn delta_buffer_exhaustive_at_bound() {
    let out = protocols::delta_buffer(BOUND);
    assert!(out.passed(), "{}", out.summary());
    assert!(out.complete, "exploration truncated: {}", out.summary());
}

#[test]
fn shard_steal_exhaustive_at_bound() {
    let out = protocols::shard_steal(BOUND);
    assert!(out.passed(), "{}", out.summary());
    assert!(out.complete, "exploration truncated: {}", out.summary());
}

#[test]
fn reader_doorbell_exhaustive_at_bound() {
    let out = protocols::reader_doorbell(BOUND);
    assert!(out.passed(), "{}", out.summary());
    assert!(out.complete, "exploration truncated: {}", out.summary());
}

#[test]
fn mutant_seqlock_relaxed_publish_is_caught() {
    let out = mutants::seqlock_relaxed_publish(BOUND);
    assert!(!out.passed(), "checker missed the relaxed publish");
}

#[test]
fn mutant_seqlock_no_revalidate_is_caught() {
    let out = mutants::seqlock_reader_no_revalidate(BOUND);
    assert!(!out.passed(), "checker missed the missing revalidation");
}

#[test]
fn mutant_pool_lost_wakeup_is_caught_as_deadlock() {
    let out = mutants::pool_shutdown_lost_wakeup(BOUND);
    let failure = out
        .failure
        .as_ref()
        .expect("checker missed the lost wakeup");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock { .. }),
        "expected a deadlock, got: {}",
        out.summary()
    );
}

#[test]
fn mutant_arena_lost_update_is_caught() {
    let out = mutants::arena_counter_lost_update(BOUND);
    assert!(!out.passed(), "checker missed the lost update");
}

#[test]
fn mutant_dcl_missing_recheck_is_caught() {
    let out = mutants::plan_cache_no_double_check(BOUND);
    assert!(!out.passed(), "checker missed the missing double-check");
}

#[test]
fn mutant_shard_steal_double_execute_is_caught() {
    let out = mutants::shard_steal_double_execute(BOUND);
    assert!(!out.passed(), "checker missed the double execution");
}

#[test]
fn mutant_doorbell_arm_after_recheck_is_caught_as_deadlock() {
    let out = mutants::doorbell_arm_after_recheck(BOUND);
    let failure = out
        .failure
        .as_ref()
        .expect("checker missed the doorbell armed after its re-check");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock { .. }),
        "expected a deadlock, got: {}",
        out.summary()
    );
}

#[test]
fn run_all_is_green_on_the_shipped_tree() {
    let report = run_all(BOUND);
    assert!(report.passes(true), "{}", report.to_json());
}
