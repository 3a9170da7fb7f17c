//! Dynamic concurrency drivers: exhaustive-schedule model checking of
//! the runtime's real lock-free protocols (the `concurrency
//! --model-check` front).
//!
//! Compiled only under `--cfg smm_model_check`, where the
//! `smm_sync::sync` facade resolves to the instrumented shims and
//! [`smm_sync::mc::Checker`] can drive real workspace code through
//! every thread interleaving within a preemption bound.
//!
//! Two kinds of drivers:
//!
//! * [`protocols`] — compile the *actual* sources (`gemm::flight`'s
//!   seqlock, `gemm::pool`'s park/shutdown drain, `gemm::arena`'s
//!   counters, `core::runtime`'s double-checked plan cache,
//!   `tune::delta`'s refinement-delta buffer, `serve::steal`'s
//!   sharded-queue work stealing, `serve::doorbell`'s reader wake)
//!   against the shims and assert their invariants across all
//!   schedules. These must pass exhaustively.
//! * [`mutants`] — seeded-bug replicas of each protocol (relaxed
//!   publish, missing revalidation, flag-outside-mutex, load+store
//!   counter, missing double-check, steal peek-then-re-lock, doorbell
//!   armed after the re-check). These must *fail*: they are the
//!   regression net proving the checker can still see each bug class.
//!
//! [`run_all`] packages both as `AN-MC` findings for the CLI.

use smm_serve::doorbell::Wake;
use smm_sync::mc::{Checker, FailureKind, Outcome};
use smm_sync::sync::{Condvar, Mutex};

use crate::report::{Finding, Report};

fn checker(bound: usize) -> Checker {
    Checker {
        preemption_bound: bound,
        ..Checker::default()
    }
}

/// The reader doorbell's OS wake, modelled on the facade: a wake marks
/// a byte pending and a blocked reader waits for one, then drains it —
/// the level-triggered readiness of the reader's socket pair. Exact
/// condvar semantics make a lost wake a model deadlock.
struct ShimWake {
    pending: Mutex<bool>,
    cv: Condvar,
}

impl ShimWake {
    fn new() -> ShimWake {
        ShimWake {
            pending: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    /// Block until a wake is pending, and consume it.
    fn block(&self) {
        let mut pending = self.pending.lock().unwrap();
        while !*pending {
            pending = self.cv.wait(pending).unwrap();
        }
        *pending = false;
    }
}

impl Wake for ShimWake {
    fn wake(&self) {
        *self.pending.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

/// Exhaustive checks of the real runtime protocols.
pub mod protocols {
    use std::sync::Arc;

    use smm_core::runtime::ShardedPlanCache;
    use smm_core::PlanConfig;
    use smm_gemm::arena;
    use smm_gemm::flight::{set_thread_tid, EventKind, FlightRecorder, SpanEvent};
    use smm_gemm::pool::TaskPool;
    use smm_serve::doorbell::Doorbell;
    use smm_serve::steal::ShardQueues;
    use smm_sync::mc::Outcome;
    use smm_sync::sync::atomic::{AtomicBool, Ordering};
    use smm_sync::sync::thread;
    use smm_tune::{DeltaBuffer, PlanEntry};

    use super::{checker, ShimWake};

    /// An event whose every field carries the same pattern value, so a
    /// torn (mixed-write) read is detectable from the payload alone.
    fn patterned(x: u64) -> SpanEvent {
        SpanEvent {
            kind: EventKind::Begin,
            trace: x,
            span: x,
            parent: x,
            ts_ns: x,
            name: x as u8,
            tid: x as u32,
            arg: x,
        }
    }

    fn assert_consistent(e: &SpanEvent) {
        let x = e.trace;
        assert!(
            e.span == x
                && e.parent == x
                && e.ts_ns == x
                && e.arg == x
                && u64::from(e.name) == x
                && u64::from(e.tid) == x,
            "torn seqlock read: {e:?}"
        );
    }

    /// `gemm::flight` seqlock: a writer emits two patterned events
    /// while a reader snapshots concurrently. No snapshot may ever
    /// contain a torn event, and after joining both threads a drain
    /// must surface exactly the two published events intact.
    ///
    /// Uses the model-check ring geometry (`RINGS = 1`,
    /// `RING_SLOTS = 4`) so writer and reader contend on one ring.
    pub fn flight_seqlock(bound: usize) -> Outcome {
        checker(bound).explore("flight-seqlock", || {
            let rec = Arc::new(FlightRecorder::new());
            let (w, r) = (Arc::clone(&rec), Arc::clone(&rec));
            let writer = thread::spawn(move || {
                set_thread_tid(7);
                w.emit(&patterned(7));
                w.emit(&patterned(9));
            });
            let reader = thread::spawn(move || {
                for e in r.snapshot() {
                    assert_consistent(&e);
                }
            });
            writer.join().unwrap();
            reader.join().unwrap();
            let fin = rec.drain();
            assert_eq!(fin.len(), 2, "published events lost: {fin:?}");
            for e in &fin {
                assert_consistent(e);
            }
            assert!(fin.iter().any(|e| e.trace == 7) && fin.iter().any(|e| e.trace == 9));
        })
    }

    /// `gemm::pool` park/unpark and shutdown drain (the PR-4
    /// lost-wakeup class): a one-worker pool runs a two-task scope
    /// (queue path: inject, notify, inline-drain, latch wait), then
    /// drops — shutdown must wake and join the parked worker in every
    /// schedule. A lost wakeup or a shutdown-flag race is a deadlock
    /// here because the model condvar has no spurious wakeups.
    pub fn pool_scoped_drain(bound: usize) -> Outcome {
        checker(bound).explore("pool-scoped-drain", || {
            let pool = TaskPool::new(1);
            let tasks: Vec<_> = (0..2u32).map(|i| move || i + 1).collect();
            let results = pool.run_scoped(tasks);
            assert_eq!(results, vec![1, 2]);
            drop(pool);
        })
    }

    /// `gemm::arena` checkout/return: two threads each check out a
    /// buffer, return it, and check out again — the second checkout
    /// must hit the *thread-local* free list, and the global relaxed
    /// counters must account exactly 2 misses + 2 hits.
    pub fn arena_checkout_reuse(bound: usize) -> Outcome {
        checker(bound).explore("arena-reuse", || {
            arena::reset_stats();
            let body = || {
                let first = arena::checkout::<f64>(64);
                drop(first);
                let again = arena::checkout::<f64>(64);
                drop(again);
            };
            let h1 = thread::spawn(body);
            let h2 = thread::spawn(body);
            h1.join().unwrap();
            h2.join().unwrap();
            let s = arena::stats();
            assert_eq!(s.misses, 2, "each thread's first checkout allocates");
            assert_eq!(s.hits, 2, "each thread's second checkout reuses");
        })
    }

    /// `tune::delta` refinement-delta buffer: two tuning threads each
    /// record a delta while a flusher drains concurrently. In every
    /// schedule each delta must land in exactly one drain (no loss, no
    /// duplication), and the lifetime `recorded` counter must account
    /// for both — the invariant that makes the runtime's
    /// flush-on-shutdown persistence trustworthy.
    pub fn delta_buffer(bound: usize) -> Outcome {
        fn delta(m: u32) -> PlanEntry {
            PlanEntry {
                m,
                n: 4,
                k: 4,
                mr: 8,
                nr: 4,
                pack_a: false,
                pack_b: false,
                refined: true,
                elem_bytes: 4,
                cycles: 10,
                heuristic_cycles: 12,
                traffic: 0,
            }
        }
        checker(bound).explore("delta-buffer", || {
            let buf = Arc::new(DeltaBuffer::new());
            let (b1, b2, bf) = (Arc::clone(&buf), Arc::clone(&buf), Arc::clone(&buf));
            let r1 = thread::spawn(move || b1.record(delta(1)));
            let r2 = thread::spawn(move || b2.record(delta(2)));
            let flusher = thread::spawn(move || bf.drain());
            r1.join().unwrap();
            r2.join().unwrap();
            let mut all = flusher.join().unwrap();
            all.extend(buf.drain());
            let mut ms: Vec<u32> = all.iter().map(|e| e.m).collect();
            ms.sort_unstable();
            assert_eq!(ms, vec![1, 2], "delta lost or duplicated");
            assert_eq!(buf.recorded(), 2, "lifetime counter disagrees");
            assert!(buf.is_empty());
        })
    }

    /// `core::runtime` double-checked plan cache: two threads race
    /// `get_or_build` on the same shape. The read-miss / build-outside
    /// -lock / write-recheck protocol must converge both threads onto
    /// one `Arc` with exactly one resident plan, and count exactly one
    /// miss: the lookup that inserted it (the other is a hit, whether
    /// it found the plan or adopted it under the write lock).
    pub fn plan_cache_dcl(bound: usize) -> Outcome {
        checker(bound).explore("plan-cache-dcl", || {
            let cache = Arc::new(ShardedPlanCache::new(0));
            let (c1, c2) = (Arc::clone(&cache), Arc::clone(&cache));
            let h1 = thread::spawn(move || c1.get_or_build(4, 4, 4, &PlanConfig::default()));
            let h2 = thread::spawn(move || c2.get_or_build(4, 4, 4, &PlanConfig::default()));
            let p1 = h1.join().unwrap();
            let p2 = h2.join().unwrap();
            assert!(
                Arc::ptr_eq(&p1, &p2),
                "concurrent misses did not converge on one plan"
            );
            assert_eq!(cache.len(), 1);
            let st = cache.stats(0);
            assert_eq!(st.plan_hits + st.plan_misses, 2);
            assert_eq!(st.plan_misses, 1, "a miss must count one insert");
        })
    }

    /// `serve::steal` sharded-queue work stealing: a producer pushes
    /// two items onto shard 0 while the shard-1 "dispatcher" steals
    /// and the shard-0 owner pops — the PR-10 stealing protocol. In
    /// every schedule each admitted item must surface exactly once
    /// across owner pop, thief steal, and the final drain (no lost
    /// steal, no double execution), and the depth hints must read
    /// zero once the queues are drained.
    pub fn shard_steal(bound: usize) -> Outcome {
        checker(bound).explore("shard-steal", || {
            let q = Arc::new(ShardQueues::<u32>::new(2, 4));
            let (qp, qt, qo) = (Arc::clone(&q), Arc::clone(&q), Arc::clone(&q));
            let producer = thread::spawn(move || {
                qp.push(0, 11).unwrap();
                qp.push(0, 22).unwrap();
            });
            let thief = thread::spawn(move || qt.steal_group(1, 2, |_, _| true));
            let owner = thread::spawn(move || qo.try_pop(0));
            producer.join().unwrap();
            let mut seen = thief.join().unwrap();
            seen.extend(owner.join().unwrap());
            for shard in 0..2 {
                while let Some(v) = q.try_pop(shard) {
                    seen.push(v);
                }
            }
            seen.sort_unstable();
            assert_eq!(seen, vec![11, 22], "item lost or executed twice");
            assert_eq!(q.depth(0) + q.depth(1), 0, "stale depth hint");
            assert_eq!(q.total_len(), 0);
        })
    }

    /// `serve::doorbell` reader wake: two completers each publish a
    /// reply (relaxed, so the doorbell alone must order it) and ring,
    /// while the reader loops as a TCP reader does — sweep, and when
    /// the sweep finds nothing, arm, re-check, and block on the wake.
    /// No reply may stay unseen while the reader blocks: a lost ring
    /// leaves it waiting on a wake nobody sends, which the checker
    /// reports as a deadlock.
    pub fn reader_doorbell(bound: usize) -> Outcome {
        checker(bound).explore("reader-doorbell", || {
            let bell = Arc::new(Doorbell::new(ShimWake::new()));
            let replies = Arc::new([AtomicBool::new(false), AtomicBool::new(false)]);
            let completers: Vec<_> = (0..2)
                .map(|i| {
                    let (bell, replies) = (Arc::clone(&bell), Arc::clone(&replies));
                    thread::spawn(move || {
                        replies[i].store(true, Ordering::Relaxed);
                        bell.ring();
                    })
                })
                .collect();
            let unseen =
                |seen: &[bool; 2]| (0..2).find(|&i| !seen[i] && replies[i].load(Ordering::Relaxed));
            let mut seen = [false; 2];
            while seen != [true; 2] {
                if let Some(i) = unseen(&seen) {
                    seen[i] = true;
                    continue;
                }
                bell.block_unless(|| unseen(&seen).is_some(), || bell.waker().block());
            }
            for c in completers {
                c.join().unwrap();
            }
        })
    }
}

/// Seeded-bug replicas: each must be *caught* by the checker.
pub mod mutants {
    use std::collections::VecDeque;
    use std::sync::Arc;

    use smm_serve::doorbell::Wake as _;
    use smm_sync::mc::Outcome;
    use smm_sync::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
    use smm_sync::sync::thread;
    use smm_sync::sync::{Condvar, Mutex, RwLock};

    use super::{checker, ShimWake};

    /// Seqlock writer that publishes the even sequence with `Relaxed`
    /// instead of `Release`: a reader can accept the sequence without
    /// the payload it guards.
    pub fn seqlock_relaxed_publish(bound: usize) -> Outcome {
        checker(bound).explore("mutant-seqlock-relaxed-publish", || {
            let seq = Arc::new(AtomicU64::new(0));
            let lo = Arc::new(AtomicU64::new(0));
            let hi = Arc::new(AtomicU64::new(0));
            let (ws, wl, wh) = (Arc::clone(&seq), Arc::clone(&lo), Arc::clone(&hi));
            let w = thread::spawn(move || {
                ws.store(1, Ordering::Relaxed);
                wl.store(7, Ordering::Relaxed);
                wh.store(7, Ordering::Relaxed);
                ws.store(2, Ordering::Relaxed); // BUG: must be Release
            });
            // lint:allow(seqlock-retry) -- seeded mutant; the explorer must catch it
            let s1 = seq.load(Ordering::Acquire);
            if s1 == 2 {
                let a = lo.load(Ordering::Relaxed);
                let b = hi.load(Ordering::Relaxed);
                fence(Ordering::Acquire);
                if seq.load(Ordering::Relaxed) == s1 {
                    assert!(a == 7 && b == 7, "accepted a torn/stale payload");
                }
            }
            w.join().unwrap();
        })
    }

    /// Seqlock reader that skips the odd check and the revalidating
    /// re-read: it can observe a half-written payload.
    pub fn seqlock_reader_no_revalidate(bound: usize) -> Outcome {
        checker(bound).explore("mutant-seqlock-no-revalidate", || {
            let seq = Arc::new(AtomicU64::new(0));
            let lo = Arc::new(AtomicU64::new(0));
            let hi = Arc::new(AtomicU64::new(0));
            let (ws, wl, wh) = (Arc::clone(&seq), Arc::clone(&lo), Arc::clone(&hi));
            let w = thread::spawn(move || {
                ws.store(1, Ordering::Relaxed);
                wl.store(7, Ordering::Relaxed);
                wh.store(7, Ordering::Relaxed);
                // lint:allow(release-pairing) -- seeded mutant; its reader never acquires
                ws.store(2, Ordering::Release);
            });
            // BUG: no `& 1` check, no second read of `seq`.
            // lint:allow(seqlock-retry) -- seeded mutant; the explorer must catch it
            if seq.load(Ordering::Acquire) != 0 {
                let a = lo.load(Ordering::Relaxed);
                let b = hi.load(Ordering::Relaxed);
                assert_eq!(a, b, "torn read accepted without revalidation");
            }
            w.join().unwrap();
        })
    }

    /// Pool shutdown with the flag checked *outside* the mutex: the
    /// set+notify can slot between the worker's check and its wait —
    /// a lost wakeup, which exact condvar semantics turn into a
    /// deadlock the checker reports.
    pub fn pool_shutdown_lost_wakeup(bound: usize) -> Outcome {
        checker(bound).explore("mutant-pool-lost-wakeup", || {
            let m = Arc::new(Mutex::new(()));
            let cv = Arc::new(Condvar::new());
            let stop = Arc::new(AtomicBool::new(false));
            let (m2, cv2, stop2) = (Arc::clone(&m), Arc::clone(&cv), Arc::clone(&stop));
            let worker = thread::spawn(move || {
                let mut g = m2.lock().unwrap();
                while !stop2.load(Ordering::Relaxed) {
                    // BUG: flag is not under the mutex
                    g = cv2.wait(g).unwrap();
                }
            });
            stop.store(true, Ordering::Relaxed);
            cv.notify_all();
            worker.join().unwrap();
        })
    }

    /// Arena-style statistics counter bumped with a load+store pair
    /// instead of `fetch_add`: a lost update under contention.
    pub fn arena_counter_lost_update(bound: usize) -> Outcome {
        checker(bound).explore("mutant-arena-lost-update", || {
            let hits = Arc::new(AtomicU64::new(0));
            let h2 = Arc::clone(&hits);
            let t = thread::spawn(move || {
                let v = h2.load(Ordering::Relaxed);
                h2.store(v + 1, Ordering::Relaxed); // BUG: not fetch_add
            });
            let v = hits.load(Ordering::Relaxed);
            hits.store(v + 1, Ordering::Relaxed);
            t.join().unwrap();
            assert_eq!(hits.load(Ordering::Relaxed), 2, "lost counter update");
        })
    }

    /// Plan-cache insert without the double-check under the write
    /// lock: concurrent misses each insert their own value and the
    /// callers diverge.
    pub fn plan_cache_no_double_check(bound: usize) -> Outcome {
        checker(bound).explore("mutant-dcl-missing-recheck", || {
            let slot: Arc<RwLock<Option<Arc<u64>>>> = Arc::new(RwLock::new(None));
            let get = |s: Arc<RwLock<Option<Arc<u64>>>>| {
                move || {
                    if let Some(p) = s.read().unwrap().as_ref() {
                        return Arc::clone(p);
                    }
                    let built = Arc::new(1u64);
                    let mut w = s.write().unwrap();
                    // BUG: no re-check of `w` before overwriting
                    *w = Some(Arc::clone(&built));
                    built
                }
            };
            let h1 = thread::spawn(get(Arc::clone(&slot)));
            let h2 = thread::spawn(get(Arc::clone(&slot)));
            let p1 = h1.join().unwrap();
            let p2 = h2.join().unwrap();
            assert!(Arc::ptr_eq(&p1, &p2), "concurrent misses diverged");
        })
    }

    /// Work stealing with a peek-then-re-lock window: the thief reads
    /// the victim's head under one lock, releases, then re-locks to
    /// take it — but "executes" what it peeked regardless of what the
    /// second lock finds. The owner can pop the same item inside the
    /// window, and the item runs twice.
    pub fn shard_steal_double_execute(bound: usize) -> Outcome {
        checker(bound).explore("mutant-steal-double-execute", || {
            let q = Arc::new(Mutex::new(VecDeque::from([7u32])));
            let executed = Arc::new(AtomicU64::new(0));
            let (tq, te) = (Arc::clone(&q), Arc::clone(&executed));
            let thief = thread::spawn(move || {
                let peeked = tq.lock().unwrap().front().copied();
                if peeked.is_some() {
                    // BUG: the steal must pop and execute under one
                    // critical section; this re-lock discards what the
                    // second look actually found.
                    let _ = tq.lock().unwrap().pop_front();
                    te.fetch_add(1, Ordering::Relaxed);
                }
            });
            if q.lock().unwrap().pop_front().is_some() {
                executed.fetch_add(1, Ordering::Relaxed);
            }
            thief.join().unwrap();
            assert_eq!(
                executed.load(Ordering::Relaxed),
                1,
                "item executed twice (or lost)"
            );
        })
    }

    /// Reader doorbell armed *after* the re-check: a reply that lands
    /// between the re-check and the arm rings a disarmed bell, and the
    /// reader blocks with it unseen — a lost wakeup, which exact
    /// condvar semantics turn into a deadlock the checker reports.
    pub fn doorbell_arm_after_recheck(bound: usize) -> Outcome {
        checker(bound).explore("mutant-doorbell-arm-after-recheck", || {
            let armed = Arc::new(AtomicBool::new(false));
            let wake = Arc::new(ShimWake::new());
            let reply = Arc::new(AtomicBool::new(false));
            let (ca, cw, cr) = (Arc::clone(&armed), Arc::clone(&wake), Arc::clone(&reply));
            let completer = thread::spawn(move || {
                cr.store(true, Ordering::Relaxed);
                if ca.swap(false, Ordering::AcqRel) {
                    cw.wake();
                }
            });
            while !reply.load(Ordering::Relaxed) {
                // BUG: the re-check must come after the arm.
                if !reply.load(Ordering::Relaxed) {
                    armed.swap(true, Ordering::AcqRel);
                    wake.block();
                }
                armed.swap(false, Ordering::AcqRel);
            }
            completer.join().unwrap();
        })
    }
}

fn protocol_finding(out: &Outcome) -> Finding {
    if out.passed() {
        if out.complete {
            Finding::info(
                "AN-MC",
                out.name.clone(),
                format!("verified: {}", out.summary()),
            )
        } else {
            Finding::warning(
                "AN-MC",
                out.name.clone(),
                format!("passed but exploration truncated: {}", out.summary()),
            )
        }
    } else {
        let mut msg = format!("FAILED: {}", out.summary());
        if let Some(f) = &out.failure {
            for line in f.trace.iter().rev().take(12).rev() {
                msg.push_str("\n    ");
                msg.push_str(line);
            }
        }
        Finding::error("AN-MC", out.name.clone(), msg)
    }
}

fn mutant_finding(out: &Outcome, expect_deadlock: bool) -> Finding {
    if out.passed() {
        Finding::error(
            "AN-MC",
            out.name.clone(),
            format!(
                "seeded mutant was NOT caught — the checker has gone blind to this \
                 bug class ({})",
                out.summary()
            ),
        )
    } else if expect_deadlock
        && !matches!(
            out.failure.as_ref().map(|f| &f.kind),
            Some(FailureKind::Deadlock { .. })
        )
    {
        Finding::warning(
            "AN-MC",
            out.name.clone(),
            format!(
                "caught, but not as the expected deadlock: {}",
                out.summary()
            ),
        )
    } else {
        Finding::info(
            "AN-MC",
            out.name.clone(),
            format!("mutant caught as expected ({})", out.summary()),
        )
    }
}

/// Run all protocol checks and all mutants at `bound` preemptions and
/// fold the outcomes into one report: a protocol failure or an
/// uncaught mutant is an error.
pub fn run_all(bound: usize) -> Report {
    let mut report = Report::new();
    for out in [
        protocols::flight_seqlock(bound),
        protocols::pool_scoped_drain(bound),
        protocols::arena_checkout_reuse(bound),
        protocols::plan_cache_dcl(bound),
        protocols::delta_buffer(bound),
        protocols::shard_steal(bound),
        protocols::reader_doorbell(bound),
    ] {
        report.push(protocol_finding(&out));
    }
    for (out, expect_deadlock) in [
        (mutants::seqlock_relaxed_publish(bound), false),
        (mutants::seqlock_reader_no_revalidate(bound), false),
        (mutants::pool_shutdown_lost_wakeup(bound), true),
        (mutants::arena_counter_lost_update(bound), false),
        (mutants::plan_cache_no_double_check(bound), false),
        (mutants::shard_steal_double_execute(bound), false),
        (mutants::doorbell_arm_after_recheck(bound), true),
    ] {
        report.push(mutant_finding(&out, expect_deadlock));
    }
    report
}
