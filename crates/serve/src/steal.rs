//! Sharded admission queues with a model-checkable work-stealing
//! protocol.
//!
//! [`ShardQueues`] is the synchronization core of the sharded server:
//! one bounded FIFO per runtime shard, each guarded by its own mutex +
//! condvar, plus a lock-free *depth hint* per shard that the router
//! and the stealers read without touching any lock. The paper's §III-D
//! finding — synchronization dominates small-shape cost — dictates the
//! shape of this type: a dispatcher in steady state only ever touches
//! **its own** shard's lock, and a steal touches exactly **one** other
//! lock (the victim's), so no operation ever holds two locks and the
//! protocol is trivially deadlock-free by lock ordering.
//!
//! Invariants (exhaustively model-checked by `smm-analyze concurrency
//! --model-check`, protocol `shard-steal`):
//!
//! * **Exactly-once ownership** — an item pushed into any shard is
//!   popped by exactly one consumer: its own dispatcher
//!   ([`ShardQueues::try_pop`] / [`ShardQueues::drive`]) or a thief
//!   ([`ShardQueues::steal_group`]). Transfer happens entirely under
//!   the victim's mutex; there is no peek-then-re-lock window.
//! * **Bounded admission** — [`ShardQueues::push`] checks capacity and
//!   the shutdown latch under the shard's mutex and refuses with the
//!   item handed back, so callers can answer typed backpressure.
//! * **No lost shutdown wakeup** — [`ShardQueues::shutdown`] stores
//!   the latch and notifies *while holding each shard's mutex*, which
//!   serializes it against every dispatcher's check-then-wait.
//!
//! Everything here imports its primitives from the `smm_sync::sync`
//! facade, so the same source is driven through the CHESS-style
//! bounded-preemption checker under `--cfg smm_model_check`.

use std::collections::VecDeque;
use std::time::Duration;

use smm_sync::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use smm_sync::sync::{Condvar, Mutex};

/// Why a [`ShardQueues::push`] was refused; carries the item back so
/// the caller can answer the submitter without cloning.
#[derive(Debug)]
pub enum Refused<T> {
    /// The shard's queue was at capacity.
    Full(T),
    /// The shutdown latch was raised.
    ShutDown(T),
}

/// One step decision from a [`ShardQueues::drive`] closure.
#[derive(Debug)]
pub enum Step<R> {
    /// Stop driving and return this value.
    Done(R),
    /// Block on the shard's condvar until notified, then re-run the
    /// closure.
    Wait,
    /// Block for at most this long, then re-run the closure (whether
    /// notified or timed out).
    WaitTimeout(Duration),
}

/// One shard's queue: mutex-guarded FIFO, a condvar for its
/// dispatcher, and the lock-free depth hint.
struct Slot<T> {
    queue: Mutex<VecDeque<T>>,
    cv: Condvar,
    /// Relaxed load-balancing hint, refreshed under the mutex after
    /// every queue mutation; readers (router, victim selection) use it
    /// for *heuristics* only — every correctness decision re-reads the
    /// queue under its lock, so staleness costs placement quality,
    /// never an invariant.
    depth: AtomicUsize,
}

/// `N` bounded FIFOs with per-shard blocking pops and cross-shard
/// stealing. See the module docs for the protocol and its invariants.
pub struct ShardQueues<T> {
    slots: Vec<Slot<T>>,
    capacity: usize,
    /// Shutdown latch; relaxed — every decision that must be race-free
    /// (admit vs. drain-and-exit) reads it under a shard mutex, and
    /// [`ShardQueues::shutdown`] stores + notifies under each shard's
    /// mutex in turn, so the mutexes provide the ordering and any
    /// lock-free read is only a fast-path hint.
    shutdown: AtomicBool,
}

impl<T> std::fmt::Debug for ShardQueues<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardQueues")
            .field("shards", &self.slots.len())
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl<T> ShardQueues<T> {
    /// `shards` independent FIFOs (at least 1), each bounded to
    /// `capacity` items (at least 1).
    pub fn new(shards: usize, capacity: usize) -> Self {
        ShardQueues {
            slots: (0..shards.max(1))
                .map(|_| Slot {
                    queue: Mutex::new(VecDeque::new()),
                    cv: Condvar::new(),
                    // Relaxed hint; see the field docs.
                    depth: AtomicUsize::new(0),
                })
                .collect(),
            capacity: capacity.max(1),
            // Relaxed latch; see the field docs.
            shutdown: AtomicBool::new(false),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.slots.len()
    }

    /// Per-shard queue capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The lock-free depth hint of one shard — routing/victim
    /// heuristics only, may be stale by the time it is used.
    pub fn depth(&self, shard: usize) -> usize {
        self.slots[shard].depth.load(Ordering::Relaxed)
    }

    /// Whether the shutdown latch has been raised (lock-free hint; the
    /// authoritative read happens under a shard mutex in
    /// [`push`](ShardQueues::push) and [`drive`](ShardQueues::drive)).
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Sum of all queue lengths, read under each shard's lock.
    pub fn total_len(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.queue.lock().unwrap().len())
            .sum()
    }

    /// Enqueue `item` on `shard` and wake its dispatcher. Refuses —
    /// handing the item back — when the shard is at capacity or the
    /// shutdown latch is up; both checks happen under the shard mutex,
    /// so a successful push is guaranteed to be observed by the
    /// draining dispatcher.
    pub fn push(&self, shard: usize, item: T) -> Result<(), Refused<T>> {
        let slot = &self.slots[shard];
        let mut q = slot.queue.lock().unwrap();
        // Authoritative re-check under the lock: once a dispatcher has
        // observed shutdown with an empty queue and exited, nothing
        // may enqueue.
        if self.shutdown.load(Ordering::Relaxed) {
            return Err(Refused::ShutDown(item));
        }
        if q.len() >= self.capacity {
            return Err(Refused::Full(item));
        }
        q.push_back(item);
        slot.depth.store(q.len(), Ordering::Relaxed);
        drop(q);
        slot.cv.notify_one();
        Ok(())
    }

    /// Pop the head of `shard` without blocking.
    pub fn try_pop(&self, shard: usize) -> Option<T> {
        let slot = &self.slots[shard];
        let mut q = slot.queue.lock().unwrap();
        let item = q.pop_front();
        slot.depth.store(q.len(), Ordering::Relaxed);
        item
    }

    /// Run `step` over `shard`'s queue under its mutex, blocking on the
    /// shard condvar between runs as the closure directs. The closure
    /// receives the queue and the shutdown latch as read under the
    /// lock; the depth hint is refreshed after every run. This is the
    /// dispatcher's only entry point — pop, expire, and coalesce
    /// decisions all happen inside one closure so they are atomic with
    /// respect to admission and stealing.
    pub fn drive<R>(
        &self,
        shard: usize,
        mut step: impl FnMut(&mut VecDeque<T>, bool) -> Step<R>,
    ) -> R {
        let slot = &self.slots[shard];
        let mut q = slot.queue.lock().unwrap();
        loop {
            let down = self.shutdown.load(Ordering::Relaxed);
            let decision = step(&mut q, down);
            slot.depth.store(q.len(), Ordering::Relaxed);
            match decision {
                Step::Done(r) => return r,
                Step::Wait => q = slot.cv.wait(q).unwrap(),
                Step::WaitTimeout(d) => q = slot.cv.wait_timeout(q, d).unwrap().0,
            }
        }
    }

    /// Steal a group of up to `max` items from the deepest *other*
    /// shard: the victim's head item plus every queued item `same`
    /// groups with it. Locks only the victim's mutex — transfer is
    /// atomic under that single lock, so an item is owned by exactly
    /// one side in every interleaving (no peek-then-re-lock window).
    /// Returns an empty vec when every other shard looks empty.
    pub fn steal_group(&self, thief: usize, max: usize, same: impl Fn(&T, &T) -> bool) -> Vec<T> {
        // Victim selection off the lock-free hints: deepest other
        // shard, ties to the lowest index. A stale hint only means a
        // wasted lock or a missed steal — never a correctness issue.
        let mut victim = None;
        let mut best = 0usize;
        for (i, slot) in self.slots.iter().enumerate() {
            if i == thief {
                continue;
            }
            let d = slot.depth.load(Ordering::Relaxed);
            if d > best {
                best = d;
                victim = Some(i);
            }
        }
        let Some(v) = victim else { return Vec::new() };
        let slot = &self.slots[v];
        let mut q = slot.queue.lock().unwrap();
        let mut group = Vec::new();
        if let Some(head) = q.pop_front() {
            group.push(head);
            let mut i = 0;
            while i < q.len() && group.len() < max.max(1) {
                if same(&group[0], &q[i]) {
                    // `remove` preserves FIFO order of the rest.
                    group.push(q.remove(i).expect("index checked"));
                } else {
                    i += 1;
                }
            }
        }
        slot.depth.store(q.len(), Ordering::Relaxed);
        group
    }

    /// Raise the shutdown latch and wake every dispatcher. The store
    /// and notify happen under each shard's mutex in turn, so they
    /// serialize with every dispatcher's check-then-wait — lock-free,
    /// they could land between a dispatcher's shutdown check and its
    /// `wait`, losing the wakeup forever.
    pub fn shutdown(&self) {
        for slot in &self.slots {
            let _q = slot.queue.lock().unwrap();
            self.shutdown.store(true, Ordering::Relaxed);
            slot.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_and_depth_hints() {
        let q = ShardQueues::new(2, 4);
        assert_eq!(q.shards(), 2);
        q.push(0, 1u32).unwrap();
        q.push(0, 2).unwrap();
        q.push(1, 3).unwrap();
        assert_eq!(q.depth(0), 2);
        assert_eq!(q.depth(1), 1);
        assert_eq!(q.total_len(), 3);
        assert_eq!(q.try_pop(0), Some(1));
        assert_eq!(q.depth(0), 1);
        assert_eq!(q.try_pop(1), Some(3));
        assert_eq!(q.try_pop(1), None);
    }

    #[test]
    fn capacity_and_shutdown_refuse_with_the_item() {
        let q = ShardQueues::new(1, 1);
        q.push(0, 10u32).unwrap();
        match q.push(0, 11) {
            Err(Refused::Full(v)) => assert_eq!(v, 11),
            other => panic!("expected Full, got {other:?}"),
        }
        q.shutdown();
        match q.push(0, 12) {
            Err(Refused::ShutDown(v)) => assert_eq!(v, 12),
            other => panic!("expected ShutDown, got {other:?}"),
        }
        assert!(q.is_shutdown());
    }

    #[test]
    fn steal_takes_head_group_from_deepest_victim() {
        let q = ShardQueues::new(3, 8);
        for v in [5u32, 5, 7, 5] {
            q.push(2, v).unwrap();
        }
        q.push(1, 9).unwrap();
        // Shard 2 is deepest; steal groups the 5s around its head and
        // leaves the 7 (and shard 1's 9) alone.
        let got = q.steal_group(0, 8, |a, b| a == b);
        assert_eq!(got, vec![5, 5, 5]);
        assert_eq!(q.depth(2), 1);
        assert_eq!(q.try_pop(2), Some(7));
        // Group-size bound is honored.
        for v in [4u32, 4, 4] {
            q.push(2, v).unwrap();
        }
        assert_eq!(q.steal_group(0, 2, |a, b| a == b).len(), 2);
    }

    #[test]
    fn steal_with_no_victims_is_empty() {
        let q = ShardQueues::<u32>::new(1, 4);
        assert!(q.steal_group(0, 4, |_, _| true).is_empty());
        let q = ShardQueues::<u32>::new(2, 4);
        assert!(q.steal_group(0, 4, |_, _| true).is_empty());
    }

    #[test]
    fn drive_sees_shutdown_and_pops() {
        let q = ShardQueues::new(1, 4);
        q.push(0, 42u32).unwrap();
        let got = q.drive(0, |queue, down| {
            assert!(!down);
            Step::Done(queue.pop_front())
        });
        assert_eq!(got, Some(42));
        assert_eq!(q.depth(0), 0);
        q.shutdown();
        let down = q.drive(0, |_, down| Step::Done(down));
        assert!(down);
    }

    #[test]
    fn drive_timeout_reruns_the_closure() {
        let q = ShardQueues::<u32>::new(1, 4);
        let mut runs = 0;
        q.drive(0, |_, _| {
            runs += 1;
            if runs < 3 {
                Step::WaitTimeout(Duration::from_micros(50))
            } else {
                Step::Done(())
            }
        });
        assert_eq!(runs, 3);
    }
}
