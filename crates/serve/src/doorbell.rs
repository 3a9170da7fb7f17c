//! The reader doorbell: how a TCP reader blocked in `poll(2)` learns of
//! an event that no socket it polls can report — a reply completed, the
//! acceptor handed it a stream, or shutdown began.
//!
//! The owner arms, re-checks every such event source, and only then
//! blocks; the other side publishes its event and then rings. A ring
//! wakes the owner only while it is armed, so a busy reader is rung for
//! the price of one atomic swap and no syscall. Every access to the
//! armed flag is an `AcqRel` swap, so all of them are read-modify-writes
//! of one location and fall into one modification order:
//!
//! * a ring ordered after an arm reads `true` (or follows another ring
//!   that did) and wakes the owner;
//! * an arm ordered after a ring reads from that ring's release
//!   sequence, so the owner's re-check sees everything published before
//!   the ring.
//!
//! Either way no event stays unseen while the owner blocks. The
//! argument needs no `SeqCst` total order, which is what lets the model
//! checker prove it: protocol `reader-doorbell` in
//! `smm-analyze concurrency --model-check` drives this type with the OS
//! wake replaced by a condvar shim (see [`Wake`]).

use smm_sync::sync::atomic::{AtomicBool, Ordering};

/// What actually wakes a blocked owner. The TCP front end writes one
/// byte to the reader's socket pair, which its `poll(2)` watches; the
/// model checker substitutes a condvar.
pub trait Wake {
    /// Make the owner's current or next block return.
    fn wake(&self);
}

/// Arm / re-check / block on the owner's side, publish / ring on the
/// other (see the module docs for why no wakeup is lost).
#[derive(Debug)]
pub struct Doorbell<W> {
    /// `true` while the owner is between its arm and the end of its
    /// block. AcqRel swaps only: arm, disarm and ring are all RMWs, so
    /// each reads the latest value and continues the release sequence
    /// of the ring before it.
    armed: AtomicBool,
    wake: W,
}

impl<W: Wake> Doorbell<W> {
    /// A disarmed doorbell over `wake`.
    pub fn new(wake: W) -> Doorbell<W> {
        Doorbell {
            armed: AtomicBool::new(false),
            wake,
        }
    }

    /// The wake behind this doorbell (the owner blocks on it).
    pub fn waker(&self) -> &W {
        &self.wake
    }

    /// Signal the owner after publishing an event. Wakes it only if it
    /// is armed, and only the first ring after each arm does.
    pub fn ring(&self) {
        if self.armed.swap(false, Ordering::AcqRel) {
            self.wake.wake();
        }
    }

    /// The owner's side: arm, then run `has_work`, the re-check of
    /// every source that rings, and call `block` only if it found
    /// nothing. Disarms before returning, whether or not it blocked.
    pub fn block_unless(&self, has_work: impl FnOnce() -> bool, block: impl FnOnce()) {
        self.armed.swap(true, Ordering::AcqRel);
        if !has_work() {
            block();
        }
        self.armed.swap(false, Ordering::AcqRel);
    }
}

/// The completion hook a reply slot carries: type-erased so request
/// code need not name the reader's wake.
pub(crate) trait Ring: Send + Sync {
    fn ring(&self);
}

impl<W: Wake + Send + Sync> Ring for Doorbell<W> {
    fn ring(&self) {
        Doorbell::ring(self);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;

    #[derive(Default)]
    struct Count(AtomicUsize);

    impl Wake for Count {
        fn wake(&self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn only_the_first_ring_after_an_arm_wakes() {
        let bell = Doorbell::new(Count::default());
        let wakes = || bell.waker().0.load(Ordering::Relaxed);
        bell.ring();
        assert_eq!(wakes(), 0, "a disarmed ring must not wake");
        bell.block_unless(
            || false,
            || {
                bell.ring();
                bell.ring();
            },
        );
        assert_eq!(wakes(), 1, "one wake per arm");
        bell.ring();
        assert_eq!(wakes(), 1, "the doorbell disarms when the block returns");
        let mut blocked = false;
        bell.block_unless(|| true, || blocked = true);
        assert!(!blocked, "work found by the re-check skips the block");
        assert_eq!(wakes(), 1);
    }
}
