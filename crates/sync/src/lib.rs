//! `smm-sync` — the workspace synchronization facade plus an
//! exhaustive-schedule concurrency model checker.
//!
//! Every lock-free protocol in the runtime (the `gemm::flight` seqlock
//! recorder, the `TaskPool` park/shutdown drain, the arena counters, the
//! sharded double-checked plan caches) imports its primitives from
//! [`sync`] instead of `std::sync`. In a normal build the facade is a
//! zero-cost re-export of the `std` types, so adopting modules compile to
//! identical machine code. When the workspace is built with
//! `RUSTFLAGS='--cfg smm_model_check'` the facade switches to the
//! instrumented shims in [`mc::shim`], and any code that runs inside
//! [`mc::Checker::explore`] is driven through a CHESS-style
//! bounded-preemption DFS over thread interleavings with a C11-style
//! release/acquire store-buffer memory model (see [`mc`] for the model
//! and its documented limits).
//!
//! Outside an active exploration the shims fall back to plain `std`
//! semantics, so a `--cfg smm_model_check` build still runs ordinary
//! code (tests, binaries) correctly — only closures handed to the
//! checker are scheduled by the controller.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod mc;

/// The synchronization facade adopted by the runtime crates.
///
/// Mirrors the subset of `std::sync` / `std::thread` the workspace
/// actually uses: `Atomic{Bool,U32,U64,Usize}` +
/// [`atomic::fence`](sync::atomic::fence) +
/// [`atomic::Ordering`](sync::atomic::Ordering), `Mutex`/`Condvar`/`RwLock`, and
/// `thread::{spawn, Builder, JoinHandle}`. `Arc`, `OnceLock`, and
/// `mpsc` stay on `std` everywhere: they carry no protocol logic the
/// model checker needs to schedule.
pub mod sync {
    #[cfg(not(smm_model_check))]
    pub use std::sync::{
        Condvar, LockResult, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard,
    };

    #[cfg(smm_model_check)]
    pub use crate::mc::shim::{
        Condvar, LockResult, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard,
    };

    /// Atomic types and memory-ordering fences (std or shim).
    pub mod atomic {
        #[cfg(not(smm_model_check))]
        pub use std::sync::atomic::{
            fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering,
        };

        #[cfg(smm_model_check)]
        pub use crate::mc::shim::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
    }

    /// Thread spawning (std or shim). Threads spawned through this
    /// module while a model exploration is active become model threads
    /// scheduled by the controller.
    pub mod thread {
        #[cfg(not(smm_model_check))]
        pub use std::thread::{spawn, Builder, JoinHandle};

        #[cfg(smm_model_check)]
        pub use crate::mc::shim::{spawn, Builder, JoinHandle};
    }
}
