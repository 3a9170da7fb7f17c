//! The serving layer's single clock access point.
//!
//! `smm-analyze` fences `Instant::now` so the untimed GEMM hot path
//! provably never reads the clock. The serving layer is different in
//! kind: wall time is part of its *semantics* — request deadlines, the
//! coalescing window and the TCP readers' parking are functional
//! behaviour, not instrumentation.
//! Routing every read through this module keeps the analyzer's fence
//! narrow (this file is the crate's only allow-listed clock site) and
//! keeps the rest of the crate auditable: a clock read elsewhere in
//! `smm-serve` is a lint error.

use std::time::Instant;

/// Read the wall clock.
pub(crate) fn now() -> Instant {
    Instant::now()
}
