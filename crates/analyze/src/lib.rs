//! `smm-analyze` — static kernel-contract verifier and repository
//! invariant linter.
//!
//! Two fronts, one report format, one exit code:
//!
//! * **Kernel front** ([`verifier`]) — proves, without running the
//!   simulator, that every registered kernel honors its paper-derived
//!   contract: the Eq. 4 register budget and a stream-level live-range
//!   proof that nothing spills ([`liveness`]); a RAW dependence-chain
//!   critical path that separates avoidable scheduling serialization
//!   (Fig. 7's pathology) from intrinsically latency-bound edge shapes
//!   ([`hazard`]); load/store bounds, alignment, and operand aliasing
//!   against the declared packing extents ([`bounds`]); and edge-tile
//!   residue coverage of each registry ([`coverage`]).
//! * **Lint front** ([`lint`]) — a hand-rolled scanner holding the
//!   workspace's concurrency/timing conventions: `SAFETY:` comments on
//!   `unsafe`, ordering rationales on atomics, `thread::spawn` fenced
//!   to the pool, `Instant::now` fenced to telemetry/bench code,
//!   `extern` foreign functions fenced to the serving layer's `poll(2)`
//!   wrapper.
//!
//! * **Concurrency front** ([`ordering`], the `concurrency`
//!   subcommand) — a cross-file atomic-ordering dataflow pass over
//!   every `Ordering::*` literal: release stores must have an
//!   acquire-side observer somewhere (`AN-C001`), relaxed loads of
//!   release-published fields need an acquire fence (`AN-C002`),
//!   seqlock readers must revalidate (`AN-C003`), and held lock
//!   guards must nest in one global order (`AN-C004`). Its dynamic
//!   counterpart — exhaustive schedule exploration of the real
//!   protocols — lives in `smm_sync::mc` and runs via
//!   `concurrency --model-check` under `--cfg smm_model_check`.
//!
//! All fronts emit [`report::Finding`]s with stable codes (`AN-*`,
//! `LINT-*`) rendered as human text or JSON; the CLI (`smm-analyze`)
//! exits non-zero on errors (and on warnings under `--deny-warnings`).
//! [`fixtures`] holds golden bad inputs that must each trip their
//! check — the analyzer's own regression net.

#![deny(missing_docs)]

pub mod bounds;
pub mod coverage;
pub mod fixtures;
pub mod hazard;
pub mod lint;
pub mod liveness;
#[cfg(smm_model_check)]
pub mod mc;
pub mod ordering;
pub mod report;
pub mod verifier;

pub use report::{Finding, Report, Severity};
pub use verifier::{verify_all, VerifyConfig};
