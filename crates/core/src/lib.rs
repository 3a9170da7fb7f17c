//! Reference high-performance small-scale GEMM (SMM).
//!
//! This crate is the paper's primary proposed contribution (§IV of
//! Yang, Fang & Dong, *"Characterizing Small-Scale Matrix
//! Multiplications on ARMv8-based Many-Core Architectures"*): a GEMM
//! implementation specialized for small and irregular shapes, built on
//! the four findings of the paper's characterization:
//!
//! 1. **Packing-optional execution** ([`plan`], [`exec`]): the
//!    `O(M·K + K·N)` packing pass is skipped whenever the P2C model
//!    (§III-A) says it cannot be amortized; the `smm-kernels` kernels
//!    stream straight from column-major operands.
//! 2. **A set of shape-tuned micro-kernels** with exact edge
//!    decomposition and Fig.-8-style edge packing — no padded flops,
//!    no naively scheduled edge kernels.
//! 3. **Adaptive plan generation with caching** ([`plan`],
//!    [`smm::Smm`]) — the safe-Rust equivalent of LIBXSMM's JIT: tile
//!    tables and offsets are precomputed per shape and reused.
//! 4. **Run-time multi-dimensional parallelization** (§III-D): small
//!    dimensions are never split; thread counts are clamped to the
//!    available tile parallelism.
//!
//! Native execution lives in [`exec`]; [`simprog`] builds the same
//! plan's instruction stream for the simulated Phytium 2000+ so the
//! design can be compared against the four libraries.
//!
//! The persistent runtime — sharded plan cache, runtime counters, and
//! the worker pool handle — lives in [`runtime`]; construction goes
//! through [`smm::SmmBuilder`]. The [`telemetry`] module records
//! phase-level spans (plan lookup, packing, compute, dispatch, sync)
//! into per-thread latency histograms and derives the paper's
//! decomposition metrics — observed P2C, Table-II overhead shares,
//! model-relative Gflops — via [`smm::Smm::stats_report`].

#![deny(missing_docs)]

pub mod batch;
pub mod error;
pub mod exec;
pub mod metrics;
pub mod plan;
pub mod rate;
pub mod runtime;
pub mod simprog;
pub mod smm;
pub mod telemetry;
pub mod trace;
pub mod tune;

/// The workspace synchronization facade (`std` types in normal builds,
/// model-checker shims under `--cfg smm_model_check`). Runtime modules
/// import their `Mutex`/`Condvar`/atomics/threads from here.
pub use smm_sync::sync;

pub use batch::StridedBatch;
pub use error::{Operand, SmmError};
pub use exec::execute_in;
pub use plan::{choose_kernel, choose_kernel_for, PlanConfig, SmmPlan};
pub use rate::{savitzky_golay_slope, RateReport, RateWindow};
pub use runtime::{PoolStats, RuntimeStats, ShardedPlanCache, TaskPool};
pub use simprog::build_sim;
pub use smm::{Smm, SmmBuilder};
pub use smm_model::VectorIsa;
pub use smm_tune::{PlanDb, PlanDbError, PlanEntry, SweepGrid, DEFAULT_NN_THRESHOLD};
pub use telemetry::{
    CallSite, LatencyHistogram, Phase, PhaseReport, Recorder, ShapeReport, SiteBreakdown,
    Telemetry, TelemetryReport, DEFAULT_RATE_WINDOW,
};
pub use trace::{
    chrome_trace_json, shape_arg, AssembledSpan, OpenSpan, SpanGuard, SpanName, TraceCtx,
    TraceExemplar, Tracer,
};
pub use tune::{candidate_configs, tune_shape, Autotuner, PlanSource, TunedPlan, TunerStats};
