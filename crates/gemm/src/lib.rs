//! GEMM strategies of the four BLAS libraries the paper evaluates.
//!
//! Each strategy — [`openblas`], [`blis`], [`blasfeo`], [`eigen`] —
//! reimplements the library's documented approach (Table I / §II-C of
//! the paper) against two substrates:
//!
//! * **native**: real arithmetic on the host, via the shared Goto
//!   engine ([`engine`]) and thread decompositions ([`parallel`]),
//!   validated against the naive triple loop ([`naive`]);
//! * **simulated**: macro-op programs ([`sim`]) that expand into
//!   ARMv8-like instruction streams and run on the `smm-simarch`
//!   Phytium 2000+ model with per-phase cycle accounting — the
//!   substrate all figures and tables are regenerated on.
//!
//! Matrix storage (column-major views and BLASFEO's panel-major format)
//! lives in [`matrix`]; packing in [`pack`].

#![deny(missing_docs)]

pub mod arena;
pub mod blasfeo;
pub mod blis;
pub mod eigen;
pub mod engine;
pub mod flight;
pub mod matrix;
pub mod naive;
pub mod openblas;
pub mod pack;
pub mod parallel;
pub mod pool;
pub mod sim;
pub mod strategy;

pub use blasfeo::BlasfeoStrategy;
pub use blis::BlisStrategy;
pub use eigen::EigenStrategy;
pub use engine::GotoEngine;
pub use flight::{EventKind, FlightRecorder, SpanEvent};
pub use matrix::{Mat, MatMut, MatRef, PanelMatrix};
pub use naive::{check_gemm_bound, gemm_error_bound, gemm_naive, BoundViolation};
pub use openblas::OpenBlasStrategy;
pub use pool::TaskPool;
pub use sim::{GemmLayout, MacroOp, ProgramSource, SimJob};
pub use strategy::{all_strategies, Strategy};
