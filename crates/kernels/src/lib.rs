//! Micro-kernel framework for small-scale GEMM.
//!
//! Three views of the same micro-kernel concept:
//!
//! * [`native`] — the one host-executed kernel family: a raw-`C`
//!   entry ([`Kernel::run_ptr`]) and its safe slice wrapper, taking `A`
//!   at a column stride and `B` packed or column-major. A tile runs on
//!   the host's widest FMA unit — AVX-512F or AVX2+FMA on x86-64,
//!   detected at run time ([`KernelImpl`]), for `f32` — or on portable
//!   scalar loops, unrolled for the static shape table and backed by
//!   one dynamic fallback up to 32×32. The scalar loops are the
//!   fallback of every other host and element type and, with a fused
//!   twin, the reference each implementation is checked against bit
//!   for bit. The library strategies' Goto engine and the §IV
//!   reference path in `smm-core` both run it;
//! * [`direct`] — the unpacked operand forms (`B` packed or
//!   column-major) that let the §IV path skip a packing pass;
//! * [`trace_gen`] — ARMv8-like instruction streams for the
//!   `smm-simarch` Phytium 2000+ model, parameterized by the scheduling
//!   policies the paper contrasts (Fig. 7);
//! * [`registry`] — the per-library kernel configurations of Table I
//!   and the edge-case decomposition machinery of §III-B.
//!
//! The element type abstraction lives in [`scalar`]; kernel shape
//! metadata in [`descriptor`].

#![deny(missing_docs)]

pub mod descriptor;
pub mod direct;
pub mod native;
pub mod registry;
pub mod scalar;
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod simd;
pub mod trace_gen;

pub use descriptor::{BLoadStyle, MicroKernelDesc, SchedulePolicy};
pub use direct::BOperand;
pub use native::{Kernel, KernelImpl, KernelLookupError, KernelRef, KernelRegistry};
pub use registry::{EdgeStrategy, LibraryProfile, TileSpan};
pub use scalar::Scalar;
pub use smm_model::VectorIsa;
pub use trace_gen::{emit_kernel, kernel_trace, KernelTraceParams};
