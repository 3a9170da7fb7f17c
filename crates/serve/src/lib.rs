//! `smm-serve` — a bounded, deadline-aware GEMM serving layer with
//! shape-coalescing batching.
//!
//! The paper's characterization stops at a single-process library, but
//! its central small-shape finding points straight at the service
//! boundary: for tiny GEMMs, parallelism must go *across* calls, not
//! inside them (§III-D), and the batched entry point
//! [`smm_core::Smm::gemm_batch`] already exploits that — provided
//! somebody assembles the batches. This crate is that somebody: a
//! request-level serving subsystem in front of the persistent
//! [`Smm`](smm_core::Smm) runtime.
//!
//! * [`server`] — the in-process core: a **bounded admission queue**
//!   with explicit backpressure ([`Rejected::QueueFull`]), per-request
//!   **deadlines** expired before dispatch, a dispatcher thread that
//!   **coalesces same-shape requests** already queued or arriving
//!   within a configurable window into one `gemm_batch` call (one
//!   cached plan, cross-request parallelism on the existing
//!   `TaskPool`), and **graceful shutdown**
//!   that drains in-flight work and answers every outstanding request.
//! * [`wire`] — a small length-prefixed binary protocol (`f32` only)
//!   whose decoder is total: truncated, oversized, or garbage frames
//!   produce typed protocol errors, never panics.
//! * [`shard`] + [`steal`] — the scale-out layer: N runtime shards
//!   (each its own [`Smm`](smm_core::Smm) with private plan cache,
//!   arenas, and worker pool — a panel, in the paper's topology),
//!   shape-affine FNV routing with load-based spill, and a
//!   model-checked work-stealing protocol between shard queues; the
//!   per-shard telemetry aggregates into one [`FleetReport`] behind
//!   the existing `STATS` opcode.
//! * [`tcp`] — a `std::net` front end: an acceptor thread plus a
//!   fixed pool of reader threads multiplexing nonblocking
//!   connections, so idle connections cost buffers, not threads. Each
//!   reader blocks in `poll(2)` and is woken by its [`doorbell`] when a
//!   reply completes, so the front end needs a unix target; the
//!   in-process server does not.
//! * telemetry: the dispatcher records serve-side phase spans —
//!   enqueue-wait, coalesce, dispatch, reply — into the owning
//!   `Smm`'s histogram shards under
//!   [`CallSite::Serve`](smm_core::CallSite), so
//!   [`stats_report`](smm_core::Smm::stats_report) extends the paper's
//!   Table-II-style overhead decomposition to the service boundary.
//!
//! # Example
//!
//! ```
//! use smm_serve::{GemmRequest, Server};
//!
//! let server = Server::<f32>::builder().threads(2).build();
//! let client = server.client();
//! let (m, n, k) = (4, 4, 4);
//! let req = GemmRequest::new(m, n, k, vec![1.0; m * k], vec![1.0; k * n]);
//! let ticket = client.submit(req).unwrap();
//! let c = ticket.wait().unwrap();
//! assert_eq!(c[0], k as f32);
//! server.shutdown();
//! ```

#![deny(missing_docs)]

mod clock;
pub mod doorbell;
#[cfg(unix)]
mod poll;
pub mod request;
pub mod server;
pub mod shard;
pub mod steal;
#[cfg(unix)]
pub mod tcp;
pub mod wire;

pub use request::{GemmRequest, Rejected, Ticket};
pub use server::{Client, ServeConfig, ServeStats, Server, ServerBuilder};
pub use shard::{gather_fleet, route_shape, shard_panel, FleetReport, ShardSection, PAPER_PANELS};
pub use steal::{Refused, ShardQueues, Step};
#[cfg(unix)]
pub use tcp::{TcpClient, TcpServer, DEFAULT_MAX_CONNECTIONS};
