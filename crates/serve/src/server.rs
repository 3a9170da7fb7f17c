//! The in-process serving core: N runtime shards, each with a bounded
//! admission queue and a shape-coalescing dispatcher, behind one
//! shape-affine router with load-based spill and cross-shard work
//! stealing.
//!
//! # One shard (the default)
//!
//! One dispatcher thread owns the batching decision. It pops the oldest
//! queued request and pulls every already-queued request with the same
//! *(shape, alpha, beta)* key in the same critical section. It then
//! holds the group open for the whole [`ServeConfig::coalesce_window`],
//! absorbing same-key arrivals until the window closes or
//! [`ServeConfig::max_batch`] is reached; with a zero window the group
//! is what was already queued, and a lone request is dispatched at
//! once. The group executes as **one** [`Smm::gemm_batch`] call — one
//! cached plan, cross-request parallelism on the runtime's persistent
//! `TaskPool` — which is exactly the across-GEMM parallelism the
//! paper's §III-D prescribes for tiny shapes. A group of one skips the
//! flat-buffer copies and calls [`Smm::gemm`] directly.
//!
//! # N shards ([`ServerBuilder::shards`])
//!
//! Each shard owns its **own** [`Smm`] runtime — plan cache, packing
//! arenas, worker pool, telemetry — mirroring the paper's Phytium
//! 2000+ panel topology, where a core's cost model depends on which
//! 8-core panel its data lives in (§II, Table I). Requests route to
//! shards by shape hash ([`crate::shard::route_shape`]), so one
//! shape's plan and arenas stay hot in one shard instead of being
//! sprayed across all of them; a shard whose queue is deep spills new
//! arrivals to the shallowest shard, and an idle shard *steals* the
//! head group of the deepest victim through
//! [`ShardQueues::steal_group`](crate::steal::ShardQueues) — a
//! single-victim-lock protocol that is exhaustively model-checked
//! (`smm-analyze concurrency --model-check`, protocol `shard-steal`).
//!
//! Robustness invariants (all shard counts):
//!
//! * **Bounded admission** — [`Client::submit`] never blocks and never
//!   queues beyond [`ServeConfig::queue_capacity`] per shard; overflow
//!   is the typed backpressure signal [`Rejected::QueueFull`].
//! * **Deadlines expire before dispatch** — queued requests whose
//!   deadline has passed are answered [`Rejected::DeadlineExceeded`]
//!   and never reach the GEMM; expired work is shed, not computed.
//! * **Exactly-once replies** — every admitted request's ticket is
//!   fulfilled exactly once: by execution (on its own shard or a
//!   thief's), by expiry, or by the drain.
//! * **Graceful shutdown** — [`Server::shutdown`] stops admission,
//!   wakes every dispatcher, and joins them only after every queue has
//!   been drained and every outstanding ticket answered.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use smm_sync::sync::atomic::{AtomicU64, Ordering};
use smm_sync::sync::thread::JoinHandle;

use smm_core::metrics::{self, Val};
use smm_core::{
    shape_arg, CallSite, OpenSpan, Phase, Smm, SpanName, StridedBatch, TraceCtx, Tracer,
};
use smm_gemm::arena;
use smm_gemm::matrix::{MatMut, MatRef};
use smm_kernels::Scalar;

use crate::clock;
use crate::doorbell::Ring;
use crate::request::{reply_pair, GemmRequest, Rejected, ReplySlot, Ticket};
use crate::shard::route_shape;
use crate::steal::{Refused, ShardQueues, Step};

/// Tuning knobs of one [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bound on queued (admitted, not yet dispatched) requests *per
    /// shard*; submissions beyond it are rejected with
    /// [`Rejected::QueueFull`].
    pub queue_capacity: usize,
    /// How long the dispatcher holds a group open for more same-shape
    /// arrivals (default 100 µs). Zero holds nothing: a group is
    /// whichever same-key requests are already queued when its head is
    /// popped, so batches still form under load. A window trades
    /// latency for batch size on every group, lone requests included,
    /// and it paces the dispatchers: each holds one group per window,
    /// so a saturated server's throughput is set by the window rather
    /// than by whatever CPU the host has left. On the benchmark's
    /// `serve_mix` workload (2 shards behind `TcpServer`, 2-vCPU x86
    /// host) the default measured about 510 µs heavy-phase p50 and a
    /// steady 44k op/s saturation; a zero window measured about 130 µs
    /// and 72–106k op/s, spread by the host's other load. Set zero
    /// where lone-request latency matters more than steady throughput.
    pub coalesce_window: Duration,
    /// Maximum requests coalesced into one `gemm_batch` call.
    pub max_batch: usize,
    /// How many of the plan database's hottest shapes (by persisted
    /// traffic) each dispatcher pre-warms at startup — plans built and
    /// gather arenas touched before the first request. Zero disables;
    /// a no-op when the runtime has no plan database or no traffic.
    pub prewarm: usize,
    /// Runtime shards: independent `Smm` runtimes, each with its own
    /// admission queue and dispatcher. 1 (the default) is the classic
    /// single-runtime server.
    pub shards: usize,
}

/// Queue depth at which the router spills a new arrival away from its
/// home shard to the shallowest one (shape affinity traded for load
/// balance; only meaningful with more than one shard).
pub const SPILL_DEPTH: usize = 64;

/// How long an idle dispatcher waits before re-polling its siblings'
/// queues for stealable work (multi-shard only; a single-shard
/// dispatcher blocks untimed on its own condvar).
pub const STEAL_POLL: Duration = Duration::from_micros(200);

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 256,
            coalesce_window: Duration::from_micros(100),
            max_batch: 64,
            prewarm: 64,
            shards: 1,
        }
    }
}

/// Cumulative serving counters, snapshotted by [`Server::stats`] /
/// [`Client::stats`] (fleet-wide sums) and [`Client::shard_stats`]
/// (one shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Requests answered with a computed result.
    pub completed: u64,
    /// Submissions rejected because the queue was full.
    pub rejected_queue_full: u64,
    /// Submissions rejected because the server was shutting down.
    pub rejected_shutdown: u64,
    /// Admitted requests answered `DeadlineExceeded` before dispatch.
    pub expired: u64,
    /// Dispatched groups (each is one `gemm` or `gemm_batch` call).
    pub batches: u64,
    /// Largest group dispatched so far.
    pub coalesced_max: u64,
    /// Requests queued right now.
    pub queue_depth: usize,
    /// Hot shapes the dispatcher pre-warmed at startup (plans built
    /// and arenas touched before the first request).
    pub prewarmed: u64,
    /// Requests an idle shard stole from an overloaded sibling's queue
    /// (counted on the thief).
    pub stolen: u64,
    /// Requests the router redirected away from their home shard to a
    /// shallower one (counted on the shard that absorbed them).
    pub spilled: u64,
}

impl ServeStats {
    /// Mean requests per dispatched group — the coalescing factor the
    /// batcher achieved (1.0 means no cross-request aggregation).
    pub fn coalescing_factor(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completed as f64 / self.batches as f64
        }
    }

    /// Fold another snapshot in by each counter's declared merge rule
    /// (`coalesced_max` takes the max, everything else adds) — how
    /// per-shard snapshots fold into the fleet view.
    pub fn absorb(&mut self, other: &ServeStats) {
        metrics::fold(self, other);
    }
}

smm_core::series! { ServeStats;
    _ submitted Sum (Counter smm_serve_submitted_total) (submitted);
    _ completed Sum (Counter smm_serve_completed_total) (completed);
    _ rejected_queue_full Sum (Counter smm_serve_rejected_queue_full_total) (rejected_queue_full);
    _ rejected_shutdown Sum (Counter smm_serve_rejected_shutdown_total) (rejected_shutdown);
    _ expired Sum (Counter smm_serve_expired_total) (expired);
    _ batches Sum (Counter smm_serve_batches_total) (batches);
    _ coalesced_max Max (Gauge smm_serve_coalesced_max) (coalesced_max);
    _ queue_depth Sum (Gauge smm_serve_queue_depth) (queue_depth);
    _ prewarmed Sum (Counter smm_serve_prewarmed_total) (prewarmed);
    _ stolen Sum (Counter smm_serve_stolen_total) (stolen);
    _ spilled Sum (Counter smm_serve_spilled_total) (spilled);
    _ coalescing_factor Derived _ _ => |s| Val::F(s.coalescing_factor());
}

impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "serve: {} submitted, {} completed in {} batches (coalescing x{:.2}, max {})",
            self.submitted,
            self.completed,
            self.batches,
            self.coalescing_factor(),
            self.coalesced_max
        )?;
        write!(
            f,
            "       {} expired, {} queue-full, {} shutdown-rejected, {} queued now, {} prewarmed, {} stolen, {} spilled",
            self.expired,
            self.rejected_queue_full,
            self.rejected_shutdown,
            self.queue_depth,
            self.prewarmed,
            self.stolen,
            self.spilled
        )
    }
}

/// One admitted, not-yet-answered request.
struct Pending<S: Scalar> {
    req: GemmRequest<S>,
    /// Absolute deadline, resolved at submission.
    deadline: Option<Instant>,
    /// Submission time, for the enqueue-wait span.
    enqueued: Instant,
    /// The request's trace span, begun at submission and ended when
    /// the reply is fulfilled (all-zero when tracing is off).
    span: OpenSpan,
    /// The shard whose tracer minted `span` and whose counters this
    /// request's lifecycle (submitted/completed/expired) bills to.
    /// Stays fixed even when the request is spilled to another queue
    /// or stolen by another dispatcher.
    origin: usize,
    slot: Arc<ReplySlot<S>>,
}

impl<S: Scalar> Pending<S> {
    fn same_group(&self, other: &Pending<S>) -> bool {
        self.req.m == other.req.m
            && self.req.n == other.req.n
            && self.req.k == other.req.k
            && self.req.alpha == other.req.alpha
            && self.req.beta == other.req.beta
    }

    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| d <= now)
    }
}

/// Per-shard counters and the shard runtime's tracer; relaxed
/// monotonic adds/maxes, read only by snapshotting reporters — never
/// used for synchronization.
struct ShardState {
    /// The shard runtime's request tracer (the disabled no-op unless
    /// its `Smm` was built with tracing). Request spans begin at
    /// submission, so submitters need it without going through `Smm`.
    tracer: Tracer,
    // All counters relaxed; see the struct docs.
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_shutdown: AtomicU64,
    expired: AtomicU64,
    batches: AtomicU64,
    coalesced_max: AtomicU64,
    prewarmed: AtomicU64,
    stolen: AtomicU64,
    spilled: AtomicU64,
}

impl ShardState {
    fn new(tracer: Tracer) -> Self {
        ShardState {
            tracer,
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            coalesced_max: AtomicU64::new(0),
            prewarmed: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            spilled: AtomicU64::new(0),
        }
    }

    fn stats(&self, queue_depth: usize) -> ServeStats {
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            coalesced_max: self.coalesced_max.load(Ordering::Relaxed),
            queue_depth,
            prewarmed: self.prewarmed.load(Ordering::Relaxed),
            stolen: self.stolen.load(Ordering::Relaxed),
            spilled: self.spilled.load(Ordering::Relaxed),
        }
    }
}

/// State shared between [`Client`] handles and the dispatchers.
struct ServeShared<S: Scalar> {
    /// Per-shard bounded queues + the model-checked stealing protocol.
    /// The shutdown latch lives inside (`ShardQueues::shutdown`), so
    /// admit-vs-drain decisions serialize under the queue mutexes.
    queues: ShardQueues<Pending<S>>,
    cfg: ServeConfig,
    shards: Vec<ShardState>,
}

impl<S: Scalar> ServeShared<S> {
    fn shard_stats(&self, shard: usize) -> ServeStats {
        self.shards[shard].stats(self.queues.depth(shard))
    }

    fn stats(&self) -> ServeStats {
        let mut total = ServeStats::default();
        for i in 0..self.shards.len() {
            total.absorb(&self.shard_stats(i));
        }
        total
    }
}

/// A cloneable submission handle into a [`Server`].
pub struct Client<S: Scalar> {
    shared: Arc<ServeShared<S>>,
}

impl<S: Scalar> Clone for Client<S> {
    fn clone(&self) -> Self {
        Client {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<S: Scalar> std::fmt::Debug for Client<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client").finish_non_exhaustive()
    }
}

impl<S: Scalar> Client<S> {
    /// Submit one request. Never blocks: the result is a [`Ticket`] to
    /// wait on, or an immediate typed rejection (validation failure,
    /// full queue, or a shutting-down server).
    ///
    /// Routing (multi-shard): the request's shape hashes to its *home*
    /// shard so one shape's plan and arenas stay hot in one runtime;
    /// when the home queue is at least [`SPILL_DEPTH`]
    /// deep — or turns out to be full — the request spills to the
    /// shallowest shard instead.
    pub fn submit(&self, req: GemmRequest<S>) -> Result<Ticket<S>, Rejected> {
        self.submit_inner(req, None)
    }

    /// [`Client::submit`] for a caller that polls the ticket instead of
    /// waiting on it: the reply rings `bell` rather than the ticket's
    /// condvar.
    pub(crate) fn submit_ringing(
        &self,
        req: GemmRequest<S>,
        bell: &Arc<dyn Ring>,
    ) -> Result<Ticket<S>, Rejected> {
        self.submit_inner(req, Some(Arc::clone(bell)))
    }

    fn submit_inner(
        &self,
        req: GemmRequest<S>,
        bell: Option<Arc<dyn Ring>>,
    ) -> Result<Ticket<S>, Rejected> {
        req.validate().map_err(Rejected::Invalid)?;
        let shared = &self.shared;
        let nshards = shared.shards.len();
        // Fast-path hint only; the authoritative check is under the
        // queue lock inside `push`.
        let mut target = route_shape(req.m, req.n, req.k, nshards);
        if shared.queues.is_shutdown() {
            shared.shards[target]
                .rejected_shutdown
                .fetch_add(1, Ordering::Relaxed);
            return Err(Rejected::ShuttingDown);
        }
        let mut spilled = false;
        if nshards > 1 && shared.queues.depth(target) >= SPILL_DEPTH {
            if let Some(alt) = self.shallowest_other(target) {
                target = alt;
                spilled = true;
            }
        }
        let state = &shared.shards[target];
        let now = clock::now();
        // Admission: mint the request's trace (span ends at reply) and
        // time the validate-and-enqueue window under it. No-ops with
        // the disabled tracer. The span lives on the home shard's
        // tracer for the request's whole life, even if stolen.
        let span = state.tracer.begin_span(
            TraceCtx::none(),
            SpanName::Request,
            shape_arg(req.m, req.n, req.k),
        );
        let adm = state.tracer.begin_span(
            TraceCtx {
                trace: span.trace,
                parent: span.span,
            },
            SpanName::Admission,
            0,
        );
        let reject = |err: Rejected| {
            state.tracer.end_span(adm);
            state.tracer.end_span(span);
            Err(err)
        };
        let (slot, ticket) = reply_pair(bell);
        let mut pending = Pending {
            deadline: req.deadline.map(|d| now + d),
            enqueued: now,
            req,
            span,
            origin: target,
            slot,
        };
        match shared.queues.push(target, pending) {
            Ok(()) => {}
            Err(Refused::ShutDown(_)) => {
                state.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
                return reject(Rejected::ShuttingDown);
            }
            Err(Refused::Full(p)) => {
                pending = p;
                // Home shard full: one spill attempt to the shallowest
                // sibling before giving up with typed backpressure.
                let alt = if nshards > 1 {
                    self.shallowest_other(target)
                } else {
                    None
                };
                let mut placed = false;
                if let Some(alt) = alt {
                    match shared.queues.push(alt, pending) {
                        Ok(()) => {
                            placed = true;
                            shared.shards[alt].spilled.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(Refused::ShutDown(_)) => {
                            state.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
                            return reject(Rejected::ShuttingDown);
                        }
                        Err(Refused::Full(_)) => {}
                    }
                }
                if !placed {
                    state.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
                    return reject(Rejected::QueueFull {
                        capacity: shared.cfg.queue_capacity,
                    });
                }
                state.tracer.end_span(adm);
                state.submitted.fetch_add(1, Ordering::Relaxed);
                return Ok(ticket);
            }
        }
        if spilled {
            state.spilled.fetch_add(1, Ordering::Relaxed);
        }
        state.tracer.end_span(adm);
        state.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(ticket)
    }

    /// The shard with the shallowest queue hint, excluding `not` —
    /// `None` when no other shard is shallower than `not`'s queue.
    fn shallowest_other(&self, not: usize) -> Option<usize> {
        let q = &self.shared.queues;
        let mut best: Option<(usize, usize)> = None;
        for i in 0..q.shards() {
            if i == not {
                continue;
            }
            let d = q.depth(i);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        best.filter(|&(_, d)| d < q.depth(not)).map(|(i, _)| i)
    }

    /// Fleet-wide snapshot of the serving counters (all shards
    /// summed).
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// Snapshot of one shard's serving counters.
    pub fn shard_stats(&self, shard: usize) -> ServeStats {
        self.shared.shard_stats(shard)
    }

    /// Number of runtime shards behind this client.
    pub fn shards(&self) -> usize {
        self.shared.shards.len()
    }
}

/// Builder for [`Server`] — mirrors the [`Smm::builder`] idiom.
pub struct ServerBuilder<S: Scalar> {
    cfg: ServeConfig,
    smms: Vec<Arc<Smm<S>>>,
    threads: Option<usize>,
}

impl<S: Scalar> Default for ServerBuilder<S> {
    fn default() -> Self {
        ServerBuilder {
            cfg: ServeConfig::default(),
            smms: Vec::new(),
            threads: None,
        }
    }
}

impl<S: Scalar> ServerBuilder<S> {
    /// Bound on queued requests per shard (clamped to at least 1).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.cfg.queue_capacity = capacity.max(1);
        self
    }

    /// The shape-coalescing window.
    pub fn coalesce_window(mut self, window: Duration) -> Self {
        self.cfg.coalesce_window = window;
        self
    }

    /// Maximum requests per dispatched group (clamped to at least 1).
    pub fn max_batch(mut self, max: usize) -> Self {
        self.cfg.max_batch = max.max(1);
        self
    }

    /// How many hot shapes each dispatcher pre-warms at startup (0
    /// disables; default 64). Only effective when the runtime carries
    /// a plan database with recorded traffic.
    pub fn prewarm(mut self, shapes: usize) -> Self {
        self.cfg.prewarm = shapes;
        self
    }

    /// Number of runtime shards (clamped to at least 1; default 1).
    /// Each shard is an independent `Smm` runtime with its own plan
    /// cache, arenas, worker pool, queue, and dispatcher.
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.shards = shards.max(1);
        self
    }

    /// Serve shard 0 on this existing runtime instead of building one
    /// (remaining shards, if any, are built internally).
    pub fn smm(mut self, smm: Arc<Smm<S>>) -> Self {
        if self.smms.is_empty() {
            self.smms.push(smm);
        } else {
            self.smms[0] = smm;
        }
        self
    }

    /// Serve on exactly these runtimes, one per shard (also sets the
    /// shard count).
    pub fn smms(mut self, smms: Vec<Arc<Smm<S>>>) -> Self {
        self.cfg.shards = smms.len().max(1);
        self.smms = smms;
        self
    }

    /// Worker threads for each internally built runtime (ignored for
    /// shards whose runtime was supplied). Defaults to the machine's
    /// available parallelism.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Build the server and start one dispatcher thread per shard.
    pub fn build(self) -> Server<S> {
        let threads = self
            .threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |p| p.get()));
        let mut smms = self.smms;
        while smms.len() < self.cfg.shards {
            smms.push(Arc::new(Smm::builder().threads(threads).build()));
        }
        smms.truncate(self.cfg.shards);
        let shared = Arc::new(ServeShared {
            queues: ShardQueues::new(self.cfg.shards, self.cfg.queue_capacity),
            shards: smms
                .iter()
                .map(|smm| ShardState::new(smm.tracer().clone()))
                .collect(),
            cfg: self.cfg,
        });
        let dispatchers = smms
            .iter()
            .enumerate()
            .map(|(i, smm)| {
                let smm = Arc::clone(smm);
                let shared = Arc::clone(&shared);
                smm_sync::sync::thread::Builder::new()
                    .name(format!("smm-serve-dispatch-{i}"))
                    .spawn(move || dispatcher_loop(&smm, &shared, i))
                    .expect("failed to spawn serve dispatcher")
            })
            .collect();
        Server {
            shared,
            smms,
            dispatchers,
        }
    }
}

/// An in-process GEMM server: one bounded queue + coalescing
/// dispatcher per [`Smm`] runtime shard, behind a shape-affine router
/// with work stealing. Construct via [`Server::builder`]; submit
/// through [`Server::client`] handles; stop with [`Server::shutdown`]
/// (also run on drop), which drains every queue and answers every
/// outstanding request before returning.
pub struct Server<S: Scalar> {
    shared: Arc<ServeShared<S>>,
    smms: Vec<Arc<Smm<S>>>,
    dispatchers: Vec<JoinHandle<()>>,
}

impl<S: Scalar> std::fmt::Debug for Server<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("config", &self.shared.cfg)
            .finish_non_exhaustive()
    }
}

impl<S: Scalar> Server<S> {
    /// Start building a server.
    pub fn builder() -> ServerBuilder<S> {
        ServerBuilder::default()
    }

    /// A new submission handle.
    pub fn client(&self) -> Client<S> {
        Client {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Shard 0's runtime (the only one on a single-shard server; its
    /// [`stats_report`](Smm::stats_report) carries the serve-side
    /// phase spans under the `serve` call site).
    pub fn smm(&self) -> &Arc<Smm<S>> {
        &self.smms[0]
    }

    /// All shard runtimes, indexed by shard.
    pub fn smms(&self) -> &[Arc<Smm<S>>] {
        &self.smms
    }

    /// Number of runtime shards.
    pub fn shards(&self) -> usize {
        self.smms.len()
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.cfg
    }

    /// Fleet-wide snapshot of the serving counters (all shards
    /// summed).
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// Snapshot of one shard's serving counters.
    pub fn shard_stats(&self, shard: usize) -> ServeStats {
        self.shared.shard_stats(shard)
    }

    /// Graceful shutdown: stop admitting, drain every queue (every
    /// outstanding request is executed and answered), join the
    /// dispatchers, and return the final fleet counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.shutdown_inner();
        self.shared.stats()
    }

    fn shutdown_inner(&mut self) {
        // `ShardQueues::shutdown` stores the latch + notifies under
        // each shard's mutex, serializing with every dispatcher's
        // check-then-wait so no wakeup is ever lost.
        self.shared.queues.shutdown();
        for handle in self.dispatchers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<S: Scalar> Drop for Server<S> {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Move every queue entry matching `head`'s group key into `group`
/// (up to `max_batch` total), recording each mover's enqueue-wait.
fn extract_matching<S: Scalar>(
    q: &mut VecDeque<Pending<S>>,
    group: &mut Vec<Pending<S>>,
    max_batch: usize,
) {
    let mut i = 0;
    while i < q.len() && group.len() < max_batch {
        if group[0].same_group(&q[i]) {
            // `remove` preserves FIFO order of the rest of the queue.
            group.push(q.remove(i).expect("index checked"));
        } else {
            i += 1;
        }
    }
}

/// Answer every queued request whose deadline already passed.
fn expire_queued<S: Scalar>(q: &mut VecDeque<Pending<S>>, shared: &ServeShared<S>, now: Instant) {
    let mut i = 0;
    while i < q.len() {
        if q[i].expired(now) {
            let p = q.remove(i).expect("index checked");
            p.slot.fulfill(Err(Rejected::DeadlineExceeded));
            shared.shards[p.origin].tracer.end_span(p.span);
            shared.shards[p.origin]
                .expired
                .fetch_add(1, Ordering::Relaxed);
        } else {
            i += 1;
        }
    }
}

/// Pre-warm one dispatcher for its plan database's hottest shapes:
/// build (and cache) their plans, and cycle the dispatcher-thread
/// gather arena through the buffer sizes `execute_group` will request,
/// so the first real request of a hot shape pays neither plan
/// construction nor arena growth. Runs on the dispatcher thread —
/// the arena is thread-local, so warming it anywhere else is useless.
fn prewarm_hot_shapes<S: Scalar>(smm: &Smm<S>, cfg: &ServeConfig) -> u64 {
    let mut warmed = 0u64;
    // Gather buffers scale with group size; warm for a modest expected
    // coalescing factor rather than the full max_batch, which would
    // reserve far more than steady state touches.
    let per = cfg.max_batch.clamp(1, 8);
    for (m, n, k) in smm.hot_shapes(cfg.prewarm) {
        smm.plan(m, n, k);
        let (ea, eb, ec) = (m * k, k * n, m * n);
        let a = arena::checkout::<S>(per * ea);
        let b = arena::checkout::<S>(per * eb);
        let c = arena::checkout::<S>(per * ec);
        drop((a, b, c));
        warmed += 1;
    }
    warmed
}

/// What one scheduling round of a dispatcher produced.
enum Round<S: Scalar> {
    /// A head request popped from the own queue, with every queued
    /// request of its key (held for the window next, if one is set).
    Head(Vec<Pending<S>>),
    /// A ready-made group stolen from a sibling (dispatch directly).
    Stolen(Vec<Pending<S>>),
    /// Nothing anywhere and not shutting down: the round already
    /// blocked once on the condvar; go around again.
    Idle,
    /// Shutdown with an empty own queue: exit. (Siblings drain their
    /// own queues; stealing during drain only speeds it up.)
    Exit,
}

fn dispatcher_loop<S: Scalar>(smm: &Smm<S>, shared: &ServeShared<S>, shard: usize) {
    let cfg = shared.cfg.clone();
    if cfg.prewarm > 0 {
        let warmed = prewarm_hot_shapes(smm, &cfg);
        // relaxed — monotonic stat, read only by snapshotting reporters.
        shared.shards[shard]
            .prewarmed
            .store(warmed, Ordering::Relaxed);
    }
    let multi = shared.shards.len() > 1;
    loop {
        // Phase 1: find work — own queue first, then steal, then wait.
        // The own-queue check and the blocking wait are *one* drive
        // call each, so the shutdown check and the wait serialize
        // under the queue mutex (no lost wakeup).
        let mut waited = false;
        let round = shared.queues.drive(shard, |q, down| {
            if q.iter().any(|p| p.deadline.is_some()) {
                expire_queued(q, shared, clock::now());
            }
            if let Some(p) = q.pop_front() {
                let mut group = vec![p];
                extract_matching(q, &mut group, cfg.max_batch);
                return Step::Done(Round::Head(group));
            }
            if down {
                return Step::Done(Round::Exit);
            }
            if multi {
                // Release the lock between steal polls: the steal
                // itself must not run while holding the own-shard
                // lock (single-lock protocol), so go idle after at
                // most one bounded wait.
                if waited {
                    return Step::Done(Round::Idle);
                }
                waited = true;
                Step::WaitTimeout(STEAL_POLL)
            } else {
                // Single shard: nobody to steal from — block untimed
                // until a push or shutdown notifies.
                Step::Wait
            }
        });
        let round = match round {
            Round::Idle => {
                let stolen =
                    shared
                        .queues
                        .steal_group(shard, cfg.max_batch, |a: &Pending<S>, b| a.same_group(b));
                if stolen.is_empty() {
                    continue;
                }
                Round::Stolen(stolen)
            }
            other => other,
        };
        match round {
            Round::Exit => return,
            Round::Idle => unreachable!("idle rounds are resolved above"),
            Round::Stolen(group) => {
                // Stolen groups dispatch immediately — the victim
                // already aged them; holding a second window would
                // only add latency to work that is late by definition.
                let popped_at = clock::now();
                shared.shards[shard]
                    .stolen
                    .fetch_add(group.len() as u64, Ordering::Relaxed);
                process_group(smm, shared, shard, group, popped_at);
            }
            Round::Head(mut group) => {
                // Phase 2: coalesce. The group already holds everything
                // queued with the head's key; a set window holds it
                // open for same-key arrivals too.
                let popped_at = clock::now();
                if !cfg.coalesce_window.is_zero() {
                    let window_ends = popped_at + cfg.coalesce_window;
                    shared.queues.drive(shard, |q, down| {
                        extract_matching(q, &mut group, cfg.max_batch);
                        // Drain fast once shutdown is requested — the
                        // window only trades latency for batching, and
                        // at drain time latency is all that is left to
                        // optimize.
                        if down || group.len() >= cfg.max_batch {
                            return Step::Done(());
                        }
                        let now = clock::now();
                        if now >= window_ends {
                            return Step::Done(());
                        }
                        Step::WaitTimeout(window_ends - now)
                    });
                }
                // Phase 3: expire-before-dispatch, execute, reply.
                process_group(smm, shared, shard, group, popped_at);
            }
        }
    }
}

/// Execute one coalesced group on `exec`'s runtime and answer every
/// member. Lifecycle counters (completed/expired) bill to each
/// request's origin shard; execution counters (batches/coalesced_max)
/// bill to the executing shard.
fn process_group<S: Scalar>(
    smm: &Smm<S>,
    shared: &ServeShared<S>,
    exec: usize,
    group: Vec<Pending<S>>,
    popped_at: Instant,
) {
    let rec = smm.telemetry().recorder(CallSite::Serve);
    let tracer = smm.tracer();
    let dispatch_start = clock::now();

    let mut live: Vec<Pending<S>> = Vec::with_capacity(group.len());
    for p in group {
        if p.expired(dispatch_start) {
            p.slot.fulfill(Err(Rejected::DeadlineExceeded));
            shared.shards[p.origin].tracer.end_span(p.span);
            shared.shards[p.origin]
                .expired
                .fetch_add(1, Ordering::Relaxed);
        } else {
            live.push(p);
        }
    }
    if live.is_empty() {
        return;
    }
    // The dispatch gets its own trace on the *executing* shard; the
    // member spans below keep their request trace ids but parent under
    // this batch span, so an exported trace links each coalesced
    // request to the one dispatch that served it (for stolen requests
    // the batch lives on the thief's tracer while the request span
    // stays on the origin's — the trace id still ties them together).
    // The guard also makes this span the dispatcher thread's current
    // one, nesting the `gemm`/`gemm_batch` trace of `execute_group`
    // under it.
    let batch_span = tracer.root(SpanName::CoalescedBatch, live.len() as u64);
    let members: Vec<OpenSpan> = live
        .iter()
        .enumerate()
        .map(|(i, p)| {
            tracer.begin_span(
                TraceCtx {
                    trace: p.span.trace,
                    parent: batch_span.span(),
                },
                SpanName::Member,
                i as u64,
            )
        })
        .collect();
    if rec.active() {
        for p in &live {
            let waited = dispatch_start.saturating_duration_since(p.enqueued);
            rec.span_ns(Phase::EnqueueWait, waited.as_nanos() as u64);
        }
        let held = dispatch_start.saturating_duration_since(popped_at);
        rec.span_ns(Phase::Coalesce, held.as_nanos() as u64);
    }

    let (m, n, k) = (live[0].req.m, live[0].req.n, live[0].req.k);
    let (alpha, beta) = (live[0].req.alpha, live[0].req.beta);
    let outcome = execute_group(smm, &mut live, m, n, k, alpha, beta);
    let replied_at = if rec.active() {
        let done = clock::now();
        rec.span_ns(
            Phase::Dispatch,
            done.saturating_duration_since(dispatch_start).as_nanos() as u64,
        );
        Some(done)
    } else {
        None
    };

    shared.shards[exec].batches.fetch_add(1, Ordering::Relaxed);
    shared.shards[exec]
        .coalesced_max
        .fetch_max(live.len() as u64, Ordering::Relaxed);
    let count = live.len() as u64;
    // One label for the whole group, built only when it can be used.
    let slow_label = if tracer.enabled() {
        format!("serve {m}x{n}x{k}")
    } else {
        String::new()
    };
    let reply_span = tracer.span(SpanName::Reply, count);
    for (i, mut p) in live.into_iter().enumerate() {
        let c = std::mem::take(&mut p.req.c);
        match &outcome {
            Ok(()) => {
                p.slot.fulfill(Ok(c));
                shared.shards[p.origin]
                    .completed
                    .fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => p.slot.fulfill(Err(e.clone())),
        }
        tracer.end_span(members[i]);
        let origin_tracer = &shared.shards[p.origin].tracer;
        origin_tracer.end_span(p.span);
        if origin_tracer.enabled() {
            // End-to-end latency (submission → reply fulfilled); a
            // breach pins this request's full span tree. The spans
            // were ended above, so the snapshot sees the whole tree.
            let total_ns = clock::now()
                .saturating_duration_since(p.enqueued)
                .as_nanos() as u64;
            origin_tracer.note_request_done(p.span.trace, total_ns, &slow_label);
        }
    }
    drop(reply_span);
    drop(batch_span);
    if let Some(replied_at) = replied_at {
        // The group's GEMMs were accounted (flops, rate window, shape
        // row) by the `gemm`/`gemm_batch` call that ran them; the serve
        // site counts dispatched groups only. The Reply span is recorded
        // last, so a reader that sees it sees the whole group.
        if outcome.is_ok() {
            smm.telemetry().record_site_call(CallSite::Serve);
        }
        let end = clock::now();
        rec.span_ns(
            Phase::Reply,
            end.saturating_duration_since(replied_at).as_nanos() as u64,
        );
    }
}

/// Run the group's GEMMs: directly for a group of one, as one strided
/// batch otherwise. Results land in each member's `req.c`.
fn execute_group<S: Scalar>(
    smm: &Smm<S>,
    live: &mut [Pending<S>],
    m: usize,
    n: usize,
    k: usize,
    alpha: S,
    beta: S,
) -> Result<(), Rejected> {
    if live.len() == 1 {
        let p = &mut live[0];
        if m == 0 || n == 0 {
            return Ok(());
        }
        if k == 0 {
            MatMut::from_slice(&mut p.req.c, m, n, m).scale(beta);
            return Ok(());
        }
        let a = MatRef::from_slice(&p.req.a, m, k, m);
        let b = MatRef::from_slice(&p.req.b, k, n, k);
        let c = MatMut::from_slice(&mut p.req.c, m, n, m);
        smm.gemm(alpha, a, b, beta, c);
        return Ok(());
    }
    // Coalesced path: gather the dense prefixes into flat strided
    // buffers so the whole group is one plan + one pool dispatch. The
    // gather buffers come from the dispatcher thread's packing arena —
    // a steady stream of same-shape groups reuses the same storage
    // instead of allocating three fresh vectors per group.
    let desc = StridedBatch::dense(m, n, k, live.len());
    let (ea, eb, ec) = (m * k, k * n, m * n);
    let mut fa = arena::checkout::<S>(live.len() * ea);
    let mut fb = arena::checkout::<S>(live.len() * eb);
    let mut fc = arena::checkout::<S>(live.len() * ec);
    for p in live.iter() {
        fa.extend_from_slice(&p.req.a[..ea]);
        fb.extend_from_slice(&p.req.b[..eb]);
        fc.extend_from_slice(&p.req.c[..ec]);
    }
    smm.gemm_batch(&desc, alpha, &fa, &fb, beta, &mut fc)
        .map_err(Rejected::Invalid)?;
    for (i, p) in live.iter_mut().enumerate() {
        p.req.c[..ec].copy_from_slice(&fc[i * desc.stride_c..][..ec]);
    }
    Ok(())
}
