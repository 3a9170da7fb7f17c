//! Request-scoped tracing over the flight recorder.
//!
//! The [`crate::telemetry`] module answers *aggregate* questions (the
//! paper's Table-II shares, P2C, per-shape Gflops). This module
//! answers *causal* ones — "why was this request slow?" — by minting a
//! trace id per request and emitting begin/end span events into the
//! lock-free, bounded [`smm_gemm::flight::FlightRecorder`] as the
//! request moves admission → coalescing → pool workers → reply.
//!
//! Three consumers sit on top:
//!
//! * [`Tracer::drain`] + [`chrome_trace_json`] — assembles begin/end
//!   pairs into complete spans and renders the Chrome trace-event JSON
//!   Perfetto loads (`ph: "X"` events; trace/span/parent ids in
//!   `args` so batch→member links survive the export);
//! * the slow-request exemplar store — [`Tracer::note_request_done`]
//!   pins the full span tree of any request whose latency breaches the
//!   configured threshold, worst-K surfaced in `TelemetryReport`;
//! * the windowed rate estimators live in [`crate::rate`] (fed by
//!   telemetry, not by spans — they must stay cheap enough for every
//!   call even when tracing is off).
//!
//! Span parentage crosses API layers through a thread-local current
//! span (so the serve dispatcher's batch span parents the `gemm_batch`
//! root without threading arguments through every signature) and
//! crosses *threads* through the `Copy` [`TraceCtx`] captured into
//! pool-worker closures.
//!
//! A disabled tracer holds no state and every operation is a single
//! branch — the zero-overhead discipline of the telemetry recorder,
//! enforced by the same `smm-analyze` clock fence (this module's one
//! `Instant::now` carries an audited waiver).

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use smm_sync::sync::atomic::{AtomicU64, Ordering};
use smm_sync::sync::Mutex;

use smm_gemm::flight::{thread_tid, EventKind, FlightRecorder, SpanEvent};

/// Worst-K capacity of the slow-request exemplar store.
pub const EXEMPLAR_CAP: usize = 4;

/// What a span covers. The discriminant is the wire/ring tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanName {
    /// One serve request, submission to reply.
    Request = 0,
    /// Admission (validate + enqueue) inside `Client::submit`.
    Admission = 1,
    /// One `Smm::gemm` call.
    Gemm = 2,
    /// One `Smm::gemm_batch` call.
    GemmBatch = 3,
    /// One coalesced dispatcher group (its member requests are
    /// children; the group's `gemm`/`gemm_batch` span nests inside).
    CoalescedBatch = 4,
    /// One member request's window inside a coalesced batch (parented
    /// by the batch span, but carrying the member's own trace id).
    Member = 5,
    /// One pool-worker task of a parallel section.
    Worker = 6,
    /// Reply fan-out (copy-out + wakeups) of a coalesced batch.
    Reply = 7,
    /// A tag this build does not know (forward compatibility).
    Unknown = 255,
}

impl SpanName {
    /// Stable snake_case name (the Chrome-trace event name).
    pub fn name(self) -> &'static str {
        match self {
            SpanName::Request => "request",
            SpanName::Admission => "admission",
            SpanName::Gemm => "gemm",
            SpanName::GemmBatch => "gemm_batch",
            SpanName::CoalescedBatch => "coalesced_batch",
            SpanName::Member => "member",
            SpanName::Worker => "worker",
            SpanName::Reply => "reply",
            SpanName::Unknown => "unknown",
        }
    }

    fn from_u8(tag: u8) -> SpanName {
        match tag {
            0 => SpanName::Request,
            1 => SpanName::Admission,
            2 => SpanName::Gemm,
            3 => SpanName::GemmBatch,
            4 => SpanName::CoalescedBatch,
            5 => SpanName::Member,
            6 => SpanName::Worker,
            7 => SpanName::Reply,
            _ => SpanName::Unknown,
        }
    }
}

/// Pack a GEMM shape into a span's payload word (21 bits per dim —
/// far above the wire protocol's 4096-dim cap).
pub fn shape_arg(m: usize, n: usize, k: usize) -> u64 {
    ((m as u64 & 0x1F_FFFF) << 42) | ((n as u64 & 0x1F_FFFF) << 21) | (k as u64 & 0x1F_FFFF)
}

/// A `Copy` capture of "where we are in the trace", for carrying
/// parentage across threads (into pool-worker closures) or across time
/// (a queued request between submission and dispatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// Trace id (0 = not tracing).
    pub trace: u64,
    /// Span id new spans should parent under (0 = root).
    pub parent: u64,
}

impl TraceCtx {
    /// The empty context: spans opened in it are untraced no-ops.
    pub fn none() -> Self {
        TraceCtx::default()
    }
}

/// A begun-but-not-ended span owned by non-RAII code (the serve
/// request span begins on the submitting thread and ends on the
/// dispatcher). `Copy`, so it can sit in a queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenSpan {
    /// Trace id (0 = untraced; `end_span` ignores it).
    pub trace: u64,
    /// Span id.
    pub span: u64,
    tag: u8,
}

thread_local! {
    /// The calling thread's current (tracer id, trace, span) —
    /// consulted for implicit parentage, saved/restored by SpanGuard.
    static CURRENT: Cell<(u64, u64, u64)> = const { Cell::new((0, 0, 0)) };
}

/// Tracer-instance allocator so a thread-local parent from one `Smm`'s
/// tracer is never mistaken for another's.
// Relaxed monotonic counter; only distinctness matters.
static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);

/// The single audited clock read of the tracing subsystem. Reached
/// only through an enabled [`Tracer`]: a disabled tracer has no inner
/// state and never calls in, mirroring `telemetry::now_if`.
fn clock_now() -> Instant {
    // lint:allow(instant-now) -- tracing's one audited clock site: span timestamps, reachable only when tracing was explicitly enabled at build time
    Instant::now()
}

struct TracerInner {
    id: u64,
    epoch: Instant,
    flight: FlightRecorder,
    /// Id mints; relaxed monotonic counters, uniqueness only.
    next_trace: AtomicU64,
    next_span: AtomicU64,
    threshold_ns: u64,
    exemplars: Mutex<Vec<TraceExemplar>>,
}

/// Request-scoped span tracing for one `Smm` instance. Cheap to clone
/// (shared `Arc`); the disabled tracer is a `None` and every operation
/// on it is a single branch with no clock read.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Tracer {
    /// An enabled tracer. Requests slower than `slow_threshold` are
    /// pinned in the exemplar store when noted.
    pub fn new(slow_threshold: Duration) -> Self {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
                epoch: clock_now(),
                flight: FlightRecorder::new(),
                next_trace: AtomicU64::new(1),
                next_span: AtomicU64::new(1),
                threshold_ns: slow_threshold.as_nanos().min(u64::MAX as u128) as u64,
                exemplars: Mutex::new(Vec::new()),
            })),
        }
    }

    /// The no-op tracer.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn now_ns(inner: &TracerInner) -> u64 {
        clock_now()
            .saturating_duration_since(inner.epoch)
            .as_nanos() as u64
    }

    fn emit(
        inner: &TracerInner,
        kind: EventKind,
        trace: u64,
        span: u64,
        parent: u64,
        tag: u8,
        arg: u64,
    ) {
        inner.flight.emit(&SpanEvent {
            kind,
            trace,
            span,
            parent,
            ts_ns: Self::now_ns(inner),
            name: tag,
            tid: thread_tid(),
            arg,
        });
    }

    /// The calling thread's current context under *this* tracer
    /// (empty if another tracer or nothing is current). Capture this
    /// on the submitting thread and pass it into worker closures.
    pub fn current_ctx(&self) -> TraceCtx {
        let Some(inner) = &self.inner else {
            return TraceCtx::none();
        };
        let (id, trace, span) = CURRENT.with(|c| c.get());
        if id == inner.id {
            TraceCtx {
                trace,
                parent: span,
            }
        } else {
            TraceCtx::none()
        }
    }

    /// Open a span under the thread's current context: same trace and
    /// parented there if one is current, otherwise a fresh root trace.
    pub fn span(&self, name: SpanName, arg: u64) -> SpanGuard<'_> {
        let ctx = self.current_ctx();
        if ctx.trace != 0 {
            self.span_in(ctx, name, arg)
        } else {
            self.root(name, arg)
        }
    }

    /// Open a root span of a fresh trace, ignoring any current context.
    pub fn root(&self, name: SpanName, arg: u64) -> SpanGuard<'_> {
        let Some(inner) = self.inner.as_deref() else {
            return SpanGuard::noop();
        };
        let trace = inner.next_trace.fetch_add(1, Ordering::Relaxed);
        self.begin_guard(inner, trace, 0, name, arg)
    }

    /// Open a span in an explicit context (cross-thread parentage).
    /// A no-op if `ctx` is empty — worker closures can call this
    /// unconditionally.
    pub fn span_in(&self, ctx: TraceCtx, name: SpanName, arg: u64) -> SpanGuard<'_> {
        let Some(inner) = self.inner.as_deref() else {
            return SpanGuard::noop();
        };
        if ctx.trace == 0 {
            return SpanGuard::noop();
        }
        self.begin_guard(inner, ctx.trace, ctx.parent, name, arg)
    }

    fn begin_guard<'t>(
        &'t self,
        inner: &'t TracerInner,
        trace: u64,
        parent: u64,
        name: SpanName,
        arg: u64,
    ) -> SpanGuard<'t> {
        let span = inner.next_span.fetch_add(1, Ordering::Relaxed);
        Self::emit(
            inner,
            EventKind::Begin,
            trace,
            span,
            parent,
            name as u8,
            arg,
        );
        let prev = CURRENT.with(|c| c.replace((inner.id, trace, span)));
        SpanGuard {
            inner: Some(inner),
            trace,
            span,
            tag: name as u8,
            prev,
        }
    }

    /// Begin a span that will be ended manually (possibly on another
    /// thread) with [`Tracer::end_span`]. `parent` follows
    /// [`TraceCtx`] semantics; `ctx.trace == 0` mints a fresh trace.
    /// Does not touch the thread-local current span.
    pub fn begin_span(&self, ctx: TraceCtx, name: SpanName, arg: u64) -> OpenSpan {
        let Some(inner) = self.inner.as_deref() else {
            return OpenSpan::default();
        };
        let trace = if ctx.trace == 0 {
            inner.next_trace.fetch_add(1, Ordering::Relaxed)
        } else {
            ctx.trace
        };
        let span = inner.next_span.fetch_add(1, Ordering::Relaxed);
        Self::emit(
            inner,
            EventKind::Begin,
            trace,
            span,
            ctx.parent,
            name as u8,
            arg,
        );
        OpenSpan {
            trace,
            span,
            tag: name as u8,
        }
    }

    /// Close a span begun with [`Tracer::begin_span`]. A no-op for the
    /// default (untraced) `OpenSpan`.
    pub fn end_span(&self, open: OpenSpan) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        if open.trace == 0 {
            return;
        }
        Self::emit(inner, EventKind::End, open.trace, open.span, 0, open.tag, 0);
    }

    /// Drain the flight recorder and assemble its events into complete
    /// spans (begin/end pairs; orphans from ring wraparound dropped),
    /// sorted by start time.
    pub fn drain(&self) -> Vec<AssembledSpan> {
        match &self.inner {
            Some(inner) => assemble(&inner.flight.drain()),
            None => Vec::new(),
        }
    }

    /// Non-destructively assemble the spans of one trace still in the
    /// flight recorder (the exemplar capture path).
    pub fn snapshot_trace(&self, trace: u64) -> Vec<AssembledSpan> {
        match &self.inner {
            Some(inner) => {
                let events: Vec<SpanEvent> = inner
                    .flight
                    .snapshot()
                    .into_iter()
                    .filter(|e| e.trace == trace)
                    .collect();
                assemble(&events)
            }
            None => Vec::new(),
        }
    }

    /// Tell the exemplar store a request finished: if `total_ns`
    /// breaches the threshold, the trace's span tree is pinned (worst
    /// [`EXEMPLAR_CAP`] kept, by latency).
    pub fn note_request_done(&self, trace: u64, total_ns: u64, label: &str) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        if trace == 0 || total_ns < inner.threshold_ns {
            return;
        }
        // Cheap threshold pre-check passed: now pay for the ring scan.
        let spans = self.snapshot_trace(trace);
        let mut worst = inner.exemplars.lock().unwrap();
        if worst.iter().any(|e| e.trace == trace) {
            return;
        }
        let at = worst
            .iter()
            .position(|e| e.total_ns < total_ns)
            .unwrap_or(worst.len());
        worst.insert(
            at,
            TraceExemplar {
                trace,
                total_ns,
                label: label.to_string(),
                spans,
            },
        );
        worst.truncate(EXEMPLAR_CAP);
    }

    /// Current worst-K slow-request exemplars (worst first).
    pub fn exemplars(&self) -> Vec<TraceExemplar> {
        match &self.inner {
            Some(inner) => inner.exemplars.lock().unwrap().clone(),
            None => Vec::new(),
        }
    }
}

/// RAII span: emits `Begin` on creation, `End` on drop, and makes
/// itself the thread's current span in between (so nested calls —
/// including across crate layers — parent correctly).
pub struct SpanGuard<'t> {
    inner: Option<&'t TracerInner>,
    trace: u64,
    span: u64,
    tag: u8,
    prev: (u64, u64, u64),
}

impl<'t> SpanGuard<'t> {
    fn noop() -> Self {
        SpanGuard {
            inner: None,
            trace: 0,
            span: 0,
            tag: 0,
            prev: (0, 0, 0),
        }
    }

    /// This span's trace id (0 if untraced).
    pub fn trace(&self) -> u64 {
        self.trace
    }

    /// This span's id (0 if untraced).
    pub fn span(&self) -> u64 {
        self.span
    }

    /// Context for children of this span (capture into worker
    /// closures; empty if untraced).
    pub fn ctx(&self) -> TraceCtx {
        if self.inner.is_some() {
            TraceCtx {
                trace: self.trace,
                parent: self.span,
            }
        } else {
            TraceCtx::none()
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner {
            Tracer::emit(inner, EventKind::End, self.trace, self.span, 0, self.tag, 0);
            CURRENT.with(|c| c.set(self.prev));
        }
    }
}

/// One begin/end pair from the flight recorder, resolved into a
/// complete span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssembledSpan {
    /// Trace id.
    pub trace: u64,
    /// Span id.
    pub span: u64,
    /// Parent span id (0 = root; may belong to a *different* trace —
    /// coalesced-batch spans parent member spans across traces).
    pub parent: u64,
    /// What the span covers.
    pub name: SpanName,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Flight-recorder tid of the emitting thread (pool workers 1..=N).
    pub tid: u32,
    /// Payload word (shape code, batch size, …).
    pub arg: u64,
}

/// Pair `Begin`/`End` events by `(trace, span)` into complete spans,
/// dropping orphans (ring wraparound overwrites oldest events first,
/// so a surviving end may have lost its begin and vice versa). Sorted
/// by start time, then span id.
pub fn assemble(events: &[SpanEvent]) -> Vec<AssembledSpan> {
    let mut begins: HashMap<(u64, u64), &SpanEvent> = HashMap::new();
    let mut ends: HashMap<(u64, u64), u64> = HashMap::new();
    for e in events {
        match e.kind {
            EventKind::Begin => {
                begins.insert((e.trace, e.span), e);
            }
            EventKind::End => {
                ends.insert((e.trace, e.span), e.ts_ns);
            }
        }
    }
    let mut spans: Vec<AssembledSpan> = begins
        .into_iter()
        .filter_map(|(key, b)| {
            let end_ts = *ends.get(&key)?;
            Some(AssembledSpan {
                trace: b.trace,
                span: b.span,
                parent: b.parent,
                name: SpanName::from_u8(b.name),
                start_ns: b.ts_ns,
                dur_ns: end_ts.saturating_sub(b.ts_ns),
                tid: b.tid,
                arg: b.arg,
            })
        })
        .collect();
    spans.sort_by_key(|s| (s.start_ns, s.span));
    spans
}

/// A pinned slow-request span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceExemplar {
    /// The request's trace id.
    pub trace: u64,
    /// End-to-end latency that breached the threshold.
    pub total_ns: u64,
    /// Human label (site and shape).
    pub label: String,
    /// The trace's spans as captured at completion.
    pub spans: Vec<AssembledSpan>,
}

/// Render assembled spans as Chrome trace-event JSON (the format
/// `chrome://tracing` and Perfetto load). Spans become `ph: "X"`
/// complete events with microsecond timestamps; trace/span/parent ids
/// ride in `args` so the batch→member structure survives the export.
pub fn chrome_trace_json(spans: &[AssembledSpan]) -> String {
    let mut s = String::with_capacity(256 + spans.len() * 160);
    s.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"smm\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":{},\"args\":{{\"trace\":{},\"span\":{},\"parent\":{},\"arg\":{}}}}}",
            sp.name.name(),
            sp.start_ns / 1_000,
            sp.start_ns % 1_000,
            sp.dur_ns / 1_000,
            sp.dur_ns % 1_000,
            sp.tid,
            sp.trace,
            sp.span,
            sp.parent,
            sp.arg,
        ));
    }
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_gemm::flight::RING_SLOTS;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        assert_eq!(t.current_ctx(), TraceCtx::none());
        {
            let g = t.span(SpanName::Gemm, 1);
            assert_eq!(g.trace(), 0);
            assert_eq!(g.ctx(), TraceCtx::none());
            let open = t.begin_span(TraceCtx::none(), SpanName::Request, 0);
            assert_eq!(open, OpenSpan::default());
            t.end_span(open);
        }
        assert!(t.drain().is_empty());
        t.note_request_done(1, u64::MAX, "x");
        assert!(t.exemplars().is_empty());
    }

    #[test]
    fn guards_nest_through_the_thread_local() {
        let t = Tracer::new(Duration::from_secs(3600));
        let (root_trace, root_span, child_span);
        {
            let root = t.root(SpanName::GemmBatch, shape_arg(8, 8, 8));
            root_trace = root.trace();
            root_span = root.span();
            assert_eq!(
                t.current_ctx(),
                TraceCtx {
                    trace: root_trace,
                    parent: root_span
                }
            );
            let child = t.span(SpanName::Worker, 3);
            child_span = child.span();
            assert_eq!(child.trace(), root_trace, "implicit parent shares trace");
        }
        assert_eq!(t.current_ctx(), TraceCtx::none(), "guards restore");
        let spans = t.drain();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.span == root_span).unwrap();
        let child = spans.iter().find(|s| s.span == child_span).unwrap();
        assert_eq!(root.parent, 0);
        assert_eq!(root.name, SpanName::GemmBatch);
        assert_eq!(root.arg, shape_arg(8, 8, 8));
        assert_eq!(child.parent, root_span);
        assert_eq!(child.trace, root_trace);
        assert_eq!(child.name, SpanName::Worker);
        // Child nests inside the parent interval.
        assert!(child.start_ns >= root.start_ns);
        assert!(child.start_ns + child.dur_ns <= root.start_ns + root.dur_ns);
        assert!(t.drain().is_empty(), "drain consumed the events");
    }

    #[test]
    fn manual_spans_cross_threads() {
        let t = Tracer::new(Duration::from_secs(3600));
        let open = t.begin_span(TraceCtx::none(), SpanName::Request, 7);
        assert_ne!(open.trace, 0);
        let t2 = t.clone();
        std::thread::scope(|s| {
            s.spawn(move || t2.end_span(open));
        });
        let spans = t.drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, SpanName::Request);
        assert_eq!(spans[0].trace, open.trace);
    }

    #[test]
    fn batch_links_member_spans_across_traces() {
        // The serve shape: a coalesced-batch span in its own trace
        // parenting member spans that keep their request trace ids.
        let t = Tracer::new(Duration::from_secs(3600));
        let m1 = t.begin_span(TraceCtx::none(), SpanName::Request, 0);
        let m2 = t.begin_span(TraceCtx::none(), SpanName::Request, 0);
        let batch = t.root(SpanName::CoalescedBatch, 2);
        let c1 = t.begin_span(
            TraceCtx {
                trace: m1.trace,
                parent: batch.span(),
            },
            SpanName::Member,
            0,
        );
        let c2 = t.begin_span(
            TraceCtx {
                trace: m2.trace,
                parent: batch.span(),
            },
            SpanName::Member,
            1,
        );
        t.end_span(c1);
        t.end_span(c2);
        let batch_span = batch.span();
        drop(batch);
        t.end_span(m1);
        t.end_span(m2);
        let spans = t.drain();
        let members: Vec<_> = spans
            .iter()
            .filter(|s| s.name == SpanName::Member && s.parent == batch_span)
            .collect();
        assert_eq!(members.len(), 2);
        assert_ne!(members[0].trace, members[1].trace, "distinct trace ids");
    }

    #[test]
    fn exemplar_store_pins_worst_k_span_trees() {
        let t = Tracer::new(Duration::from_nanos(0));
        let mut traces = Vec::new();
        for i in 0..(EXEMPLAR_CAP as u64 + 3) {
            let open = t.begin_span(TraceCtx::none(), SpanName::Request, i);
            t.end_span(open);
            t.note_request_done(open.trace, 1000 + i, &format!("req-{i}"));
            traces.push(open.trace);
        }
        let ex = t.exemplars();
        assert_eq!(ex.len(), EXEMPLAR_CAP);
        // Worst first, and only the slowest K survive.
        assert_eq!(ex[0].total_ns, 1000 + EXEMPLAR_CAP as u64 + 2);
        assert!(ex.windows(2).all(|w| w[0].total_ns >= w[1].total_ns));
        for e in &ex {
            assert_eq!(e.spans.len(), 1, "span tree captured");
            assert_eq!(e.spans[0].trace, e.trace);
            assert!(e.label.starts_with("req-"));
        }
        // Below-threshold requests are never pinned.
        let t2 = Tracer::new(Duration::from_secs(3600));
        let open = t2.begin_span(TraceCtx::none(), SpanName::Request, 0);
        t2.end_span(open);
        t2.note_request_done(open.trace, 5, "fast");
        assert!(t2.exemplars().is_empty());
    }

    #[test]
    fn chrome_export_has_required_keys() {
        let t = Tracer::new(Duration::from_secs(3600));
        {
            let _g = t.span(SpanName::Gemm, shape_arg(4, 4, 4));
        }
        let json = chrome_trace_json(&t.drain());
        for key in [
            "\"traceEvents\":[",
            "\"ph\":\"X\"",
            "\"ts\":",
            "\"dur\":",
            "\"pid\":1",
            "\"tid\":",
            "\"name\":\"gemm\"",
            "\"trace\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(chrome_trace_json(&[]).contains("\"traceEvents\":["));
    }

    /// The satellite's hammer: 8 threads overflow the rings with
    /// nested spans; everything drained must still be well-formed —
    /// every surviving begin has its end (assembly guarantees it),
    /// children nest inside parents, and no span leaks into a foreign
    /// trace.
    #[test]
    fn wraparound_hammer_assembles_well_formed_spans() {
        let t = Tracer::new(Duration::from_secs(3600));
        let events_per_thread = RING_SLOTS * 3; // 3 laps per ring
        std::thread::scope(|s| {
            for _ in 0..8 {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..events_per_thread as u64 / 4 {
                        let root = t.root(SpanName::GemmBatch, i);
                        let _child = t.span_in(root.ctx(), SpanName::Worker, i);
                    }
                });
            }
        });
        let spans = t.drain();
        assert!(!spans.is_empty(), "hammer left spans behind");
        let by_id: HashMap<u64, &AssembledSpan> = spans.iter().map(|s| (s.span, s)).collect();
        let mut nested_checked = 0usize;
        for sp in &spans {
            assert_ne!(sp.trace, 0);
            assert!(matches!(sp.name, SpanName::GemmBatch | SpanName::Worker));
            if sp.parent != 0 {
                // Orphaned parents are legal (overwritten by wrap);
                // surviving parents must contain their children and
                // share the trace (this workload never crosses traces).
                if let Some(parent) = by_id.get(&sp.parent) {
                    assert_eq!(parent.trace, sp.trace, "foreign-trace leakage");
                    assert!(sp.start_ns >= parent.start_ns, "child starts before parent");
                    assert!(
                        sp.start_ns + sp.dur_ns <= parent.start_ns + parent.dur_ns,
                        "child outlives parent"
                    );
                    nested_checked += 1;
                }
            }
        }
        assert!(nested_checked > 0, "no parent/child pairs survived");
        // Distinct traces stayed distinct: every trace has at most one
        // root GemmBatch and at most one Worker child.
        let mut per_trace: HashMap<u64, usize> = HashMap::new();
        for sp in &spans {
            *per_trace.entry(sp.trace).or_default() += 1;
        }
        assert!(per_trace.values().all(|&c| c <= 2), "trace id reused");
    }

    #[test]
    fn assemble_drops_orphans() {
        let mk = |kind, trace, span, ts| SpanEvent {
            kind,
            trace,
            span,
            parent: 0,
            ts_ns: ts,
            name: SpanName::Gemm as u8,
            tid: 1,
            arg: 0,
        };
        let events = vec![
            mk(EventKind::Begin, 1, 10, 100),
            mk(EventKind::End, 1, 10, 250),
            mk(EventKind::Begin, 1, 11, 300), // end lost
            mk(EventKind::End, 2, 20, 400),   // begin lost
        ];
        let spans = assemble(&events);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].span, 10);
        assert_eq!(spans[0].dur_ns, 150);
    }
}
