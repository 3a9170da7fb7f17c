//! The benchmark's own span recorder: one span around every call the
//! benchmark makes into a layer, kept in memory and written at exit as
//! Chrome-trace JSON, plus the per-layer self-time table.
//!
//! Every trace is two levels deep: a root span per operation (`op`, or
//! `request` on `serve_mix`) and leaf spans for the layer calls inside
//! it, linked by the operation id. A root's self time is its duration
//! minus its leaves' — the time no layer span accounts for.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Span names: the layer boundaries the benchmark crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Op,
    Request,
    CoreGemm,
    CoreGemmBatch,
    BiasRelu,
    TuneShape,
    WireEncode,
    IoWrite,
    IoRead,
    WireDecode,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Op => "op",
            Kind::Request => "request",
            Kind::CoreGemm => "core.gemm",
            Kind::CoreGemmBatch => "core.gemm_batch",
            Kind::BiasRelu => "bench.bias_relu",
            Kind::TuneShape => "tune.tune_shape",
            Kind::WireEncode => "wire.encode",
            Kind::IoWrite => "io.write",
            Kind::IoRead => "io.read",
            Kind::WireDecode => "wire.decode",
        }
    }

    pub fn is_root(self) -> bool {
        matches!(self, Kind::Op | Kind::Request)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub start_ns: u64,
    pub dur_ns: u64,
    pub op: u64,
    pub kind: Kind,
    pub tid: u8,
}

/// Spans kept per recording thread; beyond this, spans are counted as
/// dropped instead of growing memory without bound.
const MAX_SPANS: usize = 1 << 22;

/// Spans written to the Chrome-trace file (the self-time table always
/// covers every recorded span).
const MAX_EXPORTED: usize = 50_000;

/// One thread's span buffer. Disabled logs never read the clock, so the
/// untraced path pays one branch per call site.
pub struct SpanLog {
    base: Option<Instant>,
    tid: u8,
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanLog {
    pub fn disabled() -> Self {
        SpanLog {
            base: None,
            tid: 0,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// A recording log; `base` is shared by every thread of a run so
    /// their spans line up on one timeline.
    pub fn new(base: Instant, tid: u8, expected: usize) -> Self {
        SpanLog {
            base: Some(base),
            tid,
            spans: Vec::with_capacity(expected.min(MAX_SPANS)),
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.base.is_some()
    }

    /// Current time on the run's timeline (0 when disabled).
    pub fn mark(&self) -> u64 {
        self.base.map_or(0, |b| {
            crate::harness::now().duration_since(b).as_nanos() as u64
        })
    }

    /// Record a span that started at `start_ns` (from [`SpanLog::mark`])
    /// and ends now.
    pub fn close(&mut self, kind: Kind, op: u64, start_ns: u64) {
        if self.enabled() {
            let end = self.mark();
            self.push(kind, op, start_ns, end);
        }
    }

    /// Record a span with explicit bounds on the run's timeline.
    pub fn push(&mut self, kind: Kind, op: u64, start_ns: u64, end_ns: u64) {
        if !self.enabled() {
            return;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            op,
            kind,
            tid: self.tid,
        });
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, kind: Kind, op: u64, f: impl FnOnce() -> R) -> R {
        let t0 = self.mark();
        let r = f();
        self.close(kind, op, t0);
        r
    }

    pub fn absorb(&mut self, other: SpanLog) {
        self.dropped += other.dropped;
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Per-layer self-time totals over every recorded span.
pub struct SelfTimes {
    /// `(name, spans, total ns, self ns)` per span kind.
    pub rows: Vec<(&'static str, u64, u64, u64)>,
    /// Summed duration of the root spans.
    pub root_ns: u64,
    /// Summed self time of the root spans: the unattributed remainder.
    pub unattributed_ns: u64,
}

impl SelfTimes {
    pub fn unattributed_pct(&self) -> f64 {
        if self.root_ns == 0 {
            0.0
        } else {
            self.unattributed_ns as f64 / self.root_ns as f64 * 100.0
        }
    }
}

pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| !s.kind.is_root()) {
        *child_ns.entry(s.op).or_default() += s.dur_ns;
    }
    let mut rows: BTreeMap<Kind, (u64, u64, u64)> = BTreeMap::new();
    let (mut root_ns, mut unattributed_ns) = (0u64, 0u64);
    for s in spans {
        let own = if s.kind.is_root() {
            let own = s
                .dur_ns
                .saturating_sub(child_ns.get(&s.op).copied().unwrap_or(0));
            root_ns += s.dur_ns;
            unattributed_ns += own;
            own
        } else {
            s.dur_ns
        };
        let row = rows.entry(s.kind).or_default();
        row.0 += 1;
        row.1 += s.dur_ns;
        row.2 += own;
    }
    SelfTimes {
        rows: rows
            .into_iter()
            .map(|(k, (n, total, own))| (k.name(), n, total, own))
            .collect(),
        root_ns,
        unattributed_ns,
    }
}

/// Chrome-trace ("Trace Event Format") JSON of the first
/// [`MAX_EXPORTED`] spans by start time.
pub fn chrome_trace(workload: &str, spans: &[Span]) -> String {
    let mut order: Vec<&Span> = spans.iter().collect();
    order.sort_by_key(|s| s.start_ns);
    let mut out = String::with_capacity(128 * order.len().min(MAX_EXPORTED) + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in order.iter().take(MAX_EXPORTED).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"op\":{}}}}}",
            s.kind.name(),
            workload,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.tid,
            s.op
        );
    }
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"spans_recorded\":{},\"spans_exported\":{}}}}}",
        spans.len(),
        spans.len().min(MAX_EXPORTED)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, op: u64, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            start_ns,
            dur_ns,
            op,
            kind,
            tid: 0,
        }
    }

    #[test]
    fn root_self_time_is_what_no_leaf_covers() {
        let spans = [
            span(Kind::Op, 0, 0, 100),
            span(Kind::CoreGemm, 0, 10, 30),
            span(Kind::BiasRelu, 0, 40, 20),
            span(Kind::Op, 1, 100, 50),
            span(Kind::CoreGemm, 1, 110, 40),
        ];
        let t = self_times(&spans);
        assert_eq!(t.root_ns, 150);
        assert_eq!(t.unattributed_ns, 50 + 10);
        let op = t.rows.iter().find(|r| r.0 == "op").unwrap();
        assert_eq!((op.1, op.2, op.3), (2, 150, 60));
        let gemm = t.rows.iter().find(|r| r.0 == "core.gemm").unwrap();
        assert_eq!((gemm.1, gemm.2, gemm.3), (2, 70, 70));
        assert!((t.unattributed_pct() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::disabled();
        assert_eq!(log.mark(), 0);
        log.span(Kind::Op, 0, || ());
        assert!(log.spans().is_empty());
        let json = chrome_trace("w", log.spans());
        assert!(json.starts_with("{\"traceEvents\":[]"));
    }
}
