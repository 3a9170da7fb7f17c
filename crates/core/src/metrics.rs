//! One metrics model: every series a report carries is declared once,
//! and the JSON writer, the Prometheus writer and the fleet merge all
//! follow from those declarations.
//!
//! A [`Record`] is a report type, or one row of a report (a phase, a
//! call site, a shape). Its [`Record::SERIES`] table lists each series
//! once, in JSON order, with
//!
//! * the JSON section and key it renders under, or none;
//! * the Prometheus [`Family`] it belongs to — name, [`Kind`], a fixed
//!   label, `# HELP` text — or none (a row's own labels come from
//!   [`Record::labels`]);
//! * its [`Merge`] rule for folding one shard's report into another's;
//! * where it is stored (so the merge can fold it) or how it is read.
//!
//! [`document`] and [`object`] write JSON, [`prometheus`] writes family
//! blocks — a bare fleet sample and labelled per-row samples alike — and
//! [`fold`] merges. Tables are declared with [`series!`](crate::series).
//! The typed report structs stay the data; this module only says how
//! their fields render and merge. Std-only, like the rest of the crate.

use std::fmt;

use crate::telemetry::{
    LatencyHistogram, Phase, PhaseReport, ShapeReport, SiteBreakdown, TelemetryReport,
};
use crate::trace::{AssembledSpan, TraceExemplar};

/// What a Prometheus family exposes (its `# TYPE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotonic total.
    Counter,
    /// A value that can go down.
    Gauge,
    /// A cumulative `_bucket`/`_sum`/`_count` ladder.
    Histogram,
}

/// How a merge combines one series of two shards' reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// Add: counters, histograms, and gauges that are per-shard
    /// amounts. Rows that are the [same](Record::same) row add series by
    /// series; the others append.
    Sum,
    /// Keep the larger: high-water marks, window spans, latency tails,
    /// and process-global counters that every shard reads alike (the
    /// packing arena), so the fleet carries the process value once.
    Max,
    /// A mean weighted by another series (`mean / weight`); means fold
    /// before their weights add.
    Mean,
    /// Recomputed from the merged raw counts (ratios, shares, rates).
    Derived,
    /// Fixed by the row's identity, so equal on every shard.
    Key,
}

/// One value as it renders.
#[derive(Debug, Clone)]
pub enum Val<'a> {
    /// An integer.
    U(u64),
    /// A real, written with six decimals (`null` when not finite).
    F(f64),
    /// A string (escaped on write).
    S(&'a str),
    /// Already-rendered JSON: a literal, a nested object, or a block.
    J(String),
    /// A latency histogram: sparse `[upper_bound, count]` pairs in
    /// JSON, the full cumulative ladder in Prometheus.
    H(&'a LatencyHistogram),
}

impl fmt::Display for Val<'_> {
    /// The JSON form, which is also the Prometheus sample of `U` and `F`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::U(v) => write!(f, "{v}"),
            Val::F(v) if v.is_finite() => write!(f, "{v:.6}"),
            Val::F(_) => f.write_str("null"),
            Val::S(v) => write!(f, "\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")),
            Val::J(v) => f.write_str(v),
            Val::H(h) => {
                let pairs = h.buckets.iter().enumerate().filter(|(_, &c)| c > 0);
                let pair = |(i, c)| format!("[{}, {c}]", LatencyHistogram::bucket_upper_bound(i));
                let pairs: Vec<String> = pairs.map(pair).collect();
                write!(f, "[{}]", pairs.join(", "))
            }
        }
    }
}

/// The Prometheus family a series belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Family {
    /// Family name.
    pub name: &'static str,
    /// Its `# TYPE`.
    pub kind: Kind,
    /// A fixed `name="value"` label the series adds to its row's labels
    /// (`""`: none). Series of one family share one block.
    pub label: &'static str,
    /// `# HELP` text (`""`: no `# HELP` line).
    pub help: &'static str,
}

/// One series of a record type `R`.
pub struct Series<R> {
    /// JSON object the key sits in (`None`: the document's top level).
    pub section: Option<&'static str>,
    /// JSON key (`None`: Prometheus only).
    pub key: Option<&'static str>,
    /// Prometheus family (`None`: JSON only).
    pub family: Option<Family>,
    /// How shards merge.
    pub merge: Merge,
    /// The value, as rendered.
    pub read: fn(&R) -> Val<'_>,
    /// Fold the other side's stored value in by `merge` (a no-op for a
    /// series computed at read time).
    pub fold: fn(&mut R, &R),
}

/// A report type, or one row of a report, described by its series.
pub trait Record: Clone + 'static {
    /// Every series, in JSON order.
    const SERIES: &'static [Series<Self>];

    /// The Prometheus labels that tell this row from its siblings
    /// (`""`: none).
    fn labels(&self) -> String {
        String::new()
    }

    /// Whether a merge folds `other` into this row rather than
    /// appending it: by default, rows with equal, non-empty labels.
    fn same(&self, other: &Self) -> bool {
        let mine = self.labels();
        !mine.is_empty() && mine == other.labels()
    }
}

/// A stored value a series reads and folds.
pub trait Field {
    /// The value as rendered.
    fn val(&self) -> Val<'_>;
    /// Fold `other` in by `merge` (`Derived` and `Key` leave it).
    fn fold(&mut self, other: &Self, merge: Merge);
}

macro_rules! numeric_field {
    ($($t:ty => $v:ident),*) => {$(
        impl Field for $t {
            fn val(&self) -> Val<'_> {
                Val::$v(*self as _)
            }
            fn fold(&mut self, other: &Self, merge: Merge) {
                match merge {
                    Merge::Sum => *self += *other,
                    Merge::Max if *other > *self => *self = *other,
                    _ => {}
                }
            }
        }
    )*};
}
numeric_field!(u64 => U, usize => U, u32 => U, f64 => F);

/// Flags merge as "any shard": `true` wins.
impl Field for bool {
    fn val(&self) -> Val<'_> {
        Val::J(self.to_string())
    }
    fn fold(&mut self, other: &Self, _: Merge) {
        *self |= *other;
    }
}

impl Field for LatencyHistogram {
    fn val(&self) -> Val<'_> {
        Val::H(self)
    }
    fn fold(&mut self, other: &Self, _: Merge) {
        self.merge(other);
    }
}

/// Rows render one object per line and merge row by row.
impl<R: Record> Field for Vec<R> {
    fn val(&self) -> Val<'_> {
        Val::J(block('[', self.iter().map(object)))
    }
    fn fold(&mut self, other: &Self, _: Merge) {
        for row in other {
            match self.iter_mut().find(|mine| mine.same(row)) {
                Some(mine) => fold(mine, row),
                None => self.push(row.clone()),
            }
        }
    }
}

/// Fold `other` into `mine` series by series, each by its rule. Means
/// fold first, while their weights still hold `mine`'s own value.
pub fn fold<R: Record>(mine: &mut R, other: &R) {
    let (means, rest): (Vec<_>, Vec<_>) = R::SERIES.iter().partition(|s| s.merge == Merge::Mean);
    for s in means.into_iter().chain(rest) {
        (s.fold)(mine, other);
    }
}

/// The [`Merge::Mean`] fold of `mean` (weighted by `weight`) with the
/// other side's pair.
pub fn weigh(mean: &mut u64, weight: f64, other: u64, other_weight: f64) {
    let total = weight + other_weight;
    if total > 0.0 {
        *mean = ((*mean as f64 * weight + other as f64 * other_weight) / total) as u64;
    }
}

/// `"key": value` of each JSON series in `series`, comma-separated.
fn fields<'s, R: 's>(r: &R, series: impl IntoIterator<Item = &'s Series<R>>) -> String {
    let field = |s: &Series<R>| Some(format!("\"{}\": {}", s.key?, (s.read)(r)));
    let fields: Vec<String> = series.into_iter().filter_map(field).collect();
    fields.join(", ")
}

/// `{"key": value, ...}`: every JSON series of one record, on one line.
pub fn object<R: Record>(r: &R) -> String {
    format!("{{{}}}", fields(r, R::SERIES))
}

/// A multi-line JSON document: top-level series one per line, and each
/// run of series that share a section as one `"section": {...}` line.
pub fn document<R: Record>(r: &R) -> String {
    let json: Vec<&Series<R>> = R::SERIES.iter().filter(|s| s.key.is_some()).collect();
    let lines = json.chunk_by(|a, b| a.section.is_some() && a.section == b.section);
    let lines = lines.map(|run| match run[0].section {
        Some(section) => format!("  \"{section}\": {{{}}}", fields(r, run.iter().copied())),
        None => format!("  {}", fields(r, run.iter().copied())),
    });
    format!("{{\n{}\n}}\n", lines.collect::<Vec<_>>().join(",\n"))
}

/// A block under a top-level JSON key: `open`, one item per line, and
/// the matching close.
fn block(open: char, items: impl Iterator<Item = String>) -> String {
    let close = if open == '{' { '}' } else { ']' };
    let items: Vec<String> = items.map(|item| format!("\n    {item}")).collect();
    format!("{open}{}\n  {close}", items.join(","))
}

/// A block of rows keyed by `name`.
fn keyed<R: Record>(rows: &[R], name: fn(&R) -> &'static str) -> Val<'static> {
    let row = |r: &R| format!("\"{}\": {}", name(r), object(r));
    Val::J(block('{', rows.iter().map(row)))
}

/// Append the Prometheus family blocks of `rows` (labels and record):
/// per family a `# HELP` line (when declared) and a `# TYPE` line, then
/// each row's sample of each series in the family. A row without
/// labels writes a bare sample, such as a fleet total.
pub fn prometheus<'a, R: Record>(out: &mut String, rows: impl Iterator<Item = (String, &'a R)>) {
    let rows: Vec<(String, &R)> = rows.collect();
    let series = R::SERIES.iter().filter_map(|s| Some((s, s.family?)));
    let series: Vec<(&Series<R>, Family)> = series.collect();
    for family in series.chunk_by(|a, b| a.1.name == b.1.name) {
        let Family { name, help, .. } = family[0].1;
        if !help.is_empty() {
            out.push_str(&format!("# HELP {name} {help}\n"));
        }
        let kind = format!("{:?}", family[0].1.kind).to_lowercase();
        out.push_str(&format!("# TYPE {name} {kind}\n"));
        for (labels, r) in &rows {
            for (s, f) in family {
                let labels = [labels.as_str(), f.label];
                match (s.read)(r) {
                    Val::H(h) => ladder(out, name, labels, h),
                    v => out.push_str(&format!("{name}{} {v}\n", braced(&labels))),
                }
            }
        }
    }
}

/// A histogram's cumulative `_bucket` ladder, closed by `le="+Inf"`,
/// then its `_sum` and `_count`.
fn ladder(out: &mut String, name: &str, [row, own]: [&str; 2], h: &LatencyHistogram) {
    let le = |bound: &str| braced(&[row, own, &format!("le=\"{bound}\"")]);
    let mut cum = 0;
    for (i, c) in h.buckets.iter().enumerate() {
        cum += c;
        let bound = LatencyHistogram::bucket_upper_bound(i).to_string();
        out.push_str(&format!("{name}_bucket{} {cum}\n", le(&bound)));
    }
    out.push_str(&format!("{name}_bucket{} {}\n", le("+Inf"), h.count));
    let labels = braced(&[row, own]);
    out.push_str(&format!("{name}_sum{labels} {}\n", h.sum_ns));
    out.push_str(&format!("{name}_count{labels} {}\n", h.count));
}

/// `{a,b}` of the non-empty labels, or nothing when all are empty.
fn braced(labels: &[&str]) -> String {
    let labels: Vec<&str> = labels.iter().copied().filter(|l| !l.is_empty()).collect();
    let labels = labels.join(",");
    if labels.is_empty() {
        labels
    } else {
        format!("{{{labels}}}")
    }
}

/// Declare a [`Record`]: its Prometheus row labels (and, if they do not
/// say which rows a merge folds together, its row identity), then its
/// series, one per line:
///
/// ```text
/// series! { Type [: labels |row| ...] [, same |row, other| ...];
///     section key Merge family place [=> read];
///     ...
/// }
/// ```
///
/// * `section`, `key`: identifiers, or `_` for none;
/// * `Merge`: a [`Merge`] rule;
/// * `family`: `_`, or `(Kind name)`, optionally followed inside the
///   parentheses by a fixed label `[label = "value"]` and `# HELP` text;
/// * `place`: the stored field's path in parentheses (read through
///   [`Field::val`], folded by the rule), `(mean / weight)` for a
///   [`Merge::Mean`] (read with `=> read`), or `_` for a series
///   computed at read time;
/// * `=> read`: a closure that overrides the read.
#[macro_export]
macro_rules! series {
    ($R:ty $(: labels $labels:expr)? $(, same $same:expr)?;
     $($sec:tt $key:tt $merge:ident $fam:tt $place:tt $(=> $read:expr)?;)*) => {
        impl $crate::metrics::Record for $R {
            const SERIES: &'static [$crate::metrics::Series<Self>] = &[$($crate::metrics::Series {
                section: $crate::series!(@opt $sec),
                key: $crate::series!(@opt $key),
                family: $crate::series!(@family $fam),
                merge: $crate::metrics::Merge::$merge,
                read: $crate::series!(@read $place $(, $read)?),
                fold: $crate::series!(@fold $merge $place),
            }),*];
            $(fn labels(&self) -> String { ($labels)(self) })?
            $(fn same(&self, other: &Self) -> bool { ($same)(self, other) })?
        }
    };
    (@opt _) => { None };
    (@opt $name:ident) => { Some(stringify!($name)) };
    (@family _) => { None };
    (@family ($kind:ident $name:ident $([$label:ident = $value:literal])? $($help:literal)?)) => {
        Some($crate::metrics::Family {
            name: stringify!($name),
            kind: $crate::metrics::Kind::$kind,
            label: concat!("" $(, stringify!($label), "=\"", $value, "\"")?),
            help: concat!("" $(, $help)?),
        })
    };
    (@read $place:tt, $read:expr) => { $read };
    (@read ($($path:tt)+)) => { |r| $crate::metrics::Field::val(&r.$($path)+) };
    (@fold $merge:ident _) => { |_, _| {} };
    (@fold Mean ($($mean:ident).+ / $($weight:ident).+)) => {
        |a, b| $crate::metrics::weigh(&mut a.$($mean).+, a.$($weight).+, b.$($mean).+, b.$($weight).+)
    };
    (@fold $merge:ident ($($path:tt)+)) => {
        |a, b| $crate::metrics::Field::fold(&mut a.$($path)+, &b.$($path)+, $crate::metrics::Merge::$merge)
    };
}

series! { TelemetryReport;
    _ enabled Max _ (enabled);
    runtime plan_hits Sum (Counter smm_plan_cache_hits_total) (runtime.plan_hits);
    runtime plan_misses Sum (Counter smm_plan_cache_misses_total) (runtime.plan_misses);
    runtime plan_evictions Sum (Counter smm_plan_cache_evictions_total) (runtime.plan_evictions);
    runtime cached_plans Sum (Gauge smm_plan_cache_resident) (runtime.cached_plans);
    runtime pool_workers Sum _ (runtime.pool_workers);
    pool workers Sum (Gauge smm_pool_workers) (pool.workers);
    pool queue_highwater Max (Gauge smm_pool_queue_highwater) (pool.queue_highwater);
    pool worker_wakeups Sum (Counter smm_pool_worker_wakeups_total) (pool.worker_wakeups);
    pool worker_tasks Sum (Counter smm_pool_worker_tasks_total) (pool.worker_tasks);
    pool inline_drained Sum (Counter smm_pool_inline_drained_total) (pool.inline_drained);
    pool park_ns Sum (Counter smm_pool_park_ns_total) (pool.park_ns);
    pool scoped_calls Sum (Counter smm_pool_scoped_calls_total) (pool.scoped_calls);
    arena hits Max (Counter smm_arena_hits_total) (arena.hits);
    arena misses Max (Counter smm_arena_misses_total) (arena.misses);
    arena alloc_bytes Max (Counter smm_arena_alloc_bytes_total) (arena.alloc_bytes);
    arena hit_rate Derived (Gauge smm_arena_hit_rate) _ => |r| Val::F(r.arena.hit_rate());
    _ phases Sum _ (phases) => |r| keyed(&r.phases, |p| p.phase.name());
    _ sites Sum _ (sites) => |r| keyed(&r.sites, |s| s.site.name());
    _ shapes Sum _ (shapes);
    rate window_secs Max _ (rate.window_secs);
    rate covered_secs Max (Gauge smm_rate_window_covered_secs) (rate.covered_secs);
    rate req_per_sec Sum (Gauge smm_rate_req_per_sec) (rate.req_per_sec);
    rate gflops_per_sec Sum (Gauge smm_rate_gflops_per_sec) (rate.gflops_per_sec);
    rate mean_ns Mean _ (rate.mean_ns / rate.req_per_sec) => |r| Val::U(r.rate.mean_ns);
    rate p99_now_ns Max (Gauge smm_rate_p99_now_ns) (rate.p99_now_ns);
    rate p99_trend_ns_per_sec Max (Gauge smm_rate_p99_trend_ns_per_sec) (rate.p99_trend_ns_per_sec);
    rate live_slots Max _ (rate.live_slots);
    _ slow Sum _ (slow);
    _ _ Derived (Gauge smm_slow_exemplars) _ => |r| Val::U(r.slow.len() as u64);
    _ packed_bytes Sum (Counter smm_packed_bytes_total) (packed_bytes);
    _ flops Sum (Counter smm_flops_total) (flops);
    _ observed_p2c Derived (Gauge smm_observed_p2c) (observed_p2c);
    _ dropped_shapes Sum (Counter smm_dropped_shapes_total) (dropped_shapes);
    tuner db_entries Sum (Gauge smm_tuner_db_entries) (tuner.db_entries);
    tuner db_hits Sum (Counter smm_tuner_db_hits_total) (tuner.db_hits);
    tuner nn_matches Sum (Counter smm_tuner_nn_matches_total) (tuner.nn_matches);
    tuner online_refines Sum (Counter smm_tuner_online_refines_total) (tuner.online_refines);
    tuner untuned_builds Sum (Counter smm_tuner_untuned_builds_total) (tuner.untuned_builds);
    tuner pending_deltas Sum (Gauge smm_tuner_pending_deltas) (tuner.pending_deltas);
    tuner persisted_deltas Sum (Counter smm_tuner_persisted_deltas_total) (tuner.persisted_deltas);
    tuner db_coverage Derived (Gauge smm_tuner_db_coverage) _ => |r| Val::F(r.tuner.db_coverage());
}

series! { PhaseReport: labels |p: &PhaseReport| format!("phase=\"{}\"", p.phase.name());
    _ count Derived _ (histogram.count);
    _ sum_ns Derived _ (histogram.sum_ns);
    _ min_ns Derived _ (histogram.min_ns);
    _ max_ns Derived _ (histogram.max_ns);
    _ mean_ns Derived _ _ => |p| Val::F(p.histogram.mean_ns());
    _ p50_ns Derived _ _ => |p| Val::U(p.histogram.quantile(0.50));
    _ p90_ns Derived _ _ => |p| Val::U(p.histogram.quantile(0.90));
    _ p99_ns Derived _ _ => |p| Val::U(p.histogram.quantile(0.99));
    _ buckets Sum (Histogram smm_phase_latency_ns "Per-phase span latency in nanoseconds.") (histogram);
}

series! { SiteBreakdown: labels |s: &SiteBreakdown| format!("site=\"{}\"", s.site.name());
    _ calls Sum (Counter smm_calls_total) (calls);
    _ plan_ns Sum _ (phase_ns[Phase::PlanLookup.index()]);
    _ pack_a_ns Sum _ (phase_ns[Phase::PackA.index()]);
    _ pack_b_ns Sum _ (phase_ns[Phase::PackB.index()]);
    _ compute_ns Sum _ (phase_ns[Phase::Compute.index()]);
    _ dispatch_ns Sum _ (phase_ns[Phase::Dispatch.index()]);
    _ sync_ns Sum _ (phase_ns[Phase::Sync.index()]);
    _ enqueue_wait_ns Sum _ (phase_ns[Phase::EnqueueWait.index()]);
    _ coalesce_ns Sum _ (phase_ns[Phase::Coalesce.index()]);
    _ reply_ns Sum _ (phase_ns[Phase::Reply.index()]);
    _ pack_pct Derived (Gauge smm_overhead_share_percent [component = "pack"]) (pack_pct);
    _ compute_pct Derived (Gauge smm_overhead_share_percent [component = "compute"]) (compute_pct);
    _ sync_pct Derived (Gauge smm_overhead_share_percent [component = "sync"]) (sync_pct);
}

// Rows merge by (m, n, k, elem_bytes); the labels name only the shape.
series! { ShapeReport: labels |r: &ShapeReport| format!("m=\"{}\",n=\"{}\",k=\"{}\"", r.m, r.n, r.k),
    same |a: &ShapeReport, b: &ShapeReport| (a.m, a.n, a.k, a.elem_bytes) == (b.m, b.n, b.k, b.elem_bytes);
    _ m Key _ (m);
    _ n Key _ (n);
    _ k Key _ (k);
    _ elem_bytes Key _ (elem_bytes);
    _ calls Sum _ (calls);
    _ total_ns Sum _ (total_ns);
    _ achieved_gflops Derived (Gauge smm_shape_gflops) (achieved_gflops);
    _ predicted_gflops Key _ (predicted_gflops);
    _ model_fraction Derived (Gauge smm_shape_model_fraction) (model_fraction);
    _ p2c Key _ (p2c);
}

// Exemplars never share a row: a merge appends them, and
// `TelemetryReport`'s recompute keeps the worst `EXEMPLAR_CAP`.
series! { TraceExemplar;
    _ trace Key _ (trace);
    _ total_ns Key _ (total_ns);
    _ label Key _ _ => |e| Val::S(&e.label);
    _ spans Key _ _ => |e| Val::J(format!("[{}]", e.spans.iter().map(object).collect::<Vec<_>>().join(", ")));
}

series! { AssembledSpan;
    _ name Key _ _ => |s| Val::S(s.name.name());
    _ trace Key _ (trace);
    _ span Key _ (span);
    _ parent Key _ (parent);
    _ start_ns Key _ (start_ns);
    _ dur_ns Key _ (dur_ns);
    _ tid Key _ (tid);
    _ arg Key _ (arg);
}
