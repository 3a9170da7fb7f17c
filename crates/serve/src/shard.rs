//! Shard topology: the shape-affine router and the fleet report.
//!
//! # Shards as panels
//!
//! The paper characterizes the Phytium 2000+ as 8 panels of 8 cores,
//! where a core's memory cost depends on whether its operands live in
//! panel-local or remote DRAM (§II, Table I) — the same topology
//! `smm-simarch` models with `cores_per_panel = 8`, `panels = 8`, and
//! a panel-aware allocator. The sharded server maps that topology onto
//! serving: each shard is one `Smm` runtime whose plan cache, packing
//! arenas, and worker pool are private — in simarch terms, pinned to
//! the panel [`shard_panel`] assigns — so a request routed to its home
//! shard touches only panel-local state, and the cross-shard
//! synchronization the paper's Table II warns about is confined to the
//! explicitly model-checked stealing protocol.
//!
//! # Routing
//!
//! [`route_shape`] is FNV-1a over `(m, n, k)`: the same shape always
//! lands on the same shard (IAAT-style input-aware locality — plans
//! and arenas for a shape stay hot in exactly one runtime), while
//! distinct shapes spread uniformly. Load imbalance is handled by the
//! two escape hatches — router *spill* (admission side) and dispatcher
//! *stealing* (consumption side) — both of which keep the request's
//! telemetry origin on its home shard.
//!
//! # The fleet report
//!
//! [`FleetReport`] aggregates N per-shard [`TelemetryReport`]s plus
//! per-shard [`ServeStats`] into one document behind the existing
//! `STATS` opcode: JSON nests per-shard sections under a merged fleet
//! view; the Prometheus rendering emits the merged fleet families
//! unlabeled plus per-shard serving/runtime series carrying a
//! `shard="i"` label.

use std::iter::once;
use std::sync::Arc;

use smm_core::metrics::{self, Record, Val};
use smm_core::{Smm, TelemetryReport};
use smm_kernels::Scalar;

use crate::server::{ServeStats, Server};

/// The paper's Phytium 2000+ panel count (8 panels × 8 cores); shards
/// map onto panels round-robin via [`shard_panel`].
pub const PAPER_PANELS: usize = 8;

/// The simarch panel a shard is (notionally) pinned to.
pub fn shard_panel(shard: usize) -> usize {
    shard % PAPER_PANELS
}

/// FNV-1a over the shape triple plus a 64-bit avalanche finalizer,
/// reduced to a shard index. Stable across runs (no randomized
/// hasher): the same shape always routes to the same home shard,
/// which is what keeps per-shard plan caches and arenas shape-hot.
/// The finalizer matters: the paper's shapes are tiny, so the FNV
/// state is dominated by runs of zero bytes whose low bits barely
/// vary, and reducing it directly mod a small shard count piles every
/// small shape onto one shard.
pub fn route_shape(m: usize, n: usize, k: usize, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for dim in [m as u64, n as u64, k as u64] {
        for byte in dim.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    (h % shards as u64) as usize
}

/// One shard's slice of the fleet report.
#[derive(Debug, Clone)]
pub struct ShardSection {
    /// Shard index.
    pub shard: usize,
    /// The simarch panel this shard maps to ([`shard_panel`]).
    pub panel: usize,
    /// The shard's serving counters.
    pub serve: ServeStats,
    /// The shard runtime's full telemetry report.
    pub telemetry: TelemetryReport,
}

/// The aggregated view of a sharded server: per-shard sections plus
/// the fleet-wide merge ([`TelemetryReport::absorb`] over every shard,
/// [`ServeStats::absorb`] over every shard's counters).
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-shard sections, indexed by shard.
    pub shards: Vec<ShardSection>,
    /// Fleet-wide serving counters (sums/maxes of the per-shard ones).
    pub serve: ServeStats,
    /// Fleet-wide telemetry (per-shard reports absorbed into one).
    pub telemetry: TelemetryReport,
}

/// Build a [`FleetReport`] from each shard's runtime and a per-shard
/// serving-counter source. (The serving layer calls this both from
/// [`Server::fleet_report`] and from the TCP front end's `STATS`
/// path, which holds runtime handles but not the `Server` itself.)
pub fn gather_fleet<S: Scalar>(
    smms: &[Arc<Smm<S>>],
    serve_stats: impl Fn(usize) -> ServeStats,
) -> FleetReport {
    let shards: Vec<ShardSection> = smms
        .iter()
        .enumerate()
        .map(|(i, smm)| ShardSection {
            shard: i,
            panel: shard_panel(i),
            serve: serve_stats(i),
            telemetry: smm.stats_report(),
        })
        .collect();
    let mut serve = ServeStats::default();
    for s in &shards {
        serve.absorb(&s.serve);
    }
    let mut telemetry = shards[0].telemetry.clone();
    for s in &shards[1..] {
        telemetry.absorb(&s.telemetry);
    }
    FleetReport {
        shards,
        serve,
        telemetry,
    }
}

impl<S: Scalar> Server<S> {
    /// The aggregated fleet report: per-shard telemetry + serving
    /// counters, merged. On a single-shard server the fleet telemetry
    /// is exactly [`Server::smm`]'s own `stats_report`.
    pub fn fleet_report(&self) -> FleetReport {
        gather_fleet(self.smms(), |i| self.shard_stats(i))
    }
}

impl FleetReport {
    /// Number of shards in the report.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Serialize to a self-contained JSON document: a `shards` array
    /// of per-shard sections (serving counters + full telemetry), the
    /// fleet-wide `serve` sums, and the merged fleet `telemetry`.
    pub fn to_json(&self) -> String {
        metrics::document(self)
    }

    /// Serialize to a Prometheus text exposition: the merged fleet
    /// telemetry (unlabeled, exactly [`TelemetryReport::to_prometheus`]
    /// of the merge), then one block per serving-counter family holding
    /// the fleet value bare plus one `shard="i"`-labeled series per
    /// shard, then the per-shard runtime families.
    pub fn to_prometheus(&self) -> String {
        let mut s = self.telemetry.to_prometheus();
        let per_shard = self.shards.iter().map(|sh| (sh.labels(), &sh.serve));
        metrics::prometheus(&mut s, once((String::new(), &self.serve)).chain(per_shard));
        metrics::prometheus(&mut s, self.shards.iter().map(|sh| (sh.labels(), sh)));
        s
    }
}

smm_core::series! { FleetReport;
    _ shard_count Derived _ _ => |f| Val::U(f.shards.len() as u64);
    _ shards Key _ (shards);
    _ serve Derived _ _ => |f| Val::J(metrics::object(&f.serve));
    _ telemetry Derived _ _ => |f| Val::J(metrics::document(&f.telemetry).trim_end().to_string());
}

// Per-shard runtime series: enough to see skew (panel placement, useful
// work, plan locality) without repeating the whole telemetry exposition
// per shard.
smm_core::series! { ShardSection: labels |s: &ShardSection| format!("shard=\"{}\"", s.shard);
    _ shard Key _ (shard);
    _ panel Key (Gauge smm_shard_panel) (panel);
    _ serve Derived _ _ => |s| Val::J(metrics::object(&s.serve));
    _ telemetry Derived _ _ => |s| Val::J(metrics::document(&s.telemetry).trim_end().to_string());
    _ _ Derived (Counter smm_shard_flops_total) _ => |s| Val::U(s.telemetry.flops);
    _ _ Derived (Counter smm_shard_plan_cache_hits_total) _ => |s| Val::U(s.telemetry.runtime.plan_hits);
    _ _ Derived (Counter smm_shard_tuner_db_hits_total) _ => |s| Val::U(s.telemetry.tuner.db_hits);
}

impl std::fmt::Display for FleetReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "fleet report ({} shards)", self.shards.len())?;
        writeln!(f, "{}", self.serve)?;
        for sh in &self.shards {
            writeln!(
                f,
                "  shard {} (panel {}): {} submitted, {} completed, {} batches, {} stolen, {} spilled, {} queued",
                sh.shard,
                sh.panel,
                sh.serve.submitted,
                sh.serve.completed,
                sh.serve.batches,
                sh.serve.stolen,
                sh.serve.spilled,
                sh.serve.queue_depth
            )?;
        }
        write!(f, "{}", self.telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for shards in 1..=8 {
            for (m, n, k) in [(4, 4, 4), (8, 8, 8), (16, 4, 64), (1, 1, 1)] {
                let a = route_shape(m, n, k, shards);
                let b = route_shape(m, n, k, shards);
                assert_eq!(a, b);
                assert!(a < shards);
            }
        }
        assert_eq!(route_shape(64, 64, 64, 1), 0);
    }

    #[test]
    fn routing_spreads_distinct_shapes() {
        let shards = 4;
        let mut hit = vec![false; shards];
        for m in 1..=16 {
            for n in 1..=4 {
                hit[route_shape(m, n, 8, shards)] = true;
            }
        }
        assert!(hit.iter().all(|&h| h), "some shard never selected: {hit:?}");
    }

    #[test]
    fn panels_follow_the_paper_topology() {
        assert_eq!(PAPER_PANELS, 8);
        assert_eq!(shard_panel(0), 0);
        assert_eq!(shard_panel(7), 7);
        assert_eq!(shard_panel(8), 0);
        assert_eq!(shard_panel(11), 3);
    }
}
