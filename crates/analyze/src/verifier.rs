//! Kernel-contract verification: drives every check of the kernel
//! front over the registered library profiles.
//!
//! For each [`LibraryProfile`] the verifier checks the main kernel,
//! every alternate shape, and — for edge-kernel libraries — every
//! distinct edge tile the step lists can produce. Each case goes
//! through four gates:
//!
//! 1. **Eq. 4 budget** ([`smm_model::check_register_budget`], the same
//!    function descriptor construction uses) — code `AN-E001`;
//! 2. **live-range pressure** over the emitted stream (no spills,
//!    live-ins are exactly the accumulators) — `AN-E002` / `AN-W008`;
//! 3. **dependence chains** against the shape's own ceiling — an
//!    avoidable scheduling defect is `AN-E003`, an intrinsically
//!    latency-bound shape (the Fig. 7 trade-off) is note `AN-I001`;
//! 4. **bounds/aliasing** of every access against the declared operand
//!    extents — `AN-E004` (out of bounds), `AN-E005` (read-only store
//!    or operand overlap), `AN-E007` (misaligned vector access).
//!
//! Registries additionally get the residue-coverage check (`AN-E006`).

use smm_kernels::registry::{EdgeStrategy, LibraryProfile};
use smm_kernels::trace_gen::{kernel_trace, KernelTraceParams};
use smm_kernels::{BLoadStyle, MicroKernelDesc, SchedulePolicy};
use smm_model::{KernelShape, VectorIsa};
use smm_simarch::isa::Inst;
use smm_simarch::phase::Phase;

use crate::bounds::{check_stream, AccessViolation, MemRegion};
use crate::coverage::{check_coverage, CoverageIssue, EdgeRegistry};
use crate::hazard::{chain_analysis, HazardConfig};
use crate::liveness::register_pressure;
use crate::report::{Finding, Report};

/// Knobs of the kernel-front verification.
#[derive(Debug, Clone, Copy)]
pub struct VerifyConfig {
    /// k-loop depth of the canonical trace.
    pub kc: usize,
    /// Vector ISA the kernels are verified against: sets the lane
    /// count of the Eq. 4 budget, the architectural file size of the
    /// spill proof, and the access width of the bounds gate.
    pub isa: VectorIsa,
    /// A stream whose measured chain-bound ceiling falls below this
    /// fraction of its *shape's* intrinsic ceiling has an avoidable
    /// scheduling defect (Fig. 7) and is flagged `AN-E003`.
    pub min_chain_fraction: f64,
    /// A shape whose intrinsic ceiling is below this threshold gets an
    /// informational `AN-I001` note (the latency-bound edge-tile
    /// trade-off itself — not actionable, never fails).
    pub note_ceiling_below: f64,
    /// Latency model of the chain analysis.
    pub hazard: HazardConfig,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            kc: 64,
            isa: VectorIsa::neon128(),
            min_chain_fraction: 0.85,
            note_ceiling_below: 0.5,
            hazard: HazardConfig::default(),
        }
    }
}

impl VerifyConfig {
    /// The default configuration retargeted at another vector ISA.
    pub fn for_isa(isa: VectorIsa) -> Self {
        VerifyConfig {
            isa,
            ..Default::default()
        }
    }
}

/// Canonical operand placement for verification traces: packed A at
/// `0x10_000`, packed B at `0x40_000`, the C tile at `0x80_000`.
/// All three are far enough apart that any overlap is a real finding.
pub fn canonical_params(desc: MicroKernelDesc, kc: usize) -> KernelTraceParams {
    let mr = desc.mr() as u64;
    let nr = desc.nr() as u64;
    KernelTraceParams {
        desc,
        kc,
        a_base: 0x10_000,
        a_kstep: mr * 4,
        b_base: 0x40_000,
        b_kstep: nr * 4,
        b_jstride: 4,
        c_base: 0x80_000,
        c_col_stride: mr * 4,
        elem: 4,
        phase: Phase::Kernel,
    }
}

/// The operand regions a canonical trace is allowed to touch, plus the
/// indices that must be pairwise disjoint. The staged-`alpha` slot is
/// declared but excluded from disjointness: its fixed staging address
/// may legitimately fall inside the C tile of large kernels.
pub fn canonical_regions(p: &KernelTraceParams) -> (Vec<MemRegion>, Vec<usize>) {
    let mr = p.desc.mr() as u64;
    let nr = p.desc.nr() as u64;
    let regions = vec![
        MemRegion {
            name: "A",
            base: p.a_base,
            len: p.kc as u64 * mr * p.elem,
            writable: false,
        },
        MemRegion {
            name: "B",
            base: p.b_base,
            len: p.kc as u64 * nr * p.elem,
            writable: false,
        },
        MemRegion {
            name: "C",
            base: p.c_base,
            len: mr * nr * p.elem,
            writable: true,
        },
        MemRegion {
            name: "alpha",
            base: p.c_base ^ 0x3F,
            len: p.elem,
            writable: false,
        },
    ];
    (regions, vec![0, 1, 2])
}

/// Gate 1: the shared Eq. 4 budget check. Returns whether the shape is
/// feasible (infeasible shapes cannot be traced).
pub fn verify_shape(
    subject: &str,
    mr: usize,
    nr: usize,
    cfg: &VerifyConfig,
    out: &mut Report,
) -> bool {
    match cfg.isa.check_register_budget(mr, nr, 4) {
        Ok(_) => true,
        Err(e) => {
            out.push(Finding::error(
                "AN-E001",
                subject,
                format!("{e} (isa {})", cfg.isa),
            ));
            false
        }
    }
}

/// Gates 2–4 over an already-emitted stream. Public so fixture streams
/// (hand-corrupted) go through exactly the shipped-kernel code path.
pub fn verify_stream(
    subject: &str,
    shape: KernelShape,
    insts: &[Inst],
    regions: &[MemRegion],
    disjoint: &[usize],
    cfg: &VerifyConfig,
    out: &mut Report,
) {
    out.kernels_checked += 1;

    // Gate 2: live-range pressure. The trace generator has no spill
    // instructions, so exceeding the architectural file means the
    // emitted kernel is simply wrong on hardware.
    let pressure = register_pressure(insts);
    let vfile = cfg.isa.num_vregs;
    if pressure.max_vector > vfile {
        out.push(Finding::error(
            "AN-E002",
            subject,
            format!(
                "live-range analysis proves a spill: {} vector values live at once, \
                 {} file holds {vfile}",
                pressure.max_vector, cfg.isa
            ),
        ));
    }
    if pressure.max_scalar > 32 {
        out.push(Finding::error(
            "AN-E002",
            subject,
            format!(
                "live-range analysis proves a spill: {} scalar values live at once, file holds 32",
                pressure.max_scalar
            ),
        ));
    }
    let acc = shape.accumulator_registers(cfg.isa.lanes_f32());
    if pressure.vector_live_in != acc {
        out.push(Finding::warning(
            "AN-W008",
            subject,
            format!(
                "{} vector registers read before any write; expected exactly the {} accumulators",
                pressure.vector_live_in, acc
            ),
        ));
    }

    // Gate 3: dependence chains vs the shape's own ceiling.
    let fma_latency = cfg.hazard.pipeline.fma_latency as usize;
    let ceiling = shape.chain_bound_efficiency(cfg.isa.lanes_f32(), fma_latency);
    let chains = chain_analysis(insts, &cfg.hazard);
    if chains.fma_count > 0 {
        if chains.chain_bound < cfg.min_chain_fraction * ceiling {
            out.push(Finding::error(
                "AN-E003",
                subject,
                format!(
                    "avoidable scheduling serialization: dependence chains cap throughput at \
                     {:.0}% but the {}x{} shape supports {:.0}% (critical path {} cycles \
                     for {} FMAs)",
                    100.0 * chains.chain_bound,
                    shape.mr,
                    shape.nr,
                    100.0 * ceiling,
                    chains.critical_path,
                    chains.fma_count
                ),
            ));
        } else if ceiling < cfg.note_ceiling_below {
            out.push(Finding::info(
                "AN-I001",
                subject,
                format!(
                    "shape is intrinsically latency-bound at {:.0}% of peak ({} accumulator \
                     chains vs {}-cycle FMA pipe) — the Fig. 7 edge-kernel trade-off",
                    100.0 * ceiling,
                    acc,
                    fma_latency
                ),
            ));
        }
    }

    // Gate 4: bounds, aliasing, alignment.
    for violation in check_stream(insts, regions, disjoint, 4, cfg.isa.vreg_bytes() as u64) {
        let (code, loc) = match &violation {
            AccessViolation::OutOfBounds { index, .. } => ("AN-E004", Some(*index)),
            AccessViolation::ReadOnlyStore { index, .. } => ("AN-E005", Some(*index)),
            AccessViolation::RegionOverlap { .. } => ("AN-E005", None),
            AccessViolation::Misaligned { index, .. } => ("AN-E007", Some(*index)),
        };
        let mut f = Finding::error(code, subject, violation.to_string());
        if let Some(i) = loc {
            f = f.at(format!("inst #{i}"));
        }
        out.push(f);
    }
}

/// All four gates for one descriptor: budget, then trace and verify.
pub fn verify_descriptor(
    subject: &str,
    desc: MicroKernelDesc,
    cfg: &VerifyConfig,
    out: &mut Report,
) {
    let (mr, nr) = (desc.mr(), desc.nr());
    if !verify_shape(subject, mr, nr, cfg, out) {
        return;
    }
    let params = canonical_params(desc, cfg.kc);
    let (regions, disjoint) = canonical_regions(&params);
    let (insts, _) = kernel_trace(&params);
    verify_stream(
        subject,
        KernelShape::new(mr, nr),
        &insts,
        &regions,
        &disjoint,
        cfg,
        out,
    );
}

/// The distinct edge tiles a registry's step lists can produce (every
/// M part against the full `nr` and every N part, and the full `mr`
/// against every N part), excluding the main tile itself.
fn edge_tiles(profile: &LibraryProfile) -> Vec<(usize, usize)> {
    let (mr, nr) = (profile.main.mr(), profile.main.nr());
    let mut tiles = Vec::new();
    for &m in &profile.m_steps {
        for &n in &profile.n_steps {
            if (m, n) != (mr, nr) && !tiles.contains(&(m, n)) {
                tiles.push((m, n));
            }
        }
    }
    tiles
}

/// Verify one library profile end to end.
pub fn verify_profile(profile: &LibraryProfile, cfg: &VerifyConfig) -> Report {
    let mut out = Report::new();

    verify_descriptor(
        &format!(
            "{}/main-{}x{}",
            profile.name,
            profile.main.mr(),
            profile.main.nr()
        ),
        profile.main,
        cfg,
        &mut out,
    );

    for shape in &profile.alternates {
        let subject = format!("{}/alt-{}x{}", profile.name, shape.mr, shape.nr);
        if verify_shape(&subject, shape.mr, shape.nr, cfg, &mut out) {
            let desc = MicroKernelDesc::new(
                shape.mr,
                shape.nr,
                profile.main.unroll,
                profile.main.policy,
                profile.main.b_load,
            );
            verify_descriptor(&subject, desc, cfg, &mut out);
        }
    }

    if profile.edge == EdgeStrategy::EdgeKernels {
        for (m, n) in edge_tiles(profile) {
            let subject = format!("{}/edge-{m}x{n}", profile.name);
            if verify_shape(&subject, m, n, cfg, &mut out) {
                verify_descriptor(&subject, profile.edge_desc(m, n), cfg, &mut out);
            }
        }
    }

    let registry = EdgeRegistry {
        name: profile.name,
        mr: profile.main.mr(),
        nr: profile.main.nr(),
        edge: profile.edge,
        m_steps: &profile.m_steps,
        n_steps: &profile.n_steps,
        isa: cfg.isa,
    };
    verify_registry(&registry, &mut out);
    out
}

/// Residue-coverage gate over one registry (`AN-E006`; infeasible edge
/// tile combinations route to the Eq. 4 code `AN-E001`).
pub fn verify_registry(registry: &EdgeRegistry<'_>, out: &mut Report) {
    let subject = format!("{}/registry", registry.name);
    for issue in check_coverage(registry) {
        let code = match issue {
            CoverageIssue::InfeasibleEdgeTile { .. } => "AN-E001",
            _ => "AN-E006",
        };
        out.push(Finding::error(code, &subject, issue.to_string()));
    }
}

/// Reference register tiles per ISA for the width-parametric pass:
/// the main tiles each register file would run, plus — on predicated
/// ISAs — residue shapes that exercise the masked-edge path (a row
/// count that is not a lane multiple). AVX2's 16-register file admits
/// only the NEON-sized tiles (Eq. 4 budget 14); its 12-row tile takes
/// the unpredicated remainder path at 8 lanes.
pub fn reference_shapes(isa: &VectorIsa) -> &'static [(usize, usize)] {
    match (isa.vlen_bits, isa.num_vregs) {
        (128, _) => &[(16, 4), (12, 4), (8, 12), (8, 8)],
        (256, 16) => &[(16, 4), (12, 4), (8, 12), (8, 8)],
        (256, _) => &[(16, 12), (16, 8), (8, 12), (11, 12), (13, 4)],
        _ => &[(32, 12), (32, 8), (16, 12), (23, 12), (9, 8)],
    }
}

/// Width-parametric verification: every reference tile of `cfg.isa`
/// through all four gates, with the trace emitted *for that ISA* (so
/// predicated edge streams are what gets proven on SVE-style widths).
pub fn verify_isa_references(cfg: &VerifyConfig, out: &mut Report) {
    for &(mr, nr) in reference_shapes(&cfg.isa) {
        let subject = format!("{}/ref-{mr}x{nr}", cfg.isa);
        if !verify_shape(&subject, mr, nr, cfg, out) {
            continue;
        }
        let desc = MicroKernelDesc::for_isa(
            cfg.isa,
            mr,
            nr,
            4,
            SchedulePolicy::Interleaved,
            BLoadStyle::ScalarPairs,
        );
        verify_descriptor(&subject, desc, cfg, out);
    }
}

/// Verify every registered library profile (on the 128-bit ISA they
/// model) plus the width-parametric reference tiles of `cfg.isa`.
pub fn verify_all(cfg: &VerifyConfig) -> Report {
    let mut out = Report::new();
    if cfg.isa == VectorIsa::neon128() {
        for profile in LibraryProfile::all() {
            out.merge(verify_profile(&profile, cfg));
        }
    }
    verify_isa_references(cfg, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Severity;

    #[test]
    fn shipped_profiles_have_no_errors() {
        let report = verify_all(&VerifyConfig::default());
        let errors: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.severity >= Severity::Warning)
            .collect();
        assert!(errors.is_empty(), "unexpected findings: {errors:#?}");
        assert!(report.kernels_checked > 20);
    }

    #[test]
    fn latency_bound_edges_are_noted_not_flagged() {
        let report = verify_all(&VerifyConfig::default());
        // OpenBLAS/Eigen 1-chain edge tiles must surface as Fig. 7
        // notes (Info), never as scheduling errors.
        assert!(report.has_code("AN-I001"));
        assert!(!report.has_code("AN-E003"));
    }

    #[test]
    fn every_isa_config_verifies_clean() {
        // The acceptance bar of the width-agnostic redesign: the same
        // four gates pass width-parametrically on all three configs,
        // including the predicated edge streams of the SVE widths.
        for isa in VectorIsa::all() {
            let report = verify_all(&VerifyConfig::for_isa(isa));
            let noisy: Vec<_> = report
                .findings
                .iter()
                .filter(|f| f.severity >= Severity::Warning)
                .collect();
            assert!(noisy.is_empty(), "{isa}: {noisy:#?}");
            assert!(report.kernels_checked >= reference_shapes(&isa).len());
        }
    }

    #[test]
    fn wide_budget_admits_what_neon_rejects() {
        // 16x8 is AN-E001 at 128 bits but passes all four gates at 256.
        let mut out = Report::new();
        assert!(verify_shape(
            "t/16x8",
            16,
            8,
            &VerifyConfig::for_isa(VectorIsa::sve256()),
            &mut out
        ));
        assert!(out.findings.is_empty());
    }

    #[test]
    fn over_budget_shape_fails_gate_one() {
        let mut out = Report::new();
        assert!(!verify_shape(
            "t/16x8",
            16,
            8,
            &VerifyConfig::default(),
            &mut out
        ));
        assert!(out.has_code("AN-E001"));
    }

    #[test]
    fn uncovered_registry_is_flagged() {
        let mut out = Report::new();
        let reg = EdgeRegistry {
            name: "t",
            mr: 16,
            nr: 4,
            edge: EdgeStrategy::EdgeKernels,
            m_steps: &[16, 8],
            n_steps: &[4, 2, 1],
            isa: VectorIsa::neon128(),
        };
        verify_registry(&reg, &mut out);
        assert!(out.has_code("AN-E006"));
    }
}
