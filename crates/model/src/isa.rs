//! Vector ISA descriptors: the width-agnostic hardware contract.
//!
//! The paper derives its register-budget model (Eq. 4), compute-to-memory
//! ratio (Eq. 5) and chain-bound ceilings for one concrete target: 32
//! 128-bit NEON registers on FT-2000+. Nothing in the analysis depends on
//! that width, only on the `(vector length, register count, FMA latency)`
//! triple — so this module captures that triple as an explicit
//! [`VectorIsa`] value that is threaded from `Smm::builder()` down through
//! kernel-descriptor construction, trace generation, the cycle simulator
//! and the static verifier. One kernel codebase, N vector widths.
//!
//! Five configurations ship. Three are the paper's simulated axis:
//!
//! * [`VectorIsa::neon128`] — the paper's NEON target, bit-for-bit the
//!   pre-refactor behavior (the default of every simulated path).
//! * [`VectorIsa::sve256`] / [`VectorIsa::sve512`] — SVE-style wider
//!   configs with predication: residual rows are handled by a predicated
//!   vector lane mask (`whilelt`-style) instead of dedicated scalar edge
//!   kernels, collapsing the Fig. 7 edge pathology.
//!
//! These three keep 32 architectural vector registers — true of both
//! NEON and SVE — so among them Eq. 4 varies only through the lane
//! count. Two more describe x86-64 hosts, so that runtime plans can be
//! sized for the register file that actually executes them:
//!
//! * [`VectorIsa::avx2`] — 16 × 256-bit registers, no predication;
//! * [`VectorIsa::avx512`] — 32 × 512-bit registers, predicated through
//!   the opmask registers: the geometry of `sve512`.
//!
//! [`VectorIsa::host`] names the descriptor of the machine running the
//! process.

/// A vector instruction-set configuration.
///
/// `Copy` and `'static`-named so it can be embedded in plans, kernel
/// descriptors and reports without lifetime plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VectorIsa {
    /// Short identifier (`"neon128"`, `"sve256"`, `"sve512"`, `"avx2"`,
    /// `"avx512"`), used in CLI flags, JSON headers and report labels.
    pub name: &'static str,
    /// Vector register length in bits.
    pub vlen_bits: usize,
    /// Architectural vector register count.
    pub num_vregs: usize,
    /// Registers Eq. 4 reserves for operand staging (`spare` in the
    /// paper; at least one each for `A` and `B`).
    pub spare_vregs: usize,
    /// FMA result latency in cycles (the chain-bound denominator).
    pub fma_latency: usize,
    /// Does the ISA support per-lane predication (`whilelt` masks)?
    /// When true, residual rows use predicated vector ops instead of
    /// dedicated scalar edge kernels.
    pub predication: bool,
}

impl VectorIsa {
    /// The paper's target: 32×128-bit NEON on FT-2000+ (§II-A).
    pub const fn neon128() -> Self {
        VectorIsa {
            name: "neon128",
            vlen_bits: 128,
            num_vregs: 32,
            spare_vregs: 2,
            fma_latency: 5,
            predication: false,
        }
    }

    /// SVE-style 256-bit config with predicated edge handling.
    pub const fn sve256() -> Self {
        VectorIsa {
            name: "sve256",
            vlen_bits: 256,
            num_vregs: 32,
            spare_vregs: 2,
            fma_latency: 5,
            predication: true,
        }
    }

    /// SVE-style 512-bit config with predicated edge handling.
    pub const fn sve512() -> Self {
        VectorIsa {
            name: "sve512",
            vlen_bits: 512,
            num_vregs: 32,
            spare_vregs: 2,
            fma_latency: 5,
            predication: true,
        }
    }

    /// x86-64 AVX2 with FMA: 16 × 256-bit `ymm` registers and no
    /// predication, so residual rows take the greedy edge cascade.
    pub const fn avx2() -> Self {
        VectorIsa {
            name: "avx2",
            vlen_bits: 256,
            num_vregs: 16,
            spare_vregs: 2,
            fma_latency: 4,
            predication: false,
        }
    }

    /// x86-64 AVX-512F: 32 × 512-bit `zmm` registers, predicated through
    /// the opmask registers — the geometry of [`VectorIsa::sve512`].
    pub const fn avx512() -> Self {
        VectorIsa {
            name: "avx512",
            vlen_bits: 512,
            num_vregs: 32,
            spare_vregs: 2,
            fma_latency: 4,
            predication: true,
        }
    }

    /// Every shipped configuration: the simulated axis narrowest first,
    /// then the host descriptors (the order of their tags).
    pub const fn all() -> [VectorIsa; 5] {
        [
            Self::neon128(),
            Self::sve256(),
            Self::sve512(),
            Self::avx2(),
            Self::avx512(),
        ]
    }

    /// The descriptor of the machine running this process, detected at
    /// run time: [`avx2`](Self::avx2) when AVX2 and FMA are present,
    /// [`avx512`](Self::avx512) when AVX-512F is too, and
    /// [`neon128`](Self::neon128) — the paper's target and the
    /// simulated default — everywhere else (aarch64, SSE2-only x86-64,
    /// interpreters such as Miri).
    pub fn host() -> Self {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
                if std::is_x86_feature_detected!("avx512f") {
                    return Self::avx512();
                }
                return Self::avx2();
            }
        }
        Self::neon128()
    }

    /// Look a configuration up by its [`name`](Self::name).
    pub fn by_name(name: &str) -> Option<VectorIsa> {
        Self::all().into_iter().find(|isa| isa.name == name)
    }

    /// Stable numeric tag for on-disk formats (plan databases tag the
    /// ISA they were swept under). Tags are append-only: existing
    /// values never change meaning, and 0 is reserved as "never a
    /// valid ISA" so zeroed headers don't decode.
    pub fn tag(&self) -> u32 {
        match self.name {
            "neon128" => 1,
            "sve256" => 2,
            "sve512" => 3,
            "avx2" => 4,
            "avx512" => 5,
            _ => unreachable!("unregistered VectorIsa name {}", self.name),
        }
    }

    /// Inverse of [`tag`](Self::tag); `None` for tags written by a
    /// newer build (callers reject, not panic).
    pub fn from_tag(tag: u32) -> Option<VectorIsa> {
        match tag {
            1 => Some(Self::neon128()),
            2 => Some(Self::sve256()),
            3 => Some(Self::sve512()),
            4 => Some(Self::avx2()),
            5 => Some(Self::avx512()),
            _ => None,
        }
    }

    /// Lanes per vector register for an element of `elem_bytes` bytes.
    pub fn lanes(&self, elem_bytes: usize) -> usize {
        assert!(elem_bytes > 0, "element size must be positive");
        self.vlen_bits / (8 * elem_bytes)
    }

    /// Lanes per register for single-precision (`f32`) elements.
    pub fn lanes_f32(&self) -> usize {
        self.lanes(4)
    }

    /// Bytes per vector register.
    pub fn vreg_bytes(&self) -> usize {
        self.vlen_bits / 8
    }

    /// Eq. 4 accumulator budget: registers an `mr × nr` accumulator may
    /// occupy (`num_vregs - spare_vregs`).
    pub fn accumulator_budget(&self) -> usize {
        self.num_vregs.saturating_sub(self.spare_vregs)
    }

    /// The single authoritative Eq. 4 check, parametrized by this ISA.
    /// Delegates to [`crate::check_register_budget`] so the kernel layer
    /// and the verifier share one predicate.
    pub fn check_register_budget(
        &self,
        mr: usize,
        nr: usize,
        elem_bytes: usize,
    ) -> Result<crate::RegisterBudget, crate::RegisterBudgetError> {
        crate::check_register_budget(
            mr,
            nr,
            self.lanes(elem_bytes),
            self.num_vregs,
            self.spare_vregs,
        )
    }

    /// Chain-bound efficiency ceiling for an `mr × nr` tile under this
    /// ISA (Eq. 4 chains vs. the FMA pipeline depth).
    pub fn chain_bound_efficiency(&self, mr: usize, nr: usize, elem_bytes: usize) -> f64 {
        crate::KernelShape::new(mr, nr)
            .chain_bound_efficiency(self.lanes(elem_bytes), self.fma_latency)
    }
}

impl Default for VectorIsa {
    /// NEON-128: the paper's configuration and the compatibility default.
    fn default() -> Self {
        Self::neon128()
    }
}

impl std::fmt::Display for VectorIsa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_counts_per_width() {
        assert_eq!(VectorIsa::neon128().lanes_f32(), 4);
        assert_eq!(VectorIsa::sve256().lanes_f32(), 8);
        assert_eq!(VectorIsa::sve512().lanes_f32(), 16);
        // f64 halves the lane count.
        assert_eq!(VectorIsa::neon128().lanes(8), 2);
        assert_eq!(VectorIsa::sve512().lanes(8), 8);
    }

    #[test]
    fn vreg_bytes_per_width() {
        assert_eq!(VectorIsa::neon128().vreg_bytes(), 16);
        assert_eq!(VectorIsa::sve256().vreg_bytes(), 32);
        assert_eq!(VectorIsa::sve512().vreg_bytes(), 64);
    }

    #[test]
    fn default_is_the_papers_neon() {
        let isa = VectorIsa::default();
        assert_eq!(isa, VectorIsa::neon128());
        assert_eq!(isa.num_vregs, 32);
        assert_eq!(isa.spare_vregs, 2);
        assert_eq!(isa.fma_latency, 5);
        assert!(!isa.predication);
    }

    #[test]
    fn by_name_round_trips() {
        for isa in VectorIsa::all() {
            assert_eq!(VectorIsa::by_name(isa.name), Some(isa));
        }
        assert_eq!(VectorIsa::by_name("sse2"), None);
    }

    /// Each descriptor's register file, one row per shipped ISA: the
    /// simulated axis keeps NEON/SVE's 32 registers, the x86-64 hosts
    /// their own files (AVX2's 16 `ymm`, AVX-512's 32 `zmm`).
    #[test]
    fn register_file_per_descriptor() {
        let rows = [
            (VectorIsa::neon128(), 128, 32, 5, false),
            (VectorIsa::sve256(), 256, 32, 5, true),
            (VectorIsa::sve512(), 512, 32, 5, true),
            (VectorIsa::avx2(), 256, 16, 4, false),
            (VectorIsa::avx512(), 512, 32, 4, true),
        ];
        assert_eq!(rows.len(), VectorIsa::all().len());
        for (isa, vlen, vregs, latency, predicated) in rows {
            let got = (
                isa.vlen_bits,
                isa.num_vregs,
                isa.fma_latency,
                isa.predication,
            );
            assert_eq!(got, (vlen, vregs, latency, predicated), "{isa}");
            assert_eq!(isa.spare_vregs, 2, "{isa}");
            assert_eq!(isa.accumulator_budget(), vregs - 2, "{isa}");
        }
        // AVX-512 has exactly the geometry of the simulated SVE-512.
        let (x, s) = (VectorIsa::avx512(), VectorIsa::sve512());
        assert_eq!(
            (x.vlen_bits, x.num_vregs, x.spare_vregs, x.predication),
            (s.vlen_bits, s.num_vregs, s.spare_vregs, s.predication)
        );
    }

    /// The host descriptor is one of the shipped configurations, and on
    /// x86-64 it is the widest FMA unit the CPU reports.
    #[test]
    fn host_is_a_shipped_descriptor() {
        let host = VectorIsa::host();
        assert!(VectorIsa::all().contains(&host), "{host}");
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            let want = if std::is_x86_feature_detected!("avx512f") {
                VectorIsa::avx512()
            } else if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
            {
                VectorIsa::avx2()
            } else {
                VectorIsa::neon128()
            };
            assert_eq!(host, want);
        }
    }

    #[test]
    fn tags_round_trip_and_zero_is_reserved() {
        for isa in VectorIsa::all() {
            assert_eq!(VectorIsa::from_tag(isa.tag()), Some(isa));
        }
        assert_eq!(VectorIsa::from_tag(0), None);
        assert_eq!(VectorIsa::from_tag(99), None);
        // Stable on-disk values — changing these breaks every
        // persisted plan database.
        assert_eq!(VectorIsa::neon128().tag(), 1);
        assert_eq!(VectorIsa::sve256().tag(), 2);
        assert_eq!(VectorIsa::sve512().tag(), 3);
        assert_eq!(VectorIsa::avx2().tag(), 4);
        assert_eq!(VectorIsa::avx512().tag(), 5);
    }

    #[test]
    fn eq4_parametrizes_over_width() {
        // 16x8 overflows NEON-128 (32 accumulators > 30)...
        assert!(VectorIsa::neon128()
            .check_register_budget(16, 8, 4)
            .is_err());
        // ...but fits easily at 256-bit (16 accumulators).
        let b = VectorIsa::sve256().check_register_budget(16, 8, 4).unwrap();
        assert_eq!(b.accumulators, 16);
        // 32x12 fits only at 512-bit.
        assert!(VectorIsa::sve256()
            .check_register_budget(32, 12, 4)
            .is_err());
        let b = VectorIsa::sve512()
            .check_register_budget(32, 12, 4)
            .unwrap();
        assert_eq!(b.accumulators, 24);
    }

    #[test]
    fn chain_bound_scales_with_width() {
        // A 4-row column tile: one chain on NEON (20% ceiling), still
        // one chain at 512-bit.
        let n = VectorIsa::neon128().chain_bound_efficiency(4, 1, 4);
        assert!((n - 0.2).abs() < 1e-12);
        // 16x4 saturates NEON (16 chains) but drops to 4 chains at
        // 512-bit: wider vectors need wider nr to fill the pipe.
        assert_eq!(VectorIsa::neon128().chain_bound_efficiency(16, 4, 4), 1.0);
        let w = VectorIsa::sve512().chain_bound_efficiency(16, 4, 4);
        assert!((w - 0.8).abs() < 1e-12);
    }

    #[test]
    fn wide_isas_are_predicated() {
        assert!(VectorIsa::sve256().predication);
        assert!(VectorIsa::sve512().predication);
        assert!(!VectorIsa::neon128().predication);
        assert!(VectorIsa::avx512().predication);
        assert!(!VectorIsa::avx2().predication);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(VectorIsa::sve256().to_string(), "sve256");
    }
}
