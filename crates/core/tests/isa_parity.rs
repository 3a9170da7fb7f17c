//! Per-ISA oracle parity and predication-coverage tests.
//!
//! The width-agnostic redesign must not change what GEMM computes:
//! every [`VectorIsa`] config (the simulated NEON-128, SVE-256 and
//! SVE-512, and the AVX2 and AVX-512 host descriptors) is held to the
//! naive oracle within the derived componentwise error bound
//! ([`check_gemm_bound`]) over the edge shapes the paper calls out
//! (unit dimensions, `k = 0`, `beta != 0`, gapped `ldc`, and residues
//! straddling each width's f32 lane count), on operands whose products
//! and sums round. The default build is held bit-for-bit to an explicit
//! `.isa(VectorIsa::host())`, and the predicated tiling is proven to
//! cover exactly the residues the dedicated edge-kernel cascade used to
//! cover.
//!
//! One test honors `SMM_TEST_ISA` (any [`VectorIsa::by_name`] name:
//! `neon128|sve256|sve512|avx2|avx512`) so the CI matrix drives a full
//! end-to-end pass at each width.

use smm_core::plan::{exact_tiles, exact_tiles_for};
use smm_core::{Smm, VectorIsa};
use smm_gemm::check_gemm_bound;
use smm_gemm::matrix::{Mat, MatMut, MatRef};

fn smm_for(isa: VectorIsa) -> Smm<f32> {
    Smm::<f32>::builder().isa(isa).threads(1).build()
}

/// Operands in `[-2, 2)` with full mantissas, so products and partial
/// sums round and a fused kernel differs from an unfused one.
fn random(rows: usize, cols: usize, seed: u64) -> Mat<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    Mat::from_fn(rows, cols, |_, _| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 4.0) as f32
    })
}

/// Edge shapes: unit dims, `k = 0`, and residues around every ISA's
/// f32 lane count (4, 8, 16) so each config sees tiles just below, at,
/// and just above its native width.
fn edge_shapes() -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![(1, 7, 9), (9, 1, 7), (1, 1, 5), (5, 6, 0), (75, 33, 64)];
    for lanes in [4usize, 8, 16] {
        shapes.push((lanes - 1, lanes + 1, 8));
        shapes.push((lanes, lanes, 8));
        shapes.push((2 * lanes + 3, lanes + 2, 12));
    }
    shapes
}

/// One `smm.gemm` held to the oracle within the derived bound.
fn gemm_checked(
    smm: &Smm<f32>,
    (m, n, k): (usize, usize, usize),
    alpha: f32,
    beta: f32,
    ctx: &str,
) {
    let a = random(m, k, 11);
    let b = random(k, n, 23);
    let c0 = random(m, n, 37);
    let mut c = c0.clone();
    smm.gemm(alpha, a.as_ref(), b.as_ref(), beta, c.as_mut());
    check_gemm_bound(alpha, a.as_ref(), b.as_ref(), beta, c0.as_ref(), c.as_ref())
        .unwrap_or_else(|v| panic!("{ctx} {m}x{n}x{k}: {v}"));
}

/// Every ISA config matches the naive oracle over the edge-shape
/// sweep, with `alpha` scaling and a non-trivial `beta`.
#[test]
fn edge_shapes_match_naive_on_every_isa() {
    for isa in VectorIsa::all() {
        let smm = smm_for(isa);
        for shape in edge_shapes() {
            gemm_checked(&smm, shape, 1.5, 0.5, &isa.to_string());
        }
    }
}

/// A gapped `ldc` (leading dimension larger than `m`) is honored at
/// every width: results match the oracle and the gap rows are never
/// written.
#[test]
fn gapped_ldc_matches_naive_on_every_isa() {
    let (m, n, k, ldc) = (13, 9, 17, 13 + 5);
    let a = random(m, k, 3);
    let b = random(k, n, 5);
    let sentinel = -1234.5_f32;
    for isa in VectorIsa::all() {
        let smm = smm_for(isa);
        let buf0 = vec![sentinel; ldc * n];
        let mut buf = buf0.clone();
        smm.gemm(
            1.25,
            a.as_ref(),
            b.as_ref(),
            2.0,
            MatMut::from_slice(&mut buf, m, n, ldc),
        );
        check_gemm_bound(
            1.25,
            a.as_ref(),
            b.as_ref(),
            2.0,
            MatRef::from_slice(&buf0, m, n, ldc),
            MatRef::from_slice(&buf, m, n, ldc),
        )
        .unwrap_or_else(|v| panic!("{isa}: {v}"));
        for j in 0..n {
            for i in m..ldc {
                let got = buf[j * ldc + i];
                assert_eq!(got, sentinel, "{isa} wrote into the ldc gap at [{i},{j}]");
            }
        }
    }
}

/// The default build plans for the host's own register file: it is
/// bit-for-bit an explicit `.isa(VectorIsa::host())`.
#[test]
fn default_build_is_bit_identical_to_the_host_isa() {
    let default = Smm::<f32>::builder().threads(1).build();
    assert_eq!(default.config().isa, VectorIsa::host());
    let host = smm_for(VectorIsa::host());
    for (m, n, k) in edge_shapes() {
        let a = random(m, k, 7);
        let b = random(k, n, 13);
        let mut c0 = random(m, n, 19);
        let mut c1 = c0.clone();
        default.gemm(0.75, a.as_ref(), b.as_ref(), -0.5, c0.as_mut());
        host.gemm(0.75, a.as_ref(), b.as_ref(), -0.5, c1.as_mut());
        for (x, y) in c0.data().iter().zip(c1.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{m}x{n}x{k}: {x} vs {y}");
        }
    }
}

/// The predicated tiling covers exactly the index range the greedy
/// edge-kernel cascade used to cover: same full tiles, and one masked
/// remainder tile standing in for the power-of-2 cascade over
/// `len % step` — nothing dropped, nothing double-covered.
#[test]
fn predicated_tiling_covers_exactly_the_greedy_residues() {
    let sve = VectorIsa::sve256();
    for step in [4usize, 8, 12, 16] {
        for len in 1..=200 {
            let greedy = exact_tiles(len, step);
            let pred = exact_tiles_for(len, step, &sve);

            // Both cover [0, len) contiguously with no overlap.
            for tiles in [&greedy, &pred] {
                let mut next = 0;
                for t in tiles.iter() {
                    assert_eq!(t.offset, next, "len={len} step={step}");
                    next += t.logical;
                }
                assert_eq!(next, len, "len={len} step={step}");
            }

            // Identical full-tile prefix; the greedy cascade's residue
            // parts sum to the predicated path's single remainder.
            assert_eq!(
                pred.iter().filter(|t| t.logical == step).count(),
                len / step
            );
            let residue = len % step;
            let greedy_residue: usize = greedy.iter().skip(len / step).map(|t| t.logical).sum();
            assert_eq!(greedy_residue, residue, "len={len} step={step}");
            if residue > 0 {
                assert_eq!(pred.len(), len / step + 1);
                assert_eq!(pred.last().unwrap().logical, residue);
            } else {
                assert_eq!(pred.len(), len / step);
            }
        }
    }
}

/// End-to-end pass at the ISA named by `SMM_TEST_ISA` (the CI matrix
/// variable); defaults to NEON-128 locally. Confirms the plan actually
/// carries the requested ISA and the native result matches the oracle.
#[test]
fn matrix_isa_from_env_runs_end_to_end() {
    let isa = std::env::var("SMM_TEST_ISA")
        .ok()
        .map(|name| VectorIsa::by_name(&name).unwrap_or_else(|| panic!("bad SMM_TEST_ISA {name}")))
        .unwrap_or_default();
    let smm = smm_for(isa);
    let plan = smm.plan(75, 33, 64);
    assert_eq!(plan.isa, isa, "plan must carry the requested ISA");
    gemm_checked(&smm, (75, 33, 64), 1.0, 0.0, &isa.to_string());
}
