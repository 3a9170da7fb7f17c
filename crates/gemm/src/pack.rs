//! Operand packing (the Fig. 2 formats of the paper).
//!
//! `Ã` stores an `mc × kc` block of `A` as a sequence of `mr`-row
//! panels, each panel k-major: panel `t` holds
//! `Ã[t][p*mr + i] = A(t*mr + i, p)`. `B̃` stores a `kc × nc` panel of
//! `B` as `nr`-column slivers: sliver `t` holds
//! `B̃[t][p*nr + j] = B(p, t*nr + j)`. Remainder panels are zero-padded
//! to the full `mr`/`nr` so the micro-kernel can always run the full
//! register tile (the BLIS/BLASFEO strategy); callers using edge
//! kernels simply pack with the edge tile as `mr`.

use smm_kernels::Scalar;

use crate::matrix::MatRef;

/// Pack an `rows × kc` block of `a` (starting at row `i0`, column `p0`)
/// into `mr`-row panels, zero-padding the last panel. Returns panels
/// laid out consecutively; panel stride is `mr * kc`.
pub fn pack_a<S: Scalar>(
    a: MatRef<'_, S>,
    i0: usize,
    p0: usize,
    rows: usize,
    kc: usize,
    mr: usize,
    out: &mut Vec<S>,
) {
    assert!(
        i0 + rows <= a.rows() && p0 + kc <= a.cols(),
        "pack_a block out of bounds"
    );
    assert!(mr >= 1);
    let panels = rows.div_ceil(mr);
    out.clear();
    out.resize(panels * mr * kc, S::ZERO);
    for t in 0..panels {
        let base = t * mr * kc;
        let rows_here = (rows - t * mr).min(mr);
        for p in 0..kc {
            for i in 0..rows_here {
                out[base + p * mr + i] = a.at(i0 + t * mr + i, p0 + p);
            }
        }
    }
}

/// Pack a `kc × cols` block of `b` (starting at row `p0`, column `j0`)
/// into `nr`-column slivers, zero-padding the last sliver. Sliver
/// stride is `nr * kc`.
pub fn pack_b<S: Scalar>(
    b: MatRef<'_, S>,
    p0: usize,
    j0: usize,
    kc: usize,
    cols: usize,
    nr: usize,
    out: &mut Vec<S>,
) {
    assert!(
        p0 + kc <= b.rows() && j0 + cols <= b.cols(),
        "pack_b block out of bounds"
    );
    assert!(nr >= 1);
    let slivers = cols.div_ceil(nr);
    out.clear();
    out.resize(slivers * nr * kc, S::ZERO);
    for t in 0..slivers {
        let base = t * nr * kc;
        let cols_here = (cols - t * nr).min(nr);
        for p in 0..kc {
            for j in 0..cols_here {
                out[base + p * nr + j] = b.at(p0 + p, j0 + t * nr + j);
            }
        }
    }
}

/// Pack a single `mr_e × kc` edge sliver *exactly* (no padding) — the
/// OpenBLAS edge-kernel path, and the Fig. 8 "pack the edge to use
/// SIMD" trick for the reference implementation.
pub fn pack_a_exact<S: Scalar>(
    a: MatRef<'_, S>,
    i0: usize,
    p0: usize,
    mr_e: usize,
    kc: usize,
    out: &mut Vec<S>,
) {
    assert!(
        i0 + mr_e <= a.rows() && p0 + kc <= a.cols(),
        "edge sliver out of bounds"
    );
    out.clear();
    out.resize(mr_e * kc, S::ZERO);
    for p in 0..kc {
        for i in 0..mr_e {
            out[p * mr_e + i] = a.at(i0 + i, p0 + p);
        }
    }
}

/// Pack a single `kc × nr_e` edge sliver exactly (no padding).
pub fn pack_b_exact<S: Scalar>(
    b: MatRef<'_, S>,
    p0: usize,
    j0: usize,
    kc: usize,
    nr_e: usize,
    out: &mut Vec<S>,
) {
    assert!(
        p0 + kc <= b.rows() && j0 + nr_e <= b.cols(),
        "edge sliver out of bounds"
    );
    out.clear();
    out.resize(kc * nr_e, S::ZERO);
    for p in 0..kc {
        for j in 0..nr_e {
            out[p * nr_e + j] = b.at(p0 + p, j0 + j);
        }
    }
}

/// [`pack_b_exact`] appending at the end of `out` (not cleared);
/// returns the sliver's start offset. One reusable arena buffer can
/// thus hold every sliver of a k block without per-sliver allocations.
pub fn pack_b_exact_append<S: Scalar>(
    b: MatRef<'_, S>,
    p0: usize,
    j0: usize,
    kc: usize,
    nr_e: usize,
    out: &mut Vec<S>,
) -> usize {
    assert!(
        p0 + kc <= b.rows() && j0 + nr_e <= b.cols(),
        "edge sliver out of bounds"
    );
    let start = out.len();
    out.resize(start + kc * nr_e, S::ZERO);
    for p in 0..kc {
        for j in 0..nr_e {
            out[start + p * nr_e + j] = b.at(p0 + p, j0 + j);
        }
    }
    start
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Mat;

    #[test]
    fn pack_a_layout_matches_fig2() {
        let a = Mat::<f32>::from_fn(8, 3, |i, j| (i * 10 + j) as f32);
        let mut buf = Vec::new();
        pack_a(a.as_ref(), 0, 0, 8, 3, 4, &mut buf);
        // Two panels of 4 rows x 3 cols each.
        assert_eq!(buf.len(), 2 * 4 * 3);
        // Panel 0, k=0 holds rows 0..4 of column 0.
        assert_eq!(&buf[0..4], &[0.0, 10.0, 20.0, 30.0]);
        // Panel 0, k=1 holds column 1.
        assert_eq!(&buf[4..8], &[1.0, 11.0, 21.0, 31.0]);
        // Panel 1 starts with rows 4..8 of column 0.
        assert_eq!(&buf[12..16], &[40.0, 50.0, 60.0, 70.0]);
    }

    #[test]
    fn pack_a_zero_pads_the_remainder_panel() {
        let a = Mat::<f32>::from_fn(6, 2, |_, _| 1.0);
        let mut buf = Vec::new();
        pack_a(a.as_ref(), 0, 0, 6, 2, 4, &mut buf);
        // Second panel has 2 real rows + 2 zero rows per k.
        assert_eq!(&buf[8..12], &[1.0, 1.0, 0.0, 0.0]);
        assert_eq!(&buf[12..16], &[1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn pack_b_layout_matches_fig2() {
        let b = Mat::<f32>::from_fn(3, 8, |i, j| (i * 10 + j) as f32);
        let mut buf = Vec::new();
        pack_b(b.as_ref(), 0, 0, 3, 8, 4, &mut buf);
        // Sliver 0, k=0 holds row 0, cols 0..4.
        assert_eq!(&buf[0..4], &[0.0, 1.0, 2.0, 3.0]);
        // Sliver 0, k=1 holds row 1.
        assert_eq!(&buf[4..8], &[10.0, 11.0, 12.0, 13.0]);
        // Sliver 1 holds cols 4..8.
        assert_eq!(&buf[12..16], &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn pack_b_zero_pads_the_remainder_sliver() {
        let b = Mat::<f32>::from_fn(2, 5, |_, _| 2.0);
        let mut buf = Vec::new();
        pack_b(b.as_ref(), 0, 0, 2, 5, 4, &mut buf);
        assert_eq!(&buf[8..12], &[2.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn sub_block_packing_respects_offsets() {
        let a = Mat::<f32>::from_fn(10, 10, |i, j| (i * 100 + j) as f32);
        let mut buf = Vec::new();
        pack_a(a.as_ref(), 2, 3, 4, 2, 4, &mut buf);
        assert_eq!(buf[0], 203.0); // A(2,3)
        assert_eq!(buf[4], 204.0); // A(2,4)
    }

    #[test]
    fn exact_edge_packing_has_no_padding() {
        let a = Mat::<f32>::from_fn(5, 4, |i, j| (i + j) as f32);
        let mut buf = Vec::new();
        pack_a_exact(a.as_ref(), 3, 0, 2, 4, &mut buf);
        assert_eq!(buf.len(), 8);
        assert_eq!(buf[0], 3.0); // A(3,0)
        assert_eq!(buf[1], 4.0); // A(4,0)
        let b = Mat::<f32>::from_fn(4, 5, |i, j| (i * 2 + j) as f32);
        pack_b_exact(b.as_ref(), 0, 4, 4, 1, &mut buf);
        assert_eq!(buf, vec![4.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn packed_product_matches_direct_product() {
        // The packed layouts must agree with the micro-kernel contract.
        let m = 8;
        let n = 8;
        let k = 5;
        let a = Mat::<f32>::random(m, k, 1);
        let b = Mat::<f32>::random(k, n, 2);
        let mut pa = Vec::new();
        let mut pb = Vec::new();
        pack_a(a.as_ref(), 0, 0, m, k, 8, &mut pa);
        pack_b(b.as_ref(), 0, 0, k, n, 8, &mut pb);
        let mut c = vec![0.0f32; m * n];
        smm_kernels::Kernel::<f32>::for_shape(8, 8).run(
            k,
            1.0,
            &pa,
            8,
            smm_kernels::BOperand::Packed(&pb),
            &mut c,
            m,
        );
        for j in 0..n {
            for i in 0..m {
                let mut want = 0.0;
                for p in 0..k {
                    want += a[(i, p)] * b[(p, j)];
                }
                assert!((c[j * m + i] - want).abs() < 1e-4, "({i},{j})");
            }
        }
    }

    #[test]
    fn append_packing_matches_exact_packing() {
        let b = Mat::<f32>::random(9, 12, 4);
        let mut exact = Vec::new();
        let mut appended = vec![99.0f32; 3]; // pre-existing content kept
        pack_b_exact(b.as_ref(), 1, 2, 7, 5, &mut exact);
        let off = pack_b_exact_append(b.as_ref(), 1, 2, 7, 5, &mut appended);
        assert_eq!(off, 3);
        assert_eq!(&appended[..3], &[99.0; 3]);
        assert_eq!(&appended[off..], exact.as_slice());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn pack_a_bounds_checked() {
        let a = Mat::<f32>::zeros(4, 4);
        let mut buf = Vec::new();
        pack_a(a.as_ref(), 2, 0, 4, 4, 4, &mut buf);
    }
}
