//! Direct operands: the unpacked forms a kernel call accepts when §IV's
//! packing-optional execution skips a packing pass — `A` at its own
//! column stride (see [`crate::native`]) and `B` as a [`BOperand`]. The
//! tests here drive the one kernel family of [`crate::native`] through
//! them.

/// The `B` operand of one kernel call.
#[derive(Debug, Clone, Copy)]
pub enum BOperand<'a, S> {
    /// Packed k-major sliver: `b[p*nr + j] = B̃(p, j)`.
    Packed(&'a [S]),
    /// Unpacked column-major storage with leading dimension `ldb`:
    /// `b[j*ldb + p] = B(p, j)`.
    ColMajor(&'a [S], usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::tests::check_case;
    use crate::native::{microkernel_reference, Kernel, KernelRegistry};

    /// `A` at `lda = mr + 5`, `B` packed and column-major at
    /// `ldb = kc + 3`, a gapped `ldc = mr + 2`: both layouts bit-identical
    /// to the reference.
    fn check(mr: usize, nr: usize, kc: usize) {
        for col_major_b in [false, true] {
            check_case(
                Kernel::<f32>::for_shape(mr, nr),
                kc,
                2.0,
                1.0,
                5,
                col_major_b,
                1,
            );
        }
    }

    #[test]
    fn static_shapes_match_reference() {
        for &(mr, nr) in &[
            (16, 4),
            (8, 8),
            (8, 12),
            (12, 4),
            (4, 4),
            (1, 4),
            (4, 1),
            (2, 2),
        ] {
            assert!(Kernel::<f32>::for_shape(mr, nr).is_static(), "{mr}x{nr}");
            check(mr, nr, 9);
        }
    }

    #[test]
    fn dynamic_shapes_match_reference() {
        for (mr, nr, kc) in [(7, 5, 11), (3, 13, 4), (16, 16, 3)] {
            assert!(!Kernel::<f32>::for_shape(mr, nr).is_static(), "{mr}x{nr}");
            check(mr, nr, kc);
        }
    }

    /// `a_stride = mr` reproduces the packed contract a registry handle
    /// runs.
    #[test]
    fn packed_stride_equals_packed_kernel() {
        let kc = 8;
        let a: Vec<f32> = (0..4 * kc).map(|i| i as f32 * 0.25).collect();
        let bp: Vec<f32> = (0..4 * kc).map(|i| (i % 5) as f32).collect();
        let mut c1 = vec![0.0f32; 16];
        let mut c2 = vec![0.0f32; 16];
        let mut want = vec![0.0f32; 16];
        Kernel::<f32>::for_shape(4, 4).run(kc, 1.0, &a, 4, BOperand::Packed(&bp), 1.0, &mut c1, 4);
        let k = KernelRegistry::new()
            .lookup::<f32>(4, 4)
            .expect("4x4 fits NEON");
        k.run(kc, 1.0, &a, &bp, &mut c2, 4);
        microkernel_reference(4, 4, kc, 1.0, &a, &bp, 1.0, &mut want, 4);
        assert_eq!(c1, want);
        assert_eq!(c2, want);
    }

    #[test]
    fn kc_zero_is_identity() {
        let k = Kernel::<f32>::for_shape(4, 4);
        let empty: &[f32] = &[];
        for b in [BOperand::Packed(empty), BOperand::ColMajor(empty, 0)] {
            let mut c = vec![3.0f32; 16];
            k.run(0, 1.0, empty, 4, b, 1.0, &mut c, 4);
            assert!(c.iter().all(|&x| x == 3.0), "{b:?}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_tile_rejected() {
        let mut c = vec![0.0f32; 33 * 4];
        Kernel::<f32>::for_shape(33, 4).run(
            0,
            1.0,
            &[],
            33,
            BOperand::Packed(&[]),
            1.0,
            &mut c,
            33,
        );
    }

    /// Shapes between the 16-row static tiles and the SVE-512 32-row
    /// cap run through the dynamic fallback.
    #[test]
    fn wide_isa_tile_shapes_admitted() {
        let k = Kernel::<f32>::for_shape(32, 12);
        assert_eq!((k.mr(), k.nr()), (32, 12));
        check(32, 12, 5);
        let (mr, nr, kc) = (32, 3, 5);
        let a: Vec<f32> = (0..mr * kc).map(|i| (i % 7) as f32 - 3.0).collect();
        let b: Vec<f32> = (0..nr * kc).map(|i| (i % 5) as f32 - 2.0).collect();
        let mut c = vec![0.0f32; mr * nr];
        Kernel::<f32>::for_shape(mr, nr).run(
            kc,
            1.0,
            &a,
            mr,
            BOperand::Packed(&b),
            1.0,
            &mut c,
            mr,
        );
        for j in 0..nr {
            for i in 0..mr {
                let want: f32 = (0..kc).map(|p| a[p * mr + i] * b[p * nr + j]).sum();
                assert_eq!(c[j * mr + i], want, "c[{i},{j}]");
            }
        }
    }
}
