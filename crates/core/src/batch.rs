//! Batched small-scale GEMM.
//!
//! The workloads that motivate SMM (DNN layers, block-sparse formats,
//! ABFT) multiply *many* small matrices of the same shape. LIBXSMM's
//! batched interface is the x86 precedent; here the instance's cached
//! plan for the shape serves the whole batch, and — when the batch is
//! large but each GEMM is tiny — parallelism goes *across* batch
//! entries instead of inside one GEMM, which sidesteps every §III-D
//! pitfall at once (nothing small is ever split). Entries are
//! dispatched to the instance's persistent
//! [`TaskPool`](smm_gemm::pool::TaskPool), not to freshly spawned
//! threads. Each entry runs the plan's single-thread walk and therefore
//! draws its packing buffers from the worker's thread-local
//! [`smm_gemm::arena`]: the workers are persistent, so a warmed-up
//! batch loop packs every entry without allocating.

use smm_gemm::matrix::{MatMut, MatRef};
use smm_kernels::Scalar;

use crate::error::{Operand, SmmError};
use crate::exec::{execute_with, run_pooled};
use crate::smm::Smm;
use crate::telemetry::{CallSite, Phase, Recorder};
use crate::trace::{shape_arg, SpanName};

/// Arguments describing one strided batch: `batch` GEMMs of identical
/// shape laid out at constant strides in three flat buffers.
#[derive(Debug, Clone, Copy)]
pub struct StridedBatch {
    /// Rows of each `A`/`C`.
    pub m: usize,
    /// Columns of each `B`/`C`.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// Number of GEMMs.
    pub batch: usize,
    /// Leading dimension of each `A` (>= m).
    pub lda: usize,
    /// Elements between consecutive `A` matrices (>= lda*k).
    pub stride_a: usize,
    /// Leading dimension of each `B` (>= k).
    pub ldb: usize,
    /// Elements between consecutive `B` matrices (>= ldb*n).
    pub stride_b: usize,
    /// Leading dimension of each `C` (>= m).
    pub ldc: usize,
    /// Elements between consecutive `C` matrices (>= ldc*n).
    pub stride_c: usize,
}

impl StridedBatch {
    /// Dense packing: `lda = m`, `ldb = k`, `ldc = m`, strides exactly
    /// one matrix apart.
    pub fn dense(m: usize, n: usize, k: usize, batch: usize) -> Self {
        StridedBatch {
            m,
            n,
            k,
            batch,
            lda: m.max(1),
            stride_a: m.max(1) * k,
            ldb: k.max(1),
            stride_b: k.max(1) * n,
            ldc: m.max(1),
            stride_c: m.max(1) * n,
        }
    }

    /// Validated construction: rejects leading dimensions smaller than
    /// the operand's rows and strides that would make consecutive
    /// matrices overlap.
    #[allow(clippy::too_many_arguments)]
    pub fn try_new(
        m: usize,
        n: usize,
        k: usize,
        batch: usize,
        lda: usize,
        stride_a: usize,
        ldb: usize,
        stride_b: usize,
        ldc: usize,
        stride_c: usize,
    ) -> Result<Self, SmmError> {
        let desc = StridedBatch {
            m,
            n,
            k,
            batch,
            lda,
            stride_a,
            ldb,
            stride_b,
            ldc,
            stride_c,
        };
        desc.validate_geometry()?;
        Ok(desc)
    }

    fn validate_geometry(&self) -> Result<(), SmmError> {
        let lds = [
            (Operand::A, self.lda, self.m.max(1)),
            (Operand::B, self.ldb, self.k.max(1)),
            (Operand::C, self.ldc, self.m.max(1)),
        ];
        for (operand, ld, min) in lds {
            if ld < min {
                return Err(SmmError::BadLeadingDim { operand, ld, min });
            }
        }
        let strides = [
            (Operand::A, self.stride_a, self.lda * self.k),
            (Operand::B, self.stride_b, self.ldb * self.n),
            (Operand::C, self.stride_c, self.ldc * self.n),
        ];
        for (operand, stride, min) in strides {
            if stride < min {
                return Err(SmmError::OverlappingStride {
                    operand,
                    stride,
                    min,
                });
            }
        }
        Ok(())
    }

    fn validate_buffers(&self, a_len: usize, b_len: usize, c_len: usize) -> Result<(), SmmError> {
        if self.batch == 0 {
            return Ok(());
        }
        let need = |stride: usize, last: usize| (self.batch - 1) * stride + last;
        if self.k > 0 && self.m > 0 {
            let need_a = need(self.stride_a, self.lda * (self.k - 1) + self.m);
            if a_len < need_a {
                return Err(SmmError::BufferTooShort {
                    operand: Operand::A,
                    len: a_len,
                    need: need_a,
                });
            }
        }
        if self.k > 0 && self.n > 0 {
            let need_b = need(self.stride_b, self.ldb * (self.n - 1) + self.k);
            if b_len < need_b {
                return Err(SmmError::BufferTooShort {
                    operand: Operand::B,
                    len: b_len,
                    need: need_b,
                });
            }
        }
        if self.m > 0 && self.n > 0 {
            let need_c = need(self.stride_c, self.ldc * (self.n - 1) + self.m);
            if c_len < need_c {
                return Err(SmmError::BufferTooShort {
                    operand: Operand::C,
                    len: c_len,
                    need: need_c,
                });
            }
        }
        Ok(())
    }
}

impl<S: Scalar> Smm<S> {
    /// Strided-batch GEMM: `C[i] = alpha * A[i] * B[i] + beta * C[i]`
    /// for `i in 0..batch`, with full validation. The plan comes from
    /// this instance's plan cache, as for [`Smm::gemm`]; every entry
    /// runs it on one thread, ignoring its thread grid. When this `Smm`
    /// allows multiple threads, entries are distributed across the
    /// instance's persistent pool instead.
    pub fn gemm_batch(
        &self,
        desc: &StridedBatch,
        alpha: S,
        a: &[S],
        b: &[S],
        beta: S,
        c: &mut [S],
    ) -> Result<(), SmmError> {
        desc.validate_geometry()?;
        desc.validate_buffers(a.len(), b.len(), c.len())?;
        if desc.batch == 0 || desc.m == 0 || desc.n == 0 {
            return Ok(());
        }
        // Entry windows: `stride_c >= ldc * n > 0` by the validation
        // above, and the last window ends where the buffer does.
        let windows = c.chunks_mut(desc.stride_c).take(desc.batch);
        if desc.k == 0 {
            for c_i in windows {
                MatMut::from_slice(c_i, desc.m, desc.n, desc.ldc).scale(beta);
            }
            return Ok(());
        }
        let _root = self
            .tracer
            .span(SpanName::GemmBatch, shape_arg(desc.m, desc.n, desc.k));
        let rec = self.telemetry().recorder(CallSite::GemmBatch);
        let t_call = rec.now();
        let plan = self.plan(desc.m, desc.n, desc.k);
        rec.span_since(Phase::PlanLookup, t_call);
        let threads = self.config().max_threads.clamp(1, desc.batch);

        // Entries are tiny, so per-entry clock reads can rival the
        // arithmetic itself. Fine-grained (per-entry) recording is only
        // worthwhile when the plan packs — the pack spans amortize the
        // reads; otherwise each group records one coarse Compute span.
        let fine = rec.active() && (plan.pack_a || plan.pack_b);
        let entry_rec = if fine { rec } else { Recorder::none() };
        let run_entry = |i: usize, c_i: &mut [S]| {
            let ar = MatRef::from_slice(&a[i * desc.stride_a..], desc.m, desc.k, desc.lda);
            let br = MatRef::from_slice(&b[i * desc.stride_b..], desc.k, desc.n, desc.ldb);
            let cm = MatMut::from_slice(c_i, desc.m, desc.n, desc.ldc);
            execute_with(None, &plan, entry_rec, alpha, ar, br, beta, cm);
        };

        if threads <= 1 {
            let t0 = if fine { None } else { rec.now() };
            for (i, c_i) in windows.enumerate() {
                run_entry(i, c_i);
            }
            rec.span_since(Phase::Compute, t0);
        } else {
            // Deal the entries round-robin into one task per worker.
            let mut groups: Vec<Vec<(usize, &mut [S])>> =
                (0..threads).map(|_| Vec::new()).collect();
            for (i, c_i) in windows.enumerate() {
                groups[i % threads].push((i, c_i));
            }
            let run_entry = &run_entry;
            let tasks = groups.into_iter().map(|group| {
                move || {
                    for (i, c_i) in group {
                        run_entry(i, c_i);
                    }
                }
            });
            let busy = run_pooled(self.pool(), &rec, &self.tracer, 0, tasks);
            if !fine {
                // One span for the parallel section's critical path —
                // per-group spans would cost more than these entries.
                let max_busy = busy.iter().map(|&(_, ns)| ns).max().unwrap_or(0);
                rec.span_ns(Phase::Compute, max_busy);
            }
        }
        if let Some(t0) = t_call {
            self.telemetry().record_call(
                CallSite::GemmBatch,
                desc.m,
                desc.n,
                desc.k,
                std::mem::size_of::<S>(),
                desc.batch as u64,
                t0.elapsed().as_nanos() as u64,
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_gemm::gemm_naive;
    use smm_gemm::matrix::Mat;

    fn fill(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                ((state >> 33) as i64 % 17 - 8) as f32 * 0.25
            })
            .collect()
    }

    fn check_batch(desc: StridedBatch, threads: usize) {
        let a = fill((desc.batch.max(1)) * desc.stride_a + desc.lda * desc.k, 1);
        let b = fill((desc.batch.max(1)) * desc.stride_b + desc.ldb * desc.n, 2);
        let c0 = fill((desc.batch.max(1)) * desc.stride_c + desc.ldc * desc.n, 3);
        let mut c = c0.clone();
        let smm = Smm::<f32>::builder().threads(threads).build();
        smm.gemm_batch(&desc, 1.5, &a, &b, 0.5, &mut c).unwrap();
        for i in 0..desc.batch {
            let ar = MatRef::from_slice(&a[i * desc.stride_a..], desc.m, desc.k, desc.lda);
            let br = MatRef::from_slice(&b[i * desc.stride_b..], desc.k, desc.n, desc.ldb);
            let mut want = Mat::<f32>::from_fn(desc.m, desc.n, |r, col| {
                c0[i * desc.stride_c + col * desc.ldc + r]
            });
            gemm_naive(1.5, ar, br, 0.5, want.as_mut());
            for col in 0..desc.n {
                for r in 0..desc.m {
                    let got = c[i * desc.stride_c + col * desc.ldc + r];
                    assert!(
                        (got - want[(r, col)]).abs() < 1e-3,
                        "entry {i} ({r},{col}): {got} vs {}",
                        want[(r, col)]
                    );
                }
            }
        }
    }

    #[test]
    fn dense_batch_matches_naive() {
        check_batch(StridedBatch::dense(8, 8, 8, 10), 1);
        check_batch(StridedBatch::dense(5, 7, 3, 4), 1);
    }

    #[test]
    fn strided_batch_with_gaps() {
        let mut d = StridedBatch::dense(6, 5, 4, 3);
        d.lda = 8;
        d.stride_a = 64;
        d.ldc = 9;
        d.stride_c = 64;
        check_batch(d, 1);
    }

    #[test]
    fn threaded_batch_matches_naive() {
        check_batch(StridedBatch::dense(8, 8, 8, 17), 4);
        check_batch(StridedBatch::dense(12, 4, 16, 5), 8);
    }

    #[test]
    fn untouched_padding_between_entries() {
        let d = {
            let mut d = StridedBatch::dense(4, 4, 4, 2);
            d.stride_c = 32; // 16 elements of padding per entry
            d
        };
        let a = fill(d.batch * d.stride_a + 64, 1);
        let b = fill(d.batch * d.stride_b + 64, 2);
        let mut c = vec![7.0f32; d.batch * d.stride_c + 64];
        let smm = Smm::<f32>::new();
        smm.gemm_batch(&d, 1.0, &a, &b, 0.0, &mut c).unwrap();
        // Padding region of entry 0 untouched.
        for x in &c[16..32] {
            assert_eq!(*x, 7.0);
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let smm = Smm::<f32>::new();
        let mut c = vec![1.0f32; 4];
        smm.gemm_batch(&StridedBatch::dense(2, 2, 2, 0), 1.0, &[], &[], 0.0, &mut c)
            .unwrap();
        assert_eq!(c, vec![1.0; 4]);
    }

    #[test]
    fn k_zero_scales_every_entry() {
        let d = StridedBatch::dense(2, 2, 0, 3);
        let smm = Smm::<f32>::new();
        let mut c = vec![4.0f32; 3 * d.stride_c.max(4)];
        smm.gemm_batch(&d, 1.0, &[], &[], 0.25, &mut c).unwrap();
        assert_eq!(c[0], 1.0);
    }

    #[test]
    fn short_c_rejected() {
        let d = StridedBatch::dense(4, 4, 4, 4);
        let smm = Smm::<f32>::new();
        let a = vec![0.0f32; 256];
        let b = vec![0.0f32; 256];
        let mut c = vec![0.0f32; 20];
        let err = smm.gemm_batch(&d, 1.0, &a, &b, 0.0, &mut c).unwrap_err();
        assert_eq!(
            err,
            SmmError::BufferTooShort {
                operand: Operand::C,
                len: 20,
                need: 64
            }
        );
        assert!(err.to_string().contains("C buffer too short"));
    }

    #[test]
    fn overlapping_strides_rejected() {
        let mut d = StridedBatch::dense(4, 4, 4, 2);
        d.stride_c = 8; // < ldc * n
        let smm = Smm::<f32>::new();
        let a = vec![0.0f32; 64];
        let b = vec![0.0f32; 64];
        let mut c = vec![0.0f32; 64];
        let err = smm.gemm_batch(&d, 1.0, &a, &b, 0.0, &mut c).unwrap_err();
        assert_eq!(
            err,
            SmmError::OverlappingStride {
                operand: Operand::C,
                stride: 8,
                min: 16
            }
        );
        assert!(err.to_string().contains("overlap"));
    }

    #[test]
    fn try_new_accepts_valid_geometry() {
        let d = StridedBatch::try_new(4, 5, 6, 3, 4, 24, 6, 30, 4, 20).unwrap();
        assert_eq!(d.batch, 3);
        check_batch(d, 2);
    }

    #[test]
    fn try_new_rejects_small_leading_dim() {
        let err = StridedBatch::try_new(4, 4, 4, 2, 3, 16, 4, 16, 4, 16).unwrap_err();
        assert_eq!(
            err,
            SmmError::BadLeadingDim {
                operand: Operand::A,
                ld: 3,
                min: 4
            }
        );
    }

    #[test]
    fn try_new_rejects_overlapping_stride() {
        let err = StridedBatch::try_new(4, 4, 4, 2, 4, 15, 4, 16, 4, 16).unwrap_err();
        assert_eq!(
            err,
            SmmError::OverlappingStride {
                operand: Operand::A,
                stride: 15,
                min: 16
            }
        );
        let err = StridedBatch::try_new(4, 4, 4, 2, 4, 16, 4, 16, 4, 10).unwrap_err();
        assert!(err.to_string().contains("C matrices overlap"));
    }

    #[test]
    fn gemm_batch_reports_short_buffers_as_errors() {
        let d = StridedBatch::dense(4, 4, 4, 4);
        let smm = Smm::<f32>::new();
        let a = vec![0.0f32; 256];
        let b = vec![0.0f32; 256];
        let mut c = vec![0.0f32; 20];
        let err = smm.gemm_batch(&d, 1.0, &a, &b, 0.0, &mut c).unwrap_err();
        assert_eq!(
            err,
            SmmError::BufferTooShort {
                operand: Operand::C,
                len: 20,
                need: 64
            }
        );
        // Nothing was written before the error.
        assert!(c.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn gemm_batch_ok_on_valid_input() {
        let d = StridedBatch::dense(6, 6, 6, 9);
        let a = fill(d.batch * d.stride_a, 1);
        let b = fill(d.batch * d.stride_b, 2);
        let mut c = vec![0.0f32; d.batch * d.stride_c];
        let smm = Smm::<f32>::builder().threads(4).build();
        smm.gemm_batch(&d, 1.0, &a, &b, 0.0, &mut c).unwrap();
        let ar = MatRef::from_slice(&a, d.m, d.k, d.lda);
        let br = MatRef::from_slice(&b, d.k, d.n, d.ldb);
        let mut want = Mat::<f32>::zeros(d.m, d.n);
        gemm_naive(1.0, ar, br, 0.0, want.as_mut());
        for col in 0..d.n {
            for r in 0..d.m {
                assert!((c[col * d.ldc + r] - want[(r, col)]).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn k_zero_is_a_pure_beta_scale_with_gapped_ldc() {
        // k == 0 must touch only the m x n window of each entry, even
        // with a padded leading dimension and inter-entry gaps.
        let d = StridedBatch::try_new(2, 3, 0, 2, 2, 0, 1, 3, 4, 16).unwrap();
        let smm = Smm::<f32>::new();
        let mut c = vec![2.0f32; 16 + 4 * 3];
        smm.gemm_batch(&d, 1.0, &[], &[], 0.25, &mut c).unwrap();
        for i in 0..d.batch {
            for col in 0..d.n {
                for r in 0..d.ldc {
                    let got = c[i * d.stride_c + col * d.ldc + r];
                    let want = if r < d.m { 0.5 } else { 2.0 };
                    assert_eq!(got, want, "entry {i} ({r},{col})");
                }
            }
        }
    }

    #[test]
    fn batch_of_one_takes_the_fast_path_on_a_threaded_pool() {
        // A single-entry batch must not fan out across workers and must
        // agree with both the naive oracle and plain gemm.
        let d = StridedBatch::dense(7, 5, 9, 1);
        let a = fill(d.stride_a, 21);
        let b = fill(d.stride_b, 22);
        let c0 = fill(d.stride_c, 23);
        let smm = Smm::<f32>::builder().threads(4).build();
        let mut c_batch = c0.clone();
        smm.gemm_batch(&d, 2.0, &a, &b, 0.5, &mut c_batch).unwrap();
        let mut want = Mat::<f32>::from_fn(d.m, d.n, |r, col| c0[col * d.ldc + r]);
        gemm_naive(
            2.0,
            MatRef::from_slice(&a, d.m, d.k, d.lda),
            MatRef::from_slice(&b, d.k, d.n, d.ldb),
            0.5,
            want.as_mut(),
        );
        let mut c_gemm = c0.clone();
        smm.gemm(
            2.0,
            MatRef::from_slice(&a, d.m, d.k, d.lda),
            MatRef::from_slice(&b, d.k, d.n, d.ldb),
            0.5,
            MatMut::from_slice(&mut c_gemm, d.m, d.n, d.ldc),
        );
        for col in 0..d.n {
            for r in 0..d.m {
                let got = c_batch[col * d.ldc + r];
                assert!(
                    (got - want[(r, col)]).abs() < 1e-3,
                    "vs naive at ({r},{col}): {got} vs {}",
                    want[(r, col)]
                );
                let via_gemm = c_gemm[col * d.ldc + r];
                assert!(
                    (got - via_gemm).abs() < 1e-3,
                    "vs gemm at ({r},{col}): {got} vs {via_gemm}"
                );
            }
        }
    }

    #[test]
    fn gemm_batch_takes_its_plan_from_the_cache() {
        let d = StridedBatch::dense(6, 5, 7, 3);
        let a = fill(d.batch * d.stride_a, 1);
        let b = fill(d.batch * d.stride_b, 2);
        let mut c = vec![0.0f32; d.batch * d.stride_c];
        let smm = Smm::<f32>::new();
        for _ in 0..2 {
            smm.gemm_batch(&d, 1.0, &a, &b, 0.0, &mut c).unwrap();
        }
        let s = smm.stats();
        assert_eq!((s.plan_misses, s.plan_hits), (1, 1));
        assert_eq!(s.cached_plans, 1);
    }

    #[test]
    fn threaded_batch_is_bit_identical_to_per_entry_gemm() {
        // 48x40x24 plans a split grid at 4 threads; each batch entry
        // runs that cached plan on one thread.
        let smm = Smm::<f32>::builder().threads(4).build();
        for d in [
            StridedBatch::dense(48, 40, 24, 5),
            StridedBatch::dense(7, 5, 9, 6),
        ] {
            let a = fill(d.batch * d.stride_a, 31);
            let b = fill(d.batch * d.stride_b, 32);
            let c0 = fill(d.batch * d.stride_c, 33);
            let mut c_batch = c0.clone();
            smm.gemm_batch(&d, 1.5, &a, &b, 0.5, &mut c_batch).unwrap();
            let mut c_gemm = c0;
            for i in 0..d.batch {
                smm.gemm(
                    1.5,
                    MatRef::from_slice(&a[i * d.stride_a..], d.m, d.k, d.lda),
                    MatRef::from_slice(&b[i * d.stride_b..], d.k, d.n, d.ldb),
                    0.5,
                    MatMut::from_slice(&mut c_gemm[i * d.stride_c..], d.m, d.n, d.ldc),
                );
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&c_batch), bits(&c_gemm), "{}x{}x{}", d.m, d.n, d.k);
        }
        assert!(smm.plan(48, 40, 24).threads() > 1, "grid really split");
    }

    #[test]
    fn try_new_rejects_overlap_per_operand() {
        // Each operand reports its own exact OverlappingStride variant.
        let err = StridedBatch::try_new(4, 4, 4, 2, 4, 16, 4, 11, 4, 16).unwrap_err();
        assert_eq!(
            err,
            SmmError::OverlappingStride {
                operand: Operand::B,
                stride: 11,
                min: 16
            }
        );
        let err = StridedBatch::try_new(4, 4, 4, 2, 4, 16, 4, 16, 4, 9).unwrap_err();
        assert_eq!(
            err,
            SmmError::OverlappingStride {
                operand: Operand::C,
                stride: 9,
                min: 16
            }
        );
        // Zero-width operands need no spacing: stride 0 is legal when
        // the operand itself is empty (k == 0 for A, n == 0 for B/C).
        assert!(StridedBatch::try_new(4, 0, 0, 2, 4, 0, 1, 0, 4, 0).is_ok());
    }
}
