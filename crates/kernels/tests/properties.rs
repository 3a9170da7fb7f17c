//! Property-style tests for the kernel layer, driven by a deterministic
//! xorshift sweep: native kernels against the reference for arbitrary
//! shapes, and structural invariants of the generated traces.

use smm_kernels::descriptor::{BLoadStyle, MicroKernelDesc, SchedulePolicy};
use smm_kernels::direct::BOperand;
use smm_kernels::native::{microkernel_reference, Kernel, KernelImpl};
use smm_kernels::registry::{decompose_greedy, tile_dimension, EdgeStrategy};
use smm_kernels::trace_gen::{kernel_trace, KernelTraceParams};
use smm_simarch::isa::Op;
use smm_simarch::phase::Phase;

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }
}

fn data(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            ((state >> 33) as i64 % 9 - 4) as f32 * 0.5
        })
        .collect()
}

/// Any kernel shape (static or dynamic dispatch) matches the reference
/// triple loop.
#[test]
fn kernels_match_reference() {
    let mut rng = Rng::new(11);
    for _ in 0..96 {
        let mr = rng.range(1, 17);
        let nr = rng.range(1, 17);
        let kc = rng.range(0, 40);
        let alpha = (rng.range(0, 9) as f32 - 4.0) * 0.5;
        let seed = rng.range(1, 500) as u64;
        let a = data(mr * kc, seed);
        let b = data(nr * kc, seed + 1);
        let ldc = mr + (seed % 3) as usize;
        let mut c = data(ldc * nr.max(1), seed + 2);
        let mut c_ref = c.clone();
        Kernel::<f32>::for_shape(mr, nr).run(
            kc,
            alpha,
            &a,
            mr,
            BOperand::Packed(&b),
            1.0,
            &mut c,
            ldc,
        );
        microkernel_reference(mr, nr, kc, alpha, &a, &b, 1.0, &mut c_ref, ldc);
        for i in 0..c.len() {
            assert!(
                (c[i] - c_ref[i]).abs() < 1e-3 * (kc as f32 + 1.0),
                "{mr}x{nr} kc={kc}"
            );
        }
    }
}

/// Greedy decomposition always covers the length with valid steps.
#[test]
fn decomposition_covers() {
    for len in 1usize..500 {
        let steps = [16usize, 8, 4, 2, 1];
        let parts = decompose_greedy(len, &steps);
        assert_eq!(parts.iter().sum::<usize>(), len);
        assert!(parts.iter().all(|p| steps.contains(p)));
        // Non-increasing sizes (greedy).
        assert!(parts.windows(2).all(|w| w[0] >= w[1]));
    }
}

/// Tiling covers a dimension exactly for both edge strategies.
#[test]
fn tiling_covers() {
    let mut rng = Rng::new(12);
    for _ in 0..96 {
        let len = rng.range(1, 400);
        let step = [16usize, 8, 12][rng.range(0, 3)];
        let steps = [step, 8, 4, 2, 1];
        let steps: Vec<usize> = {
            let mut s: Vec<usize> = steps.to_vec();
            s.dedup();
            s.sort_unstable_by(|a, b| b.cmp(a));
            s.dedup();
            s
        };
        for strategy in [EdgeStrategy::EdgeKernels, EdgeStrategy::Padding] {
            let tiles = tile_dimension(len, step, strategy, &steps);
            assert_eq!(tiles.iter().map(|t| t.logical).sum::<usize>(), len);
            assert!(tiles.iter().all(|t| t.kernel >= t.logical));
            if strategy == EdgeStrategy::EdgeKernels {
                assert!(tiles.iter().all(|t| t.kernel == t.logical));
            }
        }
    }
}

/// Trace generation: the k-loop FMA count always equals
/// `ceil(mr/4) * nr * kc`, and loads never exceed 2 per FMA.
#[test]
fn trace_fma_counts() {
    let mut rng = Rng::new(13);
    let mut cases = 0;
    while cases < 96 {
        let mr = rng.range(1, 17);
        let nr = rng.range(1, 8);
        let kc = rng.range(1, 32);
        let policy_idx = rng.range(0, 3);
        if mr.div_ceil(4) * nr > 30 {
            continue;
        }
        let policy = [
            SchedulePolicy::Interleaved,
            SchedulePolicy::Naive,
            SchedulePolicy::Compiler,
        ][policy_idx];
        let b_load = if policy == SchedulePolicy::Compiler {
            BLoadStyle::Scalars
        } else {
            BLoadStyle::ScalarPairs
        };
        // Vector/Scalars staging needs extra registers.
        let mra = mr.div_ceil(4);
        let extra = if b_load == BLoadStyle::Scalars {
            2 * nr
        } else {
            0
        };
        if mra * nr + 2 * mra + extra > 32 {
            continue;
        }
        cases += 1;
        let p = KernelTraceParams {
            desc: MicroKernelDesc::new(mr, nr, 4, policy, b_load),
            kc,
            a_base: 0x1000,
            a_kstep: (mr * 4) as u64,
            b_base: 0x8000,
            b_kstep: (nr * 4) as u64,
            b_jstride: 4,
            c_base: 0x20000,
            c_col_stride: (mr * 4) as u64,
            elem: 4,
            phase: Phase::Kernel,
        };
        let (insts, stats) = kernel_trace(&p);
        let fmas = insts.iter().filter(|i| i.op == Op::Fma).count();
        let c_merge = mr.div_ceil(4) * nr;
        assert_eq!(fmas, stats.loop_fmas as usize + c_merge);
        assert_eq!(stats.loop_fmas as usize, mr.div_ceil(4) * nr * kc);
        let loads = insts.iter().filter(|i| i.op.is_load()).count();
        // Structural bound: at most mr + nr operand loads per k-step
        // (scalar worst case, double-buffered prologue adds one step),
        // plus the C loads of the merge and the alpha load.
        assert!(loads <= (mr + nr) * (kc + 1) + 2 * c_merge + 1);
    }
}

/// Static dispatch and dynamic fallback of the scalar loops agree on
/// every registered shape.
#[test]
fn static_and_dynamic_agree_everywhere() {
    for &(mr, nr) in smm_kernels::native::STATIC_SHAPES {
        let kc = 9;
        let a = data(mr * kc, 3);
        let b = data(nr * kc, 4);
        let mut c1 = vec![0.5f32; mr * nr];
        let mut c2 = c1.clone();
        let unrolled = Kernel::<f32>::on(mr, nr, KernelImpl::Scalar).expect("scalar runs anywhere");
        assert!(unrolled.is_static(), "{mr}x{nr}");
        unrolled.run(kc, 1.0, &a, mr, BOperand::Packed(&b), 1.0, &mut c1, mr);
        Kernel::<f32>::fallback(mr, nr).run(
            kc,
            1.0,
            &a,
            mr,
            BOperand::Packed(&b),
            1.0,
            &mut c2,
            mr,
        );
        assert_eq!(c1, c2, "{mr}x{nr}");
    }
}
