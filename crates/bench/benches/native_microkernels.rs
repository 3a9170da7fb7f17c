//! Native micro-kernel throughput on packed operands (kc = 64): the
//! Table I register tiles, the OpenBLAS edge shapes and the wide-ISA
//! tiles, each on every implementation this host runs (the scalar
//! loops, AVX2 and AVX-512), then static against dynamic dispatch of the
//! scalar loops.

use smm_bench::timing::Group;
use smm_kernels::{BOperand, Kernel, KernelImpl};

fn bench_kernels() {
    let kc = 64usize;
    for imp in KernelImpl::available() {
        let mut group = Group::new(&format!("native_microkernels/{imp:?}"));
        for &(mr, nr) in &[
            (16usize, 4usize),
            (8, 8),
            (8, 12),
            (12, 4),
            (4, 4),
            (2, 4),
            (1, 4),
            (16, 8),
            (32, 8),
            (32, 12),
        ] {
            let a: Vec<f32> = (0..mr * kc).map(|i| (i % 13) as f32 * 0.25).collect();
            let b: Vec<f32> = (0..nr * kc).map(|i| (i % 7) as f32 * 0.5).collect();
            let mut cbuf = vec![0.0f32; mr * nr];
            let kernel = Kernel::<f32>::on(mr, nr, imp).expect("available on this host");
            group.throughput((2 * mr * nr * kc) as u64);
            group.bench(&format!("{mr}x{nr}"), || {
                kernel.run(
                    kc,
                    1.0,
                    std::hint::black_box(&a),
                    mr,
                    BOperand::Packed(std::hint::black_box(&b)),
                    1.0,
                    &mut cbuf,
                    mr,
                );
            });
        }
    }
}

fn bench_static_vs_dynamic() {
    let mut group = Group::new("static_vs_dynamic_dispatch");
    let (mr, nr, kc) = (8usize, 8usize, 64usize);
    let a: Vec<f32> = (0..mr * kc).map(|i| i as f32 * 0.01).collect();
    let b: Vec<f32> = (0..nr * kc).map(|i| i as f32 * 0.02).collect();
    let mut cbuf = vec![0.0f32; mr * nr];
    let unrolled = Kernel::<f32>::on(mr, nr, KernelImpl::Scalar).expect("scalar runs anywhere");
    for (name, k) in [
        ("static_8x8", unrolled),
        ("dynamic_8x8", Kernel::<f32>::fallback(mr, nr)),
    ] {
        group.bench(name, || {
            k.run(kc, 1.0, &a, mr, BOperand::Packed(&b), 1.0, &mut cbuf, mr)
        });
    }
}

fn main() {
    bench_kernels();
    bench_static_vs_dynamic();
}
