//! Dump the simulated instruction stream of any strategy on any shape —
//! a debugging/inspection tool for the macro-op → instruction pipeline.
//! For the `ref` strategy the same shape is also run natively a few
//! times and the telemetry snapshot dumped as JSON, so the simulated
//! stream and the measured phase breakdown can be read side by side.
//!
//! Usage: `trace_dump <openblas|blis|blasfeo|eigen|ref> <m> <n> <k> [limit] [isa]`
//!
//! The optional trailing `isa` (`neon128|sve256|sve512|avx2|avx512`,
//! `ref` only; default `neon128`) retargets the plan at another vector
//! width, for the simulated stream and the native run alike; the active
//! ISA is emitted in the JSON header so downstream tooling knows which
//! register geometry produced the stream.

use smm_gemm::all_strategies;
use smm_model::VectorIsa;
use smm_simarch::isa::{Inst, Op, NO_REG};
use smm_simarch::trace::collect_source;

fn render(i: &Inst) -> String {
    let mn = match i.op {
        Op::LdVec => "ldr q",
        Op::LdScalar => "ldr s",
        Op::LdPair => "ldp s",
        Op::StVec => "str q",
        Op::StScalar => "str s",
        Op::LdVecPred => "ld1w p/z",
        Op::StVecPred => "st1w p",
        Op::Fma => "fmla",
        Op::FmaPred => "fmla p/m",
        Op::FmaTile => "fmopa",
        Op::WhileLt => "whilelt",
        Op::VMul => "fmul",
        Op::VAdd => "fadd",
        Op::VDup => "dup",
        Op::IOp => "add x",
        Op::Branch => "b.ne",
        Op::Barrier(_) => "barrier",
    };
    let dst = if i.dst == NO_REG {
        String::new()
    } else {
        format!(" d{}", i.dst)
    };
    let srcs: Vec<String> = i.sources().map(|r| format!("s{r}")).collect();
    format!(
        "{:<8}{:<6} {:<14} [{}] {:?}",
        mn,
        dst,
        format!("{:#x}", i.addr),
        srcs.join(","),
        i.phase
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args
        .get(1)
        .map(String::as_str)
        .unwrap_or("openblas")
        .to_lowercase();
    let get = |idx: usize, default: usize| {
        args.get(idx)
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    };
    let (m, n, k) = (get(2, 8), get(3, 8), get(4, 8));
    let limit = get(5, 120);
    let isa = args
        .get(6)
        .map(|name| {
            VectorIsa::by_name(name).unwrap_or_else(|| {
                let known = VectorIsa::all().map(|i| i.name).join("|");
                panic!("unknown ISA {name:?} ({known})")
            })
        })
        .unwrap_or_default();

    let job = if which == "ref" {
        let cfg = smm_core::PlanConfig {
            isa,
            ..Default::default()
        };
        let plan = smm_core::SmmPlan::build(m, n, k, &cfg);
        smm_core::build_sim(&plan)
    } else {
        let strategies = all_strategies::<f32>();
        let s = strategies
            .iter()
            .find(|s| s.name().to_lowercase() == which)
            .unwrap_or_else(|| {
                panic!("unknown strategy {which:?} (openblas|blis|blasfeo|eigen|ref)")
            });
        s.sim(m, n, k, 1)
    };
    println!("# {} — core 0, first {limit} instructions", job.label);
    let prog = job.programs.into_iter().next().expect("at least one core");
    let insts = collect_source(smm_gemm::ProgramSource::new(prog));
    println!("# total instructions: {}", insts.len());
    for i in insts.iter().take(limit) {
        println!("{}", render(i));
    }

    if which == "ref" {
        use smm_gemm::matrix::Mat;
        let smm = smm_core::Smm::<f32>::builder().isa(isa).build();
        let a = Mat::<f32>::random(m, k, 1);
        let b = Mat::<f32>::random(k, n, 2);
        let mut c = Mat::<f32>::zeros(m, n);
        for _ in 0..100 {
            smm.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        }
        println!("# native telemetry for {m}x{n}x{k} (100 calls), JSON:");
        println!(
            "{{\"isa\":{{\"name\":\"{}\",\"vlen_bits\":{},\"num_vregs\":{},\
             \"fma_latency\":{},\"predication\":{}}}}}",
            isa, isa.vlen_bits, isa.num_vregs, isa.fma_latency, isa.predication
        );
        println!("{}", smm.stats_report().to_json());
    }
}
