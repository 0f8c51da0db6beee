//! Model phase: memoized, layer-parallel accelerator simulation.
//!
//! Measures each accelerator's full-network `simulate_with_jobs` over the
//! prepared AlexNet workload, cold (global `SimCache` reset inside the
//! timed body, so every layer is simulated) versus warm (cache left
//! resident, so the phase is pure lookup), at 1/2/4 workers. The cold j1
//! vs cold j4 pair is the serial-equivalent speedup the engine's jobs
//! split buys; cold vs warm is what a daemon or repeat CLI run saves.

use criterion::{criterion_group, criterion_main, Criterion};
use ola_baselines::{EyerissSim, ZenaSim};
use ola_bench::bench_prep;
use ola_core::OlAccelSim;
use ola_energy::{ComparisonMode, TechParams};
use ola_sim::{QuantPolicy, SimCache, WorkloadSet};
use std::hint::black_box;

fn bench_accel(
    c: &mut Criterion,
    name: &str,
    ws: &WorkloadSet,
    simulate: &dyn Fn(&WorkloadSet, usize) -> u64,
) {
    for jobs in [1usize, 2, 4] {
        c.bench_function(&format!("model_phase_{name}_cold_j{jobs}"), |b| {
            b.iter(|| {
                SimCache::global().reset();
                black_box(simulate(black_box(ws), jobs))
            })
        });
        // Prime once, then measure pure cache replay.
        simulate(ws, jobs);
        c.bench_function(&format!("model_phase_{name}_warm_j{jobs}"), |b| {
            b.iter(|| black_box(simulate(black_box(ws), jobs)))
        });
    }
}

fn benches(c: &mut Criterion) {
    let prep = bench_prep("alexnet");
    let ws16 = prep.workloads(&QuantPolicy::olaccel16("alexnet"));
    let tech = TechParams::default();
    let mode = ComparisonMode::Bits16;

    let ola = OlAccelSim::new(tech, mode);
    bench_accel(c, "olaccel16", &ws16, &|ws, j| {
        ola.simulate_with_jobs(ws, j).total_cycles()
    });
    let zena = ZenaSim::new(tech, mode);
    bench_accel(c, "zena16", &ws16, &|ws, j| {
        zena.simulate_with_jobs(ws, j).total_cycles()
    });
    let eyeriss = EyerissSim::new(tech, mode);
    bench_accel(c, "eyeriss16", &ws16, &|ws, j| {
        eyeriss.simulate_with_jobs(ws, j).total_cycles()
    });
}

criterion_group! {
    name = model_phase;
    config = Criterion::default().sample_size(10);
    targets = benches
}
criterion_main!(model_phase);
