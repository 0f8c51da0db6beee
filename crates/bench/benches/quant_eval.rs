//! Eval phase: memoized, data-parallel quantized-accuracy evaluation.
//!
//! Measures Fig 2's full ratio sweep through `evaluate_synthnet`, cold
//! (global `EvalCache` reset inside the timed body, so every point runs
//! the quantize/calibrate/forward pipeline) versus warm (cache left
//! resident, so the phase is pure lookup), at 1/2/4 workers. The cold j1
//! vs cold j4 pair is the per-image fan-out speedup the engine's jobs
//! split buys; cold vs warm is what a daemon or repeat CLI run saves.

use criterion::{criterion_group, criterion_main, Criterion};
use ola_harness::fig02::{trained, RATIOS};
use ola_quant::accuracy::{evaluate_synthnet, QuantSpec};
use ola_quant::evalcache::set_eval_jobs;
use ola_quant::EvalCache;
use std::hint::black_box;

fn benches(c: &mut Criterion) {
    let t = trained(EvalCache::global(), true);

    let sweep = || {
        let mut total = 0.0;
        for ratio in RATIOS {
            let acc = evaluate_synthnet(
                &t.net,
                &t.test,
                &t.train,
                &QuantSpec::paper_4bit(black_box(ratio)),
                5,
            );
            total += acc.top1;
        }
        total
    };

    for jobs in [1usize, 2, 4] {
        set_eval_jobs(jobs);
        c.bench_function(&format!("quant_eval_fig2_cold_j{jobs}"), |b| {
            b.iter(|| {
                EvalCache::global().reset();
                black_box(sweep())
            })
        });
        // Prime once, then measure pure cache replay.
        sweep();
        c.bench_function(&format!("quant_eval_fig2_warm_j{jobs}"), |b| {
            b.iter(|| black_box(sweep()))
        });
    }
}

criterion_group! {
    name = quant_eval;
    config = Criterion::default().sample_size(10);
    targets = benches
}
criterion_main!(quant_eval);
