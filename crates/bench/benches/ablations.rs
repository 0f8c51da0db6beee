//! Ablations of OLAccel's design choices (DESIGN.md §8):
//!
//! * outlier MAC removed — every chunk with any outlier pays the two-cycle
//!   path, quantifying what the 17th MAC buys;
//! * PE-group lane count (ties to Fig 17's multi-outlier analysis);
//! * zero-skip lookahead width (the §V future-work note about skip
//!   overhead);
//! * fine-tuned 4-bit first layer (footnotes 1 and 6).

use criterion::{criterion_group, criterion_main, Criterion};
use ola_bench::bench_prep;
use ola_core::cost::{expected_zero_windows, GroupTuning};
use ola_core::{OlAccelSim, Tuning};
use ola_energy::{ComparisonMode, TechParams};
use ola_sim::{FirstLayerPolicy, QuantPolicy};
use std::hint::black_box;

fn benches(c: &mut Criterion) {
    let prep = bench_prep("alexnet");
    let ws = prep.workloads(&QuantPolicy::olaccel16("alexnet"));
    let tech = TechParams::default();

    let base = OlAccelSim::new(tech, ComparisonMode::Bits16);
    let no_outlier_mac = OlAccelSim::new(tech, ComparisonMode::Bits16).with_tuning(Tuning {
        group: GroupTuning {
            outlier_mac: false,
            ..Default::default()
        },
        ..Tuning::default()
    });

    c.bench_function("ablation_baseline_sim", |b| {
        b.iter(|| black_box(base.simulate(black_box(&ws)).total_cycles()))
    });
    c.bench_function("ablation_no_outlier_mac_sim", |b| {
        b.iter(|| black_box(no_outlier_mac.simulate(black_box(&ws)).total_cycles()))
    });

    // ---- report the ablation numbers ----
    let with_mac = base.simulate(&ws).total_cycles();
    let without = no_outlier_mac.simulate(&ws).total_cycles();
    println!("=== Ablation: outlier MAC ===");
    println!("with outlier MAC:    {with_mac} cycles");
    println!(
        "without outlier MAC: {without} cycles (+{:.1}%)",
        (without as f64 / with_mac as f64 - 1.0) * 100.0
    );

    println!("\n=== Ablation: fine-tuned 4-bit first layer (footnotes 1/6) ===");
    let mut ft = QuantPolicy::olaccel16("alexnet");
    ft.first_layer = FirstLayerPolicy::FineTuned4Bit;
    let ws_ft = prep.workloads(&ft);
    let fine_tuned = base.simulate(&ws_ft).total_cycles();
    println!("raw 16-bit first layer: {with_mac} cycles");
    println!(
        "fine-tuned 4-bit:       {fine_tuned} cycles (-{:.1}%)",
        (1.0 - fine_tuned as f64 / with_mac as f64) * 100.0
    );

    println!("\n=== Ablation: zero-skip lookahead width (expected scan cycles/chunk @ 8 nnz) ===");
    for w in [2usize, 4, 8] {
        println!(
            "width {w}: {:.2} expected all-zero windows",
            expected_zero_windows(16, 8, w)
        );
    }

    println!("\n=== Ablation: which side causes the 4-bit accuracy cliff ===");
    {
        use ola_quant::accuracy::{evaluate_synthnet, QuantSpec};
        let t = ola_harness::fig02::trained(ola_quant::EvalCache::global(), true);
        for (label, spec) in [
            ("full precision     ", None),
            ("weights only @ 0%  ", Some(QuantSpec::weights_only(0.0))),
            ("acts only @ 0%     ", Some(QuantSpec::acts_only(0.0))),
            ("both @ 0%          ", Some(QuantSpec::paper_4bit(0.0))),
            ("both @ 3% outliers ", Some(QuantSpec::paper_4bit(0.03))),
        ] {
            let top1 = match spec {
                None => t.fp_top1,
                Some(s) => evaluate_synthnet(&t.net, &t.test, &t.train, &s, 5).top1,
            };
            println!("{label} top-1 {:.1}%", top1 * 100.0);
        }
    }

    println!("\n=== Ablation: tri-buffer vs double buffer (Fig 10's coherence design) ===");
    use ola_core::tribuffer::pipeline_overhead;
    for buffers in [2usize, 3] {
        let o = pipeline_overhead(10_000, 10, 4, buffers);
        println!("{buffers} buffers: {o:.3}x the normal unit's raw accumulation time");
    }
    c.bench_function("ablation_tribuffer_pipeline_10k_tiles", |b| {
        b.iter(|| black_box(pipeline_overhead(10_000, 10, 4, 3)))
    });
}

criterion_group! {
    name = figs;
    config = Criterion::default().sample_size(10);
    targets = benches
}
criterion_main!(figs);
