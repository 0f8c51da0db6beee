//! Event-driven cluster simulation throughput: streaming [`JobStream`]
//! versus a pre-materialized `Vec<UnitJob>` on a large synthetic layer, plus
//! the end-to-end layer validation path (`validate_layer`) the
//! `olaccel-repro validate` experiment runs once per layer.
//!
//! The streaming path is the PR's headline change — it simulates a
//! million-unit conv layer in O(1) memory — so this bench pins down that it
//! is also at least as fast as materializing, not just smaller.

use criterion::{criterion_group, criterion_main, Criterion};
use ola_core::cost::GroupTuning;
use ola_core::event::{jobs_from_workload, simulate_cluster, validate_layer, EventConfig, UnitJob};
use ola_sim::workload::{LayerKind, LayerWorkload};
use ola_tensor::Shape4;
use std::hint::black_box;

/// A conv-shaped layer with `units` dispatch units over 4096 measured
/// chunks — roughly AlexNet conv2 scale at full resolution.
fn big_layer(units: u64) -> LayerWorkload {
    let chunks = 4096usize;
    let chunk_nnz: Vec<u8> = (0..chunks).map(|i| (i % 17) as u8).collect();
    let chunk_zero_quads: Vec<u8> = chunk_nnz.iter().map(|&n| u8::from(n == 0) * 4).collect();
    LayerWorkload {
        name: "bench".into(),
        index: 1,
        kind: LayerKind::Conv,
        in_shape: Shape4::new(1, 16, 64, 64),
        out_shape: Shape4::new(1, 16, 64, 64),
        kernel: 3,
        macs: units * 256,
        weight_count: 256 * 9,
        weight_bits: 4,
        act_bits: 4,
        weight_zero_fraction: 0.0,
        act_zero_fraction: 0.5,
        weight_outlier_ratio: 0.03,
        act_outlier_nonzero_ratio: 0.03,
        act_effective_outlier_ratio: 0.02,
        chunk_nnz,
        chunk_zero_quads,
        wchunk_single_fraction: 0.2,
        wchunk_multi_fraction: 0.05,
        out_zero_fraction: 0.4,
    }
}

fn benches(c: &mut Criterion) {
    let l = big_layer(1_000_000);
    let tuning = GroupTuning::default();
    let cfg = EventConfig::default();

    c.bench_function("event_simulate_streaming_1m_units", |b| {
        b.iter(|| {
            black_box(simulate_cluster(
                jobs_from_workload(black_box(&l), &tuning, 0xE7E27),
                0,
                &cfg,
            ))
        })
    });

    c.bench_function("event_simulate_materialized_1m_units", |b| {
        b.iter(|| {
            let jobs: Vec<UnitJob> = jobs_from_workload(black_box(&l), &tuning, 0xE7E27).collect();
            black_box(simulate_cluster(&jobs, 0, &cfg))
        })
    });

    c.bench_function("event_validate_layer_1m_units", |b| {
        b.iter(|| black_box(validate_layer(black_box(&l), &tuning, &cfg)))
    });

    // ---- report the agreement the validate experiment asserts ----
    let (event, analytic) = validate_layer(&l, &tuning, &cfg);
    println!("=== Event vs closed-form on the 1M-unit bench layer ===");
    println!(
        "event {event} cycles, analytic {analytic} cycles ({:+.3}%)",
        (event as f64 / analytic as f64 - 1.0) * 100.0
    );
}

criterion_group!(event_cluster, benches);
criterion_main!(event_cluster);
