//! Benchmarks of the two phases PR 6 un-serialized: `RowGen` row
//! regeneration and SynthNet SGD training. Both now draw from counter-based
//! Philox streams, so every arm below produces byte-identical results —
//! the j1/j2/j4 arms measure pure scheduling, not different computations.
//!
//! On a single-core host the jobs arms collapse onto j1 (thread-pool
//! overhead only); on a multicore host j4 is the §11 Amdahl-floor fix:
//! row regeneration and per-sample minibatch gradients scale with workers
//! while the in-order gradient reduction stays serial and tiny.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ola_nn::synth::SyntheticMatrix;
use ola_nn::synthnet::{LayerId, SynthDataset, SynthNet};
use ola_tensor::init::HeavyTailed;
use ola_tensor::par::ordered_map;
use std::hint::black_box;

/// 64-row slices of the RowGen layers the forward path regenerates:
/// `(arm, cols, sparsity)`. VGG-16's fc6 is 96% pruned; AlexNet's fc7,
/// which every AlexNet forward regenerates, is 91% pruned.
const ROWS: usize = 64;
const LAYERS: [(&str, usize, f64); 2] = [("vgg16_fc6", 25088, 0.96), ("alexnet_fc7", 4096, 0.91)];

fn rowgen_regen(c: &mut Criterion) {
    let idx: Vec<usize> = (0..ROWS).collect();
    for (arm, cols, sparsity) in LAYERS {
        let m = SyntheticMatrix::new(ROWS, cols, HeavyTailed::default(), sparsity, 0xF00D);
        let mut g = c.benchmark_group(&format!("rowgen_regen/{arm}"));
        g.sample_size(10)
            .throughput(Throughput::Elements((ROWS * cols) as u64));
        for jobs in [1usize, 2, 4] {
            g.bench_function(&format!("j{jobs}"), |b| {
                b.iter(|| {
                    let rows = ordered_map(&idx, jobs, |_, &i| m.row(i));
                    black_box(rows.len())
                })
            });
        }
        g.finish();
    }
}

fn synthnet_sgd(c: &mut Criterion) {
    let data = SynthDataset::generate(256, 10, 0x5EED);
    let mut g = c.benchmark_group("synthnet_sgd_epoch");
    g.sample_size(10)
        .throughput(Throughput::Elements(data.len() as u64));
    for jobs in [1usize, 2, 4] {
        g.bench_function(&format!("j{jobs}"), |b| {
            b.iter(|| {
                let mut net = SynthNet::new(10, 0xCAFE);
                net.train_jobs(&data, 1, 0.02, 0xBEEF, jobs);
                black_box(net.weights(LayerId::Fc2)[0])
            })
        });
    }
    g.finish();
}

fn dataset_synthesis(c: &mut Criterion) {
    let mut g = c.benchmark_group("dataset_generate");
    g.sample_size(10).throughput(Throughput::Elements(2800));
    for jobs in [1usize, 2, 4] {
        g.bench_function(&format!("j{jobs}"), |b| {
            ola_tensor::par::set_jobs(jobs);
            b.iter(|| black_box(SynthDataset::generate(2800, 10, 0x5EED).len()));
            ola_tensor::par::set_jobs(1);
        });
    }
    g.finish();
}

criterion_group!(benches, rowgen_regen, synthnet_sgd, dataset_synthesis);
criterion_main!(benches);
