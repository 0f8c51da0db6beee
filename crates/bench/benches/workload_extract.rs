//! Workload-extraction throughput: the retained multi-pass oracle
//! (`ola_integration::oracle`) vs the production extraction, at 1/2/4
//! worker threads, under each of the three `OutlierSelect::panel()` rules.
//!
//! The oracle walks each layer's activations several times (a full
//! descending sort for every threshold, separate chunk / zero / outlier
//! passes) and each weight grid chunk by chunk, striding 16 rows per
//! chunk. Production extraction runs one band-major grid kernel over each
//! layer's activations and weights: every pass walks whole 16-row bands
//! in memory order, and global thresholds come from a key histogram plus
//! a selection inside one bucket. Both
//! produce bit-identical `WorkloadSet`s (property-tested in `tests/`), so
//! the ratio here is pure overhead removed. On a single-core host the jobs
//! arms collapse onto jobs=1 — the oracle/j1 ratio is the portable number;
//! the jobs scaling shows only on multicore.
//!
//! AlexNet's eight layers are large (and its fc6/fc7 weights are
//! regenerated rows), ResNet-18 carries 11.7 M dense weights, and
//! DenseNet-121's 121 small layers are the per-call-overhead case.
//! Networks are synthesized exactly as the experiment suite synthesizes
//! them, so ratios transfer directly to suite and sweep extraction time.

use criterion::{criterion_group, criterion_main, Criterion};
use ola_integration::oracle;
use ola_nn::synth::{synthesize_params, SynthConfig};
use ola_nn::zoo::{self, ZooConfig};
use ola_nn::{Network, Params};
use ola_sim::workload;
use ola_sim::{OutlierSelect, QuantPolicy};
use ola_tensor::init::uniform_tensor;
use ola_tensor::Tensor;
use std::hint::black_box;

fn build(network: &str, scale: usize) -> (Network, Params, Vec<Tensor>) {
    let net = zoo::by_name(
        network,
        &ZooConfig {
            spatial_scale: scale,
            include_classifier: true,
            batch: 1,
        },
    );
    let params = synthesize_params(&net, &SynthConfig::for_network_seeded(network, 0xBE4C));
    let input = uniform_tensor(net.input_shape(), -1.0, 1.0, 0xBE4C + scale as u64);
    let acts = net.forward(&params, &input);
    (net, params, acts)
}

fn benches(c: &mut Criterion) {
    let cases = [
        ("alexnet_s4", "alexnet", 4),
        ("resnet18_s8", "resnet18", 8),
        ("densenet121_s8", "densenet121", 8),
    ];
    for (label, network, scale) in cases {
        let (net, params, acts) = build(network, scale);
        for select in OutlierSelect::panel() {
            let policy = QuantPolicy {
                select,
                ..QuantPolicy::olaccel16(network)
            };
            let mut g = c.benchmark_group(&format!("workload_extract/{label}/{}", select.name()));
            g.sample_size(10);
            g.bench_function("oracle", |b| {
                b.iter(|| {
                    black_box(oracle::extract_from_acts(
                        black_box(&net),
                        black_box(&params),
                        black_box(&acts),
                        black_box(&policy),
                    ))
                })
            });
            for jobs in [1, 2, 4] {
                g.bench_function(&format!("extract_j{jobs}"), |b| {
                    b.iter(|| {
                        black_box(workload::extract_from_acts_jobs(
                            black_box(&net),
                            black_box(&params),
                            black_box(&acts),
                            black_box(&policy),
                            jobs,
                        ))
                    })
                });
            }
            g.finish();
        }
    }
}

criterion_group!(workload_extract, benches);
criterion_main!(workload_extract);
