//! Micro benchmarks of the hot kernels: quantization, chunk encode/decode,
//! the f32 convolution reference, and the chunk-dispatch makespan models.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ola_core::dispatch::{makespan_analytic, makespan_exact};
use ola_nn::network::conv2d;
use ola_quant::chunks::{decode_buffer, encode_buffer, QuantizedWeight};
use ola_quant::linear::LinearQuantizer;
use ola_quant::outlier::OutlierQuantizer;
use ola_tensor::init::{gaussian_tensor, heavy_tailed_tensor, HeavyTailed};
use ola_tensor::Shape4;
use std::hint::black_box;

fn benches(c: &mut Criterion) {
    let values =
        heavy_tailed_tensor(Shape4::new(1, 1, 256, 1024), HeavyTailed::default(), 3).into_vec();

    let mut g = c.benchmark_group("quantize");
    g.throughput(Throughput::Elements(values.len() as u64));
    g.bench_function("linear_4bit", |b| {
        let q = LinearQuantizer::fit_symmetric(4, &values).unwrap();
        b.iter(|| black_box(q.fake_quantize(black_box(&values))))
    });
    g.bench_function("outlier_aware_4bit", |b| {
        let q = OutlierQuantizer::fit(&values, 0.03, 4, 16);
        b.iter(|| black_box(q.fake_quantize(black_box(&values))))
    });
    g.bench_function("outlier_fit", |b| {
        b.iter(|| black_box(OutlierQuantizer::fit(black_box(&values), 0.03, 4, 16)))
    });
    g.finish();

    let weights: Vec<QuantizedWeight> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            if i % 33 == 0 {
                QuantizedWeight::outlier(((v * 1000.0) as i32).clamp(-127, 127))
            } else {
                QuantizedWeight::normal(((v * 100.0) as i32).clamp(-7, 7))
            }
        })
        .collect();
    let mut g = c.benchmark_group("chunks");
    g.throughput(Throughput::Elements(weights.len() as u64));
    g.bench_function("encode", |b| {
        b.iter(|| black_box(encode_buffer(black_box(&weights))))
    });
    let chunks = encode_buffer(&weights);
    g.bench_function("decode", |b| {
        b.iter(|| black_box(decode_buffer(black_box(&chunks), weights.len())))
    });
    g.finish();

    let x = gaussian_tensor(Shape4::new(1, 32, 28, 28), 1.0, 1);
    let w = gaussian_tensor(Shape4::new(64, 32, 3, 3), 0.05, 2);
    let mut g = c.benchmark_group("conv2d");
    g.throughput(Throughput::Elements(28 * 28 * 64 * 32 * 9));
    g.sample_size(20);
    g.bench_function("f32_reference_3x3", |b| {
        b.iter(|| black_box(conv2d(black_box(&x), black_box(&w), None, 1, 1)))
    });
    g.finish();

    // Bit-exact datapath: broadcasts through a 16+1-MAC group.
    let group: Vec<QuantizedWeight> = (0..16)
        .map(|i| {
            if i == 5 {
                QuantizedWeight::outlier(100)
            } else {
                QuantizedWeight::normal((i % 15) - 7)
            }
        })
        .collect();
    let (chunk, overflow) = ola_quant::chunks::encode_group(&group);
    let mut g = c.benchmark_group("datapath");
    g.throughput(Throughput::Elements(1000 * 16));
    g.bench_function("broadcast_1k_single_outlier", |b| {
        b.iter(|| {
            let mut psums = ola_integration::datapath::PsumBank::new();
            for act in 0..1000 {
                ola_integration::datapath::broadcast(
                    black_box(&chunk),
                    overflow.as_ref(),
                    act % 15 - 7,
                    &mut psums,
                );
            }
            black_box(psums)
        })
    });
    g.finish();

    // Functional end-to-end quantized conv.
    let wq = heavy_tailed_tensor(Shape4::new(32, 16, 3, 3), HeavyTailed::default(), 21);
    let mut aq = heavy_tailed_tensor(Shape4::new(1, 16, 12, 12), HeavyTailed::default(), 22);
    aq.map_inplace(|v| if v < 0.0 { 0.0 } else { v });
    let (packed, _) = ola_integration::functional::PackedConv::pack(&wq, 0.03, 1, 1);
    let qacts = ola_integration::functional::quantize_acts(&aq, 0.03);
    let mut g = c.benchmark_group("functional");
    g.sample_size(20);
    g.bench_function("quantized_conv_32x16x3x3", |b| {
        b.iter(|| {
            black_box(ola_integration::functional::execute(
                black_box(&packed),
                &qacts,
            ))
        })
    });
    g.finish();

    let jobs: Vec<u64> = (0..10_000).map(|i| (i * 7919) % 17).collect();
    let total: u64 = jobs.iter().sum();
    let mut g = c.benchmark_group("dispatch");
    g.bench_function("makespan_exact_10k", |b| {
        b.iter(|| black_box(makespan_exact(black_box(&jobs), 48)))
    });
    g.bench_function("makespan_analytic", |b| {
        b.iter(|| black_box(makespan_analytic(black_box(total as f64), 16.0, 48)))
    });
    g.finish();
}

criterion_group!(kernels, benches);
criterion_main!(kernels);
