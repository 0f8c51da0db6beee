//! Outlier-aware quantization deep dive: compare linear and outlier-aware
//! quantization error on a trained-like weight distribution, sweep the
//! outlier ratio, and calibrate activation thresholds on a real network.
//!
//! Run with: `cargo run --release -p ola-examples --bin outlier_quantization`

use ola_nn::synth::{synthesize_params, SynthConfig};
use ola_nn::zoo::{self, ZooConfig};
use ola_quant::linear::LinearQuantizer;
use ola_quant::metrics::sqnr_db;
use ola_quant::outlier::OutlierQuantizer;
use ola_sim::calibrate::calibrate_from_outputs;
use ola_tensor::init::uniform_tensor;
use ola_tensor::init::{heavy_tailed_tensor, HeavyTailed};
use ola_tensor::{stack_batch, Shape4};

fn main() {
    // Heavy-tailed weights like Fig 1's AlexNet conv2.
    let weights =
        heavy_tailed_tensor(Shape4::new(1, 1, 200, 500), HeavyTailed::default(), 42).into_vec();

    println!(
        "4-bit quantization of a heavy-tailed distribution ({} values):",
        weights.len()
    );
    let lin = LinearQuantizer::fit_symmetric(4, &weights).expect("non-zero weights");
    println!(
        "  linear:            SQNR {:>6.2} dB",
        sqnr_db(&weights, &lin.fake_quantize(&weights))
    );

    println!("  outlier-aware sweep:");
    for ratio in [0.005, 0.01, 0.02, 0.03, 0.05] {
        let q = OutlierQuantizer::fit(&weights, ratio, 4, 16);
        let sqnr = sqnr_db(&weights, &q.fake_quantize(&weights));
        println!(
            "    ratio {:>4.1}%: threshold {:.4}, SQNR {:>6.2} dB",
            ratio * 100.0,
            q.threshold(),
            sqnr
        );
    }

    // Activation threshold calibration on a scaled-down AlexNet (§II).
    println!("\nactivation calibration (AlexNet, 3% target, 4 sample inputs):");
    let cfg = ZooConfig {
        spatial_scale: 8,
        include_classifier: false,
        batch: 1,
    };
    let net = zoo::alexnet(&cfg);
    let params = synthesize_params(&net, &SynthConfig::for_network("alexnet"));
    let samples: Vec<_> = (0..4)
        .map(|i| uniform_tensor(net.input_shape(), -1.0, 1.0, 100 + i))
        .collect();
    let outs = net.forward(&params, &stack_batch(&samples));
    let cals = calibrate_from_outputs(&net, &outs, samples.len(), 0.03);
    for (cal, &node) in cals.iter().zip(net.compute_nodes().iter()) {
        println!(
            "  {:>6}: threshold {:>8.4}, effective ratio {:>5.2}%, zeros {:>5.1}%",
            net.nodes()[node].name,
            cal.threshold,
            cal.effective_outlier_ratio * 100.0,
            cal.zero_fraction * 100.0
        );
    }
}
