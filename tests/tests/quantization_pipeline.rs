//! Integration of the quantization pipeline: calibrate on a network, build
//! the hardware encodings, verify the numerical path end to end.

use ola_nn::synth::{synthesize_params, weight_values, SynthConfig};
use ola_nn::zoo::{self, ZooConfig};
use ola_quant::chunks::{decode_buffer, encode_buffer, QuantizedWeight, CHUNK_WEIGHTS};
use ola_quant::metrics::sqnr_db;
use ola_quant::outlier::OutlierQuantizer;
use ola_sim::calibrate::calibrate_from_outputs;
use ola_tensor::init::uniform_tensor;
use ola_tensor::stack_batch;

#[test]
fn calibrated_quantizers_hit_target_ratio() {
    let cfg = ZooConfig {
        spatial_scale: 8,
        include_classifier: false,
        batch: 1,
    };
    let net = zoo::alexnet(&cfg);
    let params = synthesize_params(&net, &SynthConfig::for_network("alexnet"));
    let samples: Vec<_> = (0..2)
        .map(|i| uniform_tensor(net.input_shape(), -1.0, 1.0, 200 + i))
        .collect();
    let outs = net.forward(&params, &stack_batch(&samples));
    let cals = calibrate_from_outputs(&net, &outs, samples.len(), 0.03);
    for cal in &cals {
        // Nonzero ratio should be near target; effective at or below it.
        assert!(
            (cal.nonzero_outlier_ratio - 0.03).abs() < 0.015,
            "nonzero ratio {}",
            cal.nonzero_outlier_ratio
        );
        assert!(cal.effective_outlier_ratio <= cal.nonzero_outlier_ratio + 1e-9);
    }
}

#[test]
fn full_weight_path_roundtrip_preserves_fidelity() {
    // Take real (synthetic-trained-like) conv weights, quantize outlier-
    // aware, encode to hardware chunks, decode, dequantize, and check the
    // result matches the direct fake-quantization to the quantizer's own
    // resolution.
    let cfg = ZooConfig {
        spatial_scale: 8,
        include_classifier: false,
        batch: 1,
    };
    let net = zoo::alexnet(&cfg);
    let params = synthesize_params(&net, &SynthConfig::for_network("alexnet"));
    let conv2 = net.nodes().iter().position(|n| n.name == "conv2").unwrap();
    let weights: Vec<f32> = weight_values(&params, conv2)
        .into_iter()
        .take(4096)
        .collect();
    let nonzero: Vec<f32> = weights.iter().copied().filter(|&v| v != 0.0).collect();

    let quant = OutlierQuantizer::fit(&nonzero, 0.035, 4, 8);
    let encoded = quant.quantize(&nonzero);

    // Pack into hardware chunks.
    let mut hw: Vec<QuantizedWeight> = encoded
        .levels
        .iter()
        .map(|&l| QuantizedWeight::normal(l))
        .collect();
    for &(i, level) in &encoded.outliers {
        hw[i] = QuantizedWeight::outlier(level);
    }
    let chunks = encode_buffer(&hw);
    assert!(chunks.len() >= nonzero.len().div_ceil(CHUNK_WEIGHTS));

    // Decode and compare values.
    let decoded = decode_buffer(&chunks, nonzero.len());
    assert_eq!(decoded, hw, "hardware chunk round trip must be lossless");

    // Reconstructed reals track the originals well (fine grid on the bulk).
    let restored: Vec<f32> = decoded
        .iter()
        .map(|w| {
            if w.outlier {
                quant.high().dequantize(w.level)
            } else {
                quant.low().dequantize(w.level)
            }
        })
        .collect();
    let sqnr = sqnr_db(&nonzero, &restored);
    assert!(sqnr > 15.0, "end-to-end SQNR only {sqnr} dB");
}

#[test]
fn fit_rejects_empty_population() {
    // The fit has no way to place a grid over nothing; the contract is a
    // panic, not a silent degenerate quantizer.
    let result = std::panic::catch_unwind(|| OutlierQuantizer::fit(&[], 0.03, 4, 8));
    assert!(result.is_err(), "fit on an empty slice must panic");
}

#[test]
fn fit_rejects_all_zero_population() {
    // -0.0 counts as magnitude zero: a population of signed zeros has no
    // usable maximum and must be rejected like the empty one.
    let zeros = [0.0f32, -0.0, 0.0, -0.0];
    let result = std::panic::catch_unwind(|| OutlierQuantizer::fit(&zeros, 0.03, 4, 8));
    assert!(result.is_err(), "fit on all-zero values must panic");
    let aligned = std::panic::catch_unwind(|| OutlierQuantizer::fit_aligned(&zeros, 0.03, 4, 8));
    assert!(
        aligned.is_err(),
        "fit_aligned on all-zero values must panic"
    );
}

#[test]
fn nan_input_is_always_an_outlier() {
    // total_cmp orders NaN above +inf, so a NaN that sneaks into the
    // runtime population lands in the high-precision region under any
    // finite calibrated threshold — deterministically, on both the
    // classify and quantize paths.
    let mut values = vec![0.5f32; 63];
    values.push(f32::NAN);
    let calib: Vec<f32> = vec![0.5, 0.6, 0.7, 0.8, 5.0];
    let q = OutlierQuantizer::fit(&calib, 0.2, 4, 8);
    assert!(q.is_outlier(f32::NAN));
    let encoded = q.quantize(&values);
    assert!(
        encoded.outliers.iter().any(|&(i, _)| i == 63),
        "NaN position missing from the outlier list"
    );
    assert_eq!(encoded.outlier_ratio(), 1.0 / 64.0);
}

#[test]
fn negative_zero_stays_in_the_dense_region() {
    let values = [1.0f32, -0.0, 2.0, -0.0, 8.0];
    let q = OutlierQuantizer::fit(&values, 0.2, 4, 8);
    assert!(
        !q.is_outlier(-0.0),
        "-0.0 is magnitude zero, never an outlier"
    );
    let encoded = q.quantize(&values);
    assert!(encoded.outliers.iter().all(|&(i, _)| i == 4));
    assert_eq!(encoded.levels[1], 0);
    assert_eq!(encoded.levels[3], 0);
}

#[test]
fn outlier_ratio_of_an_empty_quantization_is_zero() {
    // quantize(&[]) is a valid no-op; its ratio must come back 0, not NaN.
    let q = OutlierQuantizer::fit(&[1.0, 2.0, 3.0, 4.0], 0.25, 4, 8);
    let empty = q.quantize(&[]);
    assert!(empty.levels.is_empty() && empty.outliers.is_empty());
    assert_eq!(empty.outlier_ratio(), 0.0);
}

#[test]
fn fit_aligned_boundary_ties_classify_identically() {
    // Four values share the threshold magnitude bit-for-bit; the aligned
    // fit must classify them all as outliers, exactly like the plain fit
    // (the tie contract is `|v| >= threshold` under total_cmp for both).
    let values = [2.0f32, -2.0, 2.0, -2.0, 0.5, 0.4, 0.3, 0.2];
    let plain = OutlierQuantizer::fit(&values, 0.25, 4, 8);
    let aligned = OutlierQuantizer::fit_aligned(&values, 0.25, 4, 8);
    assert_eq!(plain.threshold(), 2.0);
    assert_eq!(aligned.threshold(), 2.0);
    for &v in &values {
        assert_eq!(
            plain.is_outlier(v),
            aligned.is_outlier(v),
            "tie split at {v}"
        );
    }
    assert_eq!(aligned.quantize(&values).outliers.len(), 4);
}

#[test]
fn vgg_and_resnet_quantize_cleanly() {
    for name in ["vgg16", "resnet18"] {
        let cfg = ZooConfig {
            spatial_scale: 8,
            include_classifier: false,
            batch: 1,
        };
        let net = zoo::by_name(name, &cfg);
        let params = synthesize_params(&net, &SynthConfig::for_network(name));
        for &node in net.compute_nodes().iter().take(4) {
            let w: Vec<f32> = weight_values(&params, node)
                .into_iter()
                .filter(|&v| v != 0.0)
                .collect();
            if w.is_empty() {
                continue;
            }
            let q = OutlierQuantizer::fit(&w, 0.03, 4, 8);
            let restored = q.fake_quantize(&w);
            assert!(sqnr_db(&w, &restored) > 12.0, "{name} node {node}");
        }
    }
}
