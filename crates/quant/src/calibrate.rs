//! Design-time activation threshold calibration (§II).
//!
//! The hardware cannot afford runtime histograms, so the paper calibrates a
//! static magnitude threshold per layer from sample inputs (100 random
//! images); at runtime an activation is an outlier iff it exceeds its
//! layer's threshold. Fig 16 plots the resulting *effective* outlier ratio
//! (outliers / all activations, zeros included) across layers.

use crate::outlier::OutlierQuantizer;
use ola_nn::{Network, NodeId, Params};
use ola_tensor::par::ordered_map;
use ola_tensor::scan::scan_values;
use ola_tensor::stats::ValueScan;
use ola_tensor::{Shape4, Tensor};

/// Calibration result for the input activations of one compute layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LayerCalibration {
    /// The compute node this calibration feeds.
    pub node: NodeId,
    /// Magnitude threshold above which an activation is an outlier.
    pub threshold: f32,
    /// Maximum absolute activation observed during calibration.
    pub abs_max: f32,
    /// Outlier ratio among *non-zero* activations (the calibration target).
    pub nonzero_outlier_ratio: f64,
    /// Outlier ratio among *all* activations, zeros included — the paper's
    /// "effective" ratio, which ReLU sparsity pushes below the target.
    pub effective_outlier_ratio: f64,
    /// Fraction of exactly-zero activations.
    pub zero_fraction: f64,
}

impl LayerCalibration {
    /// Builds an activation quantizer from this calibration.
    pub fn quantizer(&self, low_bits: u8, high_bits: u8) -> OutlierQuantizer {
        OutlierQuantizer::with_threshold(
            self.threshold,
            self.abs_max.max(self.threshold.min(f32::MAX)),
            self.nonzero_outlier_ratio,
            low_bits,
            high_bits,
        )
    }
}

/// Calibrates per-layer activation thresholds by running `samples` through
/// the network and taking the top-`ratio` magnitude boundary of the
/// *non-zero* input activations of every compute (conv/linear) node.
///
/// The samples are stacked into one NCHW batch and run through a single
/// forward, so row-generated fully-connected weights are generated once
/// rather than once per sample. Each node's population is the batch's
/// per-sample slices in sample order: the forward computes every sample's
/// outputs exactly as a batch-1 forward would, so the population — and
/// every threshold — is the same bytes as running the samples one by one.
///
/// # Panics
///
/// Panics if `samples` is empty or the samples differ in channel or
/// spatial shape.
pub fn calibrate_activations(
    net: &Network,
    params: &Params,
    samples: &[Tensor],
    ratio: f64,
) -> Vec<LayerCalibration> {
    assert!(!samples.is_empty(), "need at least one calibration sample");
    let outs = net.forward(params, &stack_batch(samples));
    let compute = net.compute_nodes();
    // One fused statistics pass per layer, layers in parallel. The split of
    // the worker budget mirrors the forward kernels: as many layers at once
    // as the budget allows, leftover workers scan within a layer.
    let jobs = ola_nn::kernels::forward_jobs();
    let outer = jobs.min(compute.len().max(1));
    let inner = (jobs / outer).max(1);
    ordered_map(&compute, outer, |_, &node| {
        let src = net.nodes()[node].inputs[0];
        let mut scan = scan_values(outs[src].as_slice(), inner);
        calibrate_from_scan(node, &mut scan, ratio)
    })
}

/// Concatenates NCHW tensors along the batch dimension, in order.
fn stack_batch(samples: &[Tensor]) -> Tensor {
    let first = samples[0].shape();
    let mut data = Vec::with_capacity(samples.iter().map(Tensor::len).sum());
    let mut n = 0;
    for s in samples {
        let sh = s.shape();
        assert_eq!(
            (sh.c, sh.h, sh.w),
            (first.c, first.h, first.w),
            "calibration samples differ in shape"
        );
        n += sh.n;
        data.extend_from_slice(s.as_slice());
    }
    Tensor::from_vec(Shape4::new(n, first.c, first.h, first.w), data)
}

/// Calibrates a threshold directly from a value population.
pub fn calibrate_values(node: NodeId, values: &[f32], ratio: f64) -> LayerCalibration {
    let mut scan = ValueScan::new();
    scan.extend_slice(values);
    calibrate_from_scan(node, &mut scan, ratio)
}

/// Calibrates a threshold from an already-computed statistics scan — the
/// fused extraction path lands here after one pass over the activations.
///
/// Bit-identical to the historical multi-pass `calibrate_values` (filter
/// non-zeros, fold the max, sort for the threshold, re-count outliers):
/// every quantity below is the same reduction over the same population.
pub fn calibrate_from_scan(node: NodeId, scan: &mut ValueScan, ratio: f64) -> LayerCalibration {
    let total = scan.total().max(1);
    let zero_fraction = scan.zero_fraction();
    let abs_max = scan.abs_max();
    let threshold = scan.threshold(ratio);
    let outliers = scan.count_at_least(threshold);
    let nonzero_outlier_ratio = if scan.nonzero() == 0 {
        0.0
    } else {
        outliers as f64 / scan.nonzero() as f64
    };
    LayerCalibration {
        node,
        threshold,
        abs_max: if abs_max > 0.0 { abs_max } else { 1.0 },
        nonzero_outlier_ratio,
        effective_outlier_ratio: outliers as f64 / total as f64,
        zero_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ola_nn::synth::{synthesize_params, SynthConfig};
    use ola_nn::zoo::{self, ZooConfig};
    use ola_tensor::init::uniform_tensor;

    /// The pre-fusion multi-pass implementation, kept verbatim as an
    /// oracle: filter the non-zeros, fold the max, sort for the threshold,
    /// then re-count the outliers.
    fn calibrate_values_oracle(node: NodeId, values: &[f32], ratio: f64) -> LayerCalibration {
        use ola_tensor::stats::magnitude_threshold;
        let total = values.len().max(1);
        let nonzero: Vec<f32> = values.iter().copied().filter(|&v| v != 0.0).collect();
        let zero_fraction = 1.0 - nonzero.len() as f64 / total as f64;
        let abs_max = nonzero.iter().fold(0.0_f32, |m, &v| m.max(v.abs()));
        let threshold = if nonzero.is_empty() {
            f32::INFINITY
        } else {
            magnitude_threshold(&nonzero, ratio)
        };
        let outliers = nonzero.iter().filter(|&&v| v.abs() >= threshold).count();
        let nonzero_outlier_ratio = if nonzero.is_empty() {
            0.0
        } else {
            outliers as f64 / nonzero.len() as f64
        };
        LayerCalibration {
            node,
            threshold,
            abs_max: if abs_max > 0.0 { abs_max } else { 1.0 },
            nonzero_outlier_ratio,
            effective_outlier_ratio: outliers as f64 / total as f64,
            zero_fraction,
        }
    }

    #[test]
    fn fused_calibration_matches_multi_pass_oracle_bitwise() {
        let mut state = 0x2545F4914F6CDD1D_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (len, ratio) in [(0, 0.03), (1, 0.5), (1000, 0.0), (4097, 0.03), (4097, 1.0)] {
            let values: Vec<f32> = (0..len)
                .map(|_| {
                    let r = next();
                    if r % 3 == 0 {
                        0.0
                    } else {
                        ((r % 2000) as f32 - 1000.0) / 250.0
                    }
                })
                .collect();
            let fused = calibrate_values(9, &values, ratio);
            let oracle = calibrate_values_oracle(9, &values, ratio);
            assert_eq!(fused.node, oracle.node);
            assert_eq!(fused.threshold.to_bits(), oracle.threshold.to_bits());
            assert_eq!(fused.abs_max.to_bits(), oracle.abs_max.to_bits());
            assert_eq!(
                fused.nonzero_outlier_ratio.to_bits(),
                oracle.nonzero_outlier_ratio.to_bits()
            );
            assert_eq!(
                fused.effective_outlier_ratio.to_bits(),
                oracle.effective_outlier_ratio.to_bits()
            );
            assert_eq!(
                fused.zero_fraction.to_bits(),
                oracle.zero_fraction.to_bits()
            );
        }
    }

    #[test]
    fn calibrate_values_targets_nonzero_ratio() {
        // 50 zeros + values 1..=50; ratio 0.1 of non-zeros => ~5 outliers.
        let mut values = vec![0.0_f32; 50];
        values.extend((1..=50).map(|i| i as f32));
        let cal = calibrate_values(3, &values, 0.1);
        assert_eq!(cal.node, 3);
        assert!((cal.zero_fraction - 0.5).abs() < 1e-9);
        assert!(cal.nonzero_outlier_ratio >= 0.08 && cal.nonzero_outlier_ratio <= 0.14);
        // Effective ratio halves because of zeros.
        assert!(cal.effective_outlier_ratio < cal.nonzero_outlier_ratio);
    }

    #[test]
    fn calibrate_network_layers() {
        let cfg = ZooConfig {
            spatial_scale: 8,
            include_classifier: false,
            batch: 1,
        };
        let net = zoo::alexnet(&cfg);
        let params = synthesize_params(&net, &SynthConfig::default());
        let input = uniform_tensor(net.input_shape(), -1.0, 1.0, 5);
        let cals = calibrate_activations(&net, &params, &[input], 0.03);
        assert_eq!(cals.len(), net.compute_nodes().len());
        // conv1's input is the raw image: dense, so effective == nonzero.
        let first = &cals[0];
        assert!(first.zero_fraction < 0.01);
        // conv4's input is a bare ReLU output (no pooling in between), so it
        // carries post-ReLU sparsity. (conv3's input passed through a max
        // pool, which densifies.)
        assert!(
            cals[3].zero_fraction > 0.2,
            "conv4 input not sparse: {}",
            cals[3].zero_fraction
        );
        for c in &cals {
            assert!(c.threshold > 0.0);
            assert!(c.abs_max >= c.threshold || c.threshold.is_infinite());
        }
    }
}
