//! Activation calibration (§II): a static outlier threshold per layer,
//! fitted on sample inputs.
//!
//! The hardware cannot afford runtime histograms, so the paper calibrates
//! each layer's threshold on sample inputs. One calibration serves workload
//! extraction, which runs it under the policy's selection rule on every
//! compute layer's input, and fig16, which runs it on a batch prefix
//! ([`calibrate_from_outputs`]) and then counts a runtime image behind the
//! prefix against the frozen thresholds ([`runtime_counts`]). Both run on
//! the band-major chunk-grid kernel: its occupancy pass supplies the
//! population counts, the global rules select the exact k-th largest score
//! and count the lanes at or above it in one walk, and windowed-top1
//! counts per chunk. A magnitude outlier is a non-zero lane whose
//! magnitude is at least the threshold in the [`f32::total_cmp`] order,
//! the order the threshold is selected in.

use crate::chunk::{census, count_grid, occupancy, select_count, top_k};
use crate::chunk::{Grid, Occupancy, Rule, Score};
use crate::policy::OutlierSelect;
use crate::workload::{Censuses, GridKind};
use ola_nn::{Network, NodeId};
use ola_tensor::par::ordered_map;
use ola_tensor::Tensor;

/// Calibration result for the input activations of one compute layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LayerCalibration {
    /// The compute node this calibration feeds.
    pub node: NodeId,
    /// Score threshold at or above which a non-zero activation is an
    /// outlier (`f32::INFINITY` when the rule has no scalar threshold or
    /// selects nothing).
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

/// Calibrates per-layer activation thresholds from the node outputs `outs`
/// of a forward pass: the top-`ratio` magnitude boundary of the *non-zero*
/// input activations of every compute (conv/linear) node.
///
/// Each node's population is the first `images` images of its input, so a
/// batch that carries more than the calibration samples (fig16's runtime
/// input rides behind them) calibrates on the samples alone. A forward
/// computes every image of a batch exactly as a batch-1 forward would, so
/// the thresholds are the same bytes as a forward of the samples alone.
/// Layers run in parallel under the calling thread's worker budget
/// ([`ola_tensor::par::jobs`]); the result is identical at any budget.
///
/// # Panics
///
/// Panics if `images` exceeds the batch of a compute node's input, or if
/// `ratio` is outside `[0, 1]`.
pub fn calibrate_from_outputs(
    net: &Network,
    outs: &[Tensor],
    images: usize,
    ratio: f64,
) -> Vec<LayerCalibration> {
    let compute = net.compute_nodes();
    let jobs = ola_tensor::par::jobs();
    let outer = jobs.min(compute.len().max(1));
    let inner = (jobs / outer).max(1);
    ordered_map(&compute, outer, |_, &node| {
        let src = &outs[net.nodes()[node].inputs[0]];
        let batch = src.shape().n;
        assert!(
            images <= batch,
            "{images} images requested of a batch of {batch}"
        );
        let grid = Grid::activations(src, images);
        let occupancy = occupancy(grid, inner);
        calibrate_grid(
            node,
            grid,
            &occupancy,
            ratio,
            OutlierSelect::MagnitudePercentile,
            &Censuses::default(),
            inner,
        )
    })
}

/// One compute layer's runtime input activations, counted against the
/// layer's frozen threshold.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeCounts {
    /// Non-zero activations.
    pub nonzero: u64,
    /// Non-zero activations at or above the frozen threshold, in the
    /// `total_cmp` order the threshold was selected in.
    pub outliers: u64,
    /// Every activation, zeros included.
    pub total: u64,
}

/// Counts image `image` of each calibrated node's input against that
/// node's frozen threshold: one [`RuntimeCounts`] per entry of `cals`, in
/// order. With the calibration samples at the front of the batch and the
/// runtime image behind them, the runtime image never reached a threshold.
/// A calibration that selected no outlier (ratio 0, or no non-zero sample)
/// froze no threshold, so it counts no runtime outlier, NaN included.
///
/// # Panics
///
/// Panics if `image` is not an image of a calibrated node's input.
pub fn runtime_counts(
    net: &Network,
    outs: &[Tensor],
    cals: &[LayerCalibration],
    image: usize,
) -> Vec<RuntimeCounts> {
    cals.iter()
        .map(|cal| {
            let src = &outs[net.nodes()[cal.node].inputs[0]];
            let len = src.len() / src.shape().n;
            let act = &src.as_slice()[len * image..len * (image + 1)];
            let mut counts = RuntimeCounts {
                total: len as u64,
                ..RuntimeCounts::default()
            };
            // Its `f32::INFINITY` would still rank a NaN above it.
            let frozen = cal.nonzero_outlier_ratio > 0.0;
            for &v in act {
                counts.nonzero += u64::from(v != 0.0);
                counts.outliers += u64::from(frozen && is_runtime_outlier(v, cal.threshold));
            }
            counts
        })
        .collect()
}

/// Whether a runtime activation is an outlier under its layer's frozen
/// threshold, by the calibration's own key: non-zero, with `|v|` at or
/// above the threshold in the `total_cmp` order the threshold was selected
/// and counted in. A NaN ranks above every threshold, so it counts.
fn is_runtime_outlier(v: f32, threshold: f32) -> bool {
    v != 0.0 && v.abs().total_cmp(&threshold).is_ge()
}

/// Calibrates `node`'s input activations under `select` on the grid
/// `occupancy` measured, with the census or the windowed counts from
/// `censuses`. Activation ratios are fractions of the non-zero population
/// (the paper's calibration target), so no rescale — unlike the weight
/// grid. The global rules select the exact k-th largest score and count
/// by key; windows tile each chunk's *real* lanes (zero-padded tails never
/// vote), matching the weight grid's chunk-local windows.
///
/// # Panics
///
/// Panics if the magnitude rule's `ratio` is outside `[0, 1]`.
pub(crate) fn calibrate_grid(
    node: usize,
    grid: Grid<'_>,
    occupancy: &Occupancy,
    ratio: f64,
    select: OutlierSelect,
    censuses: &Censuses,
    jobs: usize,
) -> LayerCalibration {
    let nonzero = occupancy.nonzero;
    let ranked = |score: Score| {
        let census = censuses.census(node, GridKind::Acts, score, || census(grid, score, jobs));
        let (threshold, counts) = select_count(grid, score, &census, top_k(nonzero, ratio), jobs);
        (threshold, counts.outliers)
    };
    let (threshold, outliers) = match select {
        OutlierSelect::MagnitudePercentile => {
            assert!((0.0..=1.0).contains(&ratio), "ratio must be in [0,1]");
            if ratio == 0.0 || nonzero == 0 {
                (f32::INFINITY, 0)
            } else {
                ranked(Score::Magnitude)
            }
        }
        // Window-local selection has no scalar threshold.
        OutlierSelect::WindowedTopK { window } if ratio > 0.0 => {
            let counts = censuses.windowed(node, GridKind::Acts, window, || {
                count_grid(grid, Rule::Windowed { window }, jobs)
            });
            (f32::INFINITY, counts.outliers)
        }
        OutlierSelect::SensitivityWeighted { window } if ratio > 0.0 && nonzero > 0 => {
            ranked(Score::Sensitivity { window })
        }
        // A ratio that is not positive disables the structured policies.
        _ => (f32::INFINITY, 0),
    };
    let total = occupancy.total.max(1) as f64;
    LayerCalibration {
        node,
        threshold,
        abs_max: if occupancy.abs_max > 0.0 {
            occupancy.abs_max
        } else {
            1.0
        },
        nonzero_outlier_ratio: if nonzero == 0 {
            0.0
        } else {
            outliers as f64 / nonzero as f64
        },
        effective_outlier_ratio: outliers as f64 / total,
        zero_fraction: 1.0 - nonzero as f64 / total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ola_nn::synth::{synthesize_params, SynthConfig};
    use ola_nn::zoo::{self, ZooConfig};
    use ola_nn::Params;
    use ola_tensor::init::uniform_tensor;
    use ola_tensor::stats::magnitude_threshold;
    use ola_tensor::{stack_batch, Shape4};

    /// Calibration of a flat value population, laid out as one pixel with
    /// `values.len()` channels.
    fn calibrate_population(
        values: &[f32],
        ratio: f64,
        select: OutlierSelect,
        jobs: usize,
    ) -> LayerCalibration {
        let t = Tensor::from_vec(Shape4::new(1, values.len(), 1, 1), values.to_vec());
        let grid = Grid::activations(&t, 1);
        let occupancy = occupancy(grid, jobs);
        calibrate_grid(
            9,
            grid,
            &occupancy,
            ratio,
            select,
            &Censuses::default(),
            jobs,
        )
    }

    fn calibrate_magnitude(values: &[f32], ratio: f64, jobs: usize) -> LayerCalibration {
        calibrate_population(values, ratio, OutlierSelect::MagnitudePercentile, jobs)
    }

    /// The multi-pass calibration the grid kernel replaces: filter the
    /// non-zeros, fold the max, sort for the threshold, then re-count in
    /// the sort's total order.
    fn calibrate_values_multi_pass(values: &[f32], ratio: f64) -> LayerCalibration {
        let total = values.len().max(1);
        let nonzero: Vec<f32> = values
            .iter()
            .filter(|&&v| v != 0.0)
            .map(|v| v.abs())
            .collect();
        let abs_max = nonzero.iter().fold(0.0_f32, |m, &v| m.max(v));
        let (threshold, outliers) = if ratio == 0.0 || nonzero.is_empty() {
            (f32::INFINITY, 0)
        } else {
            let mut sorted = nonzero.clone();
            sorted.sort_by(|a, b| b.total_cmp(a));
            let k = ((sorted.len() as f64 * ratio).ceil() as usize).clamp(1, sorted.len());
            let t = sorted[k - 1];
            (
                t,
                nonzero.iter().filter(|&&m| m.total_cmp(&t).is_ge()).count(),
            )
        };
        let n = nonzero.len();
        LayerCalibration {
            node: 9,
            threshold,
            abs_max: if abs_max > 0.0 { abs_max } else { 1.0 },
            nonzero_outlier_ratio: if n == 0 {
                0.0
            } else {
                outliers as f64 / n as f64
            },
            effective_outlier_ratio: outliers as f64 / total as f64,
            zero_fraction: 1.0 - n as f64 / total as f64,
        }
    }

    fn calibration_bits(c: &LayerCalibration) -> (usize, u32, u32, u64, u64, u64) {
        (
            c.node,
            c.threshold.to_bits(),
            c.abs_max.to_bits(),
            c.nonzero_outlier_ratio.to_bits(),
            c.effective_outlier_ratio.to_bits(),
            c.zero_fraction.to_bits(),
        )
    }

    /// Edge populations — empty, one value, ratio 0, ratio 1 — and a
    /// multi-band one, at several worker counts.
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
            let reference = calibration_bits(&calibrate_values_multi_pass(&values, ratio));
            for jobs in [1, 3] {
                let grid = calibration_bits(&calibrate_magnitude(&values, ratio, jobs));
                assert_eq!(grid, reference, "len {len} ratio {ratio} jobs {jobs}");
            }
        }
    }

    #[test]
    fn calibrate_values_targets_nonzero_ratio() {
        // 50 zeros + values 1..=50; ratio 0.1 of non-zeros => ~5 outliers.
        let mut values = vec![0.0_f32; 50];
        values.extend((1..=50).map(|i| i as f32));
        let cal = calibrate_magnitude(&values, 0.1, 1);
        assert_eq!(cal.node, 9);
        assert!((cal.zero_fraction - 0.5).abs() < 1e-9);
        assert!(cal.nonzero_outlier_ratio >= 0.08 && cal.nonzero_outlier_ratio <= 0.14);
        // Effective ratio halves because of zeros.
        assert!(cal.effective_outlier_ratio < cal.nonzero_outlier_ratio);
    }

    /// Zeros (`-0.0` among them), the abs-max and the top-half threshold of
    /// a seven-value population, against the slice-level threshold.
    #[test]
    fn population_statistics_match_direct_computation() {
        let values = [0.0_f32, 1.5, -2.5, 0.0, 0.5, -0.0, 4.0];
        let cal = calibrate_magnitude(&values, 0.5, 1);
        assert_eq!(cal.zero_fraction, 1.0 - 4.0 / 7.0);
        assert_eq!(cal.abs_max, 4.0);
        let nonzero: Vec<f32> = values.iter().copied().filter(|&v| v != 0.0).collect();
        let threshold = magnitude_threshold(&nonzero, 0.5);
        assert_eq!(cal.threshold.to_bits(), threshold.to_bits());
        // The top half of the four non-zero magnitudes: 4.0 and 2.5.
        assert_eq!(threshold, 2.5);
        assert_eq!(cal.nonzero_outlier_ratio, 0.5);
        assert_eq!(cal.effective_outlier_ratio, 2.0 / 7.0);
        assert_eq!(
            calibrate_magnitude(&values, 0.0, 1).threshold,
            f32::INFINITY
        );
    }

    /// Band splits merge into the same calibration under every rule: a
    /// 100-value population (seven bands of one column) and a sparse
    /// batch, at one to eight workers.
    #[test]
    fn calibration_identical_at_any_worker_count() {
        let flat: Vec<f32> = (0..100).map(|i| (i as f32 - 50.0) * 0.1).collect();
        let mut sparse = uniform_tensor(Shape4::new(2, 40, 5, 5), -1.0, 1.0, 21);
        sparse.map_inplace(|v| if v < 0.0 { 0.0 } else { v });
        for select in [
            OutlierSelect::MagnitudePercentile,
            OutlierSelect::WindowedTopK { window: 4 },
            OutlierSelect::SensitivityWeighted { window: 4 },
        ] {
            for ratio in [0.03, 0.5, 1.0] {
                let calibrate = |jobs| {
                    let grid = Grid::activations(&sparse, 2);
                    let occupancy = occupancy(grid, jobs);
                    let censuses = Censuses::default();
                    let sparse =
                        calibrate_grid(9, grid, &occupancy, ratio, select, &censuses, jobs);
                    let flat = calibrate_population(&flat, ratio, select, jobs);
                    (calibration_bits(&flat), calibration_bits(&sparse))
                };
                let serial = calibrate(1);
                for jobs in 2..=8 {
                    assert_eq!(
                        calibrate(jobs),
                        serial,
                        "{select:?} ratio {ratio} jobs {jobs}"
                    );
                }
            }
        }
    }

    fn alexnet_scale8() -> (Network, Params) {
        let cfg = ZooConfig {
            spatial_scale: 8,
            include_classifier: true,
            batch: 1,
        };
        let net = zoo::alexnet(&cfg);
        let params = synthesize_params(&net, &SynthConfig::for_network("alexnet"));
        (net, params)
    }

    #[test]
    fn calibrate_network_layers() {
        let (net, params) = alexnet_scale8();
        let input = uniform_tensor(net.input_shape(), -1.0, 1.0, 5);
        let outs = net.forward(&params, &input);
        let cals = calibrate_from_outputs(&net, &outs, 1, 0.03);
        assert_eq!(cals.len(), net.compute_nodes().len());
        // conv1's input is the raw image: dense, so effective == nonzero.
        assert!(cals[0].zero_fraction < 0.01);
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

    /// A batch that carries extra images behind the samples calibrates on
    /// the samples' prefix exactly as a samples-only forward does.
    #[test]
    fn calibrating_a_batch_prefix_matches_the_samples_alone() {
        let (net, params) = alexnet_scale8();
        let samples: Vec<Tensor> = (0..2)
            .map(|i| uniform_tensor(net.input_shape(), -1.0, 1.0, 40 + i))
            .collect();
        let outs = net.forward(&params, &stack_batch(&samples));
        let alone = calibrate_from_outputs(&net, &outs, samples.len(), 0.03);
        let mut images = samples.clone();
        images.push(uniform_tensor(net.input_shape(), -1.0, 1.0, 99));
        let outs = net.forward(&params, &stack_batch(&images));
        let prefix = calibrate_from_outputs(&net, &outs, samples.len(), 0.03);
        assert_eq!(
            alone.iter().map(calibration_bits).collect::<Vec<_>>(),
            prefix.iter().map(calibration_bits).collect::<Vec<_>>()
        );
    }

    #[test]
    fn runtime_outliers_count_in_the_calibration_order() {
        for v in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.5] {
            assert!(is_runtime_outlier(v, 0.5), "{v} is an outlier");
        }
        for v in [0.0, -0.0, 0.25, -0.25] {
            assert!(!is_runtime_outlier(v, 0.5), "{v} is not an outlier");
        }
        // Zeros of either sign never count, even against a zero threshold.
        assert!(!is_runtime_outlier(-0.0, 0.0));
    }

    /// The counts read only the requested image of each calibrated node's
    /// input, against that node's threshold.
    #[test]
    fn runtime_counts_read_one_image_against_its_layer_threshold() {
        let (net, params) = alexnet_scale8();
        let images: Vec<Tensor> = (0..3)
            .map(|i| uniform_tensor(net.input_shape(), -1.0, 1.0, 60 + i))
            .collect();
        let outs = net.forward(&params, &stack_batch(&images));
        let cals = calibrate_from_outputs(&net, &outs, 2, 0.03);
        let counts = runtime_counts(&net, &outs, &cals, 2);
        assert_eq!(counts.len(), cals.len());
        for (cal, c) in cals.iter().zip(&counts) {
            let src = &outs[net.nodes()[cal.node].inputs[0]];
            let act = &src.as_slice()[src.len() / 3 * 2..];
            let nonzero = act.iter().filter(|&&v| v != 0.0).count() as u64;
            let outliers = act
                .iter()
                .filter(|&&v| v != 0.0 && v.abs() >= cal.threshold)
                .count() as u64;
            let direct = RuntimeCounts {
                nonzero,
                outliers,
                total: act.len() as u64,
            };
            assert_eq!(*c, direct, "node {}", cal.node);
        }
        // A later layer's runtime input carries ReLU zeros and outliers.
        assert!(counts[3].nonzero < counts[3].total);
        assert!(counts.iter().any(|c| c.outliers > 0));
    }

    /// A NaN in the runtime image counts against a frozen threshold, and
    /// not against a ratio-0 calibration, which selected nothing.
    #[test]
    fn ratio_zero_calibration_counts_no_runtime_nan() {
        let (net, params) = alexnet_scale8();
        let images: Vec<Tensor> = (0..2)
            .map(|i| uniform_tensor(net.input_shape(), -1.0, 1.0, 70 + i))
            .collect();
        let mut outs = net.forward(&params, &stack_batch(&images));
        let conv2 = net.compute_nodes()[1];
        let src = &mut outs[net.nodes()[conv2].inputs[0]];
        let len = src.len() / 2;
        src.as_mut_slice()[len] = f32::NAN;
        let count = |ratio| {
            runtime_counts(
                &net,
                &outs,
                &calibrate_from_outputs(&net, &outs, 1, ratio),
                1,
            )[1]
        };
        assert_eq!(count(0.0).outliers, 0);
        let finite = outs[net.nodes()[conv2].inputs[0]].as_slice()[len + 1..]
            .iter()
            .filter(|v| v.abs() >= calibrate_from_outputs(&net, &outs, 1, 0.03)[1].threshold)
            .count() as u64;
        assert_eq!(count(0.03).outliers, finite + 1, "the NaN counts");
    }
}
