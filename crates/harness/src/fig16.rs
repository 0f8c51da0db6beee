//! Fig 16: histogram of the runtime outlier-activation ratio across AlexNet
//! layers at a 3% calibration target.
//!
//! This exercises the real mechanism of §II: thresholds are calibrated
//! *statically* on sample inputs at design time, then a *different* input
//! runs through the network and each layer's activations are compared
//! against its frozen threshold. The paper's point is that the realized
//! ratios cluster near the 3% target even though the thresholds never see
//! the runtime input.

use crate::prep::{default_scale, prepared};
use crate::report::{bar, pct, table};
use ola_sim::calibrate::calibrate_from_outputs;
use ola_tensor::init::uniform_tensor;
use ola_tensor::stack_batch;

/// How many design-time samples calibrate the thresholds.
const SAMPLES: usize = 3;

/// Computes and formats Fig 16.
pub fn run(fast: bool) -> String {
    let prep = prepared("alexnet", default_scale("alexnet", fast));

    // Design time: calibrate thresholds on sample inputs (the paper used
    // 100 random images; a few suffice at our statistics). Runtime: a fresh
    // input, compared against the frozen thresholds. Both ride one batched
    // forward, the runtime input last: each image's node outputs are the
    // same bytes a forward of that image alone computes, so the samples'
    // prefix calibrates exactly as a samples-only forward would, and the
    // runtime image never reaches a threshold. The forward and the
    // calibration time as the forward phase.
    let mut images: Vec<_> = (0..SAMPLES as u64)
        .map(|i| uniform_tensor(prep.net.input_shape(), -1.0, 1.0, 0xCA11B + i))
        .collect();
    images.push(uniform_tensor(prep.net.input_shape(), -1.0, 1.0, 0x4217));
    let (cals, outs) = ola_sim::timing::timed(ola_sim::timing::Phase::Forward, || {
        let outs = prep.net.forward(&prep.params, &stack_batch(&images));
        (
            calibrate_from_outputs(&prep.net, &outs, SAMPLES, 0.03),
            outs,
        )
    });
    let compute = prep.net.compute_nodes();

    let mut rows = Vec::new();
    let mut hist = [0usize; 12]; // bins of 0.5% up to 6%
    for (cal, &node) in cals.iter().zip(&compute).skip(1) {
        // First layer excluded: its raw input has no outlier split.
        let src = &outs[prep.net.nodes()[node].inputs[0]];
        // The runtime image: the batch's last.
        let act = &src.as_slice()[src.len() / src.shape().n * SAMPLES..];
        let nonzero = act.iter().filter(|&&v| v != 0.0).count().max(1);
        let outliers = act
            .iter()
            .filter(|&&v| is_runtime_outlier(v, cal.threshold))
            .count();
        let realized = outliers as f64 / nonzero as f64;
        let effective = outliers as f64 / act.len() as f64;
        let bin = ((realized / 0.005) as usize).min(hist.len() - 1);
        hist[bin] += 1;
        rows.push(vec![
            prep.net.nodes()[node].name.clone(),
            pct(realized),
            pct(effective),
            pct(1.0 - nonzero as f64 / act.len() as f64),
        ]);
    }
    let per_layer = table(
        &[
            "layer",
            "runtime nonzero ratio",
            "effective ratio",
            "zero frac",
        ],
        &rows,
    );

    let mut hist_rows = Vec::new();
    let max = hist.iter().copied().max().unwrap_or(1).max(1);
    for (i, &count) in hist.iter().enumerate() {
        hist_rows.push(vec![
            format!("{:.1}-{:.1}%", i as f64 * 0.5, (i + 1) as f64 * 0.5),
            format!("{count}"),
            bar(count as f64 / max as f64, 24),
        ]);
    }
    let histogram = table(&["runtime ratio bin", "layers", ""], &hist_rows);

    format!(
        "=== Fig 16: runtime outlier ratio under static thresholds (target 3%) ===\n\
         {per_layer}\nHistogram (runtime nonzero ratio):\n{histogram}\n\
         Paper: distribution has its mass near the 3% target, showing static design-time\n\
         thresholds suffice; ReLU zeros pull the effective ratio below the target.\n"
    )
}

/// Whether a runtime activation is an outlier under its layer's frozen
/// threshold, by the calibration's own key: non-zero, with `|v|` at or
/// above the threshold in the `total_cmp` order the threshold was selected
/// and counted in. A NaN ranks above every threshold, so it counts.
fn is_runtime_outlier(v: f32, threshold: f32) -> bool {
    v != 0.0 && v.abs().total_cmp(&threshold).is_ge()
}

#[cfg(test)]
mod tests {
    use super::is_runtime_outlier;

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

    #[test]
    fn runtime_ratio_near_target() {
        let r = super::run(true);
        assert!(r.contains("conv2"));
        assert!(r.contains("Histogram"));
        // At least one layer's runtime ratio should land in the 2.5-3.5%
        // band around the target.
        assert!(
            r.contains("2.5%") || r.contains("2.6%") || r.contains("3.0%") || r.contains("3.1%"),
            "no near-target ratio found:\n{r}"
        );
    }
}
