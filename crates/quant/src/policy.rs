//! Pluggable outlier-selection policies.
//!
//! OLAccel (§II) selects outliers with a single magnitude-percentile
//! threshold. The successor literature disagrees on whether that is the
//! right *selection rule*: window-structured selection (one outlier per
//! fixed window) is what makes the hardware's fixed outlier slot cheap, and
//! sensitivity-weighted metrics (|w| scaled by an activation-scale proxy,
//! OWQ-style) pick outliers by damage rather than size. This module
//! makes the selection rule a value, [`OutlierSelect`], whose methods
//! calibrate and classify, so the calibration, workload-extraction and
//! accuracy layers can sweep policies without touching the quantizers
//! themselves.
//!
//! Determinism contract (shared with the rest of the pipeline): every
//! comparison of values or scores goes through [`f32::total_cmp`], so ties
//! are bit-identical values, NaN scores order above `+inf`, and `-0.0`
//! behaves as magnitude zero. Classification of a slice is a pure function
//! of its bytes — no RNG, no ambient state — which is what lets the
//! parallel grid sweeps in `ola-sim` reproduce the serial reference
//! byte-for-byte at any worker count.

use ola_tensor::bytes::Encoder;
use ola_tensor::stats::{kth_largest_magnitude, magnitude_threshold};

/// Which outlier-selection rule a pipeline runs under — the plain-data
/// identity threaded through `ola_sim::QuantPolicy` and cache keys — and
/// its behavior: calibrate a score threshold on a value population, then
/// classify values against it.
///
/// The two-step split mirrors the hardware flow (§II): calibration happens
/// at design time over sample data; classification happens per value at
/// runtime. [`OutlierSelect::classify`] composes the two for callers whose
/// calibration population *is* the runtime population (weights).
///
/// Threshold conventions: `f32::INFINITY` means "no outliers" (a disabled
/// policy, e.g. `ratio <= 0`); `f32::NEG_INFINITY` is what window-local
/// policies return when enabled (there is no global threshold — every
/// window elects its own outlier). Zeros are never outliers under any
/// policy: the dense path encodes them for free, so promoting one wastes a
/// high-precision slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OutlierSelect {
    /// The paper's rule: the top `ratio` fraction of non-zero values by
    /// magnitude, via one global per-layer threshold.
    MagnitudePercentile,
    /// Top-1-of-N: the largest-magnitude non-zero value of every fixed
    /// `window`-lane window is the outlier — OLAccel's
    /// single-outlier-per-chunk sweet spot made structural. Density is
    /// `1/window` by construction (the target ratio only gates whether
    /// outliers exist at all: `ratio <= 0` disables them).
    WindowedTopK {
        /// Window length in values (16 matches the PE-group chunk).
        window: usize,
    },
    /// OWQ-style sensitivity metric: score every value as
    /// `|v| * rms(window)`, where the window RMS stands in for the
    /// activation scale the value multiplies, then take the top `ratio`
    /// fraction of non-zero values by score through one global threshold.
    /// Every NaN score is [`f32::NAN`], whatever NaN the product gave.
    SensitivityWeighted {
        /// Window length for the RMS activation-scale proxy.
        window: usize,
    },
}

impl OutlierSelect {
    /// Short stable name (report rows, golden files).
    pub fn name(&self) -> &'static str {
        match self {
            OutlierSelect::MagnitudePercentile => "magnitude",
            OutlierSelect::WindowedTopK { .. } => "windowed-top1",
            OutlierSelect::SensitivityWeighted { .. } => "sensitivity",
        }
    }

    /// The three-policy panel the `policy-panel` experiment sweeps, with
    /// windows matched to the 16-lane PE-group chunk.
    pub fn panel() -> [OutlierSelect; 3] {
        [
            OutlierSelect::MagnitudePercentile,
            OutlierSelect::WindowedTopK { window: 16 },
            OutlierSelect::SensitivityWeighted { window: 16 },
        ]
    }

    /// Writes the rule's tag (0 magnitude, 1 windowed, 2 sensitivity),
    /// then its window, if it has one.
    pub fn encode(&self, e: &mut impl Encoder) {
        match *self {
            OutlierSelect::MagnitudePercentile => e.u8(0),
            OutlierSelect::WindowedTopK { window } => e.u8(1).usize(window),
            OutlierSelect::SensitivityWeighted { window } => e.u8(2).usize(window),
        };
    }

    /// Calibrates the score threshold for `values` at target `ratio`
    /// (fraction of the *non-zero* population, as the paper's activation
    /// calibration defines it).
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is outside `[0, 1]` (negative ratios are allowed
    /// and mean "disabled", matching `QuantPolicy::outlier_ratio <= 0`).
    pub fn calibrate(&self, values: &[f32], ratio: f64) -> f32 {
        match *self {
            OutlierSelect::MagnitudePercentile => {
                if ratio <= 0.0 {
                    return f32::INFINITY;
                }
                let nonzero: Vec<f32> = values.iter().copied().filter(|&v| v != 0.0).collect();
                magnitude_threshold(&nonzero, ratio)
            }
            OutlierSelect::WindowedTopK { .. } => {
                assert!(ratio <= 1.0, "ratio must not exceed 1");
                if ratio <= 0.0 {
                    f32::INFINITY
                } else {
                    f32::NEG_INFINITY
                }
            }
            OutlierSelect::SensitivityWeighted { window } => {
                assert!(ratio <= 1.0, "ratio must not exceed 1");
                assert!(window >= 1, "window must be at least 1");
                if ratio <= 0.0 {
                    return f32::INFINITY;
                }
                let mut scores = Vec::new();
                for chunk in values.chunks(window) {
                    let rms = window_rms(chunk);
                    scores.extend(chunk.iter().filter(|&&v| v != 0.0).map(|&v| score(v, rms)));
                }
                if scores.is_empty() {
                    return f32::INFINITY;
                }
                let k = ((scores.len() as f64 * ratio).ceil() as usize).clamp(1, scores.len());
                kth_largest_magnitude(&mut scores, k)
            }
        }
    }

    /// Classifies every value of `values` against a calibrated threshold;
    /// one flag per value, `true` = outlier.
    pub fn classify_with(&self, values: &[f32], threshold: f32) -> Vec<bool> {
        match *self {
            OutlierSelect::MagnitudePercentile => values
                .iter()
                .map(|&v| v != 0.0 && v.abs().total_cmp(&threshold).is_ge())
                .collect(),
            OutlierSelect::WindowedTopK { window } => {
                assert!(window >= 1, "window must be at least 1");
                let mut flags = vec![false; values.len()];
                if threshold == f32::INFINITY {
                    return flags;
                }
                for (w, chunk) in values.chunks(window).enumerate() {
                    if let Some(i) = window_top1(chunk) {
                        flags[w * window + i] = true;
                    }
                }
                flags
            }
            OutlierSelect::SensitivityWeighted { window } => {
                assert!(window >= 1, "window must be at least 1");
                let mut flags = Vec::with_capacity(values.len());
                for chunk in values.chunks(window) {
                    let rms = window_rms(chunk);
                    flags.extend(
                        chunk
                            .iter()
                            .map(|&v| v != 0.0 && score(v, rms).total_cmp(&threshold).is_ge()),
                    );
                }
                flags
            }
        }
    }

    /// Calibrate-and-classify on one population. A ratio that is not
    /// positive selects nothing under every rule — not even a NaN, which
    /// [`OutlierSelect::classify_with`] ranks above the `f32::INFINITY`
    /// that calibration returns for a disabled rule.
    pub fn classify(&self, values: &[f32], ratio: f64) -> Vec<bool> {
        let threshold = self.calibrate(values, ratio);
        if ratio <= 0.0 {
            return vec![false; values.len()];
        }
        self.classify_with(values, threshold)
    }
}

/// Index of the largest-magnitude non-zero value of a window (`None` when
/// every value is zero). Ties — bit-identical magnitudes under
/// [`f32::total_cmp`] — break to the lowest index; NaN magnitudes order
/// above `+inf`, so a NaN deterministically wins its window.
pub fn window_top1(window: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &v) in window.iter().enumerate() {
        if v == 0.0 {
            continue;
        }
        let m = v.abs();
        match best {
            Some((_, bm)) if m.total_cmp(&bm).is_le() => {}
            _ => best = Some((i, m)),
        }
    }
    best.map(|(i, _)| i)
}

/// Root-mean-square of a window, zeros included, accumulated in slice
/// order (fixed summation order keeps the score bit-stable). Empty windows
/// return 0.0.
pub fn window_rms(window: &[f32]) -> f32 {
    if window.is_empty() {
        return 0.0;
    }
    let mut sum_sq = 0.0_f32;
    for &v in window {
        sum_sq += v * v;
    }
    (sum_sq / window.len() as f32).sqrt()
}

/// The sensitivity score `|v| * rms`. The sign and payload of a NaN
/// product are the platform's (a NaN operand's, or a default NaN), so
/// every NaN score is [`f32::NAN`]: it ranks above `+inf` under
/// [`f32::total_cmp`], and all NaN scores tie.
fn score(v: f32, rms: f32) -> f32 {
    let score = v.abs() * rms;
    if score.is_nan() {
        f32::NAN
    } else {
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(flags: &[bool]) -> usize {
        flags.iter().filter(|&&f| f).count()
    }

    #[test]
    fn magnitude_matches_threshold_semantics() {
        let values: Vec<f32> = (1..=100).map(|i| i as f32).collect();
        let flags = OutlierSelect::MagnitudePercentile.classify(&values, 0.03);
        assert_eq!(count(&flags), 3);
        assert!(flags[97] && flags[98] && flags[99]);
        // Zeros dilute nothing: the ratio is over non-zeros.
        let mut with_zeros = vec![0.0_f32; 100];
        with_zeros.extend(&values);
        let flags = OutlierSelect::MagnitudePercentile.classify(&with_zeros, 0.03);
        assert_eq!(count(&flags), 3);
        assert!(!flags[0], "zero can never be an outlier");
    }

    #[test]
    fn windowed_selects_one_per_nonzero_window() {
        // Three full windows of 4 + one short window; window 2 is all-zero.
        let values = [
            1.0_f32, -5.0, 2.0, 0.0, // top is -5.0 at index 1
            0.0, 0.0, 0.0, 0.0, // nothing
            3.0, 3.0, -3.0, 1.0, // tie on |3.0| -> lowest index 8
            0.5, -2.0, // short window: index 13
        ];
        let flags = OutlierSelect::WindowedTopK { window: 4 }.classify(&values, 0.03);
        let marked: Vec<usize> = (0..values.len()).filter(|&i| flags[i]).collect();
        assert_eq!(marked, vec![1, 8, 13]);
    }

    #[test]
    fn windowed_density_is_ceil_n_over_window() {
        for (n, window) in [(64usize, 16usize), (65, 16), (7, 3), (16, 16), (1, 4)] {
            let values: Vec<f32> = (0..n).map(|i| 1.0 + i as f32).collect();
            let flags = OutlierSelect::WindowedTopK { window }.classify(&values, 0.5);
            assert_eq!(count(&flags), n.div_ceil(window), "n={n} window={window}");
        }
    }

    #[test]
    fn disabled_ratio_turns_every_policy_off() {
        let values = [1.0_f32, -9.0, 4.0, 0.0];
        for select in OutlierSelect::panel() {
            let flags = select.classify(&values, 0.0);
            assert_eq!(count(&flags), 0, "{}", select.name());
        }
    }

    /// A NaN is no outlier at ratio 0 either; an explicit `+inf` threshold
    /// (a genuine k-th magnitude) still selects `+inf` and NaN.
    #[test]
    fn disabled_ratio_selects_no_nan() {
        let values = [f32::NAN, 1.0, 2.0, f32::INFINITY];
        for select in OutlierSelect::panel() {
            for ratio in [0.0, -0.0, -1.0] {
                let flags = select.classify(&values, ratio);
                assert_eq!(count(&flags), 0, "{} at {ratio}", select.name());
            }
        }
        let flags = OutlierSelect::MagnitudePercentile.classify_with(&values, f32::INFINITY);
        assert_eq!(flags, [true, false, false, true]);
        // k = 2 of four: the NaN and `+inf` tie the threshold or pass it.
        let flags = OutlierSelect::MagnitudePercentile.classify(&values, 0.5);
        assert_eq!(flags, [true, false, false, true]);
    }

    #[test]
    fn sensitivity_prefers_loud_windows() {
        // Two equal-magnitude candidates (2.0); one sits in a high-RMS
        // window, the other among near-zeros. Sensitivity picks the loud
        // one; plain magnitude cannot tell them apart.
        let values = [
            2.0_f32, 1.9, 1.9, 1.9, // loud window
            2.0, 0.01, 0.01, 0.01, // quiet window
        ];
        let flags = OutlierSelect::SensitivityWeighted { window: 4 }.classify(&values, 0.125); // k = 1
        assert!(flags[0]);
        assert!(!flags[4]);
    }

    #[test]
    fn sensitivity_ties_all_classify_outlier() {
        // Identical windows: the k-th score is bit-equal across all four
        // candidates, and >= (total order) marks every tied value.
        let values = [3.0_f32, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0];
        let flags = OutlierSelect::SensitivityWeighted { window: 2 }.classify(&values, 0.25); // k = 2 of 8 nonzero
        assert_eq!(count(&flags), 4, "tied scores must classify identically");
    }

    #[test]
    fn nan_wins_its_window_deterministically() {
        let values = [1.0_f32, f32::NAN, 9.0, 2.0];
        let flags = OutlierSelect::WindowedTopK { window: 4 }.classify(&values, 0.5);
        assert!(flags[1], "NaN magnitude orders above +inf");
        assert_eq!(count(&flags), 1);
        // Magnitude-percentile puts the NaN in the top slot too.
        let flags = OutlierSelect::MagnitudePercentile.classify(&values, 0.25);
        assert!(flags[1]);
        assert_eq!(count(&flags), 1);
    }

    #[test]
    fn negative_zero_is_never_an_outlier() {
        let values = [-0.0_f32, 5.0, -0.0, 1.0];
        for select in OutlierSelect::panel() {
            let flags = select.classify(&values, 0.5);
            assert!(!flags[0] && !flags[2], "{}", select.name());
        }
    }
}
