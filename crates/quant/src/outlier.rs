//! Outlier-aware quantization (the paper's §II, after Park et al. \[11\]).
//!
//! A magnitude threshold splits values into a dense low-precision region
//! (quantized on a fine 4-bit grid scaled to the threshold) and a sparse
//! high-precision region of *outliers* (quantized at 8/16 bits scaled to the
//! true maximum). Because the threshold — not the max — sets the low grid's
//! scale, the majority of values get ~an order of magnitude finer spacing
//! than plain linear quantization of the same data.
//!
//! The selection rule is a parameter ([`OutlierSelect`]): the paper's
//! magnitude percentile and the policy panel's structured rules fit and
//! apply through the same quantizer ([`OutlierQuantizer::fit_rule`]).

use crate::linear::LinearQuantizer;
use crate::policy::OutlierSelect;
use ola_tensor::stats::magnitude_threshold;

/// An outlier-aware quantizer: low-precision grid + high-precision grid +
/// the threshold separating them, and the rule that classifies values
/// against that threshold.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OutlierQuantizer {
    low: LinearQuantizer,
    high: LinearQuantizer,
    threshold: f32,
    /// The selection rule; `None` when the ratio disabled outliers and
    /// every value takes the low grid.
    select: Option<OutlierSelect>,
}

/// What an outlier ratio is a share of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Share {
    /// Every value, zeros included: the paper's weight ratio.
    All,
    /// The non-zero values: the paper's activation calibration target.
    NonZero,
}

impl OutlierQuantizer {
    /// Fits a quantizer to `values`: the threshold is set so the top `ratio`
    /// fraction by magnitude become outliers; the low grid spans
    /// `[-threshold, threshold]` at `low_bits`; the high grid spans the full
    /// range at `high_bits`.
    ///
    /// With `ratio == 0` this degenerates to plain linear quantization at
    /// `low_bits` (the paper's 0%-outlier baseline in Fig 2): no value,
    /// NaN included, takes the high grid.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or all zero, or `ratio` is outside
    /// `[0, 1]`.
    pub fn fit(values: &[f32], ratio: f64, low_bits: u8, high_bits: u8) -> Self {
        assert!(!values.is_empty(), "values must be non-empty");
        let max = values.iter().fold(0.0_f32, |m, &v| m.max(v.abs()));
        assert!(max > 0.0, "values must contain a non-zero entry");
        if ratio == 0.0 {
            return Self::disabled(max, low_bits, high_bits);
        }
        Self::with_threshold(magnitude_threshold(values, ratio), max, low_bits, high_bits)
    }

    /// No outliers: a low grid spanning `max`, and no rule to select any
    /// value onto the high grid.
    fn disabled(max: f32, low_bits: u8, high_bits: u8) -> Self {
        OutlierQuantizer {
            select: None,
            ..Self::with_threshold(f32::INFINITY, max, low_bits, high_bits)
        }
    }

    /// Fits a quantizer to `values` under the selection rule `select`, with
    /// `ratio` a share of `share`; the high grid spans the largest
    /// magnitude at `high_bits`. Returns `None` when `values` hold no
    /// finite non-zero magnitude (nothing to scale a grid to).
    ///
    /// * A ratio that is not positive disables outliers: every value takes
    ///   a low grid spanning the largest magnitude, whatever the rule.
    /// * [`OutlierSelect::MagnitudePercentile`]: the threshold is the
    ///   top-`ratio` magnitude of all values ([`magnitude_threshold`]) or of
    ///   the non-zero ones ([`OutlierSelect::calibrate`]), and the low grid
    ///   spans it ([`OutlierQuantizer::with_threshold`]).
    /// * The structured rules: a share of all values is rescaled to the
    ///   non-zero share, `(ratio·n/nz).min(1)`; the rule calibrates and
    ///   classifies `values`, and the low grid spans the largest magnitude
    ///   left on it (all of them when none is).
    ///
    /// # Panics
    ///
    /// Panics where the rule's calibration does (a ratio above 1 that no
    /// rescaling clamps), or, under the magnitude rule, where
    /// [`OutlierQuantizer::with_threshold`] does (a threshold of zero or
    /// NaN).
    pub fn fit_rule(
        values: &[f32],
        ratio: f64,
        share: Share,
        select: OutlierSelect,
        low_bits: u8,
        high_bits: u8,
    ) -> Option<Self> {
        let max = values.iter().fold(0.0_f32, |m, &v| m.max(v.abs()));
        if !max.is_finite() || max <= 0.0 {
            return None;
        }
        if ratio <= 0.0 {
            return Some(Self::disabled(max, low_bits, high_bits));
        }
        if select == OutlierSelect::MagnitudePercentile {
            let threshold = match share {
                Share::All => magnitude_threshold(values, ratio),
                Share::NonZero => select.calibrate(values, ratio),
            };
            return Some(Self::with_threshold(threshold, max, low_bits, high_bits));
        }
        let ratio = match share {
            Share::All => {
                let nz = values.iter().filter(|&&v| v != 0.0).count().max(1);
                (ratio * values.len() as f64 / nz as f64).min(1.0)
            }
            Share::NonZero => ratio,
        };
        let threshold = select.calibrate(values, ratio);
        let flags = select.classify_with(values, threshold);
        let low_span = (values.iter().zip(&flags))
            .filter(|&(_, &outlier)| !outlier)
            .fold(0.0_f32, |m, (v, _)| m.max(v.abs()));
        // When every non-zero value is an outlier, the low grid is unused
        // but must still be constructible.
        let low_span = if low_span.is_finite() && low_span > 0.0 {
            low_span
        } else {
            max
        };
        // The grids a magnitude threshold at `low_span` gives, classified
        // by the rule instead.
        let grids = Self::with_threshold(low_span, max, low_bits, high_bits);
        Some(OutlierQuantizer {
            threshold,
            select: Some(select),
            ..grids
        })
    }

    /// Like [`OutlierQuantizer::fit`], but the high-precision grid shares
    /// the low grid's scale and simply carries more integer bits — the
    /// variant the OLAccel hardware implies: the weight-chunk encoding
    /// stores an outlier's least-significant bits in the lane nibble and its
    /// most-significant bits in `OLmsb`, i.e. *one* integer on *one* scale,
    /// which is also what lets the normal and outlier partial sums merge in
    /// the tri-buffer without rescaling.
    ///
    /// # Panics
    ///
    /// Panics like [`OutlierQuantizer::fit`], or if the aligned high grid
    /// cannot represent the maximum value (`max / scale_low` exceeding the
    /// high grid's level range), which cannot happen for the paper's
    /// 4-bit/8-bit/16-bit operating points at realistic outlier ratios.
    pub fn fit_aligned(values: &[f32], ratio: f64, low_bits: u8, high_bits: u8) -> Self {
        let mut q = Self::fit(values, ratio, low_bits, high_bits);
        let scale = q.low.scale();
        let max = values.iter().fold(0.0_f32, |m, &v| m.max(v.abs()));
        let max_level = (1i32 << (high_bits - 1)) - 1;
        assert!(
            (max / scale).round() as i64 <= max_level as i64,
            "aligned {high_bits}-bit grid cannot reach {max} at scale {scale}"
        );
        q.high = LinearQuantizer::symmetric(high_bits, scale * max_level as f32);
        q
    }

    /// Builds a magnitude-rule quantizer from a precomputed threshold (the
    /// runtime path: activation thresholds come from design-time
    /// calibration, §II).
    ///
    /// # Panics
    ///
    /// Panics if `max_abs` is not finite-positive or `threshold <= 0`.
    pub fn with_threshold(threshold: f32, max_abs: f32, low_bits: u8, high_bits: u8) -> Self {
        assert!(
            max_abs.is_finite() && max_abs > 0.0,
            "max_abs must be positive"
        );
        assert!(threshold > 0.0, "threshold must be positive");
        let low_span = if threshold.is_finite() {
            threshold.min(max_abs)
        } else {
            max_abs
        };
        OutlierQuantizer {
            low: LinearQuantizer::symmetric(low_bits, low_span),
            high: LinearQuantizer::symmetric(high_bits, max_abs),
            threshold,
            select: Some(OutlierSelect::MagnitudePercentile),
        }
    }

    /// The threshold separating the regions: a magnitude under the paper's
    /// rule, a score or window marker under the structured ones, and
    /// `f32::INFINITY` when outliers are disabled (see [`OutlierSelect`]).
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// The low-precision (dense-region) grid.
    pub fn low(&self) -> &LinearQuantizer {
        &self.low
    }

    /// The high-precision (outlier) grid.
    pub fn high(&self) -> &LinearQuantizer {
        &self.high
    }

    /// Whether `v` falls in the outlier region under the magnitude rule;
    /// never when outliers are disabled ([`OutlierQuantizer::fit_rule`] at
    /// a ratio that is not positive).
    ///
    /// Tie-breaking contract: the comparison is `|v| >= threshold` under
    /// [`f32::total_cmp`] — the same total order the fit's threshold
    /// selection uses — so every value whose magnitude is *bit-identical*
    /// to the threshold (the k-th largest magnitude at fit time) classifies
    /// as an outlier, exactly as it did during fitting. Fitting to ratio
    /// `r` therefore marks at least `ceil(r * n)` values, and possibly more
    /// when magnitudes tie at the boundary. Because `total_cmp` orders NaN
    /// above `+inf`, a NaN input is always an outlier (it would have been
    /// selected into the top-k at fit time too), and `-0.0` behaves as
    /// magnitude zero.
    ///
    /// ```
    /// use ola_quant::outlier::OutlierQuantizer;
    ///
    /// // Four-way tie at the boundary: ratio 0.25 of 8 values asks for 2
    /// // outliers, but all four 2.0-magnitude values sit exactly at the
    /// // threshold and must classify identically.
    /// let values = [2.0_f32, -2.0, 2.0, -2.0, 0.5, 0.4, 0.3, 0.2];
    /// let q = OutlierQuantizer::fit(&values, 0.25, 4, 8);
    /// assert_eq!(q.threshold(), 2.0);
    /// assert_eq!(values.iter().filter(|&&v| q.is_outlier(v)).count(), 4);
    /// assert_eq!(q.quantize(&values).outliers.len(), 4);
    /// ```
    #[inline]
    pub fn is_outlier(&self, v: f32) -> bool {
        self.select.is_some() && v.abs().total_cmp(&self.threshold).is_ge()
    }

    /// Quantizes a slice, separating dense levels from outliers by
    /// [`OutlierQuantizer::is_outlier`], as the hardware's chunk encodings
    /// classify them.
    pub fn quantize(&self, values: &[f32]) -> OutlierQuantized {
        let mut levels = Vec::with_capacity(values.len());
        let mut outliers = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            if self.is_outlier(v) {
                outliers.push((i, self.high.quantize(v)));
                levels.push(0);
            } else {
                levels.push(self.low.quantize(v));
            }
        }
        OutlierQuantized { levels, outliers }
    }

    /// Reconstructs real values from a quantized representation.
    pub fn dequantize(&self, q: &OutlierQuantized) -> Vec<f32> {
        let mut out: Vec<f32> = q.levels.iter().map(|&l| self.low.dequantize(l)).collect();
        for &(i, level) in &q.outliers {
            out[i] = self.high.dequantize(level);
        }
        out
    }

    /// Quantize-dequantize round trip.
    pub fn fake_quantize(&self, values: &[f32]) -> Vec<f32> {
        let mut out = values.to_vec();
        self.fake_quantize_inplace(&mut out);
        out
    }

    /// Quantize-dequantize in place, each value on the grid its class
    /// under the quantizer's rule selects; returns how many values took
    /// the outlier (high-precision) grid.
    pub fn fake_quantize_inplace(&self, values: &mut [f32]) -> usize {
        let mut outliers = 0;
        let mut round_trip = |v: &mut f32, outlier: bool| {
            outliers += usize::from(outlier);
            let grid = if outlier { &self.high } else { &self.low };
            *v = grid.fake_quantize_value(*v);
        };
        match self.select {
            None => values.iter_mut().for_each(|v| round_trip(v, false)),
            Some(OutlierSelect::MagnitudePercentile) => values
                .iter_mut()
                .for_each(|v| round_trip(v, self.is_outlier(*v))),
            Some(select) => {
                let flags = select.classify_with(values, self.threshold);
                values
                    .iter_mut()
                    .zip(flags)
                    .for_each(|(v, o)| round_trip(v, o));
            }
        }
        outliers
    }
}

/// The quantized form of a value population: dense low-precision levels with
/// outlier (index, high-precision level) pairs overriding them.
#[derive(Clone, Debug, PartialEq)]
pub struct OutlierQuantized {
    /// Low-precision levels, one per input value (0 at outlier positions).
    pub levels: Vec<i32>,
    /// Sparse outliers: `(index, high-precision level)`.
    pub outliers: Vec<(usize, i32)>,
}

impl OutlierQuantized {
    /// Fraction of values that are outliers.
    pub fn outlier_ratio(&self) -> f64 {
        if self.levels.is_empty() {
            return 0.0;
        }
        self.outliers.len() as f64 / self.levels.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mse;
    use ola_tensor::init::{heavy_tailed_tensor, HeavyTailed};
    use ola_tensor::Shape4;

    fn heavy_values(n: usize, seed: u64) -> Vec<f32> {
        heavy_tailed_tensor(Shape4::new(1, 1, 1, n), HeavyTailed::default(), seed).into_vec()
    }

    #[test]
    fn fit_hits_target_ratio() {
        let values = heavy_values(10_000, 1);
        let q = OutlierQuantizer::fit(&values, 0.03, 4, 16);
        let quantized = q.quantize(&values);
        let r = quantized.outlier_ratio();
        assert!((r - 0.03).abs() < 0.005, "ratio {r}");
    }

    #[test]
    fn outliers_preserved_precisely() {
        let mut values = vec![0.01_f32; 99];
        values.push(5.0);
        let q = OutlierQuantizer::fit(&values, 0.01, 4, 16);
        let restored = q.fake_quantize(&values);
        assert!((restored[99] - 5.0).abs() < 5.0 / 32767.0 * 2.0);
    }

    #[test]
    fn beats_linear_on_heavy_tails() {
        let values = heavy_values(20_000, 2);
        let lin = LinearQuantizer::fit_symmetric(4, &values).unwrap();
        let ola = OutlierQuantizer::fit(&values, 0.03, 4, 16);
        let e_lin = mse(&values, &lin.fake_quantize(&values));
        let e_ola = mse(&values, &ola.fake_quantize(&values));
        assert!(
            e_ola < e_lin / 4.0,
            "outlier-aware {e_ola} not clearly better than linear {e_lin}"
        );
    }

    #[test]
    fn zero_ratio_degenerates_to_linear() {
        let values = heavy_values(5_000, 3);
        let q = OutlierQuantizer::fit(&values, 0.0, 4, 16);
        let quantized = q.quantize(&values);
        assert!(quantized.outliers.is_empty());
        let lin = LinearQuantizer::fit_symmetric(4, &values).unwrap();
        assert_eq!(q.fake_quantize(&values), lin.fake_quantize(&values));
    }

    #[test]
    fn dequantize_round_trip_structure() {
        let values = vec![0.1, -0.2, 3.0, 0.05];
        let q = OutlierQuantizer::fit(&values, 0.25, 4, 8);
        let quantized = q.quantize(&values);
        assert_eq!(quantized.outliers.len(), 1);
        assert_eq!(quantized.outliers[0].0, 2);
        assert_eq!(quantized.levels[2], 0);
        let restored = q.dequantize(&quantized);
        assert_eq!(restored.len(), 4);
        assert!((restored[2] - 3.0).abs() < 0.05);
    }

    #[test]
    fn aligned_grids_share_scale() {
        let values = heavy_values(5_000, 9);
        let q = OutlierQuantizer::fit_aligned(&values, 0.03, 4, 16);
        assert!(
            (q.low().scale() - q.high().scale()).abs() < 1e-9,
            "aligned grids must share one scale"
        );
        // Round trip stays accurate: outlier error under the aligned grid
        // matches the bulk's (same step), so overall MSE is within a few
        // percent of the max-scaled variant whose outliers are near-exact.
        let q_max = OutlierQuantizer::fit(&values, 0.03, 4, 16);
        let e = crate::metrics::mse(&values, &q.fake_quantize(&values));
        let e_max = crate::metrics::mse(&values, &q_max.fake_quantize(&values));
        assert!(e <= e_max * 1.25, "aligned {e} vs max-scaled {e_max}");
    }

    #[test]
    fn aligned_8bit_weight_grid_fits_outliers() {
        let values = heavy_values(20_000, 10);
        let q = OutlierQuantizer::fit_aligned(&values, 0.03, 4, 8);
        let quantized = q.quantize(&values);
        // All outlier levels fit in 8-bit sign-magnitude.
        assert!(quantized.outliers.iter().all(|&(_, l)| l.abs() <= 127));
        // And sit at or beyond the 4-bit range boundary (the threshold is
        // the 4-bit grid's edge; a borderline outlier rounds to level 7).
        assert!(quantized.outliers.iter().all(|&(_, l)| l.abs() >= 7));
        assert!(quantized.outliers.iter().any(|&(_, l)| l.abs() > 7));
    }

    #[test]
    fn rule_fit_round_trip() {
        let mut values: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) * 0.01).collect();
        values[7] = 4.0;
        values[33] = -5.0;
        let q = OutlierQuantizer::fit_rule(
            &values,
            0.05,
            Share::NonZero,
            OutlierSelect::WindowedTopK { window: 16 },
            4,
            8,
        )
        .expect("fit");
        let mut restored = values.clone();
        let outliers = q.fake_quantize_inplace(&mut restored);
        assert_eq!(outliers, 4, "one per 16-wide window");
        // The big values survive on the high grid.
        assert!((restored[33] + 5.0).abs() < 5.0 / 127.0 * 2.0);
        // The bulk sees a low grid whose span is set by the non-outliers
        // (~0.31 here), not the +-5.0 range the high grid must cover.
        let low_span = q.low().scale() * q.low().max_level() as f32;
        let high_span = q.high().scale() * q.high().max_level() as f32;
        assert!(low_span < 0.4, "low span {low_span}");
        assert!(high_span > 4.9, "high span {high_span}");
    }

    #[test]
    fn rule_fit_rejects_degenerate_populations() {
        for select in [
            OutlierSelect::MagnitudePercentile,
            OutlierSelect::SensitivityWeighted { window: 8 },
        ] {
            for share in [Share::All, Share::NonZero] {
                let fit =
                    |values: &[f32]| OutlierQuantizer::fit_rule(values, 0.03, share, select, 4, 8);
                assert!(fit(&[]).is_none());
                assert!(fit(&[0.0, -0.0]).is_none());
                assert!(fit(&[f32::NAN]).is_none());
                assert!(fit(&[f32::INFINITY, 1.0]).is_none());
            }
        }
    }

    #[test]
    fn disabled_rule_classifies_nothing() {
        // A ratio that is not positive disables outliers under every rule:
        // even a NaN, which ranks above the disabled threshold, takes the
        // low grid in every view of the classification.
        let values = [f32::NAN, 1.0, -2.0, 0.0];
        for select in OutlierSelect::panel() {
            let q =
                OutlierQuantizer::fit_rule(&values, 0.0, Share::All, select, 4, 8).expect("fit");
            assert_eq!(q.threshold(), f32::INFINITY);
            assert!(!q.is_outlier(f32::NAN));
            assert!(q.quantize(&values).outliers.is_empty());
            assert_eq!(q.fake_quantize_inplace(&mut values.clone()), 0);
        }
    }

    /// `fit` at ratio 0 is the same disabled quantizer: a NaN takes the low
    /// grid there too.
    #[test]
    fn zero_ratio_fit_selects_no_nan() {
        let values = [f32::NAN, 1.0, 2.0];
        let q = OutlierQuantizer::fit(&values, 0.0, 4, 8);
        assert_eq!(q.threshold(), f32::INFINITY);
        assert!(!q.is_outlier(f32::NAN));
        assert!(q.quantize(&values).outliers.is_empty());
        assert_eq!(q.fake_quantize_inplace(&mut values.to_vec()), 0);
        let rule = OutlierQuantizer::fit_rule(
            &values,
            0.0,
            Share::All,
            OutlierSelect::MagnitudePercentile,
            4,
            8,
        );
        assert_eq!(Some(q), rule, "fit and fit_rule disable alike");
    }

    #[test]
    fn higher_ratio_lower_error() {
        let values = heavy_values(20_000, 4);
        let e = |ratio: f64| {
            let q = OutlierQuantizer::fit(&values, ratio, 4, 16);
            mse(&values, &q.fake_quantize(&values))
        };
        assert!(e(0.03) < e(0.01));
        assert!(e(0.01) < e(0.0));
    }
}
