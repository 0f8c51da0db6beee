//! Distribution statistics: histograms and magnitude thresholds.
//!
//! Used for Fig 1 (weight distributions) and the outlier quantizers'
//! top-ratio magnitude thresholds (§II).

/// A fixed-bin histogram over a symmetric or one-sided value range.
///
/// # Example
///
/// ```
/// use ola_tensor::stats::Histogram;
///
/// let mut h = Histogram::new(-1.0, 1.0, 4);
/// h.extend([-0.9, -0.1, 0.1, 0.9, 2.0].iter().copied());
/// assert_eq!(h.counts(), &[1, 1, 1, 2]); // 2.0 clamps into the last bin
/// assert_eq!(h.total(), 5);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi]` with `bins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "lo must be less than hi");
        assert!(bins > 0, "bins must be positive");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
        }
    }

    /// Adds one sample; values outside the range clamp into the edge bins.
    pub fn add(&mut self, v: f32) {
        let bins = self.counts.len();
        let t = ((v as f64 - self.lo) / (self.hi - self.lo) * bins as f64).floor();
        let i = (t.max(0.0) as usize).min(bins - 1);
        self.counts[i] += 1;
    }

    /// Adds many samples.
    pub fn extend<I: IntoIterator<Item = f32>>(&mut self, values: I) {
        for v in values {
            self.add(v);
        }
    }

    /// Bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Center value of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len());
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + width * (i as f64 + 0.5)
    }

    /// Normalized bin heights (sum to 1.0); all zeros if empty.
    pub fn normalized(&self) -> Vec<f64> {
        let total = self.total() as f64;
        if total == 0.0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts.iter().map(|&c| c as f64 / total).collect()
    }
}

/// Returns the magnitude threshold above which exactly the top `ratio`
/// fraction of values (by absolute value) fall.
///
/// This is the paper's per-layer outlier threshold: values with
/// `|v| > threshold` are outliers. `ratio = 0` returns `f32::INFINITY`
/// (nothing is an outlier); `ratio = 1` returns 0 before any positive value.
///
/// O(n) selection, no sort: magnitudes are non-negative (`abs` clears the
/// sign bit), so `total_cmp` on them is exactly magnitude order — ties are
/// bit-identical values and the k-th largest *value* is order-independent.
/// NaN magnitudes sort above `+inf` under the total order, i.e. a NaN
/// always lands in the outlier region deterministically (the old
/// `partial_cmp(..).unwrap_or(Equal)` comparator left the order, and hence
/// the threshold, unspecified in that case).
///
/// # Panics
///
/// Panics if `ratio` is outside `[0, 1]`.
pub fn magnitude_threshold(values: &[f32], ratio: f64) -> f32 {
    assert!((0.0..=1.0).contains(&ratio), "ratio must be in [0,1]");
    if ratio == 0.0 || values.is_empty() {
        return f32::INFINITY;
    }
    let mut mags: Vec<f32> = values.iter().map(|v| v.abs()).collect();
    let k = ((values.len() as f64 * ratio).ceil() as usize).clamp(1, values.len());
    kth_largest_magnitude(&mut mags, k)
}

/// The k-th largest (1-based) of a buffer of already-absolute magnitudes,
/// by in-place O(n) selection. The buffer is permuted.
///
/// This is the selection kernel behind [`magnitude_threshold`]: callers
/// that already hold the magnitudes skip the clone-and-sort entirely.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds `mags.len()`.
pub fn kth_largest_magnitude(mags: &mut [f32], k: usize) -> f32 {
    assert!(k >= 1 && k <= mags.len(), "k must be in 1..=len");
    // Threshold sits at the k-th largest magnitude: values strictly greater
    // than the (k+1)-th are the top-k set; use the k-th value as inclusive
    // boundary so that exactly ~k values satisfy |v| >= threshold.
    let (_, v, _) = mags.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
    *v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_and_clamping() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.extend([0.5, 1.5, 9.5, 10.5, -1.0].iter().copied());
        assert_eq!(h.counts()[0], 2); // 0.5 and clamped -1.0
        assert_eq!(h.counts()[1], 1);
        assert_eq!(h.counts()[9], 2); // 9.5 and clamped 10.5
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn bin_centers() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert!((h.bin_center(0) - 0.125).abs() < 1e-12);
        assert!((h.bin_center(3) - 0.875).abs() < 1e-12);
    }

    #[test]
    fn normalized_sums_to_one() {
        let mut h = Histogram::new(0.0, 1.0, 3);
        h.extend([0.1, 0.5, 0.9, 0.95].iter().copied());
        let n = h.normalized();
        assert!((n.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn magnitude_threshold_top_fraction() {
        let values: Vec<f32> = (1..=100).map(|i| i as f32).collect();
        let t = magnitude_threshold(&values, 0.03);
        // Top 3 values are 98, 99, 100; threshold = 98.
        assert_eq!(t, 98.0);
        assert_eq!(values.iter().filter(|v| v.abs() >= t).count(), 3);
    }

    #[test]
    fn magnitude_threshold_zero_ratio_is_infinite() {
        assert_eq!(magnitude_threshold(&[1.0, 2.0], 0.0), f32::INFINITY);
    }

    /// Sort-based reference implementations the selection path must match
    /// bit-for-bit on NaN-free data (the pre-selection implementations).
    fn threshold_by_sort(values: &[f32], ratio: f64) -> f32 {
        if ratio == 0.0 || values.is_empty() {
            return f32::INFINITY;
        }
        let mut mags: Vec<f32> = values.iter().map(|v| v.abs()).collect();
        mags.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        let k = ((values.len() as f64 * ratio).ceil() as usize).clamp(1, values.len());
        mags[k - 1]
    }

    #[test]
    fn selection_matches_sort_oracle() {
        // Pseudo-random data with deliberate duplicates and sign mixing.
        let mut state = 0x1234_5678_u64;
        let values: Vec<f32> = (0..4096)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = ((state >> 33) % 1000) as f32 / 250.0 - 2.0;
                if state.is_multiple_of(7) {
                    0.0
                } else {
                    v
                }
            })
            .collect();
        for ratio in [1e-6, 0.001, 0.03, 0.25, 0.5, 0.99, 1.0] {
            let fast = magnitude_threshold(&values, ratio);
            let slow = threshold_by_sort(&values, ratio);
            assert_eq!(fast.to_bits(), slow.to_bits(), "ratio {ratio}");
        }
    }

    #[test]
    fn nan_and_negative_zero_are_handled_deterministically() {
        // NaN magnitudes order above +inf under the total order, so a NaN
        // deterministically occupies the top selection slot; the old
        // `partial_cmp(..).unwrap_or(Equal)` sort left this unspecified.
        let values = [1.0_f32, f32::NAN, -2.0, 3.0];
        let t = magnitude_threshold(&values, 0.25); // k = 1 -> the NaN
        assert!(t.is_nan());
        let t2 = magnitude_threshold(&values, 0.5); // k = 2 -> largest real
        assert_eq!(t2, 3.0);

        // -0.0 is magnitude 0.0 (abs clears the sign), never a distinct key.
        let zeros = [-0.0_f32, 0.0, -1.0];
        assert_eq!(magnitude_threshold(&zeros, 1.0).to_bits(), 0.0f32.to_bits());
    }
}
