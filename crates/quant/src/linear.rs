//! Conventional uniform (linear) quantization.

/// A symmetric or unsigned uniform quantizer with a fixed scale.
///
/// Symmetric quantizers map to integer levels in `[-(2^(b-1)-1), 2^(b-1)-1]`
/// (sign-magnitude style, matching the paper's hardware which stores a sign
/// bit plus magnitude bits); unsigned quantizers map to `[0, 2^b - 1]` and
/// are used for post-ReLU activations.
///
/// # Example
///
/// ```
/// use ola_quant::LinearQuantizer;
///
/// let q = LinearQuantizer::symmetric(4, 7.0); // levels -7..=7, scale 1.0
/// assert_eq!(q.quantize(3.2), 3);
/// assert_eq!(q.dequantize(3), 3.0);
/// assert_eq!(q.quantize(100.0), 7); // clamps
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinearQuantizer {
    bits: u8,
    scale: f32,
    signed: bool,
}

impl LinearQuantizer {
    /// Symmetric quantizer covering `[-max_abs, max_abs]` with `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or > 24, or `max_abs` is not finite-positive.
    pub fn symmetric(bits: u8, max_abs: f32) -> Self {
        assert!((1..=24).contains(&bits), "bits out of range");
        assert!(
            max_abs.is_finite() && max_abs > 0.0,
            "max_abs must be positive"
        );
        let levels = (1i32 << (bits - 1)) - 1;
        LinearQuantizer {
            bits,
            scale: max_abs / levels as f32,
            signed: true,
        }
    }

    /// Unsigned quantizer covering `[0, max]` with `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or > 24, or `max` is not finite-positive.
    pub fn unsigned(bits: u8, max: f32) -> Self {
        assert!((1..=24).contains(&bits), "bits out of range");
        assert!(max.is_finite() && max > 0.0, "max must be positive");
        let levels = (1i32 << bits) - 1;
        LinearQuantizer {
            bits,
            scale: max / levels as f32,
            signed: false,
        }
    }

    /// Fits a symmetric quantizer to the maximum magnitude of `values`
    /// (the paper's "linear quantization without truncation").
    ///
    /// Returns `None` if `values` has no non-zero entry.
    pub fn fit_symmetric(bits: u8, values: &[f32]) -> Option<Self> {
        let max = values.iter().fold(0.0_f32, |m, &v| m.max(v.abs()));
        (max > 0.0).then(|| Self::symmetric(bits, max))
    }

    /// Bit width.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Quantization step size.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Largest representable integer level.
    pub fn max_level(&self) -> i32 {
        if self.signed {
            (1i32 << (self.bits - 1)) - 1
        } else {
            (1i32 << self.bits) - 1
        }
    }

    /// Smallest representable integer level.
    pub fn min_level(&self) -> i32 {
        if self.signed {
            -self.max_level()
        } else {
            0
        }
    }

    /// Quantizes one value to an integer level (round-to-nearest, clamped).
    #[inline]
    pub fn quantize(&self, v: f32) -> i32 {
        let level = (v / self.scale).round() as i32;
        level.clamp(self.min_level(), self.max_level())
    }

    /// Reconstructs the real value of an integer level.
    #[inline]
    pub fn dequantize(&self, level: i32) -> f32 {
        level as f32 * self.scale
    }

    /// Quantize-dequantize round trip.
    #[inline]
    pub fn fake_quantize_value(&self, v: f32) -> f32 {
        self.dequantize(self.quantize(v))
    }

    /// Quantize-dequantize an entire slice into a new vector.
    pub fn fake_quantize(&self, values: &[f32]) -> Vec<f32> {
        values
            .iter()
            .map(|&v| self.fake_quantize_value(v))
            .collect()
    }

    /// Quantize-dequantize a slice in place.
    pub fn fake_quantize_inplace(&self, values: &mut [f32]) {
        for v in values {
            *v = self.fake_quantize_value(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_levels() {
        let q = LinearQuantizer::symmetric(4, 7.0);
        assert_eq!(q.max_level(), 7);
        assert_eq!(q.min_level(), -7);
        assert_eq!(q.quantize(-7.0), -7);
        assert_eq!(q.quantize(0.49), 0);
        assert_eq!(q.quantize(0.51), 1);
        assert_eq!(q.quantize(-100.0), -7);
    }

    #[test]
    fn unsigned_levels() {
        let q = LinearQuantizer::unsigned(4, 15.0);
        assert_eq!(q.max_level(), 15);
        assert_eq!(q.min_level(), 0);
        assert_eq!(q.quantize(-3.0), 0);
        assert_eq!(q.quantize(14.7), 15);
    }

    #[test]
    fn round_trip_error_bounded_by_half_step() {
        let q = LinearQuantizer::symmetric(8, 1.0);
        for i in 0..100 {
            let v = (i as f32 / 100.0) * 2.0 - 1.0;
            let r = q.fake_quantize_value(v);
            assert!((r - v).abs() <= q.scale() / 2.0 + 1e-6, "v={v} r={r}");
        }
    }

    #[test]
    fn fit_symmetric_uses_abs_max() {
        let q = LinearQuantizer::fit_symmetric(4, &[0.5, -2.0, 1.0]).unwrap();
        assert!((q.scale() - 2.0 / 7.0).abs() < 1e-6);
        assert!(LinearQuantizer::fit_symmetric(4, &[0.0, 0.0]).is_none());
    }

    #[test]
    fn wider_bits_smaller_error() {
        let values: Vec<f32> = (0..1000)
            .map(|i| ((i * 37) % 997) as f32 / 997.0 - 0.5)
            .collect();
        let err = |bits: u8| -> f64 {
            let q = LinearQuantizer::fit_symmetric(bits, &values).unwrap();
            values
                .iter()
                .map(|&v| (v - q.fake_quantize_value(v)) as f64)
                .map(|e| e * e)
                .sum()
        };
        assert!(err(8) < err(4));
        assert!(err(16) < err(8));
    }
}
