//! Small numeric helpers: the seeded generator that draws every workload
//! input, the FNV digest that folds simulated statistics, nearest-rank
//! percentiles, and the hand-written JSON the benchmark emits (the build
//! has no serialization crate).

/// SplitMix64: a tiny, seedable generator for the benchmark's own draws
/// (experiment order, outlier policies, preparation seeds). The program
/// under test never sees it — only the inputs it produces.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `stream` under `seed`, so independent draws of one
    /// run never share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over bytes, folded field by field. Floats fold by bit pattern,
/// so a digest moves when any simulated number moves at all.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Folds an integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds a float by its bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Folds a length-prefixed string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The folded value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Digest::default().bytes(bytes).value()
}

/// The percentiles a latency distribution is reported at.
pub const PERCENTILES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// A percentile is only reported when at least this many samples lie
/// beyond it; fewer make the tail a statement about a handful of samples.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` of `sorted` (ascending, non-empty), with
/// the number of samples strictly beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    (sorted[rank - 1], n - rank)
}

/// A reported tail: the highest percentile in [`PERCENTILES`] that keeps
/// [`MIN_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `90.0`.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
    /// Total samples.
    pub count: usize,
}

/// The highest percentile of `samples` with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has fewer.
pub fn highest_tail(samples: &[f64]) -> Option<Tail> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return None;
    }
    PERCENTILES
        .iter()
        .rev()
        .map(|&pct| {
            let (value, beyond) = percentile(&sorted, pct);
            Tail {
                pct,
                value,
                beyond,
                count: sorted.len(),
            }
        })
        .find(|t| t.beyond >= MIN_BEYOND)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number. Rust's float `Display` is the shortest round-trip form
/// and never uses an exponent, so every finite value is valid JSON; the
/// benchmark produces no non-finite values, but they map to `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = highest_tail(&samples).expect("tail");
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.count, 100);

        // 1000 samples reach p99 (10 beyond) but not p99.9 (1 beyond).
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = highest_tail(&samples).expect("tail");
        assert_eq!((t.pct, t.value, t.beyond, t.count), (99.0, 990.0, 10, 1000));

        // 99 samples fall one short of a valid p90.
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(highest_tail(&samples).expect("tail").pct, 75.0);

        // Fewer than 20 samples have no valid percentile at all.
        assert_eq!(highest_tail(&[1.0; 19]), None);
        assert_eq!(highest_tail(&[1.0; 20]).map(|t| t.pct), Some(50.0));
    }

    #[test]
    fn digest_moves_with_any_float_bit() {
        let a = Digest::default().f64(1.0).value();
        let b = Digest::default()
            .f64(f64::from_bits(1.0f64.to_bits() + 1))
            .value();
        assert_ne!(a, b);
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(1.25), "1.25");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
