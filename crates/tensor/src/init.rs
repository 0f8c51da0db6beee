//! Random initializers producing trained-network-like value distributions.
//!
//! The paper's experiments run on trained ImageNet models. We do not have
//! those weights, so (per DESIGN.md §2) we synthesize parameters whose
//! *distributions* match what the paper relies on: near-Laplacian bulk with
//! heavy tails (Fig 1's outliers), and activations that become sparse and
//! non-negative after ReLU.
//!
//! # Seeding contract
//!
//! Every element is drawn from its own counter-based [`Philox`] stream,
//! `Philox::new(seed, element_index)`: the value at index `i` is a pure
//! function of `(seed, i)` and never depends on how many elements came
//! before it, which worker generated it, or in what order. That is what
//! lets the fills below run data-parallel (via [`crate::par::fill_indexed`]
//! at the calling thread's [`crate::par::jobs`] budget) while staying
//! bit-identical to the serial reference at any worker count.

use crate::bytes::Encoder;
use crate::par;
use crate::shape::Shape4;
use crate::tensor::Tensor;
use rand::distributions::Distribution;
use rand::rngs::Philox;
use rand::{Rng, RngCore};
use std::sync::OnceLock;

/// Below this element count a parallel fill costs more in thread spawn than
/// it saves; run inline instead. Bits are identical either way.
const PAR_FILL_CUTOFF: usize = 4096;

fn fill_workers(len: usize) -> usize {
    if len < PAR_FILL_CUTOFF {
        1
    } else {
        par::jobs()
    }
}

/// A two-component scale mixture used to synthesize trained-like weights.
///
/// With probability `1 - tail_fraction` a value is drawn from a narrow
/// Gaussian (`sigma`); with probability `tail_fraction` from a wide Gaussian
/// (`sigma * tail_scale`). The wide component creates the Fig 1 outliers that
/// make plain linear quantization fail at 4 bits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HeavyTailed {
    /// Standard deviation of the bulk component.
    pub sigma: f32,
    /// Fraction of samples drawn from the tail component.
    pub tail_fraction: f64,
    /// Scale factor of the tail component relative to the bulk.
    pub tail_scale: f32,
}

impl Default for HeavyTailed {
    fn default() -> Self {
        // Calibrated so that ~3% of values exceed the magnitude that a 4-bit
        // linear grid spanning the max would need to represent them well —
        // mirroring the paper's 3% outlier ratio operating point.
        HeavyTailed {
            sigma: 0.02,
            tail_fraction: 0.03,
            tail_scale: 6.0,
        }
    }
}

impl HeavyTailed {
    /// Creates a mixture with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `tail_fraction` is outside `[0, 1]` or a scale is
    /// non-positive.
    pub fn new(sigma: f32, tail_fraction: f64, tail_scale: f32) -> Self {
        assert!(
            (0.0..=1.0).contains(&tail_fraction),
            "tail_fraction must be in [0,1]"
        );
        assert!(sigma > 0.0 && tail_scale > 0.0, "scales must be positive");
        HeavyTailed {
            sigma,
            tail_fraction,
            tail_scale,
        }
    }

    /// Writes the three parameters by exact bit pattern.
    pub fn encode(&self, e: &mut impl Encoder) {
        e.f32(self.sigma)
            .f64(self.tail_fraction)
            .f32(self.tail_scale);
    }

    /// Draws one sample from three words: the tail coin, then Box–Muller's
    /// `u1` and `u2`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        let coin = rng.next_u64();
        let (w1, w2) = (rng.next_u64(), rng.next_u64());
        self.sample_words([coin, w1, w2])
    }

    /// The sample three consecutive stream words make: the tail coin, then
    /// Box–Muller's `u1` and `u2` words.
    fn sample_words(&self, [coin, w1, w2]: [u64; 3]) -> f32 {
        gaussian_words(w1, w2) * self.scales()[self.is_tail(coin) as usize]
    }

    /// The bulk and tail component scales, in that order.
    fn scales(&self) -> [f32; 2] {
        [self.sigma, self.sigma * self.tail_scale]
    }

    /// Whether the coin word picks the tail component. Panics, as
    /// `gen_bool` does, on a `tail_fraction` outside `[0, 1]`.
    fn is_tail(&self, coin: u64) -> bool {
        Word(coin).gen_bool(self.tail_fraction)
    }

    /// Fills `row` with the first `row.len()` samples of the Philox stream
    /// `(seed, stream)`, then zeroes the `prune` smallest under the
    /// `(|v| bits, index)` order: the smallest magnitude first, the lower
    /// index first among equal magnitudes. Returns how many values it
    /// computed exactly.
    ///
    /// The bytes are those of drawing every value with
    /// [`HeavyTailed::sample`] on `Philox::new(seed, stream)` and pruning
    /// by a stable sort on `|v|`. The work is not: a value whose bound
    /// shows it is pruned never reaches `ln`, `sqrt` or `cos`
    /// (bound–select–refine, DESIGN §13):
    ///
    /// 1. draw the row's `3·len` words;
    /// 2. bound every `|v|` from two tables indexed by the top bits of its
    ///    `u1` and `u2` words;
    /// 3. take as `τ` the `keep`-th largest lower bound (`keep = len -
    ///    prune`); the candidates are the values whose upper bound reaches
    ///    `τ`, and only they are computed;
    /// 4. zero every other value, and the `candidates - keep` smallest
    ///    candidates.
    ///
    /// At least `keep` values lie at or above `τ` and every non-candidate
    /// lies strictly below it, so no non-candidate can outrank a kept
    /// value. With a non-finite scale no bound holds, and every value is a
    /// candidate.
    ///
    /// # Panics
    ///
    /// Panics if `tail_fraction` is outside `[0, 1]` (as drawing would)
    /// or `row` has more than `u32::MAX` values.
    pub fn fill_pruned(&self, row: &mut [f32], seed: u64, stream: u64, prune: usize) -> usize {
        let len = row.len();
        assert!(
            u32::try_from(len).is_ok(),
            "row of {len} values is too long"
        );
        let keep = len.saturating_sub(prune);
        if keep == 0 {
            if len > 0 {
                // Every draw would check tail_fraction; keep that check
                // when nothing is drawn.
                self.is_tail(0);
            }
            row.fill(0.0);
            return 0;
        }
        let words = stream_words(seed, stream, 3 * len);
        let bounded = prune > 0 && self.scales().iter().all(|s| s.is_finite());
        let (highs, tau) = if bounded {
            self.bound_pass(&words, keep)
        } else {
            (Vec::new(), f64::NEG_INFINITY)
        };
        let mut keys = Vec::new();
        for (j, (v, w)) in row.iter_mut().zip(words.chunks_exact(3)).enumerate() {
            if bounded && highs[j] < tau {
                *v = 0.0;
                continue;
            }
            *v = self.sample_words([w[0], w[1], w[2]]);
            if prune > 0 {
                keys.push(prune_key(j, *v));
            }
        }
        if prune == 0 {
            return len;
        }
        let candidates = keys.len();
        zero_smallest(row, &mut keys, candidates - keep);
        candidates
    }

    /// Steps 2 and 3 of [`HeavyTailed::fill_pruned`]: every value's upper
    /// bound, and `τ`, the `keep`-th largest lower bound, capped at
    /// `f32::MAX` so that a value that may round to infinity is never
    /// below it.
    fn bound_pass(&self, words: &[u64], keep: usize) -> (Vec<f64>, f64) {
        let bounds = Bounds::new(self);
        let n = words.len() / 3;
        // Lower bounds are kept as the bits of a non-negative f64, which
        // order as its value.
        let (mut lows, mut highs) = (vec![0; n], vec![0.0; n]);
        for ((w, lo), hi) in words.chunks_exact(3).zip(&mut lows).zip(&mut highs) {
            let [low, high] = bounds.of(self.is_tail(w[0]), w[1], w[2]);
            *lo = low.max(0.0).to_bits();
            *hi = high;
        }
        let (_, &mut tau, _) = lows.select_nth_unstable(n - keep);
        (highs, f64::from_bits(tau).min(f64::from(f32::MAX)))
    }
}

/// Step 2 of [`HeavyTailed::fill_pruned`] for one mixture with finite
/// scales: a bracket of each value's `|v|` from its words.
struct Bounds {
    tables: &'static BoundTables,
    /// `|bulk|` and `|tail|`, widened down by `REL_MARGIN`.
    low_scale: [f64; 2],
    /// `|bulk|` and `|tail|`, widened up by `REL_MARGIN`.
    high_scale: [f64; 2],
}

impl Bounds {
    fn new(dist: &HeavyTailed) -> Self {
        let scales = dist.scales().map(|s| f64::from(s.abs()));
        Bounds {
            tables: bound_tables(),
            low_scale: scales.map(|s| s * (1.0 - REL_MARGIN)),
            high_scale: scales.map(|s| s * (1.0 + REL_MARGIN)),
        }
    }

    /// `[lo, hi]` around `|v|` for a value of the given component with
    /// `u1` word `w1` and `u2` word `w2`. The upper bound holds wherever
    /// it is at most `f32::MAX`; above that `v` may round to infinity.
    fn of(&self, tail: bool, w1: u64, w2: u64) -> [f64; 2] {
        let [r_lo, r_hi] = self.tables.radius[(w1 >> BIN_SHIFT) as usize];
        let [c_lo, c_hi] = self.tables.cosine[(w2 >> BIN_SHIFT) as usize];
        let s = tail as usize;
        [
            r_lo * c_lo * self.low_scale[s] - ABS_MARGIN,
            r_hi * c_hi * self.high_scale[s] + ABS_MARGIN,
        ]
    }
}

/// A generator that replays one word another generator drew: an `Rng`
/// call that consumes one `u64` makes on it exactly the value it made on
/// the stream the word came from.
struct Word(u64);

impl RngCore for Word {
    fn next_u32(&mut self) -> u32 {
        (self.0 >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

/// The first `n` words of the Philox stream `(seed, stream)`, in the order
/// `Philox::new(seed, stream)` draws them.
fn stream_words(seed: u64, stream: u64, n: usize) -> Vec<u64> {
    let mut words = vec![0; n.next_multiple_of(2)];
    for (block, pair) in words.chunks_exact_mut(2).enumerate() {
        let (a, b) = Philox::block_at(seed, stream, block as u64);
        pair.copy_from_slice(&[a, b]);
    }
    words.truncate(n);
    words
}

/// The pruning order's key: `|v|`'s bits above the index. `abs` clears the
/// sign of every value, NaN included, so the key orders by `total_cmp` on
/// `|v|`, then by index.
fn prune_key(index: usize, v: f32) -> u64 {
    u64::from(v.abs().to_bits()) << 32 | index as u64
}

/// Zeroes the `count` values of `row` with the smallest of the given
/// [`prune_key`]s.
fn zero_smallest(row: &mut [f32], keys: &mut [u64], count: usize) {
    if count == 0 {
        return;
    }
    keys.select_nth_unstable(count - 1);
    for &key in &keys[..count] {
        row[key as u32 as usize] = 0.0;
    }
}

/// Bits of a value's `u1` and `u2` words that pick its bound-table bins.
const BIN_BITS: u32 = 10;
const BINS: usize = 1 << BIN_BITS;
const BIN_SHIFT: u32 = 64 - BIN_BITS;

/// Widening of each table entry, relative for the radius and absolute for
/// `|cos|`: it covers libm's `ln`/`sqrt`/`cos` error at the entry's edge
/// and at the value itself (under 2^-50 each), and `TAU·u2`'s rounding.
const TABLE_MARGIN: f64 = 1.0 / (1u64 << 40) as f64;
/// Relative widening of a bound: the f64 product's rounding, the f64→f32
/// cast and the f32 scale multiply (2^-24 each), and the bound's own f64
/// arithmetic.
const REL_MARGIN: f64 = 1.0 / (1u64 << 20) as f64;
/// Absolute widening of a bound: the f32 scale multiply's rounding when
/// the product is subnormal (at most 2^-150).
const ABS_MARGIN: f64 = f32::MIN_POSITIVE as f64 / (1u64 << 22) as f64;

/// Per-bin `[lo, hi]` brackets of the two Box–Muller factors as libm
/// computes them: `radius[b]` holds `sqrt(-2 ln u1)` for a `u1` word with
/// top bits `b`, `cosine[b]` holds `|cos(TAU·u2)|` for a `u2` word with top
/// bits `b`.
struct BoundTables {
    radius: Box<[[f64; 2]; BINS]>,
    cosine: Box<[[f64; 2]; BINS]>,
}

fn bound_tables() -> &'static BoundTables {
    static TABLES: OnceLock<BoundTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        // `u1` and `u2` are monotone in their words, so a bin's values lie
        // between those of its edge words `b << BIN_SHIFT` and
        // `(b + 1) << BIN_SHIFT`; the top edge is `u = 1`.
        let edge = |b: usize| Word((b as u64) << BIN_SHIFT);
        let radius_at = |b: usize| {
            if b == BINS {
                0.0
            } else {
                let u1: f64 = edge(b).gen_range(f64::EPSILON..1.0);
                (-2.0 * u1.ln()).sqrt()
            }
        };
        let cos_at = |b: usize| {
            let u2: f64 = if b == BINS {
                1.0
            } else {
                edge(b).gen_range(0.0..1.0)
            };
            (std::f64::consts::TAU * u2).cos().abs()
        };
        let mut radius = Box::new([[0.0; 2]; BINS]);
        let mut cosine = Box::new([[0.0; 2]; BINS]);
        for b in 0..BINS {
            // sqrt(-2 ln u1) falls as u1 rises; |cos| is monotone inside a
            // bin, since bins never straddle a quarter turn.
            radius[b] = [
                radius_at(b + 1) * (1.0 - TABLE_MARGIN),
                radius_at(b) * (1.0 + TABLE_MARGIN),
            ];
            let (c0, c1) = (cos_at(b), cos_at(b + 1));
            cosine[b] = [
                (c0.min(c1) - TABLE_MARGIN).max(0.0),
                c0.max(c1) + TABLE_MARGIN,
            ];
        }
        BoundTables { radius, cosine }
    })
}

impl Distribution<f32> for HeavyTailed {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        HeavyTailed::sample(self, rng)
    }
}

/// Standard normal via Box-Muller (avoids a rand_distr dependency).
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let w1 = rng.next_u64();
    gaussian_words(w1, rng.next_u64())
}

/// Box–Muller on the two words a standard normal draws: `u1` in `[ε, 1)`
/// keeps `ln` finite, `u2` in `[0, 1)`.
fn gaussian_words(w1: u64, w2: u64) -> f32 {
    let u1: f64 = Word(w1).gen_range(f64::EPSILON..1.0);
    let u2: f64 = Word(w2).gen_range(0.0..1.0);
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

/// Fills a new tensor with heavy-tailed synthetic weights. Element `i` is
/// a pure function of `(seed, i)`; see the module-level seeding contract.
pub fn heavy_tailed_tensor(shape: Shape4, dist: HeavyTailed, seed: u64) -> Tensor {
    let mut data = vec![0.0f32; shape.len()];
    par::fill_indexed(&mut data, fill_workers(shape.len()), |i| {
        dist.sample(&mut Philox::new(seed, i as u64))
    });
    Tensor::from_vec(shape, data)
}

/// Fills a new tensor with standard-normal values scaled by `sigma`.
/// Element `i` is a pure function of `(seed, i)`.
pub fn gaussian_tensor(shape: Shape4, sigma: f32, seed: u64) -> Tensor {
    let mut data = vec![0.0f32; shape.len()];
    par::fill_indexed(&mut data, fill_workers(shape.len()), |i| {
        gaussian(&mut Philox::new(seed, i as u64)) * sigma
    });
    Tensor::from_vec(shape, data)
}

/// Fills a new tensor with uniform values in `[lo, hi)` — used for synthetic
/// raw input images (the first layer's 8/16-bit activations). Element `i`
/// is a pure function of `(seed, i)`.
///
/// # Panics
///
/// Panics if `lo >= hi`.
pub fn uniform_tensor(shape: Shape4, lo: f32, hi: f32, seed: u64) -> Tensor {
    assert!(lo < hi, "lo must be less than hi");
    let mut data = vec![0.0f32; shape.len()];
    par::fill_indexed(&mut data, fill_workers(shape.len()), |i| {
        Philox::new(seed, i as u64).gen_range(lo..hi)
    });
    Tensor::from_vec(shape, data)
}

/// Magnitude-prunes a tensor in place to the given sparsity (fraction of
/// zeros), zeroing the smallest-magnitude elements first. Mirrors the
/// Deep-Compression-style pruned models the paper evaluates.
///
/// Returns the exact number of elements zeroed.
///
/// # Panics
///
/// Panics if `sparsity` is outside `[0, 1]`.
pub fn prune_to_sparsity(tensor: &mut Tensor, sparsity: f64) -> usize {
    assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0,1]");
    let n = tensor.len();
    let k = (n as f64 * sparsity).round() as usize;
    if k == 0 {
        return 0;
    }
    let data = tensor.as_mut_slice();
    if k >= n {
        data.fill(0.0);
        return n;
    }
    // Selection on the tie-free (|v|, index) total order: `total_cmp` makes
    // NaN compare (largest, so never pruned before finite values) instead of
    // silently breaking the sort, and the index tiebreak makes the k-smallest
    // set identical to what the old stable full sort chose on finite inputs —
    // in O(n) instead of O(n log n).
    let mut order: Vec<usize> = (0..n).collect();
    order.select_nth_unstable_by(k - 1, |&a, &b| {
        data[a]
            .abs()
            .total_cmp(&data[b].abs())
            .then_with(|| a.cmp(&b))
    });
    for &i in order.iter().take(k) {
        data[i] = 0.0;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavy_tailed_has_outliers() {
        let t = heavy_tailed_tensor(Shape4::new(1, 1, 100, 100), HeavyTailed::default(), 7);
        let max = t.abs_max();
        // Bulk sigma is 0.02; tail should push max well past 4 sigma.
        assert!(max > 0.08, "expected heavy tail, max was {max}");
        // But the bulk should stay narrow: the 50th percentile is small.
        let mut mags: Vec<f32> = t.iter().map(|x| x.abs()).collect();
        mags.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(mags[mags.len() / 2] < 0.03);
    }

    #[test]
    fn deterministic_by_seed() {
        let a = gaussian_tensor(Shape4::new(1, 1, 4, 4), 1.0, 42);
        let b = gaussian_tensor(Shape4::new(1, 1, 4, 4), 1.0, 42);
        assert_eq!(a, b);
        let c = gaussian_tensor(Shape4::new(1, 1, 4, 4), 1.0, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn prune_hits_requested_sparsity() {
        let mut t = gaussian_tensor(Shape4::new(1, 4, 10, 10), 1.0, 3);
        let zeroed = prune_to_sparsity(&mut t, 0.6);
        assert_eq!(zeroed, 240);
        assert!((t.zero_fraction() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn prune_removes_smallest_first() {
        let mut t = Tensor::from_vec(Shape4::new(1, 1, 1, 4), vec![0.1, -3.0, 0.2, 5.0]);
        prune_to_sparsity(&mut t, 0.5);
        assert_eq!(t.as_slice(), &[0.0, -3.0, 0.0, 5.0]);
    }

    #[test]
    fn uniform_bounds_respected() {
        let t = uniform_tensor(Shape4::new(1, 1, 8, 8), -1.0, 1.0, 11);
        assert!(t.iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn prune_zero_sparsity_is_noop() {
        let mut t = gaussian_tensor(Shape4::new(1, 1, 4, 4), 1.0, 9);
        let before = t.clone();
        assert_eq!(prune_to_sparsity(&mut t, 0.0), 0);
        assert_eq!(t, before);
    }

    #[test]
    fn prune_full_sparsity_zeros_everything() {
        let mut t = gaussian_tensor(Shape4::new(1, 1, 4, 4), 1.0, 9);
        assert_eq!(prune_to_sparsity(&mut t, 1.0), 16);
        assert_eq!(t.zero_fraction(), 1.0);
    }

    #[test]
    fn heavy_tailed_tail_fraction_observed() {
        // With tail_scale 6 and bulk sigma 0.02, values beyond ~4 bulk
        // sigmas come almost entirely from the 3% tail component.
        let t = heavy_tailed_tensor(
            Shape4::new(1, 1, 200, 200),
            HeavyTailed::new(0.02, 0.03, 6.0),
            13,
        );
        let big = t.iter().filter(|v| v.abs() > 0.08).count() as f64 / t.len() as f64;
        assert!(big > 0.005 && big < 0.04, "tail mass {big}");
    }

    #[test]
    fn prune_matches_stable_sort_reference() {
        // The selection path must zero exactly the set the old stable full
        // sort zeroed, including under duplicated magnitudes and sign ties.
        let shape = Shape4::new(1, 2, 9, 7);
        let mut t = gaussian_tensor(shape, 1.0, 77);
        {
            let data = t.as_mut_slice();
            data[5] = 0.25;
            data[17] = -0.25;
            data[40] = 0.25;
            data[41] = -0.0;
            data[42] = 0.0;
        }
        let mut reference = t.clone();
        let k = {
            let data = reference.as_mut_slice();
            let mut order: Vec<usize> = (0..data.len()).collect();
            order.sort_by(|&a, &b| {
                data[a]
                    .abs()
                    .total_cmp(&data[b].abs())
                    .then_with(|| a.cmp(&b))
            });
            let k = (data.len() as f64 * 0.45).round() as usize;
            for &i in order.iter().take(k) {
                data[i] = 0.0;
            }
            k
        };
        assert_eq!(prune_to_sparsity(&mut t, 0.45), k);
        assert_eq!(t.as_slice(), reference.as_slice());
    }

    /// The row kernel's selection step zeroes exactly the set a stable
    /// sort on `|v|` zeroes: injected magnitude ties of both signs and
    /// signed zeros resolve by index.
    #[test]
    fn selection_breaks_ties_like_stable_sort() {
        for (cols, sparsity, seed) in [
            (8usize, 0.5, 2u64),
            (64, 0.91, 3),
            (64, 1.0, 4),
            (257, 0.62, 5),
            (1024, 0.91, 6),
        ] {
            let mut row = vec![0.0; cols];
            HeavyTailed::default().fill_pruned(&mut row, seed, 0, 0);
            row[1] = 0.01;
            row[5] = -0.01;
            row[6] = 0.01;
            row[3] = 0.0;
            row[7] = -0.0;
            let k = (cols as f64 * sparsity).round() as usize;
            let mut expect = row.clone();
            let mut order: Vec<usize> = (0..cols).collect();
            order.sort_by(|&a, &b| expect[a].abs().partial_cmp(&expect[b].abs()).unwrap());
            for &j in order.iter().take(k) {
                expect[j] = 0.0;
            }
            let mut keys: Vec<u64> = row
                .iter()
                .enumerate()
                .map(|(j, &v)| prune_key(j, v))
                .collect();
            zero_smallest(&mut row, &mut keys, k);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&expect), bits(&row), "cols={cols} sparsity={sparsity}");
        }
    }

    /// A value's bounds bracket its `|v|` where a bin's values are most
    /// extreme, at the lowest and highest word of every `u1` and `u2` bin,
    /// for both components of normal, subnormal and near-overflow
    /// mixtures. Dropping the relative or the absolute margin fails this.
    #[test]
    fn bounds_bracket_values_at_bin_edges() {
        let edges: Vec<u64> = (0..BINS as u64)
            .flat_map(|b| [b << BIN_SHIFT, ((b + 1) << BIN_SHIFT).wrapping_sub(1)])
            .collect();
        for sigma in [0.02, 2e-44, 5e37] {
            let dist = HeavyTailed {
                sigma,
                ..HeavyTailed::default()
            };
            let bounds = Bounds::new(&dist);
            // Coin 0 draws the tail component, coin u64::MAX the bulk.
            for coin in [0, u64::MAX] {
                for &w1 in &edges {
                    for &w2 in edges.iter().step_by(3) {
                        let [lo, hi] = bounds.of(dist.is_tail(coin), w1, w2);
                        let v = f64::from(dist.sample_words([coin, w1, w2]).abs());
                        assert!(
                            lo <= v && (v <= hi || hi > f64::from(f32::MAX)),
                            "sigma {sigma} words {coin:#x} {w1:#x} {w2:#x}: {v:e} outside [{lo:e}, {hi:e}]"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prune_is_nan_sound() {
        // NaN compares largest under total_cmp, so it is never chosen for
        // pruning ahead of finite values — and the call must not panic.
        let mut t = Tensor::from_vec(
            Shape4::new(1, 1, 1, 5),
            vec![1.0, f32::NAN, -0.0, 0.5, -2.0],
        );
        assert_eq!(prune_to_sparsity(&mut t, 0.4), 2);
        let out = t.as_slice();
        assert_eq!(out[0], 1.0);
        assert!(out[1].is_nan(), "NaN must survive pruning");
        assert_eq!(out[2], 0.0);
        assert_eq!(out[3], 0.0, "-0.0 and 0.5 are the two smallest magnitudes");
        assert_eq!(out[4], -2.0);
    }

    #[test]
    fn fills_bit_identical_across_worker_counts() {
        // The seeding contract: element i depends only on (seed, i), so the
        // same tensor comes out at any fill width. 100x120 clears the
        // parallel cutoff.
        let shape = Shape4::new(1, 1, 100, 120);
        let serial = heavy_tailed_tensor(shape, HeavyTailed::default(), 99);
        crate::par::set_jobs(4);
        let parallel = heavy_tailed_tensor(shape, HeavyTailed::default(), 99);
        crate::par::set_jobs(1);
        assert_eq!(serial, parallel);
        let u_serial = uniform_tensor(shape, -1.0, 1.0, 21);
        crate::par::set_jobs(3);
        let u_parallel = uniform_tensor(shape, -1.0, 1.0, 21);
        assert_eq!(u_serial, u_parallel);
    }

    #[test]
    #[should_panic(expected = "tail_fraction")]
    fn heavy_tailed_validates_fraction() {
        let _ = HeavyTailed::new(0.02, 1.5, 6.0);
    }

    #[test]
    #[should_panic(expected = "lo must be less than hi")]
    fn uniform_validates_bounds() {
        let _ = uniform_tensor(Shape4::new(1, 1, 1, 1), 1.0, -1.0, 0);
    }
}
