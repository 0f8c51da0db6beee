//! The band-major chunk grid: the one walker of OLAccel's chunk geometry.
//!
//! OLAccel consumes activations as 16-channel `A(1×1×16)` chunks, which the
//! zero-skip scanner reads four lanes at a time, and weights as chunks of 16
//! output channels (§III). Both are 16 consecutive rows at one column of a
//! row-major matrix: an NCHW tensor is N stacked `(C, H·W)` matrices, so an
//! activation chunk is 16 channels at one pixel. A *band* is the 16 rows one
//! row of chunks covers, contiguous in memory, so every pass here walks
//! bands row by row and keeps per-chunk state in one slot per column; none
//! strides across rows. Each pass splits contiguous band ranges over up to
//! `jobs` workers and gives the same bytes at any split.
//!
//! * [`occupancy`]: every chunk's non-zero lanes and all-zero quads, in
//!   position-major order, plus the population's non-zero count and
//!   absolute maximum.
//! * [`census`] and [`select_kth`]: the exact k-th largest score, from a
//!   histogram of [`f32::total_cmp`] keys plus a selection inside the one
//!   bucket holding rank k; no pass builds a population-sized buffer.
//! * [`count_grid`]: zeros, outliers and per-chunk outlier multiplicity
//!   under a resolved [`Rule`]. A lane passes a threshold iff its score key
//!   is at least the threshold's, so counting agrees with ranking on every
//!   value, NaN and infinities included.

use ola_tensor::par::{ordered_map, split_ranges};
use ola_tensor::{Tensor, CHUNK_LANES};

/// Matrix rows per band: a chunk is 16 consecutive rows at one column, so
/// one row of chunks — a band — is 16 whole rows, contiguous in memory.
/// Every kernel pass walks bands row by row and keeps per-chunk state in
/// one slot per column, so no pass strides across rows.
const BAND_ROWS: usize = CHUNK_LANES;

/// Stacked row-major `(rows, cols)` matrices chunked into bands: one weight
/// matrix, or an NCHW activation tensor as N matrices of `(C, H·W)` (a
/// chunk is then 16 channels at one pixel).
#[derive(Clone, Copy)]
pub(crate) struct Grid<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
}

impl<'a> Grid<'a> {
    /// One `(rows, cols)` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub(crate) fn matrix(data: &'a [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix buffer length mismatch");
        Grid { data, rows, cols }
    }

    /// The first `images` images of an activation tensor.
    pub(crate) fn activations(tensor: &'a Tensor, images: usize) -> Self {
        let s = tensor.shape();
        Grid {
            data: &tensor.as_slice()[..images * s.c * s.h * s.w],
            rows: s.c,
            cols: s.h * s.w,
        }
    }

    fn bands_per_matrix(&self) -> usize {
        self.rows.div_ceil(BAND_ROWS)
    }

    /// Bands over all matrices (none for an empty grid).
    fn bands(&self) -> usize {
        if self.data.is_empty() {
            return 0;
        }
        self.data.len() / (self.rows * self.cols) * self.bands_per_matrix()
    }

    /// Lanes over all matrices (padding excluded).
    pub(crate) fn lanes(&self) -> usize {
        self.data.len()
    }

    /// Chunks over all matrices: one per column of every band.
    pub(crate) fn chunks(&self) -> usize {
        self.bands() * self.cols
    }

    /// The rows of band `b`, a contiguous run of the buffer.
    fn band(&self, b: usize) -> &'a [f32] {
        let per = self.bands_per_matrix();
        let r0 = (b % per) * BAND_ROWS;
        let start = ((b / per) * self.rows + r0) * self.cols;
        let real = (self.rows - r0).min(BAND_ROWS);
        &self.data[start..start + real * self.cols]
    }
}

/// What the occupancy pass measured over an activation grid.
pub(crate) struct Occupancy {
    /// Non-zero lanes of every chunk, in position-major order: images,
    /// then pixels, then channel groups (`ceil(C / 16)` chunks per pixel).
    pub(crate) nnz: Vec<u8>,
    /// All-zero 4-lane quads of every chunk, in the same order — each costs
    /// the zero-skip scanner one overhead cycle (§V). A quad of zero
    /// padding past the last channel counts as zero.
    pub(crate) zero_quads: Vec<u8>,
    /// Lanes in the grid (padding excluded).
    pub(crate) total: usize,
    /// Non-zero lanes (NaN included, as `v != 0.0` has it).
    pub(crate) nonzero: usize,
    /// The largest non-NaN `|v|` (the `f32::max` fold from `0.0`).
    pub(crate) abs_max: f32,
}

/// The occupancy pass: per-chunk non-zero lanes and zero quads plus the
/// population counts, over contiguous band ranges on up to `jobs` workers.
/// Each worker builds its bands' chunk counts in band order, one slot per
/// column, with branch-free adds; the merge places every chunk at its
/// position-major index. Each slot is written once and the counts and the
/// `f32::max` fold are order-independent, so any split gives the same
/// bytes.
pub(crate) fn occupancy(grid: Grid<'_>, jobs: usize) -> Occupancy {
    let cols = grid.cols;
    let ranges = split_ranges(grid.bands(), jobs);
    let parts = ordered_map(&ranges, jobs, |_, range| {
        let mut nnz = vec![0u8; range.len() * cols];
        let mut zero_quads = vec![0u8; range.len() * cols];
        let mut live = vec![0u8; cols];
        let mut abs_max = 0.0_f32;
        for (i, b) in range.clone().enumerate() {
            let band = grid.band(b);
            let nnz = &mut nnz[i * cols..(i + 1) * cols];
            let zero_quads = &mut zero_quads[i * cols..(i + 1) * cols];
            // Quads wholly past the band's real rows are zero padding.
            let real_quads = (band.len() / cols).div_ceil(4);
            zero_quads.fill((BAND_ROWS / 4 - real_quads) as u8);
            for quad in band.chunks(4 * cols) {
                live.fill(0);
                for row in quad.chunks_exact(cols) {
                    for ((n, l), &v) in nnz.iter_mut().zip(live.iter_mut()).zip(row) {
                        let nz = u8::from(v != 0.0);
                        *n += nz;
                        *l |= nz;
                    }
                    abs_max = row.iter().fold(abs_max, |m, &v| m.max(v.abs()));
                }
                for (z, &l) in zero_quads.iter_mut().zip(&live) {
                    *z += u8::from(l == 0);
                }
            }
        }
        (nnz, zero_quads, abs_max)
    });
    let per = grid.bands_per_matrix();
    let mut occupancy = Occupancy {
        nnz: vec![0; grid.chunks()],
        zero_quads: vec![0; grid.chunks()],
        total: grid.lanes(),
        nonzero: 0,
        abs_max: 0.0,
    };
    for (range, (nnz, zero_quads, abs_max)) in ranges.iter().zip(parts) {
        for (i, b) in range.clone().enumerate() {
            // Band `b` is channel group `b % per` of image `b / per`; its
            // column `p` is the chunk at that image's pixel `p`.
            let (image, group) = (b / per, b % per);
            for p in 0..cols {
                let slot = (image * cols + p) * per + group;
                occupancy.nnz[slot] = nnz[i * cols + p];
                occupancy.zero_quads[slot] = zero_quads[i * cols + p];
            }
        }
        occupancy.nonzero += nnz.iter().map(|&n| usize::from(n)).sum::<usize>();
        occupancy.abs_max = occupancy.abs_max.max(abs_max);
    }
    occupancy
}

/// How a global policy ranks a lane.
#[derive(Clone, Copy)]
pub(crate) enum Score {
    /// `|v|`.
    Magnitude,
    /// `|v| * rms(window)`: the RMS over the lane's window of its chunk,
    /// zeros included, accumulated in lane order.
    Sensitivity { window: usize },
}

/// A per-chunk outlier rule with its calibration resolved.
#[derive(Clone, Copy)]
pub(crate) enum Rule {
    /// Outliers disabled (zeros still count).
    None,
    /// Non-zero lanes whose score [`key`] is at least `key`.
    AtLeast { score: Score, key: u32 },
    /// Top-1 per `window` lanes of each chunk: one outlier per window that
    /// holds a non-zero lane.
    Windowed { window: usize },
}

const SIGN: u32 = 0x8000_0000;

/// Maps an `f32` to a `u32` whose unsigned order is [`f32::total_cmp`]'s
/// order (sign-bit-set NaN lowest, positive NaN highest). The map is a
/// bijection, so equal keys are bit-identical values.
#[inline]
pub(crate) fn key(v: f32) -> u32 {
    let bits = v.to_bits();
    bits ^ ((((bits as i32) >> 31) as u32) | SIGN)
}

/// Inverse of [`key`].
pub(crate) fn from_key(k: u32) -> f32 {
    f32::from_bits(if k & SIGN != 0 { k ^ SIGN } else { !k })
}

/// The key every zero lane takes instead of its score: [`key`] of `-0.0`.
/// No score is negative unless it is NaN, so this key's histogram bucket
/// holds the zero lanes and nothing else: the census counts them for free
/// and the rankings skip them without a per-lane test.
pub(crate) const ZERO_LANE: u32 = SIGN - 1;

/// Histogram buckets are a key's top 12 bits: sign, exponent and three
/// mantissa bits.
const BUCKET_SHIFT: u32 = 20;
const BUCKETS: usize = 1 << (32 - BUCKET_SHIFT);
pub(crate) const ZERO_BUCKET: usize = (ZERO_LANE >> BUCKET_SHIFT) as usize;

/// Consecutive lanes increment different sub-histograms, so a run of lanes
/// in one bucket (the zeros, mostly) is not one chain of dependent
/// read-modify-writes.
const SUB_HISTOGRAMS: usize = 4;

#[inline]
pub(crate) fn bucket(k: u32) -> usize {
    (k >> BUCKET_SHIFT) as usize
}

/// Walks one band in memory order, handing `visit` each row with its
/// lanes' score keys ([`ZERO_LANE`] for zero lanes). Every selection
/// below is arithmetic, not a branch: most weights are zero (66–82 % of
/// AlexNet's, ResNet-18's and DenseNet-121's dense weights), in no pattern
/// a branch predictor could learn. `keys` and `rms` are column-sized
/// scratch.
fn for_each_keyed_row(
    band: &[f32],
    score: Score,
    keys: &mut [u32],
    rms: &mut [f32],
    mut visit: impl FnMut(&[f32], &[u32]),
) {
    let cols = keys.len();
    match score {
        Score::Magnitude => {
            for row in band.chunks_exact(cols) {
                for (k, &v) in keys.iter_mut().zip(row) {
                    // key(|v|): clearing the sign bit, then setting it,
                    // just sets it. `±0.0` land on `SIGN`, one above
                    // `ZERO_LANE`.
                    let m = v.to_bits() | SIGN;
                    *k = m - u32::from(m == SIGN);
                }
                visit(row, keys);
            }
        }
        Score::Sensitivity { window } => {
            for rows in band.chunks(window.min(BAND_ROWS) * cols) {
                rms.fill(0.0);
                for row in rows.chunks_exact(cols) {
                    for (sum_sq, &v) in rms.iter_mut().zip(row) {
                        *sum_sq += v * v;
                    }
                }
                let lanes = (rows.len() / cols) as f32;
                for r in rms.iter_mut() {
                    *r = (*r / lanes).sqrt();
                }
                for row in rows.chunks_exact(cols) {
                    for ((k, &v), &r) in keys.iter_mut().zip(row).zip(rms.iter()) {
                        let live = u32::from(v != 0.0).wrapping_neg();
                        *k = (key(v.abs() * r) & live) | (ZERO_LANE & !live);
                    }
                    visit(row, keys);
                }
            }
        }
    }
}

/// What the ranking pass measured over a grid.
pub(crate) struct Census {
    /// Lanes per key bucket; the zero lanes are [`ZERO_BUCKET`]'s.
    hist: Vec<u64>,
    /// Lanes in the grid.
    pub(crate) total: usize,
    /// Of a magnitude census: the largest non-NaN `|v|` (the `f32::max`
    /// fold from `0.0`).
    pub(crate) abs_max: f32,
}

impl Census {
    /// Lanes that take part in a ranking.
    pub(crate) fn nonzero(&self) -> usize {
        self.total - self.hist[ZERO_BUCKET] as usize
    }
}

/// The ranking pass: a histogram of every lane's score key over contiguous
/// band ranges on up to `jobs` workers. Integer counts sum exactly, so any
/// split gives the same census.
pub(crate) fn census(grid: Grid<'_>, score: Score, jobs: usize) -> Census {
    if let Score::Sensitivity { window } = score {
        assert!(window >= 1, "window must be at least 1");
    }
    let ranges = split_ranges(grid.bands(), jobs);
    let parts = ordered_map(&ranges, jobs, |_, range| {
        let mut hist = vec![[0u32; BUCKETS]; SUB_HISTOGRAMS];
        let mut abs_max = 0.0_f32;
        let mut keys = vec![0; grid.cols];
        let mut rms = vec![0.0; grid.cols];
        for b in range.clone() {
            for_each_keyed_row(grid.band(b), score, &mut keys, &mut rms, |row, keys| {
                let mut quads = keys.chunks_exact(SUB_HISTOGRAMS);
                for quad in &mut quads {
                    for (h, &k) in hist.iter_mut().zip(quad) {
                        h[bucket(k)] += 1;
                    }
                }
                for &k in quads.remainder() {
                    hist[0][bucket(k)] += 1;
                }
                if let Score::Magnitude = score {
                    abs_max = row.iter().fold(abs_max, |m, &v| m.max(v.abs()));
                }
            });
        }
        (hist, abs_max)
    });
    let mut census = Census {
        hist: vec![0; BUCKETS],
        total: grid.lanes(),
        abs_max: 0.0,
    };
    for (hist, abs_max) in parts {
        for sub in &hist {
            for (sum, &n) in census.hist.iter_mut().zip(sub) {
                *sum += u64::from(n);
            }
        }
        census.abs_max = census.abs_max.max(abs_max);
    }
    census
}

/// Rank of the top-`ratio` threshold among `n` ranked lanes.
pub(crate) fn top_k(n: usize, ratio: f64) -> usize {
    ((n as f64 * ratio).ceil() as usize).clamp(1, n)
}

/// The `k`-th largest (1-based, under `total_cmp`) score of the grid's
/// non-zero lanes. The census locates the one bucket holding rank `k`; one
/// more walk gathers that bucket's keys, and `select_nth` ranks inside it.
/// Exact: every key above the bucket outranks every key in it.
pub(crate) fn select_kth(
    grid: Grid<'_>,
    score: Score,
    census: &Census,
    k: usize,
    jobs: usize,
) -> f32 {
    assert!(
        (1..=census.nonzero()).contains(&k),
        "rank must be in 1..=non-zero lanes"
    );
    // Non-zero lanes in the buckets above `target`.
    let mut above = 0;
    let mut target = 0;
    for b in (0..BUCKETS).rev().filter(|&b| b != ZERO_BUCKET) {
        let lanes = census.hist[b] as usize;
        if above + lanes >= k {
            target = b;
            break;
        }
        above += lanes;
    }
    let ranges = split_ranges(grid.bands(), jobs);
    let parts = ordered_map(&ranges, jobs, |_, range| {
        let mut found = Vec::new();
        let mut keys = vec![0; grid.cols];
        let mut rms = vec![0.0; grid.cols];
        for b in range.clone() {
            for_each_keyed_row(grid.band(b), score, &mut keys, &mut rms, |_, keys| {
                for &k in keys {
                    if bucket(k) == target {
                        found.push(k);
                    }
                }
            });
        }
        found
    });
    let mut found = parts.concat();
    let (_, kth, _) = found.select_nth_unstable_by(k - above - 1, |a, b| b.cmp(a));
    from_key(*kth)
}

/// Exactly-zero lanes of `values`, counted in `u32` runs: a `u32` count
/// vectorizes twice as wide as a `usize` one.
fn zero_lanes(values: &[f32]) -> u64 {
    values
        .chunks(1 << 16)
        .map(|run| u64::from(run.iter().map(|&v| u32::from(v == 0.0)).sum::<u32>()))
        .sum()
}

/// What the counting pass measured over a grid.
#[derive(Default)]
pub(crate) struct Counts {
    /// Exactly-zero lanes.
    pub(crate) zeros: u64,
    /// Outlier lanes.
    pub(crate) outliers: u64,
    /// Chunks with exactly one outlier.
    pub(crate) single: u64,
    /// Chunks with two or more outliers.
    pub(crate) multi: u64,
}

/// The counting pass: zeros, outliers and per-chunk outlier multiplicity
/// under `rule`, over contiguous band ranges on up to `jobs` workers. A
/// band's per-chunk counts build up row by row with branch-free adds, one
/// slot per column, then fold into the totals.
pub(crate) fn count_grid(grid: Grid<'_>, rule: Rule, jobs: usize) -> Counts {
    if let Rule::Windowed { window }
    | Rule::AtLeast {
        score: Score::Sensitivity { window },
        ..
    } = rule
    {
        assert!(window >= 1, "window must be at least 1");
    }
    let ranges = split_ranges(grid.bands(), jobs);
    let parts = ordered_map(&ranges, jobs, |_, range| {
        let mut counts = Counts::default();
        let mut per_chunk = vec![0u8; grid.cols];
        let mut live = vec![0u8; grid.cols];
        let mut keys = vec![0; grid.cols];
        let mut rms = vec![0.0; grid.cols];
        for b in range.clone() {
            let band = grid.band(b);
            counts.zeros += zero_lanes(band);
            per_chunk.fill(0);
            match rule {
                Rule::None => {}
                Rule::AtLeast { score, key } => {
                    for_each_keyed_row(band, score, &mut keys, &mut rms, |_, keys| {
                        for (n, &k) in per_chunk.iter_mut().zip(keys) {
                            *n += u8::from((k >= key) & (k != ZERO_LANE));
                        }
                    });
                }
                Rule::Windowed { window } => {
                    for rows in band.chunks(window.min(BAND_ROWS) * grid.cols) {
                        live.fill(0);
                        for row in rows.chunks_exact(grid.cols) {
                            for (l, &v) in live.iter_mut().zip(row) {
                                *l |= u8::from(v != 0.0);
                            }
                        }
                        for (n, &l) in per_chunk.iter_mut().zip(&live) {
                            *n += l;
                        }
                    }
                }
            }
            for &n in &per_chunk {
                counts.outliers += u64::from(n);
                counts.single += u64::from(n == 1);
                counts.multi += u64::from(n >= 2);
            }
        }
        counts
    });
    parts.into_iter().fold(Counts::default(), |a, p| Counts {
        zeros: a.zeros + p.zeros,
        outliers: a.outliers + p.outliers,
        single: a.single + p.single,
        multi: a.multi + p.multi,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ola_tensor::init::uniform_tensor;
    use ola_tensor::Shape4;

    fn sparse_tensor(shape: Shape4, seed: u64) -> Tensor {
        let mut t = uniform_tensor(shape, -1.0, 1.0, seed);
        t.map_inplace(|v| if v < 0.0 { 0.0 } else { v });
        t
    }

    fn numbered_tensor(shape: Shape4) -> Tensor {
        let data: Vec<f32> = (0..shape.len()).map(|i| (i % 11) as f32 - 3.0).collect();
        Tensor::from_vec(shape, data)
    }

    /// Every activation chunk's lanes, zero-padded to 16, read from the
    /// tensor by coordinates in position-major order: the independent
    /// reference the occupancy pass is checked against.
    fn direct_chunks(t: &Tensor) -> Vec<Vec<f32>> {
        let s = t.shape();
        let mut chunks = Vec::new();
        for n in 0..s.n {
            for h in 0..s.h {
                for w in 0..s.w {
                    for c0 in (0..s.c).step_by(CHUNK_LANES) {
                        let lanes = (c0..c0 + CHUNK_LANES)
                            .map(|c| if c < s.c { t.get(n, c, h, w) } else { 0.0 })
                            .collect();
                        chunks.push(lanes);
                    }
                }
            }
        }
        chunks
    }

    fn occupancy_bits(o: &Occupancy) -> (Vec<u8>, Vec<u8>, usize, usize, u32) {
        (
            o.nnz.clone(),
            o.zero_quads.clone(),
            o.total,
            o.nonzero,
            o.abs_max.to_bits(),
        )
    }

    #[test]
    fn chunk_count_and_padding() {
        // C = 20: two channel groups per pixel, the second with 4 real rows.
        let t = Tensor::zeros(Shape4::new(2, 20, 3, 3));
        let grid = Grid::activations(&t, 2);
        assert_eq!((grid.bands(), grid.chunks()), (2 * 2, 2 * 9 * 2));
        assert_eq!(grid.band(1).len(), 4 * 9);
        let occupancy = occupancy(grid, 1);
        assert_eq!(occupancy.nnz, vec![0; 36]);
        // An all-zero chunk has four zero quads, padded ones included.
        assert_eq!(occupancy.zero_quads, vec![4; 36]);
        assert_eq!((occupancy.total, occupancy.nonzero), (2 * 20 * 9, 0));
    }

    #[test]
    fn chunk_values_match_tensor() {
        // One pixel of 20 channels holding c + 1, except zeros at 2 and 17.
        let mut t = Tensor::zeros(Shape4::new(1, 20, 1, 1));
        for c in (0..20).filter(|&c| c != 2 && c != 17) {
            t.set(0, c, 0, 0, c as f32 + 1.0);
        }
        let grid = Grid::activations(&t, 1);
        assert_eq!(grid.band(0), &t.as_slice()[..16]);
        assert_eq!(grid.band(1), [17.0, 0.0, 19.0, 20.0]);
        let occupancy = occupancy(grid, 1);
        assert_eq!(occupancy.nnz, vec![15, 3]);
        // The second chunk's one real quad is live; the rest is padding.
        assert_eq!(occupancy.zero_quads, vec![0, 3]);
        assert_eq!(occupancy.abs_max, 20.0);
    }

    #[test]
    fn lanes_wider_than_channels() {
        // C = 3 < 4: one chunk per pixel, 13 lanes of padding.
        let mut t = Tensor::zeros(Shape4::new(1, 3, 1, 1));
        t.set(0, 2, 0, 0, 5.0);
        let grid = Grid::activations(&t, 1);
        assert_eq!((grid.bands(), grid.chunks()), (1, 1));
        assert_eq!(grid.band(0), [0.0, 0.0, 5.0]);
        let occupancy = occupancy(grid, 1);
        assert_eq!((occupancy.nnz[0], occupancy.zero_quads[0]), (1, 3));
        assert_eq!((occupancy.total, occupancy.nonzero), (3, 1));
        assert_eq!(occupancy.abs_max, 5.0);
    }

    /// Position-major order: the chunk at image `n`, pixel `(h, w)` and
    /// channel group `g` sits at slot `((n·H + h)·W + w)·groups + g`.
    #[test]
    fn chunk_coordinates_are_consistent() {
        let shape = Shape4::new(2, 20, 2, 3);
        for (n, c, h, w) in [(0, 0, 0, 0), (0, 17, 0, 1), (1, 3, 1, 0), (1, 19, 1, 2)] {
            let mut t = Tensor::zeros(shape);
            t.set(n, c, h, w, 1.0);
            let mut expect = vec![0; 2 * 2 * 3 * 2];
            expect[((n * 2 + h) * 3 + w) * 2 + c / CHUNK_LANES] = 1;
            for jobs in [1, 3] {
                let occupancy = occupancy(Grid::activations(&t, 2), jobs);
                assert_eq!(
                    occupancy.nnz, expect,
                    "lane ({n}, {c}, {h}, {w}) jobs {jobs}"
                );
            }
        }
    }

    #[test]
    fn batch_dimension_iterated() {
        let mut t = Tensor::zeros(Shape4::new(2, 16, 1, 1));
        t.set(1, 0, 0, 0, 1.0);
        assert_eq!(occupancy(Grid::activations(&t, 2), 1).nnz, vec![0, 1]);
        // A one-image prefix stops before the second image.
        let prefix = occupancy(Grid::activations(&t, 1), 1);
        assert_eq!((prefix.nnz, prefix.total, prefix.nonzero), (vec![0], 16, 0));
    }

    /// A band borrows a run of the tensor's buffer: its row `r`, column `p`
    /// is channel `16·(b mod groups) + r` of image `b / groups` at pixel `p`.
    #[test]
    fn borrowed_views_match_direct_indexing() {
        for shape in [
            Shape4::new(1, 6, 1, 1),
            Shape4::new(2, 5, 3, 3),
            Shape4::new(1, 17, 2, 4),
            Shape4::new(3, 16, 1, 2),
            Shape4::new(2, 40, 3, 2),
        ] {
            let t = numbered_tensor(shape);
            let grid = Grid::activations(&t, shape.n);
            let groups = shape.c.div_ceil(CHUNK_LANES);
            let pixels = shape.h * shape.w;
            assert_eq!(grid.bands(), shape.n * groups, "{shape}");
            for b in 0..grid.bands() {
                let (n, c0) = (b / groups, b % groups * CHUNK_LANES);
                let band = grid.band(b);
                let rows = (shape.c - c0).min(CHUNK_LANES);
                assert_eq!(band.len(), rows * pixels, "{shape} band {b}");
                for (i, &v) in band.iter().enumerate() {
                    let (c, p) = (c0 + i / pixels, i % pixels);
                    let direct = t.get(n, c, p / shape.w, p % shape.w);
                    assert_eq!(v, direct, "{shape} band {b} lane {i}");
                }
            }
        }
    }

    #[test]
    fn matrix_views_cover_row_bands() {
        // 40 rows × 3 columns: bands of rows 0..16, 16..32 and 32..40, nine
        // chunks, and every element in exactly one band.
        let values: Vec<f32> = (0..120).map(|i| i as f32 + 1.0).collect();
        let grid = Grid::matrix(&values, 40, 3);
        assert_eq!((grid.bands(), grid.chunks(), grid.lanes()), (3, 9, 120));
        assert_eq!(grid.band(0), &values[..48]);
        assert_eq!(grid.band(1), &values[48..96]);
        assert_eq!(grid.band(2), &values[96..]);
        let bands: Vec<f32> = (0..grid.bands())
            .flat_map(|b| grid.band(b).to_vec())
            .collect();
        assert_eq!(bands, values);
    }

    #[test]
    fn zero_quads_counts_padded_tail() {
        let mut t = Tensor::zeros(Shape4::new(1, 5, 1, 1));
        t.set(0, 4, 0, 0, 2.0);
        let occupancy = occupancy(Grid::activations(&t, 1), 1);
        // Lanes 0..4 all zero (quad 0 zero); lane 4 non-zero (quad 1 not
        // zero); quads 2 and 3 fully padded -> zero.
        assert_eq!(occupancy.zero_quads, vec![3]);
        assert_eq!(occupancy.nnz, vec![1]);
        assert_eq!((occupancy.total, occupancy.nonzero), (5, 1));
    }

    /// Every chunk's counts against lanes read by coordinates: channel
    /// tails (C < 4, C < 16, C = 20, 40), batches and a wide tensor.
    #[test]
    fn occupancy_matches_direct_chunk_reads() {
        for shape in [
            Shape4::new(1, 3, 2, 2),
            Shape4::new(2, 5, 3, 3),
            Shape4::new(1, 20, 9, 9),
            Shape4::new(3, 16, 1, 2),
            Shape4::new(2, 40, 6, 5),
            Shape4::new(1, 64, 17, 13),
        ] {
            let t = sparse_tensor(shape, 11);
            let (mut nnz, mut zero_quads) = (Vec::new(), Vec::new());
            for lanes in direct_chunks(&t) {
                nnz.push(lanes.iter().filter(|&&v| v != 0.0).count() as u8);
                let zero = |q: &&[f32]| q.iter().all(|&v| v == 0.0);
                zero_quads.push(lanes.chunks(4).filter(zero).count() as u8);
            }
            let occupancy = occupancy(Grid::activations(&t, shape.n), 1);
            assert_eq!(occupancy.nnz, nnz, "{shape}");
            assert_eq!(occupancy.zero_quads, zero_quads, "{shape}");
            // The population counts cover the tensor exactly once.
            let zeros = t.as_slice().iter().filter(|&&v| v == 0.0).count();
            assert_eq!(
                (occupancy.total, occupancy.nonzero),
                (t.len(), t.len() - zeros)
            );
            assert_eq!(occupancy.abs_max, t.abs_max());
        }
    }

    #[test]
    fn occupancy_identical_at_any_worker_count() {
        for shape in [
            Shape4::new(1, 40, 24, 24),
            Shape4::new(3, 20, 4, 4),
            Shape4::new(2, 5, 3, 3),
        ] {
            let t = sparse_tensor(shape, 3);
            let grid = Grid::activations(&t, shape.n);
            let serial = occupancy_bits(&occupancy(grid, 1));
            for jobs in [2, 5, 16] {
                let parallel = occupancy_bits(&occupancy(grid, jobs));
                assert_eq!(parallel, serial, "{shape} jobs {jobs}");
            }
        }
    }

    /// The magnitude census and the k-th largest score it locates are the
    /// same at any worker count, and the rank matches a sort.
    #[test]
    fn ranking_identical_at_any_worker_count() {
        let t = sparse_tensor(Shape4::new(1, 24, 32, 32), 7);
        let grid = Grid::activations(&t, 1);
        let serial = census(grid, Score::Magnitude, 1);
        let zeros = t.as_slice().iter().filter(|&&v| v == 0.0).count();
        assert_eq!((serial.total, serial.nonzero()), (t.len(), t.len() - zeros));
        assert_eq!(serial.abs_max, t.abs_max());
        let mut sorted: Vec<f32> = t
            .as_slice()
            .iter()
            .filter(|&&v| v != 0.0)
            .map(|v| v.abs())
            .collect();
        sorted.sort_by(|a, b| b.total_cmp(a));
        for jobs in [1, 2, 3, 8] {
            let census = census(grid, Score::Magnitude, jobs);
            assert_eq!(census.hist, serial.hist, "jobs {jobs}");
            assert_eq!(census.abs_max.to_bits(), serial.abs_max.to_bits());
            for k in [1, sorted.len() / 2, sorted.len()] {
                let kth = select_kth(grid, Score::Magnitude, &census, k, jobs);
                assert_eq!(kth.to_bits(), sorted[k - 1].to_bits(), "k {k} jobs {jobs}");
            }
        }
    }

    /// Over a matrix grid whose every non-zero lane passes the threshold,
    /// each element is counted once, as a zero or as an outlier, and each
    /// chunk's multiplicity is its non-zero rows.
    #[test]
    fn counting_covers_every_element_once() {
        let (rows, cols) = (35, 5);
        let values: Vec<f32> = (0..rows * cols)
            .map(|i| if i % 3 == 0 { 0.0 } else { i as f32 })
            .collect();
        let grid = Grid::matrix(&values, rows, cols);
        let zeros = values.iter().filter(|&&v| v == 0.0).count() as u64;
        let (mut single, mut multi) = (0, 0);
        for r0 in (0..rows).step_by(CHUNK_LANES) {
            for col in 0..cols {
                let live = (r0..(r0 + CHUNK_LANES).min(rows))
                    .filter(|&r| values[r * cols + col] != 0.0)
                    .count();
                single += u64::from(live == 1);
                multi += u64::from(live >= 2);
            }
        }
        let all = Rule::AtLeast {
            score: Score::Magnitude,
            key: key(1.0),
        };
        for jobs in [1, 3] {
            let counts = count_grid(grid, all, jobs);
            assert_eq!(counts.zeros, zeros, "jobs {jobs}");
            assert_eq!(counts.zeros + counts.outliers, values.len() as u64);
            assert_eq!(
                (counts.single, counts.multi),
                (single, multi),
                "jobs {jobs}"
            );
            let none = count_grid(grid, Rule::None, jobs);
            assert_eq!((none.zeros, none.outliers, none.single), (zeros, 0, 0));
        }
    }
}
