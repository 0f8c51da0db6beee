//! Channel-chunk views over activation tensors.
//!
//! OLAccel's PE groups consume activations in chunks of 16 consecutive input
//! channels at one spatial position — the paper's `A(1x1x16)` unit.
//! [`ChunkViews`] / [`ChunkView`] are a random-access grid of *borrowed*
//! chunks over a tensor (or a `(rows, cols)` weight matrix, whose chunks
//! group 16 rows at a fixed column — §III-B's `W(16)` unit). No per-chunk
//! allocation; this is what the fused extraction scans iterate, and the
//! random access is what lets them split chunk ranges across workers.

use crate::shape::Shape4;
use crate::tensor::Tensor;

/// Number of SIMD lanes in a PE group (= activations per chunk).
///
/// The paper fixes this at 16 after the Fig 17 analysis; the simulators allow
/// overriding it for the PE-group-size ablation, but encoded data structures
/// use this default.
pub const CHUNK_LANES: usize = 16;

/// A borrowed chunk: `real` genuine lanes strided through the backing
/// buffer, zero-padded up to `lanes`. Produced by [`ChunkViews`]; no
/// allocation, no copy.
#[derive(Clone, Copy, Debug)]
pub struct ChunkView<'a> {
    data: &'a [f32],
    start: usize,
    stride: usize,
    real: usize,
    lanes: usize,
    /// Batch index (0 for matrix chunks).
    pub n: usize,
    /// First channel (tensor geometry) or first row (matrix geometry)
    /// covered by this chunk.
    pub c0: usize,
    /// Spatial row (0 for matrix chunks).
    pub h: usize,
    /// Spatial column (tensor geometry) or column index (matrix geometry).
    pub w: usize,
}

impl<'a> ChunkView<'a> {
    /// Lane count including zero padding.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Lanes backed by real data (the rest read as 0.0).
    pub fn real_lanes(&self) -> usize {
        self.real
    }

    /// Value of lane `i` (0.0 in the padded tail).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.lanes()`.
    #[inline]
    pub fn lane(&self, i: usize) -> f32 {
        assert!(i < self.lanes, "lane out of range");
        if i < self.real {
            self.data[self.start + i * self.stride]
        } else {
            0.0
        }
    }
}

/// The chunk geometries a [`ChunkViews`] grid can describe.
#[derive(Clone, Copy, Debug)]
enum Geometry {
    /// Activation tensor: `ceil(C / lanes)` chunks per `(n, h, w)` position,
    /// iterated position-major. Lane stride is the channel stride `h * w`.
    Activations {
        shape: Shape4,
        chunks_per_pos: usize,
    },
    /// Row-major `(rows, cols)` matrix: chunks group `lanes` consecutive
    /// rows at one column, iterated band-major then column (the §III-B
    /// weight-chunk order). Lane stride is the row stride `cols`.
    Matrix { rows: usize, cols: usize },
}

/// A random-access grid of borrowed chunks over a tensor or matrix.
///
/// The activation geometry walks `(n, h, w)` positions in row-major order
/// and yields `ceil(C / lanes)` chunks per position, zero-padded past the
/// last channel; the matrix geometry yields the 16-output-channel weight
/// chunks of §III-B. Random access by index is what lets the fused
/// extraction scans partition chunk ranges across workers
/// deterministically.
///
/// # Example
///
/// ```
/// use ola_tensor::{ChunkViews, Shape4, Tensor};
///
/// let t = Tensor::zeros(Shape4::new(1, 20, 2, 2));
/// let views = ChunkViews::activations(&t, 16);
/// // 2x2 spatial positions x ceil(20/16)=2 chunks each.
/// assert_eq!(views.len(), 8);
/// assert_eq!(views.get(1).real_lanes(), 4); // channels 16..20
/// assert_eq!(views.get(1).lane(15), 0.0); // zero-padded
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ChunkViews<'a> {
    data: &'a [f32],
    lanes: usize,
    count: usize,
    geometry: Geometry,
}

impl<'a> ChunkViews<'a> {
    /// Chunk grid over an activation tensor, `lanes` channels per chunk.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn activations(tensor: &'a Tensor, lanes: usize) -> Self {
        assert!(lanes > 0, "lanes must be positive");
        let shape = tensor.shape();
        let chunks_per_pos = shape.c.div_ceil(lanes);
        ChunkViews {
            data: tensor.as_slice(),
            lanes,
            count: shape.n * shape.spatial() * chunks_per_pos,
            geometry: Geometry::Activations {
                shape,
                chunks_per_pos,
            },
        }
    }

    /// Chunk grid over a row-major `(rows, cols)` matrix, `lanes` rows per
    /// chunk (the weight-chunk geometry: 16 output channels at one input
    /// offset).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or `data.len() != rows * cols`.
    pub fn matrix(data: &'a [f32], rows: usize, cols: usize, lanes: usize) -> Self {
        assert!(lanes > 0, "lanes must be positive");
        assert_eq!(data.len(), rows * cols, "matrix buffer length mismatch");
        ChunkViews {
            data,
            lanes,
            count: rows.div_ceil(lanes) * cols,
            geometry: Geometry::Matrix { rows, cols },
        }
    }

    /// Number of chunks in the grid.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Lane count per chunk.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The `idx`-th chunk of the grid.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    pub fn get(&self, idx: usize) -> ChunkView<'a> {
        assert!(idx < self.count, "chunk index out of range");
        match self.geometry {
            Geometry::Activations {
                shape: s,
                chunks_per_pos,
            } => {
                let ci = idx % chunks_per_pos;
                let pos = idx / chunks_per_pos;
                let w = pos % s.w;
                let h = (pos / s.w) % s.h;
                let n = pos / (s.w * s.h);
                let c0 = ci * self.lanes;
                ChunkView {
                    data: self.data,
                    start: s.index(n, c0, h, w),
                    stride: s.h * s.w,
                    real: (s.c - c0).min(self.lanes),
                    lanes: self.lanes,
                    n,
                    c0,
                    h,
                    w,
                }
            }
            Geometry::Matrix { rows, cols } => {
                let band = idx / cols;
                let col = idx % cols;
                let r0 = band * self.lanes;
                ChunkView {
                    data: self.data,
                    start: r0 * cols + col,
                    stride: cols,
                    real: (rows - r0).min(self.lanes),
                    lanes: self.lanes,
                    n: 0,
                    c0: r0,
                    h: 0,
                    w: col,
                }
            }
        }
    }

    /// Iterates the grid's chunks in index order, borrowing.
    pub fn iter(&self) -> impl Iterator<Item = ChunkView<'a>> + '_ {
        (0..self.count).map(move |i| self.get(i))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::shape::Shape4;

    /// Every activation chunk's `[n, c0, h, w]` and padded lanes, read
    /// straight from the tensor by coordinates: the independent reference
    /// the grid (and the scans over it) are checked against.
    pub(crate) fn direct_chunks(t: &Tensor, lanes: usize) -> Vec<([usize; 4], Vec<f32>)> {
        let s = t.shape();
        let mut chunks = Vec::new();
        for n in 0..s.n {
            for h in 0..s.h {
                for w in 0..s.w {
                    for c0 in (0..s.c).step_by(lanes) {
                        let values = (c0..c0 + lanes)
                            .map(|c| if c < s.c { t.get(n, c, h, w) } else { 0.0 })
                            .collect();
                        chunks.push(([n, c0, h, w], values));
                    }
                }
            }
        }
        chunks
    }

    fn lanes_of(view: ChunkView<'_>) -> Vec<f32> {
        (0..view.lanes()).map(|i| view.lane(i)).collect()
    }

    fn nonzero(view: ChunkView<'_>) -> usize {
        lanes_of(view).iter().filter(|&&v| v != 0.0).count()
    }

    #[test]
    fn chunk_count_and_padding() {
        let t = Tensor::zeros(Shape4::new(2, 5, 3, 3));
        let views = ChunkViews::activations(&t, 4);
        assert_eq!(views.len(), 2 * 9 * 2);
        // Second chunk of each position covers channels 4..8, only c=4 real.
        let second = views.get(1);
        assert_eq!(second.c0, 4);
        assert_eq!(second.lanes(), 4);
        assert_eq!(second.real_lanes(), 1);
    }

    #[test]
    fn chunk_values_match_tensor() {
        let mut t = Tensor::zeros(Shape4::new(1, 6, 1, 1));
        for c in 0..6 {
            t.set(0, c, 0, 0, c as f32 + 1.0);
        }
        let views = ChunkViews::activations(&t, 4);
        assert_eq!(lanes_of(views.get(0)), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(lanes_of(views.get(1)), vec![5.0, 6.0, 0.0, 0.0]);
        assert_eq!(nonzero(views.get(1)), 2);
    }

    #[test]
    fn exact_size_iterator_contract() {
        let t = Tensor::zeros(Shape4::new(1, 16, 2, 2));
        let views = ChunkViews::activations(&t, 16);
        assert_eq!(views.len(), 4);
        let mut it = views.iter();
        assert_eq!(it.size_hint(), (4, Some(4)));
        it.next();
        assert_eq!(it.size_hint(), (3, Some(3)));
        assert_eq!(it.count(), 3);
    }

    #[test]
    fn lanes_wider_than_channels() {
        let mut t = Tensor::zeros(Shape4::new(1, 3, 1, 1));
        t.set(0, 2, 0, 0, 5.0);
        let views = ChunkViews::activations(&t, 16);
        assert_eq!(views.len(), 1);
        let chunk = views.get(0);
        assert_eq!((chunk.lanes(), chunk.real_lanes()), (16, 3));
        assert_eq!(nonzero(chunk), 1);
        assert_eq!(chunk.lane(2), 5.0);
        assert!((3..16).all(|lane| chunk.lane(lane) == 0.0));
    }

    #[test]
    fn chunk_coordinates_are_consistent() {
        let t = Tensor::zeros(Shape4::new(2, 4, 2, 3));
        let views = ChunkViews::activations(&t, 4);
        // One chunk per (n, h, w) position.
        assert_eq!(views.len(), 2 * 2 * 3);
        let last = views.get(views.len() - 1);
        assert_eq!((last.n, last.h, last.w, last.c0), (1, 1, 2, 0));
    }

    #[test]
    fn batch_dimension_iterated() {
        let mut t = Tensor::zeros(Shape4::new(2, 16, 1, 1));
        t.set(1, 0, 0, 0, 1.0);
        let views = ChunkViews::activations(&t, 16);
        assert_eq!(nonzero(views.get(0)), 0);
        assert_eq!(nonzero(views.get(1)), 1);
        assert_eq!(views.get(1).n, 1);
    }

    #[test]
    #[should_panic(expected = "lanes must be positive")]
    fn zero_lanes_panics() {
        let t = Tensor::zeros(Shape4::new(1, 1, 1, 1));
        let _ = ChunkViews::activations(&t, 0);
    }

    fn numbered_tensor(shape: Shape4) -> Tensor {
        let data: Vec<f32> = (0..shape.len()).map(|i| (i % 11) as f32 - 3.0).collect();
        Tensor::from_vec(shape, data)
    }

    #[test]
    fn borrowed_views_match_direct_indexing() {
        for shape in [
            Shape4::new(1, 6, 1, 1),
            Shape4::new(2, 5, 3, 3),
            Shape4::new(1, 17, 2, 4),
            Shape4::new(3, 16, 1, 2),
        ] {
            let t = numbered_tensor(shape);
            for lanes in [4, 16] {
                let views = ChunkViews::activations(&t, lanes);
                let reference = direct_chunks(&t, lanes);
                assert_eq!(views.len(), reference.len());
                for (i, (coords, values)) in reference.iter().enumerate() {
                    let view = views.get(i);
                    let what = format!("{shape} lanes {lanes} chunk {i}");
                    assert_eq!([view.n, view.c0, view.h, view.w], *coords, "{what}");
                    assert_eq!(&lanes_of(view), values, "{what}");
                    assert_eq!(view.real_lanes(), (shape.c - coords[1]).min(lanes));
                }
            }
        }
    }
    #[test]
    fn matrix_views_cover_row_bands() {
        // 5 rows x 3 cols at 4 lanes: 2 bands x 3 cols = 6 chunks, in
        // band-major column order; the second band has one real lane.
        let values: Vec<f32> = (0..15).map(|i| i as f32 + 1.0).collect();
        let views = ChunkViews::matrix(&values, 5, 3, 4);
        assert_eq!(views.len(), 6);
        let first = views.get(0);
        assert_eq!(first.real_lanes(), 4);
        assert_eq!(lanes_of(first), vec![1.0, 4.0, 7.0, 10.0]);
        let tail = views.get(4); // band 1, col 1 -> row 4, col 1
        assert_eq!((tail.c0, tail.w), (4, 1));
        assert_eq!(tail.real_lanes(), 1);
        assert_eq!(lanes_of(tail), vec![14.0, 0.0, 0.0, 0.0]);
        // Every matrix element appears in exactly one chunk.
        let mut seen = 0;
        for view in views.iter() {
            seen += view.real_lanes();
        }
        assert_eq!(seen, values.len());
    }

    #[test]
    fn zero_quads_counts_padded_tail() {
        let mut t = Tensor::zeros(Shape4::new(1, 5, 1, 1));
        t.set(0, 4, 0, 0, 2.0);
        let scan = crate::scan::scan_chunks(&ChunkViews::activations(&t, 16), 1);
        // Lanes 0..4 all zero (quad 0 zero); lane 4 non-zero (quad 1 not
        // zero); quads 2 and 3 fully padded -> zero.
        assert_eq!(scan.zero_quads, vec![3]);
        assert_eq!(scan.nnz, vec![1]);
    }
}
