//! The dense 4-D tensor type.

use crate::bytes::Encoder;
use crate::shape::Shape4;

/// A dense, row-major (NCHW) 4-D tensor of `f32` values.
///
/// This is deliberately minimal: the workspace only needs owned dense
/// storage, element access, and bulk iteration. All shape bookkeeping lives
/// in [`Shape4`].
///
/// # Example
///
/// ```
/// use ola_tensor::{Shape4, Tensor};
///
/// let mut t = Tensor::zeros(Shape4::new(1, 2, 2, 2));
/// t.set(0, 1, 0, 1, 3.5);
/// assert_eq!(t.get(0, 1, 0, 1), 3.5);
/// assert_eq!(t.iter().filter(|&&x| x != 0.0).count(), 1);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    shape: Shape4,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: Shape4) -> Self {
        Tensor {
            shape,
            data: vec![0.0; shape.len()],
        }
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.len()`.
    pub fn from_vec(shape: Shape4, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "buffer length {} does not match shape {}",
            data.len(),
            shape
        );
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if a coordinate is out of bounds.
    #[inline]
    pub fn get(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.shape.index(n, c, h, w)]
    }

    /// Sets the element at `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if a coordinate is out of bounds.
    #[inline]
    pub fn set(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        let i = self.shape.index(n, c, h, w);
        self.data[i] = v;
    }

    /// Borrow the raw buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Writes the shape, then the length-prefixed data by exact bits.
    pub fn encode(&self, e: &mut impl Encoder) {
        self.shape.encode(e);
        e.f32s(&self.data);
    }

    /// Contiguous spatial row `(n, c, h, 0..w)` as a slice.
    ///
    /// The compute kernels (`ola-nn::kernels`) gather im2col patches with
    /// row-granularity `copy_from_slice` instead of per-element `get`.
    ///
    /// # Panics
    ///
    /// Panics if `n`, `c` or `h` is out of bounds.
    #[inline]
    pub fn row(&self, n: usize, c: usize, h: usize) -> &[f32] {
        let start = self.shape.index(n, c, h, 0);
        &self.data[start..start + self.shape.w]
    }

    /// Contiguous channel plane `(n, c, 0..h, 0..w)` as a slice of `h * w`
    /// values.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `c` is out of bounds.
    #[inline]
    pub fn plane(&self, n: usize, c: usize) -> &[f32] {
        let start = self.shape.index(n, c, 0, 0);
        &self.data[start..start + self.shape.h * self.shape.w]
    }

    /// Mutable view of channel plane `(n, c, 0..h, 0..w)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `c` is out of bounds.
    #[inline]
    pub fn plane_mut(&mut self, n: usize, c: usize) -> &mut [f32] {
        let start = self.shape.index(n, c, 0, 0);
        let hw = self.shape.h * self.shape.w;
        &mut self.data[start..start + hw]
    }

    /// Mutably borrow the raw buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Iterator over all elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Mutable iterator over all elements in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f32> {
        self.data.iter_mut()
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: FnMut(f32) -> f32>(&mut self, mut f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Fraction of elements equal to zero.
    ///
    /// The zero-skipping machinery in ZeNA and OLAccel keys off this.
    pub fn zero_fraction(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|&&x| x == 0.0).count();
        zeros as f64 / self.data.len() as f64
    }

    /// Maximum absolute value (0.0 for an empty tensor).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, &x| m.max(x.abs()))
    }
}

impl AsRef<[f32]> for Tensor {
    fn as_ref(&self) -> &[f32] {
        &self.data
    }
}

/// Concatenates NCHW tensors along the batch dimension, in order.
///
/// # Panics
///
/// Panics if `samples` is empty or the samples differ in channel or
/// spatial shape.
pub fn stack_batch(samples: &[Tensor]) -> Tensor {
    let first = samples[0].shape();
    let mut data = Vec::with_capacity(samples.iter().map(Tensor::len).sum());
    let mut n = 0;
    for s in samples {
        let sh = s.shape();
        assert_eq!(
            (sh.c, sh.h, sh.w),
            (first.c, first.h, first.w),
            "batched samples differ in shape"
        );
        n += sh.n;
        data.extend_from_slice(s.as_slice());
    }
    Tensor::from_vec(Shape4::new(n, first.c, first.h, first.w), data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set_get() {
        let mut t = Tensor::zeros(Shape4::new(2, 2, 2, 2));
        assert_eq!(t.len(), 16);
        t.set(1, 1, 1, 1, -2.0);
        assert_eq!(t.get(1, 1, 1, 1), -2.0);
        assert_eq!(t.get(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn from_vec_round_trip() {
        let data: Vec<f32> = (0..24).map(|i| i as f32).collect();
        let t = Tensor::from_vec(Shape4::new(1, 2, 3, 4), data.clone());
        assert_eq!(t.into_vec(), data);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_wrong_len_panics() {
        let _ = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![0.0; 3]);
    }

    #[test]
    fn zero_fraction_counts() {
        let t = Tensor::from_vec(Shape4::new(1, 1, 1, 4), vec![0.0, 1.0, 0.0, 2.0]);
        assert_eq!(t.zero_fraction(), 0.5);
    }

    #[test]
    fn abs_max_handles_negatives() {
        let t = Tensor::from_vec(Shape4::new(1, 1, 1, 3), vec![0.5, -4.0, 2.0]);
        assert_eq!(t.abs_max(), 4.0);
    }

    #[test]
    fn row_and_plane_views_are_contiguous() {
        let data: Vec<f32> = (0..24).map(|i| i as f32).collect();
        let mut t = Tensor::from_vec(Shape4::new(1, 2, 3, 4), data);
        assert_eq!(t.row(0, 1, 2), &[20.0, 21.0, 22.0, 23.0]);
        assert_eq!(
            t.plane(0, 0),
            &(0..12).map(|i| i as f32).collect::<Vec<_>>()[..]
        );
        t.plane_mut(0, 1).fill(0.0);
        assert_eq!(t.plane(0, 1), &[0.0; 12]);
    }

    #[test]
    fn map_inplace_applies() {
        let mut t = Tensor::from_vec(Shape4::new(1, 1, 1, 3), vec![-1.0, 0.0, 2.0]);
        t.map_inplace(|x| x.max(0.0));
        assert_eq!(t.as_slice(), &[0.0, 0.0, 2.0]);
    }
}
