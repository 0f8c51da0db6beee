//! Shape arithmetic for 4-D tensors and convolution geometry.

use crate::bytes::Encoder;
use std::fmt;

/// Shape of a 4-D tensor in NCHW order (batch, channels, height, width).
///
/// Also used for convolution kernels, where the interpretation is
/// `(out_channels, in_channels, kernel_h, kernel_w)` — the paper's
/// `K(w x h x i x o)` notation transposed into NCHW-like storage.
///
/// # Example
///
/// ```
/// use ola_tensor::Shape4;
/// let s = Shape4::new(1, 96, 55, 55);
/// assert_eq!(s.len(), 96 * 55 * 55);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Shape4 {
    /// Batch size (or output channels for kernels).
    pub n: usize,
    /// Channels (or input channels for kernels).
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
}

impl Shape4 {
    /// Creates a new shape.
    pub fn new(n: usize, c: usize, h: usize, w: usize) -> Self {
        Shape4 { n, c, h, w }
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.n * self.c * self.h * self.w
    }

    /// Whether the shape contains no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes the four dimensions in NCHW order.
    pub fn encode(&self, e: &mut impl Encoder) {
        e.usize(self.n).usize(self.c).usize(self.h).usize(self.w);
    }

    /// Flat row-major index of `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any coordinate is out of range.
    #[inline]
    pub fn index(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert!(n < self.n && c < self.c && h < self.h && w < self.w);
        ((n * self.c + c) * self.h + h) * self.w + w
    }

    /// Number of spatial positions (`h * w`).
    pub fn spatial(&self) -> usize {
        self.h * self.w
    }
}

impl fmt::Display for Shape4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}x{}", self.n, self.c, self.h, self.w)
    }
}

/// Geometry of a 2-D convolution: kernel size, stride, padding.
///
/// # Example
///
/// ```
/// use ola_tensor::{ConvGeometry, Shape4};
/// // AlexNet conv1: 11x11 kernel, stride 4, pad 2 over a 227x227 input.
/// let g = ConvGeometry::new(11, 4, 2);
/// let (oh, ow) = g.output_hw(227, 227);
/// assert_eq!((oh, ow), (56, 56));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConvGeometry {
    /// Kernel height/width (square kernels only; the five paper networks use
    /// square kernels throughout).
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on each side.
    pub pad: usize,
}

impl ConvGeometry {
    /// Creates a new geometry.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize, pad: usize) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        assert!(stride > 0, "stride must be positive");
        ConvGeometry {
            kernel,
            stride,
            pad,
        }
    }

    /// Output spatial size for an `ih x iw` input.
    pub fn output_hw(&self, ih: usize, iw: usize) -> (usize, usize) {
        let oh = (ih + 2 * self.pad - self.kernel) / self.stride + 1;
        let ow = (iw + 2 * self.pad - self.kernel) / self.stride + 1;
        (oh, ow)
    }

    /// Multiply-accumulate operations for a convolution with `ci` input
    /// channels, `co` output channels over an `ih x iw` input.
    pub fn macs(&self, ci: usize, co: usize, ih: usize, iw: usize) -> u64 {
        let (oh, ow) = self.output_hw(ih, iw);
        (oh * ow * co * ci * self.kernel * self.kernel) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_row_major() {
        let s = Shape4::new(2, 3, 4, 5);
        assert_eq!(s.index(0, 0, 0, 0), 0);
        assert_eq!(s.index(0, 0, 0, 1), 1);
        assert_eq!(s.index(0, 0, 1, 0), 5);
        assert_eq!(s.index(0, 1, 0, 0), 20);
        assert_eq!(s.index(1, 0, 0, 0), 60);
        assert_eq!(s.index(1, 2, 3, 4), s.len() - 1);
    }

    #[test]
    fn conv_geometry_alexnet_layers() {
        // AlexNet conv1: 227 -> 56 (stride 4, k 11, pad 2 in the Caffe variant).
        assert_eq!(ConvGeometry::new(11, 4, 2).output_hw(227, 227), (56, 56));
        // conv2 after pool: 27x27, k5 pad2 stride1 -> 27x27.
        assert_eq!(ConvGeometry::new(5, 1, 2).output_hw(27, 27), (27, 27));
        // 3x3 same conv.
        assert_eq!(ConvGeometry::new(3, 1, 1).output_hw(13, 13), (13, 13));
    }

    #[test]
    fn conv_macs() {
        // 1x1 conv over 2x2 with 3 in, 4 out channels: 2*2*3*4 = 48 MACs.
        assert_eq!(ConvGeometry::new(1, 1, 0).macs(3, 4, 2, 2), 48);
    }

    #[test]
    fn display_shape() {
        assert_eq!(Shape4::new(1, 2, 3, 4).to_string(), "1x2x3x4");
    }

    #[test]
    #[should_panic]
    fn zero_stride_panics() {
        let _ = ConvGeometry::new(3, 0, 1);
    }
}
