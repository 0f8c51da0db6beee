#![warn(missing_docs)]

//! Dense tensor substrate for the OLAccel reproduction.
//!
//! Provides a minimal, fast, row-major (NCHW) [`Tensor`] type plus the shape
//! arithmetic, statistics, and chunking utilities the rest of the workspace
//! builds on. The accelerator simulators consume activations and weights at
//! the granularity of 16-element channel chunks (`A(1x1x16)` in the paper's
//! notation); [`chunk`] provides those views.
//!
//! # Example
//!
//! ```
//! use ola_tensor::{Shape4, Tensor};
//!
//! let t = Tensor::zeros(Shape4::new(1, 3, 4, 4));
//! assert_eq!(t.len(), 48);
//! assert_eq!(t.shape().c, 3);
//! ```

pub mod bytes;
pub mod chunk;
pub mod init;
pub mod memo;
pub mod par;
pub mod scan;
pub mod shape;
pub mod stats;
mod tensor;

pub use chunk::{ChunkView, ChunkViews, CHUNK_LANES};
pub use shape::{ConvGeometry, Shape4};
pub use tensor::Tensor;
