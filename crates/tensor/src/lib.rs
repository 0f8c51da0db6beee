#![warn(missing_docs)]

//! Dense tensor substrate for the OLAccel reproduction.
//!
//! Provides a minimal, fast, row-major (NCHW) [`Tensor`] type plus the shape
//! arithmetic, statistics and deterministic parallelism the rest of the
//! workspace builds on. The accelerator simulators consume activations and
//! weights at the granularity of [`CHUNK_LANES`]-element channel chunks
//! (`A(1x1x16)` in the paper's notation); `ola-sim`'s workload extraction
//! walks that chunk geometry.
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
pub mod init;
pub mod memo;
pub mod par;
pub mod shape;
pub mod stats;
mod tensor;

pub use shape::{ConvGeometry, Shape4};
pub use tensor::{stack_batch, Tensor};

/// Number of SIMD lanes in a PE group (= activations per chunk).
///
/// The paper fixes this at 16 after the Fig 17 analysis; the simulators allow
/// overriding it for the PE-group-size ablation, but encoded data structures
/// use this default.
pub const CHUNK_LANES: usize = 16;
