#![warn(missing_docs)]

//! Quantization library for the OLAccel reproduction.
//!
//! Implements the paper's two quantization schemes and the hardware data
//! structures built on them:
//!
//! * [`linear`] — conventional uniform quantization (the Fig 1(b) baseline).
//! * [`outlier`] — **outlier-aware quantization**: a fine-grained 4-bit grid
//!   for the ~97% of values below a magnitude threshold, full 8/16-bit
//!   precision for the few large *outliers* above it (Fig 1(c)). One
//!   quantizer serves every selection rule
//!   ([`OutlierQuantizer::fit_rule`]).
//! * [`chunks`] — the 80-bit weight-chunk encoding (16x4b weights + OLptr +
//!   OLidx + OLmsb) and the sparse outlier-activation chunk format of §III-B.
//! * [`policy`] — pluggable outlier-*selection* rules ([`OutlierSelect`]):
//!   the paper's magnitude percentile plus windowed top-1 and
//!   sensitivity-weighted alternatives, swept by the `policy-panel`
//!   experiment.
//! * [`metrics`] — SQNR/MSE error metrics.
//! * [`accuracy`] — quantized-network accuracy evaluation on
//!   [`ola_nn::synthnet`] plus the SQNR-based surrogate used for the five
//!   ImageNet networks (DESIGN.md §2).
//! * [`evalcache`] — process-wide, optionally disk-backed memoization of
//!   those accuracy evaluations ([`EvalCache`]), keyed by a content
//!   fingerprint of net, data and spec (DESIGN.md §15).
//!
//! # Example
//!
//! ```
//! use ola_quant::outlier::OutlierQuantizer;
//!
//! let values: Vec<f32> = (0..97).map(|i| (i as f32 - 48.0) * 0.01)
//!     .chain([3.0, -2.5, 4.0].into_iter()) // outliers
//!     .collect();
//! let q = OutlierQuantizer::fit(&values, 0.03, 4, 16);
//! // The three large values become the outlier region.
//! assert_eq!(q.threshold(), 2.5);
//! let restored = q.fake_quantize(&values);
//! // Outliers survive almost exactly; the bulk sees a fine 4-bit grid.
//! assert!((restored[97] - 3.0).abs() < 0.01);
//! ```

pub mod accuracy;
pub mod chunks;
pub mod evalcache;
pub mod linear;
pub mod metrics;
pub mod outlier;
pub mod policy;

pub use chunks::{OutlierActChunk, WeightChunk, CHUNK_WEIGHTS};
pub use evalcache::{EvalCache, EvalStats};
pub use linear::LinearQuantizer;
pub use outlier::{OutlierQuantized, OutlierQuantizer, Share};
pub use policy::OutlierSelect;
