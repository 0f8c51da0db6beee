#![warn(missing_docs)]

//! OLAccel: the paper's outlier-aware accelerator, as a cycle-level model.
//!
//! The model follows §III exactly:
//!
//! * **PE group** ([`cost`]) — 16 SIMD lanes + 1 outlier MAC. Each non-zero
//!   activation broadcast costs one cycle; a weight chunk with a *single*
//!   outlier is absorbed by the outlier MAC for free; chunks with two or
//!   more outliers take a second cycle (the overflow-chunk pass of Fig 8);
//!   the 4-wide zero-skip scanner burns one cycle per all-zero quad.
//! * **PE cluster** ([`dispatch`]) — activation chunks dispatch dynamically
//!   to whichever group frees up first (Fig 6); modeled exactly with a
//!   finish-time heap for small layers and validated against the closed
//!   form used for large ones.
//! * **Outlier PE group** — 17 mixed-precision MACs consume the sparse
//!   high-precision activations in parallel with the dense datapath; a
//!   layer's latency is the slower of the two pipelines plus the pipelined
//!   tri-buffer accumulation drain.
//! * **First layer** — raw 16/8-bit activations on 4-bit MACs take 4/2
//!   passes, 8-bit dense weights (ResNet-18) another 2, reproducing the
//!   8x/4x first-layer cycle blowup of Fig 13.
//!
//! [`model`] holds only OLAccel's per-layer physics, as a
//! [`ola_sim::LayerModel`] impl on [`Tuning`]. The configuration, label,
//! cache key, memoized layer-parallel network simulation and Table I
//! memory-system energy come from the generic simulator every accelerator
//! shares, so [`OlAccelSim`] is `ola_sim::Accelerator<Tuning>`.
//!
//! [`scale`] adds the multi-NPU / batch scalability model of Fig 15.

pub mod cost;
pub mod dispatch;
pub mod event;
pub mod model;
pub mod scale;

pub use model::{OlAccelSim, Tuning};
