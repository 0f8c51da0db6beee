#![warn(missing_docs)]

//! Baseline accelerator models: Eyeriss and ZeNA (§IV).
//!
//! * [`eyeriss`] — the row-stationary dense accelerator of Chen et al.
//!   Zero inputs do **not** shorten execution; they clock-gate the MAC,
//!   saving energy only. 165 PEs at either 16 or 8 bits.
//! * [`zena`] — the zero-aware accelerator of Kim et al., which skips
//!   computations whose weight *or* activation is zero. 168 PEs; the same
//!   cycle count at 16 and 8 bits (footnote 5 of the paper), since only
//!   the datapath width changes.
//!
//! Each file holds only its model's physics: a [`ola_sim::LayerModel`]
//! impl on its tuning struct (per-layer cycles, logic and local energy,
//! utilization, and the dense full-precision tensor sizes). The simulators
//! are the generic [`ola_sim::Accelerator`] simulator OLAccel also runs on —
//! [`EyerissSim`] is `Accelerator<EyerissTuning>`, [`ZenaSim`] is
//! `Accelerator<ZenaTuning>` — so all three share the Table I memory
//! configuration and price their tensor traffic with the same SRAM/DRAM
//! code, which is what isolates the paper's claimed benefit — reduced
//! precision with outlier handling — in the comparisons.

pub mod eyeriss;
pub mod zena;

pub use eyeriss::EyerissSim;
pub use zena::ZenaSim;
