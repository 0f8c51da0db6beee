#![warn(missing_docs)]

//! Shared simulation infrastructure for the accelerator models.
//!
//! The cycle-level models in `ola-core` (OLAccel) and `ola-baselines`
//! (Eyeriss, ZeNA) all consume the same [`workload::LayerWorkload`]
//! description: layer geometry plus *measured* data statistics — per-chunk
//! non-zero activation counts, weight-chunk outlier multiplicities, zero
//! fractions, outlier ratios — extracted by running real (synthetic-weight)
//! networks through the f32 reference and the quantizer calibration.
//!
//! Results come back as [`result::LayerRun`] / [`result::NetworkRun`] with
//! cycles, an energy breakdown and a utilization decomposition, which the
//! harness turns into the paper's figures.
//!
//! All three models run on one generic simulator,
//! [`accelerator::Accelerator`]: it owns the configuration, the label, the
//! memoized layer-parallel network simulation and the Table I
//! memory-system energy, and a model supplies only its per-layer physics
//! as an [`accelerator::LayerModel`].

pub mod accelerator;
pub mod policy;
pub mod result;
pub mod simcache;
pub mod timing;
pub mod traffic;
pub mod workload;

pub use accelerator::{Accelerator, DatapathRun, LayerModel};
pub use policy::{FirstLayerPolicy, OutlierSelect, QuantPolicy};
pub use result::{LayerRun, NetworkRun, Utilization};
pub use simcache::{EventRecord, SimCache, SimStats};
pub use workload::{LayerKind, LayerWorkload, WorkloadSet};
