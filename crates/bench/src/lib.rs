#![warn(missing_docs)]

//! Criterion benchmark harness for the OLAccel reproduction.
//!
//! Micro benchmarks of the hot paths — forward kernels (`kernels`,
//! `prep_forward`, `rowgen_train`), workload extraction against the
//! test-crate oracle (`workload_extract`), the model phase
//! (`model_phase`, `event_cluster`), quantized eval (`quant_eval`) and the
//! experiment engine (`engine`) — plus the design-choice ablations called
//! out in DESIGN.md §8 (`ablations`). Preparation happens once outside
//! the timed section. Whole experiments are timed end to end by
//! `perfbench/` (`engine.<exp>.wall_s`/`cold_s`), not here.

use ola_harness::prep::Prepared;

/// Prepares a fast-mode workload once for benching.
pub fn bench_prep(network: &str) -> Prepared {
    Prepared::new(network, ola_harness::prep::default_scale(network, true))
}
