//! Cross-crate integration tests live in `tests/tests/`; this library holds
//! the test-only reference code they (and the benches) share:
//!
//! * [`oracle`] — the reference workload extraction and `WorkloadSet`
//!   bitwise equality;
//! * [`datapath`] — the bit-exact PE-group arithmetic of §III-D
//!   (sign-magnitude nibbles, the OLmsb shift-merge, the two-cycle
//!   overflow path);
//! * [`functional`] — a convolution run end to end through packed weight
//!   chunks and that datapath, counting every cycle and yielding the
//!   `ola_core::event::UnitJob` of every unit it runs;
//! * [`tribuffer`] — the cluster output tri-buffer pipeline of §III-E.
//!
//! No release crate depends on this one; the models the reports run
//! (`ola_core::{cost, event, model}`) are checked against these by
//! `tests/tests/cycle_differential.rs`.

pub mod datapath;
pub mod functional;
pub mod oracle;
pub mod tribuffer;
