#![warn(missing_docs)]

//! Persistent content-addressed artifact store for the OLAccel
//! reproduction.
//!
//! Preparing an experiment — synthesizing trained-like parameters, running
//! the f32 forward pass, extracting per-layer workloads — dominates a cold
//! run's wall clock, yet every result it feeds is a *pure function* of
//! `(network, spatial scale, seed, quantization policy)` under the
//! workspace's deterministic RNG, as is every per-layer simulation result,
//! accuracy evaluation and trained SynthNet of its inputs. This crate
//! persists those results to disk so a second process (or a long-lived
//! daemon) skips the work entirely. It holds results, not preparations: a
//! workload set or fig16's static-threshold counts take kilobytes, while
//! the prepared network they come from (parameters plus every node's
//! activations) takes tens of megabytes and lives only in memory.
//!
//! - [`wire`]: the bounds-checked reader of the workspace's one encoding
//!   ([`ola_tensor::bytes`], which also hashes every memo key); decoding
//!   never panics on malformed bytes.
//! - [`codec`]: bit-exact (de)serialization of workload sets,
//!   simulation/accuracy records, weight-SQNR surrogates and trained
//!   SynthNets.
//! - [`version`]: the compile-time source-text hashes that version
//!   artifacts to the code that produced them — editing any
//!   result-relevant file silently invalidates the affected records.
//! - [`store`]: the [`Record`] trait and the framed, checksummed,
//!   atomically-committed files behind every memo's persistent tier.
//!
//! Corruption is always recoverable: a bad file surfaces as
//! [`StoreError::Corrupt`] and callers recompute (and overwrite), never
//! fail.

pub mod codec;
pub mod store;
pub mod version;
pub mod wire;

pub use store::{ArtifactStore, Record};
pub use version::FORMAT_VERSION;
pub use wire::StoreError;

/// A unique scratch directory under the system temp dir for unit tests
/// (process-id + monotonic counter — no wall clock, no RNG).
#[cfg(test)]
pub(crate) fn test_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "ola-store-test-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}
