//! The code-version fingerprints that version on-disk artifacts.
//!
//! A stored artifact is only valid while the code that would recompute it
//! produces bit-identical results. Rather than asking humans to bump a
//! version number whenever extraction semantics change, the store hashes
//! the *source text* of every crate file an artifact's bytes depend on —
//! tensor initialization and scans, synthetic parameter generation, the
//! network zoo, workload extraction, quantizer calibration, the vendored
//! RNG — at compile time. Each [`crate::store::Record`] names one of the
//! four source lists below as its `SOURCES`, and every list also hashes
//! the store's own [`crate::codec`] and [`crate::wire`], which lay out the
//! record bytes. Any edit to a listed file changes that list's
//! fingerprint, changes the filename of every record versioned by it, and
//! silently invalidates the old records. (`include_str!` also registers
//! each file with cargo's rebuild tracking, so the fingerprint can never
//! go stale.)
//!
//! Conservative by design: a comment-only edit to a hashed file also
//! invalidates the cache. That trades a few spurious recomputes for never
//! serving stale bytes.

use ola_tensor::memo::fnv1a64;

/// Bump when the *container* format (header layout, wire encoding) changes
/// incompatibly. Semantic changes to the artifact contents are covered by
/// the source folds instead.
pub const FORMAT_VERSION: u32 = 2;

/// Source files whose text determines preparation artifact bytes
/// (prepared networks and workload sets). Paths are relative to
/// `crates/store/src/`.
pub const PREP_SOURCES: &[&str] = &[
    // Tensor substrate: RNG-driven init, scans and chunking feed every
    // synthesized parameter and every measured statistic.
    include_str!("../../tensor/src/tensor.rs"),
    include_str!("../../tensor/src/shape.rs"),
    include_str!("../../tensor/src/init.rs"),
    include_str!("../../tensor/src/chunk.rs"),
    include_str!("../../tensor/src/scan.rs"),
    include_str!("../../tensor/src/stats.rs"),
    include_str!("../../tensor/src/par.rs"),
    // Network substrate: graph construction, synthetic parameters, the
    // forward pass that produces the cached activations.
    include_str!("../../nn/src/layer.rs"),
    include_str!("../../nn/src/network.rs"),
    include_str!("../../nn/src/kernels.rs"),
    include_str!("../../nn/src/synth.rs"),
    include_str!("../../nn/src/zoo.rs"),
    // Quantization: calibration and outlier selection shape the workload
    // statistics.
    include_str!("../../quant/src/calibrate.rs"),
    include_str!("../../quant/src/outlier.rs"),
    include_str!("../../quant/src/policy.rs"),
    // Simulation: the extraction pass itself plus the policy definition.
    include_str!("../../sim/src/workload.rs"),
    include_str!("../../sim/src/policy.rs"),
    // The RNG every synthetic value flows through.
    include_str!("../../../vendored/rand/src/lib.rs"),
    // The preparation pipeline that orchestrates all of the above (seed
    // derivation, activation-sparsity shaping). Text-only include — no
    // crate dependency cycle.
    include_str!("../../harness/src/prep.rs"),
    // The record payload layouts and the wire primitives they are written
    // with: a layout edit must not decode old bytes into new fields.
    include_str!("codec.rs"),
    include_str!("wire.rs"),
];

/// Source files whose text determines *simulation result* bytes — the
/// accelerator cycle/energy models and everything they read. Kept separate
/// from [`PREP_SOURCES`] so an edit to, say, workload extraction
/// invalidates prepared artifacts without also discarding still-valid sim
/// records (and vice versa). Like [`PREP_SOURCES`], text-only includes —
/// `ola-store` has no crate dependency on `ola-core`/`ola-baselines`.
pub const MODEL_SOURCES: &[&str] = &[
    // The generic accelerator simulator: configuration, cache key and the
    // memory-system energy every model's layer result includes.
    include_str!("../../sim/src/accelerator.rs"),
    // OLAccel's analytic model and the event-driven validation backend.
    include_str!("../../core/src/model.rs"),
    include_str!("../../core/src/cost.rs"),
    include_str!("../../core/src/dispatch.rs"),
    include_str!("../../core/src/event.rs"),
    // Baseline accelerator models.
    include_str!("../../baselines/src/eyeriss.rs"),
    include_str!("../../baselines/src/zena.rs"),
    // The energy/area model every accelerator prices its cycles with.
    include_str!("../../energy/src/account.rs"),
    include_str!("../../energy/src/config.rs"),
    include_str!("../../energy/src/dram.rs"),
    include_str!("../../energy/src/mac.rs"),
    include_str!("../../energy/src/params.rs"),
    include_str!("../../energy/src/sram.rs"),
    // Sim-level inputs: workload statistics (and their fingerprint), the
    // traffic model with the policy widths and chunk formats it prices,
    // result records, the cache keying machinery itself.
    include_str!("../../sim/src/workload.rs"),
    include_str!("../../sim/src/traffic.rs"),
    include_str!("../../sim/src/policy.rs"),
    include_str!("../../quant/src/chunks.rs"),
    include_str!("../../sim/src/result.rs"),
    include_str!("../../sim/src/simcache.rs"),
    include_str!("../../tensor/src/memo.rs"),
    // The RNG behind the event backend's multi-outlier draws.
    include_str!("../../../vendored/rand/src/lib.rs"),
    // The record payload layouts and the wire primitives they are written
    // with: a layout edit must not decode old bytes into new fields.
    include_str!("codec.rs"),
    include_str!("wire.rs"),
];

/// Source files whose text determines *accuracy evaluation* bytes — the
/// quantized forward pass and everything that shapes a `QuantAccuracy`
/// record. Kept separate from [`PREP_SOURCES`]/[`MODEL_SOURCES`] so
/// accelerator or extraction edits don't discard still-valid eval records
/// (and an eval edit doesn't discard prep or sim artifacts). Text-only
/// includes.
pub const EVAL_SOURCES: &[&str] = &[
    // The evaluation pipeline itself: quantize, calibrate, forward, plus
    // the cache keying machinery.
    include_str!("../../quant/src/accuracy.rs"),
    include_str!("../../quant/src/evalcache.rs"),
    include_str!("../../quant/src/calibrate.rs"),
    include_str!("../../quant/src/linear.rs"),
    include_str!("../../quant/src/outlier.rs"),
    include_str!("../../quant/src/policy.rs"),
    // The network the accuracy figures run on (training, forward, eval).
    include_str!("../../nn/src/synthnet.rs"),
    // Shared substrate the quantizers and SynthNet lean on.
    include_str!("../../tensor/src/stats.rs"),
    include_str!("../../tensor/src/par.rs"),
    include_str!("../../tensor/src/memo.rs"),
    // The RNG behind dataset synthesis and training shuffles.
    include_str!("../../../vendored/rand/src/lib.rs"),
    // The record payload layouts and the wire primitives they are written
    // with: a layout edit must not decode old bytes into new fields.
    include_str!("codec.rs"),
    include_str!("wire.rs"),
];

/// Source files whose text determines fig3's *weight-SQNR surrogate*
/// bytes: zoo graph construction, streamed weight synthesis and the
/// per-layer quantization SQNR fold. Kept apart from [`EVAL_SOURCES`] so
/// a SynthNet or eval-pipeline edit keeps the (expensive-to-rebuild)
/// surrogate records, and from [`PREP_SOURCES`] so an extraction or
/// preparation edit does too. Text-only includes.
pub const SURROGATE_SOURCES: &[&str] = &[
    // Tensor substrate: the heavy-tailed sampler, pruning and its
    // selection statistics.
    include_str!("../../tensor/src/init.rs"),
    include_str!("../../tensor/src/stats.rs"),
    include_str!("../../tensor/src/shape.rs"),
    include_str!("../../tensor/src/tensor.rs"),
    include_str!("../../tensor/src/par.rs"),
    // The zoo graphs and the streamed per-layer weight synthesis.
    include_str!("../../nn/src/layer.rs"),
    include_str!("../../nn/src/network.rs"),
    include_str!("../../nn/src/synth.rs"),
    include_str!("../../nn/src/zoo.rs"),
    // The SQNR fold, its quantizers and its cache key.
    include_str!("../../quant/src/accuracy.rs"),
    include_str!("../../quant/src/outlier.rs"),
    include_str!("../../quant/src/linear.rs"),
    include_str!("../../quant/src/metrics.rs"),
    include_str!("../../quant/src/evalcache.rs"),
    // The RNG behind every synthesized weight.
    include_str!("../../../vendored/rand/src/lib.rs"),
    // The record payload layouts and the wire primitives they are written
    // with: a layout edit must not decode old bytes into new fields.
    include_str!("codec.rs"),
    include_str!("wire.rs"),
];

/// A version fingerprint: the length-framed FNV-1a fold over
/// [`FORMAT_VERSION`] and `sources` — file lengths are folded in between
/// texts so content can't slide across file boundaries ("ab" + "c" vs
/// "a" + "bc"). Identical across runs of the same build; different
/// whenever any listed file changes. The store folds each record kind's
/// list once per store.
pub(crate) fn sources_version(sources: &[&str]) -> u64 {
    let mut h = fnv1a64(&FORMAT_VERSION.to_le_bytes());
    for src in sources {
        h ^= fnv1a64(&(src.len() as u64).to_le_bytes());
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= fnv1a64(src.as_bytes());
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_version_is_stable_within_a_build() {
        assert_eq!(sources_version(PREP_SOURCES), sources_version(PREP_SOURCES));
        assert_ne!(sources_version(PREP_SOURCES), 0);
    }

    #[test]
    fn model_version_is_stable_and_independent() {
        let model = sources_version(MODEL_SOURCES);
        assert_eq!(model, sources_version(MODEL_SOURCES));
        assert_ne!(model, 0);
        // Different source sets must not collide (which would defeat the
        // point of invalidating them independently).
        assert_ne!(model, sources_version(PREP_SOURCES));
    }

    #[test]
    fn eval_version_is_stable_and_independent() {
        let eval = sources_version(EVAL_SOURCES);
        assert_eq!(eval, sources_version(EVAL_SOURCES));
        assert_ne!(eval, 0);
        assert_ne!(eval, sources_version(PREP_SOURCES));
        assert_ne!(eval, sources_version(MODEL_SOURCES));
    }

    #[test]
    fn every_record_kind_is_versioned_by_its_layout() {
        for (kind, list) in [
            ("prep", PREP_SOURCES),
            ("model", MODEL_SOURCES),
            ("eval", EVAL_SOURCES),
            ("surrogate", SURROGATE_SOURCES),
        ] {
            for (file, text) in [
                ("codec.rs", include_str!("codec.rs")),
                ("wire.rs", include_str!("wire.rs")),
            ] {
                assert!(list.contains(&text), "{kind} sources omit {file}");
            }
        }
    }

    #[test]
    fn surrogate_version_is_stable_and_independent() {
        let surrogate = sources_version(SURROGATE_SOURCES);
        assert_eq!(surrogate, sources_version(SURROGATE_SOURCES));
        assert_ne!(surrogate, 0);
        for other in [PREP_SOURCES, MODEL_SOURCES, EVAL_SOURCES] {
            assert_ne!(surrogate, sources_version(other));
        }
    }
}
