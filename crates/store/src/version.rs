//! The code-version fingerprints that version on-disk artifacts.
//!
//! A stored artifact is only valid while the code that would recompute it
//! produces bit-identical results. Rather than asking humans to bump a
//! version number whenever extraction semantics change, the store hashes
//! the *source text* of every crate file an artifact's bytes depend on —
//! tensor initialization, synthetic parameter generation, the network zoo,
//! workload extraction and activation calibration, the quantizers, the
//! vendored RNG — at compile time. Each [`crate::store::Record`] names one
//! of the five source lists below as its `SOURCES`. Every list also hashes
//! the files that lay out its record bytes: the encoding itself
//! (`ola_tensor`'s `bytes.rs`), the store's own [`crate::codec`] and
//! [`crate::wire`], and every file whose `encode` its payloads call. Any
//! edit to a listed file changes that list's fingerprint, changes the
//! filename of every record versioned by it, and silently invalidates the
//! old records. (`include_str!` also registers each file with cargo's
//! rebuild tracking, so the fingerprint can never go stale.)
//!
//! Conservative by design: a comment-only edit to a hashed file also
//! invalidates the cache. That trades a few spurious recomputes for never
//! serving stale bytes.

use ola_tensor::bytes::{Encoder, Fingerprint};

/// Bump when the *container* format (header layout, wire encoding) changes
/// incompatibly. Semantic changes to the artifact contents are covered by
/// the source folds instead.
pub const FORMAT_VERSION: u32 = 2;

/// Source files whose text determines preparation artifact bytes
/// (prepared networks, workload sets and fig16's static-threshold counts).
/// Paths are relative to `crates/store/src/`.
pub const PREP_SOURCES: &[&str] = &[
    // Tensor substrate: RNG-driven init, the chunk width and the parallel
    // split feed every synthesized parameter and every measured statistic.
    include_str!("../../tensor/src/lib.rs"),
    include_str!("../../tensor/src/tensor.rs"),
    include_str!("../../tensor/src/shape.rs"),
    include_str!("../../tensor/src/init.rs"),
    include_str!("../../tensor/src/stats.rs"),
    include_str!("../../tensor/src/par.rs"),
    // Network substrate: graph construction, synthetic parameters, the
    // forward pass that produces the cached activations.
    include_str!("../../nn/src/layer.rs"),
    include_str!("../../nn/src/network.rs"),
    include_str!("../../nn/src/kernels.rs"),
    include_str!("../../nn/src/synth.rs"),
    include_str!("../../nn/src/zoo.rs"),
    // Quantization: the selection rule a policy names, and its encoding
    // in workload keys. (The quantizer, `outlier.rs`, builds no prep or
    // workload byte: extraction selects on the chunk grid.)
    include_str!("../../quant/src/policy.rs"),
    // Simulation: the extraction pass, the chunk-grid kernel and the
    // activation calibration it runs on (with fig16's runtime count), plus
    // the policy definition.
    include_str!("../../sim/src/workload.rs"),
    include_str!("../../sim/src/chunk.rs"),
    include_str!("../../sim/src/calibrate.rs"),
    include_str!("../../sim/src/policy.rs"),
    // The RNG every synthetic value flows through.
    include_str!("../../../vendored/rand/src/lib.rs"),
    // The preparation pipeline that orchestrates all of the above (seed
    // derivation, activation-sparsity shaping, fig16's static-threshold
    // run). Text-only include — no crate dependency cycle.
    include_str!("../../harness/src/prep.rs"),
    // The record payload layouts and the encoding they are written and
    // read with: a layout edit must not decode old bytes into new fields.
    include_str!("../../tensor/src/bytes.rs"),
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
    // result records and the cache's key folds. (`memo.rs` decides who
    // builds a record, not its bytes or its key: keys hash `bytes.rs`.)
    include_str!("../../sim/src/workload.rs"),
    include_str!("../../sim/src/traffic.rs"),
    include_str!("../../sim/src/policy.rs"),
    include_str!("../../quant/src/chunks.rs"),
    include_str!("../../sim/src/result.rs"),
    include_str!("../../sim/src/simcache.rs"),
    // The RNG behind the event backend's multi-outlier draws.
    include_str!("../../../vendored/rand/src/lib.rs"),
    // The record payload layouts and the encoding they are written and
    // read with: a layout edit must not decode old bytes into new fields.
    include_str!("../../tensor/src/bytes.rs"),
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
    // the cache's key folds (which hash `bytes.rs`, listed below).
    include_str!("../../quant/src/accuracy.rs"),
    include_str!("../../quant/src/evalcache.rs"),
    include_str!("../../quant/src/linear.rs"),
    include_str!("../../quant/src/outlier.rs"),
    include_str!("../../quant/src/policy.rs"),
    // The network the accuracy figures run on (training, forward, eval).
    include_str!("../../nn/src/synthnet.rs"),
    // Shared substrate the quantizers and SynthNet lean on.
    include_str!("../../tensor/src/stats.rs"),
    include_str!("../../tensor/src/par.rs"),
    // The RNG behind dataset synthesis and training shuffles.
    include_str!("../../../vendored/rand/src/lib.rs"),
    // The record payload layouts and the encoding they are written and
    // read with: a layout edit must not decode old bytes into new fields.
    include_str!("../../tensor/src/bytes.rs"),
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
    // The record payload layouts and the encoding they are written and
    // read with: a layout edit must not decode old bytes into new fields.
    include_str!("../../tensor/src/bytes.rs"),
    include_str!("codec.rs"),
    include_str!("wire.rs"),
];

/// Source files whose text determines a *trained SynthNet* record's bytes:
/// dataset synthesis, initialization, training and the full-precision
/// eval, the RNG behind all three, the key, and the build that strings
/// them together. Kept apart from [`EVAL_SOURCES`] so a quantizer edit
/// keeps the trained net (and one SynthNet edit invalidates both, as it
/// must). Text-only includes.
pub const TRAIN_SOURCES: &[&str] = &[
    // The network, its dataset, training and full-precision eval.
    include_str!("../../nn/src/synthnet.rs"),
    // The ordered fan-out behind dataset synthesis, training and eval.
    include_str!("../../tensor/src/par.rs"),
    // The RNG behind the dataset, the initialization and the shuffles.
    include_str!("../../../vendored/rand/src/lib.rs"),
    // The record's key (`synthnet_key`).
    include_str!("../../quant/src/evalcache.rs"),
    // The build: split sizes, epochs, learning rate and seeds, and the
    // order of its steps. Text-only include — no crate dependency cycle.
    include_str!("../../harness/src/fig02.rs"),
    // The record payload layouts and the encoding they are written and
    // read with: a layout edit must not decode old bytes into new fields.
    include_str!("../../tensor/src/bytes.rs"),
    include_str!("codec.rs"),
    include_str!("wire.rs"),
];

/// A version fingerprint: the [`Fingerprint`] of [`FORMAT_VERSION`] and
/// each source written as a length-prefixed `str`, so content can't slide
/// across file boundaries ("ab" + "c" vs "a" + "bc"). Identical across
/// runs of the same build; different whenever any listed file changes.
/// The store folds each record kind's list once per store.
pub(crate) fn sources_version(sources: &[&str]) -> u64 {
    let mut fp = Fingerprint::new();
    fp.u32(FORMAT_VERSION);
    for src in sources {
        fp.str(src);
    }
    fp.finish()
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

    /// A source file's path under `crates/`, and its text.
    macro_rules! src {
        ($path:literal) => {
            ($path, include_str!(concat!("../../", $path)))
        };
    }

    #[test]
    fn every_record_kind_is_versioned_by_its_layout() {
        let layout = [
            src!("tensor/src/bytes.rs"),
            src!("store/src/codec.rs"),
            src!("store/src/wire.rs"),
        ];
        // The files whose `encode` each kind's payloads call.
        let prep = [
            src!("harness/src/prep.rs"),
            src!("tensor/src/tensor.rs"),
            src!("tensor/src/shape.rs"),
            src!("tensor/src/init.rs"),
            src!("sim/src/workload.rs"),
        ];
        let train = [src!("nn/src/synthnet.rs")];
        // The static-threshold counts: the build, key and layout (`prep.rs`),
        // the sample and runtime images and their batch, the forward, and
        // the calibration and runtime count.
        let thresholds = [
            src!("harness/src/prep.rs"),
            src!("tensor/src/init.rs"),
            src!("tensor/src/tensor.rs"),
            src!("nn/src/network.rs"),
            src!("nn/src/kernels.rs"),
            src!("sim/src/calibrate.rs"),
        ];
        for (kind, list, encodes) in [
            ("prep", PREP_SOURCES, &prep[..]),
            ("model", MODEL_SOURCES, &[]),
            ("eval", EVAL_SOURCES, &[]),
            ("surrogate", SURROGATE_SOURCES, &[]),
            ("train", TRAIN_SOURCES, &train[..]),
            ("static", PREP_SOURCES, &thresholds[..]),
        ] {
            for (file, text) in layout.iter().chain(encodes) {
                assert!(list.contains(text), "{kind} sources omit {file}");
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

    #[test]
    fn train_version_is_stable_and_independent() {
        let train = sources_version(TRAIN_SOURCES);
        assert_eq!(train, sources_version(TRAIN_SOURCES));
        assert_ne!(train, 0);
        for other in [PREP_SOURCES, MODEL_SOURCES, EVAL_SOURCES, SURROGATE_SOURCES] {
            assert_ne!(train, sources_version(other));
        }
    }
}
