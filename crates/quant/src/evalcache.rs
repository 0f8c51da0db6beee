//! Process-wide memoization of quantized-accuracy evaluations and of the
//! weight-SQNR surrogate.
//!
//! The accuracy figures re-evaluate overlapping `(trained net × dataset ×
//! QuantSpec × topk)` points — fig2's ratio sweep, fig3's ablations and
//! the policy panel all quantize and run the same trained `SynthNet` over
//! the same test split (the panel's magnitude row *is* fig2's 3% point).
//! [`EvalCache`] is the eval-phase tier of the workspace's memo: one
//! [`ola_tensor::memo::Memo`] of [`QuantAccuracy`] records keyed by
//! [`eval_key`], a content fingerprint of everything that can change the
//! measured result, and one of fig3's per-network [`WeightSqnr`]
//! surrogate records keyed by [`weight_sqnr_key`].
//!
//! [`crate::accuracy::evaluate_synthnet`] is a **pure function** of its
//! fingerprinted inputs — the trained weights (by bit pattern), the test
//! and calibration images, every [`QuantSpec`] field (floats by bit
//! pattern) and `topk` — so a cached record, from memory or from the
//! persistent tier attached with [`EvalCache::set_store`], is
//! bit-identical to a fresh evaluation at any worker count. The store
//! versions eval records by their own source fold (see `ola-store`), so
//! accelerator-model or extraction edits never discard still-valid eval
//! records — and vice versa.

use crate::accuracy::{QuantAccuracy, QuantSpec, WeightSqnr, CALIB_IMAGES};
use crate::policy::OutlierSelect;
use ola_nn::synth::{SparsityProfile, SynthConfig};
use ola_nn::synthnet::{SynthDataset, SynthNet};
use ola_nn::zoo::ZooConfig;
use ola_tensor::init::HeavyTailed;
use ola_tensor::memo::{Fingerprint, Memo, Persist};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Process-wide default worker count for the eval phase (per-image
/// test-set and calibration forwards), set by the experiment engine from
/// its `--jobs` split. Zero means "unset": standalone callers fall back to
/// [`ola_tensor::par::default_jobs`].
static EVAL_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default eval-phase worker count.
///
/// # Panics
///
/// Panics if `jobs` is zero.
pub fn set_eval_jobs(jobs: usize) {
    assert!(jobs > 0, "eval worker count must be positive");
    EVAL_JOBS.store(jobs, Ordering::Relaxed);
}

/// Current process-wide default eval-phase worker count:
/// [`ola_tensor::par::default_jobs`] until [`set_eval_jobs`] overrides it.
pub fn eval_jobs() -> usize {
    match EVAL_JOBS.load(Ordering::Relaxed) {
        0 => ola_tensor::par::default_jobs(),
        j => j,
    }
}

/// The content fingerprint an accuracy evaluation is memoized under: an
/// FNV fold of the trained net (classes, then every weight/bias matrix by
/// `to_bits`), the test dataset (classes, labels, images), the portion of
/// the calibration split the evaluation actually reads (its first
/// [`CALIB_IMAGES`] samples — the unused tail can't invalidate), every
/// [`QuantSpec`] field (floats by bit pattern, the selection rule by tag
/// plus window), and `topk`.
pub fn eval_key(
    net: &SynthNet,
    data: &SynthDataset,
    calib: &SynthDataset,
    spec: &QuantSpec,
    topk: usize,
) -> u64 {
    let mut fp = Fingerprint::new();
    fp.usize(net.classes);
    for (w, b) in [
        (&net.w1, &net.b1),
        (&net.w2, &net.b2),
        (&net.w3, &net.b3),
        (&net.w4, &net.b4),
        (&net.w5, &net.b5),
    ] {
        fp.f32s(w).f32s(b);
    }
    fold_dataset(&mut fp, data, data.images.len());
    fold_dataset(&mut fp, calib, CALIB_IMAGES);
    fold_spec(&mut fp, spec);
    fp.usize(topk);
    fp.finish()
}

/// Folds the first `take` images of a dataset (length-framed so adjacent
/// datasets can't alias) plus its labels and class count.
fn fold_dataset(fp: &mut Fingerprint, data: &SynthDataset, take: usize) {
    let n = take.min(data.images.len());
    fp.usize(data.classes).usize(n);
    for img in data.images.iter().take(n) {
        fp.f32s(img);
    }
    for &label in data.labels.iter().take(n) {
        fp.usize(label);
    }
}

/// The content fingerprint a network's [`WeightSqnr`] surrogate is
/// memoized under: the zoo network's name, every [`ZooConfig`] and
/// [`SynthConfig`] field (floats by bit pattern, the sparsity profile by
/// tag), and every spec in request order — everything the streamed build
/// reads.
pub fn weight_sqnr_key(
    network: &str,
    zoo: &ZooConfig,
    synth: &SynthConfig,
    specs: &[QuantSpec],
) -> u64 {
    let mut fp = Fingerprint::new();
    fp.str(network)
        .usize(zoo.spatial_scale)
        .u8(zoo.include_classifier as u8)
        .usize(zoo.batch);
    fold_dist(&mut fp, &synth.conv_dist);
    fold_dist(&mut fp, &synth.fc_dist);
    fp.f64(synth.conv_sparsity)
        .f64(synth.fc_sparsity)
        .u8(match synth.profile {
            SparsityProfile::Uniform => 0,
            SparsityProfile::AlexNet => 1,
            SparsityProfile::Vgg16 => 2,
            SparsityProfile::ResNet18 => 3,
        });
    fp.u64(synth.seed).usize(specs.len());
    for spec in specs {
        fold_spec(&mut fp, spec);
    }
    fp.finish()
}

fn fold_dist(fp: &mut Fingerprint, d: &HeavyTailed) {
    fp.f32(d.sigma).f64(d.tail_fraction).f32(d.tail_scale);
}

/// Folds every [`QuantSpec`] field, in declaration order.
fn fold_spec(fp: &mut Fingerprint, spec: &QuantSpec) {
    fp.u8(spec.low_bits)
        .u8(spec.weight_high_bits)
        .u8(spec.act_high_bits)
        .f64(spec.outlier_ratio)
        .u8(spec.first_layer_weight_bits)
        .u8(spec.quantize_weights as u8)
        .u8(spec.quantize_acts as u8);
    match spec.select {
        OutlierSelect::MagnitudePercentile => {
            fp.u8(0);
        }
        OutlierSelect::WindowedTopK { window } => {
            fp.u8(1).usize(window);
        }
        OutlierSelect::SensitivityWeighted { window } => {
            fp.u8(2).usize(window);
        }
    }
}

/// A point-in-time snapshot of [`EvalCache`] hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Evaluation requests served from memory.
    pub hits: u64,
    /// Evaluation requests that ran the full quantize/calibrate/forward
    /// pipeline.
    pub misses: u64,
    /// Requests served by loading a record from the disk store (these
    /// count as neither hit nor evaluated — no computation ran).
    pub disk_hits: u64,
    /// Disk-store lookups that found nothing usable (missing file, stale
    /// eval version, or a corrupt record that forced a recompute).
    pub disk_misses: u64,
    /// Weight-SQNR surrogate requests served from memory.
    pub surrogate_hits: u64,
    /// Weight-SQNR surrogates built by synthesizing their network.
    pub surrogates_built: u64,
    /// Weight-SQNR surrogates loaded from the disk store.
    pub surrogates_loaded: u64,
    /// Weight-SQNR surrogate disk lookups that found nothing usable.
    pub surrogates_missed: u64,
}

impl EvalStats {
    /// Formats the counters as the run-summary lines.
    pub fn render(&self) -> String {
        format!(
            "evals:             {} evaluated, {} cache hits\n\
             eval artifacts:    {} loaded, {} missed\n\
             weight surrogates: {} built, {} cache hits, {} loaded, {} missed",
            self.misses,
            self.hits,
            self.disk_hits,
            self.disk_misses,
            self.surrogates_built,
            self.surrogate_hits,
            self.surrogates_loaded,
            self.surrogates_missed
        )
    }

    /// The counter-wise difference `self - before` (saturating), for
    /// delta-over-a-run reporting.
    pub fn since(&self, before: &EvalStats) -> EvalStats {
        EvalStats {
            hits: self.hits.saturating_sub(before.hits),
            misses: self.misses.saturating_sub(before.misses),
            disk_hits: self.disk_hits.saturating_sub(before.disk_hits),
            disk_misses: self.disk_misses.saturating_sub(before.disk_misses),
            surrogate_hits: self.surrogate_hits.saturating_sub(before.surrogate_hits),
            surrogates_built: self
                .surrogates_built
                .saturating_sub(before.surrogates_built),
            surrogates_loaded: self
                .surrogates_loaded
                .saturating_sub(before.surrogates_loaded),
            surrogates_missed: self
                .surrogates_missed
                .saturating_sub(before.surrogates_missed),
        }
    }
}

/// Process-wide memoization of accuracy evaluations, with an optional
/// persistent tier. See the module docs for the keying and determinism
/// argument.
#[derive(Default)]
pub struct EvalCache {
    evals: Memo<QuantAccuracy>,
    surrogates: Memo<WeightSqnr>,
}

impl EvalCache {
    /// An empty cache (tests; production code uses [`EvalCache::global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide cache instance every accuracy evaluation routes
    /// through.
    pub fn global() -> &'static EvalCache {
        static GLOBAL: OnceLock<EvalCache> = OnceLock::new();
        GLOBAL.get_or_init(EvalCache::new)
    }

    /// Attaches the persistent tier of both record kinds.
    pub fn set_store<S: Persist<QuantAccuracy> + Persist<WeightSqnr> + 'static>(
        &self,
        store: Arc<S>,
    ) {
        self.evals.set_store(store.clone());
        self.surrogates.set_store(store);
    }

    /// Fetches or computes (exactly once per key, process-wide) the
    /// accuracy record for `key`. `build` must be a pure function of the
    /// inputs folded into `key` (which [`eval_key`] guarantees for
    /// [`crate::accuracy::evaluate_synthnet`]).
    pub fn eval(&self, key: u64, build: impl FnOnce() -> QuantAccuracy) -> QuantAccuracy {
        *self.evals.get(key, build)
    }

    /// Fetches or builds (exactly once per key, process-wide) the weight-
    /// SQNR surrogate record for `key`. `build` must be a pure function of
    /// the inputs [`weight_sqnr_key`] folds.
    pub fn weight_sqnr(&self, key: u64, build: impl FnOnce() -> WeightSqnr) -> Arc<WeightSqnr> {
        self.surrogates.get(key, build)
    }

    /// Snapshots the hit/miss counters.
    pub fn stats(&self) -> EvalStats {
        let s = self.evals.stats();
        let w = self.surrogates.stats();
        EvalStats {
            hits: s.hits,
            misses: s.built,
            disk_hits: s.loaded,
            disk_misses: s.missed,
            surrogate_hits: w.hits,
            surrogates_built: w.built,
            surrogates_loaded: w.loaded,
            surrogates_missed: w.missed,
        }
    }

    /// Drops every entry and zeroes the counters (test isolation; also
    /// frees the memory of a long-lived process between suites). The
    /// persistent tier, if attached, stays attached.
    pub fn reset(&self) {
        self.evals.reset();
        self.surrogates.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(top1: f64) -> QuantAccuracy {
        QuantAccuracy {
            top1,
            topk: top1,
            realized_weight_ratio: 0.03,
        }
    }

    #[test]
    fn evals_compute_once_per_key() {
        let cache = EvalCache::new();
        let mut builds = 0u32;
        for _ in 0..3 {
            let r = cache.eval(11, || {
                builds += 1;
                acc(0.9)
            });
            assert_eq!(r.top1, 0.9);
        }
        assert_eq!(builds, 1);
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 2);
    }

    #[test]
    fn distinct_keys_get_distinct_entries() {
        let cache = EvalCache::new();
        let a = cache.eval(1, || acc(0.1));
        let b = cache.eval(2, || acc(0.2));
        assert_ne!(a.top1, b.top1);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn reset_clears_entries_and_counters() {
        let cache = EvalCache::new();
        let _ = cache.eval(9, || acc(0.5));
        cache.reset();
        assert_eq!(cache.stats(), EvalStats::default());
        let _ = cache.eval(9, || acc(0.5));
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn eval_jobs_defaults_then_overrides() {
        assert!(eval_jobs() >= 1);
        set_eval_jobs(3);
        assert_eq!(eval_jobs(), 3);
        set_eval_jobs(ola_tensor::par::default_jobs());
    }

    #[test]
    fn stats_render_names_every_counter() {
        let s = EvalStats {
            hits: 1,
            misses: 2,
            disk_hits: 3,
            disk_misses: 4,
            surrogate_hits: 5,
            surrogates_built: 6,
            surrogates_loaded: 7,
            surrogates_missed: 8,
        };
        let r = s.render();
        assert!(r.contains("evals:             2 evaluated, 1 cache hits"));
        assert!(r.contains("eval artifacts:    3 loaded, 4 missed"));
        assert!(r.contains("weight surrogates: 6 built, 5 cache hits, 7 loaded, 8 missed"));
    }

    #[test]
    fn surrogates_memoize_apart_from_evals() {
        let cache = EvalCache::new();
        let sqnr = |v: f64| WeightSqnr { mean_db: vec![v] };
        assert_eq!(cache.weight_sqnr(11, || sqnr(1.5)).mean_db, [1.5]);
        assert_eq!(
            cache
                .weight_sqnr(11, || panic!("resident entry must hit"))
                .mean_db,
            [1.5]
        );
        // The same key in the other memo is a different record.
        assert_eq!(cache.eval(11, || acc(0.9)).top1, 0.9);
        let s = cache.stats();
        assert_eq!((s.surrogates_built, s.surrogate_hits), (1, 1));
        assert_eq!((s.misses, s.hits), (1, 0));
        cache.reset();
        assert_eq!(cache.stats(), EvalStats::default());
    }

    #[test]
    fn weight_sqnr_key_separates_every_input() {
        let zoo = ZooConfig {
            spatial_scale: 8,
            include_classifier: true,
            batch: 1,
        };
        let synth = SynthConfig::for_network("alexnet");
        let specs = [QuantSpec::paper_4bit(0.035), QuantSpec::paper_4bit(0.0)];
        let base = weight_sqnr_key("alexnet", &zoo, &synth, &specs);
        assert_eq!(base, weight_sqnr_key("alexnet", &zoo, &synth, &specs));
        let zoos = [
            ZooConfig {
                spatial_scale: 4,
                ..zoo
            },
            ZooConfig {
                include_classifier: false,
                ..zoo
            },
            ZooConfig { batch: 2, ..zoo },
        ];
        for other in &zoos {
            assert_ne!(base, weight_sqnr_key("alexnet", other, &synth, &specs));
        }
        let dist = HeavyTailed::new(0.03, 0.02, 5.0);
        let synths = [
            SynthConfig {
                conv_dist: dist,
                ..synth
            },
            SynthConfig {
                fc_dist: dist,
                ..synth
            },
            SynthConfig {
                conv_sparsity: 0.5,
                ..synth
            },
            SynthConfig {
                fc_sparsity: 0.5,
                ..synth
            },
            SynthConfig::default(),
            SynthConfig::for_network_seeded("alexnet", 1),
        ];
        for other in &synths {
            assert_ne!(base, weight_sqnr_key("alexnet", &zoo, other, &specs));
        }
        assert_ne!(base, weight_sqnr_key("vgg16", &zoo, &synth, &specs));
        assert_ne!(base, weight_sqnr_key("alexnet", &zoo, &synth, &specs[..1]));
        let swapped = [specs[1], specs[0]];
        assert_ne!(base, weight_sqnr_key("alexnet", &zoo, &synth, &swapped));
        let first8 = QuantSpec {
            first_layer_weight_bits: 4,
            ..specs[0]
        };
        assert_ne!(
            base,
            weight_sqnr_key("alexnet", &zoo, &synth, &[first8, specs[1]])
        );
    }

    #[test]
    fn eval_key_separates_every_input() {
        let net = SynthNet::new(4, 1);
        let data = SynthDataset::generate(8, 4, 2);
        let calib = SynthDataset::generate(8, 4, 3);
        let spec = QuantSpec::paper_4bit(0.03);
        let base = eval_key(&net, &data, &calib, &spec, 5);
        // Stable for identical inputs.
        assert_eq!(base, eval_key(&net, &data, &calib, &spec, 5));
        // Every input moves the key.
        assert_ne!(base, eval_key(&net, &data, &calib, &spec, 1));
        assert_ne!(
            base,
            eval_key(&net, &data, &calib, &QuantSpec::paper_4bit(0.04), 5)
        );
        assert_ne!(
            base,
            eval_key(&net, &data, &calib, &QuantSpec::weights_only(0.03), 5)
        );
        let windowed = QuantSpec {
            select: OutlierSelect::WindowedTopK { window: 16 },
            ..spec
        };
        assert_ne!(base, eval_key(&net, &data, &calib, &windowed, 5));
        let other_net = SynthNet::new(4, 9);
        assert_ne!(base, eval_key(&other_net, &data, &calib, &spec, 5));
        assert_ne!(base, eval_key(&net, &calib, &data, &spec, 5));
    }

    #[test]
    fn eval_key_ignores_calibration_tail_beyond_calib_images() {
        // Only the first CALIB_IMAGES calibration images reach the
        // evaluation; the key must not over-invalidate on the unused tail.
        let net = SynthNet::new(3, 4);
        let data = SynthDataset::generate(6, 3, 5);
        let calib_long = SynthDataset::generate(CALIB_IMAGES + 40, 3, 6);
        let calib_short = SynthDataset {
            images: calib_long.images[..CALIB_IMAGES].to_vec(),
            labels: calib_long.labels[..CALIB_IMAGES].to_vec(),
            classes: 3,
        };
        let spec = QuantSpec::paper_4bit(0.02);
        assert_eq!(
            eval_key(&net, &data, &calib_long, &spec, 5),
            eval_key(&net, &data, &calib_short, &spec, 5)
        );
    }
}
