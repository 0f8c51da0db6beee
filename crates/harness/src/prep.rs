//! Workload preparation shared by the experiments: build a zoo network with
//! synthetic trained-like parameters, run the f32 reference once, and
//! extract per-layer workloads for each policy of interest.
//!
//! Preparation — synthesis, sparsity shaping, and the f32 forward pass — is
//! the dominant cost of a full reproduction run, and most figures ask for
//! the *same* prepared network (AlexNet at the default scale). The
//! [`PrepCache`] therefore memoizes both levels of the pipeline
//! process-wide, each in an [`ola_tensor::memo::Memo`]:
//!
//! * [`Prepared`] networks, keyed by a fingerprint of
//!   `(network, scale, seed)`;
//! * [`WorkloadSet`]s, keyed by the same fold plus the policy's
//!   [`QuantPolicy::fingerprint`];
//! * fig16's [`StaticThresholdCounts`], keyed by the same fold plus the
//!   run's sample count, image seeds and target ratio.
//!
//! A workload miss extracts through its [`Prepared`]'s own census cache
//! ([`Censuses`]), so the policies extracted from one network compute each
//! layer's policy-independent statistics once.
//!
//! The two result tiers are addressed by key alone ([`workloads`],
//! [`static_threshold_counts`]): a figure never holds a [`Prepared`], and
//! one is built only when a workload set or a static-threshold run misses
//! both the memory and the disk tier. Fig 1, which reads one layer's
//! weights, synthesizes that layer alone under the preparation's
//! [`synth_config`].
//!
//! Every entry is computed exactly once per process, so the parallel
//! experiment engine (`crate::engine`) gets the same bytes in every report
//! regardless of scheduling order. All randomness is derived from the
//! explicit `seed` argument (see [`Prepared::with_seed`]), never from
//! global state, which is what makes the memoization sound. With
//! [`attach_disk_store`] the two result tiers (and every other memo tier)
//! read through to an [`ArtifactStore`] before computing and write through
//! after; a stale or corrupt store only ever misses. A [`Prepared`] is
//! never stored: it lives in memory, built at most once per process.

use ola_baselines::{EyerissSim, ZenaSim};
use ola_core::OlAccelSim;
use ola_energy::{ComparisonMode, TechParams};
use ola_nn::synth::{activation_sparsity_target, shape_activation_sparsity, SynthConfig};
use ola_nn::zoo::{self, ZooConfig};
use ola_nn::{Network, Params};
use ola_quant::EvalCache;
use ola_sim::calibrate::{calibrate_from_outputs, runtime_counts, RuntimeCounts};
use ola_sim::timing;
use ola_sim::workload::{extract_from_acts, Censuses, WorkloadSet};
use ola_sim::{NetworkRun, QuantPolicy, SimCache};
use ola_store::wire::Reader;
use ola_store::{ArtifactStore, Record, StoreError};
use ola_tensor::bytes::{Encoder, Fingerprint, Writer};
use ola_tensor::init::uniform_tensor;
use ola_tensor::memo::Memo;
use ola_tensor::{stack_batch, Tensor};
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// The experiment suite's base preparation seed. Input tensors derive from
/// `seed + scale` and parameter synthesis from a seed-dependent offset, so
/// every run of every figure sees identical data for identical keys.
pub const DEFAULT_SEED: u64 = 0xDA7A;

/// Default spatial scale per network: full resolution where the naive f32
/// reference is fast enough, modestly reduced where it is not. Relative
/// accelerator comparisons are scale-invariant (all models consume the same
/// workload); EXPERIMENTS.md records the scale of every run.
pub fn default_scale(network: &str, fast: bool) -> usize {
    if fast {
        return match network {
            "alexnet" => 4,
            _ => 8,
        };
    }
    match network {
        "alexnet" => 1,
        "resnet18" => 2,
        _ => 4,
    }
}

/// A prepared network: graph, parameters, one forward pass, and the
/// policy-independent statistics its extractions share.
pub struct Prepared {
    /// The network graph.
    pub net: Network,
    /// Synthetic trained-like parameters.
    pub params: Params,
    /// All node outputs of the reference forward pass.
    pub acts: Vec<Tensor>,
    /// Network name.
    pub network: String,
    /// Spatial scale the network was built at.
    pub scale: usize,
    /// Preparation seed (see [`Prepared::with_seed`]).
    pub seed: u64,
    /// Per-layer censuses and windowed counts of `params` and `acts`,
    /// filled by [`Prepared::workloads`]' extractions.
    censuses: Censuses,
}

impl Prepared {
    /// Builds and runs a zoo network at the given spatial scale with the
    /// suite's [`DEFAULT_SEED`], bypassing the cache. Prefer [`workloads`]
    /// or [`static_threshold_counts`] inside experiment code so concurrent
    /// figures share one synthesis.
    pub fn new(network: &str, scale: usize) -> Self {
        Self::with_seed(network, scale, DEFAULT_SEED)
    }

    /// Builds and runs a zoo network at `scale` from an explicit `seed`.
    ///
    /// The synthetic parameters are bias-shaped so each layer's post-ReLU
    /// sparsity matches the published activation sparsity of the trained
    /// model (DESIGN.md §2). The reference input derives from
    /// `seed + scale`; parameter synthesis derives from a seed-dependent
    /// offset of the synthesis base seed (so `DEFAULT_SEED` reproduces the
    /// historical streams exactly, and any other seed yields an independent
    /// but equally deterministic preparation).
    pub fn with_seed(network: &str, scale: usize, seed: u64) -> Self {
        let (net, params, input) = timing::timed(timing::Phase::Synthesize, || {
            let net = zoo::by_name(network, &zoo_config(scale));
            let mut params = ola_nn::synth::synthesize_params(&net, &synth_config(network, seed));
            let input = uniform_tensor(
                net.input_shape(),
                -1.0,
                1.0,
                seed.wrapping_add(scale as u64),
            );
            shape_activation_sparsity(
                &net,
                &mut params,
                &input,
                |li| activation_sparsity_target(network, li),
                1,
            );
            (net, params, input)
        });
        // The shaped network's forward: the reference activations every
        // workload is extracted from.
        let acts = timing::timed(timing::Phase::Forward, || net.forward(&params, &input));
        Prepared {
            net,
            params,
            acts,
            network: network.to_string(),
            scale,
            seed,
            censuses: Censuses::default(),
        }
    }

    /// The workload set under `policy`: [`PrepCache::workloads`] of the
    /// global cache for this instance's `(network, scale, seed)`, except
    /// that a miss extracts from `self` instead of preparing again. A miss
    /// extracts through this network's censuses, so it pays only for the
    /// work the policy's ratio changes.
    ///
    /// The memo and the censuses are keyed by those three fields, the
    /// policy and the layer alone, so code that edits a `Prepared`'s
    /// parameters or activations must call [`Prepared::extract`] instead.
    pub fn workloads(&self, policy: &QuantPolicy) -> Arc<WorkloadSet> {
        PrepCache::global().workloads_from(&self.network, self.scale, self.seed, policy, Some(self))
    }

    /// Uncached workload extraction under `policy`: no memo, and a fresh
    /// census cache.
    pub fn extract(&self, policy: &QuantPolicy) -> WorkloadSet {
        self.extract_through(policy, &Censuses::default())
    }

    /// Extraction under `policy` through `censuses`.
    fn extract_through(&self, policy: &QuantPolicy, censuses: &Censuses) -> WorkloadSet {
        timing::timed(timing::Phase::Extract, || {
            extract_from_acts(&self.net, &self.params, &self.acts, policy, censuses)
        })
    }

    /// The static-threshold run on this network: one batched forward of
    /// the [`STATIC_SAMPLES`] sample images with the runtime image last.
    /// Each image's node outputs are the bytes a forward of that image
    /// alone computes, so the samples' prefix calibrates exactly as a
    /// samples-only forward would, and the runtime image never reaches a
    /// threshold. The forward, the calibration and the count time as the
    /// forward phase.
    fn static_threshold_counts(&self) -> StaticThresholdCounts {
        let shape = self.net.input_shape();
        let mut images: Vec<Tensor> = (0..STATIC_SAMPLES as u64)
            .map(|i| uniform_tensor(shape, -1.0, 1.0, STATIC_SAMPLE_SEED + i))
            .collect();
        images.push(uniform_tensor(shape, -1.0, 1.0, STATIC_RUNTIME_SEED));
        let counts = timing::timed(timing::Phase::Forward, || {
            let outs = self.net.forward(&self.params, &stack_batch(&images));
            let cals = calibrate_from_outputs(&self.net, &outs, STATIC_SAMPLES, STATIC_RATIO);
            // The first layer's raw input has no outlier split.
            runtime_counts(
                &self.net,
                &outs,
                cals.get(1..).unwrap_or(&[]),
                STATIC_SAMPLES,
            )
        });
        let names = self.net.compute_nodes().into_iter().skip(1);
        StaticThresholdCounts {
            network: self.network.clone(),
            scale: self.scale,
            layers: names
                .map(|node| self.net.nodes()[node].name.clone())
                .zip(counts)
                .collect(),
        }
    }
}

/// The zoo configuration every preparation (and every static-threshold
/// record's graph check) uses for a given spatial scale.
pub(crate) fn zoo_config(scale: usize) -> ZooConfig {
    ZooConfig {
        spatial_scale: scale,
        include_classifier: true,
        batch: 1,
    }
}

/// The synthesis configuration of `network`'s preparation from `seed`: a
/// seed-dependent offset of the synthesis base seed, so [`DEFAULT_SEED`]
/// keeps the default streams. Everything that synthesizes a prepared
/// network's weights uses it, so a layer synthesized alone is the
/// prepared network's layer.
pub fn synth_config(network: &str, seed: u64) -> SynthConfig {
    SynthConfig::for_network_seeded(network, seed ^ DEFAULT_SEED)
}

/// Fetches (or extracts, exactly once per process) the shared workload set
/// of `network` at its [`default_scale`] and the suite's [`DEFAULT_SEED`]
/// under `policy`.
pub fn workloads(network: &str, fast: bool, policy: &QuantPolicy) -> Arc<WorkloadSet> {
    PrepCache::global().workloads(network, default_scale(network, fast), DEFAULT_SEED, policy)
}

/// Fetches (or runs, exactly once per process) the static-threshold
/// counts of `network` at its [`default_scale`] and the suite's
/// [`DEFAULT_SEED`].
pub fn static_threshold_counts(network: &str, fast: bool) -> Arc<StaticThresholdCounts> {
    PrepCache::global().static_threshold_counts(network, default_scale(network, fast), DEFAULT_SEED)
}

/// How many design-time sample images calibrate a static-threshold run's
/// thresholds (Fig 16, §II; the paper used 100 random images, a few
/// suffice at our statistics). Sample `i` draws from
/// `STATIC_SAMPLE_SEED + i`.
const STATIC_SAMPLES: usize = 3;
/// Seed of the first design-time sample image.
const STATIC_SAMPLE_SEED: u64 = 0xCA11B;
/// Seed of the runtime image counted against the frozen thresholds.
const STATIC_RUNTIME_SEED: u64 = 0x4217;
/// Calibration target: the outlier share of the samples' non-zero input
/// activations.
const STATIC_RATIO: f64 = 0.03;

/// A static-threshold run (Fig 16): for every compute layer after the
/// first (the raw input has no outlier split), one runtime image's input
/// activations counted against the layer's threshold, frozen at design
/// time on three sample images at a 3% target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaticThresholdCounts {
    /// Network name.
    pub network: String,
    /// Spatial scale the network was built at.
    pub scale: usize,
    /// Each layer's name and counts, in graph order.
    pub layers: Vec<(String, RuntimeCounts)>,
}

/// A static-threshold run's record: its network identity and three counts
/// per layer. Decoding rebuilds the graph from `(network, scale)`, checks
/// the counts against it — one entry per compute layer after the first,
/// each total the layer's per-image input size, and
/// `outliers <= nonzero <= total` — and takes the layer names from it.
impl Record for StaticThresholdCounts {
    const KIND: u8 = 8;
    const PREFIX: &'static str = "static";
    const SOURCES: &'static [&'static str] = ola_store::version::PREP_SOURCES;

    fn encode(&self, w: &mut Writer) {
        w.str(&self.network);
        w.u64(self.scale as u64);
        w.usize(self.layers.len());
        for (_, c) in &self.layers {
            w.u64(c.nonzero).u64(c.outliers).u64(c.total);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let network = r.string()?;
        let scale = usize::try_from(r.u64()?).unwrap_or(0);
        let n = r.len(24)?;
        let counts: Vec<RuntimeCounts> = (0..n)
            .map(|_| {
                Ok(RuntimeCounts {
                    nonzero: r.u64()?,
                    outliers: r.u64()?,
                    total: r.u64()?,
                })
            })
            .collect::<Result<_, StoreError>>()?;
        let bad = |what: &str| {
            StoreError::Corrupt(format!(
                "static-threshold counts of {network:?} (scale {scale}): {what}"
            ))
        };
        let net = (scale > 0)
            .then(|| zoo::try_by_name(&network, &zoo_config(scale)))
            .flatten()
            .ok_or_else(|| bad("no such graph"))?;
        let layers = net.compute_nodes().into_iter().skip(1).collect::<Vec<_>>();
        if layers.len() != counts.len() {
            return Err(bad(&format!(
                "{} layers, the graph has {}",
                counts.len(),
                layers.len()
            )));
        }
        // The graph is built at batch 1, so a shape's size is per image.
        let shapes = net.shapes();
        let mut named = Vec::with_capacity(n);
        for (node, c) in layers.into_iter().zip(counts) {
            let node = &net.nodes()[node];
            if c.total != shapes[node.inputs[0]].len() as u64
                || c.nonzero > c.total
                || c.outliers > c.nonzero
            {
                return Err(bad(&format!("{} counts {c:?}", node.name)));
            }
            named.push((node.name.clone(), c));
        }
        Ok(StaticThresholdCounts {
            network,
            scale,
            layers: named,
        })
    }
}

/// A point-in-time snapshot of [`PrepCache`] hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Prepared-network requests served from the cache.
    pub prepared_hits: u64,
    /// Prepared-network requests that triggered a synthesis.
    pub prepared_misses: u64,
    /// Workload-set requests served from the cache.
    pub workload_hits: u64,
    /// Workload-set requests that triggered an extraction.
    pub workload_misses: u64,
    /// Workload-set requests served by loading an artifact from the disk
    /// store (these count as neither "built" nor "extracted" — no
    /// computation ran).
    pub disk_hits: u64,
    /// Workload-set disk lookups that found nothing usable (missing file,
    /// stale code version, or a corrupt artifact that forced a recompute).
    pub disk_misses: u64,
    /// Static-threshold runs served from memory.
    pub static_hits: u64,
    /// Static-threshold runs computed (a forward of their prepared
    /// network).
    pub static_built: u64,
    /// Static-threshold runs loaded from the disk store.
    pub static_loaded: u64,
    /// Static-threshold disk lookups that found nothing usable.
    pub static_missed: u64,
}

impl CacheStats {
    /// Formats the counters as the run-summary lines.
    pub fn render(&self) -> String {
        format!(
            "prepared networks: {} built, {} cache hits\n\
             workload sets:     {} extracted, {} cache hits\n\
             disk artifacts:    {} loaded, {} missed\n\
             static thresholds: {} built, {} cache hits, {} loaded, {} missed",
            self.prepared_misses,
            self.prepared_hits,
            self.workload_misses,
            self.workload_hits,
            self.disk_hits,
            self.disk_misses,
            self.static_built,
            self.static_hits,
            self.static_loaded,
            self.static_missed
        )
    }

    /// The counter-wise difference `self - before` (saturating), for
    /// delta-over-a-run reporting.
    pub fn since(&self, before: &CacheStats) -> CacheStats {
        CacheStats {
            prepared_hits: self.prepared_hits.saturating_sub(before.prepared_hits),
            prepared_misses: self.prepared_misses.saturating_sub(before.prepared_misses),
            workload_hits: self.workload_hits.saturating_sub(before.workload_hits),
            workload_misses: self.workload_misses.saturating_sub(before.workload_misses),
            disk_hits: self.disk_hits.saturating_sub(before.disk_hits),
            disk_misses: self.disk_misses.saturating_sub(before.disk_misses),
            static_hits: self.static_hits.saturating_sub(before.static_hits),
            static_built: self.static_built.saturating_sub(before.static_built),
            static_loaded: self.static_loaded.saturating_sub(before.static_loaded),
            static_missed: self.static_missed.saturating_sub(before.static_missed),
        }
    }
}

/// Attaches the persistent disk tier at `dir` to *every* process-wide
/// cache: the [`PrepCache`] (workload sets and static-threshold counts),
/// the model-phase [`SimCache`] (per-layer simulation results) and the
/// eval-phase [`EvalCache`] (quantized-accuracy results). This is what
/// `--cache-dir` wires up in the CLI and the daemon — one flag, one
/// directory, one store, every memo tier persistent.
pub fn attach_disk_store(dir: &Path) -> Result<(), StoreError> {
    let store = Arc::new(ArtifactStore::open(dir)?);
    PrepCache::global().set_store(store.clone());
    SimCache::global().set_store(store.clone());
    EvalCache::global().set_store(store);
    Ok(())
}

/// The fold every preparation key starts from.
fn prep_key(network: &str, scale: usize, seed: u64) -> Fingerprint {
    let mut fp = Fingerprint::new();
    fp.str(network).usize(scale).u64(seed);
    fp
}

/// Process-wide memoization of [`Prepared`] networks, [`WorkloadSet`]s and
/// [`StaticThresholdCounts`], with an optional persistent tier for the two
/// results. Requests for different keys never serialize on each other's
/// builds.
#[derive(Default)]
pub struct PrepCache {
    prepared: Memo<Prepared>,
    workloads: Memo<WorkloadSet>,
    thresholds: Memo<StaticThresholdCounts>,
}

impl PrepCache {
    /// An empty cache (tests; production code uses [`PrepCache::global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide cache instance.
    pub fn global() -> &'static PrepCache {
        static GLOBAL: OnceLock<PrepCache> = OnceLock::new();
        GLOBAL.get_or_init(PrepCache::new)
    }

    /// Attaches the persistent tier of the workload-set and
    /// static-threshold memos. Misses read through to the store before
    /// computing and fresh builds write through after; already-resident
    /// entries are unaffected. Prepared networks stay in memory.
    pub fn set_store(&self, store: Arc<ArtifactStore>) {
        self.workloads.set_store(store.clone());
        self.thresholds.set_store(store);
    }

    /// Fetches or builds the [`Prepared`] network for a key. Exactly one
    /// caller per key runs the synthesis; the rest count hits.
    pub fn prepared(&self, network: &str, scale: usize, seed: u64) -> Arc<Prepared> {
        let key = prep_key(network, scale, seed).finish();
        self.prepared
            .get(key, || Prepared::with_seed(network, scale, seed))
    }

    /// Fetches or extracts the [`WorkloadSet`] of `(network, scale, seed)`
    /// under `policy`. Only a miss of both the memory and the disk tier
    /// touches a [`Prepared`]: it extracts from [`PrepCache::prepared`]'s,
    /// through that network's censuses. A `Prepared` whose parameters or
    /// activations were edited must use [`Prepared::extract`].
    pub fn workloads(
        &self,
        network: &str,
        scale: usize,
        seed: u64,
        policy: &QuantPolicy,
    ) -> Arc<WorkloadSet> {
        self.workloads_from(network, scale, seed, policy, None)
    }

    /// [`PrepCache::workloads`], extracting from `prep` (when given) on a
    /// miss.
    fn workloads_from(
        &self,
        network: &str,
        scale: usize,
        seed: u64,
        policy: &QuantPolicy,
        prep: Option<&Prepared>,
    ) -> Arc<WorkloadSet> {
        let key = prep_key(network, scale, seed)
            .u64(policy.fingerprint())
            .finish();
        self.workloads.get(key, || match prep {
            Some(prep) => prep.extract_through(policy, &prep.censuses),
            None => {
                let prep = self.prepared(network, scale, seed);
                prep.extract_through(policy, &prep.censuses)
            }
        })
    }

    /// Fetches or runs the static-threshold counts of
    /// `(network, scale, seed)`, keyed by that fold plus the run's sample
    /// count, image seeds and target ratio. Only a miss of both the memory
    /// and the disk tier touches a [`Prepared`]: it runs the forward on
    /// [`PrepCache::prepared`]'s.
    pub fn static_threshold_counts(
        &self,
        network: &str,
        scale: usize,
        seed: u64,
    ) -> Arc<StaticThresholdCounts> {
        let key = prep_key(network, scale, seed)
            .usize(STATIC_SAMPLES)
            .u64(STATIC_SAMPLE_SEED)
            .u64(STATIC_RUNTIME_SEED)
            .f64(STATIC_RATIO)
            .finish();
        self.thresholds.get(key, || {
            self.prepared(network, scale, seed)
                .static_threshold_counts()
        })
    }

    /// Snapshots the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        let (p, w) = (self.prepared.stats(), self.workloads.stats());
        let t = self.thresholds.stats();
        CacheStats {
            prepared_hits: p.hits,
            prepared_misses: p.built,
            workload_hits: w.hits,
            workload_misses: w.built,
            disk_hits: w.loaded,
            disk_misses: w.missed,
            static_hits: t.hits,
            static_built: t.built,
            static_loaded: t.loaded,
            static_missed: t.missed,
        }
    }

    /// Drops every entry and zeroes the counters (test isolation; also
    /// frees the memory of a long-lived process between suites). The disk
    /// tier, if attached, stays attached — its artifacts are exactly what
    /// makes the next fill cheap.
    pub fn reset(&self) {
        self.prepared.reset();
        self.workloads.reset();
        self.thresholds.reset();
    }
}

/// Results of the six-accelerator comparison of Figs 11-13.
pub struct SixWay {
    /// Eyeriss at 16 bits (the normalization reference).
    pub eyeriss16: NetworkRun,
    /// Eyeriss at 8 bits.
    pub eyeriss8: NetworkRun,
    /// ZeNA at 16 bits.
    pub zena16: NetworkRun,
    /// ZeNA at 8 bits.
    pub zena8: NetworkRun,
    /// OLAccel, 16-bit outliers (768 MACs).
    pub olaccel16: NetworkRun,
    /// OLAccel, 8-bit outliers (576 MACs).
    pub olaccel8: NetworkRun,
}

impl SixWay {
    /// Runs all six configurations on the paper's workloads: `ws16` under
    /// [`QuantPolicy::olaccel16`], `ws8` under [`QuantPolicy::olaccel8`].
    pub fn run(ws16: &WorkloadSet, ws8: &WorkloadSet, tech: &TechParams) -> SixWay {
        SixWay {
            eyeriss16: EyerissSim::new(*tech, ComparisonMode::Bits16).simulate(ws16),
            eyeriss8: EyerissSim::new(*tech, ComparisonMode::Bits8).simulate(ws8),
            zena16: ZenaSim::new(*tech, ComparisonMode::Bits16).simulate(ws16),
            zena8: ZenaSim::new(*tech, ComparisonMode::Bits8).simulate(ws8),
            olaccel16: OlAccelSim::new(*tech, ComparisonMode::Bits16).simulate(ws16),
            olaccel8: OlAccelSim::new(*tech, ComparisonMode::Bits8).simulate(ws8),
        }
    }

    /// All six runs, labeled, in the paper's plotting order.
    pub fn all(&self) -> [&NetworkRun; 6] {
        [
            &self.eyeriss16,
            &self.eyeriss8,
            &self.zena16,
            &self.zena8,
            &self.olaccel16,
            &self.olaccel8,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_and_direct_preparation_agree() {
        let cache = PrepCache::new();
        let via_cache = cache.prepared("alexnet", 8, DEFAULT_SEED);
        let direct = Prepared::new("alexnet", 8);
        assert_eq!(via_cache.network, direct.network);
        assert_eq!(via_cache.acts.len(), direct.acts.len());
        for (a, b) in via_cache.acts.iter().zip(&direct.acts) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn cache_builds_each_key_once() {
        let cache = PrepCache::new();
        let a = cache.prepared("alexnet", 8, DEFAULT_SEED);
        let b = cache.prepared("alexnet", 8, DEFAULT_SEED);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!(s.prepared_misses, 1);
        assert_eq!(s.prepared_hits, 1);

        let policy = QuantPolicy::olaccel16("alexnet");
        let w1 = cache.workloads("alexnet", 8, DEFAULT_SEED, &policy);
        let w2 = cache.workloads("alexnet", 8, DEFAULT_SEED, &policy);
        assert!(Arc::ptr_eq(&w1, &w2));
        let s = cache.stats();
        assert_eq!(s.workload_misses, 1);
        assert_eq!(s.workload_hits, 1);
    }

    #[test]
    fn equal_policies_share_a_cache_slot_despite_f64_bit_noise() {
        // -0.0 == 0.0: one policy, one slot, one extraction.
        let mut a = QuantPolicy::olaccel16("alexnet");
        let mut b = a;
        a.outlier_ratio = 0.0;
        b.outlier_ratio = -0.0;
        assert_eq!(a.fingerprint(), b.fingerprint());

        let cache = PrepCache::new();
        let w_a = cache.workloads("alexnet", 8, DEFAULT_SEED, &a);
        let w_b = cache.workloads("alexnet", 8, DEFAULT_SEED, &b);
        assert!(Arc::ptr_eq(&w_a, &w_b), "-0.0 and 0.0 split the cache");
        assert_eq!(cache.stats().workload_misses, 1);

        // Any NaN source folds onto one canonical slot too.
        a.outlier_ratio = f64::NAN;
        b.outlier_ratio = -f64::NAN;
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn distinct_policies_get_distinct_entries() {
        let cache = PrepCache::new();
        let mut p16 = QuantPolicy::olaccel16("alexnet");
        let w_a = cache.workloads("alexnet", 8, DEFAULT_SEED, &p16);
        p16.outlier_ratio = 0.01;
        let w_b = cache.workloads("alexnet", 8, DEFAULT_SEED, &p16);
        assert!(!Arc::ptr_eq(&w_a, &w_b));
        assert_eq!(cache.stats().workload_misses, 2);

        // The selection rule is part of the identity too: same ratio,
        // different policy, different extraction.
        p16.select = ola_sim::OutlierSelect::WindowedTopK { window: 16 };
        let w_c = cache.workloads("alexnet", 8, DEFAULT_SEED, &p16);
        assert!(!Arc::ptr_eq(&w_b, &w_c), "select must key the cache");
        assert_eq!(cache.stats().workload_misses, 3);
    }

    #[test]
    fn seeds_change_the_preparation() {
        let a = Prepared::with_seed("alexnet", 8, DEFAULT_SEED);
        let b = Prepared::with_seed("alexnet", 8, 1234);
        let last_a = a.acts.last().unwrap().as_slice();
        let last_b = b.acts.last().unwrap().as_slice();
        assert_ne!(last_a, last_b, "different seeds must change the run");
    }

    /// One run per key: the second request hits, and the run reads the
    /// prepared network through the prepared memo.
    #[test]
    fn static_threshold_counts_run_once_per_key() {
        let cache = PrepCache::new();
        let a = cache.static_threshold_counts("alexnet", 8, DEFAULT_SEED);
        let b = cache.static_threshold_counts("alexnet", 8, DEFAULT_SEED);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.static_built, s.static_hits), (1, 1));
        assert_eq!(s.prepared_misses, 1);
        let names: Vec<&str> = a.layers.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["conv2", "conv3", "conv4", "conv5", "fc6", "fc7", "fc8"]
        );
        for (name, c) in &a.layers {
            assert!(c.outliers <= c.nonzero && c.nonzero <= c.total, "{name}");
        }
        cache.reset();
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn reset_clears_entries_and_counters() {
        let cache = PrepCache::new();
        let _ = cache.prepared("alexnet", 8, DEFAULT_SEED);
        cache.reset();
        assert_eq!(cache.stats(), CacheStats::default());
        let _ = cache.prepared("alexnet", 8, DEFAULT_SEED);
        assert_eq!(cache.stats().prepared_misses, 1);
    }
}
