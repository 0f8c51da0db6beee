//! Workload preparation shared by the experiments: build a zoo network with
//! synthetic trained-like parameters, run the f32 reference once, and
//! extract per-layer workloads for each policy of interest.
//!
//! Preparation — synthesis, sparsity shaping, and the f32 forward pass — is
//! the dominant cost of a full reproduction run, and most figures ask for
//! the *same* prepared network (AlexNet at the default scale). The
//! [`PrepCache`] therefore memoizes both levels of the pipeline
//! process-wide:
//!
//! * [`Prepared`] networks, keyed by `(network, scale, seed)`;
//! * [`WorkloadSet`]s, keyed by `(network, scale, seed, policy)`.
//!
//! Every entry is computed exactly once per process — concurrent requests
//! for the same key block on a per-key [`OnceLock`] while the first caller
//! builds it — so the parallel experiment engine (`crate::engine`) gets the
//! same bytes in every report regardless of scheduling order. All
//! randomness is derived from the explicit `seed` argument (see
//! [`Prepared::with_seed`]), never from global state, which is what makes
//! the memoization sound.
//!
//! With [`PrepCache::set_disk`] the cache additionally gains a persistent
//! tier: misses read through to an [`ArtifactStore`] before computing, and
//! fresh builds write through after. Artifacts are content-addressed by
//! `(network, scale, seed, policy, code version)`, so a stale store can
//! never change results — at worst it misses. A corrupt store file warns
//! on stderr and recomputes; it never fails a run.
//!
//! A build that *panics* does not poison its cache slot: the panic payload
//! is re-raised unchanged for the builder, waiting requesters fail with
//! the original message, and the slot is evicted so a later request can
//! retry — which is what keeps a long-lived daemon serviceable after one
//! bad request.

use crate::timing;
use ola_baselines::{EyerissSim, ZenaSim};
use ola_core::OlAccelSim;
use ola_energy::{ComparisonMode, TechParams};
use ola_nn::synth::{activation_sparsity_target, shape_activation_sparsity, SynthConfig};
use ola_nn::zoo::{self, ZooConfig};
use ola_nn::{Network, Params};
use ola_sim::policy::FirstLayerPolicy;
use ola_sim::workload::{extract_from_acts, WorkloadSet};
use ola_sim::{NetworkRun, QuantPolicy};
use ola_store::{ArtifactStore, StoreError};
use ola_tensor::init::uniform_tensor;
use ola_tensor::Tensor;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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

/// A prepared network: graph, parameters, and one forward pass.
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
    /// Whether this instance lives in the global cache; if so, workload
    /// extraction routes through the cache too.
    cached: bool,
}

impl Prepared {
    /// Builds and runs a zoo network at the given spatial scale with the
    /// suite's [`DEFAULT_SEED`], bypassing the cache. Prefer [`prepared`]
    /// inside experiment code so concurrent figures share one synthesis.
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
            let synth_cfg = SynthConfig::for_network_seeded(network, seed ^ DEFAULT_SEED);
            let mut params = ola_nn::synth::synthesize_params(&net, &synth_cfg);
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
            cached: false,
        }
    }

    /// Extracts a workload set under `policy`, reusing the forward pass.
    ///
    /// Cache-resident instances (from [`prepared`] / [`PrepCache`]) also
    /// memoize the extraction per policy; directly-constructed ones extract
    /// fresh each call.
    pub fn workloads(&self, policy: &QuantPolicy) -> Arc<WorkloadSet> {
        if self.cached {
            PrepCache::global().workloads_for(self, policy)
        } else {
            Arc::new(self.extract(policy))
        }
    }

    /// Uncached workload extraction under `policy`.
    pub fn extract(&self, policy: &QuantPolicy) -> WorkloadSet {
        timing::timed(timing::Phase::Extract, || {
            extract_from_acts(&self.net, &self.params, &self.acts, policy)
        })
    }

    /// Workloads under the paper's standard OLAccel16 / OLAccel8 policies.
    pub fn paper_workloads(&self) -> (Arc<WorkloadSet>, Arc<WorkloadSet>) {
        (
            self.workloads(&QuantPolicy::olaccel16(&self.network)),
            self.workloads(&QuantPolicy::olaccel8(&self.network)),
        )
    }
}

/// The zoo configuration every preparation (cold build or store reload)
/// uses for a given spatial scale.
pub(crate) fn zoo_config(scale: usize) -> ZooConfig {
    ZooConfig {
        spatial_scale: scale,
        include_classifier: true,
        batch: 1,
    }
}

/// The exactly-once slot machinery both cache levels are built on — moved
/// to [`ola_sim::memo`] so the model-phase [`ola_sim::SimCache`] can share
/// it; re-exported here for the harness's pre-existing callers.
pub(crate) use ola_sim::memo::{fill_slot, lock_unpoisoned, Fill, Slot};

/// Fetches (or builds, exactly once per process) the shared [`Prepared`]
/// network for `(network, scale)` at the suite's [`DEFAULT_SEED`].
pub fn prepared(network: &str, scale: usize) -> Arc<Prepared> {
    PrepCache::global().prepared(network, scale, DEFAULT_SEED)
}

/// Fetches (or extracts, exactly once per process) the shared
/// [`WorkloadSet`] for `(network, scale, policy)` at [`DEFAULT_SEED`].
pub fn workloads(network: &str, scale: usize, policy: &QuantPolicy) -> Arc<WorkloadSet> {
    let prep = prepared(network, scale);
    PrepCache::global().workloads_for(&prep, policy)
}

/// A `QuantPolicy` reduced to hashable identity (`f64` ratio keyed by its
/// bit pattern) for use in cache keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PolicyKey {
    mode_bits: u32,
    low_bits: u32,
    ratio_bits: u64,
    first_layer: u8,
    select: ola_sim::OutlierSelect,
}

/// Canonical bit pattern of an `f64` for cache keying: `-0.0` folds onto
/// `0.0` (they compare equal, so raw `to_bits` would split one policy
/// across two cache slots and double the synthesis work) and every NaN
/// payload folds onto the canonical quiet NaN (raw bits would make equal-
/// looking NaN policies miss each other — and `extract` treats them
/// identically anyway).
fn canonical_f64_bits(v: f64) -> u64 {
    if v == 0.0 {
        0
    } else if v.is_nan() {
        0x7ff8_0000_0000_0000
    } else {
        v.to_bits()
    }
}

impl From<&QuantPolicy> for PolicyKey {
    fn from(p: &QuantPolicy) -> Self {
        PolicyKey {
            mode_bits: p.mode.bits(),
            low_bits: p.low_bits,
            ratio_bits: canonical_f64_bits(p.outlier_ratio),
            first_layer: match p.first_layer {
                FirstLayerPolicy::RawActs => 0,
                FirstLayerPolicy::RawActsWideWeights => 1,
                FirstLayerPolicy::FineTuned4Bit => 2,
            },
            // `OutlierSelect` is plain data (discriminant + window) and
            // derives `Eq + Hash` itself.
            select: p.select,
        }
    }
}

type PrepKey = (String, usize, u64);
type WsKey = (String, usize, u64, PolicyKey);

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
    /// Requests served by loading an artifact from the disk store (these
    /// count as neither "built" nor "extracted" — no computation ran).
    pub disk_hits: u64,
    /// Disk-store lookups that found nothing usable (missing file, stale
    /// code version, or a corrupt artifact that forced a recompute).
    pub disk_misses: u64,
}

impl CacheStats {
    /// Formats the counters as the run-summary lines.
    pub fn render(&self) -> String {
        format!(
            "prepared networks: {} built, {} cache hits\n\
             workload sets:     {} extracted, {} cache hits\n\
             disk artifacts:    {} loaded, {} missed",
            self.prepared_misses,
            self.prepared_hits,
            self.workload_misses,
            self.workload_hits,
            self.disk_hits,
            self.disk_misses
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
        }
    }
}

/// Attaches the persistent disk tier at `dir` to *every* process-wide
/// cache: the [`PrepCache`] (prepared networks, workload sets), the
/// model-phase [`ola_sim::SimCache`] (per-layer simulation results) and
/// the eval-phase [`ola_quant::EvalCache`] (quantized-accuracy results).
/// This is what `--cache-dir` wires up in the CLI and the daemon — one
/// flag, one directory, every cache level persistent.
pub fn attach_disk_store(dir: &Path) -> Result<(), StoreError> {
    PrepCache::global().set_disk(Some(dir))?;
    let store = Arc::new(ArtifactStore::open(dir)?);
    ola_sim::SimCache::global().set_store(Some(store.clone()));
    ola_quant::EvalCache::global().set_store(Some(store));
    Ok(())
}

/// Process-wide memoization of [`Prepared`] networks and [`WorkloadSet`]s,
/// with an optional persistent disk tier.
///
/// Each map slot holds an `Arc<OnceLock<..>>`: the outer mutex is held only
/// long enough to find or insert the slot, and the `OnceLock` guarantees
/// the expensive build runs exactly once while concurrent requesters for
/// the same key block until it lands. Requests for *different* keys never
/// serialize on each other's builds.
#[derive(Default)]
pub struct PrepCache {
    prepared: Mutex<HashMap<PrepKey, Slot<Prepared>>>,
    workloads: Mutex<HashMap<WsKey, Slot<WorkloadSet>>>,
    disk: Mutex<Option<Arc<ArtifactStore>>>,
    prepared_hits: AtomicU64,
    prepared_misses: AtomicU64,
    workload_hits: AtomicU64,
    workload_misses: AtomicU64,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
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

    /// Attaches (or, with `None`, detaches) the persistent disk tier.
    /// Misses read through to the store before computing and fresh builds
    /// write through after; already-resident entries are unaffected.
    pub fn set_disk(&self, dir: Option<&Path>) -> Result<(), StoreError> {
        let store = match dir {
            Some(d) => Some(Arc::new(ArtifactStore::open(d)?)),
            None => None,
        };
        *lock_unpoisoned(&self.disk) = store;
        Ok(())
    }

    /// The currently attached disk store, if any.
    fn disk_store(&self) -> Option<Arc<ArtifactStore>> {
        lock_unpoisoned(&self.disk).clone()
    }

    /// Fetches or builds the [`Prepared`] network for a key. Exactly one
    /// caller per key runs the synthesis (or the disk load); the rest
    /// count hits.
    pub fn prepared(&self, network: &str, scale: usize, seed: u64) -> Arc<Prepared> {
        let key = (network.to_string(), scale, seed);
        let (value, fill) = fill_slot(&self.prepared, key, || {
            self.build_prepared(network, scale, seed)
        });
        self.count_fill(fill, &self.prepared_hits, &self.prepared_misses);
        value
    }

    /// The fill path of [`PrepCache::prepared`]: disk first, compute
    /// second, write-through after a compute.
    fn build_prepared(&self, network: &str, scale: usize, seed: u64) -> (Arc<Prepared>, Fill) {
        let store = self.disk_store();
        if let Some(store) = &store {
            if let Some(p) = self.load_prepared(store, network, scale, seed) {
                return (Arc::new(p), Fill::Disk);
            }
        }
        let mut p = Prepared::with_seed(network, scale, seed);
        p.cached = true;
        if let Some(store) = &store {
            if let Err(e) = store.save_prepared(network, scale, seed, &p.params, &p.acts) {
                eprintln!(
                    "warning: failed to persist prepared {network} (scale {scale}) \
                     to {}: {e}",
                    store.dir().display()
                );
            }
        }
        (Arc::new(p), Fill::Built)
    }

    /// Attempts the disk tier for a prepared network. Any failure — missing
    /// file, stale code version, corrupt bytes, graph mismatch — returns
    /// `None` (counting a disk miss, warning on corruption) so the caller
    /// recomputes; it never aborts the run.
    fn load_prepared(
        &self,
        store: &ArtifactStore,
        network: &str,
        scale: usize,
        seed: u64,
    ) -> Option<Prepared> {
        let loaded = timing::timed(timing::Phase::Load, || {
            let (params, acts) = match store.load_prepared(network, scale, seed) {
                Ok(Some(v)) => v,
                Ok(None) => return None,
                Err(e) => {
                    eprintln!(
                        "warning: ignoring corrupt prepared artifact for {network} \
                         (scale {scale}) in {}: {e}; recomputing",
                        store.dir().display()
                    );
                    return None;
                }
            };
            // The graph is not stored — it is cheap and fully determined by
            // (network, scale) — so rebuild it and sanity-check the stored
            // tensors against it before trusting them.
            let net = zoo::by_name(network, &zoo_config(scale));
            if params.len() != net.nodes().len() || acts.len() != net.nodes().len() {
                eprintln!(
                    "warning: prepared artifact for {network} (scale {scale}) does not \
                     match the graph ({} params / {} acts for {} nodes); recomputing",
                    params.len(),
                    acts.len(),
                    net.nodes().len()
                );
                return None;
            }
            Some(Prepared {
                net,
                params,
                acts,
                network: network.to_string(),
                scale,
                seed,
                cached: true,
            })
        });
        if loaded.is_none() {
            self.disk_misses.fetch_add(1, Ordering::Relaxed);
        }
        loaded
    }

    /// Fetches or extracts the [`WorkloadSet`] of `prep` under `policy`.
    pub fn workloads_for(&self, prep: &Prepared, policy: &QuantPolicy) -> Arc<WorkloadSet> {
        let key = (
            prep.network.clone(),
            prep.scale,
            prep.seed,
            PolicyKey::from(policy),
        );
        let (value, fill) = fill_slot(&self.workloads, key, || self.build_workloads(prep, policy));
        self.count_fill(fill, &self.workload_hits, &self.workload_misses);
        value
    }

    /// The fill path of [`PrepCache::workloads_for`]: disk first, extract
    /// second, write-through after an extract.
    fn build_workloads(&self, prep: &Prepared, policy: &QuantPolicy) -> (Arc<WorkloadSet>, Fill) {
        let store = self.disk_store();
        if let Some(store) = &store {
            if let Some(ws) = self.load_workloads(store, prep, policy) {
                return (Arc::new(ws), Fill::Disk);
            }
        }
        let ws = prep.extract(policy);
        if let Some(store) = &store {
            if let Err(e) = store.save_workloads(&prep.network, prep.scale, prep.seed, &ws) {
                eprintln!(
                    "warning: failed to persist workloads for {} (scale {}) to {}: {e}",
                    prep.network,
                    prep.scale,
                    store.dir().display()
                );
            }
        }
        (Arc::new(ws), Fill::Built)
    }

    /// Attempts the disk tier for a workload set; same never-fail contract
    /// as [`PrepCache::load_prepared`].
    fn load_workloads(
        &self,
        store: &ArtifactStore,
        prep: &Prepared,
        policy: &QuantPolicy,
    ) -> Option<WorkloadSet> {
        let loaded = timing::timed(timing::Phase::Load, || {
            match store.load_workloads(&prep.network, prep.scale, prep.seed, policy) {
                Ok(Some(mut ws)) if ws.network == prep.network => {
                    // Equal-fingerprint policies extract identically, but
                    // may differ in f64 bit pattern (-0.0 vs 0.0); carry
                    // the *requested* policy so the in-memory set is
                    // bit-identical to a cold extraction.
                    ws.policy = *policy;
                    Some(ws)
                }
                Ok(Some(ws)) => {
                    eprintln!(
                        "warning: workload artifact in {} names network {:?}, \
                         expected {:?}; recomputing",
                        store.dir().display(),
                        ws.network,
                        prep.network
                    );
                    None
                }
                Ok(None) => None,
                Err(e) => {
                    eprintln!(
                        "warning: ignoring corrupt workload artifact for {} (scale {}) \
                         in {}: {e}; recomputing",
                        prep.network,
                        prep.scale,
                        store.dir().display()
                    );
                    None
                }
            }
        });
        if loaded.is_none() {
            self.disk_misses.fetch_add(1, Ordering::Relaxed);
        }
        loaded
    }

    /// Folds one fill outcome into the counters.
    fn count_fill(&self, fill: Option<Fill>, hits: &AtomicU64, misses: &AtomicU64) {
        match fill {
            None => hits.fetch_add(1, Ordering::Relaxed),
            Some(Fill::Built) => misses.fetch_add(1, Ordering::Relaxed),
            Some(Fill::Disk) => self.disk_hits.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Snapshots the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            prepared_hits: self.prepared_hits.load(Ordering::Relaxed),
            prepared_misses: self.prepared_misses.load(Ordering::Relaxed),
            workload_hits: self.workload_hits.load(Ordering::Relaxed),
            workload_misses: self.workload_misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.disk_misses.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry and zeroes the counters (test isolation; also
    /// frees the memory of a long-lived process between suites). The disk
    /// tier, if attached, stays attached — its artifacts are exactly what
    /// makes the next fill cheap.
    pub fn reset(&self) {
        // Take both map locks for the whole reset so a concurrent request
        // can't observe cleared stats against a still-populated map.
        let mut prepared = lock_unpoisoned(&self.prepared);
        let mut workloads = lock_unpoisoned(&self.workloads);
        prepared.clear();
        workloads.clear();
        self.prepared_hits.store(0, Ordering::Relaxed);
        self.prepared_misses.store(0, Ordering::Relaxed);
        self.workload_hits.store(0, Ordering::Relaxed);
        self.workload_misses.store(0, Ordering::Relaxed);
        self.disk_hits.store(0, Ordering::Relaxed);
        self.disk_misses.store(0, Ordering::Relaxed);
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
    /// Runs all six configurations on the paper's workloads.
    pub fn run(prep: &Prepared, tech: &TechParams) -> SixWay {
        let (ws16, ws8) = prep.paper_workloads();
        SixWay {
            eyeriss16: EyerissSim::new(*tech, ComparisonMode::Bits16).simulate(&ws16),
            eyeriss8: EyerissSim::new(*tech, ComparisonMode::Bits8).simulate(&ws8),
            zena16: ZenaSim::new(*tech, ComparisonMode::Bits16).simulate(&ws16),
            zena8: ZenaSim::new(*tech, ComparisonMode::Bits8).simulate(&ws8),
            olaccel16: OlAccelSim::new(*tech, ComparisonMode::Bits16).simulate(&ws16),
            olaccel8: OlAccelSim::new(*tech, ComparisonMode::Bits8).simulate(&ws8),
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
        let w1 = cache.workloads_for(&a, &policy);
        let w2 = cache.workloads_for(&b, &policy);
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
        assert_eq!(PolicyKey::from(&a), PolicyKey::from(&b));

        let cache = PrepCache::new();
        let prep = cache.prepared("alexnet", 8, DEFAULT_SEED);
        let w_a = cache.workloads_for(&prep, &a);
        let w_b = cache.workloads_for(&prep, &b);
        assert!(Arc::ptr_eq(&w_a, &w_b), "-0.0 and 0.0 split the cache");
        assert_eq!(cache.stats().workload_misses, 1);

        // Any NaN source folds onto one canonical slot too.
        a.outlier_ratio = f64::NAN;
        b.outlier_ratio = -f64::NAN;
        assert_eq!(PolicyKey::from(&a), PolicyKey::from(&b));
    }

    #[test]
    fn distinct_policies_get_distinct_entries() {
        let cache = PrepCache::new();
        let prep = cache.prepared("alexnet", 8, DEFAULT_SEED);
        let mut p16 = QuantPolicy::olaccel16("alexnet");
        let w_a = cache.workloads_for(&prep, &p16);
        p16.outlier_ratio = 0.01;
        let w_b = cache.workloads_for(&prep, &p16);
        assert!(!Arc::ptr_eq(&w_a, &w_b));
        assert_eq!(cache.stats().workload_misses, 2);

        // The selection rule is part of the identity too: same ratio,
        // different policy, different extraction.
        p16.select = ola_sim::OutlierSelect::WindowedTopK { window: 16 };
        let w_c = cache.workloads_for(&prep, &p16);
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
