//! Process-wide memoization of per-layer accelerator simulation results.
//!
//! Every figure re-simulates the same `(layer workload × accelerator ×
//! configuration)` pairs — fig11-13's six-way comparison, fig15's NPU
//! grid, fig17-19's microarchitecture sweeps and the policy panel all
//! share AlexNet's eight layers under a handful of configs. [`SimCache`]
//! is the model-phase tier of the workspace's memo: two
//! [`ola_tensor::memo::Memo`]s, one of [`LayerRun`]s (analytic
//! cycle/energy model) and one of [`EventRecord`]s (event-driven
//! validation backend), keyed by a content fingerprint
//! ([`ola_tensor::bytes::Fingerprint`]) of everything that can change the
//! result.
//!
//! Every simulation is a **pure function** of its fingerprinted inputs
//! (the event backend's randomness is derived from a fixed seed that is
//! itself folded into the key), so a cached result — from memory or from
//! the persistent tier attached with [`SimCache::set_store`] — is
//! bit-identical to a fresh computation. A warm `--cache-dir` daemon or
//! CLI run therefore skips the model phase entirely.

use crate::result::{LayerRun, Utilization};
use ola_tensor::memo::{Memo, Persist};
use std::sync::{Arc, OnceLock};

/// The model phase's name for [`ola_tensor::par::set_jobs`]. `perfbench`
/// calls it by name; deleted with the other per-phase aliases once it
/// moves to `set_jobs` (ROADMAP, perfbench item step 3).
pub use ola_tensor::par::set_jobs as set_model_jobs;

/// The result of `ola-core`'s event-driven cluster simulation
/// (`event::simulate_cluster`), as the cache and the disk store persist it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventRecord {
    /// Total cycles until the last partial sum is committed.
    pub cycles: u64,
    /// **Aggregate** cycle decomposition across all dense PE groups:
    /// `run_cycles` and `skip_cycles` are summed over groups (not divided
    /// per group), and `idle_cycles` absorbs the remainder so that
    /// `utilization.total() == cycles * groups` holds exactly — see
    /// [`Utilization::is_conserved`].
    pub utilization: Utilization,
    /// Cycles the outlier PE group was busy.
    pub outlier_busy: u64,
}

/// A point-in-time snapshot of [`SimCache`] hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Layer-simulation requests served from memory.
    pub run_hits: u64,
    /// Layer-simulation requests that ran the analytic model.
    pub run_misses: u64,
    /// Event-backend requests served from memory.
    pub event_hits: u64,
    /// Event-backend requests that ran the event simulation.
    pub event_misses: u64,
    /// Requests served by loading a sim record from the disk store (these
    /// count as neither hit nor simulated — no computation ran).
    pub disk_hits: u64,
    /// Disk-store lookups that found nothing usable (missing file, stale
    /// model version, or a corrupt record that forced a recompute).
    pub disk_misses: u64,
}

impl SimStats {
    /// Formats the counters as the run-summary lines.
    pub fn render(&self) -> String {
        format!(
            "layer sims:        {} simulated, {} cache hits\n\
             event sims:        {} simulated, {} cache hits\n\
             sim artifacts:     {} loaded, {} missed",
            self.run_misses,
            self.run_hits,
            self.event_misses,
            self.event_hits,
            self.disk_hits,
            self.disk_misses
        )
    }

    /// The counter-wise difference `self - before` (saturating), for
    /// delta-over-a-run reporting.
    pub fn since(&self, before: &SimStats) -> SimStats {
        SimStats {
            run_hits: self.run_hits.saturating_sub(before.run_hits),
            run_misses: self.run_misses.saturating_sub(before.run_misses),
            event_hits: self.event_hits.saturating_sub(before.event_hits),
            event_misses: self.event_misses.saturating_sub(before.event_misses),
            disk_hits: self.disk_hits.saturating_sub(before.disk_hits),
            disk_misses: self.disk_misses.saturating_sub(before.disk_misses),
        }
    }
}

/// Process-wide memoization of per-layer simulation results, with an
/// optional persistent tier. See the module docs for the keying and
/// determinism argument.
#[derive(Default)]
pub struct SimCache {
    runs: Memo<LayerRun>,
    events: Memo<EventRecord>,
}

impl SimCache {
    /// An empty cache (tests; production code uses [`SimCache::global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide cache instance every accelerator model routes
    /// through.
    pub fn global() -> &'static SimCache {
        static GLOBAL: OnceLock<SimCache> = OnceLock::new();
        GLOBAL.get_or_init(SimCache::new)
    }

    /// Attaches the persistent tier of both record kinds.
    pub fn set_store<S: Persist<LayerRun> + Persist<EventRecord> + 'static>(&self, store: Arc<S>) {
        self.runs.set_store(store.clone());
        self.events.set_store(store);
    }

    /// Fetches or computes (exactly once per key, process-wide) the
    /// analytic simulation result for `key`. `build` must be a pure
    /// function of the inputs folded into `key`.
    pub fn layer_run(&self, key: u64, build: impl FnOnce() -> LayerRun) -> Arc<LayerRun> {
        self.runs.get(key, build)
    }

    /// Fetches or computes (exactly once per key, process-wide) the
    /// event-backend result for `key`. Same purity contract as
    /// [`SimCache::layer_run`] — the event stream's seed must be folded
    /// into the key.
    pub fn event_record(&self, key: u64, build: impl FnOnce() -> EventRecord) -> EventRecord {
        *self.events.get(key, build)
    }

    /// Snapshots the hit/miss counters.
    pub fn stats(&self) -> SimStats {
        let (runs, events) = (self.runs.stats(), self.events.stats());
        SimStats {
            run_hits: runs.hits,
            run_misses: runs.built,
            event_hits: events.hits,
            event_misses: events.built,
            disk_hits: runs.loaded + events.loaded,
            disk_misses: runs.missed + events.missed,
        }
    }

    /// Drops every entry and zeroes the counters (test isolation; also
    /// frees the memory of a long-lived process between suites). The
    /// persistent tier, if attached, stays attached.
    pub fn reset(&self) {
        self.runs.reset();
        self.events.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_runs_compute_once_per_key() {
        let cache = SimCache::new();
        let mut builds = 0u32;
        for _ in 0..3 {
            let run = cache.layer_run(11, || {
                builds += 1;
                LayerRun {
                    name: "l".to_string(),
                    cycles: 100,
                    energy: Default::default(),
                    utilization: Utilization {
                        run_cycles: 60,
                        skip_cycles: 20,
                        idle_cycles: 20,
                    },
                    chunk_cycle_hist: vec![1, 2, 3],
                }
            });
            assert_eq!(run.cycles, 100);
        }
        assert_eq!(builds, 1);
        let s = cache.stats();
        assert_eq!(s.run_misses, 1);
        assert_eq!(s.run_hits, 2);
    }

    #[test]
    fn event_records_compute_once_per_key() {
        let cache = SimCache::new();
        let mut builds = 0u32;
        for _ in 0..2 {
            let rec = cache.event_record(5, || {
                builds += 1;
                EventRecord {
                    cycles: 7,
                    utilization: Utilization {
                        run_cycles: 4,
                        skip_cycles: 1,
                        idle_cycles: 2,
                    },
                    outlier_busy: 3,
                }
            });
            assert_eq!(rec.cycles, 7);
        }
        assert_eq!(builds, 1);
        let s = cache.stats();
        assert_eq!(s.event_misses, 1);
        assert_eq!(s.event_hits, 1);
    }

    #[test]
    fn distinct_keys_get_distinct_entries() {
        let cache = SimCache::new();
        let a = cache.event_record(1, || EventRecord {
            cycles: 1,
            ..Default::default()
        });
        let b = cache.event_record(2, || EventRecord {
            cycles: 2,
            ..Default::default()
        });
        assert_ne!(a.cycles, b.cycles);
        assert_eq!(cache.stats().event_misses, 2);
    }

    #[test]
    fn reset_clears_entries_and_counters() {
        let cache = SimCache::new();
        let _ = cache.event_record(9, EventRecord::default);
        cache.reset();
        assert_eq!(cache.stats(), SimStats::default());
        let _ = cache.event_record(9, EventRecord::default);
        assert_eq!(cache.stats().event_misses, 1);
    }

    #[test]
    fn stats_render_names_every_counter() {
        let s = SimStats {
            run_hits: 1,
            run_misses: 2,
            event_hits: 3,
            event_misses: 4,
            disk_hits: 5,
            disk_misses: 6,
        };
        let r = s.render();
        assert!(r.contains("layer sims:        2 simulated, 1 cache hits"));
        assert!(r.contains("event sims:        4 simulated, 3 cache hits"));
        assert!(r.contains("sim artifacts:     5 loaded, 6 missed"));
    }
}
