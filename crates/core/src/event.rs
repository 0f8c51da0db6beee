//! Detailed event-driven PE-cluster simulation.
//!
//! Where [`crate::model`] computes a layer's cycles in closed form from
//! measured chunk statistics, this module *plays out* the schedule of
//! §III-C at unit granularity: every activation-chunk unit is dispatched to
//! the first PE group that frees up (Fig 6), the outlier PE group drains
//! its broadcast FIFO in parallel (Fig 9), and the tri-buffered
//! normal/outlier accumulation pipeline (Fig 10) adds its drain at the end.
//!
//! The job stream is **not materialized**: [`jobs_from_workload`] returns a
//! [`JobStream`] iterator that synthesizes each [`UnitJob`] on the fly, so
//! full AlexNet/VGG conv layers simulate in O(1) memory and the detailed
//! path covers every layer of a network rather than a small-layer sample.
//! [`simulate_cluster`] enforces the cycle conservation law of DESIGN.md §5
//! — `run + skip + idle == cycles × groups`, exact in `u64` — so the
//! Run/Skip/Idle decomposition of Fig 18 is provably lossless.
//!
//! The closed form is validated against this simulation by unit and
//! property tests (`dispatch` agreement) and by `olaccel-repro validate`,
//! which runs the two paths layer-parallel over whole networks.

use crate::cost::GroupTuning;
use crate::dispatch::makespan_exact;
use ola_sim::{EventRecord, LayerWorkload, Utilization};
use ola_tensor::bytes::{Encoder, Fingerprint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Borrow;

/// One dispatchable unit of work: an activation chunk processed against one
/// 16-output-channel weight column at one kernel offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnitJob {
    /// Non-zero activations to broadcast.
    pub nnz: u32,
    /// All-zero quads the skip scanner pays for.
    pub zero_quads: u32,
    /// Precision passes (first-layer multi-pass handling).
    pub passes: u32,
    /// How many of the broadcasts hit a multi-outlier weight chunk and pay
    /// the second weight-chunk cycle. The second cycle recurs on **every**
    /// precision pass — each pass re-broadcasts the activation against the
    /// same outlier-carrying weight chunk — matching `cost::chunk_cost`'s
    /// `(1 + extra_frac)` scaling.
    pub multi_outlier_broadcasts: u32,
}

impl UnitJob {
    /// Productive broadcast cycles (normal + multi-outlier second passes).
    pub fn run_cycles(&self) -> u64 {
        (self.nnz as u64 + self.multi_outlier_broadcasts as u64) * self.passes as u64
    }

    /// Cycles this unit occupies a PE group.
    pub fn cycles(&self) -> u64 {
        self.run_cycles() + self.zero_quads as u64
    }
}

/// Event-simulation configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EventConfig {
    /// PE groups in the cluster (6 in the paper).
    pub groups: usize,
    /// Accumulation pipeline depth: cycles between a group finishing and
    /// its partial sums being committed through the tri-buffer by both
    /// accumulation units.
    pub accum_pipeline_depth: u64,
}

impl Default for EventConfig {
    fn default() -> Self {
        EventConfig {
            groups: 6,
            accum_pipeline_depth: 4,
        }
    }
}

/// Plays out the cluster schedule: units dispatch in order to the
/// earliest-free group ([`makespan_exact`]); the outlier group consumes
/// `outlier_broadcasts` cycles of work in parallel; the accumulation
/// pipeline adds its drain.
///
/// `jobs` is consumed as a stream — pass a [`JobStream`] to simulate a full
/// layer in O(1) memory, or any slice/`Vec` of jobs by reference.
///
/// The returned decomposition satisfies the conservation law
/// `run + skip + idle == cycles × groups` exactly (asserted internally):
/// every group-cycle of the run is accounted once, with no truncating
/// division anywhere in the arithmetic.
pub fn simulate_cluster<I>(jobs: I, outlier_broadcasts: u64, cfg: &EventConfig) -> EventRecord
where
    I: IntoIterator,
    I::Item: Borrow<UnitJob>,
{
    let mut run = 0u64;
    let mut skip = 0u64;
    let job_cycles = jobs.into_iter().map(|job| {
        let job = job.borrow();
        run += job.run_cycles();
        skip += job.zero_quads as u64;
        job.cycles()
    });
    let dense_finish = makespan_exact(job_cycles, cfg.groups);

    // The outlier PE group starts immediately and processes one broadcast
    // per cycle; the tri-buffer lets its accumulation trail the normal
    // unit's by one pipeline slot, so the layer ends when the slower
    // datapath has drained.
    let outlier_finish = outlier_broadcasts;
    let finish = dense_finish.max(outlier_finish) + cfg.accum_pipeline_depth;

    // Aggregate accounting: each group was busy for exactly the cycles of
    // the jobs it ran, so run + skip <= groups * finish and the idle
    // remainder closes the budget without any per-group division.
    let budget = finish * cfg.groups as u64;
    let utilization = Utilization {
        run_cycles: run,
        skip_cycles: skip,
        idle_cycles: budget - run - skip,
    };
    assert!(
        utilization.is_conserved(finish, cfg.groups as u64),
        "cycle conservation violated: {} accounted vs {} budget",
        utilization.total(),
        budget
    );
    EventRecord {
        cycles: finish,
        utilization,
        outlier_busy: outlier_broadcasts,
    }
}

/// Streaming generator of a layer's unit jobs (see [`jobs_from_workload`]).
///
/// Units are assigned to measured chunks round-robin (`unit % chunks`), so
/// when `chunks` does not divide `group_units` the first
/// `group_units % chunks` chunks are used exactly once more than the rest —
/// the same remainder distribution `cost::layer_cost` integrates against.
/// Exactly `group_units` jobs are produced, never the padded
/// `chunks * ceil(units / chunks)` of a rectangular replication.
#[derive(Clone, Debug)]
pub struct JobStream<'a> {
    chunk_nnz: &'a [u8],
    chunk_zero_quads: &'a [u8],
    passes: u32,
    multi_p: f64,
    rng: StdRng,
    pos: usize,
    remaining: u64,
}

impl Iterator for JobStream<'_> {
    type Item = UnitJob;

    fn next(&mut self) -> Option<UnitJob> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let nnz = self.chunk_nnz[self.pos] as u32;
        let zero_quads = self.chunk_zero_quads[self.pos] as u32;
        self.pos += 1;
        if self.pos == self.chunk_nnz.len() {
            self.pos = 0;
        }
        let mut multi = 0u32;
        if self.multi_p > 0.0 {
            let p = self.multi_p.min(1.0);
            for _ in 0..nnz {
                if self.rng.gen_bool(p) {
                    multi += 1;
                }
            }
        }
        Some(UnitJob {
            nnz,
            zero_quads,
            passes: self.passes,
            multi_outlier_broadcasts: multi,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.remaining).ok();
        (n.unwrap_or(usize::MAX), n)
    }
}

/// Builds the unit-job stream of a layer from its measured chunk data, with
/// multi-outlier hits drawn per broadcast from the measured weight-chunk
/// multiplicity (deterministic seed).
///
/// The stream yields exactly [`LayerWorkload::group_units`] jobs lazily —
/// nothing is materialized, so full-resolution conv layers (millions of
/// units) stream through [`simulate_cluster`] in constant memory. Two
/// streams built from the same `(layer, tuning, seed)` yield identical job
/// sequences.
pub fn jobs_from_workload<'a>(
    l: &'a LayerWorkload,
    tuning: &GroupTuning,
    seed: u64,
) -> JobStream<'a> {
    let chunks = l.chunk_nnz.len();
    JobStream {
        chunk_nnz: &l.chunk_nnz,
        chunk_zero_quads: &l.chunk_zero_quads,
        passes: crate::cost::precision_passes(l.act_bits, l.weight_bits),
        multi_p: crate::cost::outlier_extra_frac(l, tuning),
        rng: StdRng::seed_from_u64(seed),
        pos: 0,
        remaining: if chunks == 0 { 0 } else { l.group_units() },
    }
}

/// Fixed seed of the validation job stream. Folded into the cache key of
/// [`cluster_record`] so the cached result stays a pure function of its
/// fingerprinted inputs.
const VALIDATE_SEED: u64 = 0xE7E27;

/// Content fingerprint of a [`cluster_record`] run: everything that can
/// change the event simulation's outcome — the layer workload, the group
/// tuning feeding the job stream, the cluster configuration, and the
/// stream's RNG seed.
fn cluster_key(l: &LayerWorkload, tuning: &GroupTuning, cfg: &EventConfig) -> u64 {
    let mut fp = Fingerprint::new();
    fp.str("event-cluster").u64(VALIDATE_SEED);
    tuning.encode(&mut fp);
    fp.usize(cfg.groups)
        .u64(cfg.accum_pipeline_depth)
        .u64(l.fingerprint());
    fp.finish()
}

/// Event-simulates a layer's whole-cluster validation run through the
/// process-wide [`ola_sim::SimCache`], so repeated validations of the same
/// `(layer, tuning, config)` — across figures, jobs counts, or daemon
/// requests — replay one cached [`EventRecord`] instead of
/// re-streaming millions of unit jobs. [`simulate_cluster`] asserts the
/// `run + skip + idle == cycles × groups` conservation law before the
/// record is cached, so it holds on every hit too.
pub fn cluster_record(l: &LayerWorkload, tuning: &GroupTuning, cfg: &EventConfig) -> EventRecord {
    ola_sim::SimCache::global().event_record(cluster_key(l, tuning, cfg), || {
        simulate_cluster(jobs_from_workload(l, tuning, VALIDATE_SEED), 0, cfg)
    })
}

/// Convenience: event-simulate a whole layer on a cluster (through the
/// [`cluster_record`] cache) and compare with the closed-form layer cost.
/// Returns `(event_cycles, analytic_cycles)`.
pub fn validate_layer(l: &LayerWorkload, tuning: &GroupTuning, cfg: &EventConfig) -> (u64, u64) {
    let result = cluster_record(l, tuning, cfg);

    let lc = crate::cost::layer_cost(l, tuning);
    let analytic = crate::dispatch::makespan_analytic(lc.total(), lc.max_chunk, cfg.groups)
        + cfg.accum_pipeline_depth as f64;
    (result.cycles, analytic.round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ola_sim::workload::LayerKind;
    use ola_tensor::Shape4;

    fn job(nnz: u32, zq: u32) -> UnitJob {
        UnitJob {
            nnz,
            zero_quads: zq,
            passes: 1,
            multi_outlier_broadcasts: 0,
        }
    }

    #[test]
    fn unit_job_cycles() {
        assert_eq!(job(10, 1).cycles(), 11);
        // Multi-outlier second cycles recur on every precision pass.
        assert_eq!(
            UnitJob {
                nnz: 8,
                zero_quads: 2,
                passes: 4,
                multi_outlier_broadcasts: 3
            }
            .cycles(),
            (8 + 3) * 4 + 2
        );
    }

    #[test]
    fn single_group_serializes() {
        let jobs = vec![job(16, 0); 10];
        let cfg = EventConfig {
            groups: 1,
            accum_pipeline_depth: 0,
        };
        let r = simulate_cluster(&jobs, 0, &cfg);
        assert_eq!(r.cycles, 160);
        assert_eq!(r.utilization.run_cycles, 160);
        assert_eq!(r.utilization.idle_cycles, 0);
    }

    #[test]
    fn groups_divide_work() {
        let jobs = vec![job(8, 0); 60];
        let cfg = EventConfig {
            groups: 6,
            accum_pipeline_depth: 0,
        };
        let r = simulate_cluster(&jobs, 0, &cfg);
        assert_eq!(r.cycles, 80, "60 x 8 cycles over 6 groups");
        // Perfect split: all 480 group-cycles are productive.
        assert_eq!(r.utilization.run_cycles, 480);
        assert_eq!(r.utilization.idle_cycles, 0);
    }

    #[test]
    fn utilization_is_aggregate_and_conserved() {
        // 7 jobs of 10 cycles on 3 groups: greedy packs 3/2/2 jobs, so two
        // groups idle 10 cycles each plus the drain — the decomposition
        // must account every group-cycle exactly.
        let jobs = vec![job(9, 1); 7];
        let cfg = EventConfig {
            groups: 3,
            accum_pipeline_depth: 5,
        };
        let r = simulate_cluster(&jobs, 0, &cfg);
        assert_eq!(r.utilization.run_cycles, 7 * 9);
        assert_eq!(r.utilization.skip_cycles, 7);
        assert!(r.utilization.is_conserved(r.cycles, 3));
    }

    #[test]
    fn outlier_path_can_dominate() {
        let jobs = vec![job(4, 0); 6];
        let cfg = EventConfig {
            groups: 6,
            accum_pipeline_depth: 2,
        };
        let r = simulate_cluster(&jobs, 100, &cfg);
        assert_eq!(r.cycles, 102, "outlier FIFO drain dominates");
        assert_eq!(r.outlier_busy, 100);
        assert!(r.utilization.is_conserved(r.cycles, 6));
    }

    #[test]
    fn accum_drain_added() {
        let jobs = vec![job(10, 0)];
        let cfg = EventConfig {
            groups: 6,
            accum_pipeline_depth: 7,
        };
        let r = simulate_cluster(&jobs, 0, &cfg);
        assert_eq!(r.cycles, 17);
    }

    fn synthetic_layer(chunks: usize, nnz: u8, multi: f64) -> LayerWorkload {
        layer_with_units(chunks, chunks as u64, nnz, multi)
    }

    /// A synthetic 16-in/16-out layer whose `group_units()` is exactly
    /// `units`, independent of the measured-chunk count.
    fn layer_with_units(chunks: usize, units: u64, nnz: u8, multi: f64) -> LayerWorkload {
        LayerWorkload {
            name: "t".into(),
            index: 1,
            kind: LayerKind::Conv,
            in_shape: Shape4::new(1, 16, 1, chunks),
            out_shape: Shape4::new(1, 16, 1, chunks),
            kernel: 1,
            macs: units * 256,
            weight_count: 256,
            weight_bits: 4,
            act_bits: 4,
            weight_zero_fraction: 0.0,
            act_zero_fraction: 1.0 - nnz as f64 / 16.0,
            weight_outlier_ratio: 0.03,
            act_outlier_nonzero_ratio: 0.03,
            act_effective_outlier_ratio: 0.02,
            chunk_nnz: vec![nnz; chunks],
            chunk_zero_quads: vec![0; chunks],
            wchunk_single_fraction: 0.2,
            wchunk_multi_fraction: multi,
            out_zero_fraction: 0.4,
        }
    }

    #[test]
    fn event_and_analytic_agree_without_outliers() {
        let l = synthetic_layer(600, 12, 0.0);
        let (event, analytic) =
            validate_layer(&l, &GroupTuning::default(), &EventConfig::default());
        let rel = (event as f64 - analytic as f64).abs() / analytic as f64;
        assert!(
            rel < 0.03,
            "event {event} vs analytic {analytic} ({rel:.3})"
        );
    }

    #[test]
    fn event_and_analytic_agree_with_outliers() {
        let l = synthetic_layer(600, 12, 0.1);
        let (event, analytic) =
            validate_layer(&l, &GroupTuning::default(), &EventConfig::default());
        let rel = (event as f64 - analytic as f64).abs() / analytic as f64;
        // Sampling of multi-outlier hits adds a little variance.
        assert!(
            rel < 0.05,
            "event {event} vs analytic {analytic} ({rel:.3})"
        );
    }

    #[test]
    fn multi_pass_outlier_layers_agree() {
        // The first-layer regression: multi-outlier second cycles must
        // scale with precision passes in both paths.
        let mut l = synthetic_layer(600, 12, 0.08);
        l.act_bits = 16; // 4 passes
        let (event, analytic) =
            validate_layer(&l, &GroupTuning::default(), &EventConfig::default());
        let rel = (event as f64 - analytic as f64).abs() / analytic as f64;
        assert!(
            rel < 0.03,
            "event {event} vs analytic {analytic} ({rel:.3})"
        );
    }

    #[test]
    fn jobs_cover_all_units() {
        let l = synthetic_layer(100, 9, 0.0);
        let jobs: Vec<UnitJob> = jobs_from_workload(&l, &GroupTuning::default(), 1).collect();
        assert_eq!(jobs.len() as u64, l.group_units());
        assert!(jobs.iter().all(|j| j.nnz == 9 && j.passes == 1));
    }

    #[test]
    fn jobs_cover_all_units_non_divisible() {
        // 150 units over 100 chunks: exactly 150 jobs (not the 200 a
        // rectangular ceil-replication would fabricate), with the first 50
        // chunks used twice and the rest once.
        let l = layer_with_units(100, 150, 9, 0.0);
        assert_eq!(l.group_units(), 150);
        let stream = jobs_from_workload(&l, &GroupTuning::default(), 1);
        assert_eq!(stream.size_hint(), (150, Some(150)));
        let jobs: Vec<UnitJob> = stream.collect();
        assert_eq!(jobs.len(), 150);
        // Round-robin: positions 0..100 then 0..50 again.
        let mut counts = vec![0u32; 100];
        for (i, _) in jobs.iter().enumerate() {
            counts[i % 100] += 1;
        }
        assert!(counts[..50].iter().all(|&c| c == 2));
        assert!(counts[50..].iter().all(|&c| c == 1));
    }

    #[test]
    fn streams_are_deterministic() {
        let l = synthetic_layer(64, 11, 0.12);
        let a: Vec<UnitJob> = jobs_from_workload(&l, &GroupTuning::default(), 42).collect();
        let b: Vec<UnitJob> = jobs_from_workload(&l, &GroupTuning::default(), 42).collect();
        assert_eq!(a, b);
        let c: Vec<UnitJob> = jobs_from_workload(&l, &GroupTuning::default(), 43).collect();
        assert_ne!(a, c, "different seeds must change the multi-outlier draw");
    }

    #[test]
    fn cluster_record_repeats_bit_identically_and_conserves() {
        let l = synthetic_layer(64, 11, 0.12);
        let cfg = EventConfig::default();
        let a = cluster_record(&l, &GroupTuning::default(), &cfg);
        let b = cluster_record(&l, &GroupTuning::default(), &cfg);
        assert_eq!(a, b, "a cache hit must replay the exact record");
        assert!(
            a.utilization.is_conserved(a.cycles, cfg.groups as u64),
            "conservation law must hold on cached records"
        );
    }

    #[test]
    fn empty_chunk_data_yields_no_jobs() {
        let mut l = synthetic_layer(4, 9, 0.0);
        l.chunk_nnz.clear();
        l.chunk_zero_quads.clear();
        assert_eq!(
            jobs_from_workload(&l, &GroupTuning::default(), 1).count(),
            0
        );
    }
}
