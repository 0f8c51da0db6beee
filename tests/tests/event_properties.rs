//! Property tests for the event-driven cluster simulation
//! (`ola_core::event`): the cycle conservation law, streaming-vs-
//! materialized equivalence of the job iterator, closed-form agreement on
//! non-divisible unit/chunk geometries, and histogram mass conservation in
//! the analytic cost path.
//!
//! All layers here are synthetic — the invariants under test are arithmetic
//! (exact in `u64`) or structural, so they must hold for *any* chunk data,
//! not just what a real network produces.

use ola_core::cost::{layer_cost, GroupTuning};
use ola_core::dispatch::{makespan_analytic, makespan_exact};
use ola_core::event::{jobs_from_workload, simulate_cluster, EventConfig, UnitJob};
use ola_sim::workload::{LayerKind, LayerWorkload};
use ola_tensor::Shape4;
use proptest::prelude::*;

/// A synthetic 16-in/16-out layer whose `group_units()` is exactly `units`,
/// with per-chunk nnz/zero-quad data drawn by the caller.
fn layer(chunk_nnz: Vec<u8>, units: u64, act_bits: u32, multi: f64) -> LayerWorkload {
    let chunks = chunk_nnz.len();
    let chunk_zero_quads = chunk_nnz
        .iter()
        .map(|&n| {
            if n == 0 {
                4
            } else {
                (16 - n as u16).min(12) as u8 / 4
            }
        })
        .collect();
    LayerWorkload {
        name: "prop".into(),
        index: 1,
        kind: LayerKind::Conv,
        in_shape: Shape4::new(1, 16, 1, chunks.max(1)),
        out_shape: Shape4::new(1, 16, 1, chunks.max(1)),
        kernel: 1,
        macs: units * 256,
        weight_count: 256,
        weight_bits: 4,
        act_bits,
        weight_zero_fraction: 0.0,
        act_zero_fraction: 0.5,
        weight_outlier_ratio: 0.03,
        act_outlier_nonzero_ratio: 0.03,
        act_effective_outlier_ratio: 0.02,
        chunk_nnz,
        chunk_zero_quads,
        wchunk_single_fraction: 0.2,
        wchunk_multi_fraction: multi,
        out_zero_fraction: 0.4,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The conservation law `run + skip + idle == cycles × groups` holds
    /// exactly in integer arithmetic for arbitrary job sets, group counts
    /// and pipeline depths — no truncating division can leak group-cycles.
    #[test]
    fn conservation_law_is_exact(
        nnzs in prop::collection::vec((0u32..=16, 0u32..=4, 1u32..=4, 0u32..=3), 0..400),
        groups in 1usize..12,
        depth in 0u64..8,
        outlier in 0u64..2000,
    ) {
        let jobs: Vec<UnitJob> = nnzs
            .iter()
            .map(|&(nnz, zq, passes, multi)| UnitJob {
                nnz,
                zero_quads: zq,
                passes,
                multi_outlier_broadcasts: multi,
            })
            .collect();
        let cfg = EventConfig { groups, accum_pipeline_depth: depth };
        let r = simulate_cluster(&jobs, outlier, &cfg);
        // Exact u64 identity — not an approximate balance.
        prop_assert!(r.utilization.is_conserved(r.cycles, groups as u64));
        prop_assert_eq!(
            r.utilization.run_cycles,
            jobs.iter().map(UnitJob::run_cycles).sum::<u64>()
        );
        prop_assert_eq!(
            r.utilization.skip_cycles,
            jobs.iter().map(|j| j.zero_quads as u64).sum::<u64>()
        );
        // The event makespan matches the reference greedy schedule.
        let dense = makespan_exact(jobs.iter().map(|j| j.cycles()), groups);
        prop_assert_eq!(r.cycles, dense.max(outlier) + depth);
    }

    /// Feeding `simulate_cluster` the streaming `JobStream` gives exactly
    /// the result of first collecting the stream into a `Vec` — the O(1)
    /// memory path is not an approximation.
    #[test]
    fn streaming_equals_materialized(
        chunk_nnz in prop::collection::vec(0u8..=16, 1..120),
        extra_units in 0u64..300,
        bits_sel in 0u8..3,
        multi in 0.0f64..0.3,
        seed in 0u64..1000,
        groups in 1usize..8,
    ) {
        let act_bits = [4u32, 8, 16][bits_sel as usize];
        let chunks = chunk_nnz.len() as u64;
        let l = layer(chunk_nnz, chunks + extra_units, act_bits, multi);
        let tuning = GroupTuning::default();
        let cfg = EventConfig { groups, accum_pipeline_depth: 4 };

        let streamed = simulate_cluster(jobs_from_workload(&l, &tuning, seed), 0, &cfg);
        let materialized: Vec<UnitJob> = jobs_from_workload(&l, &tuning, seed).collect();
        prop_assert_eq!(materialized.len() as u64, l.group_units());
        let collected = simulate_cluster(&materialized, 0, &cfg);
        prop_assert_eq!(streamed, collected);
    }

    /// Event simulation and the closed-form analytic cost agree on layers
    /// whose unit count does NOT divide evenly into the measured chunks —
    /// both paths must integrate the same remainder distribution. With the
    /// multi-outlier draw disabled the comparison is deterministic.
    #[test]
    fn event_matches_analytic_on_non_divisible_geometry(
        chunk_nnz in prop::collection::vec(1u8..=16, 40..160),
        extra in 1u64..500,
        groups in 2usize..8,
    ) {
        let chunks = chunk_nnz.len() as u64;
        let units = chunks * 3 + extra; // never a multiple of `chunks` alone
        let l = layer(chunk_nnz, units, 4, 0.0);
        let tuning = GroupTuning::default();
        let cfg = EventConfig { groups, accum_pipeline_depth: 4 };

        let event = simulate_cluster(jobs_from_workload(&l, &tuning, 7), 0, &cfg).cycles;
        let lc = layer_cost(&l, &tuning);
        let analytic = makespan_analytic(lc.total(), lc.max_chunk, groups)
            + cfg.accum_pipeline_depth as f64;
        let rel = (event as f64 - analytic).abs() / analytic;
        prop_assert!(
            rel < 0.03,
            "event {event} vs analytic {analytic:.1} ({rel:.4}) on {chunks} chunks x {units} units"
        );
    }

    /// The Fig 19 histogram conserves mass: its entries sum to exactly the
    /// layer's unit count, and its run/skip totals match the chunk costs it
    /// was built from — no top-bin clamping, no phantom padded units.
    #[test]
    fn analytic_histogram_mass_equals_group_units(
        chunk_nnz in prop::collection::vec(0u8..=16, 1..100),
        extra_units in 0u64..250,
        wide_bits in prop::bool::ANY,
        multi in 0.0f64..0.3,
    ) {
        let act_bits = if wide_bits { 16 } else { 4 };
        let chunks = chunk_nnz.len() as u64;
        let l = layer(chunk_nnz, chunks + extra_units, act_bits, multi);
        let lc = layer_cost(&l, &GroupTuning::default());
        prop_assert_eq!(lc.chunk_hist.iter().sum::<u64>(), l.group_units());
        // Every bin index is reachable: the top bin holds real mass.
        if let Some(&top) = lc.chunk_hist.last() {
            prop_assert!(
                lc.chunk_hist.len() == 1 || top > 0,
                "top bin of a non-trivial histogram must be occupied"
            );
        }
    }
}
