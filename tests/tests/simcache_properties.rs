//! Property tests for the process-wide simulation cache (`ola_sim::simcache`):
//! a cached result must be bit-identical to a fresh computation for every
//! accelerator model at any worker count and under every single change of
//! the model's inputs, event records replayed from the cache must still
//! satisfy the cycle conservation law, and the disk tier must round-trip
//! records bit-exactly through the artifact store.

use ola_baselines::eyeriss::EyerissTuning;
use ola_baselines::zena::ZenaTuning;
use ola_baselines::{EyerissSim, ZenaSim};
use ola_core::cost::GroupTuning;
use ola_core::event::{cluster_record, EventConfig};
use ola_core::{OlAccelSim, Tuning};
use ola_energy::config::MemoryConfig;
use ola_energy::{ComparisonMode, TechParams};
use ola_sim::workload::{LayerKind, LayerWorkload, WorkloadSet};
use ola_sim::{Accelerator, EventRecord, LayerModel, LayerRun, SimCache, Utilization};
use ola_store::ArtifactStore;
use ola_tensor::Shape4;
use proptest::prelude::*;
use std::sync::Arc;

/// A synthetic conv layer with caller-chosen chunk data and fractions —
/// the cache contract must hold for *any* workload, not just zoo output.
#[allow(clippy::too_many_arguments)]
fn layer(
    index: usize,
    chunk_nnz: Vec<u8>,
    units: u64,
    act_bits: u32,
    act_zero: f64,
    w_zero: f64,
    multi: f64,
    kernel: usize,
) -> LayerWorkload {
    let chunks = chunk_nnz.len();
    let chunk_zero_quads = chunk_nnz.iter().map(|&n| u8::from(n == 0) * 4).collect();
    LayerWorkload {
        name: format!("prop{index}"),
        index,
        kind: LayerKind::Conv,
        in_shape: Shape4::new(1, 16, 4, chunks.max(1)),
        out_shape: Shape4::new(1, 16, 4, chunks.max(1)),
        kernel,
        macs: units * 256,
        weight_count: 256 * kernel as u64 * kernel as u64,
        weight_bits: 4,
        act_bits,
        weight_zero_fraction: w_zero,
        act_zero_fraction: act_zero,
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

/// Strategy: a workload set of 1-5 random layers.
fn workload_set() -> impl Strategy<Value = WorkloadSet> {
    prop::collection::vec(
        (
            (
                prop::collection::vec(0u8..=16, 1..48),
                1u64..3000,
                0usize..3, // index into [4, 8, 16] act bits
            ),
            (
                0.0f64..0.95,
                0.0f64..0.95,
                0.0f64..0.3,
                0usize..3, // index into [1, 3, 11] kernel sizes
            ),
        ),
        1..5,
    )
    .prop_map(|specs| WorkloadSet {
        network: "alexnet".into(),
        layers: specs
            .into_iter()
            .enumerate()
            .map(|(i, ((nnz, units, bits), (az, wz, multi, k)))| {
                layer(
                    i + 1,
                    nnz,
                    units,
                    [4u32, 8, 16][bits],
                    az,
                    wz,
                    multi,
                    [1usize, 3, 11][k],
                )
            })
            .collect(),
    })
}

/// Every field of a layer result, floats by exact bit pattern.
type RunBits = (String, u64, Utilization, [u64; 4], Vec<u64>);

fn bits(r: &LayerRun) -> RunBits {
    let e = &r.energy;
    (
        r.name.clone(),
        r.cycles,
        r.utilization,
        [e.dram, e.buffer, e.local, e.logic].map(f64::to_bits),
        r.chunk_cycle_hist.clone(),
    )
}

/// Bitwise equality of two layer results (floats by exact bit pattern).
fn assert_runs_bitwise_eq(a: &LayerRun, b: &LayerRun) {
    assert_eq!(bits(a), bits(b));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every accelerator in the six-way comparison, the cached,
    /// layer-parallel `simulate()` path is bit-identical to a fresh
    /// per-layer computation that bypasses the cache — at 1, 2 and 4
    /// workers, whether the cache is cold or warm.
    #[test]
    fn cached_simulation_matches_fresh_for_every_accelerator(ws in workload_set()) {
        let tech = TechParams::default();
        for mode in [ComparisonMode::Bits16, ComparisonMode::Bits8] {
            let mem = MemoryConfig::for_network(&ws.network, mode);
            let ola = OlAccelSim::new(tech, mode);
            let zena = ZenaSim::new(tech, mode);
            let eye = EyerissSim::new(tech, mode);
            for jobs in [1usize, 2, 4] {
                let runs = [ola.simulate_with_jobs(&ws, jobs),
                            zena.simulate_with_jobs(&ws, jobs),
                            eye.simulate_with_jobs(&ws, jobs)];
                for (cached, fresh_fn) in runs.iter().zip([
                    &(|l: &LayerWorkload| ola.simulate_layer(l, &mem))
                        as &dyn Fn(&LayerWorkload) -> LayerRun,
                    &|l| zena.simulate_layer(l, &mem),
                    &|l| eye.simulate_layer(l, &mem),
                ]) {
                    prop_assert_eq!(cached.layers.len(), ws.layers.len());
                    for (c, l) in cached.layers.iter().zip(&ws.layers) {
                        assert_runs_bitwise_eq(c, &fresh_fn(l));
                    }
                }
            }
        }
    }

    /// Event records replayed from the cache satisfy the conservation law
    /// `run + skip + idle == cycles × groups` and are identical to the
    /// first (simulated) result.
    #[test]
    fn conservation_holds_on_event_cache_hits(
        nnz in prop::collection::vec(0u8..=16, 1..32),
        units in 1u64..2000,
        groups in 1usize..8,
        depth in 0u64..6,
    ) {
        let l = layer(1, nnz, units, 4, 0.5, 0.0, 0.1, 1);
        let tuning = ola_core::cost::GroupTuning::default();
        let cfg = EventConfig { groups, accum_pipeline_depth: depth };
        let first = cluster_record(&l, &tuning, &cfg);
        let hit = cluster_record(&l, &tuning, &cfg);
        prop_assert_eq!(first, hit);
        prop_assert!(hit.utilization.is_conserved(hit.cycles, groups as u64));
    }
}

/// Two layers under `network`'s Table I memory config: a raw-input first
/// layer and a pruned layer with single- and multi-outlier weight chunks,
/// so every tuning field below moves some result bit.
fn key_probe(network: &str) -> WorkloadSet {
    WorkloadSet {
        network: network.into(),
        layers: vec![
            layer(0, vec![16, 12, 0, 9], 700, 16, 0.3, 0.0, 0.0, 11),
            layer(1, vec![5, 16, 0, 2, 11], 900, 4, 0.5, 0.6, 0.1, 3),
        ],
    }
}

/// One `TechParams` per field, that field alone scaled by 1.25.
fn tech_perturbations() -> Vec<TechParams> {
    let fields: [fn(&mut TechParams) -> &mut f64; 17] = [
        |t| &mut t.mult_area_per_bit2,
        |t| &mut t.acc_area_per_bit,
        |t| &mut t.pe_linear_area_per_bit,
        |t| &mut t.pe_fixed_area,
        |t| &mut t.zena_skip_area,
        |t| &mut t.olaccel_mac_fixed_area,
        |t| &mut t.olaccel_group_area,
        |t| &mut t.olaccel_cluster_area_16,
        |t| &mut t.olaccel_cluster_area_8,
        |t| &mut t.mult_energy_per_bit2,
        |t| &mut t.acc_energy_per_bit,
        |t| &mut t.gated_mac_fraction,
        |t| &mut t.control_energy_per_op,
        |t| &mut t.sram_e0_per_bit,
        |t| &mut t.sram_e1_per_bit,
        |t| &mut t.sram_area_per_bit,
        |t| &mut t.dram_energy_per_bit,
    ];
    let base = TechParams::default().field_bits();
    fields
        .iter()
        .enumerate()
        .map(|(i, field)| {
            let mut t = TechParams::default();
            *field(&mut t) *= 1.25;
            // Perturbation i moves field i alone, so the list covers all 17.
            let moved: Vec<usize> = (0..base.len())
                .filter(|&j| t.field_bits()[j] != base[j])
                .collect();
            assert_eq!(moved, [i]);
            t
        })
        .collect()
}

/// Warms the global cache with `M`'s default simulation, then applies
/// each single perturbation — the other mode, each `TechParams` field,
/// each `(name, tuning, moves)` entry, another Table I memory config — and
/// asserts that the cached `simulate` equals a cache-bypassing
/// `simulate_layer` loop bit for bit. A key that folds too little serves
/// the default's result instead. `moves` says whether the tuning change
/// alters the fresh result, which keeps each probe from being vacuous.
fn assert_key_separates<M: LayerModel>(tunings: &[(&str, M, bool)]) {
    let (tech, mode) = (TechParams::default(), ComparisonMode::Bits16);
    let fresh = |sim: &Accelerator<M>, ws: &WorkloadSet| -> Vec<RunBits> {
        let mem = MemoryConfig::for_network(&ws.network, sim.config().mode);
        ws.layers
            .iter()
            .map(|l| bits(&sim.simulate_layer(l, &mem)))
            .collect()
    };
    let base = Accelerator::<M>::new(tech, mode);
    let alexnet = key_probe("alexnet");
    let base_bits = fresh(&base, &alexnet);
    let warm: Vec<RunBits> = base.simulate(&alexnet).layers.iter().map(bits).collect();
    assert_eq!(warm, base_bits);

    let mut probes = vec![
        (
            "other mode".to_string(),
            Accelerator::new(tech, ComparisonMode::Bits8),
            alexnet.clone(),
            Some(true),
        ),
        (
            "memory config".to_string(),
            base.clone(),
            key_probe("vgg16"),
            Some(true),
        ),
    ];
    for (i, t) in tech_perturbations().into_iter().enumerate() {
        let sim = Accelerator::new(t, mode);
        probes.push((format!("TechParams field {i}"), sim, alexnet.clone(), None));
    }
    for &(name, tuning, moves) in tunings {
        let sim = base.clone().with_tuning(tuning);
        probes.push((name.to_string(), sim, alexnet.clone(), Some(moves)));
    }
    for (name, sim, ws, moves) in probes {
        let want = fresh(&sim, &ws);
        let got: Vec<RunBits> = sim.simulate(&ws).layers.iter().map(bits).collect();
        assert_eq!(got, want, "{}: {name}", base.label());
        if let Some(moves) = moves {
            assert_eq!(want != base_bits, moves, "{}: {name}", base.label());
        }
    }
}

#[test]
fn model_cache_key_separates_every_input() {
    let ola = Tuning::default();
    let group = |g: GroupTuning| Tuning { group: g, ..ola };
    assert_key_separates(&[
        (
            "lanes",
            group(GroupTuning {
                lanes: 8,
                ..ola.group
            }),
            true,
        ),
        // Only the skip-width ablation bench reads `skip_width`; the
        // measured width-4 zero quads price skipping here, so the result
        // ignores it. It is folded all the same.
        (
            "skip_width",
            group(GroupTuning {
                skip_width: 2,
                ..ola.group
            }),
            false,
        ),
        (
            "outlier_mac",
            group(GroupTuning {
                outlier_mac: false,
                ..ola.group
            }),
            true,
        ),
        (
            "dispatch_overhead",
            Tuning {
                dispatch_overhead: 1.5,
                ..ola
            },
            true,
        ),
        (
            "accum_drain",
            Tuning {
                accum_drain: 64,
                ..ola
            },
            true,
        ),
        (
            "local_buffer_bits",
            Tuning {
                local_buffer_bits: 2 * ola.local_buffer_bits,
                ..ola
            },
            true,
        ),
    ]);
    let eye = EyerissTuning::default();
    assert_key_separates(&[
        (
            "mapping_utilization",
            EyerissTuning {
                mapping_utilization: 0.6,
                ..eye
            },
            true,
        ),
        (
            "spad_bits",
            EyerissTuning {
                spad_bits: 2 * eye.spad_bits,
                ..eye
            },
            true,
        ),
    ]);
    let zena = ZenaTuning::default();
    assert_key_separates(&[
        (
            "imbalance",
            ZenaTuning {
                imbalance: 1.3,
                ..zena
            },
            true,
        ),
        (
            "meta_bits_per_op",
            ZenaTuning {
                meta_bits_per_op: 4.0,
                ..zena
            },
            true,
        ),
        (
            "spad_bits",
            ZenaTuning {
                spad_bits: 2 * zena.spad_bits,
                ..zena
            },
            true,
        ),
    ]);
}

/// A unique scratch directory under the system temp dir (process-id +
/// monotonic counter — no wall clock, no RNG).
fn test_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "ola-simcache-test-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A warm disk store lets a second, cold in-memory cache serve the exact
/// bytes the first cache computed — without running the build closure.
#[test]
fn disk_tier_round_trips_without_recompute() {
    let dir = test_dir("tier");
    let store = Arc::new(ArtifactStore::open(&dir).unwrap());

    let run = LayerRun {
        name: "conv1".into(),
        cycles: 123_456,
        energy: ola_energy::EnergyBreakdown {
            dram: 0.1,
            buffer: -0.0,
            local: 3.5e9,
            logic: 42.0,
        },
        utilization: Utilization {
            run_cycles: 100_000,
            skip_cycles: 3_456,
            idle_cycles: 20_000,
        },
        chunk_cycle_hist: vec![0, 5, 9, 1],
    };

    // First process: cold cache + empty store → build runs, write-through.
    let warm = SimCache::new();
    warm.set_store(store.clone());
    let first = warm.layer_run(0xFEED, || run.clone());
    assert_runs_bitwise_eq(&first, &run);
    let s = warm.stats();
    assert_eq!((s.run_misses, s.disk_hits, s.disk_misses), (1, 0, 1));

    // Second process: cold cache + warm store → record loads from disk,
    // the build closure must never run.
    let cold = SimCache::new();
    cold.set_store(store);
    let replay = cold.layer_run(0xFEED, || panic!("warm store must satisfy the lookup"));
    assert_runs_bitwise_eq(&replay, &run);
    let s = cold.stats();
    assert_eq!((s.run_misses, s.disk_hits, s.disk_misses), (0, 1, 0));

    // Third request in the same process is a pure memory hit.
    let again = cold.layer_run(0xFEED, || panic!("resident entry must hit"));
    assert_runs_bitwise_eq(&again, &run);
    assert_eq!(cold.stats().run_hits, 1);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Same round trip for event records, exercised through the accelerator-
/// level `cluster_record` keying path end to end: simulate once with a
/// store attached, then verify the record file exists and decodes to the
/// same result.
#[test]
fn event_records_persist_through_the_global_path() {
    let dir = test_dir("event");
    let artifact = Arc::new(ArtifactStore::open(&dir).unwrap());

    let cache = SimCache::new();
    cache.set_store(artifact.clone());
    let rec = ola_sim::EventRecord {
        cycles: 999,
        utilization: Utilization {
            run_cycles: 500,
            skip_cycles: 100,
            idle_cycles: 399,
        },
        outlier_busy: 7,
    };
    let stored = cache.event_record(0xBEEF, || rec);
    assert_eq!(stored, rec);

    // The record is on disk under its fingerprint and model version.
    assert!(artifact.path::<EventRecord>(0xBEEF).exists());
    assert_eq!(artifact.get::<EventRecord>(0xBEEF).unwrap(), Some(rec));

    // A cold cache over the same store replays it without simulating.
    let cold = SimCache::new();
    cold.set_store(artifact);
    let replay = cold.event_record(0xBEEF, || panic!("warm store must satisfy the lookup"));
    assert_eq!(replay, rec);
    assert_eq!(cold.stats().disk_hits, 1);

    let _ = std::fs::remove_dir_all(&dir);
}
