//! The persistent artifact store observed through the cache it backs: a
//! cold process builds and writes through, a second cold process loads the
//! same bytes back without computing anything, and a corrupt artifact
//! degrades to a recompute — never to a failure. The store's trust
//! boundary is checked for every record kind through the generic `get`.
//!
//! Each test uses its own [`ola_harness::prep::PrepCache`] instance and its
//! own store directory, so they are independent of the global cache and of
//! each other. The write race re-runs this test binary as two writer
//! processes.

use ola_core::cost::{self, GroupTuning};
use ola_core::event::jobs_from_workload;
use ola_harness::fig03::{surrogate_specs, SURROGATE_ZOO};
use ola_harness::prep::{
    attach_disk_store, PrepCache, Prepared, StaticThresholdCounts, DEFAULT_SEED,
};
use ola_integration::oracle::bitwise_eq;
use ola_nn::synth::SynthConfig;
use ola_nn::synthnet::{SynthDataset, SynthNet, TrainedSynthNet};
use ola_quant::accuracy::{QuantAccuracy, WeightSqnr};
use ola_quant::evalcache::weight_sqnr_key;
use ola_quant::EvalCache;
use ola_sim::calibrate::RuntimeCounts;
use ola_sim::workload::{LayerKind, LayerWorkload};
use ola_sim::{EventRecord, LayerRun, QuantPolicy, Utilization, WorkloadSet};
use ola_store::{ArtifactStore, Record, StoreError};
use ola_tensor::bytes::{fnv1a64, Writer};
use ola_tensor::memo::Persist;
use ola_tensor::Shape4;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A unique scratch directory per call (parallel tests never collide).
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ola-roundtrip-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn open(dir: &Path) -> Arc<ArtifactStore> {
    Arc::new(ArtifactStore::open(dir).unwrap())
}

const NET: &str = "alexnet";
const SCALE: usize = 8;

/// The paths of `dir`'s `R` records.
fn record_files<R: Record>(dir: &Path) -> Vec<PathBuf> {
    let prefix = format!("{}-", R::PREFIX);
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with(&prefix)
        })
        .collect()
}

/// Flips every bit of `path`'s last byte, a payload byte the checksum
/// covers.
fn flip_last_byte(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(path, bytes).unwrap();
}

/// The `(prepared_misses, workload_misses, disk_hits, disk_misses)`
/// counters of `cache`.
fn tier_counts(cache: &PrepCache) -> (u64, u64, u64, u64) {
    let s = cache.stats();
    (
        s.prepared_misses,
        s.workload_misses,
        s.disk_hits,
        s.disk_misses,
    )
}

/// The `(static_built, static_loaded, static_missed)` counters of `cache`.
fn static_counts(cache: &PrepCache) -> (u64, u64, u64) {
    let s = cache.stats();
    (s.static_built, s.static_loaded, s.static_missed)
}

/// A cache with a store writes its two results and nothing else: the
/// prepared network both come from lives in memory only.
#[test]
fn the_store_holds_results_not_preparations() {
    let dir = scratch("no-prep");
    let cache = PrepCache::new();
    cache.set_store(open(&dir));
    let _ = cache.prepared(NET, SCALE, DEFAULT_SEED);
    let _ = cache.workloads(NET, SCALE, DEFAULT_SEED, &QuantPolicy::olaccel16(NET));
    let _ = cache.static_threshold_counts(NET, SCALE, DEFAULT_SEED);
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(record_files::<WorkloadSet>(&dir).len(), 1, "{names:?}");
    assert_eq!(
        record_files::<StaticThresholdCounts>(&dir).len(),
        1,
        "{names:?}"
    );
    assert_eq!(names.len(), 2, "the store holds {names:?}");
    assert!(!names.iter().any(|n| n.starts_with("prep-")), "{names:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn second_process_loads_instead_of_computing() {
    let dir = scratch("warm");
    let policy = QuantPolicy::olaccel16(NET);

    // "Process" one: a fresh cache with the disk tier attached. Both
    // results miss both tiers, are computed from one preparation, and are
    // written through.
    let cold = PrepCache::new();
    cold.set_store(open(&dir));
    let ws_cold = cold.workloads(NET, SCALE, DEFAULT_SEED, &policy);
    let st_cold = cold.static_threshold_counts(NET, SCALE, DEFAULT_SEED);
    assert_eq!(
        tier_counts(&cold),
        (1, 1, 0, 1),
        "cold run must prepare and extract"
    );
    assert_eq!(cold.stats().prepared_hits, 1, "one preparation serves both");
    assert_eq!(static_counts(&cold), (1, 0, 1), "cold run must count");
    let artifacts: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(artifacts.len(), 2, "write-through left {artifacts:?}");
    assert!(artifacts.iter().all(|f| f.ends_with(".olas")));

    // "Process" two: another fresh cache over the same directory. Both
    // requests must be served from disk — no preparation at all — and the
    // loaded results must be bit-identical to the cold ones.
    let warm = PrepCache::new();
    warm.set_store(open(&dir));
    let ws_warm = warm.workloads(NET, SCALE, DEFAULT_SEED, &policy);
    let st_warm = warm.static_threshold_counts(NET, SCALE, DEFAULT_SEED);
    assert_eq!(
        tier_counts(&warm),
        (0, 0, 1, 0),
        "warm run must load the set"
    );
    assert_eq!(
        static_counts(&warm),
        (0, 1, 0),
        "warm run must load the counts"
    );
    assert_eq!(warm.stats().prepared_hits, 0, "no prepared lookup at all");
    assert!(
        bitwise_eq(&ws_warm, &ws_cold),
        "loaded workload set must be bit-identical"
    );
    assert_eq!(*st_warm, *st_cold);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_artifact_warns_and_recomputes() {
    let dir = scratch("corrupt");
    let policy = QuantPolicy::olaccel16(NET);

    let cold = PrepCache::new();
    cold.set_store(open(&dir));
    let ws_cold = cold.workloads(NET, SCALE, DEFAULT_SEED, &policy);
    let st_cold = cold.static_threshold_counts(NET, SCALE, DEFAULT_SEED);

    // Flip one payload byte in every artifact: checksums must catch it.
    for entry in std::fs::read_dir(&dir).unwrap() {
        flip_last_byte(&entry.unwrap().path());
    }

    let hurt = PrepCache::new();
    hurt.set_store(open(&dir));
    let ws = hurt.workloads(NET, SCALE, DEFAULT_SEED, &policy);
    let st = hurt.static_threshold_counts(NET, SCALE, DEFAULT_SEED);
    assert_eq!(
        tier_counts(&hurt),
        (1, 1, 0, 1),
        "corruption must fall back to one preparation"
    );
    assert_eq!(static_counts(&hurt), (1, 0, 1));
    assert!(
        bitwise_eq(&ws, &ws_cold),
        "recompute must match the original"
    );
    assert_eq!(*st, *st_cold);

    // The recompute wrote fresh artifacts back; a third cache loads again.
    let healed = PrepCache::new();
    healed.set_store(open(&dir));
    let _ = healed.workloads(NET, SCALE, DEFAULT_SEED, &policy);
    let _ = healed.static_threshold_counts(NET, SCALE, DEFAULT_SEED);
    assert_eq!(
        tier_counts(&healed),
        (0, 0, 1, 0),
        "write-through must self-heal"
    );
    assert_eq!(static_counts(&healed), (0, 1, 0));

    std::fs::remove_dir_all(&dir).ok();
}

/// A warm workload request is served by its own record: the prepared
/// network it was extracted from is neither loaded nor built.
#[test]
fn warm_workloads_never_touch_the_prepared_tier() {
    let dir = scratch("keyonly");
    let policy = QuantPolicy::olaccel16(NET);
    let cold = PrepCache::new();
    cold.set_store(open(&dir));
    let ws_cold = cold.workloads(NET, SCALE, DEFAULT_SEED, &policy);
    assert_eq!(tier_counts(&cold), (1, 1, 0, 1), "cold run builds both");

    let warm = PrepCache::new();
    warm.set_store(open(&dir));
    let ws = warm.workloads(NET, SCALE, DEFAULT_SEED, &policy);
    assert_eq!(tier_counts(&warm), (0, 0, 1, 0));
    assert_eq!(warm.stats().prepared_hits, 0, "no prepared lookup at all");
    assert!(bitwise_eq(&ws, &ws_cold));

    std::fs::remove_dir_all(&dir).ok();
}

/// With only the workload record corrupt, the miss prepares the network
/// again and extracts once, the intact static-threshold record still
/// loads, and the rewritten workload record heals the store.
#[test]
fn corrupt_workload_record_reprepares_and_heals() {
    let dir = scratch("ws-corrupt");
    let policy = QuantPolicy::olaccel16(NET);
    let cold = PrepCache::new();
    cold.set_store(open(&dir));
    let ws_cold = cold.workloads(NET, SCALE, DEFAULT_SEED, &policy);
    let _ = cold.static_threshold_counts(NET, SCALE, DEFAULT_SEED);

    let ws_path = record_files::<WorkloadSet>(&dir);
    assert_eq!(ws_path.len(), 1, "the cold run wrote one workload record");
    flip_last_byte(&ws_path[0]);

    let hurt = PrepCache::new();
    hurt.set_store(open(&dir));
    let ws = hurt.workloads(NET, SCALE, DEFAULT_SEED, &policy);
    let _ = hurt.static_threshold_counts(NET, SCALE, DEFAULT_SEED);
    assert_eq!(
        tier_counts(&hurt),
        (1, 1, 0, 1),
        "one failed load, one preparation, one extraction"
    );
    assert_eq!(static_counts(&hurt), (0, 1, 0), "the intact record loads");
    assert!(
        bitwise_eq(&ws, &ws_cold),
        "recompute must match the cold set"
    );

    let healed = PrepCache::new();
    healed.set_store(open(&dir));
    let _ = healed.workloads(NET, SCALE, DEFAULT_SEED, &policy);
    assert_eq!(tier_counts(&healed), (0, 0, 1, 0), "write-through heals");

    std::fs::remove_dir_all(&dir).ok();
}

/// A truncated workload record misses and is recomputed; files the store
/// did not write for this build — an orphaned `prep` record of an older
/// store, a stray text file — are neither read nor removed.
#[test]
fn truncated_and_alien_files_are_ignored() {
    let dir = scratch("alien");
    let policy = QuantPolicy::olaccel16(NET);
    let cold = PrepCache::new();
    cold.set_store(open(&dir));
    let ws_cold = cold.workloads(NET, SCALE, DEFAULT_SEED, &policy);

    // Truncate the artifact to a prefix and confirm the loader shrugs.
    let path = record_files::<WorkloadSet>(&dir).pop().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let aliens = [
        dir.join("prep-0123456789abcdef-v0123456789abcdef.olas"),
        dir.join("notes.txt"),
    ];
    for alien in &aliens {
        std::fs::write(alien, b"not an artifact").unwrap();
    }

    let cache = PrepCache::new();
    cache.set_store(open(&dir));
    let ws = cache.workloads(NET, SCALE, DEFAULT_SEED, &policy);
    assert_eq!(tier_counts(&cache), (1, 1, 0, 1));
    assert!(bitwise_eq(&ws, &ws_cold));
    for alien in &aliens {
        assert!(alien.exists(), "{} was removed", alien.display());
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// A hand-built workload set whose fields all differ from their defaults.
fn sample_workloads() -> WorkloadSet {
    WorkloadSet {
        network: "alexnet".into(),
        layers: vec![LayerWorkload {
            name: "conv1".into(),
            index: 0,
            kind: LayerKind::Conv,
            in_shape: Shape4::new(1, 3, 8, 8),
            out_shape: Shape4::new(1, 16, 4, 4),
            kernel: 3,
            // Every kernel tap of every output: 4·4·16 outputs × 3·9.
            macs: 6912,
            weight_count: 432,
            weight_bits: 4,
            act_bits: 16,
            weight_zero_fraction: 0.5,
            act_zero_fraction: 0.25,
            weight_outlier_ratio: 0.035,
            act_outlier_nonzero_ratio: 0.05,
            act_effective_outlier_ratio: 0.0375,
            chunk_nnz: vec![3, 0, 16],
            chunk_zero_quads: vec![1, 4, 0],
            wchunk_single_fraction: 0.3,
            wchunk_multi_fraction: 0.05,
            out_zero_fraction: 0.6,
        }],
    }
}

#[test]
fn workloads_round_trip_bitwise() {
    let dir = scratch("ws");
    let store = ArtifactStore::open(&dir).unwrap();
    let ws = sample_workloads();
    store.put(9, &ws).unwrap();
    let back = store.get::<WorkloadSet>(9).unwrap().unwrap();
    assert!(bitwise_eq(&back, &ws));
    // A different key (another policy's) is a different artifact.
    assert!(store.get::<WorkloadSet>(10).unwrap().is_none());
    std::fs::remove_dir_all(&dir).ok();
}

/// `-0.0` and `0.0` share one workload-set key, so a fresh cache asking for
/// `-0.0` loads the artifact a `0.0` run wrote instead of extracting again.
#[test]
fn loaded_workloads_carry_the_requested_policy_bits() {
    let dir = scratch("carry");
    let mut zero = QuantPolicy::olaccel16(NET);
    zero.outlier_ratio = 0.0;
    let mut neg_zero = zero;
    neg_zero.outlier_ratio = -0.0;

    let cold = PrepCache::new();
    cold.set_store(open(&dir));
    let _ = cold.workloads(NET, SCALE, DEFAULT_SEED, &zero);

    let warm = PrepCache::new();
    warm.set_store(open(&dir));
    let _ = warm.workloads(NET, SCALE, DEFAULT_SEED, &neg_zero);
    assert_eq!(
        tier_counts(&warm),
        (0, 0, 1, 0),
        "no preparation, no extraction"
    );
    assert_eq!(
        record_files::<WorkloadSet>(&dir).len(),
        1,
        "-0.0 must not write a second artifact"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// One small valid record of every kind the store persists.
struct Samples {
    workloads: WorkloadSet,
    run: LayerRun,
    event: EventRecord,
    eval: QuantAccuracy,
    surrogate: WeightSqnr,
    synthnet: TrainedSynthNet,
    thresholds: StaticThresholdCounts,
}

fn samples() -> &'static Samples {
    static SAMPLES: OnceLock<Samples> = OnceLock::new();
    SAMPLES.get_or_init(|| {
        // The smallest AlexNet the zoo builds, so its workloads are real
        // and every-byte checks stay cheap.
        let prepared = Prepared::with_seed(NET, 64, 7);
        let workloads = prepared.extract(&QuantPolicy::olaccel16(NET));
        // Counts that fit the graph: every compute layer after the first,
        // its per-image input size as the total.
        let shapes = prepared.net.shapes();
        let thresholds = StaticThresholdCounts {
            network: NET.into(),
            scale: 64,
            layers: (prepared.net.compute_nodes().into_iter().skip(1))
                .map(|id| {
                    let node = &prepared.net.nodes()[id];
                    let total = shapes[node.inputs[0]].len() as u64;
                    let counts = RuntimeCounts {
                        nonzero: total / 2,
                        outliers: total / 64,
                        total,
                    };
                    (node.name.clone(), counts)
                })
                .collect(),
        };
        let utilization = Utilization {
            run_cycles: 40,
            skip_cycles: 2,
            idle_cycles: 6,
        };
        Samples {
            workloads,
            run: LayerRun {
                name: "conv1".into(),
                cycles: 48,
                energy: Default::default(),
                utilization,
                chunk_cycle_hist: vec![3, 0, 1],
            },
            event: EventRecord {
                cycles: 48,
                utilization,
                outlier_busy: 5,
            },
            eval: QuantAccuracy {
                top1: 0.875,
                topk: 1.0,
                realized_weight_ratio: 0.03,
            },
            surrogate: WeightSqnr {
                mean_db: vec![21.5, 7.25],
            },
            // A full 10-way net (its weights fix the payload at ~134 KB)
            // with tiny splits.
            synthnet: TrainedSynthNet {
                net: SynthNet::new(10, 7),
                train: SynthDataset::generate(3, 10, 8),
                test: SynthDataset::generate(2, 10, 9),
                fp_top1: 0.5,
                fp_top5: 1.0,
            },
            thresholds,
        }
    })
}

/// Bytes of the store's file header (magic, format, kind, key, version,
/// payload length, checksum) before the payload.
const HEADER_BYTES: usize = 4 + 4 + 1 + 8 + 8 + 8 + 8;

/// Every single-byte flip and every strict prefix of a valid `R` file is
/// an error from the generic `get`, so the persistent tier misses. With
/// `stride > 1`, payload positions are sampled every `stride` bytes (plus
/// the last); every header byte is still hit. A one-byte payload change
/// always changes the FNV-1a checksum, so the stride costs runtime, not
/// power.
fn assert_flips_and_prefixes_rejected<R: Record>(store: &ArtifactStore, record: &R, stride: usize)
where
    ArtifactStore: Persist<R>,
{
    store.put(1, record).unwrap();
    let path = store.path::<R>(1);
    let good = std::fs::read(&path).unwrap();
    assert!(store.get::<R>(1).unwrap().is_some());
    let positions = (0..good.len()).filter(|&i| {
        i < HEADER_BYTES || (i - HEADER_BYTES).is_multiple_of(stride) || i + 1 == good.len()
    });
    for i in positions.clone() {
        for mask in [0x01, 0xFF] {
            let mut bad = good.clone();
            bad[i] ^= mask;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                store.get::<R>(1).is_err(),
                "{} flip {mask:#x} at {i}",
                R::PREFIX
            );
        }
    }
    for n in positions {
        std::fs::write(&path, &good[..n]).unwrap();
        assert!(store.get::<R>(1).is_err(), "{} prefix {n}", R::PREFIX);
    }
    assert!(Persist::<R>::load(store, 1).is_none());
}

#[test]
fn every_record_kind_rejects_flipped_and_truncated_files() {
    let dir = scratch("flips");
    let store = ArtifactStore::open(&dir).unwrap();
    let s = samples();
    assert_flips_and_prefixes_rejected(&store, &s.workloads, 1);
    assert_flips_and_prefixes_rejected(&store, &s.run, 1);
    assert_flips_and_prefixes_rejected(&store, &s.event, 1);
    assert_flips_and_prefixes_rejected(&store, &s.eval, 1);
    assert_flips_and_prefixes_rejected(&store, &s.surrogate, 1);
    assert_flips_and_prefixes_rejected(&store, &s.synthnet, 251);
    assert_flips_and_prefixes_rejected(&store, &s.thresholds, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Names the writer role when this test binary re-runs itself as a child
/// of [`two_processes_racing_on_one_key_never_tear`]; the value is the
/// store directory.
const RACE_WRITER_ENV: &str = "OLA_STORE_RACE_WRITER";
const RACE_KEY: u64 = 0x5eed;
/// Created in the store directory to stop the writers.
const RACE_STOP: &str = "stop";

/// The record both racing writers store: a few hundred layers, so a torn
/// write would be visible to a reader.
fn race_record() -> WorkloadSet {
    let mut ws = sample_workloads();
    let layer = ws.layers[0].clone();
    ws.layers = (0..256)
        .map(|index| LayerWorkload {
            index,
            ..layer.clone()
        })
        .collect();
    ws
}

struct StopWriters(PathBuf);

impl Drop for StopWriters {
    fn drop(&mut self) {
        let _ = std::fs::write(&self.0, b"");
    }
}

/// Two processes `put` the same record under one key in a loop while this
/// one reads it. Every read is absent or the bit-identical record — the
/// temporary-file + `rename` commit never exposes a torn file — and no
/// temporary file outlives its writer.
#[test]
fn two_processes_racing_on_one_key_never_tear() {
    let record = race_record();
    if let Ok(dir) = std::env::var(RACE_WRITER_ENV) {
        let dir = PathBuf::from(dir);
        let store = ArtifactStore::open(&dir).unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        while !dir.join(RACE_STOP).exists() && Instant::now() < deadline {
            store.put(RACE_KEY, &record).unwrap();
        }
        return;
    }
    let dir = scratch("race");
    let store = ArtifactStore::open(&dir).unwrap();
    let spawn = || {
        Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "two_processes_racing_on_one_key_never_tear"])
            .env(RACE_WRITER_ENV, &dir)
            .stdout(Stdio::null())
            .spawn()
            .unwrap()
    };
    let mut writers = [spawn(), spawn()];
    // Stops the writers however this test ends.
    let stop = StopWriters(dir.join(RACE_STOP));
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut found = 0;
    while found < 200 {
        assert!(
            Instant::now() < deadline,
            "only {found} reads found the record"
        );
        match store.get::<WorkloadSet>(RACE_KEY) {
            Ok(None) => {}
            Ok(Some(back)) => {
                assert!(bitwise_eq(&back, &record), "read {found} differs");
                found += 1;
            }
            Err(e) => panic!("a read failed while two processes wrote: {e}"),
        }
    }
    drop(stop);
    for w in &mut writers {
        assert!(w.wait().unwrap().success(), "a writer process failed");
    }
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|f| f.starts_with(".tmp-"))
        .collect();
    assert!(leftovers.is_empty(), "temporary files left: {leftovers:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Writes `record`'s file with its payload replaced by `mutate(payload)`,
/// re-framed with a valid length and checksum, and reads it back.
fn get_reframed<R: Record>(
    store: &ArtifactStore,
    record: &R,
    mutate: impl Fn(&mut Vec<u8>),
) -> Result<Option<R>, StoreError> {
    let mut w = Writer::new();
    record.encode(&mut w);
    let payload_len = w.into_bytes().len();
    store.put(2, record).unwrap();
    let path = store.path::<R>(2);
    let file = std::fs::read(&path).unwrap();
    let (header, payload) = file.split_at(file.len() - payload_len);
    let mut payload = payload.to_vec();
    mutate(&mut payload);
    // The frame ends in `payload_len u64, checksum u64` before the payload.
    let mut framed = header[..header.len() - 16].to_vec();
    framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    framed.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    framed.extend_from_slice(&payload);
    std::fs::write(&path, framed).unwrap();
    store.get::<R>(2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A payload mutated past the checksum decodes to an error or a value
    /// for every record kind — never a panic. Half the cases confine the
    /// edits to the payload's first bytes, where identities and lengths
    /// live.
    #[test]
    fn reframed_payload_mutations_never_panic(
        edits in prop::collection::vec((0usize..1 << 16, 1u8..=255), 1..6),
        head in prop::bool::ANY,
        truncate in prop::bool::ANY,
        cut in 0usize..1 << 16,
    ) {
        let dir = scratch("reframe");
        let store = ArtifactStore::open(&dir).unwrap();
        let mutate = |p: &mut Vec<u8>| {
            let span = if head { p.len().min(40) } else { p.len() };
            for &(at, mask) in &edits {
                p[at % span] ^= mask;
            }
            if truncate {
                p.truncate(cut % p.len());
            }
        };
        let s = samples();
        // A workload set that decodes must cost, and stream every chunk,
        // in bounds under either outlier-MAC setting.
        if let Ok(Some(ws)) = get_reframed(&store, &s.workloads, mutate) {
            for l in &ws.layers {
                for outlier_mac in [true, false] {
                    let tuning = GroupTuning { outlier_mac, ..GroupTuning::default() };
                    let _ = cost::layer_cost(l, &tuning);
                    jobs_from_workload(l, &tuning, 0)
                        .take(2 * l.chunk_nnz.len())
                        .for_each(drop);
                }
            }
        }
        let _ = get_reframed(&store, &s.run, mutate);
        let _ = get_reframed(&store, &s.event, mutate);
        let _ = get_reframed(&store, &s.eval, mutate);
        let _ = get_reframed(&store, &s.surrogate, mutate);
        // Counts that decode still fit the graph they name.
        if let Ok(Some(t)) = get_reframed(&store, &s.thresholds, mutate) {
            assert_eq!(t.layers.len(), s.thresholds.layers.len());
            for (_, c) in &t.layers {
                assert!(c.outliers <= c.nonzero && c.nonzero <= c.total);
            }
        }
        // A trained net that decodes must forward and evaluate in bounds.
        if let Ok(Some(t)) = get_reframed(&store, &s.synthnet, mutate) {
            let _ = t.net.eval_with_jobs(&t.test, 5, |_, _| (), 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Checksum-valid trained-net payloads that would index out of bounds in
/// the forward or the top-k rank must each decode to an error.
#[test]
fn hostile_synthnet_payloads_are_rejected() {
    let dir = scratch("hostile-synthnet");
    let store = ArtifactStore::open(&dir).unwrap();
    let s = &samples().synthnet;
    let reject = |what: &str, hostile: TrainedSynthNet| {
        let mut w = Writer::new();
        hostile.encode(&mut w);
        let payload = w.into_bytes();
        let got = get_reframed(&store, s, |p| p.clone_from(&payload));
        assert!(matches!(got, Err(StoreError::Corrupt(_))), "{what}");
    };
    let mut short = s.clone();
    short.net.params[0].pop();
    reject("a weight vector one float short", short);
    let mut label = s.clone();
    label.test.labels[0] = label.net.classes;
    reject("a label equal to the class count", label);
    let mut classless = s.clone();
    classless.net.classes = 0;
    classless.train.classes = 0;
    classless.test.classes = 0;
    reject("a class count of 0", classless);
    let mut image = s.clone();
    image.train.images[1].push(0.0);
    reject("an image one float long", image);
    std::fs::remove_dir_all(&dir).ok();
}

/// Checksum-valid workload payloads that would index out of bounds or
/// overflow in the accelerator models each decode to an error: the
/// decoder holds every invariant extraction guarantees.
#[test]
fn hostile_workload_payloads_are_rejected() {
    let dir = scratch("hostile-ws");
    let store = ArtifactStore::open(&dir).unwrap();
    let s = &samples().workloads;
    let reject = |what: &str, edit: &dyn Fn(&mut LayerWorkload)| {
        let mut hostile = s.clone();
        edit(&mut hostile.layers[1]);
        let mut w = Writer::new();
        hostile.encode(&mut w);
        let payload = w.into_bytes();
        let got = get_reframed(&store, s, |p| p.clone_from(&payload));
        assert!(matches!(got, Err(StoreError::Corrupt(_))), "{what}");
    };
    assert!(get_reframed(&store, s, |_| ()).unwrap().is_some());
    reject("one zero-quad count short", &|l| {
        l.chunk_zero_quads.pop();
    });
    reject("one chunk count short", &|l| {
        l.chunk_nnz.pop();
    });
    reject("a chunk of 17 non-zero lanes", &|l| l.chunk_nnz[0] = 17);
    reject("a chunk of 5 zero quads", &|l| l.chunk_zero_quads[0] = 5);
    reject("33-bit weights", &|l| l.weight_bits = 33);
    reject("activations of u32::MAX bits", &|l| l.act_bits = u32::MAX);
    let fraction: [fn(&mut LayerWorkload) -> &mut f64; 8] = [
        |l| &mut l.weight_zero_fraction,
        |l| &mut l.act_zero_fraction,
        |l| &mut l.weight_outlier_ratio,
        |l| &mut l.act_outlier_nonzero_ratio,
        |l| &mut l.act_effective_outlier_ratio,
        |l| &mut l.wchunk_single_fraction,
        |l| &mut l.wchunk_multi_fraction,
        |l| &mut l.out_zero_fraction,
    ];
    for (i, field) in fraction.iter().enumerate() {
        for v in [f64::NAN, f64::INFINITY, -1e-9, 1.0 + 1e-9, 1e30] {
            reject(&format!("fraction {i} of {v}"), &|l| *field(l) = v);
        }
    }
    let big = 1 << 24;
    reject("an element count past u64", &|l| {
        l.in_shape = Shape4::new(big, big, big, big)
    });
    reject("an element count of 2^48", &|l| {
        l.out_shape = Shape4::new(1, big, big, 1)
    });
    // `group_units` grows with `macs`: a validation would stream that many
    // event jobs.
    reject("more MACs than the outputs have kernel taps", &|l| {
        l.macs = l.out_count() * (l.in_shape.c * l.kernel * l.kernel) as u64 + 1
    });
    reject("2^40 MACs", &|l| l.macs = 1 << 40);
    std::fs::remove_dir_all(&dir).ok();
}

/// Checksum-valid static-threshold payloads that do not fit their graph
/// each decode to an error, never to a different report.
#[test]
fn hostile_static_threshold_payloads_are_rejected() {
    let dir = scratch("hostile-static");
    let store = ArtifactStore::open(&dir).unwrap();
    let s = &samples().thresholds;
    let reject = |what: &str, hostile: StaticThresholdCounts| {
        let mut w = Writer::new();
        hostile.encode(&mut w);
        let payload = w.into_bytes();
        let got = get_reframed(&store, s, |p| p.clone_from(&payload));
        assert!(matches!(got, Err(StoreError::Corrupt(_))), "{what}");
    };
    let mut short = s.clone();
    short.layers.pop();
    reject("a layer count unlike AlexNet's", short);
    let mut long = s.clone();
    long.layers.push(long.layers[0].clone());
    reject("a layer more than AlexNet has", long);
    let mut outliers = s.clone();
    outliers.layers[2].1.outliers = outliers.layers[2].1.nonzero + 1;
    reject("outliers above the non-zero count", outliers);
    let mut nonzero = s.clone();
    nonzero.layers[4].1.nonzero = nonzero.layers[4].1.total + 1;
    reject("non-zeros above the total", nonzero);
    let mut total = s.clone();
    total.layers[1].1.total += 1;
    total.layers[1].1.nonzero += 1;
    reject("a total unlike the layer's input", total);
    let mut unknown = s.clone();
    unknown.network = "nosuchnet".into();
    reject("a network the zoo does not know", unknown);
    let mut scaleless = s.clone();
    scaleless.scale = 0;
    reject("a scale of 0", scaleless);
    std::fs::remove_dir_all(&dir).ok();
}

/// A cold run writes the static-threshold record; a second cache over the
/// same store loads it without touching a prepared network; a flipped
/// byte costs one failed load and a rerun, on a fresh preparation, that
/// heals the file.
#[test]
fn static_threshold_record_persists_loads_and_heals() {
    let dir = scratch("static");
    let cold = PrepCache::new();
    cold.set_store(open(&dir));
    let built = cold.static_threshold_counts(NET, SCALE, DEFAULT_SEED);
    assert_eq!(static_counts(&cold), (1, 0, 1), "cold run builds");
    assert_eq!(cold.stats().prepared_misses, 1);
    let files = record_files::<StaticThresholdCounts>(&dir);
    assert_eq!(files.len(), 1, "the cold run writes one record");
    assert_eq!(
        built.layers.len(),
        7,
        "AlexNet's compute layers after conv1"
    );
    assert_eq!(built.layers[0].0, "conv2");

    let warm = PrepCache::new();
    warm.set_store(open(&dir));
    let loaded = warm.static_threshold_counts(NET, SCALE, DEFAULT_SEED);
    assert_eq!(static_counts(&warm), (0, 1, 0));
    let s = warm.stats();
    assert_eq!(
        (s.prepared_misses, s.prepared_hits),
        (0, 0),
        "no prepared lookup at all"
    );
    assert_eq!(*loaded, *built);

    flip_last_byte(&files[0]);
    let hurt = PrepCache::new();
    hurt.set_store(open(&dir));
    let rerun = hurt.static_threshold_counts(NET, SCALE, DEFAULT_SEED);
    assert_eq!(
        static_counts(&hurt),
        (1, 0, 1),
        "one failed load, one rerun"
    );
    assert_eq!(
        hurt.stats().prepared_misses,
        1,
        "the rerun prepares the network"
    );
    assert_eq!(*rerun, *built);

    let healed = PrepCache::new();
    healed.set_store(open(&dir));
    let again = healed.static_threshold_counts(NET, SCALE, DEFAULT_SEED);
    assert_eq!(static_counts(&healed), (0, 1, 0), "write-through heals");
    assert_eq!(healed.stats().prepared_misses, 0);
    assert_eq!(*again, *built);
    assert_eq!(record_files::<StaticThresholdCounts>(&dir).len(), 1);

    std::fs::remove_dir_all(&dir).ok();
}

/// Set in the child process that runs fig3 on a store.
const FIG3_STORE_ENV: &str = "OLA_STORE_FIG3_DIR";

/// Only the key folds fig3's two surrogate specs, so a checksum-valid
/// `wsqnr` record with one entry decodes. fig3 must take it for a miss and
/// recompute it: the warm run prints the golden report, and its rebuild
/// overwrites every record with two entries.
#[test]
fn one_entry_weight_sqnr_records_are_recomputed() {
    if let Ok(dir) = std::env::var(FIG3_STORE_ENV) {
        // The child: fig3 through the global caches, warm on `dir`.
        attach_disk_store(Path::new(&dir)).unwrap();
        print!("{}", ola_harness::run_experiment("fig3", true));
        let s = EvalCache::global().stats();
        assert_eq!(
            (s.surrogates_built, s.surrogates_loaded, s.surrogates_missed),
            (5, 0, 5),
            "each one-entry record is a miss"
        );
        return;
    }
    let dir = scratch("wsqnr");
    let store = ArtifactStore::open(&dir).unwrap();
    // The bytes a two-entry payload re-framed to its first entry holds,
    // under the key of every network fig3 reports.
    let networks = ["alexnet", "vgg16", "resnet18", "resnet101", "densenet121"];
    let keys = networks.map(|network| {
        let synth = SynthConfig::for_network(network);
        weight_sqnr_key(network, &SURROGATE_ZOO, &synth, &surrogate_specs(network))
    });
    for &key in &keys {
        store
            .put(
                key,
                &WeightSqnr {
                    mean_db: vec![21.5],
                },
            )
            .unwrap();
    }
    let out = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "one_entry_weight_sqnr_records_are_recomputed"])
        .args(["--nocapture", "--test-threads", "1"])
        .env(FIG3_STORE_ENV, &dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "warm fig3 failed:\n{stderr}");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/fig3.txt");
    let golden = std::fs::read_to_string(golden).unwrap();
    assert!(stdout.contains(&golden), "warm fig3 drifted:\n{stdout}");
    for key in keys {
        let healed = store.get::<WeightSqnr>(key).unwrap().expect("rewritten");
        assert_eq!(healed.mean_db.len(), 2);
    }
    std::fs::remove_dir_all(&dir).ok();
}
