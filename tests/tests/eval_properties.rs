//! Property tests for the quantized-accuracy evaluation pipeline
//! (`ola_quant::evalcache` + `ola_quant::accuracy`): the data-parallel
//! eval must be bit-identical to the serial one at any worker count, a
//! cached record must be bit-identical to a fresh evaluation, and the
//! disk tier must round-trip records — accuracy records and the trained
//! SynthNet they are keyed on — bit-exactly through the artifact store
//! without recomputing.

use ola_harness::fig02::{train_spec, trained};
use ola_nn::synthnet::{SynthDataset, SynthNet, TrainedSynthNet};
use ola_quant::accuracy::{evaluate_synthnet_jobs, QuantAccuracy, QuantSpec};
use ola_quant::evalcache::{eval_key, synthnet_key};
use ola_quant::policy::OutlierSelect;
use ola_quant::{EvalCache, EvalStats};
use ola_store::{ArtifactStore, Record};
use proptest::prelude::*;
use std::sync::Arc;

/// Bitwise equality of two accuracy records (floats by exact bit
/// pattern — the determinism contract is byte-identity, not tolerance).
fn assert_acc_bitwise_eq(a: &QuantAccuracy, b: &QuantAccuracy) {
    assert_eq!(a.top1.to_bits(), b.top1.to_bits());
    assert_eq!(a.topk.to_bits(), b.topk.to_bits());
    assert_eq!(
        a.realized_weight_ratio.to_bits(),
        b.realized_weight_ratio.to_bits()
    );
}

/// Strategy: an arbitrary quantization spec over the panel's selection
/// rules — ratio, bit widths and topk all vary.
fn quant_spec() -> impl Strategy<Value = (QuantSpec, usize)> {
    (
        (
            0.0f64..0.08,
            0usize..3, // selection rule
            0usize..3, // index into [2, 4, 8] low bits
        ),
        (
            1usize..6, // topk
            0usize..2, // quantize weights?
            0usize..2, // quantize activations?
        ),
    )
        .prop_map(|((ratio, sel, bits), (topk, qw, qa))| {
            let (qw, qa) = (qw == 1, qa == 1);
            let select = match sel {
                0 => OutlierSelect::MagnitudePercentile,
                1 => OutlierSelect::WindowedTopK { window: 16 },
                _ => OutlierSelect::SensitivityWeighted { window: 32 },
            };
            let spec = QuantSpec {
                low_bits: [2u8, 4, 8][bits],
                select,
                // Never both off — that spec evaluates the FP net, which
                // is a valid but uninteresting point for these tests.
                quantize_weights: qw || !qa,
                quantize_acts: qa,
                ..QuantSpec::paper_4bit(ratio)
            };
            (spec, topk)
        })
}

/// An untrained (but deterministic) net and small datasets: the pipeline
/// contract must hold for *any* weights, trained or not.
fn fixture(seed: u64) -> (SynthNet, SynthDataset, SynthDataset) {
    let net = SynthNet::new(10, seed);
    let data = SynthDataset::generate(40, 10, seed ^ 0xD474);
    let calib = SynthDataset::generate(80, 10, seed ^ 0xCA11B);
    (net, data, calib)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The fanned-out evaluation (per-image test loop and calibration
    /// pass over `ordered_map`) is bit-identical to the serial path at
    /// 1, 2 and 4 workers, for any spec and topk.
    #[test]
    fn parallel_eval_is_bitwise_identical_to_serial(
        st in quant_spec(),
        seed in 1u64..512,
    ) {
        let (spec, topk) = st;
        let (net, data, calib) = fixture(seed);
        let serial = evaluate_synthnet_jobs(&net, &data, &calib, &spec, topk, 1);
        for jobs in [2usize, 4] {
            let par = evaluate_synthnet_jobs(&net, &data, &calib, &spec, topk, jobs);
            assert_acc_bitwise_eq(&par, &serial);
        }
    }

    /// A record served from the cache is bit-identical to a fresh
    /// cache-bypassing evaluation, and the second request never
    /// recomputes.
    #[test]
    fn cached_eval_is_bitwise_identical_to_fresh(
        st in quant_spec(),
        seed in 1u64..512,
    ) {
        let (spec, topk) = st;
        let (net, data, calib) = fixture(seed);
        let fresh = evaluate_synthnet_jobs(&net, &data, &calib, &spec, topk, 2);
        let cache = EvalCache::new();
        let key = eval_key(&net, &data, &calib, &spec, topk);
        let first = cache.eval(key, || evaluate_synthnet_jobs(&net, &data, &calib, &spec, topk, 2));
        let second = cache.eval(key, || panic!("resident entry must hit"));
        assert_acc_bitwise_eq(&first, &fresh);
        assert_acc_bitwise_eq(&second, &fresh);
        let s = cache.stats();
        prop_assert_eq!((s.misses, s.hits), (1, 1));
    }

    /// The two metrics the single-pass evaluation returns are mutually
    /// consistent: top-1 can never exceed top-k for k >= 1.
    #[test]
    fn top1_never_exceeds_topk(st in quant_spec(), seed in 1u64..512) {
        let (spec, topk) = st;
        let (net, data, calib) = fixture(seed);
        let acc = evaluate_synthnet_jobs(&net, &data, &calib, &spec, topk, 2);
        prop_assert!(acc.top1 <= acc.topk + 1e-12, "top1 {} > top{} {}", acc.top1, topk, acc.topk);
    }
}

/// A unique scratch directory under the system temp dir (process-id +
/// monotonic counter — no wall clock, no RNG).
fn test_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "ola-evalcache-test-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A warm disk store lets a second, cold in-memory cache serve the exact
/// bits the first cache computed — without running the build closure.
#[test]
fn disk_tier_round_trips_without_recompute() {
    let dir = test_dir("tier");
    let store = Arc::new(ArtifactStore::open(&dir).unwrap());

    let (net, data, calib) = fixture(7);
    let spec = QuantSpec::paper_4bit(0.03);
    let key = eval_key(&net, &data, &calib, &spec, 5);

    // First process: cold cache + empty store → build runs, write-through.
    let warm = EvalCache::new();
    warm.set_store(store.clone());
    let first = warm.eval(key, || {
        evaluate_synthnet_jobs(&net, &data, &calib, &spec, 5, 2)
    });
    let s = warm.stats();
    assert_eq!((s.misses, s.disk_hits, s.disk_misses), (1, 0, 1));

    // Second process: cold cache + warm store → record loads from disk,
    // the build closure must never run.
    let cold = EvalCache::new();
    cold.set_store(store);
    let replay = cold.eval(key, || panic!("warm store must satisfy the lookup"));
    assert_acc_bitwise_eq(&replay, &first);
    let s = cold.stats();
    assert_eq!((s.misses, s.disk_hits, s.disk_misses), (0, 1, 0));

    // Third request in the same process is a pure memory hit.
    let again = cold.eval(key, || panic!("resident entry must hit"));
    assert_acc_bitwise_eq(&again, &first);
    assert_eq!(cold.stats().hits, 1);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupt record on disk degrades to a recompute (warning on stderr),
/// never a failure — and the recompute overwrites the bad file so the
/// next cold cache replays cleanly.
#[test]
fn corrupt_disk_record_degrades_to_recompute() {
    let dir = test_dir("corrupt");
    let artifact = Arc::new(ArtifactStore::open(&dir).unwrap());

    let (net, data, calib) = fixture(9);
    let spec = QuantSpec::paper_4bit(0.01);
    let key = eval_key(&net, &data, &calib, &spec, 3);

    let warm = EvalCache::new();
    warm.set_store(artifact.clone());
    let first = warm.eval(key, || {
        evaluate_synthnet_jobs(&net, &data, &calib, &spec, 3, 1)
    });

    // Truncate the record on disk.
    let path = artifact.path::<QuantAccuracy>(key);
    assert!(path.exists(), "record not persisted at {}", path.display());
    std::fs::write(&path, b"OLAS junk").unwrap();

    let cold = EvalCache::new();
    cold.set_store(artifact.clone());
    let rebuilt = cold.eval(key, || {
        evaluate_synthnet_jobs(&net, &data, &calib, &spec, 3, 1)
    });
    assert_acc_bitwise_eq(&rebuilt, &first);
    let s = cold.stats();
    assert_eq!((s.misses, s.disk_hits, s.disk_misses), (1, 0, 1));

    // The write-through repaired the file.
    let repaired = EvalCache::new();
    repaired.set_store(artifact);
    let replay = repaired.eval(key, || panic!("repaired record must replay"));
    assert_acc_bitwise_eq(&replay, &first);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The `(trained, loaded, missed)` SynthNet counters of `stats`.
fn synthnet_counts(s: EvalStats) -> (u64, u64, u64) {
    (s.synthnets_trained, s.synthnets_loaded, s.synthnets_missed)
}

fn synthnet_files(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .filter(|e| {
            let name = e.as_ref().unwrap().file_name();
            name.to_string_lossy()
                .starts_with(&format!("{}-", TrainedSynthNet::PREFIX))
        })
        .count()
}

/// Bitwise equality of two trained nets: every weight, bias, image, label
/// and full-precision metric.
fn assert_trained_bitwise_eq(a: &TrainedSynthNet, b: &TrainedSynthNet) {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(a.net.classes, b.net.classes);
    for (x, y) in a.net.params().iter().zip(b.net.params()) {
        assert_eq!(bits(x), bits(y));
    }
    for (x, y) in [(&a.train, &b.train), (&a.test, &b.test)] {
        assert_eq!(x.classes, y.classes);
        assert_eq!(x.labels, y.labels);
        assert_eq!(x.images.len(), y.images.len());
        for (p, q) in x.images.iter().zip(&y.images) {
            assert_eq!(bits(p), bits(q));
        }
    }
    assert_eq!(a.fp_top1.to_bits(), b.fp_top1.to_bits());
    assert_eq!(a.fp_top5.to_bits(), b.fp_top5.to_bits());
}

/// A cold build trains fig2's SynthNet and writes its record; a second
/// cache over the same store loads it bit for bit without training (so
/// every eval record keyed on its bits still hits); a flipped byte costs
/// one failed load and a retrain that heals the file.
#[test]
fn trained_synthnet_persists_loads_and_heals() {
    let dir = test_dir("synthnet");
    let store = Arc::new(ArtifactStore::open(&dir).unwrap());
    let key = synthnet_key(&train_spec(true));

    let cold = EvalCache::new();
    cold.set_store(store.clone());
    let built = trained(&cold, true);
    assert_eq!(synthnet_counts(cold.stats()), (1, 0, 1));
    assert_eq!(synthnet_files(&dir), 1, "the cold build writes one record");
    assert!(store.path::<TrainedSynthNet>(key).exists());

    let warm = EvalCache::new();
    warm.set_store(store.clone());
    let loaded = trained(&warm, true);
    assert_eq!(synthnet_counts(warm.stats()), (0, 1, 0));
    assert_trained_bitwise_eq(&loaded, &built);
    let spec = QuantSpec::paper_4bit(0.03);
    assert_eq!(
        eval_key(&loaded.net, &loaded.test, &loaded.train, &spec, 5),
        eval_key(&built.net, &built.test, &built.train, &spec, 5)
    );

    let path = store.path::<TrainedSynthNet>(key);
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&path, bytes).unwrap();
    assert!(
        store.get::<TrainedSynthNet>(key).is_err(),
        "the flipped byte must read as corrupt, so the load warns"
    );

    let hurt = EvalCache::new();
    hurt.set_store(store.clone());
    let retrained = trained(&hurt, true);
    assert_eq!(
        synthnet_counts(hurt.stats()),
        (1, 0, 1),
        "one failed load, one retrain"
    );
    assert_trained_bitwise_eq(&retrained, &built);
    let healed = store
        .get::<TrainedSynthNet>(key)
        .unwrap()
        .expect("rewritten");
    assert_trained_bitwise_eq(&healed, &built);
    assert_eq!(synthnet_files(&dir), 1);

    let _ = std::fs::remove_dir_all(&dir);
}
