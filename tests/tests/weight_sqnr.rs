//! Fig 3's weight-SQNR surrogate: the streamed build (one layer
//! synthesized and folded at a time, every spec in the same pass) must
//! reproduce the whole-network path it replaced bit for bit, and its
//! record must persist, load and heal through the eval tier's disk store
//! like every other record kind.

use ola_harness::fig03::{build_weight_sqnr, surrogate_specs, weight_sqnr, SURROGATE_ZOO};
use ola_nn::synth::{synthesize_params, weight_values, SynthConfig};
use ola_nn::zoo;
use ola_quant::accuracy::{QuantSpec, WeightSqnr};
use ola_quant::evalcache::weight_sqnr_key;
use ola_quant::linear::LinearQuantizer;
use ola_quant::metrics::sqnr_db;
use ola_quant::outlier::OutlierQuantizer;
use ola_quant::EvalCache;
use ola_store::{ArtifactStore, Record};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A unique scratch directory per call (parallel tests never collide).
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ola-wsqnr-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The surrogate's per-spec mean before streaming, kept verbatim: every
/// layer's population in one `Vec<Vec<f32>>`, one full pass per spec.
fn mean_weight_sqnr_db(layer_weights: &[Vec<f32>], spec: &QuantSpec) -> f64 {
    assert!(!layer_weights.is_empty(), "need at least one layer");
    let mut total = 0.0;
    let mut n = 0usize;
    for (i, w) in layer_weights.iter().enumerate() {
        let nz: Vec<f32> = w.iter().copied().filter(|&v| v != 0.0).collect();
        if nz.is_empty() {
            continue;
        }
        let low_bits = if i == 0 {
            spec.first_layer_weight_bits
        } else {
            spec.low_bits
        };
        let restored = if spec.outlier_ratio > 0.0 {
            OutlierQuantizer::fit(&nz, spec.outlier_ratio, low_bits, spec.weight_high_bits)
                .fake_quantize(&nz)
        } else {
            LinearQuantizer::fit_symmetric(low_bits, &nz)
                .expect("non-zero weights")
                .fake_quantize(&nz)
        };
        total += sqnr_db(&nz, &restored);
        n += 1;
    }
    total / n.max(1) as f64
}

/// The old path: synthesize the whole network, copy out every compute
/// layer's weights (sampled for row generators), fold each spec.
fn oracle(network: &str, specs: &[QuantSpec]) -> Vec<f64> {
    let net = zoo::by_name(network, &SURROGATE_ZOO);
    let params = synthesize_params(&net, &SynthConfig::for_network(network));
    let weights: Vec<Vec<f32>> = net
        .compute_nodes()
        .iter()
        .map(|&id| weight_values(&params, id))
        .collect();
    specs
        .iter()
        .map(|spec| mean_weight_sqnr_db(&weights, spec))
        .collect()
}

fn bits(means: &[f64]) -> Vec<u64> {
    means.iter().map(|m| m.to_bits()).collect()
}

/// AlexNet carries row-generated fc6/fc7, ResNet-18 an 8-bit first layer,
/// DenseNet-121 a 121-layer graph.
#[test]
fn streamed_surrogate_matches_the_whole_network_path_bitwise() {
    for network in ["alexnet", "resnet18", "densenet121"] {
        let specs = surrogate_specs(network);
        let streamed = build_weight_sqnr(network, &SynthConfig::for_network(network), &specs);
        assert_eq!(streamed.mean_db.len(), specs.len());
        assert_eq!(
            bits(&streamed.mean_db),
            bits(&oracle(network, &specs)),
            "{network}: streamed {:?}",
            streamed.mean_db
        );
    }
}

fn wsqnr_files(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .filter(|e| {
            let name = e.as_ref().unwrap().file_name();
            name.to_string_lossy()
                .starts_with(&format!("{}-", WeightSqnr::PREFIX))
        })
        .count()
}

/// A cold build writes the record; a second cache over the same store
/// loads it without building; a flipped byte costs one failed load and a
/// rebuild that heals the file.
#[test]
fn surrogate_record_persists_loads_and_heals() {
    let dir = scratch("memo");
    let store = Arc::new(ArtifactStore::open(&dir).unwrap());
    let network = "alexnet";
    let specs = surrogate_specs(network);
    let key = weight_sqnr_key(
        network,
        &SURROGATE_ZOO,
        &SynthConfig::for_network(network),
        &specs,
    );

    let cold = EvalCache::new();
    cold.set_store(store.clone());
    let built = weight_sqnr(&cold, network, &specs);
    let s = cold.stats();
    assert_eq!(
        (s.surrogates_built, s.surrogates_loaded, s.surrogates_missed),
        (1, 0, 1)
    );
    assert_eq!((s.misses, s.disk_misses), (0, 0), "no eval record involved");
    assert_eq!(wsqnr_files(&dir), 1, "the cold build writes one record");
    assert!(store.path::<WeightSqnr>(key).exists());

    let warm = EvalCache::new();
    warm.set_store(store.clone());
    let loaded = weight_sqnr(&warm, network, &specs);
    let s = warm.stats();
    assert_eq!(
        (s.surrogates_built, s.surrogates_loaded, s.surrogates_missed),
        (0, 1, 0)
    );
    assert_eq!(bits(&loaded.mean_db), bits(&built.mean_db));

    let path = store.path::<WeightSqnr>(key);
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&path, bytes).unwrap();
    assert!(
        store.get::<WeightSqnr>(key).is_err(),
        "the flipped byte must read as corrupt, so the load warns"
    );

    let hurt = EvalCache::new();
    hurt.set_store(store.clone());
    let rebuilt = weight_sqnr(&hurt, network, &specs);
    let s = hurt.stats();
    assert_eq!(
        (s.surrogates_built, s.surrogates_loaded, s.surrogates_missed),
        (1, 0, 1),
        "one failed load, one rebuild"
    );
    assert_eq!(bits(&rebuilt.mean_db), bits(&built.mean_db));
    let healed = store.get::<WeightSqnr>(key).unwrap().expect("rewritten");
    assert_eq!(bits(&healed.mean_db), bits(&built.mean_db));
    assert_eq!(wsqnr_files(&dir), 1);

    std::fs::remove_dir_all(&dir).ok();
}
