//! Bit-level pins on the numeric paths whose output the goldens only see
//! rounded: FNV-1a digests of every `f32` bit pattern, recorded before the
//! SynthNet kernels were vectorized and the preparation/calibration
//! forwards were batched, asserted at several worker counts. Each digest
//! is a product [`Fingerprint`] over the workspace's one encoding, so the
//! pins also hold that encoding's bytes fixed.
//!
//! The golden reports print accuracies as rounded percentages, so a 1-ulp
//! drift in a trained weight or a logit could pass them unnoticed; these
//! digests cannot. A digest changes only when a computed bit changes. If
//! that is intended, update the constant and say why in the change log.

use ola_harness::prep::{Prepared, DEFAULT_SEED};
use ola_integration::oracle::ReferenceQuantizer;
use ola_nn::network::WeightStore;
use ola_nn::synthnet::{LayerId, SynthDataset, SynthNet, LAYERS};
use ola_quant::accuracy::{evaluate_synthnet_jobs, QuantSpec};
use ola_quant::OutlierSelect;
use ola_sim::calibrate::calibrate_from_outputs;
use ola_tensor::bytes::{Encoder, Fingerprint};
use ola_tensor::init::uniform_tensor;
use ola_tensor::{stack_batch, Tensor};
use std::sync::OnceLock;

fn check(what: &str, got: u64, pinned: u64) {
    assert_eq!(
        got, pinned,
        "{what}: digest {got:#018x} differs from the pinned {pinned:#018x} — a computed bit moved"
    );
}

// ---- SynthNet: SGD, full-precision and quantized forwards ----

const CLASSES: usize = 10;
const TRAIN: usize = 96;
const HELD_OUT: usize = 24;
const EPOCHS: usize = 2;

/// Training split and held-out split of one dataset (a longer dataset is a
/// prefix-extension of a shorter one, so the held-out images are fresh
/// samples of the same task).
fn splits() -> (SynthDataset, SynthDataset) {
    let all = SynthDataset::generate(TRAIN + HELD_OUT, CLASSES, 0xD16E);
    let part = |r: std::ops::Range<usize>| SynthDataset {
        images: all.images[r.clone()].to_vec(),
        labels: all.labels[r].to_vec(),
        classes: CLASSES,
    };
    (part(0..TRAIN), part(TRAIN..TRAIN + HELD_OUT))
}

fn trained(train: &SynthDataset, jobs: usize) -> SynthNet {
    let mut net = SynthNet::new(CLASSES, 0xD16F);
    net.train_jobs(train, EPOCHS, 0.02, 0xD170, jobs);
    net
}

fn param_digest(net: &SynthNet) -> u64 {
    let mut d = Fingerprint::new();
    for v in &net.params {
        d.f32s(v);
    }
    d.finish()
}

fn slot(layer: LayerId) -> usize {
    LAYERS
        .iter()
        .position(|&l| l == layer)
        .expect("known layer")
}

/// Logits of `held` through a copy of `net` whose weights and hidden
/// activations are fake-quantized under `select` (4-bit dense, 8-bit
/// outlier weights, 16-bit outlier activations, 3% target), with the
/// activation quantizers calibrated on `calib`. The quantizers are the
/// retained policy quantizer ([`ReferenceQuantizer::policy`]), so under
/// the magnitude rule this pins a path no product code runs.
fn quantized_logits(
    net: &SynthNet,
    calib: &SynthDataset,
    held: &SynthDataset,
    select: OutlierSelect,
) -> u64 {
    let qnet = net.map_weights(|_, w| {
        if let Some(q) = ReferenceQuantizer::policy(w, 0.03, select, 4, 8) {
            q.fake_quantize_inplace(w);
        }
    });
    let mut pops: Vec<Vec<f32>> = vec![Vec::new(); LAYERS.len()];
    for img in &calib.images {
        qnet.forward_with(img, |layer, a| pops[slot(layer)].extend_from_slice(a));
    }
    let quants: Vec<Option<ReferenceQuantizer>> = pops
        .iter()
        .map(|p| ReferenceQuantizer::policy(p, 0.03, select, 4, 16))
        .collect();
    let mut d = Fingerprint::new();
    for img in &held.images {
        let logits = qnet.forward_with(img, |layer, a| {
            if let Some(q) = &quants[slot(layer)] {
                q.fake_quantize_inplace(a);
            }
        });
        d.f32s(&logits);
    }
    d.finish()
}

#[test]
fn synthnet_training_and_logits_are_pinned() {
    let (train, held) = splits();
    let serial = trained(&train, 1);
    let parallel = trained(&train, 4);
    check(
        "SynthNet weights+biases at jobs 1",
        param_digest(&serial),
        0xd96c_4a9a_8761_aa7d,
    );
    check(
        "SynthNet weights+biases at jobs 4",
        param_digest(&parallel),
        0xd96c_4a9a_8761_aa7d,
    );

    let mut fp = Fingerprint::new();
    for img in &held.images {
        fp.f32s(&serial.forward(img));
    }
    check(
        "full-precision held-out logits",
        fp.finish(),
        0x0b9c_7e3c_4082_4b8b,
    );

    let pinned_quantized = [
        0xa84a_c6eb_6004_cf46,
        0x9e46_1393_b906_ea65,
        0x8a23_cf79_6d06_89d7,
    ];
    for (select, pinned) in OutlierSelect::panel().into_iter().zip(pinned_quantized) {
        let got = quantized_logits(&serial, &train, &held, select);
        check(&format!("quantized logits under {select:?}"), got, pinned);
    }
}

#[test]
fn quantized_accuracy_is_pinned_at_any_eval_jobs() {
    let (train, held) = splits();
    let net = trained(&train, 1);
    let pinned = [
        0x13d9_9a6d_b061_ecf1,
        0x795a_99a2_a3f3_d69f,
        0x45e4_4dac_cdfa_63e0,
    ];
    for (select, pinned) in OutlierSelect::panel().into_iter().zip(pinned) {
        let spec = QuantSpec {
            select,
            ..QuantSpec::paper_4bit(0.03)
        };
        for jobs in [1, 4] {
            let acc = evaluate_synthnet_jobs(&net, &held, &train, &spec, 5, jobs);
            let mut d = Fingerprint::new();
            d.f64(acc.top1);
            d.f64(acc.topk);
            d.f64(acc.realized_weight_ratio);
            check(
                &format!("QuantAccuracy under {select:?} at eval jobs {jobs}"),
                d.finish(),
                pinned,
            );
        }
    }
}

// ---- AlexNet/4 preparation and fig16 calibration ----

/// One uncached `Prepared::with_seed("alexnet", 4, DEFAULT_SEED)` shared by
/// the tests below.
fn alexnet() -> &'static Prepared {
    static PREP: OnceLock<Prepared> = OnceLock::new();
    PREP.get_or_init(|| Prepared::with_seed("alexnet", 4, DEFAULT_SEED))
}

#[test]
fn alexnet_preparation_is_pinned() {
    let prep = alexnet();
    let mut params = Fingerprint::new();
    for id in 0..prep.net.nodes().len() {
        match prep.params.weights(id) {
            Some(WeightStore::Dense(t)) => {
                params.u64(1);
                t.encode(&mut params);
            }
            Some(WeightStore::RowGen(g)) => {
                params.u64(2);
                params.f32s(&g.row(0));
                params.f32s(&g.row(g.rows() - 1));
            }
            None => {
                params.u64(0);
            }
        }
        match prep.params.bias(id) {
            Some(b) => params.f32s(b),
            None => params.u64(0),
        };
        match prep.params.bn(id) {
            Some((scale, shift)) => params.f32s(scale).f32s(shift),
            None => params.u64(0),
        };
    }
    check("AlexNet/4 params", params.finish(), 0x6aa4_dd87_ce1e_ce51);

    let mut acts = Fingerprint::new();
    for t in &prep.acts {
        t.encode(&mut acts);
    }
    check(
        "AlexNet/4 activations",
        acts.finish(),
        0xd0d3_6e2c_e351_5f51,
    );
}

#[test]
fn fig16_calibration_thresholds_are_pinned_at_any_forward_jobs() {
    let prep = alexnet();
    // fig16's design-time samples.
    let samples: Vec<Tensor> = (0..3)
        .map(|i| uniform_tensor(prep.net.input_shape(), -1.0, 1.0, 0xCA11B + i))
        .collect();
    for jobs in [1, 4] {
        ola_tensor::par::set_jobs(jobs);
        let outs = prep.net.forward(&prep.params, &stack_batch(&samples));
        let cals = calibrate_from_outputs(&prep.net, &outs, samples.len(), 0.03);
        ola_tensor::par::set_jobs(1);
        let mut d = Fingerprint::new();
        for c in &cals {
            d.u64(c.node as u64);
            d.f32s(&[c.threshold, c.abs_max]);
            d.f64(c.nonzero_outlier_ratio);
            d.f64(c.effective_outlier_ratio);
            d.f64(c.zero_fraction);
        }
        check(
            &format!("fig16 calibration at forward jobs {jobs}"),
            d.finish(),
            0x19e7_f12f_345b_1279,
        );
    }
}
