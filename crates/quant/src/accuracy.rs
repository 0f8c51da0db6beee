//! Quantized-accuracy evaluation (Fig 2/3 reproduction).
//!
//! Two paths, per DESIGN.md §2:
//!
//! 1. **Measured** — [`evaluate_synthnet`] quantizes a genuinely trained
//!    [`ola_nn::synthnet::SynthNet`] (weights *and* activations) at a given
//!    outlier ratio and measures real top-1/top-k accuracy. This reproduces
//!    the *shape* of Fig 2: a cliff at 0% outliers and a plateau within a
//!    few percent.
//! 2. **Surrogate** — [`surrogate_top5_drop`] estimates the top-5 accuracy
//!    drop of the five ImageNet networks from their per-layer quantization
//!    SQNR. The constant is calibrated so AlexNet at 3.5% outliers lands at
//!    the paper's ~0.8% drop; it is a documented stand-in, not a claim of
//!    ImageNet-level fidelity.

use crate::evalcache::{eval_jobs, eval_key, EvalCache};
use crate::linear::LinearQuantizer;
use crate::metrics::sqnr_db;
use crate::outlier::OutlierQuantizer;
use crate::policy::{OutlierSelect, PolicyQuantizer};
use ola_nn::synthnet::{LayerId, SynthDataset, SynthNet};
use ola_tensor::par::ordered_map;

/// How many calibration-split images feed the activation-quantizer
/// calibration pass (the design-time histogram pass of §II). 64 images
/// populate each per-layer activation histogram with tens of thousands of
/// post-ReLU values — enough for stable thresholds — while keeping
/// calibration a small fraction of the test-set evaluation. Folded into
/// the eval cache key ([`crate::evalcache::eval_key`]): only these images
/// can affect the measured result, so the calibration split's unused tail
/// never invalidates a cached record.
pub const CALIB_IMAGES: usize = 64;

/// Quantization policy for an accuracy evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuantSpec {
    /// Bits for the dense low-precision region (the paper uses 4).
    pub low_bits: u8,
    /// Bits for outlier weights (8 in OLAccel).
    pub weight_high_bits: u8,
    /// Bits for outlier activations (16 or 8 depending on comparison mode).
    pub act_high_bits: u8,
    /// Fraction of weights/non-zero activations kept at high precision.
    pub outlier_ratio: f64,
    /// Bits for the first layer's weights (the paper needs 8 for ResNet-18;
    /// AlexNet/VGG use `low_bits` everywhere but feed 8/16-bit raw input
    /// activations).
    pub first_layer_weight_bits: u8,
    /// Quantize the weights (disable for the activations-only ablation).
    pub quantize_weights: bool,
    /// Quantize the activations (disable for the weights-only ablation).
    pub quantize_acts: bool,
    /// Which outlier-selection rule picks the outliers (magnitude
    /// percentile reproduces the paper; the others feed the policy panel).
    pub select: OutlierSelect,
}

impl QuantSpec {
    /// The paper's standard operating point: 4-bit with the given ratio.
    pub fn paper_4bit(outlier_ratio: f64) -> Self {
        QuantSpec {
            low_bits: 4,
            weight_high_bits: 8,
            act_high_bits: 16,
            outlier_ratio,
            first_layer_weight_bits: 8,
            quantize_weights: true,
            quantize_acts: true,
            select: OutlierSelect::MagnitudePercentile,
        }
    }

    /// Weights-only ablation: activations stay full precision.
    pub fn weights_only(outlier_ratio: f64) -> Self {
        QuantSpec {
            quantize_acts: false,
            ..Self::paper_4bit(outlier_ratio)
        }
    }

    /// Activations-only ablation: weights stay full precision.
    pub fn acts_only(outlier_ratio: f64) -> Self {
        QuantSpec {
            quantize_weights: false,
            ..Self::paper_4bit(outlier_ratio)
        }
    }
}

/// Accuracy measured under quantization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuantAccuracy {
    /// Top-1 accuracy in `[0, 1]`.
    pub top1: f64,
    /// Top-k accuracy (`k` from the call) in `[0, 1]`.
    pub topk: f64,
    /// Realized outlier ratio over all weights.
    pub realized_weight_ratio: f64,
}

/// Quantizes a trained [`SynthNet`] per `spec` and measures accuracy on
/// `data`. `topk` selects the k for the secondary metric (the paper reports
/// top-5; with 10 synthetic classes we default to the same).
///
/// Memoized through the process-wide [`EvalCache`] (and its disk tier,
/// when attached): repeated calls with bit-identical inputs — fig2's 3%
/// point and the policy panel's magnitude row, or a second run of the same
/// suite — evaluate once. The evaluation itself fans the calibration and
/// test-set forwards out over the engine's eval worker budget
/// ([`crate::evalcache::eval_jobs`]); see [`evaluate_synthnet_jobs`] for
/// the determinism guarantee.
pub fn evaluate_synthnet(
    net: &SynthNet,
    data: &SynthDataset,
    calib: &SynthDataset,
    spec: &QuantSpec,
    topk: usize,
) -> QuantAccuracy {
    let key = eval_key(net, data, calib, spec, topk);
    EvalCache::global().eval(key, || {
        evaluate_synthnet_jobs(net, data, calib, spec, topk, eval_jobs())
    })
}

/// [`evaluate_synthnet`] with an explicit worker count and **no**
/// memoization — the cache-bypassing entry point property tests compare
/// cached results against.
///
/// Each image's `(top1, topk)` outcome and each calibration image's
/// per-layer activation population are pure functions of that image, and
/// both are merged in image order ([`ordered_map`]'s contract), so the
/// result is bit-identical at any `jobs`.
pub fn evaluate_synthnet_jobs(
    net: &SynthNet,
    data: &SynthDataset,
    calib: &SynthDataset,
    spec: &QuantSpec,
    topk: usize,
    jobs: usize,
) -> QuantAccuracy {
    // ---- quantize weights (per layer) ----
    let mut outlier_weights = 0usize;
    let mut total_weights = 0usize;
    let qnet = net.map_weights(|layer, w| {
        total_weights += w.len();
        if !spec.quantize_weights {
            return;
        }
        let low_bits = if layer == LayerId::Conv1 {
            spec.first_layer_weight_bits
        } else {
            spec.low_bits
        };
        if w.iter().all(|&v| v == 0.0) {
            return;
        }
        if spec.outlier_ratio > 0.0 {
            match spec.select {
                // The paper's path, byte-for-byte as before the policy
                // abstraction existed.
                OutlierSelect::MagnitudePercentile => {
                    let q = OutlierQuantizer::fit(
                        w,
                        spec.outlier_ratio,
                        low_bits,
                        spec.weight_high_bits,
                    );
                    outlier_weights += w.iter().filter(|&&v| q.is_outlier(v)).count();
                    q.fake_quantize_inplace(w);
                }
                select => {
                    // The weight-side target is a fraction of all weights;
                    // the policy trait's ratio is over non-zeros.
                    let nz = w.iter().filter(|&&v| v != 0.0).count().max(1);
                    let ratio = (spec.outlier_ratio * w.len() as f64 / nz as f64).min(1.0);
                    if let Some(q) =
                        PolicyQuantizer::fit(w, ratio, select, low_bits, spec.weight_high_bits)
                    {
                        outlier_weights += q.fake_quantize_inplace(w);
                    }
                }
            }
        } else {
            let q = LinearQuantizer::fit_symmetric(low_bits, w).expect("non-zero weights");
            q.fake_quantize_inplace(w);
        }
    });

    // ---- calibrate activation quantizers on the calibration split ----
    // Per-image collection runs in parallel; each image contributes one
    // contiguous per-slot segment, concatenated in image order — the same
    // population byte-for-byte as the old serial loop at any worker count.
    let calib_imgs: Vec<&Vec<f32>> = calib.images.iter().take(CALIB_IMAGES).collect();
    let packed = qnet.packed();
    let per_image = ordered_map(&calib_imgs, jobs, |_, img| {
        let mut slots: [Vec<f32>; 4] = Default::default();
        let _ = packed.forward_with(img, |layer, a| {
            slots[act_slot(layer)].extend_from_slice(a);
        });
        slots
    });
    let mut act_pops: Vec<Vec<f32>> = vec![Vec::new(); 4];
    for slots in per_image {
        for (pop, slot) in act_pops.iter_mut().zip(slots) {
            pop.extend(slot);
        }
    }
    let act_quants: Vec<Option<ActQuant>> = act_pops
        .iter()
        .map(|pop| {
            let nonzero: Vec<f32> = pop.iter().copied().filter(|&v| v != 0.0).collect();
            if nonzero.is_empty() {
                return None;
            }
            if spec.outlier_ratio > 0.0 {
                match spec.select {
                    OutlierSelect::MagnitudePercentile => {
                        Some(ActQuant::Outlier(OutlierQuantizer::fit(
                            &nonzero,
                            spec.outlier_ratio,
                            spec.low_bits,
                            spec.act_high_bits,
                        )))
                    }
                    // Structured policies calibrate on the unfiltered
                    // stream: their windows need the real value layout
                    // (zeros and all), not a compacted non-zero list.
                    select => PolicyQuantizer::fit(
                        pop,
                        spec.outlier_ratio,
                        select,
                        spec.low_bits,
                        spec.act_high_bits,
                    )
                    .map(ActQuant::Policy),
                }
            } else {
                Some(ActQuant::Linear(
                    LinearQuantizer::fit_symmetric(spec.low_bits, &nonzero)
                        .expect("non-zero activations"),
                ))
            }
        })
        .collect();

    // ---- evaluate with activation quantization in the forward hook ----
    // The quantizers are immutable once calibrated, so the hook is
    // `Fn + Sync` and both metrics come from one forward pass per image,
    // fanned out over the worker budget.
    let quantize_act = |layer: LayerId, a: &mut [f32]| {
        if !spec.quantize_acts {
            return;
        }
        if let Some(q) = &act_quants[act_slot(layer)] {
            match q {
                ActQuant::Outlier(q) => q.fake_quantize_inplace(a),
                ActQuant::Linear(q) => q.fake_quantize_inplace(a),
                ActQuant::Policy(q) => {
                    q.fake_quantize_inplace(a);
                }
            }
        }
    };
    let (top1, topk_acc) = qnet.eval_with_jobs(data, topk, quantize_act, jobs);
    QuantAccuracy {
        top1,
        topk: topk_acc,
        realized_weight_ratio: outlier_weights as f64 / total_weights.max(1) as f64,
    }
}

enum ActQuant {
    Outlier(OutlierQuantizer),
    Linear(LinearQuantizer),
    Policy(PolicyQuantizer),
}

fn act_slot(layer: LayerId) -> usize {
    match layer {
        LayerId::Conv1 => 0,
        LayerId::Conv2 => 1,
        LayerId::Conv3 => 2,
        LayerId::Fc1 => 3,
        LayerId::Fc2 => 3, // Fc2 produces logits; hook never fires for it.
    }
}

/// Mean per-layer weight SQNR (dB) of a network's weight populations under
/// a quantization spec — the signal the ImageNet surrogate keys on.
pub fn mean_weight_sqnr_db(layer_weights: &[Vec<f32>], spec: &QuantSpec) -> f64 {
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

/// Estimated top-5 accuracy drop (percentage points) for an ImageNet-scale
/// network whose mean per-layer weight SQNR is `sqnr` dB.
///
/// A logistic-style surrogate: drops are negligible above ~20 dB and
/// catastrophic below ~8 dB. Calibrated so the paper's operating points
/// (4-bit + ~3% outliers → <1% drop; 4-bit linear, no outliers → tens of
/// percent) land in the right regime. See DESIGN.md §2 — this documents the
/// correspondence, it does not claim ImageNet measurement.
pub fn surrogate_top5_drop(sqnr: f64) -> f64 {
    // 90 pp maximum drop (accuracy floor near chance), midpoint 11 dB.
    90.0 / (1.0 + ((sqnr - 11.0) / 2.2).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained_net() -> (SynthNet, SynthDataset, SynthDataset) {
        let all = SynthDataset::generate(900, 10, 42);
        let train = SynthDataset {
            images: all.images[..600].to_vec(),
            labels: all.labels[..600].to_vec(),
            classes: 10,
        };
        let test = SynthDataset {
            images: all.images[600..].to_vec(),
            labels: all.labels[600..].to_vec(),
            classes: 10,
        };
        let mut net = SynthNet::new(10, 7);
        net.train(&train, 8, 0.02, 11);
        (net, train, test)
    }

    #[test]
    fn outlier_quantization_recovers_accuracy() {
        let (net, train, test) = trained_net();
        let fp = net.accuracy(&test);
        assert!(fp > 0.8, "full-precision accuracy only {fp}");

        let bad = evaluate_synthnet(&net, &test, &train, &QuantSpec::paper_4bit(0.0), 5);
        let good = evaluate_synthnet(&net, &test, &train, &QuantSpec::paper_4bit(0.03), 5);
        // The paper's qualitative claim: 3% outliers ≈ full precision,
        // clearly better than 0% outliers.
        assert!(
            good.top1 >= bad.top1,
            "outlier-aware {} worse than plain linear {}",
            good.top1,
            bad.top1
        );
        assert!(
            fp - good.top1 < 0.08,
            "outlier-aware dropped too much: {} vs {}",
            good.top1,
            fp
        );
    }

    #[test]
    fn realized_ratio_tracks_target() {
        let (net, train, test) = trained_net();
        let r = evaluate_synthnet(&net, &test, &train, &QuantSpec::paper_4bit(0.03), 5);
        assert!(
            (r.realized_weight_ratio - 0.03).abs() < 0.02,
            "{}",
            r.realized_weight_ratio
        );
    }

    #[test]
    fn side_ablations_bracket_the_full_quantization() {
        let (net, train, test) = trained_net();
        let full = evaluate_synthnet(&net, &test, &train, &QuantSpec::paper_4bit(0.0), 5);
        let w_only = evaluate_synthnet(&net, &test, &train, &QuantSpec::weights_only(0.0), 5);
        let a_only = evaluate_synthnet(&net, &test, &train, &QuantSpec::acts_only(0.0), 5);
        // Quantizing only one side can never be worse than both (up to
        // noise), and at least one side must carry real damage at 4 bits.
        assert!(
            w_only.top1 >= full.top1 - 0.05,
            "w-only {} vs full {}",
            w_only.top1,
            full.top1
        );
        assert!(
            a_only.top1 >= full.top1 - 0.05,
            "a-only {} vs full {}",
            a_only.top1,
            full.top1
        );
        let fp = net.accuracy(&test);
        assert!(
            (fp - w_only.top1) + (fp - a_only.top1) > 0.5 * (fp - full.top1),
            "side damage should account for much of the total"
        );
    }

    #[test]
    fn act_slot_fc2_aliases_fc1_but_the_hook_never_fires_for_fc2() {
        // Four quantizer slots cover five layers: Fc2 aliases Fc1's slot.
        assert_eq!(act_slot(LayerId::Fc2), act_slot(LayerId::Fc1));
        assert_eq!(
            [LayerId::Conv1, LayerId::Conv2, LayerId::Conv3, LayerId::Fc1].map(act_slot),
            [0, 1, 2, 3]
        );
        // The aliasing is sound only while the forward hook skips Fc2
        // (it produces the logits). Pin that invariant: a future
        // forward-hook change that fires for Fc2 would silently mix
        // logits into Fc1's calibration population.
        let net = SynthNet::new(4, 8);
        let data = SynthDataset::generate(1, 4, 8);
        let mut seen = Vec::new();
        let _ = net.forward_with(&data.images[0], |layer, _| seen.push(layer));
        assert!(
            !seen.contains(&LayerId::Fc2),
            "hook fired for Fc2; the act_slot Fc1/Fc2 aliasing is now unsound"
        );
        assert_eq!(
            seen.iter().copied().map(act_slot).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
    }

    #[test]
    fn surrogate_regimes() {
        assert!(surrogate_top5_drop(25.0) < 1.0);
        assert!(surrogate_top5_drop(5.0) > 60.0);
        // Monotone decreasing in SQNR.
        assert!(surrogate_top5_drop(10.0) > surrogate_top5_drop(15.0));
    }
}
