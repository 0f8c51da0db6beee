//! Fig 3: accuracy of the five networks at 4 bits with their per-network
//! outlier ratios (AlexNet 3.5%, VGG-16 1%, ResNet-18/101 3%, DenseNet 3%).
//!
//! Ground truth comes from the trained SynthNet (Fig 2's setup); the five
//! ImageNet networks are reported through the documented SQNR surrogate of
//! [`ola_quant::accuracy`] applied to their synthetic trained-like weights —
//! a correspondence check, not an ImageNet measurement (DESIGN.md §2).

use crate::fig02::trained;
use crate::report::{pct, table};
use ola_nn::synth::{synthesized_weights, weight_population, SynthConfig};
use ola_nn::zoo::{self, ZooConfig};
use ola_quant::accuracy::{
    evaluate_synthnet, surrogate_top5_drop, QuantSpec, WeightSqnr, WeightSqnrFold,
};
use ola_quant::evalcache::{weight_sqnr_key, EvalCache};
use ola_sim::policy::default_ratio;
use ola_sim::timing::{timed, Phase};
use std::sync::Arc;

/// Published full-precision top-5 accuracies (for the drop presentation).
fn fp_top5(network: &str) -> f64 {
    match network {
        "alexnet" => 0.803,
        "vgg16" => 0.901,
        "resnet18" => 0.890,
        "resnet101" => 0.936,
        "densenet121" => 0.923,
        _ => f64::NAN,
    }
}

/// The zoo configuration the surrogate synthesizes every network at.
pub const SURROGATE_ZOO: ZooConfig = ZooConfig {
    spatial_scale: 8,
    include_classifier: true,
    batch: 1,
};

/// The two specs Fig 3 reports for a network: 4 bits at the network's
/// outlier ratio (8-bit first-layer weights for the ResNets, as the paper
/// needs), then plain 4-bit linear quantization.
pub fn surrogate_specs(network: &str) -> [QuantSpec; 2] {
    let ola = QuantSpec {
        first_layer_weight_bits: if network.starts_with("resnet") { 8 } else { 4 },
        ..QuantSpec::paper_4bit(default_ratio(network))
    };
    [ola, QuantSpec::paper_4bit(0.0)]
}

/// The weight-SQNR surrogate of a zoo network under each of `specs`,
/// memoized in `cache` — and its disk tier, when attached — under
/// [`weight_sqnr_key`].
pub fn weight_sqnr(cache: &EvalCache, network: &str, specs: &[QuantSpec]) -> Arc<WeightSqnr> {
    let synth = SynthConfig::for_network(network);
    let key = weight_sqnr_key(network, &SURROGATE_ZOO, &synth, specs);
    cache.weight_sqnr(key, specs.len(), || {
        build_weight_sqnr(network, &synth, specs)
    })
}

/// Builds the surrogate of a zoo network at [`SURROGATE_ZOO`] in one
/// streamed pass, without memoization: each compute layer's weights are
/// synthesized (timed as synthesis) and folded into every spec's mean
/// (timed as eval) before the next layer is generated, so at most one
/// layer is ever resident.
pub fn build_weight_sqnr(network: &str, synth: &SynthConfig, specs: &[QuantSpec]) -> WeightSqnr {
    let net = timed(Phase::Synthesize, || zoo::by_name(network, &SURROGATE_ZOO));
    let mut layers = synthesized_weights(&net, synth);
    let mut fold = WeightSqnrFold::new(specs);
    while let Some((_, weights)) = timed(Phase::Synthesize, || layers.next()) {
        let values = timed(Phase::Synthesize, || weight_population(&weights));
        timed(Phase::Eval, || fold.layer(&values));
    }
    fold.finish()
}

/// Computes and formats Fig 3.
pub fn run(fast: bool) -> String {
    // Measured path: SynthNet at the AlexNet operating point.
    let t = trained(EvalCache::global(), fast);
    let measured = timed(Phase::Eval, || {
        evaluate_synthnet(&t.net, &t.test, &t.train, &QuantSpec::paper_4bit(0.035), 5)
    });

    // Surrogate path: the five ImageNet networks.
    let mut rows = Vec::new();
    for network in ["alexnet", "vgg16", "resnet18", "resnet101", "densenet121"] {
        let ratio = default_ratio(network);
        let means = weight_sqnr(EvalCache::global(), network, &surrogate_specs(network));
        let (sqnr, sqnr0) = (means.mean_db[0], means.mean_db[1]);
        let drop = surrogate_top5_drop(sqnr);
        let drop0 = surrogate_top5_drop(sqnr0);
        let fp = fp_top5(network);
        rows.push(vec![
            network.to_string(),
            pct(ratio),
            format!("{sqnr:.1} dB"),
            pct(fp),
            pct((fp - drop / 100.0).max(0.0)),
            pct((fp - drop0 / 100.0).max(0.0)),
        ]);
    }
    let body = table(
        &[
            "network",
            "ratio",
            "w-SQNR",
            "FP top-5",
            "est. OLA top-5",
            "est. linear-4b top-5",
        ],
        &rows,
    );
    format!(
        "=== Fig 3: 4-bit + outliers across networks ===\n\
         Measured (SynthNet proxy @3.5% outliers): top-1 {} (FP {}), top-5 {} (FP {})\n\n\
         SQNR surrogate for the ImageNet networks (documented stand-in, DESIGN.md §2):\n{body}\n\
         Paper: every network stays within ~1% of its full-precision top-5 at its ratio,\n\
         while plain 4-bit linear quantization collapses.\n",
        pct(measured.top1),
        pct(t.fp_top1),
        pct(measured.topk),
        pct(t.fp_top5),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surrogate_separates_outlier_aware_from_linear() {
        let means = build_weight_sqnr(
            "resnet18",
            &SynthConfig::for_network("resnet18"),
            &[QuantSpec::paper_4bit(0.03), QuantSpec::paper_4bit(0.0)],
        );
        let (ola, lin) = (means.mean_db[0], means.mean_db[1]);
        assert!(ola > lin + 5.0, "outlier-aware {ola} dB vs linear {lin} dB");
        assert!(
            surrogate_top5_drop(ola) < 5.0,
            "drop {}",
            surrogate_top5_drop(ola)
        );
        assert!(surrogate_top5_drop(lin) > 10.0);
    }
}
