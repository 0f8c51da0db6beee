//! Fig 2: accuracy versus outlier ratio at 4 bits.
//!
//! The paper measures ImageNet AlexNet; we measure a genuinely trained
//! SynthNet on the synthetic task (DESIGN.md §2). The reproduced *shape* is
//! the claim: plain 4-bit linear quantization (ratio 0) collapses accuracy;
//! a few percent of outliers restores it to near full precision.

use crate::report::{pct, table};
use ola_nn::synthnet::{SynthDataset, SynthNet, TrainSpec, TrainedSynthNet};
use ola_quant::accuracy::{evaluate_synthnet, QuantSpec};
use ola_quant::evalcache::{eval_jobs, synthnet_key, EvalCache};
use ola_sim::timing::{timed, Phase};
use std::sync::Arc;

/// Sweep points (the paper's x-axis, 0 to 5%).
pub const RATIOS: [f64; 7] = [0.0, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05];

/// The SynthNet Figs 2 and 3 and the policy panel share: 700 training
/// images and 8 epochs at `--fast`, 2400 and 16 in full mode, 400 held-out
/// images and fixed seeds in both.
pub fn train_spec(fast: bool) -> TrainSpec {
    let (train, epochs) = if fast { (700, 8) } else { (2400, 16) };
    TrainSpec {
        train,
        test: 400,
        classes: 10,
        epochs,
        lr: 0.02,
        data_seed: 0x5EED,
        init_seed: 0xCAFE,
        shuffle_seed: 0xBEEF,
        topk: 5,
    }
}

/// Trains the SynthNet `spec` describes and measures its full-precision
/// baseline, without memoization.
///
/// Training runs on the engine's per-experiment worker budget
/// (`ola_nn::kernels::forward_jobs`) with an order-fixed gradient
/// reduction, so the trained weights — and every figure derived from them
/// — are byte-identical at any `--jobs` value.
fn build(spec: &TrainSpec) -> TrainedSynthNet {
    let all = timed(Phase::Synthesize, || {
        SynthDataset::generate(spec.train + spec.test, spec.classes, spec.data_seed)
    });
    let split = |range: std::ops::Range<usize>| SynthDataset {
        images: all.images[range.clone()].to_vec(),
        labels: all.labels[range].to_vec(),
        classes: spec.classes,
    };
    let train = split(0..spec.train);
    let test = split(spec.train..all.len());
    let mut net = SynthNet::new(spec.classes, spec.init_seed);
    timed(Phase::Train, || {
        net.train(&train, spec.epochs, spec.lr, spec.shuffle_seed)
    });
    // One forward pass per image yields both full-precision metrics.
    let (fp_top1, fp_top5) = timed(Phase::Eval, || {
        net.eval_with_jobs(&test, spec.topk, |_, _| (), eval_jobs())
    });
    TrainedSynthNet {
        net,
        train,
        test,
        fp_top1,
        fp_top5,
    }
}

/// The trained SynthNet at [`train_spec`]`(fast)`, memoized in `cache` —
/// and its disk tier, when attached — under [`synthnet_key`]: from memory,
/// then from disk, trained only when both miss. A loaded net is
/// bit-identical to a trained one.
pub fn trained(cache: &EvalCache, fast: bool) -> Arc<TrainedSynthNet> {
    let spec = train_spec(fast);
    cache.synthnet(synthnet_key(&spec), || build(&spec))
}

/// Computes and formats Fig 2.
pub fn run(fast: bool) -> String {
    let t = trained(EvalCache::global(), fast);
    let mut rows = Vec::new();
    for ratio in RATIOS {
        let acc = timed(Phase::Eval, || {
            evaluate_synthnet(&t.net, &t.test, &t.train, &QuantSpec::paper_4bit(ratio), 5)
        });
        rows.push(vec![
            pct(ratio),
            pct(acc.top1),
            pct(acc.topk),
            pct(acc.realized_weight_ratio),
        ]);
    }
    let body = table(
        &["outlier ratio", "top-1", "top-5", "realized w-ratio"],
        &rows,
    );
    format!(
        "=== Fig 2: SynthNet accuracy vs outlier ratio (4-bit) ===\n\
         full precision: top-1 {} / top-5 {}\n{body}\n\
         Paper (ImageNet AlexNet): 0% outliers collapses accuracy; ~3.5% is within 1%\n\
         of full precision. The synthetic-task curve reproduces that shape.\n",
        pct(t.fp_top1),
        pct(t.fp_top5),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn curve_recovers_with_outliers() {
        let t = super::build(&super::train_spec(true));
        assert!(t.fp_top1 > 0.7, "training failed: {}", t.fp_top1);
        let bad = ola_quant::accuracy::evaluate_synthnet(
            &t.net,
            &t.test,
            &t.train,
            &ola_quant::accuracy::QuantSpec::paper_4bit(0.0),
            5,
        );
        let good = ola_quant::accuracy::evaluate_synthnet(
            &t.net,
            &t.test,
            &t.train,
            &ola_quant::accuracy::QuantSpec::paper_4bit(0.03),
            5,
        );
        assert!(good.top1 >= bad.top1);
        assert!(
            t.fp_top1 - good.top1 < 0.1,
            "3% outliers should nearly recover FP accuracy"
        );
    }
}
