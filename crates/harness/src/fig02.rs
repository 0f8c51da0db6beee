//! Fig 2: accuracy versus outlier ratio at 4 bits.
//!
//! The paper measures ImageNet AlexNet; we measure a genuinely trained
//! SynthNet on the synthetic task (DESIGN.md §2). The reproduced *shape* is
//! the claim: plain 4-bit linear quantization (ratio 0) collapses accuracy;
//! a few percent of outliers restores it to near full precision.

use crate::report::{pct, table};
use ola_nn::synthnet::{SynthDataset, SynthNet};
use ola_quant::accuracy::{evaluate_synthnet, QuantSpec};
use ola_quant::evalcache::eval_jobs;
use std::sync::{Arc, OnceLock};

/// Sweep points (the paper's x-axis, 0 to 5%).
pub const RATIOS: [f64; 7] = [0.0, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05];

/// A trained SynthNet with train/test splits, shared by Figs 2/3.
pub struct TrainedSynthNet {
    /// The trained network.
    pub net: SynthNet,
    /// Training (and calibration) split.
    pub train: SynthDataset,
    /// Held-out evaluation split.
    pub test: SynthDataset,
    /// Full-precision top-1 accuracy on the test split.
    pub fp_top1: f64,
    /// Full-precision top-5 accuracy on the test split.
    pub fp_top5: f64,
}

impl TrainedSynthNet {
    /// Trains a fresh SynthNet (`fast` trims dataset size and epochs).
    ///
    /// Training runs on the engine's per-experiment worker budget
    /// (`ola_nn::kernels::forward_jobs`) with an order-fixed gradient
    /// reduction, so the trained weights — and both figures derived from
    /// them — are byte-identical at any `--jobs` value.
    pub fn train(fast: bool) -> Self {
        let (n, epochs) = if fast { (700, 8) } else { (2400, 16) };
        let all = ola_sim::timing::timed(ola_sim::timing::Phase::Synthesize, || {
            SynthDataset::generate(n + 400, 10, 0x5EED)
        });
        let train = SynthDataset {
            images: all.images[..n].to_vec(),
            labels: all.labels[..n].to_vec(),
            classes: 10,
        };
        let test = SynthDataset {
            images: all.images[n..].to_vec(),
            labels: all.labels[n..].to_vec(),
            classes: 10,
        };
        let mut net = SynthNet::new(10, 0xCAFE);
        ola_sim::timing::timed(ola_sim::timing::Phase::Train, || {
            net.train(&train, epochs, 0.02, 0xBEEF)
        });
        // One forward pass per image yields both full-precision metrics.
        let (fp_top1, fp_top5) = ola_sim::timing::timed(ola_sim::timing::Phase::Eval, || {
            net.eval_with_jobs(&test, 5, |_, _| (), eval_jobs())
        });
        TrainedSynthNet {
            net,
            train,
            test,
            fp_top1,
            fp_top5,
        }
    }
}

/// Fetches (or trains, exactly once per process and `fast` mode) the shared
/// [`TrainedSynthNet`] — Figs 2 and 3 both need it, and training dominates
/// their cost. Seeding is fixed inside [`TrainedSynthNet::train`], so the
/// shared instance is identical to a freshly-trained one.
pub fn trained(fast: bool) -> Arc<TrainedSynthNet> {
    static FAST: OnceLock<Arc<TrainedSynthNet>> = OnceLock::new();
    static FULL: OnceLock<Arc<TrainedSynthNet>> = OnceLock::new();
    let slot = if fast { &FAST } else { &FULL };
    slot.get_or_init(|| Arc::new(TrainedSynthNet::train(fast)))
        .clone()
}

/// Computes and formats Fig 2.
pub fn run(fast: bool) -> String {
    let t = trained(fast);
    let mut rows = Vec::new();
    for ratio in RATIOS {
        let acc = ola_sim::timing::timed(ola_sim::timing::Phase::Eval, || {
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
        let t = super::TrainedSynthNet::train(true);
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
