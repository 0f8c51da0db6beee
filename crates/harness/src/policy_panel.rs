//! Policy panel: accuracy vs cycles vs energy per outlier-selection rule.
//!
//! The paper picks outliers by magnitude percentile (§II); the panel runs
//! the same 4-bit operating point under each [`OutlierSelect`] rule and
//! charts what the choice buys: SynthNet accuracy from the quantizer's
//! fake-quantization path, and OLAccel16 cycles/energy from workloads
//! extracted under the same rule (the cycle/energy models consume the
//! *measured* outlier counts, so selection effects flow through without
//! touching the dataflow model).
//!
//! Every stage is deterministic at any `--jobs` value, so the report is
//! golden-locked byte-for-byte in CI at two worker counts.

use crate::prep::workloads;
use crate::report::{num, pct, table};
use ola_core::OlAccelSim;
use ola_energy::{ComparisonMode, TechParams};
use ola_quant::accuracy::{evaluate_synthnet, QuantSpec};
use ola_quant::EvalCache;
use ola_sim::{OutlierSelect, QuantPolicy};

/// The outlier ratio the whole panel runs at (the paper's AlexNet point).
pub const RATIO: f64 = 0.03;

/// Computes and formats the policy panel.
pub fn run(fast: bool) -> String {
    let t = crate::fig02::trained(EvalCache::global(), fast);
    let tech = TechParams::default();

    let mut rows = Vec::new();
    let mut base: Option<(f64, f64)> = None;
    for select in OutlierSelect::panel() {
        let spec = QuantSpec {
            select,
            ..QuantSpec::paper_4bit(RATIO)
        };
        let acc = ola_sim::timing::timed(ola_sim::timing::Phase::Eval, || {
            evaluate_synthnet(&t.net, &t.test, &t.train, &spec, 5)
        });

        let mut policy = QuantPolicy::olaccel16("alexnet");
        policy.select = select;
        let ws = workloads("alexnet", fast, &policy);
        let run = OlAccelSim::new(tech, ComparisonMode::Bits16).simulate(&ws);
        let cycles = run.total_cycles() as f64;
        let energy = run.total_energy().total();
        // Realized activation outlier density over the whole network.
        let acts: u64 = ws.layers.iter().map(|l| l.act_count()).sum();
        let outs: u64 = ws.layers.iter().map(|l| l.outlier_act_count()).sum();

        // Normalize cycles/energy to the magnitude baseline (first row).
        let (c0, e0) = *base.get_or_insert((cycles, energy));
        rows.push(vec![
            select.name().to_string(),
            pct(acc.top1),
            pct(acc.topk),
            pct(acc.realized_weight_ratio),
            pct(outs as f64 / acts.max(1) as f64),
            format!("{}", run.total_cycles()),
            num(cycles / c0),
            num(energy / e0),
        ]);
    }
    let body = table(
        &[
            "policy",
            "top-1",
            "top-5",
            "w-ratio",
            "act-ratio",
            "cycles",
            "cyc/mag",
            "E/mag",
        ],
        &rows,
    );
    format!(
        "=== Policy panel: outlier selection at {} outliers (4-bit, AlexNet/OLAccel16) ===\n\
         full precision: top-1 {} / top-5 {}\n{body}\n\
         magnitude is the paper's rule (the reproduction baseline); windowed-top1\n\
         fixes one outlier per {}-value window (chunk-local, cheap to index);\n\
         sensitivity weights |v| by its window's RMS before thresholding.\n",
        pct(RATIO),
        pct(t.fp_top1),
        pct(t.fp_top5),
        16,
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn panel_covers_all_policies_once() {
        let r = super::run(true);
        for name in ["magnitude", "windowed-top1", "sensitivity"] {
            let rows = r
                .lines()
                .filter(|l| l.trim_start().starts_with(name) && l.contains('%'))
                .count();
            assert_eq!(rows, 1, "policy {name} missing or duplicated");
        }
        // The magnitude row is the normalization baseline: 1.00 on both
        // relative columns.
        let mag = r
            .lines()
            .find(|l| l.trim_start().starts_with("magnitude"))
            .expect("magnitude row");
        assert!(mag.contains("1.00"), "baseline not normalized: {mag}");
    }
}
