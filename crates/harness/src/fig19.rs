//! Fig 19: distribution of cycles a PE group spends per A(1x1x16) input
//! activation chunk, for each AlexNet conv layer.

use crate::prep::workloads;
use crate::report::{bar, table};
use ola_core::OlAccelSim;
use ola_energy::{ComparisonMode, TechParams};
use ola_sim::{LayerKind, QuantPolicy};

/// Computes and formats Fig 19.
pub fn run(fast: bool) -> String {
    let ws = workloads("alexnet", fast, &QuantPolicy::olaccel16("alexnet"));
    let sim = OlAccelSim::new(TechParams::default(), ComparisonMode::Bits16);
    let run = sim.simulate(&ws);

    let mut out = String::from("=== Fig 19: cycles per activation chunk, AlexNet convs ===\n");
    for (l, r) in ws.layers.iter().zip(&run.layers) {
        if l.kind != LayerKind::Conv || l.index == 0 {
            // conv1 runs the multi-pass raw-input path; the paper plots the
            // 4-bit layers.
            continue;
        }
        let hist = &r.chunk_cycle_hist;
        let total: u64 = hist.iter().sum();
        if total == 0 {
            continue;
        }
        let peak = hist
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap_or(0);
        let mean: f64 = hist
            .iter()
            .enumerate()
            .map(|(i, &c)| i as f64 * c as f64)
            .sum::<f64>()
            / total as f64;
        // The histogram is exactly sized to the layer's worst-case chunk
        // cost and its mass equals the layer's unit count, so iterating the
        // whole vector never drops multi-outlier tail mass.
        let mut rows = Vec::new();
        for (cycles, &count) in hist.iter().enumerate() {
            if count == 0 {
                continue;
            }
            rows.push(vec![
                format!("{cycles}"),
                format!("{count}"),
                bar(
                    count as f64 / hist.iter().copied().max().unwrap() as f64,
                    30,
                ),
            ]);
        }
        out.push_str(&format!(
            "\n{} (peak at {} cycles, mean {:.1}):\n{}",
            l.name,
            peak,
            mean,
            table(&["cycles", "chunks", ""], &rows)
        ));
    }
    out.push_str(
        "\nPaper: conv2 peaks near 15-16 cycles (dense activations); conv4/conv5 peak near\n\
         5 cycles (sparse activations) — the distributions above should match that shape.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn renders_histograms() {
        let r = super::run(true);
        assert!(r.contains("conv2"));
        assert!(r.contains("peak at"));
        assert!(!r.contains("conv1 ("), "conv1 should be excluded");
    }
}
