//! Sensitivity analysis: how robust the headline energy conclusions are to
//! the calibrated technology constants (DESIGN.md §9).
//!
//! Our DRAM pJ/bit and SRAM coefficients were calibrated, not synthesized;
//! this experiment sweeps each across a generous range and reports the
//! OLAccel16-vs-ZeNA16 energy reduction on AlexNet at every point. The
//! qualitative conclusion — OLAccel wins, driven by memory — should hold
//! across the whole range; the exact percentage moves.

use crate::prep::workloads;
use crate::report::{num, pct, table};
use ola_baselines::ZenaSim;
use ola_core::OlAccelSim;
use ola_energy::{ComparisonMode, TechParams};
use ola_sim::{QuantPolicy, WorkloadSet};

fn reduction_with(tech: &TechParams, ws: &WorkloadSet) -> f64 {
    // Sweep points already run in parallel (`run` fans the grid out), so
    // keep the per-simulation layer loop serial — results are bit-identical
    // either way, this only avoids oversubscribing the worker budget.
    let zena = ZenaSim::new(*tech, ComparisonMode::Bits16).simulate_with_jobs(ws, 1);
    let ola = OlAccelSim::new(*tech, ComparisonMode::Bits16).simulate_with_jobs(ws, 1);
    1.0 - ola.total_energy().total() / zena.total_energy().total()
}

/// Runs the sweep and formats the report.
pub fn run(fast: bool) -> String {
    let ws16 = workloads("alexnet", fast, &QuantPolicy::olaccel16("alexnet"));
    let base = TechParams::default();

    // Materialize the sweep grid first, then evaluate every point in
    // parallel — each point is two full-network simulations, which the
    // `SimCache` memoizes per (tech, layer) so repeat runs replay from
    // memory. Rows assemble in grid order: byte-identical at any jobs.
    let mut cases: Vec<(String, String, TechParams)> = Vec::new();
    for factor in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let mut t = base;
        t.dram_energy_per_bit = base.dram_energy_per_bit * factor;
        cases.push((
            format!("DRAM pJ/bit x{factor}"),
            num(t.dram_energy_per_bit),
            t,
        ));
    }
    for factor in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let mut t = base;
        t.sram_e1_per_bit = base.sram_e1_per_bit * factor;
        cases.push((
            format!("SRAM sqrt-coef x{factor}"),
            format!("{:.1e}", t.sram_e1_per_bit),
            t,
        ));
    }
    for factor in [0.5, 1.0, 2.0] {
        let mut t = base;
        t.mult_energy_per_bit2 = base.mult_energy_per_bit2 * factor;
        t.acc_energy_per_bit = base.acc_energy_per_bit * factor;
        cases.push((
            format!("MAC energy x{factor}"),
            num(t.mult_energy_per_bit2 * 256.0),
            t,
        ));
    }
    let rows =
        ola_tensor::par::ordered_map(&cases, ola_tensor::par::jobs(), |_, (knob, value, t)| {
            vec![knob.clone(), value.clone(), pct(reduction_with(t, &ws16))]
        });
    let body = table(&["knob", "value", "OLA16 vs ZeNA16 reduction"], &rows);
    format!(
        "=== Sensitivity: AlexNet energy reduction vs technology constants ===\n{body}\n\
         The OLAccel advantage persists across a 16x DRAM range, a 16x SRAM range and a\n\
         4x MAC-energy range — the paper's conclusion does not hinge on the calibration.\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advantage_is_robust() {
        let ws16 = workloads("alexnet", true, &QuantPolicy::olaccel16("alexnet"));
        let base = TechParams::default();
        for factor in [0.25, 4.0] {
            let mut t = base;
            t.dram_energy_per_bit = base.dram_energy_per_bit * factor;
            let r = reduction_with(&t, &ws16);
            assert!(
                r > 0.15,
                "OLAccel should keep a clear win at DRAM x{factor}: {r}"
            );
        }
    }
}
