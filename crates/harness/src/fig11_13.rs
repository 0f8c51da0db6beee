//! Figs 11/12/13: execution cycles and energy breakdown for AlexNet,
//! VGG-16, and ResNet-18 across the six accelerator configurations, all
//! normalized to Eyeriss16 — plus the headline reduction percentages the
//! paper quotes in the abstract.

use crate::prep::{workloads, SixWay};
use crate::report::{num, pct, table};
use ola_energy::TechParams;
use ola_sim::{NetworkRun, QuantPolicy};

/// Paper anchors: (vs-ZeNA16 energy reduction, vs-ZeNA8 energy reduction).
fn paper_energy_anchor(network: &str) -> (f64, f64) {
    match network {
        "alexnet" => (0.435, 0.270),
        "vgg16" => (0.567, 0.363),
        "resnet18" => (0.622, 0.495),
        _ => (f64::NAN, f64::NAN),
    }
}

/// Paper anchors: cycle reductions (OLAccel16 vs Eyeriss16, vs ZeNA16;
/// OLAccel8 vs Eyeriss8, vs ZeNA8).
fn paper_cycle_anchor(network: &str) -> [f64; 4] {
    match network {
        "alexnet" => [0.718, 0.315, 0.732, 0.351],
        "vgg16" => [f64::NAN, 0.453, f64::NAN, 0.283],
        "resnet18" => [0.801, 0.253, 0.811, 0.290],
        _ => [f64::NAN; 4],
    }
}

fn reduction(new: f64, old: f64) -> f64 {
    1.0 - new / old
}

/// Runs the figure for one network and formats the report.
pub fn run(network: &str, fast: bool) -> String {
    let ws16 = workloads(network, fast, &QuantPolicy::olaccel16(network));
    let ws8 = workloads(network, fast, &QuantPolicy::olaccel8(network));
    let six = SixWay::run(&ws16, &ws8, &TechParams::default());
    render(network, &six)
}

/// Formats a report from precomputed six-way results.
pub fn render(network: &str, six: &SixWay) -> String {
    let ref_cycles = six.eyeriss16.total_cycles() as f64;
    let ref_energy = six.eyeriss16.total_energy().total();

    let mut rows = Vec::new();
    for run in six.all() {
        let e = run.total_energy();
        rows.push(vec![
            run.accelerator.clone(),
            format!("{}", run.total_cycles()),
            num(run.total_cycles() as f64 / ref_cycles),
            num(e.dram / ref_energy),
            num(e.buffer / ref_energy),
            num(e.local / ref_energy),
            num(e.logic / ref_energy),
            num(e.total() / ref_energy),
        ]);
    }
    let main = table(
        &[
            "accelerator",
            "cycles",
            "cyc/E16",
            "DRAM",
            "Buffer",
            "Local",
            "Logic",
            "E/E16",
        ],
        &rows,
    );

    // Per-layer cycle breakdown (the C1-dominance story of Fig 13).
    let mut layer_rows = Vec::new();
    for (i, l) in six.olaccel16.layers.iter().enumerate() {
        layer_rows.push(vec![
            l.name.clone(),
            format!("{}", l.cycles),
            format!("{}", six.zena16.layers[i].cycles),
            format!("{}", six.eyeriss16.layers[i].cycles),
        ]);
    }
    let per_layer = table(&["layer", "OLAccel16", "ZeNA16", "Eyeriss16"], &layer_rows);

    // Headline reductions vs paper.
    let e_ola16 = six.olaccel16.total_energy().total();
    let e_ola8 = six.olaccel8.total_energy().total();
    let e_z16 = six.zena16.total_energy().total();
    let e_z8 = six.zena8.total_energy().total();
    let c_ola16 = six.olaccel16.total_cycles() as f64;
    let c_ola8 = six.olaccel8.total_cycles() as f64;
    let c_e16 = six.eyeriss16.total_cycles() as f64;
    let c_e8 = six.eyeriss8.total_cycles() as f64;
    let c_z16 = six.zena16.total_cycles() as f64;
    let c_z8 = six.zena8.total_cycles() as f64;

    let (pe16, pe8) = paper_energy_anchor(network);
    let pc = paper_cycle_anchor(network);
    let anchors = table(
        &["metric", "measured", "paper"],
        &[
            vec![
                "energy OLAccel16 vs ZeNA16".into(),
                pct(reduction(e_ola16, e_z16)),
                pct(pe16),
            ],
            vec![
                "energy OLAccel8 vs ZeNA8".into(),
                pct(reduction(e_ola8, e_z8)),
                pct(pe8),
            ],
            vec![
                "cycles OLAccel16 vs Eyeriss16".into(),
                pct(reduction(c_ola16, c_e16)),
                pct(pc[0]),
            ],
            vec![
                "cycles OLAccel16 vs ZeNA16".into(),
                pct(reduction(c_ola16, c_z16)),
                pct(pc[1]),
            ],
            vec![
                "cycles OLAccel8 vs Eyeriss8".into(),
                pct(reduction(c_ola8, c_e8)),
                pct(pc[2]),
            ],
            vec![
                "cycles OLAccel8 vs ZeNA8".into(),
                pct(reduction(c_ola8, c_z8)),
                pct(pc[3]),
            ],
        ],
    );

    format!(
        "=== Fig 11-13 ({network}): cycles & energy, normalized to Eyeriss16 ===\n\
         {main}\nPer-layer cycles:\n{per_layer}\nHeadline reductions (measured vs paper):\n{anchors}"
    )
}

/// Convenience accessor used by integration tests: `(cycles, energy)` totals
/// for the six configurations.
pub fn totals(six: &SixWay) -> Vec<(String, u64, f64)> {
    six.all()
        .iter()
        .map(|r: &&NetworkRun| {
            (
                r.accelerator.clone(),
                r.total_cycles(),
                r.total_energy().total(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::{PrepCache, SixWay, DEFAULT_SEED};
    use ola_energy::TechParams;

    #[test]
    fn six_way_report_renders_and_orders() {
        let cache = PrepCache::new();
        let ws = |policy| cache.workloads("alexnet", 8, DEFAULT_SEED, &policy);
        let six = SixWay::run(
            &ws(QuantPolicy::olaccel16("alexnet")),
            &ws(QuantPolicy::olaccel8("alexnet")),
            &TechParams::default(),
        );
        let r = render("alexnet", &six);
        for label in ["Eyeriss16", "ZeNA8", "OLAccel16", "OLAccel8", "Headline"] {
            assert!(r.contains(label), "missing {label}");
        }
        let t = totals(&six);
        assert_eq!(t.len(), 6);
        // OLAccel16 (index 4) beats ZeNA16 (index 2) on energy. (Cycle
        // ordering is asserted at a representative scale in the
        // integration tests; this tiny 1/8-scale workload is FC-dominated,
        // where ZeNA's weight skipping shines.)
        assert!(t[4].2 < t[2].2);
    }
}
