//! Network inventory: per-layer shapes, parameters and MACs for the five
//! evaluated networks — the workload context behind Figs 11-13.

use crate::report::table;
use ola_nn::zoo::{self, ZooConfig};
use ola_nn::Op;

/// Prints the per-layer inventory of one network at full resolution.
pub fn network_summary(network: &str) -> String {
    let net = zoo::by_name(network, &ZooConfig::default());
    let shapes = net.shapes();
    let mut rows = Vec::new();
    let mut total_params = 0u64;
    let mut total_macs = 0u64;
    for (id, node) in net.nodes().iter().enumerate() {
        let (params, macs) = match node.op {
            Op::Conv(spec) => {
                let i = shapes[node.inputs[0]];
                (spec.weight_count() as u64, spec.macs(i.h, i.w))
            }
            Op::Linear(spec) => (spec.weight_count() as u64, spec.macs()),
            _ => continue,
        };
        total_params += params;
        total_macs += macs;
        let s = shapes[id];
        rows.push(vec![
            node.name.clone(),
            format!("{}x{}x{}", s.c, s.h, s.w),
            format!("{params}"),
            format!("{macs}"),
        ]);
    }
    rows.push(vec![
        "TOTAL".into(),
        String::new(),
        format!("{total_params}"),
        format!("{total_macs}"),
    ]);
    format!(
        "--- {network}: {} compute layers, {:.1}M params, {:.2}G MACs ---\n{}",
        rows.len() - 1,
        total_params as f64 / 1e6,
        total_macs as f64 / 1e9,
        table(&["layer", "output", "params", "MACs"], &rows)
    )
}

/// Summarizes all five networks.
pub fn run() -> String {
    let mut out = String::from("=== Network inventory (full resolution) ===\n");
    for network in ["alexnet", "vgg16", "resnet18", "resnet101", "densenet121"] {
        out.push_str(&network_summary(network));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ola_nn::zoo::{self, ZooConfig};
    use ola_nn::Op;

    /// Canonical (full-resolution) totals for cross-checking the zoo:
    /// `(params, macs)` per network.
    fn canonical_totals(network: &str) -> (u64, u64) {
        match network {
            // Grouped-conv AlexNet: 2.3M conv + 58.6M FC params, ~666M conv MACs.
            "alexnet" => (61_000_000, 724_000_000),
            "vgg16" => (138_000_000, 15_500_000_000),
            "resnet18" => (11_700_000, 1_800_000_000),
            "resnet101" => (44_500_000, 7_800_000_000),
            "densenet121" => (8_000_000, 2_900_000_000),
            _ => (0, 0),
        }
    }

    fn totals(network: &str) -> (u64, u64) {
        let net = zoo::by_name(network, &ZooConfig::default());
        let shapes = net.shapes();
        let mut params = 0u64;
        let mut macs = 0u64;
        for node in net.nodes() {
            match node.op {
                Op::Conv(spec) => {
                    let i = shapes[node.inputs[0]];
                    params += spec.weight_count() as u64;
                    macs += spec.macs(i.h, i.w);
                }
                Op::Linear(spec) => {
                    params += spec.weight_count() as u64;
                    macs += spec.macs();
                }
                _ => {}
            }
        }
        (params, macs)
    }

    #[test]
    fn zoo_totals_match_canonical() {
        for network in ["alexnet", "vgg16", "resnet18", "resnet101", "densenet121"] {
            let (p, m) = totals(network);
            let (cp, cm) = canonical_totals(network);
            assert!(
                (p as f64 - cp as f64).abs() / (cp as f64) < 0.12,
                "{network}: params {p} vs canonical {cp}"
            );
            assert!(
                (m as f64 - cm as f64).abs() / (cm as f64) < 0.15,
                "{network}: macs {m} vs canonical {cm}"
            );
        }
    }

    #[test]
    fn summary_renders() {
        let s = network_summary("alexnet");
        assert!(s.contains("conv1"));
        assert!(s.contains("fc8"));
        assert!(s.contains("TOTAL"));
    }
}
