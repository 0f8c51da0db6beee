//! Table I: ISO-area configurations of Eyeriss, ZeNA, and OLAccel.

use crate::report::{num, table};
use ola_energy::config::{self, ComparisonMode, MemoryConfig};
use ola_energy::TechParams;

/// Published Table I values for side-by-side comparison.
fn paper_value(name: &str, mode: ComparisonMode) -> (usize, f64) {
    match (name, mode) {
        ("Eyeriss", ComparisonMode::Bits8) => (165, 0.96),
        ("Eyeriss", ComparisonMode::Bits16) => (165, 1.53),
        ("ZeNA", ComparisonMode::Bits8) => (168, 1.01),
        ("ZeNA", ComparisonMode::Bits16) => (168, 1.66),
        ("OLAccel", ComparisonMode::Bits8) => (576, 0.93),
        ("OLAccel", ComparisonMode::Bits16) => (768, 1.67),
        _ => (0, f64::NAN),
    }
}

/// Computes and formats Table I.
pub fn run() -> String {
    let tech = TechParams::default();
    let rows: Vec<Vec<String>> = config::table1(&tech)
        .into_iter()
        .map(|r| {
            let (p_pes, p_area) = paper_value(r.kind.name(), r.mode);
            vec![
                format!("{}{}", r.kind.name(), r.mode.bits()),
                format!("{}", r.pe_count),
                format!("{p_pes}"),
                num(r.area_mm2),
                num(p_area),
            ]
        })
        .collect();
    let main = table(
        &["config", "#PEs", "paper #PEs", "area mm2", "paper mm2"],
        &rows,
    );

    let mut mem_rows = Vec::new();
    for net in ["alexnet", "vgg16", "resnet18"] {
        for mode in [ComparisonMode::Bits16, ComparisonMode::Bits8] {
            let m = MemoryConfig::for_network(net, mode);
            mem_rows.push(vec![
                net.to_string(),
                format!("{}b", mode.bits()),
                format!("{:.1} kB", m.act_bits as f64 / 8192.0),
                format!("{:.0} kB", m.weight_bits as f64 / 8192.0),
            ]);
        }
    }
    let mem = table(
        &["network", "mode", "act buffer", "weight buffer"],
        &mem_rows,
    );

    format!("=== Table I: ISO-area configurations ===\n{main}\nOn-chip memory (Table I):\n{mem}")
}

#[cfg(test)]
mod tests {
    #[test]
    fn renders_all_configs() {
        let r = super::run();
        for label in ["Eyeriss16", "ZeNA8", "OLAccel16", "OLAccel8", "768", "576"] {
            assert!(r.contains(label), "missing {label} in:\n{r}");
        }
    }
}
