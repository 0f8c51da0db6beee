//! ISO-area accelerator configurations (Table I).
//!
//! The paper fixes the chip area to Eyeriss-equivalent per comparison mode
//! (16-bit or 8-bit) and derives each accelerator's compute configuration;
//! the on-chip memory is sized to hold a whole layer (identical across the
//! three accelerators for fairness). This module computes those
//! configurations from the area model and reproduces the published counts:
//! 165/168 PEs for Eyeriss/ZeNA, and 768 (8 clusters) / 576 (6 clusters)
//! 4-bit MACs for OLAccel.

use crate::mac::{eyeriss_pe_area, mac_area, olaccel_mac_area, zena_pe_area};
use crate::params::TechParams;

/// Which precision comparison a configuration belongs to (§IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ComparisonMode {
    /// 16-bit baselines; OLAccel uses 16-bit outlier activations.
    Bits16,
    /// 8-bit baselines; OLAccel uses 8-bit outlier activations.
    Bits8,
}

impl ComparisonMode {
    /// Baseline (and raw-input / outlier-activation) bit width.
    pub fn bits(&self) -> u32 {
        match self {
            ComparisonMode::Bits16 => 16,
            ComparisonMode::Bits8 => 8,
        }
    }
}

/// The accelerator being configured.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AcceleratorKind {
    /// Eyeriss: dense schedule, zero-gating.
    Eyeriss,
    /// ZeNA: zero-skipping of weights and activations.
    Zena,
    /// OLAccel: outlier-aware 4-bit datapath.
    OlAccel,
}

impl AcceleratorKind {
    /// Display name: Table I's row name and the simulator label's prefix.
    pub fn name(&self) -> &'static str {
        match self {
            AcceleratorKind::Eyeriss => "Eyeriss",
            AcceleratorKind::Zena => "ZeNA",
            AcceleratorKind::OlAccel => "OLAccel",
        }
    }
}

/// Number of SIMD lanes (normal MACs) per OLAccel PE group.
pub const GROUP_LANES: usize = 16;
/// Normal PE groups per OLAccel cluster.
pub const GROUPS_PER_CLUSTER: usize = 6;

/// A concrete accelerator configuration for one comparison mode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AcceleratorConfig {
    /// Which accelerator.
    pub kind: AcceleratorKind,
    /// Comparison mode.
    pub mode: ComparisonMode,
    /// Eyeriss/ZeNA: PE count. OLAccel: count of normal 4-bit MACs
    /// (clusters x groups x lanes).
    pub pe_count: usize,
    /// OLAccel only: PE clusters (0 for baselines).
    pub clusters: usize,
    /// Logic + local-buffer area, mm².
    pub area_mm2: f64,
}

impl AcceleratorConfig {
    /// The Table I configuration of `kind` for `mode`.
    pub fn new(kind: AcceleratorKind, tech: &TechParams, mode: ComparisonMode) -> Self {
        match kind {
            AcceleratorKind::Eyeriss => Self::eyeriss(tech, mode),
            AcceleratorKind::Zena => Self::zena(tech, mode),
            AcceleratorKind::OlAccel => Self::olaccel(tech, mode),
        }
    }

    /// Eyeriss configuration: the 165-PE anchor.
    fn eyeriss(tech: &TechParams, mode: ComparisonMode) -> Self {
        let pes = 165;
        AcceleratorConfig {
            kind: AcceleratorKind::Eyeriss,
            mode,
            pe_count: pes,
            clusters: 0,
            area_mm2: pes as f64 * eyeriss_pe_area(tech, mode.bits()),
        }
    }

    /// ZeNA configuration: 168 PEs in both modes (the paper keeps the PE
    /// count fixed; area follows).
    fn zena(tech: &TechParams, mode: ComparisonMode) -> Self {
        let pes = 168;
        AcceleratorConfig {
            kind: AcceleratorKind::Zena,
            mode,
            pe_count: pes,
            clusters: 0,
            area_mm2: pes as f64 * zena_pe_area(tech, mode.bits()),
        }
    }

    /// OLAccel configuration solved under the ISO-area constraint: the
    /// largest cluster count whose area fits within the Eyeriss area of the
    /// same mode (plus the ~10% slack the paper's own numbers show:
    /// 1.67 mm² vs 1.53 mm² in the 16-bit comparison).
    fn olaccel(tech: &TechParams, mode: ComparisonMode) -> Self {
        let budget = 1.10 * 165.0 * eyeriss_pe_area(tech, mode.bits());
        let mut clusters = 1;
        while olaccel_area(tech, clusters + 1, mode) <= budget {
            clusters += 1;
        }
        AcceleratorConfig {
            kind: AcceleratorKind::OlAccel,
            mode,
            pe_count: clusters * GROUPS_PER_CLUSTER * GROUP_LANES,
            clusters,
            area_mm2: olaccel_area(tech, clusters, mode),
        }
    }
}

/// Area of an OLAccel instance with the given cluster count, mm².
///
/// Per cluster: 6 normal PE groups (16 normal + 1 outlier 4-bit MAC each),
/// one outlier PE group (17 mixed-precision MACs at `mode.bits()` x 4), the
/// cluster buffers / tri-buffer / accumulation units.
pub fn olaccel_area(tech: &TechParams, clusters: usize, mode: ComparisonMode) -> f64 {
    let mac4 = olaccel_mac_area(tech, 4, 4);
    let mac_mixed = mac_area(tech, mode.bits(), 4, 24) + tech.olaccel_mac_fixed_area;
    let normal_group = (GROUP_LANES as f64 + 1.0) * mac4 + tech.olaccel_group_area;
    let outlier_group = 17.0 * mac_mixed + tech.olaccel_group_area;
    let cluster_overhead = match mode {
        ComparisonMode::Bits16 => tech.olaccel_cluster_area_16,
        ComparisonMode::Bits8 => tech.olaccel_cluster_area_8,
    };
    clusters as f64 * (GROUPS_PER_CLUSTER as f64 * normal_group + outlier_group + cluster_overhead)
}

/// On-chip memory sizing (Table I): activation and weight buffer capacities
/// in bits for a network/mode, identical across the three accelerators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryConfig {
    /// Activation buffer capacity, bits.
    pub act_bits: u64,
    /// Weight buffer capacity, bits.
    pub weight_bits: u64,
}

impl MemoryConfig {
    /// Table I sizing: AlexNet gets 393 kB (16-bit) / 196 kB (8-bit)
    /// activations + 16/8 kB weights; VGG-16 and ResNet-18 get 4.8 MB /
    /// 2.4 MB activations. Other networks follow the VGG sizing.
    pub fn for_network(name: &str, mode: ComparisonMode) -> Self {
        const KB: u64 = 1024 * 8;
        const MB: u64 = 1024 * 1024 * 8;
        let (act, weight) = match (name, mode) {
            ("alexnet", ComparisonMode::Bits16) => (393 * KB, 16 * KB),
            ("alexnet", ComparisonMode::Bits8) => (196 * KB, 8 * KB),
            (_, ComparisonMode::Bits16) => ((4.8 * MB as f64) as u64, 16 * KB),
            (_, ComparisonMode::Bits8) => ((2.4 * MB as f64) as u64, 8 * KB),
        };
        MemoryConfig {
            act_bits: act,
            weight_bits: weight,
        }
    }

    /// Total capacity, bits.
    pub fn total_bits(&self) -> u64 {
        self.act_bits + self.weight_bits
    }
}

/// Computes all six Table I configurations, 8-bit first, each mode in
/// Eyeriss, ZeNA, OLAccel order.
pub fn table1(tech: &TechParams) -> Vec<AcceleratorConfig> {
    let mut rows = Vec::new();
    for mode in [ComparisonMode::Bits8, ComparisonMode::Bits16] {
        for kind in [
            AcceleratorKind::Eyeriss,
            AcceleratorKind::Zena,
            AcceleratorKind::OlAccel,
        ] {
            rows.push(AcceleratorConfig::new(kind, tech, mode));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn olaccel_solves_to_published_counts() {
        let t = TechParams::default();
        let c16 = AcceleratorConfig::olaccel(&t, ComparisonMode::Bits16);
        assert_eq!(c16.clusters, 8, "16-bit clusters");
        assert_eq!(c16.pe_count, 768, "16-bit MACs");
        let c8 = AcceleratorConfig::olaccel(&t, ComparisonMode::Bits8);
        assert_eq!(c8.clusters, 6, "8-bit clusters");
        assert_eq!(c8.pe_count, 576, "8-bit MACs");
    }

    #[test]
    fn areas_match_table1() {
        let t = TechParams::default();
        let cases = [
            (
                AcceleratorConfig::eyeriss(&t, ComparisonMode::Bits16).area_mm2,
                1.53,
            ),
            (
                AcceleratorConfig::eyeriss(&t, ComparisonMode::Bits8).area_mm2,
                0.96,
            ),
            (
                AcceleratorConfig::zena(&t, ComparisonMode::Bits16).area_mm2,
                1.66,
            ),
            (
                AcceleratorConfig::zena(&t, ComparisonMode::Bits8).area_mm2,
                1.01,
            ),
            (
                AcceleratorConfig::olaccel(&t, ComparisonMode::Bits16).area_mm2,
                1.67,
            ),
            (
                AcceleratorConfig::olaccel(&t, ComparisonMode::Bits8).area_mm2,
                0.93,
            ),
        ];
        for (got, want) in cases {
            assert!(
                (got - want).abs() / want < 0.08,
                "area {got:.3} vs Table I {want:.3}"
            );
        }
    }

    #[test]
    fn memory_config_table1() {
        let m = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        assert_eq!(m.act_bits, 393 * 1024 * 8);
        assert_eq!(m.weight_bits, 16 * 1024 * 8);
        let v = MemoryConfig::for_network("vgg16", ComparisonMode::Bits8);
        assert_eq!(v.act_bits, (2.4 * (1024.0 * 1024.0 * 8.0)) as u64);
    }

    #[test]
    fn table1_has_six_rows() {
        let rows = table1(&TechParams::default());
        assert_eq!(rows.len(), 6);
    }

    #[test]
    fn olaccel_area_monotone_in_clusters() {
        let t = TechParams::default();
        for mode in [ComparisonMode::Bits16, ComparisonMode::Bits8] {
            let a1 = olaccel_area(&t, 1, mode);
            let a4 = olaccel_area(&t, 4, mode);
            assert!((a4 / a1 - 4.0).abs() < 1e-9, "area is per-cluster linear");
        }
    }

    #[test]
    fn mixed_precision_outlier_group_shrinks_at_8bit() {
        // The outlier PE group's MACs are 16x4 vs 8x4; the 8-bit cluster is
        // cheaper even before the tri-buffer narrowing.
        let t = TechParams::default();
        let c16 = olaccel_area(&t, 1, ComparisonMode::Bits16);
        let c8 = olaccel_area(&t, 1, ComparisonMode::Bits8);
        assert!(c8 < c16);
    }

    #[test]
    fn comparison_mode_bits() {
        assert_eq!(ComparisonMode::Bits16.bits(), 16);
        assert_eq!(ComparisonMode::Bits8.bits(), 8);
    }

    #[test]
    fn olaccel_fits_its_budget() {
        let t = TechParams::default();
        for mode in [ComparisonMode::Bits16, ComparisonMode::Bits8] {
            let cfg = AcceleratorConfig::olaccel(&t, mode);
            let budget = 1.10 * AcceleratorConfig::eyeriss(&t, mode).area_mm2;
            assert!(cfg.area_mm2 <= budget + 1e-12);
            // One more cluster would not fit.
            assert!(olaccel_area(&t, cfg.clusters + 1, mode) > budget);
        }
    }
}
