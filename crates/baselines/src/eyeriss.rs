//! Eyeriss model: dense row-stationary execution with zero-gating.

use ola_energy::config::{AcceleratorConfig, AcceleratorKind, ComparisonMode};
use ola_energy::mac::{gated_mac_energy, mac_energy};
use ola_energy::sram::Sram;
use ola_energy::TechParams;
use ola_sim::traffic::dense_bits;
use ola_sim::{Accelerator, DatapathRun, LayerModel, LayerWorkload, Utilization};
use ola_tensor::bytes::{Encoder, Fingerprint};

/// Model calibration knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EyerissTuning {
    /// Scheduling efficiency on top of the row-stationary mapping fit
    /// (pipeline fill, tile transitions) — the calibrated residual.
    pub mapping_utilization: f64,
    /// Per-PE scratchpad capacity in bits (prices "local" accesses).
    pub spad_bits: u64,
}

impl Default for EyerissTuning {
    fn default() -> Self {
        EyerissTuning {
            mapping_utilization: 0.82,
            spad_bits: 220 * 8,
        }
    }
}

/// PE-array rows (the Eyeriss chip is a 12x14 array).
pub const ARRAY_ROWS: usize = 12;
/// PE-array columns.
pub const ARRAY_COLS: usize = 14;

/// Row-stationary mapping utilization for a layer: a PE set is `R`
/// (filter height) rows by `E = min(out_h, 14)` columns; sets replicate
/// `floor(12/R) x floor(14/E)` times across the array, and the leftover
/// PEs idle. Tall kernels (AlexNet's 11x11, ResNet's 7x7) fit the 12-row
/// array poorly — the per-layer fragmentation the flat-utilization model
/// missed.
pub fn rs_utilization(kernel: usize, out_h: usize) -> f64 {
    let r = kernel.clamp(1, ARRAY_ROWS);
    let e = out_h.clamp(1, ARRAY_COLS);
    let vertical = ARRAY_ROWS / r;
    let horizontal = ARRAY_COLS / e;
    (r * e * vertical * horizontal) as f64 / (ARRAY_ROWS * ARRAY_COLS) as f64
}

/// The Eyeriss simulator for one comparison mode: the shared generic simulator over
/// [`EyerissTuning`]'s physics. `new` builds the 165-PE configuration.
///
/// # Example
///
/// ```
/// use ola_baselines::EyerissSim;
/// use ola_energy::{ComparisonMode, TechParams};
///
/// let sim = EyerissSim::new(TechParams::default(), ComparisonMode::Bits8);
/// assert_eq!(sim.config().pe_count, 165);
/// assert_eq!(sim.label(), "Eyeriss8");
/// ```
pub type EyerissSim = Accelerator<EyerissTuning>;

impl LayerModel for EyerissTuning {
    const KIND: AcceleratorKind = AcceleratorKind::Eyeriss;

    fn fold_tuning(&self, fp: &mut Fingerprint) {
        fp.f64(self.mapping_utilization).u64(self.spad_bits);
    }

    /// Dense full-precision tensors.
    fn traffic_bits(&self, l: &LayerWorkload, mode: ComparisonMode) -> [u64; 3] {
        dense_bits(l, mode.bits())
    }

    /// Every MAC executes (dense); zeros only gate.
    fn datapath(
        &self,
        tech: &TechParams,
        config: &AcceleratorConfig,
        l: &LayerWorkload,
    ) -> DatapathRun {
        let pes = config.pe_count as f64;
        let util = rs_utilization(l.kernel, l.out_shape.h) * self.mapping_utilization;
        let cycles = (l.macs as f64 / (pes * util)).ceil() as u64;

        // Zero-gating: an op is gated when its activation or weight is zero.
        let z_act = l.act_zero_fraction;
        let z_w = l.weight_zero_fraction;
        let gated_frac = 1.0 - (1.0 - z_act) * (1.0 - z_w);
        let bits = config.mode.bits();
        let active = l.macs as f64 * (1.0 - gated_frac);
        let gated = l.macs as f64 * gated_frac;

        let logic = active * mac_energy(tech, bits, bits, bits + 8)
            + gated * gated_mac_energy(tech, bits, bits, bits + 8)
            + l.macs as f64 * tech.control_energy_per_op;

        // Local spad traffic: active ops read act + weight and r/w the psum;
        // gated ops still fetch the operands to detect the zero.
        let spad = Sram::new(tech, self.spad_bits);
        let acc = (bits + 8) as f64;
        let local_bits = active * (2.0 * bits as f64 + 2.0 * acc) + gated * 2.0 * bits as f64;

        DatapathRun {
            cycles,
            utilization: Utilization {
                run_cycles: (cycles as f64 * (1.0 - gated_frac)).round() as u64,
                skip_cycles: 0,
                idle_cycles: (cycles as f64 * gated_frac).round() as u64,
            },
            logic,
            local: local_bits * spad.energy_per_bit(),
            chunk_cycle_hist: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ola_energy::config::MemoryConfig;
    use ola_sim::workload::LayerKind;
    use ola_tensor::Shape4;

    pub(crate) fn test_layer(macs: u64, act_zero: f64, w_zero: f64) -> LayerWorkload {
        LayerWorkload {
            name: "conv".into(),
            index: 1,
            kind: LayerKind::Conv,
            in_shape: Shape4::new(1, 64, 16, 16),
            out_shape: Shape4::new(1, 64, 16, 16),
            kernel: 3,
            macs,
            weight_count: 64 * 64 * 9,
            weight_bits: 4,
            act_bits: 4,
            weight_zero_fraction: w_zero,
            act_zero_fraction: act_zero,
            weight_outlier_ratio: 0.03,
            act_outlier_nonzero_ratio: 0.03,
            act_effective_outlier_ratio: 0.02,
            chunk_nnz: vec![(16.0 * (1.0 - act_zero)) as u8; 256],
            chunk_zero_quads: vec![0; 256],
            wchunk_single_fraction: 0.2,
            wchunk_multi_fraction: 0.05,
            out_zero_fraction: 0.4,
        }
    }

    #[test]
    fn rs_mapping_fits() {
        // 3x3 kernels on wide maps tile the 12x14 array perfectly.
        assert!((rs_utilization(3, 14) - 1.0).abs() < 1e-12);
        // AlexNet conv1 (11x11): one 11x14 set, 11*14/168.
        assert!((rs_utilization(11, 56) - 11.0 * 14.0 / 168.0).abs() < 1e-12);
        // ResNet stem (7x7): one 7x14 set fits vertically.
        assert!((rs_utilization(7, 112) - 7.0 * 14.0 / 168.0).abs() < 1e-12);
        // 5x5 kernels: two vertical sets.
        assert!((rs_utilization(5, 27) - 2.0 * 5.0 * 14.0 / 168.0).abs() < 1e-12);
        // FC layers (1x1 on 1x1): fully packed.
        assert!((rs_utilization(1, 1) - 1.0).abs() < 1e-12);
        // Small feature maps fragment horizontally: 3x3 on 7-high output.
        assert!((rs_utilization(3, 7) - (3.0 * 7.0 * 4.0 * 2.0) / 168.0).abs() < 1e-12);
    }

    #[test]
    fn tall_kernels_run_slower_per_mac() {
        let sim = EyerissSim::new(TechParams::default(), ComparisonMode::Bits16);
        let mem = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let mut small_k = test_layer(10_000_000, 0.0, 0.0);
        small_k.kernel = 3;
        let mut tall_k = test_layer(10_000_000, 0.0, 0.0);
        tall_k.kernel = 11;
        let fast = sim.simulate_layer(&small_k, &mem).cycles;
        let slow = sim.simulate_layer(&tall_k, &mem).cycles;
        assert!(
            slow > fast,
            "11x11 mapping should fragment: {slow} vs {fast}"
        );
    }

    #[test]
    fn cycles_are_sparsity_independent() {
        let sim = EyerissSim::new(TechParams::default(), ComparisonMode::Bits16);
        let mem = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let dense = sim.simulate_layer(&test_layer(10_000_000, 0.0, 0.0), &mem);
        let sparse = sim.simulate_layer(&test_layer(10_000_000, 0.8, 0.6), &mem);
        assert_eq!(dense.cycles, sparse.cycles);
    }

    #[test]
    fn gating_saves_energy_but_not_cycles() {
        let sim = EyerissSim::new(TechParams::default(), ComparisonMode::Bits16);
        let mem = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let dense = sim.simulate_layer(&test_layer(10_000_000, 0.0, 0.0), &mem);
        let sparse = sim.simulate_layer(&test_layer(10_000_000, 0.8, 0.6), &mem);
        assert!(sparse.energy.logic < dense.energy.logic * 0.5);
        assert_eq!(sparse.energy.dram, dense.energy.dram);
    }

    #[test]
    fn same_cycles_both_modes() {
        let l = test_layer(50_000_000, 0.4, 0.6);
        let mem16 = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let mem8 = MemoryConfig::for_network("alexnet", ComparisonMode::Bits8);
        let c16 = EyerissSim::new(TechParams::default(), ComparisonMode::Bits16)
            .simulate_layer(&l, &mem16)
            .cycles;
        let c8 = EyerissSim::new(TechParams::default(), ComparisonMode::Bits8)
            .simulate_layer(&l, &mem8)
            .cycles;
        assert_eq!(c16, c8, "footnote 5: same PE count, same cycles");
    }

    #[test]
    fn eight_bit_halves_memory_energy() {
        let l = test_layer(50_000_000, 0.4, 0.6);
        let mem16 = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let mem8 = MemoryConfig::for_network("alexnet", ComparisonMode::Bits8);
        let e16 = EyerissSim::new(TechParams::default(), ComparisonMode::Bits16)
            .simulate_layer(&l, &mem16)
            .energy;
        let e8 = EyerissSim::new(TechParams::default(), ComparisonMode::Bits8)
            .simulate_layer(&l, &mem8)
            .energy;
        assert!((e8.dram / e16.dram - 0.5).abs() < 0.01);
        assert!(e8.buffer < e16.buffer);
    }
}
