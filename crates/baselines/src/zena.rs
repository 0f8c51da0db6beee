//! ZeNA model: zero-aware execution skipping both zero weights and zero
//! activations (Kim et al., the paper's strongest baseline).

use ola_energy::config::{AcceleratorConfig, AcceleratorKind, ComparisonMode};
use ola_energy::mac::mac_energy;
use ola_energy::sram::Sram;
use ola_energy::TechParams;
use ola_sim::traffic::dense_bits;
use ola_sim::{Accelerator, DatapathRun, LayerModel, LayerWorkload, Utilization};
use ola_tensor::bytes::{Encoder, Fingerprint};

/// Model calibration knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ZenaTuning {
    /// Load-imbalance factor across PEs: non-zero pairs do not distribute
    /// perfectly, and work-stealing has overhead.
    pub imbalance: f64,
    /// Extra metadata bits handled per effective op (non-zero index
    /// bookkeeping).
    pub meta_bits_per_op: f64,
    /// Per-PE scratchpad capacity in bits.
    pub spad_bits: u64,
}

impl Default for ZenaTuning {
    fn default() -> Self {
        ZenaTuning {
            imbalance: 1.79,
            meta_bits_per_op: 8.0,
            spad_bits: 220 * 8,
        }
    }
}

impl ZenaTuning {
    /// Effective (executed) MACs of a layer: only pairs where both the
    /// weight and the activation are non-zero.
    pub fn effective_macs(l: &LayerWorkload) -> f64 {
        l.macs as f64 * (1.0 - l.act_zero_fraction) * (1.0 - l.weight_zero_fraction)
    }
}

/// The ZeNA simulator for one comparison mode: the shared generic simulator over
/// [`ZenaTuning`]'s physics. `new` builds the 168-PE configuration.
///
/// # Example
///
/// ```
/// use ola_baselines::ZenaSim;
/// use ola_energy::{ComparisonMode, TechParams};
///
/// let sim = ZenaSim::new(TechParams::default(), ComparisonMode::Bits16);
/// assert_eq!(sim.config().pe_count, 168);
/// assert_eq!(sim.label(), "ZeNA16");
/// ```
pub type ZenaSim = Accelerator<ZenaTuning>;

impl LayerModel for ZenaTuning {
    const KIND: AcceleratorKind = AcceleratorKind::Zena;

    fn fold_tuning(&self, fp: &mut Fingerprint) {
        fp.f64(self.imbalance)
            .f64(self.meta_bits_per_op)
            .u64(self.spad_bits);
    }

    /// Dense full-precision tensors: the skip machinery is on-chip, and the
    /// memory system is shared with the other accelerators per Table I.
    fn traffic_bits(&self, l: &LayerWorkload, mode: ComparisonMode) -> [u64; 3] {
        dense_bits(l, mode.bits())
    }

    fn datapath(
        &self,
        tech: &TechParams,
        config: &AcceleratorConfig,
        l: &LayerWorkload,
    ) -> DatapathRun {
        let pes = config.pe_count as f64;
        let eff = Self::effective_macs(l);
        let cycles = (eff * self.imbalance / pes).ceil() as u64;

        let bits = config.mode.bits();
        let logic = eff * mac_energy(tech, bits, bits, bits + 8) + eff * tech.control_energy_per_op;

        let spad = Sram::new(tech, self.spad_bits);
        let acc = (bits + 8) as f64;
        let local_bits = eff * (2.0 * bits as f64 + 2.0 * acc + self.meta_bits_per_op);

        let run_cycles = (eff / pes).ceil() as u64;
        DatapathRun {
            cycles,
            utilization: Utilization {
                run_cycles,
                skip_cycles: 0,
                idle_cycles: cycles.saturating_sub(run_cycles),
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
    use crate::eyeriss::EyerissSim;
    use ola_energy::config::MemoryConfig;
    use ola_sim::workload::LayerKind;
    use ola_tensor::Shape4;

    fn test_layer(macs: u64, act_zero: f64, w_zero: f64) -> LayerWorkload {
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
    fn skipping_shortens_execution() {
        let sim = ZenaSim::new(TechParams::default(), ComparisonMode::Bits16);
        let mem = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let dense = sim.simulate_layer(&test_layer(10_000_000, 0.0, 0.0), &mem);
        let sparse = sim.simulate_layer(&test_layer(10_000_000, 0.5, 0.6), &mem);
        // (1-0.5)(1-0.6) = 0.2 of the work remains.
        let ratio = sparse.cycles as f64 / dense.cycles as f64;
        assert!((ratio - 0.2).abs() < 0.02, "cycle ratio {ratio}");
    }

    #[test]
    fn zena_beats_eyeriss_on_pruned_nets() {
        // The paper quotes ZeNA's 4.4x AlexNet speedup over dense execution.
        let tech = TechParams::default();
        let mem = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let l = test_layer(100_000_000, 0.45, 0.60);
        let ez = ZenaSim::new(tech, ComparisonMode::Bits16).simulate_layer(&l, &mem);
        let ee = EyerissSim::new(tech, ComparisonMode::Bits16).simulate_layer(&l, &mem);
        let speedup = ee.cycles as f64 / ez.cycles as f64;
        assert!((3.0..6.0).contains(&speedup), "ZeNA speedup {speedup}");
    }

    #[test]
    fn same_cycles_both_modes() {
        let l = test_layer(50_000_000, 0.4, 0.6);
        let mem16 = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let mem8 = MemoryConfig::for_network("alexnet", ComparisonMode::Bits8);
        let c16 = ZenaSim::new(TechParams::default(), ComparisonMode::Bits16)
            .simulate_layer(&l, &mem16)
            .cycles;
        let c8 = ZenaSim::new(TechParams::default(), ComparisonMode::Bits8)
            .simulate_layer(&l, &mem8)
            .cycles;
        assert_eq!(c16, c8);
    }

    #[test]
    fn utilization_reflects_imbalance() {
        let sim = ZenaSim::new(TechParams::default(), ComparisonMode::Bits16);
        let mem = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let run = sim.simulate_layer(&test_layer(10_000_000, 0.5, 0.5), &mem);
        assert!(run.utilization.idle_cycles > 0);
        assert_eq!(run.utilization.total(), run.cycles);
    }
}
