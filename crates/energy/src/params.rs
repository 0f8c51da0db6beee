//! Technology constants (65 nm LP, 250 MHz, 1.0 V equivalents).

/// Technology parameters shared by the area and energy models.
///
/// Defaults are calibrated to the paper's anchors: Table I component areas
/// and the DRAM/SRAM/logic energy proportions visible in Figs 11-13. They
/// can be overridden for sensitivity studies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TechParams {
    /// Multiplier area coefficient, mm² per (weight-bit x activation-bit).
    pub mult_area_per_bit2: f64,
    /// Adder/accumulator area, mm² per accumulator bit.
    pub acc_area_per_bit: f64,
    /// Per-PE area that scales linearly with operand width (pipeline
    /// registers + the per-PE scratchpad, whose byte count tracks the data
    /// width), mm² per bit.
    pub pe_linear_area_per_bit: f64,
    /// Fixed per-PE control/overhead area for Eyeriss-style PEs, mm².
    pub pe_fixed_area: f64,
    /// Extra per-PE area for ZeNA's zero-skip logic (index queues, lookahead),
    /// mm².
    pub zena_skip_area: f64,
    /// Fixed per-MAC overhead in OLAccel's SIMD lanes (no private scratchpad;
    /// group buffers are shared), mm².
    pub olaccel_mac_fixed_area: f64,
    /// Per-PE-group shared overhead (group buffers, broadcast, skip logic),
    /// mm².
    pub olaccel_group_area: f64,
    /// Per-cluster overhead (cluster buffers, tri-buffer, two accumulation
    /// units, control) at 16-bit outlier activations, mm².
    pub olaccel_cluster_area_16: f64,
    /// Same at 8-bit outlier activations (narrower outlier datapath and
    /// tri-buffer ports), mm².
    pub olaccel_cluster_area_8: f64,

    /// Multiplier energy, pJ per (weight-bit x activation-bit) per op.
    pub mult_energy_per_bit2: f64,
    /// Accumulator energy, pJ per accumulator bit per op.
    pub acc_energy_per_bit: f64,
    /// Fraction of MAC energy still burned when Eyeriss clock-gates a
    /// zero-input op.
    pub gated_mac_fraction: f64,
    /// Control/bus energy per issued op, pJ (the "logic" tail).
    pub control_energy_per_op: f64,

    /// SRAM access energy: fixed pJ per bit.
    pub sram_e0_per_bit: f64,
    /// SRAM access energy: pJ per bit per sqrt(capacity-bit) — the
    /// CACTI-like bitline/wordline term.
    pub sram_e1_per_bit: f64,
    /// SRAM leakage not modeled (LP process, paper reports dynamic energy).
    /// SRAM area, mm² per bit (6T cell + periphery amortized).
    pub sram_area_per_bit: f64,

    /// DRAM energy, pJ per bit transferred (activate + read/write + I/O,
    /// Micron-style aggregate).
    pub dram_energy_per_bit: f64,
}

impl TechParams {
    /// Every field's exact `f64` bit pattern, in declaration order — the
    /// canonical identity of a parameter set for content-addressed caching
    /// (two `TechParams` share the array iff they are bit-identical).
    /// Update this list when fields are added or reordered; the length is
    /// asserted against the struct in the unit tests.
    pub fn field_bits(&self) -> [u64; 17] {
        [
            self.mult_area_per_bit2.to_bits(),
            self.acc_area_per_bit.to_bits(),
            self.pe_linear_area_per_bit.to_bits(),
            self.pe_fixed_area.to_bits(),
            self.zena_skip_area.to_bits(),
            self.olaccel_mac_fixed_area.to_bits(),
            self.olaccel_group_area.to_bits(),
            self.olaccel_cluster_area_16.to_bits(),
            self.olaccel_cluster_area_8.to_bits(),
            self.mult_energy_per_bit2.to_bits(),
            self.acc_energy_per_bit.to_bits(),
            self.gated_mac_fraction.to_bits(),
            self.control_energy_per_op.to_bits(),
            self.sram_e0_per_bit.to_bits(),
            self.sram_e1_per_bit.to_bits(),
            self.sram_area_per_bit.to_bits(),
            self.dram_energy_per_bit.to_bits(),
        ]
    }
}

impl Default for TechParams {
    fn default() -> Self {
        TechParams {
            // Area: fit so eyeriss_pe_area(16) = 9.27e-3 and (8) = 5.82e-3
            // (165 PEs -> 1.53 / 0.96 mm², Table I).
            mult_area_per_bit2: 9.66e-6,
            acc_area_per_bit: 3.0e-5,
            pe_linear_area_per_bit: 1.7e-4,
            pe_fixed_area: 3.36e-3,
            zena_skip_area: 0.4e-3,
            olaccel_mac_fixed_area: 2.0e-4,
            olaccel_group_area: 2.0e-3,
            olaccel_cluster_area_16: 59.0e-3,
            olaccel_cluster_area_8: 10.5e-3,

            // Energy: 16x16 MAC ~ 4.3 pJ, 4x4 MAC ~ 0.72 pJ in 65 nm.
            mult_energy_per_bit2: 0.015,
            acc_energy_per_bit: 0.02,
            gated_mac_fraction: 0.10,
            control_energy_per_op: 0.15,

            sram_e0_per_bit: 0.08,
            sram_e1_per_bit: 3.0e-4,
            sram_area_per_bit: 6.0e-7,

            // Effective pJ/bit across activate+rw+IO for a low-power DRAM
            // stream at high row locality (weights stream sequentially).
            dram_energy_per_bit: 4.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_bits_cover_every_field() {
        // The array must track the struct exactly: same number of f64
        // fields, and any single-field change must move exactly one entry.
        assert_eq!(
            std::mem::size_of::<TechParams>(),
            17 * std::mem::size_of::<f64>(),
            "TechParams gained or lost a field; update field_bits()"
        );
        let base = TechParams::default();
        let mut t = base;
        t.sram_e1_per_bit *= 2.0;
        let diff = base
            .field_bits()
            .iter()
            .zip(t.field_bits())
            .filter(|(a, b)| **a != *b)
            .count();
        assert_eq!(diff, 1);
    }

    #[test]
    fn defaults_are_positive() {
        let t = TechParams::default();
        assert!(t.mult_area_per_bit2 > 0.0);
        assert!(t.dram_energy_per_bit > 0.0);
        assert!(t.gated_mac_fraction > 0.0 && t.gated_mac_fraction < 1.0);
    }
}
