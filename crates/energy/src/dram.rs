//! Micron-style DRAM energy model: a flat pJ/bit aggregate.

use crate::params::TechParams;

/// Energy to transfer `bits` over the DRAM interface, pJ.
///
/// The Micron power calculator the paper used folds activate, read/write and
/// I/O into per-access numbers; at the granularity of whole-layer traffic a
/// flat per-bit aggregate is the standard first-order summary.
pub fn dram_energy(tech: &TechParams, bits: u64) -> f64 {
    tech.dram_energy_per_bit * bits as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_in_bits() {
        let t = TechParams::default();
        assert_eq!(dram_energy(&t, 200), 2.0 * dram_energy(&t, 100));
    }

    #[test]
    fn dram_exceeds_sram_per_bit() {
        let t = TechParams::default();
        // Even a very large (4 MiB) on-chip SRAM stays cheaper per bit than
        // going off-chip; small buffers are far cheaper.
        let big = crate::sram::Sram::new(&t, 4 * 1024 * 1024 * 8);
        let small = crate::sram::Sram::new(&t, 16 * 1024 * 8);
        assert!(dram_energy(&t, 1) > 2.0 * big.energy_per_bit());
        assert!(dram_energy(&t, 1) > 10.0 * small.energy_per_bit());
    }
}
