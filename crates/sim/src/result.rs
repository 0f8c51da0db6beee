//! Simulation result records.

use ola_energy::EnergyBreakdown;

/// Cycle decomposition of a layer run (Fig 18's Run/Skip/Idle buckets).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Utilization {
    /// Cycles spent on productive MAC broadcasts.
    pub run_cycles: u64,
    /// Cycles burned by the 4-wide zero-skip scanner on all-zero quads.
    pub skip_cycles: u64,
    /// Cycles a PE group sat idle (load imbalance, drain, first-layer
    /// serialization).
    pub idle_cycles: u64,
}

impl Utilization {
    /// Total accounted cycles.
    pub fn total(&self) -> u64 {
        self.run_cycles + self.skip_cycles + self.idle_cycles
    }

    /// The cycle conservation law (DESIGN.md §5): an *aggregate*
    /// decomposition over `groups` PE groups that each observed `cycles`
    /// wall-clock cycles is lossless exactly when
    /// `run + skip + idle == cycles * groups` in exact integer arithmetic —
    /// every group cycle is accounted as productive work, skip-scan
    /// overhead, or idling, with nothing lost to rounding.
    pub fn is_conserved(&self, cycles: u64, groups: u64) -> bool {
        self.total() == cycles * groups
    }
}

/// Result of simulating one layer on one accelerator.
#[derive(Clone, Debug)]
pub struct LayerRun {
    /// Layer name.
    pub name: String,
    /// Execution cycles.
    pub cycles: u64,
    /// Energy breakdown, pJ.
    pub energy: EnergyBreakdown,
    /// Cycle decomposition (meaningful for OLAccel/ZeNA; Eyeriss is dense).
    pub utilization: Utilization,
    /// Histogram of cycles-per-activation-chunk: index i counts chunks that
    /// took i cycles (Fig 19). Empty for models that do not track it.
    pub chunk_cycle_hist: Vec<u64>,
}

/// Result of simulating a whole network on one accelerator.
#[derive(Clone, Debug)]
pub struct NetworkRun {
    /// Accelerator label, e.g. "OLAccel16".
    pub accelerator: String,
    /// Network name.
    pub network: String,
    /// Per-layer results in forward order.
    pub layers: Vec<LayerRun>,
}

impl NetworkRun {
    /// Total execution cycles.
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.cycles).sum()
    }

    /// Total energy breakdown.
    pub fn total_energy(&self) -> EnergyBreakdown {
        self.layers.iter().map(|l| l.energy).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(name: &str, cycles: u64, dram: f64) -> LayerRun {
        LayerRun {
            name: name.to_string(),
            cycles,
            energy: EnergyBreakdown {
                dram,
                ..Default::default()
            },
            utilization: Utilization {
                run_cycles: cycles,
                skip_cycles: 0,
                idle_cycles: 0,
            },
            chunk_cycle_hist: Vec::new(),
        }
    }

    #[test]
    fn network_run_aggregates() {
        let run = NetworkRun {
            accelerator: "test".into(),
            network: "net".into(),
            layers: vec![layer("a", 10, 1.0), layer("b", 20, 2.0)],
        };
        assert_eq!(run.total_cycles(), 30);
        assert_eq!(run.total_energy().dram, 3.0);
    }

    #[test]
    fn utilization_total() {
        let u = Utilization {
            run_cycles: 5,
            skip_cycles: 3,
            idle_cycles: 2,
        };
        assert_eq!(u.total(), 10);
    }

    #[test]
    fn conservation_is_exact() {
        let u = Utilization {
            run_cycles: 7,
            skip_cycles: 2,
            idle_cycles: 3,
        };
        // 12 accounted group-cycles: conserved only for cycles*groups == 12.
        assert!(u.is_conserved(4, 3));
        assert!(u.is_conserved(12, 1));
        assert!(!u.is_conserved(4, 2));
        assert!(!u.is_conserved(5, 3));
    }
}
