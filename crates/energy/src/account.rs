//! Energy accounting in the paper's four buckets.

use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// Energy decomposed the way Figs 11-13 plot it, in picojoules.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Off-chip DRAM traffic.
    pub dram: f64,
    /// The large on-chip memory (Eyeriss/ZeNA global buffer, OLAccel swarm
    /// buffer).
    pub buffer: f64,
    /// Local buffers: PE scratchpads, cluster/group buffers, tri-buffer.
    pub local: f64,
    /// Logic: MAC units, bus, control.
    pub logic: f64,
}

impl EnergyBreakdown {
    /// An all-zero breakdown.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Total energy, pJ.
    pub fn total(&self) -> f64 {
        self.dram + self.buffer + self.local + self.logic
    }

    /// Scales every bucket by `factor`.
    pub fn scaled(&self, factor: f64) -> EnergyBreakdown {
        EnergyBreakdown {
            dram: self.dram * factor,
            buffer: self.buffer * factor,
            local: self.local * factor,
            logic: self.logic * factor,
        }
    }
}

impl Add for EnergyBreakdown {
    type Output = EnergyBreakdown;

    fn add(self, rhs: EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            dram: self.dram + rhs.dram,
            buffer: self.buffer + rhs.buffer,
            local: self.local + rhs.local,
            logic: self.logic + rhs.logic,
        }
    }
}

impl AddAssign for EnergyBreakdown {
    fn add_assign(&mut self, rhs: EnergyBreakdown) {
        *self = *self + rhs;
    }
}

impl Sum for EnergyBreakdown {
    fn sum<I: Iterator<Item = EnergyBreakdown>>(iter: I) -> Self {
        iter.fold(EnergyBreakdown::zero(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_and_add() {
        let a = EnergyBreakdown {
            dram: 1.0,
            buffer: 2.0,
            local: 3.0,
            logic: 4.0,
        };
        let b = EnergyBreakdown {
            dram: 0.5,
            buffer: 0.5,
            local: 0.5,
            logic: 0.5,
        };
        assert_eq!(a.total(), 10.0);
        assert_eq!((a + b).total(), 12.0);
        let s: EnergyBreakdown = [a, b].into_iter().sum();
        assert_eq!(s, a + b);
    }
}
