//! The OLAccel cycle/energy model: the per-layer physics the shared
//! [`Accelerator`] simulator runs.

use crate::cost::{layer_cost, GroupTuning};
use crate::dispatch::makespan_analytic;
use ola_energy::config::{AcceleratorConfig, AcceleratorKind, ComparisonMode, GROUPS_PER_CLUSTER};
use ola_energy::mac::mac_energy;
use ola_energy::sram::Sram;
use ola_energy::TechParams;
use ola_sim::traffic::{olaccel_act_bits, olaccel_out_bits, olaccel_weight_bits};
use ola_sim::{
    Accelerator, DatapathRun, FirstLayerPolicy, LayerModel, LayerWorkload, OutlierSelect,
    QuantPolicy, Utilization,
};
use ola_tensor::bytes::{Encoder, Fingerprint};

/// Model calibration knobs beyond the PE-group microarchitecture.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tuning {
    /// PE-group microarchitecture.
    pub group: GroupTuning,
    /// Multiplicative overhead on dense-path cycles: cluster buffer refills,
    /// weight-chunk streaming, and control bubbles the chunk cost model does
    /// not see. Calibrated against the paper's Fig 11 cycle anchors.
    pub dispatch_overhead: f64,
    /// Pipelined accumulation drain cycles charged per layer (tri-buffer
    /// handoff between the normal and outlier accumulation units).
    pub accum_drain: u64,
    /// Group-local buffer capacity in bits (prices "local" accesses).
    pub local_buffer_bits: u64,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            group: GroupTuning::default(),
            dispatch_overhead: 1.23,
            accum_drain: 32,
            local_buffer_bits: 2 * 1024 * 8,
        }
    }
}

/// The OLAccel simulator for one comparison mode: the shared generic simulator over
/// [`Tuning`]'s physics. `new` builds the ISO-area configuration (8
/// clusters / 768 MACs at 16-bit, 6 clusters / 576 MACs at 8-bit).
///
/// # Example
///
/// ```
/// use ola_core::OlAccelSim;
/// use ola_energy::{ComparisonMode, TechParams};
///
/// let sim = OlAccelSim::new(TechParams::default(), ComparisonMode::Bits16);
/// assert_eq!(sim.config().pe_count, 768);
/// assert_eq!(sim.label(), "OLAccel16");
/// ```
pub type OlAccelSim = Accelerator<Tuning>;

/// Total outlier-activation broadcasts for a layer (each feeds 16 output
/// channels of one output-channel group at one kernel offset).
fn outlier_broadcasts(l: &LayerWorkload) -> f64 {
    if l.is_first() {
        // Raw-input layers have no outlier split: everything runs on the
        // dense (multi-pass) path.
        return 0.0;
    }
    let uses_per_act_per_group = l.macs as f64 / (l.act_count() as f64 * l.out_shape.c as f64);
    l.outlier_act_count() as f64 * uses_per_act_per_group * l.oc_groups() as f64
}

impl LayerModel for Tuning {
    const KIND: AcceleratorKind = AcceleratorKind::OlAccel;

    fn fold_tuning(&self, fp: &mut Fingerprint) {
        self.group.encode(fp);
        fp.f64(self.dispatch_overhead)
            .u64(self.accum_drain)
            .u64(self.local_buffer_bits);
    }

    /// Dense 4-bit tensors plus the sparse outlier records and overflow
    /// chunks. The traffic model reads only bit widths and the layer's
    /// *measured* outlier counts from the policy; the selection rule
    /// already shaped those counts during extraction, so `select` is inert
    /// here.
    fn traffic_bits(&self, l: &LayerWorkload, mode: ComparisonMode) -> [u64; 3] {
        let policy = QuantPolicy {
            mode,
            low_bits: 4,
            outlier_ratio: l.act_outlier_nonzero_ratio,
            first_layer: FirstLayerPolicy::RawActs,
            select: OutlierSelect::MagnitudePercentile,
        };
        [
            olaccel_act_bits(l, &policy),
            olaccel_weight_bits(l),
            olaccel_out_bits(l, &policy),
        ]
    }

    fn datapath(
        &self,
        tech: &TechParams,
        config: &AcceleratorConfig,
        l: &LayerWorkload,
    ) -> DatapathRun {
        let groups = (config.clusters * GROUPS_PER_CLUSTER).max(1);
        let lc = layer_cost(l, &self.group);

        // ---- dense datapath cycles ----
        // The end-of-stream imbalance tail is bounded by the layer's actual
        // worst chunk (including multi-outlier second passes), the same
        // quantity the event-driven path realizes job by job.
        let dense = makespan_analytic(lc.total(), lc.max_chunk, groups) * self.dispatch_overhead;

        // ---- outlier datapath cycles (one outlier PE group per cluster) ----
        let broadcasts = outlier_broadcasts(l);
        let outlier = broadcasts / config.clusters.max(1) as f64;

        let cycles = dense.max(outlier).round() as u64 + self.accum_drain;

        // ---- utilization decomposition (dense PE groups' view) ----
        let run_cycles = (lc.run / groups as f64).round() as u64;
        let skip_cycles = (lc.skip / groups as f64).round() as u64;

        // ---- energy ----
        let lanes = self.group.lanes as f64;
        let mode_bits = config.mode.bits();

        // Logic: every broadcast drives 16 normal lanes + the outlier MAC;
        // outlier-group broadcasts drive 16 mixed-precision lanes.
        let mac4 = mac_energy(tech, 4, 4, 24);
        let mac_mixed = mac_energy(tech, mode_bits, 4, 24);
        let logic = lc.run * (lanes + 1.0) * mac4
            + broadcasts * lanes * mac_mixed
            + (lc.total() + broadcasts) * tech.control_energy_per_op;

        // Local: per broadcast, one 80-bit weight chunk moves cluster
        // buffer -> group weight buffer -> the MAC lanes (counted twice);
        // per unit, the activation chunk moves cluster buffer -> group
        // buffer and the 16 partial sums go through the tri-buffer
        // (read+write, with the outlier accumulation unit making a second
        // pipelined pass).
        let local_sram = Sram::new(tech, self.local_buffer_bits);
        let units = l.group_units() as f64;
        let act_chunk_bits = lanes * l.act_bits as f64;
        let local_bits = lc.run * 80.0
            + units * act_chunk_bits * 2.0
            + units * lanes * 24.0 * 2.0
            + broadcasts * (mode_bits as f64 + 80.0 + lanes * 24.0);

        DatapathRun {
            cycles,
            utilization: Utilization {
                run_cycles,
                skip_cycles,
                idle_cycles: cycles.saturating_sub(run_cycles + skip_cycles),
            },
            logic,
            local: local_bits * local_sram.energy_per_bit(),
            chunk_cycle_hist: lc.chunk_hist,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ola_energy::config::MemoryConfig;
    use ola_sim::workload::LayerKind;
    use ola_tensor::Shape4;

    fn dense_layer(nnz: u8, chunks: usize) -> LayerWorkload {
        LayerWorkload {
            name: "conv".into(),
            index: 1,
            kind: LayerKind::Conv,
            in_shape: Shape4::new(1, 16, 1, chunks),
            out_shape: Shape4::new(1, 16, 1, chunks),
            kernel: 1,
            macs: (chunks * 256) as u64,
            weight_count: 256,
            weight_bits: 4,
            act_bits: 4,
            weight_zero_fraction: 0.0,
            act_zero_fraction: 1.0 - nnz as f64 / 16.0,
            weight_outlier_ratio: 0.03,
            act_outlier_nonzero_ratio: 0.03,
            act_effective_outlier_ratio: 0.02,
            chunk_nnz: vec![nnz; chunks],
            chunk_zero_quads: vec![0; chunks],
            wchunk_single_fraction: 0.2,
            wchunk_multi_fraction: 0.0,
            out_zero_fraction: 0.4,
        }
    }

    fn sim16() -> OlAccelSim {
        OlAccelSim::new(TechParams::default(), ComparisonMode::Bits16)
    }

    #[test]
    fn config_matches_paper() {
        assert_eq!(sim16().config().pe_count, 768);
        assert_eq!(sim16().label(), "OLAccel16");
        let s8 = OlAccelSim::new(TechParams::default(), ComparisonMode::Bits8);
        assert_eq!(s8.config().pe_count, 576);
        assert_eq!(s8.label(), "OLAccel8");
    }

    #[test]
    fn sparser_activations_run_faster() {
        let sim = sim16();
        let mem = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let dense = sim.simulate_layer(&dense_layer(16, 4800), &mem);
        let sparse = sim.simulate_layer(&dense_layer(4, 4800), &mem);
        assert!(
            sparse.cycles < dense.cycles / 2,
            "sparse {} vs dense {}",
            sparse.cycles,
            dense.cycles
        );
    }

    #[test]
    fn first_layer_pays_precision_passes() {
        let sim = sim16();
        let mem = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let mut l = dense_layer(16, 4800);
        let base = sim.simulate_layer(&l, &mem).cycles;
        l.index = 0;
        l.act_bits = 16;
        let first = sim.simulate_layer(&l, &mem).cycles;
        assert!(
            (first as f64 / base as f64 - 4.0).abs() < 0.3,
            "16-bit acts should take ~4x: {first} vs {base}"
        );
    }

    #[test]
    fn multi_outlier_chunks_cost_extra() {
        let sim = sim16();
        let mem = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let mut l = dense_layer(16, 4800);
        let base = sim.simulate_layer(&l, &mem).cycles;
        l.wchunk_multi_fraction = 0.5;
        let multi = sim.simulate_layer(&l, &mem).cycles;
        assert!(
            (multi as f64 / base as f64 - 1.5).abs() < 0.1,
            "50% multi-outlier chunks should cost ~1.5x: {multi} vs {base}"
        );
    }

    #[test]
    fn energy_buckets_all_positive() {
        let sim = sim16();
        let mem = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let run = sim.simulate_layer(&dense_layer(10, 1000), &mem);
        assert!(run.energy.dram > 0.0);
        assert!(run.energy.buffer > 0.0);
        assert!(run.energy.local > 0.0);
        assert!(run.energy.logic > 0.0);
        // DRAM dominates SRAM for the same traffic (pJ/bit gap).
        assert!(run.energy.dram > run.energy.buffer);
    }

    #[test]
    fn utilization_accounts_cycles() {
        let sim = sim16();
        let mem = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let run = sim.simulate_layer(&dense_layer(8, 2000), &mem);
        assert_eq!(run.utilization.total(), run.cycles);
        assert!(run.utilization.run_cycles > 0);
    }

    #[test]
    fn outlier_path_can_bound_layer_latency() {
        let sim = sim16();
        let mem = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let mut l = dense_layer(2, 200);
        // Nearly every activation an outlier: the outlier PE group's serial
        // broadcast stream outlasts the (sparse) dense path.
        l.act_effective_outlier_ratio = 0.9;
        let heavy = sim.simulate_layer(&l, &mem).cycles;
        l.act_effective_outlier_ratio = 0.0;
        let light = sim.simulate_layer(&l, &mem).cycles;
        assert!(
            heavy > light,
            "outlier-dominated layer should be slower: {heavy} vs {light}"
        );
    }

    #[test]
    fn first_layer_has_no_outlier_path() {
        let sim = sim16();
        let mem = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let mut l = dense_layer(16, 100);
        l.index = 0;
        l.act_bits = 16;
        l.act_effective_outlier_ratio = 0.5; // ignored on the raw-input path
        let with = sim.simulate_layer(&l, &mem).cycles;
        l.act_effective_outlier_ratio = 0.0;
        let without = sim.simulate_layer(&l, &mem).cycles;
        assert_eq!(with, without, "raw-input first layer has no outlier split");
    }

    #[test]
    fn layer_parallel_simulation_is_deterministic() {
        let sim = sim16();
        let ws = ola_sim::WorkloadSet {
            network: "alexnet".into(),
            layers: (1u8..10).map(|nnz| dense_layer(nnz, 500)).collect(),
        };
        let serial = sim.simulate_with_jobs(&ws, 1);
        let parallel = sim.simulate_with_jobs(&ws, 4);
        assert_eq!(serial.layers.len(), parallel.layers.len());
        for (a, b) in serial.layers.iter().zip(&parallel.layers) {
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.utilization, b.utilization);
            assert_eq!(a.energy.total(), b.energy.total());
            assert_eq!(a.chunk_cycle_hist, b.chunk_cycle_hist);
        }
    }

    #[test]
    fn more_clusters_fewer_cycles() {
        // Fig 15's scalability axis: the same model on a bigger swarm.
        let l = dense_layer(12, 50_000);
        let cycles = |clusters: usize| {
            let mut config = *sim16().config();
            config.clusters = clusters;
            config.pe_count = clusters * GROUPS_PER_CLUSTER * 16;
            Tuning::default()
                .datapath(&TechParams::default(), &config, &l)
                .cycles
        };
        let (small, big) = (cycles(2), cycles(8));
        assert!(big * 3 < small, "8 clusters {big} vs 2 clusters {small}");
    }
}
