//! One generic simulator for every accelerator cycle/energy model.
//!
//! The paper's evaluation (§IV) runs OLAccel, Eyeriss and ZeNA over the
//! same layer workloads, with the same Table I memory system and the same
//! SRAM/DRAM pricing. [`Accelerator<M>`] is that shared part: the
//! configuration, the label, the [`SimCache`] key, the memoized,
//! layer-parallel network simulation and the memory-system energy. A model
//! supplies only its physics, as a [`LayerModel`] impl on its tuning
//! struct: `ola-core`'s OLAccel `Tuning`, and `ola-baselines`'
//! `EyerissTuning` and `ZenaTuning`.

use crate::result::{LayerRun, NetworkRun, Utilization};
use crate::simcache::SimCache;
use crate::timing::{timed, Phase};
use crate::traffic::buffer_traffic_bits;
use crate::workload::{LayerWorkload, WorkloadSet};
use ola_energy::config::{AcceleratorConfig, AcceleratorKind, ComparisonMode, MemoryConfig};
use ola_energy::dram::dram_energy;
use ola_energy::sram::Sram;
use ola_energy::{EnergyBreakdown, TechParams};
use ola_tensor::bytes::{Encoder, Fingerprint};

/// A model's result for one layer: everything a [`LayerRun`] reports
/// except the memory-system energy, which [`Accelerator`] prices.
#[derive(Clone, Debug)]
pub struct DatapathRun {
    /// Layer latency, cycles.
    pub cycles: u64,
    /// Run/Skip/Idle decomposition of `cycles`.
    pub utilization: Utilization,
    /// MAC and control energy, pJ.
    pub logic: f64,
    /// PE-local buffer and scratchpad energy, pJ.
    pub local: f64,
    /// Cycles-per-chunk histogram (empty for models without chunks).
    pub chunk_cycle_hist: Vec<u64>,
}

/// The per-model physics an [`Accelerator`] drives, implemented on the
/// model's tuning struct. Every method must be a pure function of the
/// tuning and its arguments, and [`LayerModel::fold_tuning`] must fold
/// every tuning field: [`Accelerator`] memoizes a layer's result under a key
/// of exactly those inputs.
pub trait LayerModel: Copy + Default + Sync {
    /// Which accelerator this is: its Table I configuration and label.
    const KIND: AcceleratorKind;

    /// Folds every tuning field into a [`SimCache`] key.
    fn fold_tuning(&self, fp: &mut Fingerprint);

    /// Stored sizes, in bits, of the layer's input activations, weights
    /// and outputs as this accelerator encodes them in `mode`.
    fn traffic_bits(&self, l: &LayerWorkload, mode: ComparisonMode) -> [u64; 3];

    /// The layer's cycles, utilization, logic and local energy on
    /// `config`.
    fn datapath(
        &self,
        tech: &TechParams,
        config: &AcceleratorConfig,
        l: &LayerWorkload,
    ) -> DatapathRun;
}

/// A simulator of one accelerator model in one comparison mode.
#[derive(Clone, Debug)]
pub struct Accelerator<M> {
    tech: TechParams,
    config: AcceleratorConfig,
    tuning: M,
}

impl<M: LayerModel> Accelerator<M> {
    /// The model's Table I configuration for `mode`, at default tuning.
    pub fn new(tech: TechParams, mode: ComparisonMode) -> Self {
        Accelerator {
            config: AcceleratorConfig::new(M::KIND, &tech, mode),
            tech,
            tuning: M::default(),
        }
    }

    /// Overrides the model tuning (ablation benches).
    pub fn with_tuning(mut self, tuning: M) -> Self {
        self.tuning = tuning;
        self
    }

    /// The resolved configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Display label, e.g. `"OLAccel16"`.
    pub fn label(&self) -> String {
        format!("{}{}", self.config.kind.name(), self.config.mode.bits())
    }

    /// Simulates one layer, bypassing the cache. DRAM moves each encoded
    /// tensor once; the Table I buffer re-serves the activations once per
    /// weight tile.
    pub fn simulate_layer(&self, l: &LayerWorkload, mem: &MemoryConfig) -> LayerRun {
        let d = self.tuning.datapath(&self.tech, &self.config, l);
        let [act, weight, out] = self.tuning.traffic_bits(l, self.config.mode);
        let buffer_traffic = buffer_traffic_bits(act, weight, out, mem.weight_bits);
        LayerRun {
            name: l.name.clone(),
            cycles: d.cycles,
            energy: EnergyBreakdown {
                dram: dram_energy(&self.tech, act + weight + out),
                buffer: Sram::new(&self.tech, mem.total_bits()).access_energy(buffer_traffic),
                local: d.local,
                logic: d.logic,
            },
            utilization: d.utilization,
            chunk_cycle_hist: d.chunk_cycle_hist,
        }
    }

    /// [`SimCache`] key of one layer: the layer's content fingerprint
    /// folded with every input [`Accelerator::simulate_layer`] reads.
    fn key(&self, l: &LayerWorkload, mem: &MemoryConfig) -> u64 {
        let mut fp = Fingerprint::new();
        fp.u8(self.config.kind as u8)
            .u32(self.config.mode.bits())
            .usize(self.config.clusters)
            .usize(self.config.pe_count);
        for b in self.tech.field_bits() {
            fp.u64(b);
        }
        self.tuning.fold_tuning(&mut fp);
        fp.u64(mem.act_bits)
            .u64(mem.weight_bits)
            .u64(l.fingerprint());
        fp.finish()
    }

    /// Simulates every layer of a workload set under the calling thread's
    /// worker budget ([`ola_tensor::par::jobs`]).
    ///
    /// Layers are independent given a [`WorkloadSet`], so they fan out over
    /// [`ola_tensor::par::ordered_map`]'s scoped worker threads; results
    /// come back in forward order and are byte-identical at any worker
    /// count. Per-layer results are memoized in the global [`SimCache`],
    /// so a repeated simulation of the same layer under the same
    /// configuration (across figures, jobs, or daemon requests) is served
    /// from memory, or from the disk store on a warm `--cache-dir` run.
    pub fn simulate(&self, ws: &WorkloadSet) -> NetworkRun {
        self.simulate_with_jobs(ws, ola_tensor::par::jobs())
    }

    /// [`Accelerator::simulate`] with an explicit worker-thread count
    /// (`1` = inline on the calling thread).
    pub fn simulate_with_jobs(&self, ws: &WorkloadSet, jobs: usize) -> NetworkRun {
        timed(Phase::Model, || {
            let mem = MemoryConfig::for_network(&ws.network, self.config.mode);
            let cache = SimCache::global();
            NetworkRun {
                accelerator: self.label(),
                network: ws.network.clone(),
                layers: ola_tensor::par::ordered_map(&ws.layers, jobs, |_, l| {
                    (*cache.layer_run(self.key(l, &mem), || self.simulate_layer(l, &mem))).clone()
                }),
            }
        })
    }

    /// Total DRAM traffic bits for one inference (Fig 15 bandwidth model).
    pub fn dram_bits(&self, ws: &WorkloadSet) -> u64 {
        ws.layers
            .iter()
            .map(|l| {
                let [act, weight, out] = self.tuning.traffic_bits(l, self.config.mode);
                act + weight + out
            })
            .sum()
    }
}
