//! Layer workload extraction: geometry + measured data statistics.
//!
//! A [`LayerWorkload`] is everything an accelerator cycle/energy model needs
//! to know about one conv/FC layer: shapes and MAC counts, plus the measured
//! distributions the paper's mechanisms key on — per-chunk non-zero
//! activation counts (zero skipping, Fig 18/19), weight-chunk outlier
//! multiplicity (the outlier-MAC mechanism, Fig 17), and outlier activation
//! ratios (the outlier PE group, Fig 16).
//!
//! Every statistic comes from one band-major chunk-grid kernel (the
//! crate-private `chunk` module), the only walker of the chunk geometry.
//! Extraction runs layers concurrently under the worker budget set by
//! [`set_extract_jobs`]. Per layer:
//!
//! * the kernel's occupancy pass over the input activations yields every
//!   chunk's non-zero lanes and all-zero quads, in position-major order,
//!   plus the tensor's non-zero count and absolute maximum;
//! * the activation calibration ([`crate::calibrate`]) and the weight
//!   statistics resolve the selection rule, then count outliers per chunk.
//!   A global top-k threshold is the exact k-th largest score, and a lane
//!   is an outlier iff its score is at least the threshold in the
//!   [`f32::total_cmp`] order, so counting agrees with ranking on every
//!   value, NaN and infinities included.
//!
//! The result is byte-identical at any worker count. The property tests
//! pin it, bit for bit, to a retained multi-pass reference extraction that
//! lives in the test crate.

use crate::calibrate::calibrate_grid;
use crate::chunk::{census, count_grid, key, occupancy, select_kth, top_k};
use crate::chunk::{Counts, Grid, Rule, Score};
use crate::policy::{OutlierSelect, QuantPolicy};
use ola_nn::network::WeightStore;
use ola_nn::{Network, Op, Params};
use ola_quant::outlier::OutlierQuantizer;
use ola_tensor::par::ordered_map;
use ola_tensor::{Shape4, Tensor, CHUNK_LANES};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide default worker count for workload extraction, set once by
/// the experiment engine from its `--jobs` split (mirrors
/// `ola_nn::kernels::set_forward_jobs`).
static EXTRACT_JOBS: AtomicUsize = AtomicUsize::new(1);

/// Sets the process-wide default extraction worker count.
///
/// # Panics
///
/// Panics if `jobs` is zero.
pub fn set_extract_jobs(jobs: usize) {
    assert!(jobs > 0, "extraction worker count must be positive");
    EXTRACT_JOBS.store(jobs, Ordering::Relaxed);
}

/// Current process-wide default extraction worker count.
pub fn extract_jobs() -> usize {
    EXTRACT_JOBS.load(Ordering::Relaxed)
}

/// Whether a layer is convolutional or fully connected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayerKind {
    /// 2-D convolution.
    Conv,
    /// Fully connected (treated as a 1x1 convolution over a 1x1 input).
    Fc,
}

/// Everything the accelerator models need to know about one layer.
#[derive(Clone, Debug)]
pub struct LayerWorkload {
    /// Layer name from the network graph.
    pub name: String,
    /// Index among compute layers (0 = first conv).
    pub index: usize,
    /// Conv or FC.
    pub kind: LayerKind,
    /// Input activation shape.
    pub in_shape: Shape4,
    /// Output activation shape.
    pub out_shape: Shape4,
    /// Kernel side length (1 for FC).
    pub kernel: usize,
    /// Exact multiply-accumulate count (padding-aware).
    pub macs: u64,
    /// Weight count.
    pub weight_count: u64,
    /// Dense weight bits under the policy (4, or 8 for special first layers).
    pub weight_bits: u32,
    /// Dense activation bits entering this layer (4, or 8/16 raw input).
    pub act_bits: u32,
    /// Fraction of zero weights (pruning).
    pub weight_zero_fraction: f64,
    /// Fraction of zero input activations.
    pub act_zero_fraction: f64,
    /// Realized outlier fraction over all weights.
    pub weight_outlier_ratio: f64,
    /// Outlier ratio among non-zero input activations.
    pub act_outlier_nonzero_ratio: f64,
    /// Outlier ratio over all input activations (Fig 16's metric).
    pub act_effective_outlier_ratio: f64,
    /// Measured non-zero count of every 16-lane input activation chunk.
    pub chunk_nnz: Vec<u8>,
    /// Per chunk, how many of its four 4-lane quads are entirely zero —
    /// each costs the zero-skip scanner one overhead cycle (§V, Fig 18).
    pub chunk_zero_quads: Vec<u8>,
    /// Fraction of 16-lane weight chunks with exactly one outlier.
    pub wchunk_single_fraction: f64,
    /// Fraction of 16-lane weight chunks with two or more outliers (these
    /// cost the extra cycle of §III-D).
    pub wchunk_multi_fraction: f64,
    /// Zero fraction of this layer's (post-ReLU, when present) output.
    pub out_zero_fraction: f64,
}

impl LayerWorkload {
    /// Input channel chunks per spatial position.
    pub fn cin_chunks(&self) -> u64 {
        (self.in_shape.c as u64).div_ceil(CHUNK_LANES as u64)
    }

    /// Output-channel groups of 16.
    pub fn oc_groups(&self) -> u64 {
        (self.out_shape.c as u64).div_ceil(CHUNK_LANES as u64)
    }

    /// Number of PE-group work units: one unit = one activation chunk
    /// processed against one 16-output-channel weight column at one kernel
    /// offset. Derived from the exact MAC count so zero-padding at tensor
    /// edges is respected.
    pub fn group_units(&self) -> u64 {
        let per_pair = self.macs as f64 / (self.in_shape.c as f64 * self.out_shape.c as f64);
        (per_pair * self.cin_chunks() as f64 * self.oc_groups() as f64).round() as u64
    }

    /// Total input activations.
    pub fn act_count(&self) -> u64 {
        self.in_shape.len() as u64
    }

    /// Total output activations.
    pub fn out_count(&self) -> u64 {
        self.out_shape.len() as u64
    }

    /// Count of outlier input activations.
    pub fn outlier_act_count(&self) -> u64 {
        (self.act_effective_outlier_ratio * self.act_count() as f64).round() as u64
    }

    /// Mean non-zero lanes per activation chunk.
    pub fn mean_chunk_nnz(&self) -> f64 {
        if self.chunk_nnz.is_empty() {
            return 0.0;
        }
        self.chunk_nnz.iter().map(|&v| v as f64).sum::<f64>() / self.chunk_nnz.len() as f64
    }

    /// Whether this layer runs the high-precision first-layer path.
    pub fn is_first(&self) -> bool {
        self.index == 0
    }

    /// Content fingerprint over every field, floats by exact bit pattern —
    /// the per-layer half of a [`crate::simcache::SimCache`] key. Two
    /// workloads share a fingerprint iff every field is bit-equal, up to
    /// FNV collisions, so a memoized simulation result can never be served
    /// for a bit-different layer.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = ola_tensor::memo::Fingerprint::new();
        fp.str(&self.name).usize(self.index).u8(match self.kind {
            LayerKind::Conv => 0,
            LayerKind::Fc => 1,
        });
        for s in [&self.in_shape, &self.out_shape] {
            fp.usize(s.n).usize(s.c).usize(s.h).usize(s.w);
        }
        fp.usize(self.kernel)
            .u64(self.macs)
            .u64(self.weight_count)
            .u32(self.weight_bits)
            .u32(self.act_bits)
            .f64(self.weight_zero_fraction)
            .f64(self.act_zero_fraction)
            .f64(self.weight_outlier_ratio)
            .f64(self.act_outlier_nonzero_ratio)
            .f64(self.act_effective_outlier_ratio)
            .bytes(&self.chunk_nnz)
            .bytes(&self.chunk_zero_quads)
            .f64(self.wchunk_single_fraction)
            .f64(self.wchunk_multi_fraction)
            .f64(self.out_zero_fraction);
        fp.finish()
    }
}

/// All compute-layer workloads of one network under one policy.
#[derive(Clone, Debug)]
pub struct WorkloadSet {
    /// Network name.
    pub network: String,
    /// Per-layer workloads in forward order.
    pub layers: Vec<LayerWorkload>,
}

impl WorkloadSet {
    /// Total MACs.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs).sum()
    }
}

/// Extracts workloads by running `input` through the network, calibrating
/// activation outlier thresholds on that same run, and measuring weight /
/// activation statistics per compute layer.
pub fn extract(
    net: &Network,
    params: &Params,
    input: &Tensor,
    policy: &QuantPolicy,
) -> WorkloadSet {
    let outs = net.forward(params, input);
    extract_from_acts(net, params, &outs, policy)
}

/// Like [`extract`], but reuses an existing forward pass — the expensive
/// part — so several policies (16-bit and 8-bit modes, outlier-ratio
/// sweeps) can share it. Runs under the worker budget set by
/// [`set_extract_jobs`].
pub fn extract_from_acts(
    net: &Network,
    params: &Params,
    outs: &[Tensor],
    policy: &QuantPolicy,
) -> WorkloadSet {
    extract_from_acts_jobs(net, params, outs, policy, extract_jobs())
}

/// [`extract_from_acts`] with an explicit worker budget: up to `jobs`
/// layers extract concurrently, and any leftover budget splits the passes
/// *within* a layer across band ranges. Byte-identical output at any
/// `jobs` value.
///
/// # Panics
///
/// Panics if `jobs` is zero.
pub fn extract_from_acts_jobs(
    net: &Network,
    params: &Params,
    outs: &[Tensor],
    policy: &QuantPolicy,
    jobs: usize,
) -> WorkloadSet {
    assert!(jobs > 0, "extraction needs at least one worker");
    let shapes = net.shapes();
    let compute = net.compute_nodes();
    let outer = jobs.min(compute.len().max(1));
    let inner = (jobs / outer).max(1);
    let layers = ordered_map(&compute, outer, |index, &node| {
        extract_layer(net, params, outs, policy, &shapes, index, node, inner)
    });
    WorkloadSet {
        network: net.name().to_string(),
        layers,
    }
}

/// Extracts one compute layer's workload: the occupancy pass and the
/// calibration over the input activations, the weight-grid statistics (a
/// key histogram and one bucket's gather when a global threshold is
/// needed, then one counting walk), and the output zero fraction.
#[allow(clippy::too_many_arguments)]
fn extract_layer(
    net: &Network,
    params: &Params,
    outs: &[Tensor],
    policy: &QuantPolicy,
    shapes: &[Shape4],
    index: usize,
    node: usize,
    jobs: usize,
) -> LayerWorkload {
    let n = &net.nodes()[node];
    let src = n.inputs[0];
    let act = &outs[src];
    let (kind, kernel, macs, weight_count) = match n.op {
        Op::Conv(spec) => {
            let i = act.shape();
            (
                LayerKind::Conv,
                spec.geometry.kernel,
                spec.macs(i.h, i.w),
                spec.weight_count(),
            )
        }
        Op::Linear(spec) => (LayerKind::Fc, 1, spec.macs(), spec.weight_count()),
        _ => unreachable!("compute_nodes returns only conv/linear"),
    };

    // --- input activation statistics ---
    let grid = Grid::activations(act, act.shape().n);
    let occupancy = occupancy(grid, jobs);
    let cal = calibrate_grid(
        node,
        grid,
        &occupancy,
        policy.outlier_ratio,
        policy.select,
        jobs,
    );

    // --- weight statistics ---
    let wstats = weight_chunk_stats(params, node, policy.outlier_ratio, policy.select, jobs);

    // --- output zero fraction: use the post-ReLU view when a ReLU (or
    //     BN+ReLU chain) directly consumes this node ---
    let out_zero_fraction = post_activation_zero_fraction(net, outs, node);

    let in_shape = if kind == LayerKind::Fc {
        // FC consumes a flattened input: model as C = features, 1x1.
        let s = act.shape();
        Shape4::new(s.n, s.c * s.h * s.w, 1, 1)
    } else {
        act.shape()
    };

    LayerWorkload {
        name: n.name.clone(),
        index,
        kind,
        in_shape,
        out_shape: shapes[node],
        kernel,
        macs,
        weight_count: weight_count as u64,
        weight_bits: policy.weight_bits(index),
        act_bits: policy.act_bits(index),
        weight_zero_fraction: wstats.zero_fraction,
        act_zero_fraction: cal.zero_fraction,
        weight_outlier_ratio: wstats.outlier_ratio,
        act_outlier_nonzero_ratio: cal.nonzero_outlier_ratio,
        act_effective_outlier_ratio: cal.effective_outlier_ratio,
        chunk_nnz: occupancy.nnz,
        chunk_zero_quads: occupancy.zero_quads,
        wchunk_single_fraction: wstats.single_fraction,
        wchunk_multi_fraction: wstats.multi_fraction,
        out_zero_fraction,
    }
}

/// Zero fraction of a node's output after any immediately-following
/// BatchNorm/ReLU chain (what actually gets written back / consumed).
pub fn post_activation_zero_fraction(net: &Network, outs: &[Tensor], node: usize) -> f64 {
    let mut cur = node;
    loop {
        let next = (cur + 1..net.nodes().len()).find(|&i| {
            net.nodes()[i].inputs.contains(&cur)
                && matches!(net.nodes()[i].op, Op::ReLU | Op::BatchNorm)
        });
        match next {
            Some(i) => {
                cur = i;
                if matches!(net.nodes()[i].op, Op::ReLU) {
                    return outs[i].zero_fraction();
                }
            }
            None => return outs[cur].zero_fraction(),
        }
    }
}

/// Weight-grid statistics one extraction pass measures: zero fraction,
/// realized outlier ratio, and per-16-lane-chunk outlier multiplicity.
/// Public (with the [`grid_chunk_stats`] entry point) so the differential
/// policy tests can drive the production kernel on raw grids at any worker
/// count.
#[derive(Clone, Copy, Debug)]
pub struct WeightChunkStats {
    /// Fraction of exactly-zero weights.
    pub zero_fraction: f64,
    /// Outliers over all weights (zeros included).
    pub outlier_ratio: f64,
    /// Fraction of chunks with exactly one outlier.
    pub single_fraction: f64,
    /// Fraction of chunks with two or more outliers.
    pub multi_fraction: f64,
}

impl WeightChunkStats {
    /// The fraction form of the counting pass's totals over `grid`.
    fn from_counts(counts: &Counts, grid: Grid<'_>) -> Self {
        let total = grid.lanes().max(1) as f64;
        let chunks = grid.chunks().max(1) as f64;
        WeightChunkStats {
            zero_fraction: counts.zeros as f64 / total,
            outlier_ratio: counts.outliers as f64 / total,
            single_fraction: counts.single as f64 / chunks,
            multi_fraction: counts.multi as f64 / chunks,
        }
    }
}

/// Measures weight zero fraction, outlier ratio and per-16-lane-chunk
/// outlier multiplicity. Chunks group 16 *output channels* at a fixed input
/// channel / kernel offset (§III-B).
fn weight_chunk_stats(
    params: &Params,
    node: usize,
    ratio: f64,
    select: OutlierSelect,
    jobs: usize,
) -> WeightChunkStats {
    match params
        .weights(node)
        .expect("compute node must have weights")
    {
        WeightStore::Dense(w) => {
            let values = w.as_slice();
            let s = w.shape();
            // Conv weights are (Co, Ci, K, K); FC dense weights are
            // (1, 1, rows=Co, cols=Ci). Normalize to (co, inner). Only a
            // genuinely 2-D store is an FC matrix — a single-output-channel
            // conv also has n == 1 but carries its fan-in in c.
            let (co, inner) = if s.n == 1 && s.c == 1 {
                (s.h, s.w)
            } else {
                (s.n, s.c * s.h * s.w)
            };
            grid_chunk_stats(values, co, inner, ratio, select, jobs)
        }
        WeightStore::RowGen(g) => {
            // Generated matrices are never materialized: their first 32
            // rows (two bands) stand in for the chunk grid.
            let rows = g.rows().min(32);
            let mut values = Vec::with_capacity(rows * g.cols());
            for r in 0..rows {
                values.extend(g.row(r));
            }
            let grid = Grid::matrix(&values, rows, g.cols());
            let rule = match select {
                // Magnitude keeps its historical split: a 64-row sample
                // fits the quantizer, the banded rows are counted.
                OutlierSelect::MagnitudePercentile => {
                    let sample = g.sample_values(64);
                    let fit = Grid::matrix(&sample, sample.len() / g.cols(), g.cols());
                    weight_rule(fit, ratio, select, jobs)
                }
                // The structured policies calibrate on the banded rows they
                // chunk (windowed needs no calibration at all; sensitivity's
                // window RMS only exists on the grid it scores, so a
                // separate row sample would be meaningless).
                _ => weight_rule(grid, ratio, select, jobs),
            };
            WeightChunkStats::from_counts(&count_grid(grid, rule, jobs), grid)
        }
    }
}

/// Chunk statistics of a `(co, inner)` weight grid under any
/// outlier-selection policy, split across `jobs` workers. `ratio` is the
/// paper's fraction of *total* weights (zeros included); the global
/// policies rescale it to the non-zero population. Byte-identical at any
/// `jobs` value.
///
/// # Panics
///
/// Panics if `values.len() != co * inner`, if `jobs` is zero, if a
/// windowed or sensitivity policy with a positive ratio has `window == 0`,
/// or if a magnitude fit yields no valid quantizer (see
/// [`OutlierQuantizer::with_threshold`]).
pub fn grid_chunk_stats(
    values: &[f32],
    co: usize,
    inner: usize,
    ratio: f64,
    select: OutlierSelect,
    jobs: usize,
) -> WeightChunkStats {
    let grid = Grid::matrix(values, co, inner);
    let rule = weight_rule(grid, ratio, select, jobs);
    WeightChunkStats::from_counts(&count_grid(grid, rule, jobs), grid)
}

/// Resolves `select`, calibrated on the weight population `fit`, to the
/// per-chunk rule the counting pass applies. The global policies keep the
/// top `ratio` share of *all* weights, rescaled to the non-zero lanes they
/// rank.
fn weight_rule(fit: Grid<'_>, ratio: f64, select: OutlierSelect, jobs: usize) -> Rule {
    match select {
        OutlierSelect::MagnitudePercentile => {
            if ratio <= 0.0 {
                return Rule::None;
            }
            let census = census(fit, Score::Magnitude, jobs);
            let nonzero = census.nonzero();
            if nonzero == 0 {
                return Rule::None;
            }
            let nonzero_ratio = (ratio * census.total as f64 / nonzero as f64).min(1.0);
            assert!(
                (0.0..=1.0).contains(&nonzero_ratio),
                "ratio must be in [0,1]"
            );
            let k = top_k(nonzero, nonzero_ratio);
            let threshold = select_kth(fit, Score::Magnitude, &census, k, jobs);
            // The fitted quantizer keeps its constructor's checks (positive
            // threshold, finite non-zero maximum); only its threshold
            // classifies.
            let quant =
                OutlierQuantizer::with_threshold(threshold, census.abs_max, nonzero_ratio, 4, 8);
            Rule::AtLeast {
                score: Score::Magnitude,
                key: key(quant.threshold()),
            }
        }
        OutlierSelect::WindowedTopK { window } if ratio > 0.0 => Rule::Windowed { window },
        OutlierSelect::SensitivityWeighted { window } if ratio > 0.0 => {
            let score = Score::Sensitivity { window };
            let census = census(fit, score, jobs);
            let scored = census.nonzero();
            if scored == 0 {
                return Rule::None;
            }
            let nonzero_ratio = (ratio * census.total as f64 / scored as f64).min(1.0);
            let threshold = select_kth(fit, score, &census, top_k(scored, nonzero_ratio), jobs);
            Rule::AtLeast {
                score,
                key: key(threshold),
            }
        }
        // A ratio that is not positive disables the structured policies.
        _ => Rule::None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{bucket, from_key, ZERO_BUCKET, ZERO_LANE};
    use ola_nn::synth::{synthesize_params, SynthConfig};
    use ola_nn::zoo::{self, ZooConfig};
    use ola_nn::{Conv2dSpec, Network};
    use ola_tensor::init::uniform_tensor;
    use ola_tensor::ConvGeometry;

    fn alexnet_workloads() -> WorkloadSet {
        let cfg = ZooConfig {
            spatial_scale: 8,
            include_classifier: true,
            batch: 1,
        };
        let net = zoo::alexnet(&cfg);
        let params = synthesize_params(&net, &SynthConfig::default());
        let input = uniform_tensor(net.input_shape(), -1.0, 1.0, 9);
        let policy = QuantPolicy::olaccel16("alexnet");
        extract(&net, &params, &input, &policy)
    }

    #[test]
    fn extracts_all_compute_layers() {
        let ws = alexnet_workloads();
        // 5 convs + 3 FCs.
        assert_eq!(ws.layers.len(), 8);
        let convs = ws.layers.iter().filter(|l| l.kind == LayerKind::Conv);
        assert_eq!(convs.count(), 5);
        assert_eq!(ws.layers[0].act_bits, 16);
        assert_eq!(ws.layers[1].act_bits, 4);
        assert!(ws.total_macs() > 0);
    }

    #[test]
    fn chunk_nnz_consistent_with_zero_fraction() {
        let ws = alexnet_workloads();
        for l in &ws.layers {
            let mean = l.mean_chunk_nnz();
            // mean nnz / lanes should roughly equal 1 - zero_fraction,
            // modulo lane padding at the channel tail.
            let dense = 1.0 - l.act_zero_fraction;
            let padded_lanes = l.cin_chunks() as f64 * 16.0 / l.in_shape.c as f64;
            let expect = dense / padded_lanes;
            assert!(
                (mean / 16.0 - expect).abs() < 0.08,
                "layer {}: mean {mean}, zero {}",
                l.name,
                l.act_zero_fraction
            );
        }
    }

    #[test]
    fn group_units_match_macs() {
        let ws = alexnet_workloads();
        for l in &ws.layers {
            // units * 16 lanes * 16 oc ~ macs (exact when C divisible by 16).
            if l.in_shape.c % 16 == 0 && l.out_shape.c % 16 == 0 {
                let reconstructed = l.group_units() * 256;
                assert_eq!(reconstructed, l.macs, "layer {}", l.name);
            }
        }
    }

    #[test]
    fn outlier_ratios_near_policy_target() {
        let ws = alexnet_workloads();
        for l in &ws.layers {
            assert!(
                (l.weight_outlier_ratio - 0.035).abs() < 0.02,
                "layer {} weight ratio {}",
                l.name,
                l.weight_outlier_ratio
            );
            // Effective activation ratio is at most the non-zero ratio.
            assert!(l.act_effective_outlier_ratio <= l.act_outlier_nonzero_ratio + 1e-9);
        }
    }

    #[test]
    fn weight_chunk_fractions_sane() {
        let ws = alexnet_workloads();
        for l in &ws.layers {
            assert!(l.wchunk_single_fraction >= 0.0 && l.wchunk_single_fraction <= 1.0);
            assert!(l.wchunk_multi_fraction >= 0.0 && l.wchunk_multi_fraction <= 1.0);
            // At ~3.5% outliers on 16 lanes, multi-outlier chunks should be
            // a minority but present.
            assert!(l.wchunk_multi_fraction < 0.4, "layer {}", l.name);
        }
        // Binomial sanity on a large conv layer: single ~ n*p*(1-p)^15.
        let l = &ws.layers[2];
        let p = l.weight_outlier_ratio;
        let expect_single = 16.0 * p * (1.0 - p).powi(15);
        assert!(
            (l.wchunk_single_fraction - expect_single).abs() < 0.1,
            "single {} vs binomial {expect_single}",
            l.wchunk_single_fraction
        );
    }

    #[test]
    fn fingerprint_tracks_bitwise_identity() {
        let ws = alexnet_workloads();
        for l in &ws.layers {
            assert_eq!(l.fingerprint(), l.clone().fingerprint());
        }
        // Any single-field change must move the fingerprint.
        let base = &ws.layers[1];
        let mut m = base.clone();
        m.macs += 1;
        assert_ne!(m.fingerprint(), base.fingerprint());
        let mut m = base.clone();
        m.act_zero_fraction = -m.act_zero_fraction;
        assert_ne!(m.fingerprint(), base.fingerprint());
        let mut m = base.clone();
        if let Some(v) = m.chunk_nnz.first_mut() {
            *v ^= 1;
        }
        assert_ne!(m.fingerprint(), base.fingerprint());
        // Distinct layers of one network are distinct keys.
        assert_ne!(ws.layers[0].fingerprint(), ws.layers[1].fingerprint());
    }

    #[test]
    fn score_keys_follow_the_total_order() {
        let values = [
            -f32::NAN,
            f32::NEG_INFINITY,
            -1.0,
            -1e-45,
            -0.0,
            0.0,
            1e-45,
            f32::MIN_POSITIVE,
            1.0,
            f32::INFINITY,
            f32::NAN,
        ];
        for a in values {
            assert_eq!(from_key(key(a)).to_bits(), a.to_bits());
            for b in values {
                assert_eq!(key(a).cmp(&key(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
        // Scores are +0.0, positive or NaN: none shares the zero lanes' bucket.
        assert_eq!(ZERO_LANE, key(-0.0));
        for score in [
            0.0,
            1e-45,
            f32::MIN_POSITIVE,
            1.0,
            f32::INFINITY,
            f32::NAN,
            -f32::NAN,
        ] {
            assert_ne!(bucket(key(score)), ZERO_BUCKET, "{score}");
        }
    }

    #[test]
    fn fc_layers_modeled_as_1x1() {
        let ws = alexnet_workloads();
        let fc = ws.layers.iter().find(|l| l.kind == LayerKind::Fc).unwrap();
        assert_eq!(fc.kernel, 1);
        assert_eq!(fc.in_shape.h, 1);
        assert_eq!(fc.macs, fc.weight_count);
    }

    /// The magnitude rule selects its threshold in the total order and
    /// counts in it too: a NaN outranks every number and is an outlier, and
    /// ratio 0 selects nothing, not even `+inf`.
    #[test]
    fn magnitude_outliers_are_counted_in_the_total_order() {
        let mut net = Network::new("one-conv", Shape4::new(1, 4, 1, 1));
        let spec = Conv2dSpec::new(4, 16, ConvGeometry::new(1, 1, 0));
        net.add("conv", Op::Conv(spec), &[0]);
        let params = synthesize_params(&net, &SynthConfig::default());
        for (first, ratio, expect) in [(f32::NAN, 0.5, 0.5), (f32::INFINITY, 0.0, 0.0)] {
            let input = Tensor::from_vec(Shape4::new(1, 4, 1, 1), vec![first, 1.0, 2.0, 3.0]);
            let outs = net.forward(&params, &input);
            let policy = QuantPolicy {
                outlier_ratio: ratio,
                ..QuantPolicy::olaccel16("one-conv")
            };
            let layer = &extract_from_acts_jobs(&net, &params, &outs, &policy, 1).layers[0];
            assert_eq!(
                layer.act_outlier_nonzero_ratio, expect,
                "input [{first}, 1, 2, 3] at ratio {ratio}"
            );
        }
    }
}
