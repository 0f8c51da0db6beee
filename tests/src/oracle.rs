//! The reference workload extraction the property tests and benchmarks
//! compare `ola_sim::workload`'s fused path against, plus the bitwise
//! equality they compare with.
//!
//! [`extract_from_acts`] is the pre-fusion multi-pass pipeline: a serial
//! per-layer loop, chunk lanes read straight from the tensor by
//! `(n, c, h, w)`, a full descending sort for every threshold, and separate
//! walks for the zero count, the outlier count and the chunk sweep. It
//! lives in the test crate, so no release crate ships it and no edit to it
//! changes the store's code-version hash.

use ola_nn::network::WeightStore;
use ola_nn::{Network, Op, Params};
use ola_quant::outlier::OutlierQuantizer;
use ola_sim::calibrate::LayerCalibration;
use ola_sim::workload::{
    post_activation_zero_fraction, LayerKind, LayerWorkload, WeightChunkStats, WorkloadSet,
};
use ola_sim::{OutlierSelect, QuantPolicy};
use ola_tensor::{Shape4, Tensor, CHUNK_LANES};

/// Full-sort threshold over the top-`ratio` magnitude fraction — the
/// historical O(n log n) implementation of
/// `ola_tensor::stats::magnitude_threshold`.
fn magnitude_threshold_sorted(values: &[f32], ratio: f64) -> f32 {
    assert!((0.0..=1.0).contains(&ratio), "ratio must be in [0,1]");
    if ratio == 0.0 || values.is_empty() {
        return f32::INFINITY;
    }
    let mut mags: Vec<f32> = values.iter().map(|v| v.abs()).collect();
    mags.sort_by(|a, b| b.total_cmp(a));
    let k = ((values.len() as f64 * ratio).ceil() as usize).clamp(1, values.len());
    mags[k - 1]
}

/// The historical multi-pass magnitude calibration: filter, fold, sort,
/// re-count. The count compares in the total order the sort ranks by, so
/// a NaN that ranks above the threshold counts; a zero ratio counts none.
fn calibrate_values_multi_pass(node: usize, values: &[f32], ratio: f64) -> LayerCalibration {
    let total = values.len().max(1);
    let nonzero: Vec<f32> = values.iter().copied().filter(|&v| v != 0.0).collect();
    let zero_fraction = 1.0 - nonzero.len() as f64 / total as f64;
    let abs_max = nonzero.iter().fold(0.0_f32, |m, &v| m.max(v.abs()));
    let threshold = if nonzero.is_empty() {
        f32::INFINITY
    } else {
        magnitude_threshold_sorted(&nonzero, ratio)
    };
    let outliers = if ratio == 0.0 {
        0
    } else {
        nonzero
            .iter()
            .filter(|&&v| v.abs().total_cmp(&threshold).is_ge())
            .count()
    };
    let nonzero_outlier_ratio = if nonzero.is_empty() {
        0.0
    } else {
        outliers as f64 / nonzero.len() as f64
    };
    LayerCalibration {
        node,
        threshold,
        abs_max: if abs_max > 0.0 { abs_max } else { 1.0 },
        nonzero_outlier_ratio,
        effective_outlier_ratio: outliers as f64 / total as f64,
        zero_fraction,
    }
}

fn fit_or_none(values: &[f32], ratio: f64) -> Option<OutlierQuantizer> {
    if ratio <= 0.0 {
        return None;
    }
    let nonzero: Vec<f32> = values.iter().copied().filter(|&v| v != 0.0).collect();
    if nonzero.is_empty() {
        return None;
    }
    let nonzero_ratio = (ratio * values.len() as f64 / nonzero.len() as f64).min(1.0);
    let max = nonzero.iter().fold(0.0_f32, |m, &v| m.max(v.abs()));
    let threshold = magnitude_threshold_sorted(&nonzero, nonzero_ratio);
    Some(OutlierQuantizer::with_threshold(
        threshold,
        max,
        nonzero_ratio,
        4,
        8,
    ))
}

fn weight_chunk_stats(params: &Params, node: usize, ratio: f64) -> WeightChunkStats {
    match params
        .weights(node)
        .expect("compute node must have weights")
    {
        WeightStore::Dense(w) => {
            let values = w.as_slice();
            let quant = fit_or_none(values, ratio);
            let s = w.shape();
            let (co, inner) = if s.n == 1 && s.c == 1 {
                (s.h, s.w)
            } else {
                (s.n, s.c * s.h * s.w)
            };
            chunk_stats_from(values, co, inner, quant.as_ref())
        }
        WeightStore::RowGen(g) => {
            let sample = g.sample_values(64);
            let quant = fit_or_none(&sample, ratio);
            let rows = g.rows().min(32);
            let mut values = Vec::with_capacity(rows * g.cols());
            for r in 0..rows {
                values.extend(g.row(r));
            }
            chunk_stats_from(&values, rows, g.cols(), quant.as_ref())
        }
    }
}

fn chunk_stats_from(
    values: &[f32],
    co: usize,
    inner: usize,
    quant: Option<&OutlierQuantizer>,
) -> WeightChunkStats {
    let total = values.len().max(1);
    let zeros = values.iter().filter(|&&v| v == 0.0).count();
    let is_outlier = |v: f32| -> bool { v != 0.0 && quant.map(|q| q.is_outlier(v)) == Some(true) };
    let outliers = values.iter().filter(|&&v| is_outlier(v)).count();

    let mut chunks = 0u64;
    let mut single = 0u64;
    let mut multi = 0u64;
    for co0 in (0..co).step_by(CHUNK_LANES) {
        let lanes = (co - co0).min(CHUNK_LANES);
        for i in 0..inner {
            let mut count = 0u32;
            for lane in 0..lanes {
                let v = values[(co0 + lane) * inner + i];
                if is_outlier(v) {
                    count += 1;
                }
            }
            chunks += 1;
            match count {
                0 => {}
                1 => single += 1,
                _ => multi += 1,
            }
        }
    }
    WeightChunkStats {
        zero_fraction: zeros as f64 / total as f64,
        outlier_ratio: outliers as f64 / total as f64,
        single_fraction: single as f64 / chunks.max(1) as f64,
        multi_fraction: multi as f64 / chunks.max(1) as f64,
    }
}

/// Serial reference classification of one chunk grid — every chunk's
/// real (unpadded) lanes — under a structured (non-magnitude) policy,
/// written independently of the grid kernel: windows are materialized
/// per chunk, sensitivity thresholds come from a full descending sort,
/// and every count is a plain serial loop. Returns
/// `(zeros, outliers, single, multi)`.
///
/// `ratio_of_total` selects the weight-grid convention (the target is
/// a fraction of all values, rescaled to the non-zero population)
/// versus the activation convention (the target is already a fraction
/// of non-zeros).
fn grid_counts_naive(
    chunks: &[Vec<f32>],
    ratio: f64,
    select: OutlierSelect,
    ratio_of_total: bool,
    total: usize,
) -> (u64, u64, u64, u64) {
    let windows_of = |chunk: &[f32]| -> Vec<Vec<f32>> {
        let window = match select {
            OutlierSelect::WindowedTopK { window }
            | OutlierSelect::SensitivityWeighted { window } => window,
            OutlierSelect::MagnitudePercentile => {
                unreachable!("magnitude has its own oracle arm")
            }
        };
        chunk.chunks(window).map(<[f32]>::to_vec).collect()
    };
    let rms =
        |w: &[f32]| -> f32 { (w.iter().map(|&v| v * v).sum::<f32>() / w.len() as f32).sqrt() };

    // Calibration: a sensitivity threshold needs all scores up front.
    let threshold = if let OutlierSelect::SensitivityWeighted { .. } = select {
        let mut scores = Vec::new();
        for chunk in chunks {
            for w in windows_of(chunk) {
                let r = rms(&w);
                scores.extend(w.iter().filter(|&&v| v != 0.0).map(|&v| v.abs() * r));
            }
        }
        if ratio <= 0.0 || scores.is_empty() {
            f32::INFINITY
        } else {
            let eff = if ratio_of_total {
                (ratio * total as f64 / scores.len() as f64).min(1.0)
            } else {
                ratio
            };
            let k = ((scores.len() as f64 * eff).ceil() as usize).clamp(1, scores.len());
            scores.sort_by(|a, b| b.total_cmp(a));
            scores[k - 1]
        }
    } else {
        f32::INFINITY
    };

    let mut zeros = 0u64;
    let mut outliers = 0u64;
    let mut single = 0u64;
    let mut multi = 0u64;
    for chunk in chunks {
        for &v in chunk {
            if v == 0.0 {
                zeros += 1;
            }
        }
        let mut count = 0u32;
        for w in windows_of(chunk) {
            match select {
                OutlierSelect::WindowedTopK { .. } => {
                    if ratio > 0.0 && w.iter().any(|&v| v != 0.0) {
                        count += 1;
                    }
                }
                OutlierSelect::SensitivityWeighted { .. } => {
                    let r = rms(&w);
                    count += w
                        .iter()
                        .filter(|&&v| v != 0.0 && (v.abs() * r).total_cmp(&threshold).is_ge())
                        .count() as u32;
                }
                OutlierSelect::MagnitudePercentile => unreachable!(),
            }
        }
        outliers += u64::from(count);
        match count {
            0 => {}
            1 => single += 1,
            _ => multi += 1,
        }
    }
    (zeros, outliers, single, multi)
}

/// Naive serial activation calibration for the structured policies.
fn calibrate_policy_naive(
    node: usize,
    act: &Tensor,
    ratio: f64,
    select: OutlierSelect,
) -> LayerCalibration {
    let values = act.as_slice();
    let total = values.len().max(1);
    let nonzero = values.iter().filter(|&&v| v != 0.0).count();
    let abs_max = values.iter().fold(0.0_f32, |m, &v| m.max(v.abs()));
    let chunks = activation_chunks(act);
    let (_, outliers, _, _) = grid_counts_naive(&chunks, ratio, select, false, total);
    LayerCalibration {
        node,
        // Structured policies carry no scalar magnitude threshold; the
        // sensitivity score threshold is internal to the count above.
        threshold: f32::INFINITY,
        abs_max: if abs_max > 0.0 { abs_max } else { 1.0 },
        nonzero_outlier_ratio: if nonzero == 0 {
            0.0
        } else {
            outliers as f64 / nonzero as f64
        },
        effective_outlier_ratio: outliers as f64 / total as f64,
        zero_fraction: 1.0 - nonzero as f64 / total as f64,
    }
}

/// Naive serial weight-grid statistics for the structured policies
/// (same banded-row treatment of generated weights as production).
fn weight_stats_naive(
    params: &Params,
    node: usize,
    ratio: f64,
    select: OutlierSelect,
) -> WeightChunkStats {
    let (values, co, inner): (Vec<f32>, usize, usize) = match params
        .weights(node)
        .expect("compute node must have weights")
    {
        WeightStore::Dense(w) => {
            let s = w.shape();
            let (co, inner) = if s.n == 1 && s.c == 1 {
                (s.h, s.w)
            } else {
                (s.n, s.c * s.h * s.w)
            };
            (w.as_slice().to_vec(), co, inner)
        }
        WeightStore::RowGen(g) => {
            let rows = g.rows().min(32);
            let mut values = Vec::with_capacity(rows * g.cols());
            for r in 0..rows {
                values.extend(g.row(r));
            }
            (values, rows, g.cols())
        }
    };
    let chunks = weight_chunks(&values, co, inner);
    let (zeros, outliers, single, multi) =
        grid_counts_naive(&chunks, ratio, select, true, values.len());
    let total = values.len().max(1);
    let chunks = (chunks.len() as u64).max(1);
    WeightChunkStats {
        zero_fraction: zeros as f64 / total as f64,
        outlier_ratio: outliers as f64 / total as f64,
        single_fraction: single as f64 / chunks as f64,
        multi_fraction: multi as f64 / chunks as f64,
    }
}

/// The historical serial extraction loop: one layer at a time, each
/// walking its activations several times.
pub fn extract_from_acts(
    net: &Network,
    params: &Params,
    outs: &[Tensor],
    policy: &QuantPolicy,
) -> WorkloadSet {
    let shapes = net.shapes();
    let compute = net.compute_nodes();
    let mut layers = Vec::with_capacity(compute.len());

    for (index, &node) in compute.iter().enumerate() {
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

        let cal = match policy.select {
            OutlierSelect::MagnitudePercentile => {
                calibrate_values_multi_pass(node, act.as_slice(), policy.outlier_ratio)
            }
            select => calibrate_policy_naive(node, act, policy.outlier_ratio, select),
        };
        let mut chunk_nnz = Vec::new();
        let mut chunk_zero_quads = Vec::new();
        for mut lanes in activation_chunks(act) {
            // Zero-pad past the last channel: a padded quad is all zero.
            lanes.resize(CHUNK_LANES, 0.0);
            chunk_nnz.push(lanes.iter().filter(|&&v| v != 0.0).count() as u8);
            let zq = lanes
                .chunks(4)
                .filter(|quad| quad.iter().all(|&v| v == 0.0))
                .count() as u8;
            chunk_zero_quads.push(zq);
        }

        let wstats = match policy.select {
            OutlierSelect::MagnitudePercentile => {
                weight_chunk_stats(params, node, policy.outlier_ratio)
            }
            select => weight_stats_naive(params, node, policy.outlier_ratio, select),
        };
        let out_zero_fraction = post_activation_zero_fraction(net, outs, node);

        let in_shape = if kind == LayerKind::Fc {
            let s = act.shape();
            Shape4::new(s.n, s.c * s.h * s.w, 1, 1)
        } else {
            act.shape()
        };

        layers.push(LayerWorkload {
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
            chunk_nnz,
            chunk_zero_quads,
            wchunk_single_fraction: wstats.single_fraction,
            wchunk_multi_fraction: wstats.multi_fraction,
            out_zero_fraction,
        });
    }

    WorkloadSet {
        network: net.name().to_string(),
        layers,
    }
}

/// The real lanes of every `A(1x1x16)` activation chunk, read straight
/// from the tensor by `(n, c, h, w)`: positions in `(n, h, w)` order, then
/// `ceil(C / 16)` chunks per position, the last one short when 16 does not
/// divide C. Shares no indexing code with the grid kernel production
/// extraction runs, so it is an independent reference for its geometry.
fn activation_chunks(act: &Tensor) -> Vec<Vec<f32>> {
    let s = act.shape();
    let mut chunks = Vec::new();
    for n in 0..s.n {
        for h in 0..s.h {
            for w in 0..s.w {
                for c0 in (0..s.c).step_by(CHUNK_LANES) {
                    let end = (c0 + CHUNK_LANES).min(s.c);
                    chunks.push((c0..end).map(|c| act.get(n, c, h, w)).collect());
                }
            }
        }
    }
    chunks
}

/// The real lanes of every `W(16)` weight chunk of a row-major
/// `(rows, cols)` matrix, read by `(row, col)`: 16 consecutive rows at one
/// column, the last band short when 16 does not divide `rows`.
fn weight_chunks(values: &[f32], rows: usize, cols: usize) -> Vec<Vec<f32>> {
    let mut chunks = Vec::new();
    for r0 in (0..rows).step_by(CHUNK_LANES) {
        let end = (r0 + CHUNK_LANES).min(rows);
        for col in 0..cols {
            chunks.push((r0..end).map(|r| values[r * cols + col]).collect());
        }
    }
    chunks
}

/// Field-by-field equality with floats compared by bit pattern — the
/// determinism contract parallel extraction is held to.
pub fn layer_bitwise_eq(a: &LayerWorkload, b: &LayerWorkload) -> bool {
    a.name == b.name
        && a.index == b.index
        && a.kind == b.kind
        && a.in_shape == b.in_shape
        && a.out_shape == b.out_shape
        && a.kernel == b.kernel
        && a.macs == b.macs
        && a.weight_count == b.weight_count
        && a.weight_bits == b.weight_bits
        && a.act_bits == b.act_bits
        && a.weight_zero_fraction.to_bits() == b.weight_zero_fraction.to_bits()
        && a.act_zero_fraction.to_bits() == b.act_zero_fraction.to_bits()
        && a.weight_outlier_ratio.to_bits() == b.weight_outlier_ratio.to_bits()
        && a.act_outlier_nonzero_ratio.to_bits() == b.act_outlier_nonzero_ratio.to_bits()
        && a.act_effective_outlier_ratio.to_bits() == b.act_effective_outlier_ratio.to_bits()
        && a.chunk_nnz == b.chunk_nnz
        && a.chunk_zero_quads == b.chunk_zero_quads
        && a.wchunk_single_fraction.to_bits() == b.wchunk_single_fraction.to_bits()
        && a.wchunk_multi_fraction.to_bits() == b.wchunk_multi_fraction.to_bits()
        && a.out_zero_fraction.to_bits() == b.out_zero_fraction.to_bits()
}

/// Bit-pattern equality of every field of every layer (see
/// [`layer_bitwise_eq`]).
pub fn bitwise_eq(a: &WorkloadSet, b: &WorkloadSet) -> bool {
    a.network == b.network
        && a.layers.len() == b.layers.len()
        && a.layers
            .iter()
            .zip(&b.layers)
            .all(|(x, y)| layer_bitwise_eq(x, y))
}
