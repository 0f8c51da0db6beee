//! Per-chunk PE-group cycle costs (§III-D) and per-layer aggregation.

use ola_sim::LayerWorkload;
use ola_tensor::bytes::Encoder;

/// PE-group microarchitecture knobs. Defaults are the paper's design point;
/// the ablation benches sweep them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GroupTuning {
    /// SIMD lanes per group (16 in the paper, Fig 17).
    pub lanes: usize,
    /// Zero-skip lookahead width (4 in the paper; each all-zero window of
    /// this width costs one scan cycle).
    pub skip_width: usize,
    /// Whether the extra outlier MAC exists. Without it, even a single
    /// outlier weight in a chunk forces the two-cycle path.
    pub outlier_mac: bool,
}

impl Default for GroupTuning {
    fn default() -> Self {
        GroupTuning {
            lanes: 16,
            skip_width: 4,
            outlier_mac: true,
        }
    }
}

impl GroupTuning {
    /// Writes every field in declaration order (the flag as one byte).
    pub fn encode(&self, e: &mut impl Encoder) {
        e.usize(self.lanes)
            .usize(self.skip_width)
            .u8(self.outlier_mac as u8);
    }
}

/// Cycle cost of processing one activation chunk against one weight column.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChunkCost {
    /// Productive broadcast cycles (including precision passes and
    /// multi-outlier second passes).
    pub run: f64,
    /// Zero-skip scan overhead cycles.
    pub skip: f64,
}

impl ChunkCost {
    /// Total cycles.
    pub fn total(&self) -> f64 {
        self.run + self.skip
    }
}

/// Cost of one chunk given its measured non-zero lane count and all-zero
/// quad count, the layer's precision passes, and the probability that a
/// weight chunk needs the two-cycle multi-outlier path.
///
/// `passes` multiplies every broadcast (first-layer 16-bit activations on
/// 4-bit MACs take 4 passes; 8-bit weights double that). `extra_frac` is
/// the expected extra cycles per broadcast from outlier weights:
/// `wchunk_multi_fraction` when the outlier MAC exists, `single + multi`
/// when it is ablated away.
pub fn chunk_cost(nnz: u32, zero_quads: u32, passes: u32, extra_frac: f64) -> ChunkCost {
    let broadcasts = nnz as f64;
    ChunkCost {
        run: broadcasts * passes as f64 * (1.0 + extra_frac),
        skip: zero_quads as f64,
    }
}

/// Precision passes for a layer: `ceil(act_bits/4) * ceil(weight_bits/4)`.
///
/// Dense 4-bit layers take one pass; the 16-bit-activation, 8-bit-weight
/// first layer of ResNet-18 takes 8 (§V).
pub fn precision_passes(act_bits: u32, weight_bits: u32) -> u32 {
    act_bits.div_ceil(4) * weight_bits.div_ceil(4)
}

/// Expected extra cycles per broadcast due to outlier weights.
pub fn outlier_extra_frac(l: &LayerWorkload, tuning: &GroupTuning) -> f64 {
    // The first layer's wide dense weights are not outlier-encoded.
    if l.weight_bits > 4 {
        return 0.0;
    }
    if tuning.outlier_mac {
        l.wchunk_multi_fraction
    } else {
        l.wchunk_single_fraction + l.wchunk_multi_fraction
    }
}

/// Aggregated dense-path cost of a whole layer, before dividing across PE
/// groups.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerCost {
    /// Total productive group-cycles.
    pub run: f64,
    /// Total skip-overhead group-cycles.
    pub skip: f64,
    /// Histogram over per-chunk total cycles (index = cycles), weighted by
    /// how often each chunk is used — Fig 19's distribution. Sized to the
    /// layer's true worst-case chunk cost (no silent top-bin clamping of
    /// multi-outlier or ablated-MAC costs), and its mass sums exactly to
    /// [`LayerWorkload::group_units`].
    pub chunk_hist: Vec<u64>,
    /// The most expensive single chunk's total cycles — the tail bound the
    /// closed-form dispatch model ([`crate::dispatch::makespan_analytic`])
    /// charges for end-of-stream imbalance.
    pub max_chunk: f64,
}

impl LayerCost {
    /// Total group-cycles.
    pub fn total(&self) -> f64 {
        self.run + self.skip
    }
}

/// How many times chunk `i` of `chunks` is consumed when a layer has
/// `group_units` total units: the round-robin assignment (`unit % chunks`,
/// the order `event::jobs_from_workload` streams in) gives the first
/// `group_units % chunks` chunks one extra use. Summing over all chunks
/// recovers `group_units` exactly — no ceil-padding phantom units.
pub fn chunk_uses(group_units: u64, chunks: usize, i: usize) -> u64 {
    debug_assert!(i < chunks);
    group_units / chunks as u64 + u64::from((i as u64) < group_units % chunks as u64)
}

/// Computes the dense-path layer cost from the measured chunk statistics.
///
/// Every input chunk is consumed [`chunk_uses`] times (once per
/// output-channel group and contributing kernel offset, with the
/// non-divisible remainder spread over the leading chunks exactly as the
/// event-driven job stream distributes it); the measured per-chunk costs
/// are scaled accordingly.
pub fn layer_cost(l: &LayerWorkload, tuning: &GroupTuning) -> LayerCost {
    let passes = precision_passes(l.act_bits, l.weight_bits);
    let extra = outlier_extra_frac(l, tuning);
    let chunks = l.chunk_nnz.len();
    if chunks == 0 {
        return LayerCost::default();
    }
    let units = l.group_units();

    let costs: Vec<ChunkCost> = l
        .chunk_nnz
        .iter()
        .zip(&l.chunk_zero_quads)
        .map(|(&nnz, &zq)| chunk_cost(nnz as u32, zq as u32, passes, extra))
        .collect();
    let max_chunk = costs.iter().map(ChunkCost::total).fold(0.0, f64::max);
    let top_bucket = costs
        .iter()
        .map(|c| c.total().round() as usize)
        .max()
        .unwrap_or(0);

    let mut run = 0.0;
    let mut skip = 0.0;
    let mut hist = vec![0u64; top_bucket + 1];
    for (i, c) in costs.iter().enumerate() {
        let uses = chunk_uses(units, chunks, i);
        run += c.run * uses as f64;
        skip += c.skip * uses as f64;
        hist[c.total().round() as usize] += uses;
    }
    LayerCost {
        run,
        skip,
        chunk_hist: hist,
        max_chunk,
    }
}

/// Analytic expected all-zero-window count for a chunk with `nnz` non-zero
/// lanes out of `lanes`, for an arbitrary skip width `w` (hypergeometric) —
/// used by the skip-width ablation, since only width-4 windows are measured.
pub fn expected_zero_windows(lanes: usize, nnz: usize, w: usize) -> f64 {
    assert!(w > 0 && w <= lanes, "window must fit in the chunk");
    let windows = lanes / w;
    if nnz == 0 {
        return windows as f64;
    }
    let zeros = lanes - nnz;
    if zeros < w {
        return 0.0;
    }
    // P(one fixed window all zero) under a uniformly random placement.
    let mut p = 1.0;
    for i in 0..w {
        p *= (zeros - i) as f64 / (lanes - i) as f64;
    }
    windows as f64 * p
}

#[cfg(test)]
mod tests {
    use super::*;
    use ola_sim::workload::LayerKind;
    use ola_tensor::Shape4;

    fn layer(chunk_nnz: Vec<u8>, chunk_zero_quads: Vec<u8>) -> LayerWorkload {
        LayerWorkload {
            name: "t".into(),
            index: 1,
            kind: LayerKind::Conv,
            in_shape: Shape4::new(1, 16, 1, chunk_nnz.len()),
            out_shape: Shape4::new(1, 16, 1, chunk_nnz.len()),
            kernel: 1,
            macs: (chunk_nnz.len() * 16 * 16) as u64,
            weight_count: 256,
            weight_bits: 4,
            act_bits: 4,
            weight_zero_fraction: 0.0,
            act_zero_fraction: 0.0,
            weight_outlier_ratio: 0.0,
            act_outlier_nonzero_ratio: 0.0,
            act_effective_outlier_ratio: 0.0,
            chunk_nnz,
            chunk_zero_quads,
            wchunk_single_fraction: 0.0,
            wchunk_multi_fraction: 0.0,
            out_zero_fraction: 0.0,
        }
    }

    #[test]
    fn dense_chunk_costs_16_cycles() {
        let c = chunk_cost(16, 0, 1, 0.0);
        assert_eq!(c.run, 16.0);
        assert_eq!(c.skip, 0.0);
    }

    #[test]
    fn all_zero_chunk_costs_4_skip_cycles() {
        let c = chunk_cost(0, 4, 1, 0.0);
        assert_eq!(c.run, 0.0);
        assert_eq!(c.skip, 4.0);
    }

    #[test]
    fn precision_passes_match_paper() {
        assert_eq!(precision_passes(4, 4), 1);
        assert_eq!(precision_passes(8, 4), 2);
        assert_eq!(precision_passes(16, 4), 4);
        // ResNet-18 first layer: 16-bit acts x 8-bit weights = 8x (§V).
        assert_eq!(precision_passes(16, 8), 8);
        assert_eq!(precision_passes(8, 8), 4);
    }

    #[test]
    fn multi_outlier_adds_second_pass() {
        let c = chunk_cost(10, 0, 1, 0.08);
        assert!((c.run - 10.8).abs() < 1e-9);
    }

    #[test]
    fn ablated_outlier_mac_pays_for_singles() {
        let mut l = layer(vec![8; 4], vec![0; 4]);
        l.wchunk_single_fraction = 0.3;
        l.wchunk_multi_fraction = 0.05;
        let with = outlier_extra_frac(&l, &GroupTuning::default());
        let without = outlier_extra_frac(
            &l,
            &GroupTuning {
                outlier_mac: false,
                ..Default::default()
            },
        );
        assert!((with - 0.05).abs() < 1e-12);
        assert!((without - 0.35).abs() < 1e-12);
    }

    #[test]
    fn layer_cost_sums_chunks() {
        // 4 chunks: nnz 16,8,0,4 with zq 0,1,4,2; one use each
        // (units = macs/(16*16) = 4 = chunk count).
        let l = layer(vec![16, 8, 0, 4], vec![0, 1, 4, 2]);
        assert_eq!(l.group_units(), 4);
        let c = layer_cost(&l, &GroupTuning::default());
        assert!((c.run - 28.0).abs() < 1e-9);
        assert!((c.skip - 7.0).abs() < 1e-9);
        // Histogram buckets: 16, 9, 4, 6; sized to the worst chunk.
        assert_eq!(c.chunk_hist.len(), 17);
        assert_eq!(c.chunk_hist[16], 1);
        assert_eq!(c.chunk_hist[9], 1);
        assert_eq!(c.chunk_hist[4], 1);
        assert_eq!(c.chunk_hist[6], 1);
        assert_eq!(c.max_chunk, 16.0);
    }

    #[test]
    fn non_divisible_units_distribute_remainder() {
        // 4 chunks but 6 units: chunks 0 and 1 are used twice, 2 and 3 once.
        let mut l = layer(vec![16, 8, 0, 4], vec![0, 1, 4, 2]);
        l.macs = 6 * 256;
        assert_eq!(l.group_units(), 6);
        assert_eq!(chunk_uses(6, 4, 0), 2);
        assert_eq!(chunk_uses(6, 4, 1), 2);
        assert_eq!(chunk_uses(6, 4, 2), 1);
        assert_eq!(chunk_uses(6, 4, 3), 1);
        let c = layer_cost(&l, &GroupTuning::default());
        assert!((c.run - (16.0 * 2.0 + 8.0 * 2.0 + 4.0)).abs() < 1e-9);
        assert!((c.skip - (1.0 * 2.0 + 4.0 + 2.0)).abs() < 1e-9);
        // Histogram mass equals group_units exactly.
        assert_eq!(c.chunk_hist.iter().sum::<u64>(), 6);
    }

    #[test]
    fn histogram_mass_matches_group_units() {
        let l = layer(vec![5, 7, 11, 13, 2], vec![1, 0, 0, 0, 3]);
        let c = layer_cost(&l, &GroupTuning::default());
        assert_eq!(c.chunk_hist.iter().sum::<u64>(), l.group_units());
    }

    #[test]
    fn histogram_sized_for_outlier_worst_case() {
        // Ablated outlier MAC: every chunk pays (single + multi) extra
        // cycles per broadcast; the worst chunk must land in its own bucket
        // rather than being clamped into a 16*passes+4 top bin.
        let mut l = layer(vec![16; 4], vec![0; 4]);
        l.wchunk_single_fraction = 0.6;
        l.wchunk_multi_fraction = 0.4;
        let tuning = GroupTuning {
            outlier_mac: false,
            ..Default::default()
        };
        let c = layer_cost(&l, &tuning);
        // 16 broadcasts * (1 + 1.0) = 32 cycles per chunk.
        assert_eq!(c.chunk_hist.len(), 33);
        assert_eq!(c.chunk_hist[32], 4);
        assert_eq!(c.max_chunk, 32.0);
    }

    #[test]
    fn empty_chunk_data_costs_nothing() {
        let mut l = layer(vec![4; 2], vec![0; 2]);
        l.chunk_nnz.clear();
        l.chunk_zero_quads.clear();
        let c = layer_cost(&l, &GroupTuning::default());
        assert_eq!(c.total(), 0.0);
        assert!(c.chunk_hist.is_empty());
    }

    #[test]
    fn first_layer_passes_scale_run() {
        let mut l = layer(vec![16; 2], vec![0; 2]);
        l.index = 0;
        l.act_bits = 16;
        let c = layer_cost(&l, &GroupTuning::default());
        assert!((c.run - 2.0 * 64.0).abs() < 1e-9);
    }

    #[test]
    fn expected_zero_windows_limits() {
        assert_eq!(expected_zero_windows(16, 0, 4), 4.0);
        assert_eq!(expected_zero_windows(16, 16, 4), 0.0);
        assert_eq!(expected_zero_windows(16, 13, 4), 0.0); // only 3 zeros
                                                           // Monotone: fewer non-zeros, more zero windows.
        assert!(expected_zero_windows(16, 4, 4) > expected_zero_windows(16, 8, 4));
        // Wider windows are rarer.
        assert!(expected_zero_windows(16, 8, 8) < expected_zero_windows(16, 8, 4));
    }
}
