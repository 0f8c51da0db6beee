//! Data-volume accounting shared by the accelerator models.
//!
//! The Table I setup keeps all of a layer's data on-chip, so DRAM sees each
//! tensor once per layer; what differs between accelerators is the *encoded
//! size* of those tensors — dense 16/8-bit for the baselines versus 4-bit
//! chunks plus sparse outlier records for OLAccel.

use crate::policy::QuantPolicy;
use crate::workload::LayerWorkload;
use ola_quant::chunks::{OutlierActChunk, WeightChunk, CHUNK_WEIGHTS};

/// Number of weight tiles a layer needs given the Table I weight buffer:
/// weights stream through the (small) weight buffer tile by tile, and the
/// activations are re-read from the activation buffer once per tile. This
/// is the dominant source of on-chip "Buffer" energy for weight-heavy
/// layers.
///
/// Two degenerate inputs are clamped rather than rejected, and both clamps
/// are part of the function's contract:
///
/// * `weight_buffer_bits == 0` (a config with no weight buffer) is treated
///   as a 1-bit buffer — the most conservative finite tiling, one tile per
///   weight bit — instead of dividing by zero. No Table I memory config
///   produces a zero-capacity buffer; the clamp exists so a hand-built
///   config degrades to a pessimistic estimate rather than a panic.
/// * `layer_weight_bits == 0` (a weightless or zero-size layer) still
///   counts **one** tile, so the schedule reads the activations exactly
///   once — a layer with nothing to stream does not get its activation
///   traffic clamped to zero.
pub fn weight_tiles(layer_weight_bits: u64, weight_buffer_bits: u64) -> u64 {
    layer_weight_bits.div_ceil(weight_buffer_bits.max(1)).max(1)
}

/// On-chip buffer traffic under the tiled schedule: weights once,
/// activations once per weight tile, outputs once.
///
/// Inherits [`weight_tiles`]' documented edge-case clamps: a zero-size
/// layer (`layer_weight_bits == 0`) still pays `act_bits + out_bits` (one
/// activation read, one output write), and a zero-capacity weight buffer
/// degrades to per-bit tiling rather than dividing by zero.
pub fn buffer_traffic_bits(
    act_bits: u64,
    layer_weight_bits: u64,
    out_bits: u64,
    weight_buffer_bits: u64,
) -> u64 {
    layer_weight_bits + act_bits * weight_tiles(layer_weight_bits, weight_buffer_bits) + out_bits
}

/// Stored sizes of a layer's input activations, weights and outputs for a
/// dense accelerator at `bits` per value.
pub fn dense_bits(l: &LayerWorkload, bits: u32) -> [u64; 3] {
    let bits = bits as u64;
    [
        l.act_count() * bits,
        l.weight_count * bits,
        l.out_count() * bits,
    ]
}

/// OLAccel's stored size of the layer's input activations: dense low-bits
/// values (outlier slots still occupy a dense lane) plus the sparse
/// coordinate-tagged outlier chunks in the swarm buffer (§III-E).
pub fn olaccel_act_bits(l: &LayerWorkload, policy: &QuantPolicy) -> u64 {
    let dense = l.act_count() * l.act_bits as u64;
    let per_outlier = OutlierActChunk::bits(
        policy.outlier_act_bits(),
        l.in_shape.w.max(1),
        l.in_shape.h.max(1),
        l.in_shape.c.max(1),
    ) as u64;
    // The raw-input first layer has no 4-bit outlier split (it is already
    // high precision end to end).
    let outliers = if l.is_first() {
        0
    } else {
        l.outlier_act_count()
    };
    dense + outliers * per_outlier
}

/// OLAccel's stored size of the layer's weights: 80-bit chunks covering 16
/// weights each, plus overflow chunks for multi-outlier groups; 8-bit dense
/// first-layer weights (ResNet-18) double the chunk stream.
pub fn olaccel_weight_bits(l: &LayerWorkload) -> u64 {
    let base_chunks = l.weight_count.div_ceil(CHUNK_WEIGHTS as u64);
    let with_overflow = base_chunks as f64 * (1.0 + l.wchunk_multi_fraction);
    let passes = (l.weight_bits as u64).div_ceil(4);
    (with_overflow * WeightChunk::BITS as f64).round() as u64 * passes
}

/// OLAccel's stored size of the layer's outputs: dense 4-bit plus outlier
/// records (approximated with this layer's effective outlier ratio, since
/// the output of layer i is the input of layer i+1).
pub fn olaccel_out_bits(l: &LayerWorkload, policy: &QuantPolicy) -> u64 {
    let dense = l.out_count() * policy.low_bits as u64;
    let per_outlier = OutlierActChunk::bits(
        policy.outlier_act_bits(),
        l.out_shape.w.max(1),
        l.out_shape.h.max(1),
        l.out_shape.c.max(1),
    ) as u64;
    let outliers = (l.act_effective_outlier_ratio * l.out_count() as f64).round() as u64;
    dense + outliers * per_outlier
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::QuantPolicy;
    use crate::workload::LayerKind;
    use ola_tensor::Shape4;

    fn test_layer() -> LayerWorkload {
        LayerWorkload {
            name: "conv2".into(),
            index: 1,
            kind: LayerKind::Conv,
            in_shape: Shape4::new(1, 96, 27, 27),
            out_shape: Shape4::new(1, 256, 27, 27),
            kernel: 5,
            macs: 27 * 27 * 256 * 96 * 25,
            weight_count: 256 * 96 * 25,
            weight_bits: 4,
            act_bits: 4,
            weight_zero_fraction: 0.6,
            act_zero_fraction: 0.4,
            weight_outlier_ratio: 0.03,
            act_outlier_nonzero_ratio: 0.03,
            act_effective_outlier_ratio: 0.018,
            chunk_nnz: vec![10; 100],
            chunk_zero_quads: vec![0; 100],
            wchunk_single_fraction: 0.3,
            wchunk_multi_fraction: 0.08,
            out_zero_fraction: 0.5,
        }
    }

    #[test]
    fn weight_tiles_and_buffer_traffic() {
        assert_eq!(weight_tiles(100, 50), 2);
        assert_eq!(weight_tiles(1, 50), 1);
        assert_eq!(weight_tiles(101, 50), 3);
        // acts re-read once per tile.
        assert_eq!(buffer_traffic_bits(10, 100, 5, 50), 100 + 20 + 5);
    }

    #[test]
    fn zero_capacity_buffer_degrades_to_per_bit_tiling() {
        // A zero-bit weight buffer is clamped to a 1-bit buffer: one tile
        // per weight bit, never a divide-by-zero.
        assert_eq!(weight_tiles(100, 0), 100);
        assert_eq!(weight_tiles(1, 0), 1);
        assert_eq!(buffer_traffic_bits(10, 3, 5, 0), 3 + 10 * 3 + 5);
        // The clamp makes 0 and 1 capacities identical by construction.
        assert_eq!(weight_tiles(100, 0), weight_tiles(100, 1));
    }

    #[test]
    fn zero_size_layer_still_reads_acts_once() {
        // A weightless layer counts one tile, so the tiled schedule reads
        // the activations exactly once and writes the outputs once.
        assert_eq!(weight_tiles(0, 50), 1);
        assert_eq!(weight_tiles(0, 0), 1);
        // One activation read + one output write, zero weight traffic.
        assert_eq!(buffer_traffic_bits(10, 0, 5, 50), 10 + 5);
        // Fully degenerate: no weights, no acts, no outs — no traffic.
        assert_eq!(buffer_traffic_bits(0, 0, 0, 0), 0);
    }

    #[test]
    fn tiles_monotone_in_layer_size_and_antitone_in_buffer() {
        for buf in [1u64, 7, 50, 1 << 20] {
            let mut prev = 0;
            for bits in [0u64, 1, 49, 50, 51, 100, 1000] {
                let t = weight_tiles(bits, buf);
                assert!(t >= 1);
                assert!(t >= prev, "tiles must not shrink as the layer grows");
                prev = t;
            }
        }
        for bits in [1u64, 100, 1000] {
            assert!(weight_tiles(bits, 10) >= weight_tiles(bits, 100));
        }
    }

    #[test]
    fn olaccel_acts_beat_dense_16bit() {
        let l = test_layer();
        let p = QuantPolicy::olaccel16("alexnet");
        let ola = olaccel_act_bits(&l, &p);
        let dense16 = dense_bits(&l, 16)[0];
        // 4-bit + ~2% 35-bit outlier records ≈ 4.7 bits/value, ~3.4x less.
        assert!(ola * 3 < dense16, "ola {ola} vs dense {dense16}");
        assert!(ola > dense_bits(&l, 4)[0], "outlier overhead must exist");
    }

    #[test]
    fn olaccel_weights_carry_chunk_overhead() {
        let l = test_layer();
        let ola = olaccel_weight_bits(&l);
        let ideal4 = dense_bits(&l, 4)[1];
        // 80 bits / 16 weights = 5 bits/weight, + 8% overflow chunks.
        assert!(ola > ideal4 * 5 / 4);
        assert!(ola < ideal4 * 2);
    }

    #[test]
    fn first_layer_weights_double_for_8bit() {
        let mut l = test_layer();
        l.index = 0;
        l.weight_bits = 8;
        let eight = olaccel_weight_bits(&l);
        l.weight_bits = 4;
        let four = olaccel_weight_bits(&l);
        assert_eq!(eight, four * 2);
    }

    #[test]
    fn first_layer_acts_have_no_outlier_records() {
        let mut l = test_layer();
        l.index = 0;
        l.act_bits = 16;
        let p = QuantPolicy::olaccel16("alexnet");
        assert_eq!(olaccel_act_bits(&l, &p), dense_bits(&l, 16)[0]);
    }
}
