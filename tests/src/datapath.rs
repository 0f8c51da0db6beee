//! Bit-exact functional model of the PE-group datapath (§III-D).
//!
//! The performance model in [`ola_core::model`] counts cycles; this module
//! verifies the *arithmetic* the hardware performs is correct:
//!
//! * Normal lanes multiply a 4-bit sign-magnitude weight nibble by the
//!   broadcast activation and accumulate into a 24-bit partial sum.
//! * A **single outlier weight** is handled with zero extra cycles by the
//!   trick of Fig 7: the lane's nibble holds the sign and the three
//!   least-significant magnitude bits; the 17th (outlier) MAC multiplies
//!   `OLmsb` (the four most-significant magnitude bits) by the same
//!   broadcast activation, shifts by 3, and routes the product to the lane
//!   selected by `OLidx`. Because
//!   `(msb << 3 | lsb) * a == ((msb * a) << 3) + lsb * a`,
//!   the merged result is exactly the 8-bit multiply.
//! * **Multiple outlier weights** take the two-cycle path of Fig 8: cycle
//!   one multiplies the LSB nibbles, cycle two multiplies the overflow
//!   chunk's MSB nibbles shifted by 3; every lane adds both.
//!
//! All three paths are implemented exactly as described and tested against
//! a plain integer reference.

use ola_quant::chunks::{decode_group, QuantizedWeight, WeightChunk, CHUNK_WEIGHTS};

/// Width of the partial-sum accumulators in bits (the paper's tri-buffer
/// stores 24-bit partial sums).
pub const ACC_BITS: u32 = 24;

/// A bank of 16 partial-sum accumulators, one per output channel lane.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PsumBank {
    acc: [i32; CHUNK_WEIGHTS],
}

impl PsumBank {
    /// A zeroed bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulator values.
    pub fn values(&self) -> &[i32; CHUNK_WEIGHTS] {
        &self.acc
    }

    /// Adds `v` to lane `lane`, wrapping at the 24-bit accumulator width
    /// exactly as the hardware would.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn add(&mut self, lane: usize, v: i32) {
        assert!(lane < CHUNK_WEIGHTS, "lane out of range");
        let wrapped = (self.acc[lane].wrapping_add(v)) << (32 - ACC_BITS) >> (32 - ACC_BITS);
        self.acc[lane] = wrapped;
    }
}

fn nibble_sign_mag(nibble: u8) -> (i32, i32) {
    (
        if nibble & 0x8 != 0 { -1 } else { 1 },
        (nibble & 0x7) as i32,
    )
}

/// Executes one broadcast of activation level `act` against a weight chunk
/// (plus its overflow chunk when `OLptr` is set), updating `psums` exactly
/// as the 16+1-MAC group does. Returns the number of cycles consumed
/// (1 normally, 2 on the multi-outlier path).
///
/// # Panics
///
/// Panics if the chunk requires an overflow chunk that is not provided.
pub fn broadcast(
    chunk: &WeightChunk,
    overflow: Option<&WeightChunk>,
    act: i32,
    psums: &mut PsumBank,
) -> u32 {
    if chunk.is_multi_outlier() {
        let ov = overflow.expect("multi-outlier chunk needs its overflow chunk");
        // Cycle 1: LSB nibbles (sign applies to the full magnitude).
        // Cycle 2: MSB nibbles from the overflow chunk, shifted by 3.
        for lane in 0..CHUNK_WEIGHTS {
            let (sign, ls3) = nibble_sign_mag(chunk.nibbles[lane]);
            let msb = ov.nibbles[lane] as i32;
            let magnitude = (msb << 3) | ls3;
            psums.add(lane, sign * magnitude * act);
        }
        2
    } else {
        // Normal path: 16 lanes multiply their nibbles...
        for lane in 0..CHUNK_WEIGHTS {
            let (sign, mag) = nibble_sign_mag(chunk.nibbles[lane]);
            psums.add(lane, sign * mag * act);
        }
        // ...and the outlier MAC computes OLmsb * act, shifts by 3, and
        // routes it to the OLidx lane — sign taken from that lane's nibble.
        if chunk.is_single_outlier() {
            let lane = chunk.ol_idx as usize;
            let (sign, _) = nibble_sign_mag(chunk.nibbles[lane]);
            psums.add(lane, sign * ((chunk.ol_msb as i32) << 3) * act);
        }
        1
    }
}

/// Plain integer reference: multiply every decoded weight level by `act`.
pub fn reference(weights: &[QuantizedWeight], act: i32) -> Vec<i32> {
    weights.iter().map(|w| w.level * act).collect()
}

/// Runs a whole sequence of broadcasts through both the hardware path and
/// the reference, returning `(psums, reference_psums, cycles)` for a group
/// processing `activations` against the same chunk.
pub fn run_sequence(
    chunk: &WeightChunk,
    overflow: Option<&WeightChunk>,
    activations: &[i32],
) -> (PsumBank, Vec<i32>, u32) {
    let weights = decode_group(chunk, overflow, CHUNK_WEIGHTS);
    let mut psums = PsumBank::new();
    let mut reference_acc = vec![0i32; CHUNK_WEIGHTS];
    let mut cycles = 0;
    for &act in activations {
        cycles += broadcast(chunk, overflow, act, &mut psums);
        for (r, w) in reference_acc.iter_mut().zip(&weights) {
            *r += w.level * act;
        }
    }
    (psums, reference_acc, cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ola_quant::chunks::encode_group;

    fn group_with(outliers: &[(usize, i32)]) -> Vec<QuantizedWeight> {
        let mut g: Vec<QuantizedWeight> = (0..16)
            .map(|i: i32| QuantizedWeight::normal((i % 15) - 7))
            .collect();
        for &(lane, level) in outliers {
            g[lane] = QuantizedWeight::outlier(level);
        }
        g
    }

    #[test]
    fn normal_chunk_matches_reference() {
        let g = group_with(&[]);
        let (chunk, ov) = encode_group(&g);
        let (psums, reference, cycles) = run_sequence(&chunk, ov.as_ref(), &[3, -5, 7]);
        assert_eq!(psums.values().as_slice(), reference.as_slice());
        assert_eq!(cycles, 3);
    }

    #[test]
    fn single_outlier_merged_in_one_cycle() {
        // The outlier-MAC shift-and-add must reconstruct the 8-bit product.
        for level in [-127, -100, -64, 9, 64, 100, 127] {
            let g = group_with(&[(5, level)]);
            let (chunk, ov) = encode_group(&g);
            assert!(ov.is_none());
            let (psums, reference, cycles) = run_sequence(&chunk, None, &[7]);
            assert_eq!(
                psums.values().as_slice(),
                reference.as_slice(),
                "level {level}"
            );
            assert_eq!(cycles, 1, "single outlier costs no extra cycle");
        }
    }

    #[test]
    fn multi_outlier_takes_two_cycles() {
        let g = group_with(&[(0, 127), (9, -88), (15, 33)]);
        let (chunk, ov) = encode_group(&g);
        let ov = ov.expect("multi-outlier needs overflow");
        let (psums, reference, cycles) = run_sequence(&chunk, Some(&ov), &[4, -6]);
        assert_eq!(psums.values().as_slice(), reference.as_slice());
        assert_eq!(cycles, 4, "two broadcasts x two cycles each");
    }

    #[test]
    fn zero_msb_outlier_mac_is_inert() {
        // With no outlier, OLmsb is zero and the outlier MAC's contribution
        // must vanish (§III-D: "the outlier MAC unit generates a zero
        // result").
        let g = group_with(&[]);
        let (chunk, _) = encode_group(&g);
        assert_eq!(chunk.ol_msb, 0);
        let mut psums = PsumBank::new();
        broadcast(&chunk, None, 100, &mut psums);
        let expected = reference(&g, 100);
        assert_eq!(psums.values().as_slice(), expected.as_slice());
    }

    #[test]
    fn accumulator_wraps_at_24_bits() {
        let mut bank = PsumBank::new();
        let max = (1 << (ACC_BITS - 1)) - 1;
        bank.add(0, max);
        bank.add(0, 1);
        assert_eq!(
            bank.values()[0],
            -(1 << (ACC_BITS - 1)),
            "two's-complement wrap"
        );
    }

    #[test]
    fn negative_activations_and_outliers_compose() {
        let g = group_with(&[(2, -120)]);
        let (chunk, _) = encode_group(&g);
        let (psums, reference, _) = run_sequence(&chunk, None, &[-15, 15, -1]);
        assert_eq!(psums.values().as_slice(), reference.as_slice());
    }
}
