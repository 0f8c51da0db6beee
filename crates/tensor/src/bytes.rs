//! Little-endian byte views of `f32` buffers.
//!
//! The on-disk artifact store (`ola-store`) persists prepared networks and
//! workload sets as flat little-endian byte streams. These helpers are the
//! only place the workspace converts between `f32` buffers and raw bytes,
//! so the byte order is fixed in exactly one spot: every value is written
//! as [`f32::to_le_bytes`] and read back with [`f32::from_le_bytes`],
//! making store files portable across hosts regardless of native
//! endianness. Round-trips preserve the exact bit pattern of every value
//! (including NaN payloads and `-0.0`), which is what keeps disk-loaded
//! artifacts byte-identical to freshly computed ones.

/// Copy block size for the staging buffer: large enough to amortize the
/// `Vec` bookkeeping, small enough to stay in L1.
const BLOCK: usize = 1024;

/// Appends `values` to `out` as little-endian `f32` bytes (4 bytes per
/// value, exact bit patterns preserved).
pub fn append_f32s_le(out: &mut Vec<u8>, values: &[f32]) {
    out.reserve(values.len() * 4);
    let mut staging = [0u8; BLOCK * 4];
    for block in values.chunks(BLOCK) {
        for (slot, v) in staging.chunks_exact_mut(4).zip(block) {
            slot.copy_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&staging[..block.len() * 4]);
    }
}

/// Decodes a little-endian `f32` byte stream produced by
/// [`append_f32s_le`]. Returns `None` if `bytes` is not a whole number of
/// 4-byte values.
pub fn read_f32s_le(bytes: &[u8]) -> Option<Vec<f32>> {
    if !bytes.len().is_multiple_of(4) {
        return None;
    }
    Some(
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_round_trip_preserves_bit_patterns() {
        let values = vec![
            0.0,
            -0.0,
            1.5,
            -3.25e-12,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x7f80_0001), // signaling NaN payload
            f32::MIN_POSITIVE,
        ];
        let mut bytes = Vec::new();
        append_f32s_le(&mut bytes, &values);
        assert_eq!(bytes.len(), values.len() * 4);
        let back = read_f32s_le(&bytes).unwrap();
        let a: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = back.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn long_buffers_cross_block_boundaries() {
        let values: Vec<f32> = (0..BLOCK * 3 + 17).map(|i| i as f32 * 0.5 - 7.0).collect();
        let mut bytes = Vec::new();
        append_f32s_le(&mut bytes, &values);
        assert_eq!(read_f32s_le(&bytes).unwrap(), values);
    }

    #[test]
    fn ragged_byte_streams_rejected() {
        assert!(read_f32s_le(&[0, 1, 2]).is_none());
        assert!(read_f32s_le(&[]).unwrap().is_empty());
    }
}
