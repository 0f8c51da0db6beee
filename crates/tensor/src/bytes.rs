//! The workspace's one byte encoding: little-endian, `u64`-length-framed
//! fields, written to a buffer or folded into a hash.
//!
//! The on-disk artifact store (`ola-store`) persists records as these
//! bytes, and every memo key is the 64-bit FNV-1a hash of the same bytes
//! for its inputs. [`Encoder`] provides every field writer over one
//! required method, [`Encoder::put`]; [`Writer`] appends the bytes to a
//! `Vec<u8>` (store payloads) and [`Fingerprint`] hashes them as they
//! stream past (memo keys). A type that is both a record field and a key
//! input writes its fields once, in an `encode(&self, e: &mut impl
//! Encoder)` beside its definition, so a record and its key can never
//! disagree about its layout.
//!
//! Fixed-width fields contribute their exact little-endian bytes, so files
//! are portable across hosts regardless of native endianness. `usize`
//! travels as `u64`, so 32- and 64-bit hosts agree. Variable-width fields
//! (`str`, `bytes`, `f32s`) are length-prefixed, so adjacent fields can
//! never alias across a boundary. Floats travel by exact bit pattern
//! (NaN payloads and `-0.0` included): a decoded artifact is bit-identical
//! to the one encoded, and two key inputs share a slot only when they are
//! bit-identical.

/// Copy block size for [`Encoder::f32s`]'s staging buffer: large enough to
/// amortize the per-`put` overhead, small enough to stay in L1.
const BLOCK: usize = 1024;

/// The FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A sink of little-endian, length-framed fields. Implementors supply
/// [`Encoder::put`]; every field writer is provided and returns the
/// encoder, so fields chain.
pub trait Encoder {
    /// Takes raw bytes, unframed.
    fn put(&mut self, bytes: &[u8]);

    /// Writes one byte.
    fn u8(&mut self, v: u8) -> &mut Self {
        self.put(&[v]);
        self
    }

    /// Writes a `u32`.
    fn u32(&mut self, v: u32) -> &mut Self {
        self.put(&v.to_le_bytes());
        self
    }

    /// Writes a `u64`.
    fn u64(&mut self, v: u64) -> &mut Self {
        self.put(&v.to_le_bytes());
        self
    }

    /// Writes a `usize` as `u64`.
    fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Writes an `f32` by exact bit pattern.
    fn f32(&mut self, v: f32) -> &mut Self {
        self.u32(v.to_bits())
    }

    /// Writes an `f64` by exact bit pattern. `-0.0` and `0.0` (and distinct
    /// NaN payloads) write different bytes: in a key, equal-comparing but
    /// bit-different inputs simply miss each other (a false miss
    /// recomputes; it can never corrupt a result).
    fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Writes a length-prefixed UTF-8 string.
    fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    /// Writes a length-prefixed raw byte buffer.
    fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.usize(b.len());
        self.put(b);
        self
    }

    /// Writes a length-prefixed `f32` buffer by exact bit patterns — the
    /// bulk form for weight matrices, activations and images.
    fn f32s(&mut self, values: &[f32]) -> &mut Self {
        self.usize(values.len());
        let mut staging = [0u8; BLOCK * 4];
        for block in values.chunks(BLOCK) {
            for (slot, v) in staging.chunks_exact_mut(4).zip(block) {
                slot.copy_from_slice(&v.to_le_bytes());
            }
            self.put(&staging[..block.len() * 4]);
        }
        self
    }

    /// Writes raw bytes without a length prefix (the caller frames them).
    fn raw(&mut self, b: &[u8]) -> &mut Self {
        self.put(b);
        self
    }
}

/// An append-only encoder into a `Vec<u8>`: store payloads and headers.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

impl Encoder for Writer {
    fn put(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// A running 64-bit FNV-1a hash of the encoded bytes: the memo keys.
///
/// Cheap and dependency-free (not cryptographic: keys defend against
/// accidental collisions, not adversaries). It hashes bytes as they
/// stream past and never buffers them. The digest is stable across
/// platforms and process runs, so it is safe to use as a persistent
/// (on-disk) artifact key.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint {
    h: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// A fresh hash at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fingerprint { h: FNV_OFFSET }
    }

    /// The 64-bit digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.h
    }
}

impl Encoder for Fingerprint {
    fn put(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h ^= u64::from(b);
            self.h = self.h.wrapping_mul(FNV_PRIME);
        }
    }
}

/// 64-bit FNV-1a of one byte slice (the store's payload checksum).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut fp = Fingerprint::new();
    fp.put(bytes);
    fp.finish()
}

/// Decodes a little-endian `f32` byte stream written by
/// [`Encoder::f32s`] (without its length prefix). Returns `None` if
/// `bytes` is not a whole number of 4-byte values.
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
    fn fingerprint_is_order_and_framing_sensitive() {
        let mut a = Fingerprint::new();
        a.str("ab").str("c");
        let mut b = Fingerprint::new();
        b.str("a").str("bc");
        assert_ne!(a.finish(), b.finish(), "framing must prevent aliasing");

        let mut c = Fingerprint::new();
        c.u64(1).u64(2);
        let mut d = Fingerprint::new();
        d.u64(2).u64(1);
        assert_ne!(c.finish(), d.finish(), "field order must matter");
    }

    #[test]
    fn fingerprint_floats_fold_by_bit_pattern() {
        let mut pos = Fingerprint::new();
        pos.f64(0.0);
        let mut neg = Fingerprint::new();
        neg.f64(-0.0);
        assert_ne!(pos.finish(), neg.finish());
        let mut raw = Fingerprint::new();
        raw.u64(0.0_f64.to_bits());
        assert_eq!(pos.finish(), raw.finish());
    }

    #[test]
    fn fingerprint_f32s_frames_like_scalars() {
        let mut bulk = Fingerprint::new();
        bulk.f32s(&[1.5, -0.0]);
        let mut scalar = Fingerprint::new();
        scalar.usize(2).f32(1.5).f32(-0.0);
        assert_eq!(bulk.finish(), scalar.finish());
        let mut pos = Fingerprint::new();
        pos.f32s(&[0.0]);
        let mut neg = Fingerprint::new();
        neg.f32s(&[-0.0]);
        assert_ne!(pos.finish(), neg.finish(), "f32 bits must be exact");
    }

    #[test]
    fn fingerprint_hashes_the_bytes_a_writer_writes() {
        fn fields<E: Encoder>(e: &mut E, values: &[f32]) {
            e.u8(7)
                .u32(0xdead_beef)
                .u64(u64::MAX - 3)
                .usize(12)
                .f32(-0.0)
                .f64(f64::NAN)
                .str("olá")
                .bytes(&[1, 2, 3])
                .f32s(values)
                .raw(b"OLAS");
        }
        let values: Vec<f32> = (0..BLOCK + 3).map(|i| i as f32 * -0.25).collect();
        let mut w = Writer::new();
        fields(&mut w, &values);
        let mut fp = Fingerprint::new();
        fields(&mut fp, &values);
        assert_eq!(fp.finish(), fnv1a64(&w.into_bytes()));
    }

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
        let mut w = Writer::new();
        w.f32s(&values);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 8 + values.len() * 4);
        let back = read_f32s_le(&bytes[8..]).unwrap();
        let a: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = back.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn long_buffers_cross_block_boundaries() {
        let values: Vec<f32> = (0..BLOCK * 3 + 17).map(|i| i as f32 * 0.5 - 7.0).collect();
        let mut w = Writer::new();
        w.f32s(&values);
        let bytes = w.into_bytes();
        assert_eq!(bytes[..8], (values.len() as u64).to_le_bytes());
        assert_eq!(read_f32s_le(&bytes[8..]).unwrap(), values);
    }

    #[test]
    fn ragged_byte_streams_rejected() {
        assert!(read_f32s_le(&[0, 1, 2]).is_none());
        assert!(read_f32s_le(&[]).unwrap().is_empty());
    }
}
