//! The decode side of the store's bytes: a bounds-checked reader of the
//! encoding [`ola_tensor::bytes`] writes, and the store's error type.
//!
//! Everything multi-byte is little-endian; lengths are `u64` so the format
//! is identical on 32- and 64-bit hosts. The reader never panics on
//! malformed input — every decode error surfaces as
//! [`StoreError::Corrupt`], which the cache layer treats as "recompute and
//! overwrite", never as a hard failure.

use std::fmt;

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file's bytes do not decode as a valid artifact (truncation,
    /// bit rot, format/version/key mismatch, stale code version).
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt artifact: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Shorthand for a decode-side corruption error.
pub(crate) fn corrupt(msg: impl Into<String>) -> StoreError {
    StoreError::Corrupt(msg.into())
}

/// A bounds-checked little-endian reader over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(corrupt(format!(
                "unexpected end of artifact: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a length written by
    /// [`Encoder::usize`](ola_tensor::bytes::Encoder::usize),
    /// bounds-checked against the remaining payload (each element needs at
    /// least `min_elem_bytes`) so corrupt lengths fail cleanly instead of
    /// attempting a giant allocation.
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, StoreError> {
        let v = self.u64()?;
        let cap = self
            .remaining()
            .checked_div(min_elem_bytes)
            .map_or(u64::MAX, |c| c as u64);
        if v > cap {
            return Err(corrupt(format!("implausible length {v}")));
        }
        Ok(v as usize)
    }

    /// Reads an `f32` bit pattern.
    pub fn f32(&mut self) -> Result<f32, StoreError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, StoreError> {
        let n = self.len(1)?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| corrupt("invalid UTF-8 string"))
    }

    /// Reads a length-prefixed raw byte buffer.
    pub fn bytes(&mut self) -> Result<&'a [u8], StoreError> {
        let n = self.len(1)?;
        self.take(n)
    }

    /// Reads a length-prefixed `f32` buffer.
    pub fn f32s(&mut self) -> Result<Vec<f32>, StoreError> {
        let n = self.len(4)?;
        let b = self.take(n * 4)?;
        ola_tensor::bytes::read_f32s_le(b).ok_or_else(|| corrupt("ragged f32 buffer"))
    }

    /// Errors unless every byte has been consumed — trailing garbage means
    /// the payload does not match the format that framed it.
    pub fn finish(self) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(corrupt(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ola_tensor::bytes::{fnv1a64, Encoder, Writer};

    #[test]
    fn scalar_round_trips() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.f32(-0.0);
        w.f64(f64::NAN);
        w.str("olá");
        w.bytes(&[1, 2, 3]);
        w.f32s(&[1.0, -2.5]);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f32().unwrap().to_bits(), (-0.0_f32).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.string().unwrap(), "olá");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.f32s().unwrap(), vec![1.0, -2.5]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_trailing_bytes_are_corrupt() {
        let mut w = Writer::new();
        w.u64(5);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf[..4]);
        assert!(matches!(r.u64(), Err(StoreError::Corrupt(_))));
        let mut r = Reader::new(&buf);
        let _ = r.u32().unwrap();
        assert!(matches!(r.finish(), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn implausible_lengths_rejected_without_allocation() {
        let mut w = Writer::new();
        w.u64(u64::MAX / 2);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.len(4), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn fnv_matches_known_vector() {
        // The payload checksum checked after a read: standard FNV-1a vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
