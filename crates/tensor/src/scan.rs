//! Fused, deterministically parallel statistics scans.
//!
//! Workload extraction needs several statistics of the same data — zero
//! counts, absolute maxima, non-zero magnitudes (for threshold selection),
//! per-chunk non-zero lane counts and zero quads. The pre-fusion pipeline
//! walked each tensor once per statistic; the scans here produce all of
//! them in **one pass**, and split that pass across worker threads over
//! contiguous ranges via [`crate::par::ordered_map`].
//!
//! Determinism contract: every statistic is either an order-independent
//! reduction (counts, `f32::max` over non-negative magnitudes) or an
//! order-preserving concatenation (per-chunk vectors, the magnitude
//! buffer), and ranges merge in range order — so the result is identical
//! at any worker count, and [`scan_values`] is byte-identical to a serial
//! [`ValueScan::extend_slice`] over the whole slice.

use crate::chunk::ChunkViews;
use crate::par::ordered_map;
use crate::stats::ValueScan;

/// Below this many elements (or chunks), scans stay serial: spawning
/// scoped threads costs more than the walk. Results are identical either
/// way; this is purely a latency guard.
const PAR_MIN_ITEMS: usize = 1 << 14;

/// Splits `len` items into at most `parts` contiguous ranges of
/// near-equal size, in order. The building block for range-parallel scans
/// whose partial results merge in range order.
pub fn split_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.clamp(1, len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// One-pass [`ValueScan`] over a slice, split across `jobs` workers.
///
/// Byte-identical to a serial scan at any `jobs` value (ranges are
/// contiguous and merge in order, so even the magnitude buffer's order is
/// preserved).
///
/// # Panics
///
/// Panics if `jobs` is zero.
pub fn scan_values(values: &[f32], jobs: usize) -> ValueScan {
    assert!(jobs > 0, "scan_values needs at least one worker");
    if jobs == 1 || values.len() < PAR_MIN_ITEMS {
        let mut scan = ValueScan::new();
        scan.extend_slice(values);
        return scan;
    }
    let ranges = split_ranges(values.len(), jobs);
    let parts = ordered_map(&ranges, jobs, |_, range| {
        let mut scan = ValueScan::new();
        scan.extend_slice(&values[range.clone()]);
        scan
    });
    let mut merged = ValueScan::new();
    for part in parts {
        merged.merge(part);
    }
    merged
}

/// Everything one fused sweep over a chunk grid produces: the per-chunk
/// statistics in chunk-index order plus the [`ValueScan`] of all real
/// (non-padding) lanes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChunkScan {
    /// Non-zero lane count per chunk.
    pub nnz: Vec<u8>,
    /// Fully-zero 4-lane quad count per chunk.
    pub zero_quads: Vec<u8>,
    /// Value statistics over every real lane (each tensor element is in
    /// exactly one chunk, so this covers the whole tensor once). The
    /// magnitude buffer is in chunk-major order — fine for the selection
    /// and counting reductions built on it, which are order-independent.
    pub values: ValueScan,
}

impl ChunkScan {
    fn merge(&mut self, mut other: ChunkScan) {
        self.nnz.append(&mut other.nnz);
        self.zero_quads.append(&mut other.zero_quads);
        self.values.merge(other.values);
    }
}

/// Fused single-pass sweep over a chunk grid: per-chunk non-zero counts
/// and zero quads plus the full [`ValueScan`], split across `jobs`
/// workers over contiguous chunk ranges.
///
/// Identical at any `jobs` value: per-chunk vectors concatenate in chunk
/// order and the value statistics merge order-preservingly.
///
/// # Panics
///
/// Panics if `jobs` is zero, or if the grid's lane count exceeds 255 (the
/// per-chunk counts are stored as `u8`; the PE-group chunk width is 16).
pub fn scan_chunks(views: &ChunkViews<'_>, jobs: usize) -> ChunkScan {
    assert!(jobs > 0, "scan_chunks needs at least one worker");
    assert!(views.lanes() <= u8::MAX as usize, "lane count exceeds u8");
    if jobs == 1 || views.len() < PAR_MIN_ITEMS {
        return scan_chunk_range(views, 0..views.len());
    }
    let ranges = split_ranges(views.len(), jobs);
    let parts = ordered_map(&ranges, jobs, |_, range| {
        scan_chunk_range(views, range.clone())
    });
    let mut merged = ChunkScan::default();
    for part in parts {
        merged.merge(part);
    }
    merged
}

/// Serial fused sweep over one contiguous chunk range.
fn scan_chunk_range(views: &ChunkViews<'_>, range: std::ops::Range<usize>) -> ChunkScan {
    let mut scan = ChunkScan {
        nnz: Vec::with_capacity(range.len()),
        zero_quads: Vec::with_capacity(range.len()),
        values: ValueScan::new(),
    };
    let lanes = views.lanes();
    for idx in range {
        let view = views.get(idx);
        let real = view.real_lanes();
        let mut nnz = 0u8;
        let mut zero_quads = 0u8;
        let mut q0 = 0;
        while q0 < lanes {
            let end = (q0 + 4).min(real);
            let mut quad_zero = true;
            for i in q0..end {
                let v = view.lane(i);
                scan.values.push(v);
                if v != 0.0 {
                    nnz += 1;
                    quad_zero = false;
                }
            }
            if quad_zero {
                zero_quads += 1;
            }
            q0 += 4;
        }
        scan.nnz.push(nnz);
        scan.zero_quads.push(zero_quads);
    }
    scan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::tests::direct_chunks;
    use crate::init::uniform_tensor;
    use crate::shape::Shape4;

    fn sparse_tensor(shape: Shape4, seed: u64) -> crate::Tensor {
        let mut t = uniform_tensor(shape, -1.0, 1.0, seed);
        t.map_inplace(|v| if v < 0.0 { 0.0 } else { v });
        t
    }

    #[test]
    fn split_ranges_partitions_exactly() {
        for (len, parts) in [(10, 3), (7, 7), (5, 9), (0, 4), (1 << 16, 4)] {
            let ranges = split_ranges(len, parts);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, len);
        }
    }

    #[test]
    fn scan_values_identical_at_any_worker_count() {
        let t = sparse_tensor(Shape4::new(1, 24, 32, 32), 7);
        let serial = scan_values(t.as_slice(), 1);
        for jobs in [2, 3, 8] {
            assert_eq!(scan_values(t.as_slice(), jobs), serial, "jobs {jobs}");
        }
        assert_eq!(serial.total(), t.len());
        let zeros = t.as_slice().iter().filter(|&&v| v == 0.0).count();
        assert_eq!(serial.zeros(), zeros);
        assert_eq!(serial.abs_max(), t.abs_max());
    }

    #[test]
    fn chunk_scan_matches_direct_index_passes() {
        for shape in [
            Shape4::new(1, 20, 9, 9),
            Shape4::new(2, 16, 4, 4),
            Shape4::new(1, 3, 2, 2),
            Shape4::new(1, 64, 17, 13),
        ] {
            let t = sparse_tensor(shape, 11);
            let views = ChunkViews::activations(&t, 16);
            let scan = scan_chunks(&views, 1);
            let mut nnz = Vec::new();
            let mut zq = Vec::new();
            for (_, values) in direct_chunks(&t, 16) {
                nnz.push(values.iter().filter(|&&v| v != 0.0).count() as u8);
                zq.push(
                    values
                        .chunks(4)
                        .filter(|quad| quad.iter().all(|&v| v == 0.0))
                        .count() as u8,
                );
            }
            assert_eq!(scan.nnz, nnz, "{shape}");
            assert_eq!(scan.zero_quads, zq, "{shape}");
            // The fused value statistics cover the whole tensor exactly once.
            assert_eq!(scan.values.total(), t.len());
            assert_eq!(
                scan.values.zeros(),
                t.as_slice().iter().filter(|&&v| v == 0.0).count()
            );
            assert_eq!(scan.values.abs_max(), t.abs_max());
        }
    }

    #[test]
    fn chunk_scan_identical_at_any_worker_count() {
        let t = sparse_tensor(Shape4::new(1, 40, 24, 24), 3);
        let views = ChunkViews::activations(&t, 16);
        let serial = scan_chunks(&views, 1);
        for jobs in [2, 5, 16] {
            let par = scan_chunks(&views, jobs);
            assert_eq!(par.nnz, serial.nnz, "jobs {jobs}");
            assert_eq!(par.zero_quads, serial.zero_quads, "jobs {jobs}");
            // Contiguous ranges merge in order, so even the magnitude
            // buffers compare equal element-for-element.
            assert_eq!(par.values, serial.values, "jobs {jobs}");
        }
    }

    #[test]
    fn matrix_scan_covers_every_element_once() {
        let values: Vec<f32> = (0..35)
            .map(|i| if i % 3 == 0 { 0.0 } else { i as f32 })
            .collect();
        let views = ChunkViews::matrix(&values, 7, 5, 4);
        let scan = scan_chunks(&views, 1);
        assert_eq!(scan.values.total(), values.len());
        assert_eq!(
            scan.values.zeros(),
            values.iter().filter(|&&v| v == 0.0).count()
        );
        assert_eq!(scan.nnz.len(), views.len());
    }
}
