//! Deterministic data parallelism over item lists.
//!
//! [`ordered_map`] is the workspace's one parallelism primitive: `jobs`
//! scoped worker threads (std only) pull item indices from a shared atomic
//! cursor, and the results come back **in item order** no matter which
//! worker computed what. Because each output slot is a pure function of its
//! input item, the returned vector is byte-identical at any worker count —
//! the determinism contract every layer of the workspace builds on.
//!
//! It lives in `ola-tensor` (the root of the crate graph) so every layer
//! can share it: the f32 compute kernels in `ola-nn::kernels` split
//! convolution output row-tiles across workers, the accelerator models in
//! `ola-core` simulate a network's layers in parallel, and `ola-harness`'s
//! experiment engine runs whole figures on the same work-queue discipline.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default worker count: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Worker threads the random-fill paths ([`crate::init`]) use when the
/// caller does not pass an explicit count. Defaults to 1 (serial); the
/// experiment engine raises it alongside the forward-kernel budget. Fills
/// are bit-identical at any value — every element is a pure function of
/// its index under the counter-based seeding contract — so this only
/// trades wall-time.
static FILL_JOBS: AtomicUsize = AtomicUsize::new(1);

/// Sets the process-wide default worker count for the random-fill paths.
///
/// # Panics
///
/// Panics if `jobs` is zero.
pub fn set_fill_jobs(jobs: usize) {
    assert!(jobs > 0, "fill worker count must be positive");
    FILL_JOBS.store(jobs, Ordering::Relaxed);
}

/// Current process-wide default random-fill worker count.
pub fn fill_jobs() -> usize {
    FILL_JOBS.load(Ordering::Relaxed)
}

/// Fills `out[i] = f(i)` for every index, splitting contiguous chunks
/// across `jobs` scoped worker threads.
///
/// Because each slot is a pure function of its own index, the result is
/// bit-identical at any worker count or chunking — the counterpart of
/// [`ordered_map`] for writing into an existing buffer without a
/// per-item result vector. With `jobs == 1` (or a tiny buffer) the fill
/// runs inline with no synchronization.
///
/// # Panics
///
/// Panics if `jobs` is zero, and propagates panics raised inside `f`.
pub fn fill_indexed<T, F>(out: &mut [T], jobs: usize, f: F)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(jobs > 0, "fill_indexed needs at least one worker");
    if jobs == 1 || out.len() <= 1 {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = f(i);
        }
        return;
    }
    let chunk = out.len().div_ceil(jobs);
    std::thread::scope(|scope| {
        for (ci, slice) in out.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || {
                let base = ci * chunk;
                for (j, slot) in slice.iter_mut().enumerate() {
                    *slot = f(base + j);
                }
            });
        }
    });
}

/// Splits `len` items into at most `parts` contiguous ranges of
/// near-equal size, in order: the work items of a range-parallel
/// [`ordered_map`] whose partial results merge in range order.
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

/// Applies `f` to every item of `items` across `jobs` worker threads and
/// returns the results in item order.
///
/// `f` receives `(index, &item)` so callers can key per-item work (seeds,
/// labels) off the stable index rather than the scheduling order. With
/// `jobs == 1` (or one item) the work runs inline on the calling thread
/// with no synchronization.
///
/// # Panics
///
/// Panics if `jobs` is zero, and propagates the first panic raised inside
/// `f` once all workers have been joined.
pub fn ordered_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    assert!(jobs > 0, "ordered_map needs at least one worker");
    if jobs == 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(items.len()) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                *slots[i].lock().unwrap() = Some(f(i, item));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order() {
        let items: Vec<u64> = (0..100).collect();
        for jobs in [1, 2, 7] {
            let out = ordered_map(&items, jobs, |i, &v| (i as u64, v * 2));
            assert_eq!(out.len(), 100);
            for (i, (idx, doubled)) in out.iter().enumerate() {
                assert_eq!(*idx, i as u64);
                assert_eq!(*doubled, 2 * i as u64);
            }
        }
    }

    #[test]
    fn identical_across_worker_counts() {
        let items: Vec<u32> = (0..37).map(|i| i * 13 % 7).collect();
        let serial = ordered_map(&items, 1, |i, &v| v as u64 + i as u64);
        let parallel = ordered_map(&items, 8, |i, &v| v as u64 + i as u64);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u8> = ordered_map(&[] as &[u8], 4, |_, &v| v);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_jobs_rejected() {
        let _ = ordered_map(&[1u8], 0, |_, &v| v);
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
    fn fill_indexed_matches_serial_at_any_width() {
        let mut reference = vec![0u64; 1000];
        fill_indexed(&mut reference, 1, |i| (i as u64).wrapping_mul(0x9E37));
        for jobs in [2, 3, 7, 16] {
            let mut out = vec![0u64; 1000];
            fill_indexed(&mut out, jobs, |i| (i as u64).wrapping_mul(0x9E37));
            assert_eq!(out, reference, "jobs={jobs} drifted from serial fill");
        }
    }

    #[test]
    fn fill_indexed_handles_empty_and_tiny() {
        let mut empty: Vec<u8> = vec![];
        fill_indexed(&mut empty, 4, |i| i as u8);
        assert!(empty.is_empty());
        let mut one = vec![0usize];
        fill_indexed(&mut one, 4, |i| i + 10);
        assert_eq!(one, [10]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn fill_indexed_zero_jobs_rejected() {
        fill_indexed(&mut [0u8; 2], 0, |i| i as u8);
    }

    #[test]
    fn fill_jobs_roundtrip() {
        assert!(fill_jobs() >= 1);
        set_fill_jobs(3);
        assert_eq!(fill_jobs(), 3);
        set_fill_jobs(1);
    }
}
