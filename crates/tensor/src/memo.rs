//! Exactly-once memoization.
//!
//! Every cache in the workspace is a [`Memo`]: the harness's `PrepCache`
//! (prepared networks, workload sets and static-threshold counts),
//! `ola_sim::simcache::SimCache` (per-layer simulation results) and
//! `ola_quant::evalcache::EvalCache` (quantized-accuracy records) each
//! hold one `Memo` per kind of value. A
//! memo maps `u64` keys to per-key [`Slot`]s — an `Arc<OnceLock<..>>`
//! whose expensive build runs in exactly one caller while concurrent
//! requesters for the same key block until it lands — and survives a
//! panicking build without poisoning the key ([`fill_slot`]). An optional
//! [`Persist`] tier is read before building and written after, which is
//! how `ola-store`'s artifact store slots under every cache at once. The
//! module sits at the root of the crate graph (like [`crate::par`]) so
//! every layer can use it.
//!
//! Keys are [`crate::bytes::Fingerprint`]s: the FNV-1a hash of the
//! encoded bytes of every input that can change a memoized result —
//! workload fields, accelerator tuning, technology parameters. Floats
//! encode by exact bit pattern, matching the workspace's bitwise
//! determinism contract: two inputs share a slot only when they are
//! bit-identical, so a cached result can never differ from a fresh
//! computation.

use std::collections::HashMap;
use std::hash::Hash;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Locks a mutex, recovering the guard if another thread panicked while
/// holding it. Every structure these locks protect is valid at all times
/// (slot maps and counters are updated atomically under the lock), so a
/// poisoned lock carries no integrity risk — propagating it would only
/// replace the original panic's message with a generic `PoisonError`.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Extracts a human-readable message from a panic payload (the `&str` or
/// `String` that `panic!` carries; anything else gets a fixed label).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A per-key exactly-once slot. The `Result` (rather than the value
/// directly) is what keeps a panicking build from poisoning the slot's
/// inner `Once`: the init closure catches the panic and stores the
/// message, so the `OnceLock` itself always completes cleanly.
pub type Slot<T> = Arc<OnceLock<Result<Arc<T>, String>>>;

/// What a cache fill actually did (a memory hit runs no fill at all).
pub enum Fill {
    /// Loaded from the persistent tier; no computation ran.
    Disk,
    /// Computed from scratch.
    Built,
}

/// Removes `slot` from `map` iff it is still the slot registered under
/// `key` — a failed build evicts itself so later requests retry, without
/// ever discarding a *successful* replacement that raced in.
fn evict_slot<K: Eq + Hash, T>(map: &Mutex<HashMap<K, Slot<T>>>, key: &K, slot: &Slot<T>) {
    let mut m = lock_unpoisoned(map);
    if m.get(key).is_some_and(|cur| Arc::ptr_eq(cur, slot)) {
        m.remove(key);
    }
}

/// The exactly-once fill protocol under every [`Memo`] (and the daemon's
/// report memo): find or insert the key's slot, run `build` in at most one
/// caller, and report what happened (`None` = served from memory). A
/// panicking build is re-raised with its original payload for the
/// builder, re-raised by message for every waiter, and evicts its slot so
/// the key stays retryable.
pub fn fill_slot<K, T>(
    map: &Mutex<HashMap<K, Slot<T>>>,
    key: K,
    build: impl FnOnce() -> (Arc<T>, Fill),
) -> (Arc<T>, Option<Fill>)
where
    K: Eq + Hash + Clone,
{
    let slot = {
        let mut m = lock_unpoisoned(map);
        m.entry(key.clone()).or_default().clone()
    };
    let mut fill = None;
    let mut payload: Option<Box<dyn std::any::Any + Send>> = None;
    let result = slot
        .get_or_init(|| match catch_unwind(AssertUnwindSafe(build)) {
            Ok((v, f)) => {
                fill = Some(f);
                Ok(v)
            }
            Err(p) => {
                let msg = panic_message(p.as_ref());
                payload = Some(p);
                Err(msg)
            }
        })
        .clone();
    if let Some(p) = payload {
        // We were the builder and the build panicked: make the key
        // retryable, then let the original panic continue unchanged.
        evict_slot(map, &key, &slot);
        resume_unwind(p);
    }
    match result {
        Ok(v) => (v, fill),
        Err(msg) => {
            // A concurrent builder failed; surface its message (the evict
            // is a no-op if the builder already did it).
            evict_slot(map, &key, &slot);
            panic!("{msg}");
        }
    }
}

/// The persistent tier behind a [`Memo`]: records addressed by the memo's
/// `u64` key. `ola-store`'s `ArtifactStore` implements it for every record
/// kind; it is defined here so the caches, which all sit below the store
/// in the crate graph, can hold one behind a trait object.
///
/// Neither method fails. A load that finds nothing usable (no record, a
/// stale code version, corrupt bytes) is `None`, and a save that fails is
/// reported by the implementation and dropped: a broken store degrades to
/// a cold cache, never a failed run.
pub trait Persist<R>: Send + Sync {
    /// The record stored under `key`, if a valid one exists.
    fn load(&self, key: u64) -> Option<R>;
    /// Stores `record` under `key`.
    fn save(&self, key: u64, record: &R);
}

/// A point-in-time snapshot of one [`Memo`]'s counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Requests served from memory.
    pub hits: u64,
    /// Requests that ran the build.
    pub built: u64,
    /// Requests served by the persistent tier (no build ran).
    pub loaded: u64,
    /// Persistent-tier lookups that found nothing usable.
    pub missed: u64,
}

/// A `u64`-keyed, exactly-once memo of `R` values with an optional
/// [`Persist`] tier.
///
/// [`Memo::get`] serves a resident value, or fills the key's slot under
/// [`fill_slot`]: the attached store is read first, the build runs only
/// if it has nothing, and a fresh build is written back. `build` must be a
/// pure function of the inputs folded into the key — that is what makes a
/// hit, a load and a rebuild interchangeable.
pub struct Memo<R> {
    slots: Mutex<HashMap<u64, Slot<R>>>,
    store: Mutex<Option<Arc<dyn Persist<R>>>>,
    hits: AtomicU64,
    built: AtomicU64,
    loaded: AtomicU64,
    missed: AtomicU64,
}

impl<R> Default for Memo<R> {
    fn default() -> Self {
        Memo {
            slots: Mutex::default(),
            store: Mutex::default(),
            hits: AtomicU64::new(0),
            built: AtomicU64::new(0),
            loaded: AtomicU64::new(0),
            missed: AtomicU64::new(0),
        }
    }
}

impl<R> Memo<R> {
    /// Attaches the persistent tier (replacing any earlier one). Resident
    /// entries are unaffected.
    pub fn set_store(&self, store: Arc<dyn Persist<R>>) {
        *lock_unpoisoned(&self.store) = Some(store);
    }

    /// Fetches or computes (exactly once per key) the value for `key`.
    pub fn get(&self, key: u64, build: impl FnOnce() -> R) -> Arc<R> {
        let (value, fill) = fill_slot(&self.slots, key, || {
            let store = lock_unpoisoned(&self.store).clone();
            if let Some(store) = &store {
                if let Some(record) = store.load(key) {
                    return (Arc::new(record), Fill::Disk);
                }
                self.missed.fetch_add(1, Ordering::Relaxed);
            }
            let value = build();
            if let Some(store) = &store {
                store.save(key, &value);
            }
            (Arc::new(value), Fill::Built)
        });
        let counter = match fill {
            None => &self.hits,
            Some(Fill::Built) => &self.built,
            Some(Fill::Disk) => &self.loaded,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Snapshots the counters.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            built: self.built.load(Ordering::Relaxed),
            loaded: self.loaded.load(Ordering::Relaxed),
            missed: self.missed.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry and zeroes the counters (test isolation; also
    /// frees the memory of a long-lived process between suites). The
    /// persistent tier, if attached, stays attached.
    pub fn reset(&self) {
        // Hold the map lock for the whole reset so a concurrent request
        // can't observe cleared stats against a still-populated map.
        let mut slots = lock_unpoisoned(&self.slots);
        slots.clear();
        for counter in [&self.hits, &self.built, &self.loaded, &self.missed] {
            counter.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytes::{Encoder, Fingerprint};

    #[test]
    fn fnv_matches_known_vectors() {
        // Memo keys are `Fingerprint`s: standard FNV-1a test vectors.
        assert_eq!(Fingerprint::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fingerprint::new().u8(b'a').finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fill_slot_builds_once_and_coalesces() {
        let map: Mutex<HashMap<u64, Slot<u64>>> = Mutex::new(HashMap::new());
        let builds = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let (v, _) = fill_slot(&map, 7, || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        (Arc::new(42u64), Fill::Built)
                    });
                    assert_eq!(*v, 42);
                });
            }
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1, "build must run once");
    }

    #[test]
    fn panicking_build_keeps_the_key_retryable() {
        let map: Mutex<HashMap<u64, Slot<u64>>> = Mutex::new(HashMap::new());
        let attempt =
            std::panic::catch_unwind(AssertUnwindSafe(|| fill_slot(&map, 1, || panic!("boom"))));
        assert!(attempt.is_err());
        let (v, fill) = fill_slot(&map, 1, || (Arc::new(5u64), Fill::Built));
        assert_eq!(*v, 5, "key must be retryable after a failed build");
        assert!(fill.is_some(), "retry must actually rebuild");
    }

    /// An in-memory persistent tier.
    #[derive(Default)]
    struct MapStore(Mutex<HashMap<u64, u64>>);

    impl Persist<u64> for MapStore {
        fn load(&self, key: u64) -> Option<u64> {
            lock_unpoisoned(&self.0).get(&key).copied()
        }
        fn save(&self, key: u64, record: &u64) {
            lock_unpoisoned(&self.0).insert(key, *record);
        }
    }

    #[test]
    fn memo_reads_the_store_before_building_and_writes_after() {
        let store = Arc::new(MapStore::default());
        let cold: Memo<u64> = Memo::default();
        assert_eq!(*cold.get(3, || 30), 30, "no store: build runs");
        cold.set_store(store.clone());
        assert_eq!(*cold.get(3, || panic!("resident entry must hit")), 30);
        assert_eq!(*cold.get(4, || 40), 40);
        let s = cold.stats();
        assert_eq!((s.hits, s.built, s.loaded, s.missed), (1, 2, 0, 1));
        assert_eq!(store.load(4), Some(40), "a fresh build writes through");

        // A second memo over the same store loads instead of building.
        let warm: Memo<u64> = Memo::default();
        warm.set_store(store);
        assert_eq!(*warm.get(4, || panic!("store must satisfy")), 40);
        assert_eq!(*warm.get(5, || 50), 50);
        let s = warm.stats();
        assert_eq!((s.hits, s.built, s.loaded, s.missed), (0, 1, 1, 1));

        warm.reset();
        assert_eq!(warm.stats(), MemoStats::default());
        assert_eq!(*warm.get(5, || panic!("reset keeps the store")), 50);
    }
}
