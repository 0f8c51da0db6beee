//! The on-disk artifact store: framed, checksummed, atomically-committed
//! files, one per `(record kind, key, code version)`.
//!
//! Every persisted value is a [`Record`]: a kind tag, a file-name prefix,
//! the list of source files its bytes depend on, and an encode/decode
//! pair. [`ArtifactStore::put`] and [`ArtifactStore::get`] are the one
//! write and the one read path for every kind, and the blanket
//! [`Persist`] impl below is how the store slots under every
//! [`ola_tensor::memo::Memo`] in the workspace.
//!
//! A record lives at `{PREFIX}-{key:016x}-v{version:016x}.olas`, where
//! `key` is the memo key (a content fingerprint) and `version` folds the
//! kind's source list (see [`crate::version`]). File layout
//! (little-endian throughout):
//!
//! ```text
//! magic        4 bytes  "OLAS"
//! format       u32      FORMAT_VERSION
//! kind         u8       Record::KIND
//! key          u64      the memo key
//! version      u64      the kind's version fold at write time
//! payload_len  u64
//! checksum     u64      FNV-1a over the payload bytes
//! payload      payload_len bytes (Record::encode)
//! ```
//!
//! The key fields live both in the *filename* (so a stale code version
//! simply never hits) and in the *header* (so a renamed or hand-copied
//! file still can't be served under the wrong key). Writes go to a
//! temporary file in the same directory and commit with an atomic
//! `rename`, so a concurrent reader either sees the complete artifact or
//! no artifact — never a torn one.

use crate::version::{sources_version, FORMAT_VERSION};
use crate::wire::{corrupt, Reader, StoreError};
use ola_sim::timing::{timed, Phase};
use ola_tensor::bytes::{fnv1a64, Encoder, Writer};
use ola_tensor::memo::Persist;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

const MAGIC: &[u8; 4] = b"OLAS";

/// Distinguishes concurrent writers' temporary files within one process.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A value the store persists, one file per key.
///
/// Kind tags in use: 2 workload set, 3 analytic sim record, 4 event sim
/// record, 5 accuracy-eval record, 6 weight-SQNR surrogate, 7 trained
/// SynthNet (2 to 7 in [`crate::codec`]), 8 fig16's static-threshold counts
/// (`ola-harness`). Tag 1 and the prefix `prep` are retired: they named a
/// prepared network's parameters and activations, which the store no
/// longer holds, and stay unused so an old `prep-*.olas` file can never be
/// read as another kind.
pub trait Record: Sized {
    /// Header tag, unique per record type.
    const KIND: u8;
    /// File-name prefix, unique per record type.
    const PREFIX: &'static str;
    /// Source files whose text determines the record's bytes; their fold
    /// versions the record's files (see [`crate::version`]).
    const SOURCES: &'static [&'static str];
    /// Appends the payload encoding.
    fn encode(&self, w: &mut Writer);
    /// Decodes a payload written by [`Record::encode`]. Must return an
    /// error, never panic, on malformed bytes.
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError>;
}

/// A directory of content-addressed artifacts.
pub struct ArtifactStore {
    dir: PathBuf,
    /// Each kind's version fold, computed on first use.
    versions: [OnceLock<u64>; 256],
}

impl ArtifactStore {
    /// Opens (creating if necessary) the store rooted at `dir`.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        fs::create_dir_all(dir)?;
        Ok(ArtifactStore {
            dir: dir.to_path_buf(),
            versions: std::array::from_fn(|_| OnceLock::new()),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn version<R: Record>(&self) -> u64 {
        *self.versions[usize::from(R::KIND)].get_or_init(|| sources_version(R::SOURCES))
    }

    /// Path of the `R` record under `key` for this build's version.
    pub fn path<R: Record>(&self, key: u64) -> PathBuf {
        self.dir.join(format!(
            "{}-{key:016x}-v{:016x}.olas",
            R::PREFIX,
            self.version::<R>()
        ))
    }

    /// Persists `record` under `key`: frames the payload with the header
    /// and atomically commits it via a same-directory temporary file +
    /// `rename`.
    pub fn put<R: Record>(&self, key: u64, record: &R) -> Result<(), StoreError> {
        let mut payload = Writer::new();
        record.encode(&mut payload);
        let payload = payload.into_bytes();
        let mut header = Writer::new();
        header.raw(MAGIC);
        header.u32(FORMAT_VERSION);
        header.u8(R::KIND);
        header.u64(key);
        header.u64(self.version::<R>());
        header.usize(payload.len());
        header.u64(fnv1a64(&payload));

        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let mut f = fs::File::create(&tmp)?;
        let written = f
            .write_all(&header.into_bytes())
            .and_then(|()| f.write_all(&payload))
            .and_then(|()| f.sync_all());
        drop(f);
        if let Err(e) = written.and_then(|()| fs::rename(&tmp, self.path::<R>(key))) {
            let _ = fs::remove_file(&tmp);
            return Err(e.into());
        }
        Ok(())
    }

    /// Loads the `R` record under `key`. `Ok(None)` means "not stored"
    /// (including "stored by a different code version" — the filename
    /// won't match); `Err(Corrupt)` means the file exists but its bytes
    /// can't be trusted, and the caller should recompute.
    pub fn get<R: Record>(&self, key: u64) -> Result<Option<R>, StoreError> {
        let bytes = match fs::read(self.path::<R>(key)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut r = Reader::new(&bytes);
        if r.take(4)? != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let format = r.u32()?;
        if format != FORMAT_VERSION {
            return Err(corrupt(format!(
                "format version {format}, expected {FORMAT_VERSION}"
            )));
        }
        if r.u8()? != R::KIND || r.u64()? != key {
            return Err(corrupt("artifact key does not match its filename"));
        }
        if r.u64()? != self.version::<R>() {
            // Can only happen on a renamed/copied file; the filename
            // normally embeds the version.
            return Err(corrupt("artifact written by a different code version"));
        }
        let payload_len = r.len(1)?;
        let checksum = r.u64()?;
        let payload = r.take(payload_len)?;
        r.finish()?;
        if fnv1a64(payload) != checksum {
            return Err(corrupt("payload checksum mismatch"));
        }
        let mut r = Reader::new(payload);
        let record = R::decode(&mut r)?;
        r.finish()?;
        Ok(Some(record))
    }
}

/// Every record kind's persistent tier. Maps the `Result`s above onto the
/// [`Persist`] contract — a broken store degrades to a cold cache, never a
/// failed run — and times every load under [`Phase::Load`].
impl<R: Record> Persist<R> for ArtifactStore {
    fn load(&self, key: u64) -> Option<R> {
        match timed(Phase::Load, || self.get(key)) {
            Ok(found) => found,
            Err(e) => {
                eprintln!(
                    "warning: ignoring unreadable {} record {key:016x} in {} ({e}); recomputing",
                    R::PREFIX,
                    self.dir.display()
                );
                None
            }
        }
    }

    fn save(&self, key: u64, record: &R) {
        if let Err(e) = self.put(key, record) {
            eprintln!(
                "warning: failed to persist {} record {key:016x} to {}: {e}",
                R::PREFIX,
                self.dir.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;
    use ola_quant::accuracy::QuantAccuracy;
    use ola_sim::workload::{LayerKind, LayerWorkload, WorkloadSet};
    use ola_sim::{EventRecord, LayerRun};
    use ola_tensor::Shape4;

    fn sample_workloads() -> WorkloadSet {
        WorkloadSet {
            network: "alexnet".into(),
            layers: vec![LayerWorkload {
                name: "conv1".into(),
                index: 0,
                kind: LayerKind::Conv,
                in_shape: Shape4::new(1, 3, 8, 8),
                out_shape: Shape4::new(1, 16, 4, 4),
                kernel: 3,
                // Every kernel tap of every output: 4·4·16 outputs × 3·9.
                macs: 6912,
                weight_count: 432,
                weight_bits: 4,
                act_bits: 16,
                weight_zero_fraction: 0.5,
                act_zero_fraction: 0.25,
                weight_outlier_ratio: 0.035,
                act_outlier_nonzero_ratio: 0.05,
                act_effective_outlier_ratio: 0.0375,
                chunk_nnz: vec![3, 0, 16],
                chunk_zero_quads: vec![1, 4, 0],
                wchunk_single_fraction: 0.3,
                wchunk_multi_fraction: 0.05,
                out_zero_fraction: 0.6,
            }],
        }
    }

    #[test]
    fn workload_round_trip_and_missing() {
        let dir = test_dir("store-ws");
        let store = ArtifactStore::open(&dir).unwrap();
        assert!(store.get::<WorkloadSet>(9).unwrap().is_none());
        let ws = sample_workloads();
        store.put(9, &ws).unwrap();
        let back = store.get::<WorkloadSet>(9).unwrap().unwrap();
        // Float `Debug` output round-trips, so equal text is equal bits.
        assert_eq!(format!("{back:?}"), format!("{ws:?}"));
        // A different key misses without touching the stored artifact, and
        // the same key under another kind is a separate namespace.
        assert!(store.get::<WorkloadSet>(10).unwrap().is_none());
        assert!(store.get::<LayerRun>(9).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sim_records_round_trip_through_the_trait() {
        use ola_energy::EnergyBreakdown;
        use ola_sim::Utilization;

        let dir = test_dir("store-sim");
        let store = ArtifactStore::open(&dir).unwrap();
        let runs: &dyn Persist<LayerRun> = &store;
        let events: &dyn Persist<EventRecord> = &store;

        assert!(runs.load(0xABCD).is_none());
        let run = LayerRun {
            name: "conv3".into(),
            cycles: 4242,
            energy: EnergyBreakdown {
                dram: 1.0,
                buffer: 2.0,
                local: 3.0,
                logic: 4.0,
            },
            utilization: Utilization {
                run_cycles: 4000,
                skip_cycles: 100,
                idle_cycles: 142,
            },
            chunk_cycle_hist: vec![1, 0, 9],
        };
        runs.save(0xABCD, &run);
        let back = runs.load(0xABCD).unwrap();
        assert_eq!(back.cycles, run.cycles);
        assert_eq!(back.energy.dram.to_bits(), run.energy.dram.to_bits());
        assert_eq!(back.utilization, run.utilization);
        assert_eq!(back.chunk_cycle_hist, run.chunk_cycle_hist);
        // A different fingerprint misses; same fingerprint under the other
        // record kind is a separate namespace.
        assert!(runs.load(0xABCE).is_none());
        assert!(events.load(0xABCD).is_none());

        let rec = EventRecord {
            cycles: 17,
            utilization: Utilization {
                run_cycles: 10,
                skip_cycles: 2,
                idle_cycles: 90,
            },
            outlier_busy: 5,
        };
        events.save(0xABCD, &rec);
        assert_eq!(events.load(0xABCD).unwrap(), rec);

        // Corruption degrades to a miss through the trait (warn + None),
        // not an error.
        let path = store.path::<LayerRun>(0xABCD);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.get::<LayerRun>(0xABCD),
            Err(StoreError::Corrupt(_))
        ));
        assert!(runs.load(0xABCD).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn eval_records_round_trip_through_the_trait() {
        let dir = test_dir("store-eval");
        let store = ArtifactStore::open(&dir).unwrap();
        let tier: &dyn Persist<QuantAccuracy> = &store;

        assert!(tier.load(0xE0A1).is_none());
        let acc = QuantAccuracy {
            top1: 0.87,
            topk: 0.99,
            realized_weight_ratio: 0.0305,
        };
        tier.save(0xE0A1, &acc);
        let back = tier.load(0xE0A1).unwrap();
        assert_eq!(back.top1.to_bits(), acc.top1.to_bits());
        assert_eq!(back.topk.to_bits(), acc.topk.to_bits());
        assert_eq!(
            back.realized_weight_ratio.to_bits(),
            acc.realized_weight_ratio.to_bits()
        );
        // A different fingerprint misses; the same fingerprint under a sim
        // record kind is a separate namespace.
        assert!(tier.load(0xE0A2).is_none());
        assert!(store.get::<LayerRun>(0xE0A1).unwrap().is_none());

        // Corruption degrades to a miss through the trait (warn + None).
        let path = store.path::<QuantAccuracy>(0xE0A1);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.get::<QuantAccuracy>(0xE0A1),
            Err(StoreError::Corrupt(_))
        ));
        assert!(tier.load(0xE0A1).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_detected_not_panicked() {
        let dir = test_dir("store-corrupt");
        let store = ArtifactStore::open(&dir).unwrap();
        let ws = sample_workloads();
        store.put(9, &ws).unwrap();
        let path = store.path::<WorkloadSet>(9);

        // Flip one payload byte: checksum must catch it.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.get::<WorkloadSet>(9),
            Err(StoreError::Corrupt(_))
        ));

        // Truncate mid-header.
        fs::write(&path, &bytes[..7]).unwrap();
        assert!(matches!(
            store.get::<WorkloadSet>(9),
            Err(StoreError::Corrupt(_))
        ));

        // Garbage magic.
        fs::write(&path, b"NOPE").unwrap();
        assert!(matches!(
            store.get::<WorkloadSet>(9),
            Err(StoreError::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn renamed_artifact_fails_key_check() {
        let dir = test_dir("store-rename");
        let store = ArtifactStore::open(&dir).unwrap();
        let ws = sample_workloads();
        store.put(9, &ws).unwrap();
        fs::rename(store.path::<WorkloadSet>(9), store.path::<WorkloadSet>(10)).unwrap();
        assert!(matches!(
            store.get::<WorkloadSet>(10),
            Err(StoreError::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
