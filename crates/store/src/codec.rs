//! (De)serialization of the workspace's artifacts: the [`Record`] impls of
//! workload sets, simulation results, accuracy records, weight-SQNR
//! surrogates and trained SynthNets. Records are written with the
//! workspace's one encoding ([`ola_tensor::bytes`]); a type that is also a
//! memo-key input (a shape, layer workload or SynthNet) writes itself with
//! its own `encode`, so its record bytes are exactly the bytes its keys
//! hash. Decoders read them back through [`crate::wire::Reader`].
//!
//! Every float travels by bit pattern, so a decoded artifact is
//! *bit-identical* to the one that was encoded — the property that lets a
//! warm disk cache reproduce a cold run's stdout byte for byte. Decoding
//! never panics on malformed bytes, and what it returns never makes a
//! consumer panic: every structural invariant (tags, dimensions, ranges,
//! lengths the models index by) is validated and surfaces as
//! [`StoreError::Corrupt`].

use crate::store::Record;
use crate::version::{EVAL_SOURCES, MODEL_SOURCES, PREP_SOURCES, SURROGATE_SOURCES, TRAIN_SOURCES};
use crate::wire::{corrupt, Reader, StoreError};
use ola_energy::EnergyBreakdown;
use ola_nn::synthnet::{param_lens, SynthDataset, SynthNet, TrainedSynthNet, IMG, IMG_C};
use ola_quant::accuracy::{QuantAccuracy, WeightSqnr};
use ola_sim::workload::{LayerKind, LayerWorkload, WorkloadSet};
use ola_sim::{EventRecord, LayerRun, Utilization};
use ola_tensor::bytes::{Encoder, Writer};
use ola_tensor::{Shape4, CHUNK_LANES};

/// Upper bound on any single tensor dimension accepted from disk — far
/// beyond anything the zoo produces, small enough that a corrupt length
/// fails validation instead of attempting an absurd allocation.
const MAX_DIM: u64 = 1 << 24;

/// Upper bound on a decoded shape's element count, so [`Shape4::len`]
/// never overflows.
const MAX_ELEMENTS: u64 = MAX_DIM * 16;

/// Upper bound on a layer's weight and activation bit widths: precision
/// passes multiply the two widths' nibble counts.
const MAX_BITS: u32 = 32;

// --- shapes ---

/// Decodes a shape written by [`Shape4::encode`], rejecting any
/// dimension above [`MAX_DIM`] and any element count above
/// [`MAX_ELEMENTS`].
fn decode_shape(r: &mut Reader<'_>) -> Result<Shape4, StoreError> {
    let dims = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
    let elements = dims.iter().try_fold(1u64, |acc, &d| acc.checked_mul(d));
    if dims.iter().any(|&d| d > MAX_DIM) || elements.is_none_or(|e| e > MAX_ELEMENTS) {
        return Err(corrupt(format!("implausible shape {dims:?}")));
    }
    let [n, c, h, w] = dims.map(|d| d as usize);
    Ok(Shape4::new(n, c, h, w))
}

// --- workload sets ---

/// Decodes a layer written by [`LayerWorkload::encode`], rejecting what
/// the accelerator models would index or overflow with (see
/// [`check_layer`]).
fn decode_layer(r: &mut Reader<'_>) -> Result<LayerWorkload, StoreError> {
    let layer = LayerWorkload {
        name: r.string()?,
        index: r.u64()? as usize,
        kind: match r.u8()? {
            0 => LayerKind::Conv,
            1 => LayerKind::Fc,
            other => return Err(corrupt(format!("unknown layer kind {other}"))),
        },
        in_shape: decode_shape(r)?,
        out_shape: decode_shape(r)?,
        kernel: r.u64()? as usize,
        macs: r.u64()?,
        weight_count: r.u64()?,
        weight_bits: r.u32()?,
        act_bits: r.u32()?,
        weight_zero_fraction: r.f64()?,
        act_zero_fraction: r.f64()?,
        weight_outlier_ratio: r.f64()?,
        act_outlier_nonzero_ratio: r.f64()?,
        act_effective_outlier_ratio: r.f64()?,
        chunk_nnz: r.bytes()?.to_vec(),
        chunk_zero_quads: r.bytes()?.to_vec(),
        wchunk_single_fraction: r.f64()?,
        wchunk_multi_fraction: r.f64()?,
        out_zero_fraction: r.f64()?,
    };
    check_layer(&layer)?;
    Ok(layer)
}

/// The invariants every extracted layer holds and the models rely on: one
/// zero-quad count per chunk, no chunk with more than [`CHUNK_LANES`]
/// non-zero lanes or more quads than it has, bit widths of at most
/// [`MAX_BITS`], every fraction in `[0, 1]` (so none is NaN), and at most
/// `input channels × kernel²` MACs per output element, so the units the
/// models run stay within the layer's shapes. (The MAC count includes
/// taps on zero padding, so input-output pairs do not bound it: a 3×3
/// kernel on a 2×2 map has more taps than pairs.)
fn check_layer(l: &LayerWorkload) -> Result<(), StoreError> {
    let fractions = [
        l.weight_zero_fraction,
        l.act_zero_fraction,
        l.weight_outlier_ratio,
        l.act_outlier_nonzero_ratio,
        l.act_effective_outlier_ratio,
        l.wchunk_single_fraction,
        l.wchunk_multi_fraction,
        l.out_zero_fraction,
    ];
    let taps = (l.kernel as u64).saturating_pow(2);
    let fault = if l.chunk_nnz.len() != l.chunk_zero_quads.len() {
        "chunk vectors of unequal length"
    } else if (l.chunk_nnz.iter().zip(&l.chunk_zero_quads)).any(|(&nnz, &quads)| {
        usize::from(nnz) > CHUNK_LANES || usize::from(quads) > CHUNK_LANES / 4
    }) {
        "a chunk with more non-zero lanes or zero quads than it has"
    } else if l.weight_bits > MAX_BITS || l.act_bits > MAX_BITS {
        "a bit width above 32"
    } else if fractions.iter().any(|f| !(0.0..=1.0).contains(f)) {
        "a fraction outside [0, 1]"
    } else if l.macs > (l.out_count() * l.in_shape.c as u64).saturating_mul(taps) {
        "more MACs than its outputs have kernel taps"
    } else {
        return Ok(());
    };
    Err(corrupt(format!("layer {:?}: {fault}", l.name)))
}

/// A full workload set: network and per-layer workloads.
impl Record for WorkloadSet {
    const KIND: u8 = 2;
    const PREFIX: &'static str = "ws";
    const SOURCES: &'static [&'static str] = PREP_SOURCES;

    fn encode(&self, w: &mut Writer) {
        w.str(&self.network);
        w.usize(self.layers.len());
        for l in &self.layers {
            l.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let network = r.string()?;
        let n = r.len(1)?;
        let mut layers = Vec::with_capacity(n);
        for _ in 0..n {
            layers.push(decode_layer(r)?);
        }
        Ok(WorkloadSet { network, layers })
    }
}

// --- simulation results ---

/// Upper bound on a persisted chunk-cycle histogram's length — the model
/// builds histograms indexed by cycles-per-chunk, which chunk statistics
/// bound far below this; a corrupt length fails here instead of allocating.
const MAX_HIST: usize = 1 << 20;

fn encode_utilization(w: &mut Writer, u: &Utilization) {
    w.u64(u.run_cycles);
    w.u64(u.skip_cycles);
    w.u64(u.idle_cycles);
}

fn decode_utilization(r: &mut Reader<'_>) -> Result<Utilization, StoreError> {
    Ok(Utilization {
        run_cycles: r.u64()?,
        skip_cycles: r.u64()?,
        idle_cycles: r.u64()?,
    })
}

/// A per-layer analytic simulation result: floats by exact bit pattern, so
/// a warm run's report is byte-identical to the cold run that wrote it.
impl Record for LayerRun {
    const KIND: u8 = 3;
    const PREFIX: &'static str = "simrun";
    const SOURCES: &'static [&'static str] = MODEL_SOURCES;

    fn encode(&self, w: &mut Writer) {
        w.str(&self.name);
        w.u64(self.cycles);
        w.f64(self.energy.dram);
        w.f64(self.energy.buffer);
        w.f64(self.energy.local);
        w.f64(self.energy.logic);
        encode_utilization(w, &self.utilization);
        w.usize(self.chunk_cycle_hist.len());
        for &c in &self.chunk_cycle_hist {
            w.u64(c);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let name = r.string()?;
        let cycles = r.u64()?;
        let energy = EnergyBreakdown {
            dram: r.f64()?,
            buffer: r.f64()?,
            local: r.f64()?,
            logic: r.f64()?,
        };
        let utilization = decode_utilization(r)?;
        let n = r.len(8)?;
        if n > MAX_HIST {
            return Err(corrupt(format!("implausible histogram length {n}")));
        }
        let mut chunk_cycle_hist = Vec::with_capacity(n);
        for _ in 0..n {
            chunk_cycle_hist.push(r.u64()?);
        }
        Ok(LayerRun {
            name,
            cycles,
            energy,
            utilization,
            chunk_cycle_hist,
        })
    }
}

/// An event-backend simulation result.
impl Record for EventRecord {
    const KIND: u8 = 4;
    const PREFIX: &'static str = "simev";
    const SOURCES: &'static [&'static str] = MODEL_SOURCES;

    fn encode(&self, w: &mut Writer) {
        w.u64(self.cycles);
        encode_utilization(w, &self.utilization);
        w.u64(self.outlier_busy);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(EventRecord {
            cycles: r.u64()?,
            utilization: decode_utilization(r)?,
            outlier_busy: r.u64()?,
        })
    }
}

/// A quantized-accuracy record: three `f64` bit patterns.
impl Record for QuantAccuracy {
    const KIND: u8 = 5;
    const PREFIX: &'static str = "eval";
    const SOURCES: &'static [&'static str] = EVAL_SOURCES;

    fn encode(&self, w: &mut Writer) {
        w.f64(self.top1);
        w.f64(self.topk);
        w.f64(self.realized_weight_ratio);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(QuantAccuracy {
            top1: r.f64()?,
            topk: r.f64()?,
            realized_weight_ratio: r.f64()?,
        })
    }
}

/// Fig3's weight-SQNR surrogate of one network: its per-spec means by
/// `f64` bit pattern.
impl Record for WeightSqnr {
    const KIND: u8 = 6;
    const PREFIX: &'static str = "wsqnr";
    const SOURCES: &'static [&'static str] = SURROGATE_SOURCES;

    fn encode(&self, w: &mut Writer) {
        w.usize(self.mean_db.len());
        for &m in &self.mean_db {
            w.f64(m);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let n = r.len(8)?;
        let mean_db = (0..n).map(|_| r.f64()).collect::<Result<_, _>>()?;
        Ok(WeightSqnr { mean_db })
    }
}

// --- trained SynthNets ---

/// Upper bound on a persisted SynthNet's class count — far above the
/// harness's 10-way task, small enough that a corrupt count fails here
/// instead of sizing a giant classifier.
const MAX_CLASSES: u64 = 1 << 12;

/// Encodes a split: its images (each length-prefixed), then its labels.
fn encode_split(w: &mut Writer, split: &SynthDataset) {
    w.usize(split.classes);
    w.usize(split.images.len());
    for img in &split.images {
        w.f32s(img);
    }
    w.usize(split.labels.len());
    for &label in &split.labels {
        w.usize(label);
    }
}

/// Decodes a split written by [`encode_split`] for a `classes`-way net:
/// every image `IMG_C·IMG·IMG` long, one label per image, each below
/// `classes` — what the forward and the top-k rank index by.
fn decode_split(r: &mut Reader<'_>, classes: usize) -> Result<SynthDataset, StoreError> {
    if r.u64()? != classes as u64 {
        return Err(corrupt("split class count differs from the net's"));
    }
    let n = r.len(8)?;
    let mut images = Vec::with_capacity(n);
    for _ in 0..n {
        let img = r.f32s()?;
        if img.len() != IMG_C * IMG * IMG {
            return Err(corrupt(format!("SynthNet image of length {}", img.len())));
        }
        images.push(img);
    }
    if r.len(8)? != n {
        return Err(corrupt("split label count differs from its image count"));
    }
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        match r.u64()? {
            label if label < classes as u64 => labels.push(label as usize),
            label => return Err(corrupt(format!("label {label} of a {classes}-way split"))),
        }
    }
    Ok(SynthDataset {
        images,
        labels,
        classes,
    })
}

/// A trained SynthNet with its two splits and full-precision baseline:
/// the class count, the ten parameter vectors in `SynthNet::params`
/// order, both splits and two `f64` bit patterns. Decoding checks every
/// length the forward indexes by, so no payload yields a net that reads
/// out of bounds.
impl Record for TrainedSynthNet {
    const KIND: u8 = 7;
    const PREFIX: &'static str = "synthnet";
    const SOURCES: &'static [&'static str] = TRAIN_SOURCES;

    fn encode(&self, w: &mut Writer) {
        self.net.encode(w);
        encode_split(w, &self.train);
        encode_split(w, &self.test);
        w.f64(self.fp_top1);
        w.f64(self.fp_top5);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let classes = r.u64()?;
        if classes == 0 || classes > MAX_CLASSES {
            return Err(corrupt(format!("SynthNet class count {classes}")));
        }
        let classes = classes as usize;
        let mut params: [Vec<f32>; 10] = Default::default();
        for (param, len) in params.iter_mut().zip(param_lens(classes)) {
            *param = r.f32s()?;
            if param.len() != len {
                return Err(corrupt(format!(
                    "SynthNet parameter of length {}, expected {len}",
                    param.len()
                )));
            }
        }
        let net = SynthNet { params, classes };
        Ok(TrainedSynthNet {
            net,
            train: decode_split(r, classes)?,
            test: decode_split(r, classes)?,
            fp_top1: r.f64()?,
            fp_top5: r.f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_run_codec_round_trips_bits() {
        let run = LayerRun {
            name: "conv2".into(),
            cycles: 987_654,
            energy: EnergyBreakdown {
                dram: 1.5,
                buffer: -0.0,
                local: f64::NAN,
                logic: 3.25e-7,
            },
            utilization: Utilization {
                run_cycles: 10,
                skip_cycles: 20,
                idle_cycles: 30,
            },
            chunk_cycle_hist: vec![0, 7, 0, 3],
        };
        let mut w = Writer::new();
        run.encode(&mut w);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        let back = LayerRun::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.name, run.name);
        assert_eq!(back.cycles, run.cycles);
        assert_eq!(back.energy.dram.to_bits(), run.energy.dram.to_bits());
        assert_eq!(back.energy.buffer.to_bits(), run.energy.buffer.to_bits());
        assert_eq!(back.energy.local.to_bits(), run.energy.local.to_bits());
        assert_eq!(back.energy.logic.to_bits(), run.energy.logic.to_bits());
        assert_eq!(back.utilization, run.utilization);
        assert_eq!(back.chunk_cycle_hist, run.chunk_cycle_hist);
    }

    #[test]
    fn eval_record_codec_round_trips_bits() {
        let acc = QuantAccuracy {
            top1: 0.91333333,
            topk: -0.0, // adversarial: bit pattern must survive
            realized_weight_ratio: f64::NAN,
        };
        let mut w = Writer::new();
        acc.encode(&mut w);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        let back = QuantAccuracy::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.top1.to_bits(), acc.top1.to_bits());
        assert_eq!(back.topk.to_bits(), acc.topk.to_bits());
        assert_eq!(
            back.realized_weight_ratio.to_bits(),
            acc.realized_weight_ratio.to_bits()
        );
    }

    #[test]
    fn weight_sqnr_codec_round_trips_bits() {
        let rec = WeightSqnr {
            mean_db: vec![21.25, -0.0, f64::NAN],
        };
        let mut w = Writer::new();
        rec.encode(&mut w);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        let back = WeightSqnr::decode(&mut r).unwrap();
        r.finish().unwrap();
        let bits = |s: &WeightSqnr| s.mean_db.iter().map(|m| m.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&rec));
    }

    #[test]
    fn trained_synthnet_codec_round_trips_bits() {
        let mut rec = TrainedSynthNet {
            net: SynthNet::new(3, 5),
            train: SynthDataset::generate(3, 3, 6),
            test: SynthDataset::generate(2, 3, 7),
            fp_top1: 0.5,
            fp_top5: -0.0,
        };
        rec.net.params[9][2] = f32::NAN;
        let mut w = Writer::new();
        rec.encode(&mut w);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        let back = TrainedSynthNet::decode(&mut r).unwrap();
        r.finish().unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (a, b) in rec.net.params.iter().zip(&back.net.params) {
            assert_eq!(bits(a), bits(b));
        }
        for (a, b) in [(&rec.train, &back.train), (&rec.test, &back.test)] {
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.classes, b.classes);
            for (x, y) in a.images.iter().zip(&b.images) {
                assert_eq!(bits(x), bits(y));
            }
        }
        assert_eq!(back.fp_top1.to_bits(), rec.fp_top1.to_bits());
        assert_eq!(back.fp_top5.to_bits(), rec.fp_top5.to_bits());
    }

    #[test]
    fn event_record_codec_round_trips() {
        let rec = EventRecord {
            cycles: 42,
            utilization: Utilization {
                run_cycles: 30,
                skip_cycles: 5,
                idle_cycles: 7,
            },
            outlier_busy: 11,
        };
        let mut w = Writer::new();
        rec.encode(&mut w);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        let back = EventRecord::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn corrupt_tags_are_errors_not_panics() {
        let mut w = Writer::new();
        w.str("conv1").u64(0).u8(9); // a layer's name, index, bogus kind tag
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert!(matches!(decode_layer(&mut r), Err(StoreError::Corrupt(_))));
    }
}
