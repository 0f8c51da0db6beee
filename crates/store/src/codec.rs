//! (De)serialization of the workspace's artifacts onto the [`crate::wire`]
//! primitives: the parameter and tensor codecs a prepared network's record
//! is built from, and the [`Record`] impls of workload sets, simulation
//! results, accuracy records, weight-SQNR surrogates and trained
//! SynthNets.
//!
//! Every float travels by bit pattern, so a decoded artifact is
//! *bit-identical* to the one that was encoded — the property that lets a
//! warm disk cache reproduce a cold run's stdout byte for byte. Decoding
//! never panics on malformed bytes: every structural invariant (tags,
//! dimensions, ranges) is validated and surfaces as
//! [`StoreError::Corrupt`].

use crate::store::Record;
use crate::version::{EVAL_SOURCES, MODEL_SOURCES, PREP_SOURCES, SURROGATE_SOURCES, TRAIN_SOURCES};
use crate::wire::{corrupt, Reader, StoreError, Writer};
use ola_energy::{ComparisonMode, EnergyBreakdown};
use ola_nn::network::WeightStore;
use ola_nn::synth::SyntheticMatrix;
use ola_nn::synthnet::{param_lens, SynthDataset, SynthNet, TrainedSynthNet, IMG, IMG_C};
use ola_nn::Params;
use ola_quant::accuracy::{QuantAccuracy, WeightSqnr};
use ola_sim::policy::FirstLayerPolicy;
use ola_sim::workload::{LayerKind, LayerWorkload, WorkloadSet};
use ola_sim::{EventRecord, LayerRun, OutlierSelect, QuantPolicy, Utilization};
use ola_tensor::init::HeavyTailed;
use ola_tensor::{Shape4, Tensor};

/// Upper bound on any single tensor dimension accepted from disk — far
/// beyond anything the zoo produces, small enough that a corrupt length
/// fails validation instead of attempting an absurd allocation.
const MAX_DIM: u64 = 1 << 24;

// --- shapes and tensors ---

/// Encodes a shape as four `u64`s (`n`, `c`, `h`, `w`).
fn encode_shape(w: &mut Writer, s: &Shape4) {
    for d in [s.n, s.c, s.h, s.w] {
        w.u64(d as u64);
    }
}

/// Decodes a shape written by [`encode_shape`], rejecting any dimension
/// above [`MAX_DIM`].
fn decode_shape(r: &mut Reader<'_>) -> Result<Shape4, StoreError> {
    let dims = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
    if dims.iter().any(|&d| d > MAX_DIM) {
        return Err(corrupt(format!("implausible shape {dims:?}")));
    }
    let [n, c, h, w] = dims.map(|d| d as usize);
    Ok(Shape4::new(n, c, h, w))
}

/// Encodes a tensor: its shape, then the length-prefixed data.
pub fn encode_tensor(w: &mut Writer, t: &Tensor) {
    encode_shape(w, &t.shape());
    w.f32s(t.as_slice());
}

/// Decodes a tensor written by [`encode_tensor`].
pub fn decode_tensor(r: &mut Reader<'_>) -> Result<Tensor, StoreError> {
    let shape = decode_shape(r)?;
    let len = [shape.n, shape.c, shape.h, shape.w]
        .iter()
        .try_fold(1u64, |acc, &d| acc.checked_mul(d as u64))
        .filter(|&l| l <= MAX_DIM * 16)
        .ok_or_else(|| corrupt("tensor element count overflows"))?;
    let data = r.f32s()?;
    if data.len() as u64 != len {
        return Err(corrupt(format!(
            "tensor data length {} does not match shape {shape}",
            data.len()
        )));
    }
    Ok(Tensor::from_vec(shape, data))
}

// --- parameters ---

const WS_NONE: u8 = 0;
const WS_DENSE: u8 = 1;
const WS_ROWGEN: u8 = 2;

fn encode_weight_store(w: &mut Writer, ws: &WeightStore) {
    match ws {
        WeightStore::Dense(t) => {
            w.u8(WS_DENSE);
            encode_tensor(w, t);
        }
        WeightStore::RowGen(g) => {
            // A generated matrix is five scalars: rows regenerate
            // bit-identically from (seed, row) on load.
            w.u8(WS_ROWGEN);
            w.u64(g.rows() as u64);
            w.u64(g.cols() as u64);
            let d = g.dist();
            w.f32(d.sigma);
            w.f64(d.tail_fraction);
            w.f32(d.tail_scale);
            w.f64(g.sparsity());
            w.u64(g.base_seed());
        }
    }
}

#[cfg(test)]
fn decode_weight_store(r: &mut Reader<'_>) -> Result<WeightStore, StoreError> {
    match r.u8()? {
        WS_DENSE => Ok(WeightStore::Dense(decode_tensor(r)?)),
        WS_ROWGEN => decode_rowgen_body(r),
        other => Err(corrupt(format!("unknown weight-store tag {other}"))),
    }
}

/// Encodes a parameter set: node count, then per node the optional
/// weights, bias and batch-norm affine terms.
pub fn encode_params(w: &mut Writer, params: &Params) {
    w.len(params.len());
    for id in 0..params.len() {
        match params.weights(id) {
            None => w.u8(WS_NONE),
            Some(ws) => encode_weight_store(w, ws),
        }
        match params.bias(id) {
            None => w.u8(0),
            Some(b) => {
                w.u8(1);
                w.f32s(b);
            }
        }
        match params.bn(id) {
            None => w.u8(0),
            Some((scale, shift)) => {
                w.u8(1);
                w.f32s(scale);
                w.f32s(shift);
            }
        }
    }
}

/// Decodes a parameter set written by [`encode_params`].
pub fn decode_params(r: &mut Reader<'_>) -> Result<Params, StoreError> {
    let n = r.len(3)?;
    let mut params = Params::sized(n);
    for id in 0..n {
        match r.u8()? {
            WS_NONE => {}
            WS_DENSE => params.set_weights(id, WeightStore::Dense(decode_tensor(r)?)),
            WS_ROWGEN => params.set_weights(id, decode_rowgen_body(r)?),
            other => return Err(corrupt(format!("unknown weight-store tag {other}"))),
        }
        if r.u8()? == 1 {
            params.set_bias(id, r.f32s()?);
        }
        if r.u8()? == 1 {
            let scale = r.f32s()?;
            let shift = r.f32s()?;
            params.set_bn(id, scale, shift);
        }
    }
    Ok(params)
}

/// Decodes the body of a row-generator record (tag already consumed),
/// re-validating every constructor precondition so corrupt bytes surface
/// as [`StoreError::Corrupt`] rather than panicking inside `ola-nn`.
fn decode_rowgen_body(r: &mut Reader<'_>) -> Result<WeightStore, StoreError> {
    let rows = r.u64()?;
    let cols = r.u64()?;
    let sigma = r.f32()?;
    let tail_fraction = r.f64()?;
    let tail_scale = r.f32()?;
    let sparsity = r.f64()?;
    let seed = r.u64()?;
    if rows == 0 || cols == 0 || rows > MAX_DIM || cols > MAX_DIM {
        return Err(corrupt("row-generator dimensions out of range"));
    }
    if !(0.0..=1.0).contains(&sparsity) || !(0.0..=1.0).contains(&tail_fraction) {
        return Err(corrupt("row-generator fraction out of range"));
    }
    if !sigma.is_finite() || sigma <= 0.0 || !tail_scale.is_finite() || tail_scale <= 0.0 {
        return Err(corrupt("row-generator scale out of range"));
    }
    Ok(WeightStore::RowGen(SyntheticMatrix::new(
        rows as usize,
        cols as usize,
        HeavyTailed::new(sigma, tail_fraction, tail_scale),
        sparsity,
        seed,
    )))
}

// --- quantization policy ---

/// Encodes every policy field, floats by exact bit pattern: the canonical
/// form [`policy_fingerprint`] hashes.
fn encode_policy(w: &mut Writer, p: &QuantPolicy) {
    w.u8(match p.mode {
        ComparisonMode::Bits16 => 0,
        ComparisonMode::Bits8 => 1,
    });
    w.u32(p.low_bits);
    w.f64(p.outlier_ratio);
    w.u8(match p.first_layer {
        FirstLayerPolicy::RawActs => 0,
        FirstLayerPolicy::RawActsWideWeights => 1,
        FirstLayerPolicy::FineTuned4Bit => 2,
    });
    match p.select {
        OutlierSelect::MagnitudePercentile => w.u8(0),
        OutlierSelect::WindowedTopK { window } => {
            w.u8(1);
            w.u64(window as u64);
        }
        OutlierSelect::SensitivityWeighted { window } => {
            w.u8(2);
            w.u64(window as u64);
        }
    }
}

/// A policy's content-address fingerprint: the FNV of its canonical
/// encoding, with the outlier ratio's `-0.0` folded onto `0.0` and every
/// NaN onto the quiet NaN, so policies that extract identically share one
/// workload-set key — in memory and on disk.
pub fn policy_fingerprint(p: &QuantPolicy) -> u64 {
    let mut canon = *p;
    canon.outlier_ratio = if canon.outlier_ratio == 0.0 {
        0.0
    } else if canon.outlier_ratio.is_nan() {
        f64::from_bits(0x7ff8_0000_0000_0000)
    } else {
        canon.outlier_ratio
    };
    let mut w = Writer::new();
    encode_policy(&mut w, &canon);
    ola_tensor::memo::fnv1a64(&w.into_bytes())
}

// --- workload sets ---

fn encode_layer(w: &mut Writer, l: &LayerWorkload) {
    w.string(&l.name);
    w.u64(l.index as u64);
    w.u8(match l.kind {
        LayerKind::Conv => 0,
        LayerKind::Fc => 1,
    });
    encode_shape(w, &l.in_shape);
    encode_shape(w, &l.out_shape);
    w.u64(l.kernel as u64);
    w.u64(l.macs);
    w.u64(l.weight_count);
    w.u32(l.weight_bits);
    w.u32(l.act_bits);
    w.f64(l.weight_zero_fraction);
    w.f64(l.act_zero_fraction);
    w.f64(l.weight_outlier_ratio);
    w.f64(l.act_outlier_nonzero_ratio);
    w.f64(l.act_effective_outlier_ratio);
    w.bytes(&l.chunk_nnz);
    w.bytes(&l.chunk_zero_quads);
    w.f64(l.wchunk_single_fraction);
    w.f64(l.wchunk_multi_fraction);
    w.f64(l.out_zero_fraction);
}

fn decode_layer(r: &mut Reader<'_>) -> Result<LayerWorkload, StoreError> {
    Ok(LayerWorkload {
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
    })
}

/// A full workload set: network and per-layer workloads.
impl Record for WorkloadSet {
    const KIND: u8 = 2;
    const PREFIX: &'static str = "ws";
    const SOURCES: &'static [&'static str] = PREP_SOURCES;

    fn encode(&self, w: &mut Writer) {
        w.string(&self.network);
        w.len(self.layers.len());
        for l in &self.layers {
            encode_layer(w, l);
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
        w.string(&self.name);
        w.u64(self.cycles);
        w.f64(self.energy.dram);
        w.f64(self.energy.buffer);
        w.f64(self.energy.local);
        w.f64(self.energy.logic);
        encode_utilization(w, &self.utilization);
        w.len(self.chunk_cycle_hist.len());
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
        w.len(self.mean_db.len());
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
    w.len(split.classes);
    w.len(split.images.len());
    for img in &split.images {
        w.f32s(img);
    }
    w.len(split.labels.len());
    for &label in &split.labels {
        w.len(label);
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
/// the class count, the ten parameter vectors in field order, both splits
/// and two `f64` bit patterns. Decoding checks every length the forward
/// indexes by, so no payload yields a net that reads out of bounds.
impl Record for TrainedSynthNet {
    const KIND: u8 = 7;
    const PREFIX: &'static str = "synthnet";
    const SOURCES: &'static [&'static str] = TRAIN_SOURCES;

    fn encode(&self, w: &mut Writer) {
        w.len(self.net.classes);
        for p in self.net.params() {
            w.f32s(p);
        }
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
        let [l1, n1, l2, n2, l3, n3, l4, n4, l5, n5] = param_lens(classes);
        let mut param = |len: usize| -> Result<Vec<f32>, StoreError> {
            let v = r.f32s()?;
            if v.len() != len {
                return Err(corrupt(format!(
                    "SynthNet parameter of length {}, expected {len}",
                    v.len()
                )));
            }
            Ok(v)
        };
        let net = SynthNet {
            w1: param(l1)?,
            b1: param(n1)?,
            w2: param(l2)?,
            b2: param(n2)?,
            w3: param(l3)?,
            b3: param(n3)?,
            w4: param(l4)?,
            b4: param(n4)?,
            w5: param(l5)?,
            b5: param(n5)?,
            classes,
        };
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
    fn tensor_codec_round_trips_bits() {
        let t = Tensor::from_vec(
            Shape4::new(1, 2, 2, 2),
            vec![0.0, -0.0, f32::NAN, 1.5, -2.5, f32::INFINITY, 3.0, -4.0],
        );
        let mut w = Writer::new();
        encode_tensor(&mut w, &t);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        let back = decode_tensor(&mut r).unwrap();
        r.finish().unwrap();
        let a: Vec<u32> = t.as_slice().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = back.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
        assert_eq!(back.shape(), t.shape());
    }

    #[test]
    fn params_codec_round_trips_every_store_kind() {
        let mut params = Params::sized(4);
        params.set_weights(
            1,
            WeightStore::Dense(Tensor::from_vec(
                Shape4::new(2, 1, 1, 2),
                vec![1.0, -2.0, 0.0, 4.5],
            )),
        );
        params.set_bias(1, vec![0.5, -0.5]);
        params.set_weights(
            2,
            WeightStore::RowGen(SyntheticMatrix::new(
                8,
                16,
                HeavyTailed::new(0.02, 0.03, 6.0),
                0.9,
                1234,
            )),
        );
        params.set_bn(3, vec![1.0, 2.0], vec![-1.0, -2.0]);

        let mut w = Writer::new();
        encode_params(&mut w, &params);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        let back = decode_params(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(back.len(), 4);
        assert!(back.weights(0).is_none());
        match (params.weights(2).unwrap(), back.weights(2).unwrap()) {
            (WeightStore::RowGen(a), WeightStore::RowGen(b)) => {
                assert_eq!(a, b);
                assert_eq!(a.row(3), b.row(3), "regenerated rows must match");
            }
            other => panic!("expected row generators, got {other:?}"),
        }
        match back.weights(1).unwrap() {
            WeightStore::Dense(t) => assert_eq!(t.as_slice(), &[1.0, -2.0, 0.0, 4.5]),
            other => panic!("expected dense weights, got {other:?}"),
        }
        assert_eq!(back.bias(1).unwrap(), &[0.5, -0.5]);
        assert_eq!(back.bn(3).unwrap().0, &[1.0, 2.0]);
    }

    #[test]
    fn policy_fingerprint_separates_every_field() {
        let base = QuantPolicy::olaccel16("alexnet");
        let variants = [
            QuantPolicy {
                mode: ComparisonMode::Bits8,
                ..base
            },
            QuantPolicy {
                low_bits: 3,
                ..base
            },
            QuantPolicy {
                outlier_ratio: 0.01,
                ..base
            },
            QuantPolicy {
                first_layer: FirstLayerPolicy::RawActsWideWeights,
                ..base
            },
            QuantPolicy {
                first_layer: FirstLayerPolicy::FineTuned4Bit,
                ..base
            },
            QuantPolicy {
                select: OutlierSelect::WindowedTopK { window: 16 },
                ..base
            },
            QuantPolicy {
                select: OutlierSelect::WindowedTopK { window: 8 },
                ..base
            },
            QuantPolicy {
                select: OutlierSelect::SensitivityWeighted { window: 16 },
                ..base
            },
        ];
        let mut prints: Vec<u64> = variants.iter().map(policy_fingerprint).collect();
        prints.push(policy_fingerprint(&base));
        let n = prints.len();
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(prints.len(), n, "every field must move the fingerprint");
    }

    #[test]
    fn policy_fingerprint_canonicalizes_f64_noise() {
        let mut a = QuantPolicy::olaccel16("alexnet");
        let mut b = a;
        a.outlier_ratio = 0.0;
        b.outlier_ratio = -0.0;
        assert_eq!(policy_fingerprint(&a), policy_fingerprint(&b));
        a.outlier_ratio = f64::NAN;
        b.outlier_ratio = -f64::NAN;
        assert_eq!(policy_fingerprint(&a), policy_fingerprint(&b));
        b.outlier_ratio = 0.01;
        assert_ne!(policy_fingerprint(&a), policy_fingerprint(&b));
        let mut c = QuantPolicy::olaccel16("alexnet");
        c.select = OutlierSelect::WindowedTopK { window: 16 };
        assert_ne!(
            policy_fingerprint(&QuantPolicy::olaccel16("alexnet")),
            policy_fingerprint(&c),
            "selection rule must change the fingerprint"
        );
    }

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
        rec.net.b5[2] = f32::NAN;
        let mut w = Writer::new();
        rec.encode(&mut w);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        let back = TrainedSynthNet::decode(&mut r).unwrap();
        r.finish().unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (a, b) in rec.net.params().iter().zip(back.net.params()) {
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
        w.u8(9); // bogus weight-store tag
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert!(matches!(
            decode_weight_store(&mut r),
            Err(StoreError::Corrupt(_))
        ));
    }
}
