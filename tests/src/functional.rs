//! End-to-end *functional* execution of a convolution through the OLAccel
//! datapath: real tensors are outlier-aware quantized onto aligned grids,
//! the weights are packed into 80-bit chunks, and every MAC runs through
//! the bit-exact PE-group model of [`crate::datapath`] — with the zero-skip
//! scanner and outlier-activation routing counted cycle by cycle.
//!
//! This closes the loop between the numerical story (quantization) and the
//! architectural story (cycles): the unit tests check the computed feature
//! maps against the f32 reference of the fake-quantized operands, and
//! [`execute`] yields the exact [`UnitJob`] of every unit it runs, so
//! `tests/tests/cycle_differential.rs` can hold the event simulation and
//! the closed form to the counted cycles exactly.

use crate::datapath::{broadcast, PsumBank};
use ola_core::event::UnitJob;
use ola_quant::chunks::{encode_group, QuantizedWeight, WeightChunk, CHUNK_WEIGHTS};
use ola_quant::outlier::OutlierQuantizer;
use ola_tensor::{Shape4, Tensor};

/// A convolution layer packed for the OLAccel datapath.
#[derive(Clone, Debug)]
pub struct PackedConv {
    /// Base/overflow chunk per (oc_group, in_channel, ky, kx).
    chunks: Vec<(WeightChunk, Option<WeightChunk>)>,
    oc_groups: usize,
    in_channels: usize,
    kernel: usize,
    out_channels: usize,
    stride: usize,
    pad: usize,
    /// Shared grid scale (aligned low/high grids).
    weight_scale: f32,
}

impl PackedConv {
    /// Quantizes `weights` (shape `(Co, Ci, K, K)`) outlier-aware onto
    /// aligned grids and packs them into hardware chunks.
    ///
    /// # Panics
    ///
    /// Panics if the weights are all zero.
    pub fn pack(
        weights: &Tensor,
        outlier_ratio: f64,
        stride: usize,
        pad: usize,
    ) -> (Self, OutlierQuantizer) {
        let s = weights.shape();
        let (co, ci, k) = (s.n, s.c, s.h);
        let nonzero: Vec<f32> = weights.iter().copied().filter(|&v| v != 0.0).collect();
        let quant = OutlierQuantizer::fit_aligned(&nonzero, outlier_ratio, 4, 8);

        let oc_groups = co.div_ceil(CHUNK_WEIGHTS);
        let mut chunks = Vec::with_capacity(oc_groups * ci * k * k);
        for g in 0..oc_groups {
            for c in 0..ci {
                for ky in 0..k {
                    for kx in 0..k {
                        let mut group = Vec::with_capacity(CHUNK_WEIGHTS);
                        for lane in 0..CHUNK_WEIGHTS {
                            let oc = g * CHUNK_WEIGHTS + lane;
                            if oc >= co {
                                group.push(QuantizedWeight::normal(0));
                                continue;
                            }
                            let v = weights.get(oc, c, ky, kx);
                            if v != 0.0 && quant.is_outlier(v) {
                                group.push(QuantizedWeight::outlier(quant.high().quantize(v)));
                            } else {
                                group.push(QuantizedWeight::normal(quant.low().quantize(v)));
                            }
                        }
                        let (base, overflow) = encode_group(&group);
                        chunks.push((base, overflow));
                    }
                }
            }
        }
        let packed = PackedConv {
            chunks,
            oc_groups,
            in_channels: ci,
            kernel: k,
            out_channels: co,
            stride,
            pad,
            weight_scale: quant.low().scale(),
        };
        (packed, quant)
    }

    fn chunk_at(
        &self,
        g: usize,
        c: usize,
        ky: usize,
        kx: usize,
    ) -> &(WeightChunk, Option<WeightChunk>) {
        let k = self.kernel;
        &self.chunks[((g * self.in_channels + c) * k + ky) * k + kx]
    }

    /// Whether the chunk of output-channel group `g` at input channel `c`
    /// and kernel offset `(ky, kx)` carries two or more outliers, so each
    /// broadcast against it takes the two-cycle path.
    pub fn is_multi_outlier(&self, g: usize, c: usize, ky: usize, kx: usize) -> bool {
        self.chunk_at(g, c, ky, kx).0.is_multi_outlier()
    }

    /// Fraction of packed chunks that carry an overflow chunk (the
    /// two-cycle path).
    pub fn multi_outlier_fraction(&self) -> f64 {
        let multi = self
            .chunks
            .iter()
            .filter(|(b, _)| b.is_multi_outlier())
            .count();
        multi as f64 / self.chunks.len().max(1) as f64
    }
}

/// Execution statistics of a functional run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FunctionalStats {
    /// Broadcast cycles on the dense path (including two-cycle chunks).
    pub run_cycles: u64,
    /// Zero-skip scan cycles (all-zero quads).
    pub skip_cycles: u64,
    /// Broadcasts routed to the outlier PE group (outlier activations).
    pub outlier_broadcasts: u64,
}

/// Quantized input activations with their aligned quantizer.
#[derive(Clone, Debug)]
pub struct QuantizedActs {
    /// Integer levels, same layout as the source tensor; outlier positions
    /// carry their (aligned, wider) level.
    pub levels: Vec<i32>,
    /// Which positions are outlier activations.
    pub outlier: Vec<bool>,
    /// Source shape.
    pub shape: Shape4,
    /// Shared grid scale.
    pub scale: f32,
}

/// Quantizes activations onto an aligned 4-bit grid with 16-bit outliers.
///
/// # Panics
///
/// Panics if `acts` is all zero.
pub fn quantize_acts(acts: &Tensor, outlier_ratio: f64) -> QuantizedActs {
    let nonzero: Vec<f32> = acts.iter().copied().filter(|&v| v != 0.0).collect();
    let quant = OutlierQuantizer::fit_aligned(&nonzero, outlier_ratio, 4, 16);
    let mut levels = Vec::with_capacity(acts.len());
    let mut outlier = Vec::with_capacity(acts.len());
    for &v in acts.iter() {
        if v != 0.0 && quant.is_outlier(v) {
            levels.push(quant.high().quantize(v));
            outlier.push(true);
        } else {
            levels.push(quant.low().quantize(v));
            outlier.push(false);
        }
    }
    QuantizedActs {
        levels,
        outlier,
        shape: acts.shape(),
        scale: quant.low().scale(),
    }
}

/// Runs the packed convolution over quantized activations through the
/// bit-exact datapath, returning the dequantized output feature map, the
/// cycle statistics, and the [`UnitJob`] of every unit in execution order.
///
/// A unit is one activation chunk (the 16-lane slice of input channels at
/// one in-bounds input position) against one output-channel group's
/// weight column at one kernel offset. The scanner walks only the chunk's
/// real lanes, so a quad past the last input channel costs nothing here.
/// A job's cycles are derived from its counts, while `FunctionalStats`
/// sums what [`broadcast`] actually returned.
pub fn execute(conv: &PackedConv, acts: &QuantizedActs) -> (Tensor, FunctionalStats, Vec<UnitJob>) {
    let s = acts.shape;
    assert_eq!(s.c, conv.in_channels, "channel mismatch");
    let k = conv.kernel;
    let oh = (s.h + 2 * conv.pad - k) / conv.stride + 1;
    let ow = (s.w + 2 * conv.pad - k) / conv.stride + 1;
    let mut out = Tensor::zeros(Shape4::new(s.n, conv.out_channels, oh, ow));
    let mut stats = FunctionalStats::default();
    let mut jobs = Vec::new();
    let out_scale = conv.weight_scale * acts.scale;

    let level_at = |n: usize, c: usize, h: usize, w: usize| -> (i32, bool) {
        let i = ((n * s.c + c) * s.h + h) * s.w + w;
        (acts.levels[i], acts.outlier[i])
    };

    for n in 0..s.n {
        for g in 0..conv.oc_groups {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut psums = PsumBank::new();
                    for ky in 0..k {
                        let iy = (oy * conv.stride + ky) as isize - conv.pad as isize;
                        if iy < 0 || iy >= s.h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * conv.stride + kx) as isize - conv.pad as isize;
                            if ix < 0 || ix >= s.w as isize {
                                continue;
                            }
                            // Walk input channels in 16-lane chunks with the
                            // 4-wide zero-skip scanner.
                            for c0 in (0..s.c).step_by(CHUNK_WEIGHTS) {
                                let lanes = (s.c - c0).min(CHUNK_WEIGHTS);
                                let mut job = UnitJob {
                                    nnz: 0,
                                    zero_quads: 0,
                                    passes: 1,
                                    multi_outlier_broadcasts: 0,
                                };
                                for q0 in (0..lanes).step_by(4) {
                                    let quad = q0..(q0 + 4).min(lanes);
                                    let mut any = false;
                                    for ci in quad {
                                        let (level, is_outlier) =
                                            level_at(n, c0 + ci, iy as usize, ix as usize);
                                        if level == 0 {
                                            continue;
                                        }
                                        any = true;
                                        let (base, ov) = conv.chunk_at(g, c0 + ci, ky, kx);
                                        stats.run_cycles +=
                                            broadcast(base, ov.as_ref(), level, &mut psums) as u64;
                                        job.nnz += 1;
                                        job.multi_outlier_broadcasts +=
                                            u32::from(base.is_multi_outlier());
                                        if is_outlier {
                                            stats.outlier_broadcasts += 1;
                                        }
                                    }
                                    if !any {
                                        stats.skip_cycles += 1;
                                        job.zero_quads += 1;
                                    }
                                }
                                jobs.push(job);
                            }
                        }
                    }
                    for lane in 0..CHUNK_WEIGHTS {
                        let oc = g * CHUNK_WEIGHTS + lane;
                        if oc < conv.out_channels {
                            out.set(n, oc, oy, ox, psums.values()[lane] as f32 * out_scale);
                        }
                    }
                }
            }
        }
    }
    (out, stats, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ola_nn::network::conv2d;
    use ola_tensor::init::{heavy_tailed_tensor, HeavyTailed};

    fn fake_quantize_weights(w: &Tensor, q: &OutlierQuantizer) -> Tensor {
        let mut t = w.clone();
        t.map_inplace(|v| {
            if v == 0.0 {
                0.0
            } else if q.is_outlier(v) {
                q.high().dequantize(q.high().quantize(v))
            } else {
                q.low().dequantize(q.low().quantize(v))
            }
        });
        t
    }

    fn fake_quantize_acts(a: &Tensor, qa: &QuantizedActs) -> Tensor {
        let mut t = a.clone();
        let data = t.as_mut_slice();
        for (v, &level) in data.iter_mut().zip(&qa.levels) {
            *v = level as f32 * qa.scale;
        }
        t
    }

    #[test]
    fn functional_conv_matches_reference() {
        let w = heavy_tailed_tensor(Shape4::new(32, 16, 3, 3), HeavyTailed::default(), 1);
        let mut a = heavy_tailed_tensor(Shape4::new(1, 16, 6, 6), HeavyTailed::default(), 2);
        a.map_inplace(|v| if v < 0.0 { 0.0 } else { v * 10.0 }); // post-ReLU-ish

        let (packed, wq) = PackedConv::pack(&w, 0.03, 1, 1);
        let qa = quantize_acts(&a, 0.03);
        let (out, stats, _) = execute(&packed, &qa);

        // Reference: f32 conv of the fake-quantized operands.
        let wf = fake_quantize_weights(&w, &wq);
        let af = fake_quantize_acts(&a, &qa);
        let reference = conv2d(&af, &wf, None, 1, 1);

        assert_eq!(out.shape(), reference.shape());
        let max_ref = reference.abs_max().max(1e-6);
        for (o, r) in out.iter().zip(reference.iter()) {
            assert!(
                (o - r).abs() <= 1e-4 * max_ref + 1e-6,
                "datapath {o} vs reference {r}"
            );
        }
        assert!(stats.run_cycles > 0);
        assert!(
            stats.outlier_broadcasts > 0,
            "some outlier activations expected"
        );
    }

    #[test]
    fn zero_activations_are_skipped() {
        let w = heavy_tailed_tensor(Shape4::new(16, 16, 1, 1), HeavyTailed::default(), 3);
        let a = Tensor::zeros(Shape4::new(1, 16, 2, 2));
        let (packed, _) = PackedConv::pack(&w, 0.03, 1, 0);
        // quantize_acts panics on all-zero; build levels manually.
        let qa = QuantizedActs {
            levels: vec![0; a.len()],
            outlier: vec![false; a.len()],
            shape: a.shape(),
            scale: 1.0,
        };
        let (out, stats, jobs) = execute(&packed, &qa);
        assert!(out.iter().all(|&v| v == 0.0));
        assert_eq!(stats.run_cycles, 0);
        // 4 positions x 1 chunk x 4 quads, all skipped.
        assert_eq!(stats.skip_cycles, 16);
        let idle = UnitJob {
            nnz: 0,
            zero_quads: 4,
            passes: 1,
            multi_outlier_broadcasts: 0,
        };
        assert_eq!(jobs, vec![idle; 4]);
    }
}
