//! Tiled im2col + cache-blocked matmul kernels for the f32 reference path.
//!
//! Every experiment's activation statistics come from an actual f32 forward
//! pass, and preparation (synthesis + sparsity shaping + that forward pass)
//! dominates suite wall-time even with the preparation cache. These kernels
//! replace the naive 7-deep loop nests in [`crate::network`] with:
//!
//! * **im2col patch gathering** per output row-tile — each input row is
//!   copied with contiguous `copy_from_slice` calls into a pixel-major
//!   patch buffer (padding positions stay zero), so the inner product
//!   walks two dense slices instead of a strided, bounds-checked window;
//! * **register-blocked matmul** — the micro-kernel computes 4 output
//!   channels x 2 pixels at once (8 independent accumulators sharing 6
//!   loads per step), breaking the single-accumulator add-latency chain
//!   that makes the naive loop latency-bound;
//! * **row-tile parallelism** via [`ola_tensor::par::ordered_map`] scoped
//!   worker threads, so kernel worker count follows the suite's `--jobs`.
//!
//! # Bit-exactness contract
//!
//! The fast kernels are **bit-exact** with the naive references
//! ([`crate::network::conv2d`], [`crate::network::conv2d_grouped`],
//! [`crate::network::linear_dense`], [`crate::network::linear_rowgen`]) at
//! any tile shape and any worker count. Two properties guarantee it:
//!
//! 1. every output element is accumulated by exactly one micro-kernel
//!    variant, starting from its bias and adding terms in the same
//!    `(ic, ky, kx)` (conv) or feature (linear) order as the naive loops —
//!    tile and register blocking partition *outputs*, never one output's
//!    reduction;
//! 2. padding contributes `0.0 * w` terms the naive loop skips. An IEEE-754
//!    round-to-nearest addition only yields `-0.0` when both operands are
//!    `-0.0`, so with a bias that is not `-0.0` the accumulator is never
//!    `-0.0` and adding `±0.0` is a bit-level no-op. The kernels are
//!    therefore bit-identical for all finite weights with biases other
//!    than `-0.0` (non-finite weights would turn a skipped padding term
//!    into `0.0 * inf = NaN`; no synthesized network produces either).
//!
//! `kernel_properties` in the integration-test crate asserts the contract
//! over randomized shapes, strides, paddings, groups and worker counts.

use crate::synth::SyntheticMatrix;
use ola_tensor::par::ordered_map;
use ola_tensor::{Shape4, Tensor};

/// The forward phase's name for [`ola_tensor::par::set_jobs`]. `perfbench`
/// calls it by name; deleted with the other per-phase aliases once it
/// moves to `set_jobs` (ROADMAP, perfbench item step 3).
pub use ola_tensor::par::set_jobs as set_forward_jobs;

/// Patch-buffer budget per row-tile, in `f32` elements (256 KiB): big
/// enough that the matmul amortizes the gather, small enough to stay
/// cache-resident alongside a 4-row block of weights.
const PATCH_BUDGET: usize = 64 * 1024;

/// One unit of conv work: batch item `n`, channel group `g`, output rows
/// `y0..y1`.
struct ConvTile {
    n: usize,
    g: usize,
    y0: usize,
    y1: usize,
}

/// Rows per tile: fit the patch buffer budget, but split finer when that
/// would leave workers idle. Any value is bit-exact; this only shapes
/// locality and load balance.
fn plan_tile_rows(oh: usize, ow: usize, kk: usize, outer_items: usize, jobs: usize) -> usize {
    let budget = (PATCH_BUDGET / (ow * kk).max(1)).clamp(1, oh);
    let tiles_wanted = jobs.div_ceil(outer_items.max(1)).max(1);
    budget.min(oh.div_ceil(tiles_wanted)).max(1)
}

/// Tiled im2col convolution, bit-exact with [`crate::network::conv2d`].
///
/// `jobs` worker threads split the output row-tiles; the result is
/// identical at any count.
///
/// # Panics
///
/// Panics if shapes are inconsistent or `jobs` is zero.
pub fn conv2d_fast(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    jobs: usize,
) -> Tensor {
    conv2d_blocked(x, w, bias, stride, pad, 1, jobs)
}

/// Tiled im2col grouped convolution, bit-exact with
/// [`crate::network::conv2d_grouped`].
///
/// Each group's input channels are gathered once per row-tile straight
/// from the NCHW buffer (channel offset `g * cig`) — there is no per-group
/// or per-output-channel input copy at all.
///
/// # Panics
///
/// Panics if `groups` does not divide the channel counts, shapes are
/// inconsistent, or `jobs` is zero.
pub fn conv2d_grouped_fast(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    groups: usize,
    jobs: usize,
) -> Tensor {
    conv2d_blocked(x, w, bias, stride, pad, groups, jobs)
}

fn conv2d_blocked(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    groups: usize,
    jobs: usize,
) -> Tensor {
    let xs = x.shape();
    let ws = w.shape();
    assert!(groups >= 1, "groups must be positive");
    assert_eq!(xs.c % groups, 0, "groups must divide input channels");
    assert_eq!(ws.n % groups, 0, "groups must divide output channels");
    assert_eq!(ws.c, xs.c / groups, "weight shape inconsistent with groups");
    let cig = xs.c / groups;
    let cog = ws.n / groups;
    let k = ws.h;
    let oh = (xs.h + 2 * pad - k) / stride + 1;
    let ow = (xs.w + 2 * pad - k) / stride + 1;
    let kk = cig * k * k;

    let tile_rows = plan_tile_rows(oh, ow, kk, xs.n * groups, jobs);
    let mut tiles: Vec<ConvTile> = Vec::new();
    for n in 0..xs.n {
        for g in 0..groups {
            let mut y0 = 0;
            while y0 < oh {
                let y1 = (y0 + tile_rows).min(oh);
                tiles.push(ConvTile { n, g, y0, y1 });
                y0 = y1;
            }
        }
    }

    let wd = w.as_slice();
    let results: Vec<Vec<f32>> = ordered_map(&tiles, jobs, |_, t| {
        let pixels = (t.y1 - t.y0) * ow;
        let mut patch = vec![0.0_f32; pixels * kk];
        gather_patches(
            x,
            t.n,
            t.g * cig,
            cig,
            k,
            stride,
            pad,
            t.y0,
            t.y1,
            ow,
            &mut patch,
        );
        let mut tile_out = vec![0.0_f32; cog * pixels];
        matmul_tile(&patch, wd, bias, t.g * cog, cog, kk, pixels, &mut tile_out);
        tile_out
    });

    let mut out = Tensor::zeros(Shape4::new(xs.n, ws.n, oh, ow));
    let out_shape = out.shape();
    let od = out.as_mut_slice();
    for (t, buf) in tiles.iter().zip(&results) {
        let pixels = (t.y1 - t.y0) * ow;
        for oc in 0..cog {
            let dst = out_shape.index(t.n, t.g * cog + oc, t.y0, 0);
            od[dst..dst + pixels].copy_from_slice(&buf[oc * pixels..(oc + 1) * pixels]);
        }
    }
    out
}

/// Gathers the im2col patch matrix for output rows `y0..y1` of batch item
/// `n`, reading input channels `c0..c0 + cig`.
///
/// `patch` is pixel-major — `patch[p * kk + (ic * k + ky) * k + kx]` — and
/// must arrive zero-filled; out-of-bounds (padding) positions are left
/// untouched. Every copy is a contiguous row segment of `x`.
#[allow(clippy::too_many_arguments)]
fn gather_patches(
    x: &Tensor,
    n: usize,
    c0: usize,
    cig: usize,
    k: usize,
    stride: usize,
    pad: usize,
    y0: usize,
    y1: usize,
    ow: usize,
    patch: &mut [f32],
) {
    let xs = x.shape();
    let kk = cig * k * k;
    for (r, oy) in (y0..y1).enumerate() {
        let iy0 = (oy * stride) as isize - pad as isize;
        for ic in 0..cig {
            for ky in 0..k {
                let iy = iy0 + ky as isize;
                if iy < 0 || iy >= xs.h as isize {
                    continue;
                }
                let srow = x.row(n, c0 + ic, iy as usize);
                let base = (ic * k + ky) * k;
                for ox in 0..ow {
                    let ix0 = (ox * stride) as isize - pad as isize;
                    let kx_lo = (-ix0).clamp(0, k as isize) as usize;
                    let kx_hi = (xs.w as isize - ix0).clamp(0, k as isize) as usize;
                    if kx_lo >= kx_hi {
                        continue;
                    }
                    let dst = (r * ow + ox) * kk + base;
                    let src = (ix0 + kx_lo as isize) as usize;
                    patch[dst + kx_lo..dst + kx_hi]
                        .copy_from_slice(&srow[src..src + (kx_hi - kx_lo)]);
                }
            }
        }
    }
}

/// Register-blocked matmul of one row-tile: `out[oc][p] = bias[oc0 + oc] +
/// patch[p] . weights[oc0 + oc]` for `oc in 0..cog`, `p in 0..pixels`.
///
/// The 4x2 micro-kernel keeps 8 independent accumulators live; remainder
/// channels/pixels fall back to thinner variants. All variants add terms
/// in identical `t` order, so which variant computes an output never
/// changes its bits.
#[allow(clippy::too_many_arguments)]
fn matmul_tile(
    patch: &[f32],
    weights: &[f32],
    bias: Option<&[f32]>,
    oc0: usize,
    cog: usize,
    kk: usize,
    pixels: usize,
    out: &mut [f32],
) {
    let bias_at = |oc: usize| bias.map_or(0.0, |b| b[oc0 + oc]);
    let mut oc = 0;
    while oc + 4 <= cog {
        let w0 = &weights[(oc0 + oc) * kk..][..kk];
        let w1 = &weights[(oc0 + oc + 1) * kk..][..kk];
        let w2 = &weights[(oc0 + oc + 2) * kk..][..kk];
        let w3 = &weights[(oc0 + oc + 3) * kk..][..kk];
        let (b0, b1, b2, b3) = (
            bias_at(oc),
            bias_at(oc + 1),
            bias_at(oc + 2),
            bias_at(oc + 3),
        );
        let mut p = 0;
        while p + 2 <= pixels {
            let p0 = &patch[p * kk..][..kk];
            let p1 = &patch[(p + 1) * kk..][..kk];
            let (mut a00, mut a01) = (b0, b0);
            let (mut a10, mut a11) = (b1, b1);
            let (mut a20, mut a21) = (b2, b2);
            let (mut a30, mut a31) = (b3, b3);
            for t in 0..kk {
                let v0 = p0[t];
                let v1 = p1[t];
                a00 += v0 * w0[t];
                a01 += v1 * w0[t];
                a10 += v0 * w1[t];
                a11 += v1 * w1[t];
                a20 += v0 * w2[t];
                a21 += v1 * w2[t];
                a30 += v0 * w3[t];
                a31 += v1 * w3[t];
            }
            out[oc * pixels + p] = a00;
            out[oc * pixels + p + 1] = a01;
            out[(oc + 1) * pixels + p] = a10;
            out[(oc + 1) * pixels + p + 1] = a11;
            out[(oc + 2) * pixels + p] = a20;
            out[(oc + 2) * pixels + p + 1] = a21;
            out[(oc + 3) * pixels + p] = a30;
            out[(oc + 3) * pixels + p + 1] = a31;
            p += 2;
        }
        if p < pixels {
            let pc = &patch[p * kk..][..kk];
            let (mut a0, mut a1, mut a2, mut a3) = (b0, b1, b2, b3);
            for t in 0..kk {
                let v = pc[t];
                a0 += v * w0[t];
                a1 += v * w1[t];
                a2 += v * w2[t];
                a3 += v * w3[t];
            }
            out[oc * pixels + p] = a0;
            out[(oc + 1) * pixels + p] = a1;
            out[(oc + 2) * pixels + p] = a2;
            out[(oc + 3) * pixels + p] = a3;
        }
        oc += 4;
    }
    while oc < cog {
        let w0 = &weights[(oc0 + oc) * kk..][..kk];
        let b0 = bias_at(oc);
        for p in 0..pixels {
            let pc = &patch[p * kk..][..kk];
            let mut a = b0;
            for t in 0..kk {
                a += pc[t] * w0[t];
            }
            out[oc * pixels + p] = a;
        }
        oc += 1;
    }
}

/// Output-feature tile ranges for the linear kernels. Boundaries depend
/// only on `out_features` and `jobs` shaping granularity — and results are
/// bit-exact regardless, because tiles partition whole output elements.
fn feature_tiles(out_features: usize, jobs: usize) -> Vec<(usize, usize)> {
    let chunk = out_features.div_ceil(jobs.max(1) * 4).max(16);
    let mut tiles = Vec::new();
    let mut o0 = 0;
    while o0 < out_features {
        let o1 = (o0 + chunk).min(out_features);
        tiles.push((o0, o1));
        o0 = o1;
    }
    tiles
}

/// Blocked dense linear layer, bit-exact with
/// [`crate::network::linear_dense`].
///
/// # Panics
///
/// Panics if the weight buffer does not match
/// `in_features * out_features` or `jobs` is zero.
pub fn linear_fast(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&[f32]>,
    out_features: usize,
    jobs: usize,
) -> Tensor {
    let xs = x.shape();
    let in_features = xs.c * xs.h * xs.w;
    assert_eq!(w.len(), in_features * out_features, "weight size mismatch");
    let xd = x.as_slice();
    let wd = w.as_slice();
    let tiles = feature_tiles(out_features, jobs);
    let results: Vec<Vec<f32>> = ordered_map(&tiles, jobs, |_, &(o0, o1)| {
        let len = o1 - o0;
        let mut buf = vec![0.0_f32; len * xs.n];
        for n in 0..xs.n {
            let xrow = &xd[n * in_features..][..in_features];
            linear_rows(
                xrow,
                wd,
                bias,
                o0,
                o1,
                in_features,
                &mut buf[n * len..][..len],
            );
        }
        buf
    });
    scatter_features(xs.n, out_features, &tiles, &results)
}

/// 4-way register-blocked rows `o0..o1` of a dense matrix-vector product:
/// `out[o - o0] = bias[o] + xrow . wd[o]`, accumulating in feature order.
fn linear_rows(
    xrow: &[f32],
    wd: &[f32],
    bias: Option<&[f32]>,
    o0: usize,
    o1: usize,
    in_features: usize,
    out: &mut [f32],
) {
    let bias_at = |o: usize| bias.map_or(0.0, |b| b[o]);
    let mut o = o0;
    while o + 4 <= o1 {
        let w0 = &wd[o * in_features..][..in_features];
        let w1 = &wd[(o + 1) * in_features..][..in_features];
        let w2 = &wd[(o + 2) * in_features..][..in_features];
        let w3 = &wd[(o + 3) * in_features..][..in_features];
        let (mut a0, mut a1, mut a2, mut a3) =
            (bias_at(o), bias_at(o + 1), bias_at(o + 2), bias_at(o + 3));
        for t in 0..in_features {
            let v = xrow[t];
            a0 += v * w0[t];
            a1 += v * w1[t];
            a2 += v * w2[t];
            a3 += v * w3[t];
        }
        out[o - o0] = a0;
        out[o - o0 + 1] = a1;
        out[o - o0 + 2] = a2;
        out[o - o0 + 3] = a3;
        o += 4;
    }
    while o < o1 {
        let w0 = &wd[o * in_features..][..in_features];
        let mut a = bias_at(o);
        for t in 0..in_features {
            a += xrow[t] * w0[t];
        }
        out[o - o0] = a;
        o += 1;
    }
}

/// Row-generated linear layer, bit-exact with
/// [`crate::network::linear_rowgen`]: workers split the output features
/// and each generates its own rows (generation is pure in the row index).
///
/// # Panics
///
/// Panics if the generator dimensions disagree with the shapes or `jobs`
/// is zero.
pub fn linear_rowgen_fast(
    x: &Tensor,
    gen: &SyntheticMatrix,
    bias: Option<&[f32]>,
    out_features: usize,
    jobs: usize,
) -> Tensor {
    let xs = x.shape();
    let in_features = xs.c * xs.h * xs.w;
    assert_eq!(gen.cols(), in_features, "generator column mismatch");
    assert_eq!(gen.rows(), out_features, "generator row mismatch");
    // The batch in groups of IMAGE_LANES images, interleaved by input:
    // `groups[g · in_features + t][lane]` is input `t` of image
    // `g · IMAGE_LANES + lane` (zero past the batch).
    let mut groups = vec![[0.0_f32; IMAGE_LANES]; xs.n.div_ceil(IMAGE_LANES) * in_features];
    for (n, xrow) in x.as_slice().chunks_exact(in_features).enumerate() {
        let group = &mut groups[n / IMAGE_LANES * in_features..][..in_features];
        for (lanes, &v) in group.iter_mut().zip(xrow) {
            lanes[n % IMAGE_LANES] = v;
        }
    }
    let tiles = feature_tiles(out_features, jobs);
    let results: Vec<Vec<f32>> = ordered_map(&tiles, jobs, |_, &(o0, o1)| {
        let len = o1 - o0;
        let mut row = vec![0.0_f32; in_features];
        let mut buf = vec![0.0_f32; len * xs.n];
        for o in o0..o1 {
            gen.fill_row(o, &mut row);
            let b = bias.map_or(0.0, |bv| bv[o]);
            for (g, group) in groups.chunks_exact(in_features).enumerate() {
                // One pass over the row feeds every image of the group; each
                // image's accumulator still sums in `t` order.
                let mut acc = [b; IMAGE_LANES];
                for (&w, lanes) in row.iter().zip(group) {
                    for (a, &xv) in acc.iter_mut().zip(lanes) {
                        *a += xv * w;
                    }
                }
                let first = g * IMAGE_LANES;
                for (n, &a) in (first..xs.n).zip(&acc) {
                    buf[n * len + (o - o0)] = a;
                }
            }
        }
        buf
    });
    scatter_features(xs.n, out_features, &tiles, &results)
}

/// Images one pass over a generated row feeds: independent accumulators
/// hide the add latency that bounds a single image's dot product.
const IMAGE_LANES: usize = 4;

/// Reassembles per-tile `[n][o_local]` buffers into an `(n, out_features,
/// 1, 1)` tensor.
fn scatter_features(
    batch: usize,
    out_features: usize,
    tiles: &[(usize, usize)],
    results: &[Vec<f32>],
) -> Tensor {
    let mut out = Tensor::zeros(Shape4::new(batch, out_features, 1, 1));
    let od = out.as_mut_slice();
    for (&(o0, o1), buf) in tiles.iter().zip(results) {
        let len = o1 - o0;
        for n in 0..batch {
            od[n * out_features + o0..][..len].copy_from_slice(&buf[n * len..][..len]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{conv2d, conv2d_grouped, linear_dense, linear_rowgen};
    use ola_tensor::init::{gaussian_tensor, heavy_tailed_tensor, HeavyTailed};

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn conv_fast_matches_naive_bitwise() {
        let x = gaussian_tensor(Shape4::new(2, 3, 9, 7), 1.0, 11);
        let w = heavy_tailed_tensor(Shape4::new(5, 3, 3, 3), HeavyTailed::default(), 12);
        let bias: Vec<f32> = (0..5).map(|i| i as f32 * 0.25 - 0.5).collect();
        for (stride, pad) in [(1, 0), (1, 1), (2, 1), (3, 2)] {
            let naive = conv2d(&x, &w, Some(&bias), stride, pad);
            for jobs in [1, 2, 5] {
                let fast = conv2d_fast(&x, &w, Some(&bias), stride, pad, jobs);
                assert_eq!(fast.shape(), naive.shape());
                assert_eq!(
                    bits(&fast),
                    bits(&naive),
                    "stride {stride} pad {pad} jobs {jobs}"
                );
            }
        }
    }

    #[test]
    fn conv_fast_handles_1x1_and_no_bias() {
        let x = gaussian_tensor(Shape4::new(1, 4, 5, 5), 1.0, 3);
        let w = gaussian_tensor(Shape4::new(3, 4, 1, 1), 0.3, 4);
        let naive = conv2d(&x, &w, None, 1, 0);
        let fast = conv2d_fast(&x, &w, None, 1, 0, 2);
        assert_eq!(bits(&fast), bits(&naive));
    }

    #[test]
    fn grouped_fast_matches_naive_bitwise() {
        let x = gaussian_tensor(Shape4::new(1, 6, 8, 8), 1.0, 21);
        let w = heavy_tailed_tensor(Shape4::new(4, 3, 3, 3), HeavyTailed::default(), 22);
        let bias: Vec<f32> = vec![0.1, -0.2, 0.3, -0.4];
        let naive = conv2d_grouped(&x, &w, Some(&bias), 1, 1, 2);
        for jobs in [1, 3] {
            let fast = conv2d_grouped_fast(&x, &w, Some(&bias), 1, 1, 2, jobs);
            assert_eq!(bits(&fast), bits(&naive));
        }
    }

    #[test]
    fn linear_fast_matches_naive_bitwise() {
        let x = gaussian_tensor(Shape4::new(2, 3, 4, 4), 1.0, 31);
        let w = heavy_tailed_tensor(Shape4::new(1, 1, 7, 48), HeavyTailed::default(), 32);
        let bias: Vec<f32> = (0..7).map(|i| (i as f32).sin()).collect();
        let naive = linear_dense(&x, &w, Some(&bias), 7);
        for jobs in [1, 2] {
            let fast = linear_fast(&x, &w, Some(&bias), 7, jobs);
            assert_eq!(bits(&fast), bits(&naive));
        }
    }

    #[test]
    fn rowgen_fast_matches_naive_bitwise() {
        let gen = SyntheticMatrix::new(37, 3 * 2 * 2, HeavyTailed::default(), 0.4, 99);
        let x = gaussian_tensor(Shape4::new(2, 3, 2, 2), 1.0, 41);
        let naive = linear_rowgen(&x, &gen, None, 37);
        for jobs in [1, 4] {
            let fast = linear_rowgen_fast(&x, &gen, None, 37, jobs);
            assert_eq!(bits(&fast), bits(&naive));
        }
    }
}
