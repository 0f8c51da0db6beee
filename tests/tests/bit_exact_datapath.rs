//! A convolution end to end through the bit-exact OLAccel datapath:
//! outlier-aware quantization onto aligned grids, 80-bit weight-chunk
//! packing, 16+1-MAC broadcasts with zero skipping. The output feature map
//! must equal the integer convolution of the quantized levels bit for bit,
//! and the f32 convolution of the fake-quantized operands up to f32
//! summation order.
//!
//! Run with: `cargo test --release -p ola-integration --test bit_exact_datapath`

use ola_integration::functional::{execute, quantize_acts, PackedConv};
use ola_nn::network::conv2d;
use ola_tensor::init::{heavy_tailed_tensor, HeavyTailed};
use ola_tensor::{Shape4, Tensor};

#[test]
fn packed_conv_matches_integer_and_f32_references() {
    // Heavy-tailed weights and post-ReLU-like activations.
    let (co, ci, k, side) = (64, 32, 3, 14);
    let weights = heavy_tailed_tensor(Shape4::new(co, ci, k, k), HeavyTailed::default(), 11);
    let mut acts = heavy_tailed_tensor(Shape4::new(1, ci, side, side), HeavyTailed::default(), 12);
    acts.map_inplace(|v| if v < 0.0 { 0.0 } else { v * 8.0 });

    let (packed, wq) = PackedConv::pack(&weights, 0.03, 1, 1);
    let qa = quantize_acts(&acts, 0.03);
    let (out, stats, _) = execute(&packed, &qa);
    assert!(
        packed.multi_outlier_fraction() > 0.0,
        "the two-cycle path must run"
    );
    assert!(
        stats.outlier_broadcasts > 0,
        "the outlier activations must run"
    );

    // Weight levels on the shared aligned grid, as the chunks encode them.
    let level = |v: f32| {
        if v != 0.0 && wq.is_outlier(v) {
            wq.high().quantize(v)
        } else {
            wq.low().quantize(v)
        }
    };
    // Integer reference: the level products summed exactly, wrapped to the
    // 24-bit partial sums, then scaled as the datapath scales them.
    let out_scale = wq.low().scale() * qa.scale;
    let act = |c: usize, y: usize, x: usize| i64::from(qa.levels[(c * side + y) * side + x]);
    for oc in 0..co {
        for oy in 0..side {
            for ox in 0..side {
                let mut acc = 0i64;
                for c in 0..ci {
                    for ky in 0..k {
                        for kx in 0..k {
                            let (Some(y), Some(x)) =
                                ((oy + ky).checked_sub(1), (ox + kx).checked_sub(1))
                            else {
                                continue;
                            };
                            if y < side && x < side {
                                acc += i64::from(level(weights.get(oc, c, ky, kx))) * act(c, y, x);
                            }
                        }
                    }
                }
                let psum = ((acc << 40) >> 40) as i32;
                assert_eq!(
                    out.get(0, oc, oy, ox).to_bits(),
                    (psum as f32 * out_scale).to_bits(),
                    "output ({oc}, {oy}, {ox})"
                );
            }
        }
    }

    // f32 reference: the fake-quantized operands through `conv2d`.
    let mut wf = weights.clone();
    wf.map_inplace(|v| {
        if v == 0.0 {
            0.0
        } else if wq.is_outlier(v) {
            wq.high().dequantize(wq.high().quantize(v))
        } else {
            wq.low().dequantize(wq.low().quantize(v))
        }
    });
    let mut af = acts.clone();
    for (v, &l) in af.as_mut_slice().iter_mut().zip(&qa.levels) {
        *v = l as f32 * qa.scale;
    }
    let reference: Tensor = conv2d(&af, &wf, None, 1, 1);
    let scale = reference.abs_max();
    for (&got, &want) in out.iter().zip(reference.iter()) {
        assert!(
            (got - want).abs() <= 1e-4 * scale,
            "datapath {got} vs f32 reference {want} (output magnitude {scale})"
        );
    }
}
