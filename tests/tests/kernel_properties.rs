//! Property tests of the blocked im2col kernels: for any conv/linear shape
//! — strides, padding, groups, tile-size non-divisible extents, any worker
//! count — the fast kernels must be **bit-identical** to the naive
//! loop-nest oracles in `ola_nn::network`. This is the contract that lets
//! `Network::forward` switch to the fast path without perturbing a single
//! golden report.

use ola_nn::kernels;
use ola_nn::network::{conv2d, conv2d_grouped, linear_dense, linear_rowgen};
use ola_nn::synth::SyntheticMatrix;
use ola_tensor::init::{uniform_tensor, HeavyTailed};
use ola_tensor::{Shape4, Tensor};
use proptest::prelude::*;

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn bias_vec(c: usize, seed: u64, with_bias: bool) -> Option<Vec<f32>> {
    with_bias.then(|| {
        uniform_tensor(Shape4::new(1, 1, 1, c), -0.5, 0.5, seed)
            .as_slice()
            .to_vec()
    })
}

proptest! {
    /// Dense convolution: any geometry, any worker count.
    #[test]
    fn conv2d_fast_is_bit_exact(
        geom in (1usize..=5, 0usize..=10, 0usize..=10),
        chans in (1usize..=2, 1usize..=4, 1usize..=5),
        stride in 1usize..=3,
        pad in 0usize..=2,
        jobs in 1usize..=5,
        with_bias in prop::bool::ANY,
        seed in 0u64..1 << 48,
    ) {
        let (k, h_extra, w_extra) = geom;
        let (n, cin, cout) = chans;
        let (h, w) = (k + h_extra, k + w_extra);
        let x = uniform_tensor(Shape4::new(n, cin, h, w), -1.0, 1.0, seed);
        let wt = uniform_tensor(Shape4::new(cout, cin, k, k), -0.3, 0.3, seed ^ 0xFEED);
        let bias = bias_vec(cout, seed ^ 0xB1A5, with_bias);
        let naive = conv2d(&x, &wt, bias.as_deref(), stride, pad);
        let fast = kernels::conv2d_fast(&x, &wt, bias.as_deref(), stride, pad, jobs);
        prop_assert_eq!(bits(&naive), bits(&fast));
    }

    /// Grouped convolution: the per-group gather/scatter must not disturb
    /// values or their order either.
    #[test]
    fn conv2d_grouped_fast_is_bit_exact(
        geom in (1usize..=4, 0usize..=8, 0usize..=8),
        chans in (1usize..=2, 1usize..=3, 1usize..=3, 1usize..=3),
        stride in 1usize..=3,
        pad in 0usize..=2,
        jobs in 1usize..=5,
        with_bias in prop::bool::ANY,
        seed in 0u64..1 << 48,
    ) {
        let (k, h_extra, w_extra) = geom;
        let (n, groups, cig, cog) = chans;
        let (h, w) = (k + h_extra, k + w_extra);
        let (cin, cout) = (groups * cig, groups * cog);
        let x = uniform_tensor(Shape4::new(n, cin, h, w), -1.0, 1.0, seed);
        let wt = uniform_tensor(Shape4::new(cout, cig, k, k), -0.3, 0.3, seed ^ 0xFEED);
        let bias = bias_vec(cout, seed ^ 0xB1A5, with_bias);
        let naive = conv2d_grouped(&x, &wt, bias.as_deref(), stride, pad, groups);
        let fast =
            kernels::conv2d_grouped_fast(&x, &wt, bias.as_deref(), stride, pad, groups, jobs);
        prop_assert_eq!(bits(&naive), bits(&fast));
    }

    /// Dense linear: output-feature tiles never split one output's
    /// reduction, so any (out_features, jobs) pair — including tile sizes
    /// that do not divide out_features — is bit-exact.
    #[test]
    fn linear_fast_is_bit_exact(
        shape in (1usize..=3, 1usize..=96, 1usize..=40),
        jobs in 1usize..=5,
        with_bias in prop::bool::ANY,
        seed in 0u64..1 << 48,
    ) {
        let (n, in_features, out_features) = shape;
        let x = uniform_tensor(Shape4::new(n, in_features, 1, 1), -1.0, 1.0, seed);
        let wt = uniform_tensor(
            Shape4::new(1, 1, out_features, in_features),
            -0.3,
            0.3,
            seed ^ 0xFEED,
        );
        let bias = bias_vec(out_features, seed ^ 0xB1A5, with_bias);
        let naive = linear_dense(&x, &wt, bias.as_deref(), out_features);
        let fast = kernels::linear_fast(&x, &wt, bias.as_deref(), out_features, jobs);
        prop_assert_eq!(bits(&naive), bits(&fast));
    }

    /// Row-generated linear: the fast path regenerates rows inside worker
    /// tiles; the values and the dot order must match the serial oracle.
    #[test]
    fn linear_rowgen_fast_is_bit_exact(
        shape in (1usize..=5, 1usize..=80, 1usize..=30),
        sparsity in 0.0f64..1.0,
        jobs in 1usize..=5,
        with_bias in prop::bool::ANY,
        seed in 0u64..1 << 48,
    ) {
        let (n, in_features, out_features) = shape;
        let x = uniform_tensor(Shape4::new(n, in_features, 1, 1), -1.0, 1.0, seed);
        let gen = SyntheticMatrix::new(
            out_features,
            in_features,
            HeavyTailed::default(),
            sparsity,
            seed ^ 0xFEED,
        );
        let bias = bias_vec(out_features, seed ^ 0xB1A5, with_bias);
        let naive = linear_rowgen(&x, &gen, bias.as_deref(), out_features);
        let fast = kernels::linear_rowgen_fast(&x, &gen, bias.as_deref(), out_features, jobs);
        prop_assert_eq!(bits(&naive), bits(&fast));
    }

    /// Worker count is invisible: 1 worker and N workers produce the same
    /// bytes (the scatter step reassembles tiles in deterministic order).
    #[test]
    fn worker_count_is_invisible(
        geom in (1usize..=4, 0usize..=9),
        chans in (1usize..=4, 1usize..=6),
        jobs in 2usize..=8,
        seed in 0u64..1 << 48,
    ) {
        let (k, h_extra) = geom;
        let (cin, cout) = chans;
        let h = k + h_extra;
        let x = uniform_tensor(Shape4::new(1, cin, h, h), -1.0, 1.0, seed);
        let wt = uniform_tensor(Shape4::new(cout, cin, k, k), -0.3, 0.3, seed ^ 0xFEED);
        let one = kernels::conv2d_fast(&x, &wt, None, 1, 1, 1);
        let many = kernels::conv2d_fast(&x, &wt, None, 1, 1, jobs);
        prop_assert_eq!(bits(&one), bits(&many));
    }
}
