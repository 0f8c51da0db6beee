//! Differential-testing harness for the outlier-selection policies.
//!
//! Three independent implementations of each selection rule exist in the
//! tree: the [`ola_quant::OutlierSelect`] methods (flat slices), the
//! band-major grid kernel behind [`ola_sim::workload::grid_chunk_stats`]
//! and workload extraction, and the retained serial multi-pass oracle in
//! [`ola_integration::oracle`]. This file adds a fourth — naive
//! per-policy references written from the definitions (full sorts, no
//! fusion, no parallelism) — and pins all of them to each other:
//!
//! 1. `MagnitudePercentile` is the pre-trait pipeline, bit for bit: the
//!    policy's threshold and classification equal `OutlierQuantizer::fit` +
//!    `is_outlier` on the same population, and full extraction equals the
//!    retained pre-trait oracle over random shapes, ratios, and worker
//!    counts.
//! 2. `WindowedTopK` density invariants: exactly `ceil(n / window)`
//!    outliers on all-non-zero data, chunk-local, one winner per window.
//! 3. Every policy agrees with its naive reference on random *and*
//!    adversarial inputs — NaN, `-0.0`, bit-identical ties, constant
//!    slices — and the parallel grid kernel is byte-identical to the serial
//!    naive grid at any worker count, on grids salted with subnormals and
//!    sign-bit-set NaN.

use ola_integration::oracle;
use ola_nn::synth::{synthesize_params, SynthConfig};
use ola_nn::{Conv2dSpec, LinearSpec, Network, Op};
use ola_quant::{OutlierQuantizer, OutlierSelect};
use ola_sim::policy::FirstLayerPolicy;
use ola_sim::workload::{extract_from_acts_jobs, grid_chunk_stats, Censuses, WeightChunkStats};
use ola_sim::QuantPolicy;
use ola_tensor::init::uniform_tensor;
use ola_tensor::{ConvGeometry, Shape4};
use proptest::prelude::*;

/// Naive per-policy references, written straight from the definitions:
/// full descending sorts for every order statistic, serial chunk walks,
/// no fusion. Everything here is deliberately independent of the
/// production code paths it checks.
mod naive {
    use ola_sim::workload::WeightChunkStats;
    use ola_sim::OutlierSelect;
    use ola_tensor::CHUNK_LANES;

    /// k-th largest score by full descending sort under `total_cmp`.
    fn kth_largest(scores: &[f32], k: usize) -> f32 {
        let mut sorted = scores.to_vec();
        sorted.sort_by(|a, b| b.total_cmp(a));
        sorted[k - 1]
    }

    fn top_k(n: usize, ratio: f64) -> usize {
        ((n as f64 * ratio).ceil() as usize).clamp(1, n)
    }

    fn magnitude(values: &[f32], ratio: f64) -> Vec<bool> {
        let mags: Vec<f32> = values
            .iter()
            .filter(|&&v| v != 0.0)
            .map(|v| v.abs())
            .collect();
        if ratio <= 0.0 || mags.is_empty() {
            return vec![false; values.len()];
        }
        let t = kth_largest(&mags, top_k(mags.len(), ratio));
        values
            .iter()
            .map(|&v| v != 0.0 && v.abs().total_cmp(&t).is_ge())
            .collect()
    }

    /// Lowest-index largest-magnitude non-zero of a window (NaN sorts above
    /// everything under `total_cmp`, so a NaN wins its window; among
    /// bit-identical ties the first wins).
    fn top1(window: &[f32]) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, &v) in window.iter().enumerate() {
            if v == 0.0 {
                continue;
            }
            match best {
                Some(b) if v.abs().total_cmp(&window[b].abs()).is_gt() => best = Some(i),
                None => best = Some(i),
                _ => {}
            }
        }
        best
    }

    fn windowed(values: &[f32], window: usize, ratio: f64) -> Vec<bool> {
        let mut flags = vec![false; values.len()];
        if ratio <= 0.0 {
            return flags;
        }
        for (w, chunk) in values.chunks(window).enumerate() {
            if let Some(i) = top1(chunk) {
                flags[w * window + i] = true;
            }
        }
        flags
    }

    /// RMS with the same fixed-order f32 accumulation the production code
    /// uses (float addition is not associative, so the order is part of
    /// the determinism contract being checked).
    fn rms(window: &[f32]) -> f32 {
        if window.is_empty() {
            return 0.0;
        }
        let mut sum_sq = 0.0_f32;
        for &v in window {
            sum_sq += v * v;
        }
        (sum_sq / window.len() as f32).sqrt()
    }

    /// `|v| * rms`, with every NaN product the one `f32::NAN` (the sign
    /// and payload of a NaN product are the platform's).
    fn score(v: f32, rms: f32) -> f32 {
        let s = v.abs() * rms;
        if s.is_nan() {
            f32::NAN
        } else {
            s
        }
    }

    fn sensitivity_scores(values: &[f32], window: usize) -> Vec<f32> {
        let mut scores = Vec::new();
        for chunk in values.chunks(window) {
            let r = rms(chunk);
            scores.extend(chunk.iter().filter(|&&v| v != 0.0).map(|&v| score(v, r)));
        }
        scores
    }

    fn sensitivity(values: &[f32], window: usize, ratio: f64) -> Vec<bool> {
        let scores = sensitivity_scores(values, window);
        if ratio <= 0.0 || scores.is_empty() {
            return vec![false; values.len()];
        }
        let t = kth_largest(&scores, top_k(scores.len(), ratio));
        let mut flags = Vec::with_capacity(values.len());
        for chunk in values.chunks(window) {
            let r = rms(chunk);
            flags.extend(
                chunk
                    .iter()
                    .map(|&v| v != 0.0 && score(v, r).total_cmp(&t).is_ge()),
            );
        }
        flags
    }

    /// Flat-slice reference classification for any policy.
    pub fn classify(select: OutlierSelect, values: &[f32], ratio: f64) -> Vec<bool> {
        match select {
            OutlierSelect::MagnitudePercentile => magnitude(values, ratio),
            OutlierSelect::WindowedTopK { window } => windowed(values, window, ratio),
            OutlierSelect::SensitivityWeighted { window } => sensitivity(values, window, ratio),
        }
    }

    /// The real lanes of every 16-row weight chunk, read by `(row, col)`.
    fn chunk_lanes(values: &[f32], co: usize, inner: usize) -> Vec<Vec<f32>> {
        let mut chunks = Vec::new();
        for r0 in (0..co).step_by(CHUNK_LANES) {
            for col in 0..inner {
                let rows = r0..(r0 + CHUNK_LANES).min(co);
                chunks.push(rows.map(|r| values[r * inner + col]).collect());
            }
        }
        chunks
    }

    /// Per-chunk outlier count on the weight grid under `select`.
    fn chunk_count(lanes: &[f32], rule: &GridRule) -> u32 {
        let mut count = 0u32;
        match *rule {
            GridRule::None => {}
            GridRule::Threshold(t) => {
                count = lanes
                    .iter()
                    .filter(|&&v| v != 0.0 && v.abs().total_cmp(&t).is_ge())
                    .count() as u32;
            }
            GridRule::Windowed(window) => {
                for w in lanes.chunks(window) {
                    if w.iter().any(|&v| v != 0.0) {
                        count += 1;
                    }
                }
            }
            GridRule::Sensitivity(window, t) => {
                for w in lanes.chunks(window) {
                    let r = rms(w);
                    count += w
                        .iter()
                        .filter(|&&v| v != 0.0 && score(v, r).total_cmp(&t).is_ge())
                        .count() as u32;
                }
            }
        }
        count
    }

    enum GridRule {
        None,
        Threshold(f32),
        Windowed(usize),
        Sensitivity(usize, f32),
    }

    /// Serial reference of [`ola_sim::workload::grid_chunk_stats`]: resolve
    /// the policy to a per-chunk rule (weight ratios are fractions of the
    /// *total* population and get rescaled to the non-zero one, exactly as
    /// the production fit defines it), then walk the chunk grid once.
    pub fn grid_stats(
        values: &[f32],
        co: usize,
        inner: usize,
        ratio: f64,
        select: OutlierSelect,
    ) -> WeightChunkStats {
        let chunks = chunk_lanes(values, co, inner);
        let rule = if ratio <= 0.0 {
            GridRule::None
        } else {
            match select {
                OutlierSelect::MagnitudePercentile => {
                    let mags: Vec<f32> = values
                        .iter()
                        .filter(|&&v| v != 0.0)
                        .map(|v| v.abs())
                        .collect();
                    if mags.is_empty() {
                        GridRule::None
                    } else {
                        let nz_ratio = (ratio * values.len() as f64 / mags.len() as f64).min(1.0);
                        GridRule::Threshold(kth_largest(&mags, top_k(mags.len(), nz_ratio)))
                    }
                }
                OutlierSelect::WindowedTopK { window } => GridRule::Windowed(window),
                OutlierSelect::SensitivityWeighted { window } => {
                    let mut scores = Vec::new();
                    for lanes in &chunks {
                        scores.extend(sensitivity_scores(lanes, window));
                    }
                    if scores.is_empty() {
                        GridRule::None
                    } else {
                        let nz_ratio = (ratio * values.len() as f64 / scores.len() as f64).min(1.0);
                        let t = kth_largest(&scores, top_k(scores.len(), nz_ratio));
                        GridRule::Sensitivity(window, t)
                    }
                }
            }
        };
        let (mut zeros, mut outliers, mut single, mut multi) = (0u64, 0u64, 0u64, 0u64);
        for lanes in &chunks {
            zeros += lanes.iter().filter(|&&v| v == 0.0).count() as u64;
            let count = chunk_count(lanes, &rule);
            outliers += u64::from(count);
            match count {
                0 => {}
                1 => single += 1,
                _ => multi += 1,
            }
        }
        let total = values.len().max(1);
        let chunks = (chunks.len() as u64).max(1);
        WeightChunkStats {
            zero_fraction: zeros as f64 / total as f64,
            outlier_ratio: outliers as f64 / total as f64,
            single_fraction: single as f64 / chunks as f64,
            multi_fraction: multi as f64 / chunks as f64,
        }
    }
}

/// Adversarial value distribution: mostly ordinary finite floats, salted
/// with the boundary citizens — both zeros, NaN, and a repeated `±2.0`
/// that manufactures bit-identical magnitude ties.
fn value() -> impl Strategy<Value = f32> {
    (0u8..9, -3.0f32..3.0).prop_map(|(kind, v)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => f32::NAN,
        3 => 2.0,
        4 => -2.0,
        _ => v,
    })
}

/// The grid differential's pool: [`value`] salted with subnormals of
/// either sign. Half of them are tiny enough (bits below `0x0010_0000`) to
/// share `+0.0`'s bucket in a 12-bit key histogram, so rank k can fall in
/// the bucket next to the zero lanes.
fn grid_value() -> impl Strategy<Value = f32> {
    (0u8..11, value(), 1u32..0x0080_0000, prop::bool::ANY).prop_map(|(kind, v, bits, neg)| {
        let sign = if neg { 0x8000_0000 } else { 0 };
        match kind {
            0 => f32::from_bits(sign | (bits & 0x000F_FFFF).max(1)),
            1 => f32::from_bits(sign | bits),
            _ => v,
        }
    })
}

/// A ratio in `[0, 1]` that is exactly 0 an eighth of the time and exactly
/// 1 another eighth: a uniform draw never lands on either endpoint, where
/// the rules disable or saturate.
fn ratio() -> impl Strategy<Value = f64> {
    (0u8..8, 0.0f64..=1.0).prop_map(|(kind, r)| match kind {
        0 => 0.0,
        1 => 1.0,
        _ => r,
    })
}

fn select_from(sel: u8, window: usize) -> OutlierSelect {
    match sel % 3 {
        0 => OutlierSelect::MagnitudePercentile,
        1 => OutlierSelect::WindowedTopK { window },
        _ => OutlierSelect::SensitivityWeighted { window },
    }
}

fn assert_stats_eq(
    a: &WeightChunkStats,
    b: &WeightChunkStats,
    context: &str,
) -> Result<(), TestCaseError> {
    for (what, x, y) in [
        ("zero_fraction", a.zero_fraction, b.zero_fraction),
        ("outlier_ratio", a.outlier_ratio, b.outlier_ratio),
        ("single_fraction", a.single_fraction, b.single_fraction),
        ("multi_fraction", a.multi_fraction, b.multi_fraction),
    ] {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what} diverged ({x} vs {y}) at {context}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn magnitude_trait_is_the_pretrait_quantizer_bit_for_bit(
        values in prop::collection::vec(value(), 1..300),
        ratio in 0.0f64..=0.5,
    ) {
        // The refactor's core promise: `OutlierSelect::MagnitudePercentile`
        // computes the same threshold `OutlierQuantizer::fit` computes on
        // the non-zero population, and classifies every value exactly as
        // `is_outlier` does (zeros excluded). Threshold equality is on the
        // bit pattern, so INFINITY/degenerate cases are covered too.
        if !values.iter().any(|v| v.is_finite() && v.abs() > 0.0) {
            // `OutlierQuantizer::fit` rejects populations with no usable
            // magnitude by contract; skip the (rare) degenerate draw.
            return Ok(());
        }
        let nonzero: Vec<f32> = values.iter().copied().filter(|&v| v != 0.0).collect();
        let policy = OutlierSelect::MagnitudePercentile;
        let t = policy.calibrate(&values, ratio);
        if t.is_nan() {
            // The top-k was all NaN magnitudes. The pre-trait
            // `OutlierQuantizer` rejects such populations by contract
            // (`with_threshold` asserts a positive threshold), so only the
            // policy side is checked: exactly the NaN values tie with a NaN
            // threshold under `total_cmp`.
            let flags = policy.classify_with(&values, t);
            for (i, &v) in values.iter().enumerate() {
                prop_assert_eq!(flags[i], v.is_nan());
            }
            return Ok(());
        }
        let q = OutlierQuantizer::fit(&nonzero, ratio, 4, 8);
        prop_assert_eq!(t.to_bits(), q.threshold().to_bits());
        let flags = policy.classify(&values, ratio);
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(
                flags[i],
                v != 0.0 && q.is_outlier(v),
                "value {v} at {i} classified differently"
            );
        }
    }

    #[test]
    fn every_policy_matches_its_naive_reference(
        values in prop::collection::vec(value(), 0..300),
        ratio in ratio(),
        sel in 0u8..3,
        window in 1usize..=9,
    ) {
        let select = select_from(sel, window);
        let flags = select.classify(&values, ratio);
        let reference = naive::classify(select, &values, ratio);
        prop_assert_eq!(flags, reference, "{} diverged from naive oracle", select.name());
    }

    #[test]
    fn windowed_density_is_ceil_n_over_window(
        values in prop::collection::vec(
            (-3.0f32..3.0).prop_map(|v| if v >= 0.0 { v + 0.01 } else { v - 0.01 }),
            1..300,
        ),
        window in 1usize..=16,
        ratio in 0.001f64..=1.0,
    ) {
        // On all-non-zero data every window elects exactly one outlier, so
        // the density is exactly ceil(n / window) — independent of the
        // requested ratio (any positive ratio enables the policy).
        let select = OutlierSelect::WindowedTopK { window };
        let flags = select.classify(&values, ratio);
        let count = flags.iter().filter(|&&f| f).count();
        prop_assert_eq!(count, values.len().div_ceil(window));
        // Chunk-local: exactly one winner inside each window.
        for (w, chunk) in flags.chunks(window).enumerate() {
            prop_assert_eq!(
                chunk.iter().filter(|&&f| f).count(),
                1,
                "window {w} does not have exactly one outlier"
            );
        }
    }

    #[test]
    fn windowed_count_is_the_number_of_live_windows(
        values in prop::collection::vec(value(), 0..300),
        window in 1usize..=16,
    ) {
        // With zeros present the exact density statement generalizes: one
        // outlier per window that contains at least one non-zero value.
        let select = OutlierSelect::WindowedTopK { window };
        let flags = select.classify(&values, 0.05);
        let count = flags.iter().filter(|&&f| f).count();
        let live = values
            .chunks(window)
            .filter(|w| w.iter().any(|&v| v != 0.0))
            .count();
        prop_assert_eq!(count, live);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn grid_sweep_matches_naive_oracle_at_any_jobs(
        co in 1usize..=40,
        inner in 1usize..=24,
        pool in prop::collection::vec(grid_value(), 960..=960),
        ratio in ratio(),
        sel in 0u8..3,
        window in 1usize..=16,
        jobs in 1usize..6,
        negative_nan in prop::bool::ANY,
    ) {
        // The band-major weight-grid kernel equals the serial naive
        // reference — all four statistics bit-for-bit — for every policy,
        // ratio up to 1.0, grid shape (including ragged final bands), and
        // worker count. (The pool is sized to the largest co x inner grid;
        // each case takes the prefix its drawn shape needs.)
        let select = select_from(sel, window);
        let values: Vec<f32> = pool[..co * inner]
            .iter()
            .map(|&v| match (v.is_nan(), select) {
                // Weights are finite by construction and the magnitude fit
                // enforces that (a NaN-saturated top-k would make its
                // threshold NaN, which `OutlierQuantizer` rejects). The
                // structured policies keep full NaN coverage.
                (true, OutlierSelect::MagnitudePercentile) => 2.5,
                // Half the grids carry sign-bit-set NaN. The sensitivity
                // scores of their windows are NaN products, whose sign the
                // platform picks; the score maps every one to `f32::NAN`,
                // above every real score under `total_cmp`.
                (true, _) if negative_nan => -f32::NAN,
                _ => v,
            })
            .collect();
        let values = &values[..];
        let fused = grid_chunk_stats(values, co, inner, ratio, select, jobs);
        let reference = naive::grid_stats(values, co, inner, ratio, select);
        assert_stats_eq(
            &fused,
            &reference,
            &format!("{}x{inner} grid, {}, jobs={jobs}", co, select.name()),
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn magnitude_extraction_reproduces_pretrait_pipeline(
        cin in 1usize..16,
        cmid in 1usize..32,
        spatial in 5usize..11,
        kernel in 1usize..4,
        ratio in 0.0f64..0.12,
        jobs in 1usize..6,
        seed in 0u64..1000,
    ) {
        // End-to-end leg of claim 1: under MagnitudePercentile the whole
        // trait-threaded extraction — calibration, weight grids, chunk
        // sweeps — is byte-identical to the retained pre-trait multi-pass
        // oracle on random shapes at any worker count.
        let pad = kernel / 2;
        let mut net = Network::new("prop", Shape4::new(1, cin, spatial, spatial));
        let c1 = net.add(
            "conv1",
            Op::Conv(Conv2dSpec::new(cin, cmid, ConvGeometry::new(kernel, 1, pad))),
            &[0],
        );
        let r1 = net.add("relu1", Op::ReLU, &[c1]);
        let out_s = spatial + 2 * pad - kernel + 1;
        net.add(
            "fc",
            Op::Linear(LinearSpec::new(cmid * out_s * out_s, 10)),
            &[r1],
        );
        let params = synthesize_params(&net, &SynthConfig::default());
        let input = uniform_tensor(net.input_shape(), -1.0, 1.0, seed);
        let acts = net.forward(&params, &input);
        let policy = QuantPolicy {
            outlier_ratio: ratio,
            first_layer: FirstLayerPolicy::RawActs,
            select: OutlierSelect::MagnitudePercentile,
            ..QuantPolicy::olaccel16("alexnet")
        };
        let reference = oracle::extract_from_acts(&net, &params, &acts, &policy);
        let fused =
            extract_from_acts_jobs(&net, &params, &acts, &policy, &Censuses::default(), jobs);
        prop_assert!(
            oracle::bitwise_eq(&fused, &reference),
            "magnitude extraction drifted from the pre-trait oracle at jobs={jobs}"
        );
    }
}

#[test]
fn nan_is_an_outlier_under_every_policy() {
    // total_cmp orders NaN above +inf: it beats any calibrated threshold,
    // wins its window, and its sensitivity score (NaN * rms) still
    // compares greatest. The classification must be deterministic, not
    // incidental.
    let mut values = vec![0.5f32; 40];
    values[7] = f32::NAN;
    for select in [
        OutlierSelect::MagnitudePercentile,
        OutlierSelect::WindowedTopK { window: 8 },
        OutlierSelect::SensitivityWeighted { window: 8 },
    ] {
        let flags = select.classify(&values, 0.05);
        assert!(flags[7], "{}: NaN not classified as outlier", select.name());
        assert_eq!(
            flags,
            naive::classify(select, &values, 0.05),
            "{}: NaN input diverged from naive oracle",
            select.name()
        );
    }
}

#[test]
fn negative_zero_is_never_an_outlier() {
    // -0.0 == 0.0, so it is magnitude zero under every policy — even at
    // ratio 1.0, where every non-zero value is an outlier.
    let values = [-0.0f32, 1.0, -0.0, -2.0, 0.0, 3.0];
    for select in [
        OutlierSelect::MagnitudePercentile,
        OutlierSelect::WindowedTopK { window: 2 },
        OutlierSelect::SensitivityWeighted { window: 2 },
    ] {
        let flags = select.classify(&values, 1.0);
        assert_eq!(
            flags,
            vec![false, true, false, true, false, true],
            "{}: zero handling wrong",
            select.name()
        );
    }
}

#[test]
fn constant_slices_classify_every_tie_identically() {
    // All values bit-identical: the magnitude and sensitivity thresholds
    // land exactly on the shared value, and the >= tie contract promotes
    // every one of them; windowed selection still elects exactly one per
    // window (lowest index).
    let values = [1.5f32; 33];
    let mag = OutlierSelect::MagnitudePercentile.classify(&values, 0.1);
    assert!(
        mag.iter().all(|&f| f),
        "magnitude split a bit-identical tie"
    );
    let sens = OutlierSelect::SensitivityWeighted { window: 8 }.classify(&values, 0.1);
    assert!(
        sens.iter().all(|&f| f),
        "sensitivity split a bit-identical tie"
    );
    let win = OutlierSelect::WindowedTopK { window: 8 }.classify(&values, 0.1);
    let winners: Vec<usize> = win
        .iter()
        .enumerate()
        .filter_map(|(i, &f)| f.then_some(i))
        .collect();
    // ceil(33 / 8) = 5 windows, each won by its first value.
    assert_eq!(winners, vec![0, 8, 16, 24, 32]);
}

#[test]
fn empty_and_all_zero_slices_are_quietly_disabled() {
    for select in [
        OutlierSelect::MagnitudePercentile,
        OutlierSelect::WindowedTopK { window: 4 },
        OutlierSelect::SensitivityWeighted { window: 4 },
    ] {
        assert!(
            select.classify(&[], 0.1).is_empty(),
            "{}: empty slice",
            select.name()
        );
        let zeros = [0.0f32, -0.0, 0.0, -0.0, 0.0];
        let flags = select.classify(&zeros, 0.1);
        // An all-zero window has no top-1; an all-zero population has no
        // threshold. Nothing classifies.
        assert!(
            flags.iter().all(|&f| !f),
            "{}: all-zero slice produced outliers",
            select.name()
        );
    }
}
