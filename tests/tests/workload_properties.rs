//! Property tests for `ola_sim::workload` extraction invariants.
//!
//! One small AlexNet preparation is shared across all cases (it is the
//! expensive part); each case extracts workloads under a randomly drawn
//! policy and checks the structural invariants every consumer of
//! [`ola_sim::workload::LayerWorkload`] relies on: chunk statistics bounded
//! by the 16-lane chunk width, counts and fractions in range, and geometry
//! (MACs, weight counts, shapes) independent of the quantization policy.
//!
//! The fused/parallel extraction pipeline is additionally pinned to the
//! retained multi-pass oracle ([`ola_integration::oracle`]): every field
//! of every layer byte-for-byte (floats by bit pattern), over randomized
//! policies, worker counts, and — in a second suite — randomized network
//! shapes including non-multiple-of-16 channel counts. The shared-cache
//! suites extract random policy sequences through one
//! [`ola_sim::workload::Censuses`], as a prepared network's extractions
//! do, and pin every extraction of the sequence to the oracle.

use ola_energy::ComparisonMode;
use ola_harness::prep::Prepared;
use ola_integration::oracle;
use ola_nn::synth::{synthesize_params, SynthConfig};
use ola_nn::zoo::{self, ZooConfig};
use ola_nn::{Conv2dSpec, LinearSpec, Network, Op, Params};
use ola_sim::policy::FirstLayerPolicy;
use ola_sim::workload::{extract_from_acts_jobs, Censuses, WorkloadSet};
use ola_sim::{OutlierSelect, QuantPolicy};
use ola_tensor::init::uniform_tensor;
use ola_tensor::{ConvGeometry, Shape4, Tensor, CHUNK_LANES};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The shared preparation: AlexNet at the smallest zoo scale, built once.
fn prep() -> &'static Prepared {
    static PREP: OnceLock<Prepared> = OnceLock::new();
    PREP.get_or_init(|| Prepared::new("alexnet", 8))
}

fn policy_from(ratio: f64, bits16: bool, first: u8, low_bits: u32) -> QuantPolicy {
    QuantPolicy {
        mode: if bits16 {
            ComparisonMode::Bits16
        } else {
            ComparisonMode::Bits8
        },
        low_bits,
        outlier_ratio: ratio,
        first_layer: match first {
            0 => FirstLayerPolicy::RawActs,
            1 => FirstLayerPolicy::RawActsWideWeights,
            _ => FirstLayerPolicy::FineTuned4Bit,
        },
        select: OutlierSelect::MagnitudePercentile,
    }
}

/// Maps a proptest-drawn discriminant + window onto the policy enum so
/// every suite below sweeps all three selection rules.
fn select_from(sel: u8, window: usize) -> OutlierSelect {
    match sel % 3 {
        0 => OutlierSelect::MagnitudePercentile,
        1 => OutlierSelect::WindowedTopK { window },
        _ => OutlierSelect::SensitivityWeighted { window },
    }
}

/// A policy for the shared-cache suites: any rule at window 1–16, either
/// mode, and a ratio that is zero one time in four.
fn any_policy() -> impl Strategy<Value = QuantPolicy> {
    (0u8..4, 0.0f64..0.12, prop::bool::ANY, 0u8..3, 1usize..=16).prop_map(
        |(zero, ratio, bits16, sel, window)| {
            let ratio = if zero == 0 { 0.0 } else { ratio };
            let mut policy = policy_from(ratio, bits16, 0, 4);
            policy.select = select_from(sel, window);
            policy
        },
    )
}

/// conv (`kernel`×`kernel`) → ReLU → 1×1 conv → ReLU → FC over a
/// `batch`-image input.
fn random_network(
    batch: usize,
    cin: usize,
    cmid: usize,
    spatial: usize,
    kernel: usize,
    classes: usize,
) -> Network {
    let pad = kernel / 2;
    let mut net = Network::new("prop", Shape4::new(batch, cin, spatial, spatial));
    let c1 = net.add(
        "conv1",
        Op::Conv(Conv2dSpec::new(
            cin,
            cmid,
            ConvGeometry::new(kernel, 1, pad),
        )),
        &[0],
    );
    let r1 = net.add("relu1", Op::ReLU, &[c1]);
    let c2 = net.add(
        "conv2",
        Op::Conv(Conv2dSpec::new(cmid, cmid, ConvGeometry::new(1, 1, 0))),
        &[r1],
    );
    let r2 = net.add("relu2", Op::ReLU, &[c2]);
    // conv1's output side (stride 1): spatial + 2*pad - kernel + 1; conv2
    // is 1x1/0-pad and preserves it.
    let out_s = spatial + 2 * pad - kernel + 1;
    let features = cmid * out_s * out_s;
    net.add("fc", Op::Linear(LinearSpec::new(features, classes)), &[r2]);
    net
}

/// Extracts `policies` in order through one shared census cache at `jobs`
/// workers; each must equal the oracle's uncached extraction, whatever
/// the policies before it left in the cache.
fn shared_cache_matches_oracle(
    net: &Network,
    params: &Params,
    acts: &[Tensor],
    policies: &[QuantPolicy],
    jobs: usize,
) -> Result<(), TestCaseError> {
    let censuses = Censuses::default();
    for (i, policy) in policies.iter().enumerate() {
        let reference = oracle::extract_from_acts(net, params, acts, policy);
        let cached = extract_from_acts_jobs(net, params, acts, policy, &censuses, jobs);
        prop_assert!(
            oracle::bitwise_eq(&cached, &reference),
            "policy {i} of {policies:?} diverged through a shared cache at jobs={jobs}"
        );
    }
    Ok(())
}

fn check_invariants(ws: &WorkloadSet, policy: &QuantPolicy) -> Result<(), TestCaseError> {
    prop_assert!(!ws.layers.is_empty());
    for (i, l) in ws.layers.iter().enumerate() {
        prop_assert_eq!(l.index, i);
        prop_assert!(l.macs > 0, "{}: zero MACs", l.name);
        prop_assert!(l.weight_count > 0);
        prop_assert!(!l.in_shape.is_empty() && !l.out_shape.is_empty());

        // Chunk statistics are bounded by the 16-lane chunk geometry.
        prop_assert!(
            l.mean_chunk_nnz() <= CHUNK_LANES as f64,
            "{}: mean_chunk_nnz {} > {}",
            l.name,
            l.mean_chunk_nnz(),
            CHUNK_LANES
        );
        prop_assert!(l.chunk_nnz.iter().all(|&n| n as usize <= CHUNK_LANES));
        prop_assert!(l.chunk_zero_quads.iter().all(|&q| q <= 4));
        prop_assert_eq!(l.chunk_nnz.len(), l.chunk_zero_quads.len());

        // Counts: outliers are a subset of the input activations.
        prop_assert!(
            l.outlier_act_count() <= l.act_count(),
            "{}: {} outliers > {} acts",
            l.name,
            l.outlier_act_count(),
            l.act_count()
        );
        prop_assert!(l.group_units() > 0);

        // Every measured fraction lies in [0, 1]; the weight-chunk
        // single/multi outlier fractions partition a subset of chunks.
        for (what, f) in [
            ("weight_zero_fraction", l.weight_zero_fraction),
            ("act_zero_fraction", l.act_zero_fraction),
            ("weight_outlier_ratio", l.weight_outlier_ratio),
            ("act_outlier_nonzero_ratio", l.act_outlier_nonzero_ratio),
            ("act_effective_outlier_ratio", l.act_effective_outlier_ratio),
            ("wchunk_single_fraction", l.wchunk_single_fraction),
            ("wchunk_multi_fraction", l.wchunk_multi_fraction),
            ("out_zero_fraction", l.out_zero_fraction),
        ] {
            prop_assert!(
                (0.0..=1.0).contains(&f),
                "{}: {what} = {f} outside [0, 1]",
                l.name
            );
        }
        prop_assert!(l.wchunk_single_fraction + l.wchunk_multi_fraction <= 1.0 + 1e-12);

        // The effective (over all activations) outlier ratio can't exceed
        // the ratio among non-zero activations.
        prop_assert!(
            l.act_effective_outlier_ratio <= l.act_outlier_nonzero_ratio + 1e-12,
            "{}: effective {} > nonzero {}",
            l.name,
            l.act_effective_outlier_ratio,
            l.act_outlier_nonzero_ratio
        );

        // Bit widths come straight from the policy.
        prop_assert_eq!(l.weight_bits, policy.weight_bits(i));
        prop_assert_eq!(l.act_bits, policy.act_bits(i));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn extraction_invariants_hold_for_any_policy(
        ratio in 0.0f64..0.12,
        bits16 in prop::bool::ANY,
        first in 0u8..3,
        sel in 0u8..3,
        window in 1usize..=16,
    ) {
        let mut policy = policy_from(ratio, bits16, first, 4);
        policy.select = select_from(sel, window);
        let ws = prep().extract(&policy);
        check_invariants(&ws, &policy)?;
    }

    #[test]
    fn geometry_is_policy_invariant(
        ratio_a in 0.0f64..0.12,
        ratio_b in 0.0f64..0.12,
        bits16 in prop::bool::ANY,
    ) {
        // MAC counts, weight counts and shapes describe the network, not
        // the quantization policy — two extractions under different
        // policies (including different selection rules) must agree on all
        // of them, layer by layer.
        let pa = policy_from(ratio_a, bits16, 0, 4);
        let mut pb = policy_from(ratio_b, !bits16, 1, 4);
        pb.select = OutlierSelect::WindowedTopK { window: 8 };
        let wa = prep().extract(&pa);
        let wb = prep().extract(&pb);
        prop_assert_eq!(wa.layers.len(), wb.layers.len());
        prop_assert_eq!(wa.total_macs(), wb.total_macs());
        for (a, b) in wa.layers.iter().zip(&wb.layers) {
            prop_assert_eq!(&a.name, &b.name);
            prop_assert_eq!(a.macs, b.macs);
            prop_assert_eq!(a.weight_count, b.weight_count);
            prop_assert_eq!(a.in_shape, b.in_shape);
            prop_assert_eq!(a.out_shape, b.out_shape);
            prop_assert_eq!(a.kernel, b.kernel);
            // Zero patterns depend on the data, not the policy.
            prop_assert_eq!(&a.chunk_nnz, &b.chunk_nnz);
            prop_assert_eq!(a.act_zero_fraction, b.act_zero_fraction);
        }
    }

    #[test]
    fn fused_extraction_bitwise_matches_oracle(
        ratio in 0.0f64..0.12,
        bits16 in prop::bool::ANY,
        first in 0u8..3,
        jobs in 1usize..6,
        sel in 0u8..3,
        window in 1usize..=16,
    ) {
        // The determinism contract: the fused single-pass parallel pipeline
        // reproduces the naive serial reference exactly — every field of
        // every layer, floats compared by bit pattern — at any worker
        // count, under every selection rule (the magnitude arm is the
        // verbatim pre-policy multi-pass pipeline).
        let mut policy = policy_from(ratio, bits16, first, 4);
        policy.select = select_from(sel, window);
        let p = prep();
        let reference = oracle::extract_from_acts(&p.net, &p.params, &p.acts, &policy);
        let fused =
            extract_from_acts_jobs(&p.net, &p.params, &p.acts, &policy, &Censuses::default(), jobs);
        prop_assert!(
            oracle::bitwise_eq(&fused, &reference),
            "fused extraction diverged from oracle at jobs={jobs}, ratio={ratio}, \
             select={:?}",
            policy.select
        );
    }

    #[test]
    fn fused_matches_oracle_on_random_networks(
        cin in 1usize..20,
        cmid in 1usize..36,
        spatial in 5usize..12,
        kernel in 1usize..4,
        classes in 1usize..20,
        ratio in 0.0f64..0.12,
        jobs in 1usize..6,
        seed in 0u64..1000,
        sel in 0u8..3,
        window in 1usize..=16,
        batch in 1usize..=3,
    ) {
        // Same contract over randomized geometry: channel counts off the
        // 16-lane grid, odd spatial sizes, 1x1..3x3 kernels, tiny FCs, and
        // batches of up to three images (each image is its own stack of
        // channel bands in the activation grid).
        let net = random_network(batch, cin, cmid, spatial, kernel, classes);
        let params = synthesize_params(&net, &SynthConfig::default());
        let input = uniform_tensor(net.input_shape(), -1.0, 1.0, seed);
        let acts = net.forward(&params, &input);
        let mut policy = policy_from(ratio, true, 0, 4);
        policy.select = select_from(sel, window);
        let reference = oracle::extract_from_acts(&net, &params, &acts, &policy);
        let fused =
            extract_from_acts_jobs(&net, &params, &acts, &policy, &Censuses::default(), jobs);
        prop_assert!(
            oracle::bitwise_eq(&fused, &reference),
            "random net (batch={batch}, cin={cin}, cmid={cmid}, s={spatial}, k={kernel}) \
             diverged at jobs={jobs}, ratio={ratio}, select={:?}",
            policy.select
        );
    }

    #[test]
    fn shared_cache_extractions_match_oracle(
        policies in prop::collection::vec(any_policy(), 2..=5),
        jobs in 1usize..=5,
    ) {
        let p = prep();
        shared_cache_matches_oracle(&p.net, &p.params, &p.acts, &policies, jobs)?;
    }

    #[test]
    fn shared_cache_matches_oracle_on_random_networks(
        cin in 1usize..20,
        cmid in 1usize..36,
        spatial in 5usize..12,
        kernel in 1usize..4,
        classes in 1usize..20,
        seed in 0u64..1000,
        batch in 1usize..=3,
        policies in prop::collection::vec(any_policy(), 2..=5),
        jobs in 1usize..=5,
    ) {
        let net = random_network(batch, cin, cmid, spatial, kernel, classes);
        let params = synthesize_params(&net, &SynthConfig::default());
        let input = uniform_tensor(net.input_shape(), -1.0, 1.0, seed);
        let acts = net.forward(&params, &input);
        shared_cache_matches_oracle(&net, &params, &acts, &policies, jobs)?;
    }

    #[test]
    fn higher_ratio_never_reduces_weight_outliers(
        lo in 0.0f64..0.05,
        delta in 0.01f64..0.08,
        sel in 0u8..3,
        window in 1usize..=16,
    ) {
        // The realized weight outlier ratio tracks the requested one
        // monotonically: a top-k threshold over a fixed population for the
        // global policies, and a constant density (independent of any
        // ratio above zero) for windowed selection.
        let select = select_from(sel, window);
        let mut p_lo = policy_from(lo, true, 0, 4);
        let mut p_hi = policy_from(lo + delta, true, 0, 4);
        p_lo.select = select;
        p_hi.select = select;
        let w_lo = prep().extract(&p_lo);
        let w_hi = prep().extract(&p_hi);
        for (a, b) in w_lo.layers.iter().zip(&w_hi.layers) {
            prop_assert!(
                b.weight_outlier_ratio >= a.weight_outlier_ratio - 1e-12,
                "{}: ratio {} -> {} but realized {} -> {}",
                a.name, lo, lo + delta, a.weight_outlier_ratio, b.weight_outlier_ratio
            );
        }
    }
}

/// One cache serves each rule at two windows or ratios, in an order where
/// every policy after the first finds entries of its rule already filled:
/// windowed-top1 at window 4 then 16 (a key without the window would
/// serve the first's counts), sensitivity likewise, and magnitude, whose
/// activation and weight censuses differ only by grid.
#[test]
fn shared_cache_keeps_windows_and_grids_apart() {
    let p = prep();
    let policies: Vec<QuantPolicy> = [
        (OutlierSelect::WindowedTopK { window: 4 }, 0.03),
        (OutlierSelect::WindowedTopK { window: 16 }, 0.05),
        (OutlierSelect::SensitivityWeighted { window: 4 }, 0.03),
        (OutlierSelect::SensitivityWeighted { window: 16 }, 0.05),
        (OutlierSelect::MagnitudePercentile, 0.03),
        (OutlierSelect::MagnitudePercentile, 0.01),
    ]
    .into_iter()
    .map(|(select, ratio)| QuantPolicy {
        select,
        outlier_ratio: ratio,
        ..QuantPolicy::olaccel16("alexnet")
    })
    .collect();
    for jobs in [1, 3] {
        shared_cache_matches_oracle(&p.net, &p.params, &p.acts, &policies, jobs)
            .unwrap_or_else(|e| panic!("{}", e.0));
    }
}

#[test]
fn fused_extraction_matches_oracle_at_any_worker_count() {
    let cfg = ZooConfig {
        spatial_scale: 8,
        include_classifier: true,
        batch: 1,
    };
    let net = zoo::alexnet(&cfg);
    let params = synthesize_params(&net, &SynthConfig::default());
    let input = uniform_tensor(net.input_shape(), -1.0, 1.0, 9);
    let outs = net.forward(&params, &input);
    let policy = QuantPolicy::olaccel16("alexnet");
    let reference = oracle::extract_from_acts(&net, &params, &outs, &policy);
    for jobs in [1, 2, 3, 8] {
        let fused =
            extract_from_acts_jobs(&net, &params, &outs, &policy, &Censuses::default(), jobs);
        assert!(
            oracle::bitwise_eq(&fused, &reference),
            "fused extraction diverged from the multi-pass oracle at jobs={jobs}"
        );
    }
}
