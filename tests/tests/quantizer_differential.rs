//! The one rule-aware outlier quantizer against the accuracy path's
//! retained per-role quantizers ([`ola_integration::oracle`]).
//!
//! `OutlierQuantizer::fit_rule` fits every population the accuracy path
//! quantizes: a weight layer (its ratio a share of all weights) and an
//! activation slot (a share of the non-zero activations), under every
//! selection rule. Before it, each role had its own branch: the magnitude
//! quantizer (over all weights, or over the non-zero activations), the
//! policy quantizer for the structured rules, and plain linear
//! quantization at ratio 0. Here the two are compared bit for bit on the
//! population they were fit to and on a second, runtime population.

use ola_integration::oracle::{
    reference_act_quantizer, reference_weight_quantizer, ReferenceQuantizer,
};
use ola_quant::{OutlierQuantizer, OutlierSelect, Share};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A population built from runs: runs of zeros of both signs, the tied
/// `±2.0`, ordinary values and, rarely, NaN, an infinity or a subnormal.
fn population() -> impl Strategy<Value = Vec<f32>> {
    let run = (0u8..12, 1usize..12, prop::bool::ANY, -3.0_f32..3.0);
    prop::collection::vec(run, 0..48).prop_map(|runs| {
        let mut values = Vec::new();
        for (kind, n, neg, v) in runs {
            let sign = if neg { -1.0_f32 } else { 1.0 };
            match kind {
                0..=2 => values.extend((0..n).map(|i| if i % 3 == 0 { -0.0 } else { 0.0 })),
                3 | 4 => values.push(2.0 * sign),
                5..=10 => values.push(v),
                _ => values.push([f32::NAN, -f32::NAN, f32::INFINITY, 1.0e-40][n % 4] * sign),
            }
        }
        values
    })
}

/// Ratios that disable outliers (`0`, `-0.0`, `-0.5`) and ratios in
/// `(0, 0.2]`.
fn ratio() -> impl Strategy<Value = f64> {
    (0u8..8, 1.0e-4_f64..=0.2).prop_map(|(kind, r)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => -0.5,
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

/// `Some(fit)`, or `None` when fitting panicked.
fn fit_or_panic<Q>(fit: impl FnOnce() -> Option<Q>) -> Option<Option<Q>> {
    catch_unwind(AssertUnwindSafe(fit)).ok()
}

/// Output bits and outlier count of an in-place pass over a copy.
fn applied(values: &[f32], pass: impl Fn(&mut [f32]) -> usize) -> (Vec<u32>, usize) {
    let mut out = values.to_vec();
    let outliers = pass(&mut out);
    (out.iter().map(|v| v.to_bits()).collect(), outliers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn rule_fit_matches_the_per_role_quantizers(
        values in population(),
        runtime in population(),
        ratio in ratio(),
        sel in 0u8..3,
        window in 1usize..=16,
        of_nonzero in prop::bool::ANY,
        bits in 0usize..3,
        wide in prop::bool::ANY,
    ) {
        let select = select_from(sel, window);
        let low_bits = [2u8, 4, 8][bits];
        let high_bits = if wide { 16 } else { 8 };
        let (share, reference) = if of_nonzero {
            let r = fit_or_panic(|| reference_act_quantizer(&values, ratio, select, low_bits, high_bits));
            (Share::NonZero, r)
        } else {
            let r = fit_or_panic(|| reference_weight_quantizer(&values, ratio, select, low_bits, high_bits));
            (Share::All, r)
        };
        let got = fit_or_panic(|| {
            OutlierQuantizer::fit_rule(&values, ratio, share, select, low_bits, high_bits)
        });
        let context = format!("{} {share:?} ratio {ratio}", select.name());
        let max = values.iter().fold(0.0_f32, |m, &v| m.max(v.abs()));
        if !max.is_finite() || max <= 0.0 {
            // No finite non-zero magnitude: no quantizer, where a per-role
            // quantizer panicked or gave none as well.
            prop_assert!(matches!(got, Some(None)), "{context}: fit a grid to nothing");
            prop_assert!(!matches!(reference, Some(Some(_))), "{context}: reference fit");
            return Ok(());
        }
        let (reference, got): (Option<ReferenceQuantizer>, Option<OutlierQuantizer>) =
            match (reference, got) {
                (None, None) => return Ok(()),
                (Some(r), Some(g)) => (r, g),
                (r, g) => {
                    return Err(TestCaseError::fail(format!(
                        "{context}: reference panicked: {}, fit panicked: {}",
                        r.is_none(),
                        g.is_none()
                    )))
                }
            };
        prop_assert_eq!(reference.is_some(), got.is_some(), "{}", context);
        if let (Some(r), Some(g)) = (reference, got) {
            for (what, pop) in [("fit", &values), ("runtime", &runtime)] {
                prop_assert_eq!(
                    applied(pop, |v| g.fake_quantize_inplace(v)),
                    applied(pop, |v| r.fake_quantize_inplace(v)),
                    "{} on the {} population", context, what
                );
            }
        }
    }
}
