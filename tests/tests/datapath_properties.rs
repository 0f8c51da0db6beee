//! Property tests of the bit-exact datapath: any mix of normal and outlier
//! weights, encoded through the chunk format and executed by the 16+1-MAC
//! model, must reproduce the plain integer reference for any activation
//! sequence.

use ola_integration::datapath::{run_sequence, PsumBank};
use ola_integration::tribuffer::{simulate_pipeline, TileWork};
use ola_quant::chunks::{encode_group, QuantizedWeight};
use proptest::prelude::*;

fn arb_group() -> impl Strategy<Value = Vec<QuantizedWeight>> {
    prop::collection::vec(
        (-127i32..=127, prop::bool::ANY).prop_map(|(level, outlier)| {
            if outlier && level.abs() > 7 {
                QuantizedWeight::outlier(level)
            } else {
                QuantizedWeight::normal(level.clamp(-7, 7))
            }
        }),
        16,
    )
}

proptest! {
    #[test]
    fn datapath_matches_integer_reference(
        group in arb_group(),
        acts in prop::collection::vec(-32768i32..=32767, 1..20)
    ) {
        let (chunk, overflow) = encode_group(&group);
        let (psums, reference, cycles) = run_sequence(&chunk, overflow.as_ref(), &acts);
        // 24-bit accumulators can wrap on extreme sequences; compare modulo
        // the accumulator width like the hardware would.
        let wrap = |v: i64| -> i32 { ((v << 40) >> 40) as i32 };
        for (lane, (&got, &want)) in psums.values().iter().zip(&reference).enumerate() {
            prop_assert_eq!(got, wrap(want as i64), "lane {}", lane);
        }
        // Cycle count: 1 per broadcast, 2 when the chunk is multi-outlier.
        let per = if chunk.is_multi_outlier() { 2 } else { 1 };
        prop_assert_eq!(cycles, acts.len() as u32 * per);
    }

    #[test]
    fn psum_bank_wraps_like_24_bit_hardware(adds in prop::collection::vec(-100_000i32..=100_000, 1..50)) {
        let mut bank = PsumBank::new();
        let mut reference = 0i64;
        for &v in &adds {
            bank.add(0, v);
            reference += v as i64;
        }
        let wrapped = ((reference << 40) >> 40) as i32;
        prop_assert_eq!(bank.values()[0], wrapped);
    }

    #[test]
    fn tribuffer_never_beats_raw_work(
        tiles in prop::collection::vec((1u64..20, 0u64..20), 1..60),
        buffers in 2usize..6
    ) {
        let work: Vec<TileWork> = tiles
            .iter()
            .map(|&(n, o)| TileWork { normal_cycles: n, outlier_cycles: o })
            .collect();
        let r = simulate_pipeline(&work, buffers);
        let normal_sum: u64 = work.iter().map(|t| t.normal_cycles).sum();
        let outlier_sum: u64 = work.iter().map(|t| t.outlier_cycles).sum();
        // Lower bound: each unit's own serial work.
        prop_assert!(r.total_cycles >= normal_sum.max(outlier_sum));
        // Upper bound: full serialization.
        prop_assert!(r.total_cycles <= normal_sum + outlier_sum);
        // More buffers never hurt.
        if buffers < 5 {
            let more = simulate_pipeline(&work, buffers + 1);
            prop_assert!(more.total_cycles <= r.total_cycles);
        }
    }
}
