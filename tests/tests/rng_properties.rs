//! Property tests of the splittable counter-based RNG seeding contract.
//!
//! Everything the synthesis pipeline generates — tensor elements, RowGen
//! rows, dataset samples, trained weights — must be a pure function of
//! `(seed, stream_id, counter)`: bit-identical in any generation order, at
//! any chunking, at any worker count, and with no collisions between
//! distinct `(seed, stream_id)` pairs on overlapping counter ranges. This
//! is the contract that lets the engine parallelize the whole prep phase
//! without perturbing a single golden byte.

use ola_integration::oracle::rowgen_row;
use ola_nn::synth::SyntheticMatrix;
use ola_nn::synthnet::{SynthDataset, SynthNet, LAYERS};
use ola_tensor::init::{gaussian_tensor, heavy_tailed_tensor, uniform_tensor, HeavyTailed};
use ola_tensor::par::{fill_indexed, ordered_map};
use ola_tensor::Shape4;
use proptest::prelude::*;
use rand::rngs::Philox;
use rand::RngCore;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The zoo's sparsities, the edges of the prune count's rounding, and 0/1.
const SPARSITIES: [f64; 7] = [0.0, 1e-9, 0.5, 0.91, 0.96, 1.0 - 1e-9, 1.0];

/// The tail fractions at the mixture's edges and the zoo's default.
const TAIL_FRACTIONS: [f64; 3] = [0.0, 0.03, 1.0];

/// Distributions the store's decoder or a struct literal can produce:
/// `(sigma, tail_scale)`.
const DISTS: [(f32, f32); 8] = [
    (0.02, 6.0),     // the zoo's default
    (1e30, 1e10),    // sigma * tail_scale overflows f32
    (1e-40, 6.0),    // subnormal sigma
    (2e-44, 6.0),    // a few subnormal steps: most magnitudes tie
    (-0.02, 6.0),    // negative sigma
    (1e38, 6.0),     // finite scales whose products round to infinity
    (0.0, 6.0),      // every value a signed zero
    (f32::NAN, 6.0), // every value NaN
];

proptest! {
    /// Random access at any counter matches the sequential stream: the
    /// value at draw `i` never depends on the draws before it.
    #[test]
    fn philox_random_access_matches_sequential(
        seed in 0u64..1 << 48,
        stream in 0u64..1 << 32,
        len in 1usize..64,
        probe in 0usize..64,
    ) {
        let mut sequential = Philox::new(seed, stream);
        let reference: Vec<u64> = (0..len).map(|_| sequential.next_u64()).collect();
        let probe = probe % len;
        // Each Philox block yields two u64 draws; seek to the block that
        // holds draw `probe` and discard the first word for odd indices.
        let mut jumped = Philox::new(seed, stream);
        jumped.seek((probe / 2) as u64);
        let mut draw = jumped.next_u64();
        if probe % 2 == 1 {
            draw = jumped.next_u64();
        }
        prop_assert_eq!(draw, reference[probe]);
    }

    /// Distinct (seed, stream) pairs produce disjoint draws even on fully
    /// overlapping counter ranges — the no-collision half of the contract.
    /// (Philox is a bijection per key, so matching 4-word windows across
    /// different keys/streams would be astronomically unlikely; any overlap
    /// here means broken stream separation.)
    #[test]
    fn philox_streams_never_collide_on_overlapping_counters(
        seed in 0u64..1 << 48,
        stream_a in 0u64..1 << 32,
        delta in 1u64..1 << 32,
    ) {
        let window = |seed: u64, stream: u64| -> [u64; 4] {
            let mut rng = Philox::new(seed, stream);
            [rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()]
        };
        let a = window(seed, stream_a);
        prop_assert_ne!(a, window(seed, stream_a.wrapping_add(delta)));
        prop_assert_ne!(a, window(seed.wrapping_add(delta), stream_a));
    }

    /// Tensor fills are bit-identical at any worker count, and an element
    /// read out of a larger tensor equals the same index in a smaller one
    /// (pure function of (seed, index), not of the tensor extent).
    #[test]
    fn tensor_fills_are_order_and_width_independent(
        seed in 0u64..1 << 48,
        jobs in 2usize..6,
    ) {
        let small = Shape4::new(1, 1, 40, 50);
        let large = Shape4::new(1, 2, 40, 50);
        ola_tensor::par::set_jobs(1);
        let h1 = heavy_tailed_tensor(large, HeavyTailed::default(), seed);
        let g1 = gaussian_tensor(large, 0.5, seed);
        let u1 = uniform_tensor(large, -2.0, 2.0, seed);
        ola_tensor::par::set_jobs(jobs);
        let h2 = heavy_tailed_tensor(large, HeavyTailed::default(), seed);
        let g2 = gaussian_tensor(large, 0.5, seed);
        let u2 = uniform_tensor(large, -2.0, 2.0, seed);
        let h_small = heavy_tailed_tensor(small, HeavyTailed::default(), seed);
        ola_tensor::par::set_jobs(1);
        prop_assert_eq!(bits(h1.as_slice()), bits(h2.as_slice()));
        prop_assert_eq!(bits(g1.as_slice()), bits(g2.as_slice()));
        prop_assert_eq!(bits(u1.as_slice()), bits(u2.as_slice()));
        // Prefix property: same (seed, i) => same value regardless of len.
        prop_assert_eq!(
            bits(&h1.as_slice()[..small.len()]),
            bits(h_small.as_slice())
        );
    }

    /// fill_indexed chunking never changes bytes: any jobs split of any
    /// length produces the serial fill.
    #[test]
    fn fill_indexed_chunking_is_invisible(
        len in 0usize..500,
        jobs in 1usize..9,
        seed in 0u64..1 << 48,
    ) {
        let f = |i: usize| {
            let mut rng = Philox::new(seed, i as u64);
            rng.next_u64()
        };
        let mut serial = vec![0u64; len];
        fill_indexed(&mut serial, 1, f);
        let mut split = vec![0u64; len];
        fill_indexed(&mut split, jobs, f);
        prop_assert_eq!(serial, split);
    }

    /// RowGen rows regenerate bit-identically in any order, from any
    /// worker, in any interleaving with other rows.
    #[test]
    fn rowgen_rows_are_pure_functions_of_index(
        seed in 0u64..1 << 48,
        rows in 2usize..12,
        cols in 1usize..80,
        jobs in 1usize..5,
        sparsity in 0.0f64..1.0,
    ) {
        let m = SyntheticMatrix::new(rows, cols, HeavyTailed::default(), sparsity, seed);
        // Reference: rows generated forward, serially.
        let forward: Vec<Vec<f32>> = (0..rows).map(|i| m.row(i)).collect();
        // Rows generated backwards...
        for i in (0..rows).rev() {
            prop_assert_eq!(bits(&m.row(i)), bits(&forward[i]));
        }
        // ...and concurrently across workers.
        let idx: Vec<usize> = (0..rows).collect();
        let parallel = ordered_map(&idx, jobs, |_, &i| m.row(i));
        for (a, b) in parallel.iter().zip(&forward) {
            prop_assert_eq!(bits(a), bits(b));
        }
    }

    /// Dataset samples are pure functions of (seed, sample index): any
    /// worker count, and any prefix length, yields identical bytes.
    #[test]
    fn dataset_generation_is_worker_count_independent(
        seed in 0u64..1 << 48,
        n in 1usize..80,
        classes in 2usize..6,
        jobs in 2usize..5,
    ) {
        ola_tensor::par::set_jobs(1);
        let serial = SynthDataset::generate(n, classes, seed);
        ola_tensor::par::set_jobs(jobs);
        let parallel = SynthDataset::generate(n, classes, seed);
        ola_tensor::par::set_jobs(1);
        prop_assert_eq!(&serial.labels, &parallel.labels);
        for (a, b) in serial.images.iter().zip(&parallel.images) {
            prop_assert_eq!(bits(a), bits(b));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `fill_row`'s bound–select–refine kernel makes the oracle's bytes:
    /// every value sampled on the row's stream, then the stable-sort
    /// prune. Where no bound holds (a non-finite scale), every value is a
    /// candidate.
    #[test]
    fn fill_row_matches_per_value_oracle(
        seed in 0u64..u64::MAX,
        row in 0usize..1 << 20,
        cols in 1usize..=5000,
        short in prop::bool::ANY,
        sparsity in (0usize..=SPARSITIES.len(), 0.0f64..1.0),
        tail_fraction in (0usize..=TAIL_FRACTIONS.len(), 0.0f64..=1.0),
        dist in 0usize..DISTS.len(),
    ) {
        let cols = if short { cols % 20 + 1 } else { cols };
        let pick = |table: &[f64], (i, random): (usize, f64)| table.get(i).copied().unwrap_or(random);
        let sparsity = pick(&SPARSITIES, sparsity);
        let (sigma, tail_scale) = DISTS[dist];
        let dist = HeavyTailed { sigma, tail_fraction: pick(&TAIL_FRACTIONS, tail_fraction), tail_scale };
        let m = SyntheticMatrix::new(row + 1, cols, dist, sparsity, seed);
        let (got, want) = (bits(&m.row(row)), bits(&rowgen_row(&m, row)));
        let first = got.iter().zip(&want).position(|(a, b)| a != b);
        prop_assert!(
            first.is_none(),
            "value {first:?} differs: {:?} vs oracle {:?}",
            first.map(|j| f32::from_bits(got[j])),
            first.map(|j| f32::from_bits(want[j]))
        );
        let prune = (cols as f64 * sparsity).round() as usize;
        let mut buf = vec![0.0; cols];
        let computed = dist.fill_pruned(&mut buf, seed, row as u64, prune);
        if prune < cols && !(sigma * tail_scale).is_finite() {
            prop_assert_eq!(computed, cols);
        }
    }
}

/// SynthNet training at any worker count produces byte-identical weights:
/// per-sample gradients reduce in sample order regardless of which worker
/// computed them. One deterministic case (not proptest — training is the
/// expensive path).
#[test]
fn training_is_worker_count_independent() {
    let data = SynthDataset::generate(96, 4, 0x7E57);
    let reference = {
        let mut net = SynthNet::new(4, 0x1111);
        net.train_jobs(&data, 2, 0.02, 0x2222, 1);
        net
    };
    for jobs in [2, 4] {
        let mut net = SynthNet::new(4, 0x1111);
        net.train_jobs(&data, 2, 0.02, 0x2222, jobs);
        for layer in LAYERS {
            assert_eq!(
                bits(reference.weights(layer)),
                bits(net.weights(layer)),
                "{layer:?} drifted at jobs={jobs}"
            );
        }
    }
}

/// A `tail_fraction` outside `[0, 1]` panics in `fill_row` as the
/// per-value draw's `gen_bool` does, even where every value is pruned.
#[test]
fn fill_row_rejects_tail_fractions_outside_unit_interval() {
    let message = |f: &dyn Fn()| {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("an invalid tail_fraction must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .expect("gen_bool panics with a formatted message")
    };
    for tail_fraction in [-0.5, 1.5, f64::NAN] {
        for sparsity in [0.0, 0.91, 1.0] {
            let dist = HeavyTailed {
                tail_fraction,
                ..HeavyTailed::default()
            };
            let m = SyntheticMatrix::new(1, 64, dist, sparsity, 3);
            assert_eq!(
                message(&|| drop(m.row(0))),
                message(&|| drop(rowgen_row(&m, 0)))
            );
        }
    }
}
