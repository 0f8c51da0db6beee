//! The three OLAccel cycle models held to one count, exactly.
//!
//! [`execute`] runs a convolution through the bit-exact datapath, counts
//! every broadcast and zero-skip cycle, and yields the [`UnitJob`] of every
//! unit it runs. On every generated layer:
//!
//! 1. The event simulation over those jobs reproduces the functional run
//!    and skip cycles in `u64`: `UnitJob`'s cost formula is the datapath's.
//! 2. The closed form ([`layer_cost`]) reads what [`extract`] — the
//!    extraction the reports run — measures on the dequantized
//!    activations, with a 4-bit first layer. On 1×1,
//!    stride-1 layers whose channel count is a multiple of 16 and whose
//!    packed weights hold no multi-outlier chunk, both models use every
//!    chunk once per output-channel group, and the closed form equals the
//!    functional count.
//! 3. On every other layer the test computes the closed form's gap from
//!    three integer sources and asserts it exactly:
//!    * border reuse: the closed form counts a unit for every kernel tap,
//!      taps on zero padding included, and spreads the units over its
//!      chunks round-robin ([`chunk_uses`]), while the datapath uses a
//!      chunk once per output-channel group and in-bounds kernel tap;
//!    * padding quads: the extraction counts each quad past a chunk's last
//!      real channel as all-zero, so the closed form charges it a skip
//!      cycle per use, while the datapath scans only real lanes;
//!    * multi-outlier incidence: the datapath pays a second cycle for each
//!      broadcast against a packed multi-outlier chunk, which the test
//!      counts. The closed form charges the expectation `m × broadcasts`
//!      instead, at the rate `m` the extraction measures, which must equal
//!      the packed chunks' multi-outlier fraction bit for bit. That
//!      expectation is not an integer, so the broadcast identity is taken
//!      on the closed form with the rate cleared.
//!
//! Weights are heavy-tailed under the magnitude rule, OSC-style with the
//! outliers in one input channel (so that one weight column collects the
//! multi-outlier chunks), or one outlier per chunk. Activations are
//! post-ReLU, or OverQ-style with each outlier next to a zero. Kernels are
//! 1×1 and 3×3, strides 1 and 2, and channel counts 3, 8, 16, 24 and 32.

use ola_core::cost::{chunk_uses, layer_cost, GroupTuning};
use ola_core::event::{simulate_cluster, EventConfig, UnitJob};
use ola_integration::functional::{execute, quantize_acts, FunctionalStats, PackedConv};
use ola_nn::network::WeightStore;
use ola_nn::{Conv2dSpec, Network, Op, Params};
use ola_sim::workload::{extract, LayerWorkload};
use ola_sim::{FirstLayerPolicy, QuantPolicy};
use ola_tensor::init::{gaussian_tensor, heavy_tailed_tensor, uniform_tensor, HeavyTailed};
use ola_tensor::{ConvGeometry, Shape4, Tensor, CHUNK_LANES};

/// Input height and width of every generated layer.
const SIDE: usize = 8;
/// Outlier ratio of the weights and the activations.
const RATIO: f64 = 0.03;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Weights {
    /// Heavy-tailed values; the magnitude rule picks the outliers.
    HeavyTailed,
    /// Gaussian values with one input channel lifted far above the rest
    /// (OSC): the outliers concentrate in that channel's weight columns.
    ChannelOutliers,
    /// Gaussian values with one weight lifted in every chunk: each
    /// outlier is alone in its chunk, where the outlier MAC absorbs it.
    OnePerChunk,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Acts {
    /// Heavy-tailed values through a ReLU.
    PostRelu,
    /// Post-ReLU values where each outlier sits next to a zero lane of
    /// its channel pair (OverQ).
    OutliersBesideZeros,
}

#[derive(Clone, Copy, Debug)]
struct Case {
    cin: usize,
    cout: usize,
    kernel: usize,
    stride: usize,
    weights: Weights,
    acts: Acts,
    /// The weights' outlier ratio (the activations always use [`RATIO`]).
    weight_ratio: f64,
    seed: u64,
}

impl Case {
    fn pad(&self) -> usize {
        self.kernel / 2
    }

    fn out_side(&self) -> usize {
        (SIDE + 2 * self.pad() - self.kernel) / self.stride + 1
    }

    /// The OSC hot channel.
    fn hot_channel(&self) -> usize {
        self.cin / 2
    }
}

/// Every combination of the generators, one seed each.
fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for cin in [3, 8, 16, 24, 32] {
        for cout in [16, 24] {
            for (kernel, stride) in [(1, 1), (1, 2), (3, 1), (3, 2)] {
                for weights in [
                    Weights::HeavyTailed,
                    Weights::ChannelOutliers,
                    Weights::OnePerChunk,
                ] {
                    for acts in [Acts::PostRelu, Acts::OutliersBesideZeros] {
                        cases.push(Case {
                            cin,
                            cout,
                            kernel,
                            stride,
                            weights,
                            acts,
                            weight_ratio: RATIO,
                            seed: 100 + 2 * cases.len() as u64,
                        });
                    }
                }
            }
        }
    }
    cases
}

/// Lifts `w[oc, c, ky, kx]` by 0.12 away from zero: far above a bulk of
/// standard deviation 0.02, and close enough to the other lifted weights
/// that the aligned 8-bit grid reaches the largest from any threshold
/// among them.
fn lift(w: &mut Tensor, oc: usize, c: usize, ky: usize, kx: usize) {
    let v = w.get(oc, c, ky, kx);
    w.set(oc, c, ky, kx, v + 0.12f32.copysign(v));
}

fn weights(case: &Case) -> Tensor {
    let k = case.kernel;
    let shape = Shape4::new(case.cout, case.cin, k, k);
    if case.weights == Weights::HeavyTailed {
        return heavy_tailed_tensor(shape, HeavyTailed::default(), case.seed);
    }
    let mut w = gaussian_tensor(shape, 0.02, case.seed);
    for g in 0..case.cout.div_ceil(CHUNK_LANES) {
        let rows = (case.cout - g * CHUNK_LANES).min(CHUNK_LANES);
        for c in 0..case.cin {
            for (ky, kx) in (0..k).flat_map(|ky| (0..k).map(move |kx| (ky, kx))) {
                if case.weights == Weights::OnePerChunk {
                    // More lifted weights than the ratio selects, so every
                    // outlier is a lifted one.
                    lift(
                        &mut w,
                        g * CHUNK_LANES + (c + ky * k + kx) % rows,
                        c,
                        ky,
                        kx,
                    );
                } else if c == case.hot_channel() {
                    // The hot channel holds at least the ratio's share of
                    // the weights, so it holds every outlier.
                    for lane in 0..rows {
                        lift(&mut w, g * CHUNK_LANES + lane, c, ky, kx);
                    }
                }
            }
        }
    }
    w
}

fn activations(case: &Case) -> Tensor {
    let shape = Shape4::new(1, case.cin, SIDE, SIDE);
    let mut a = heavy_tailed_tensor(shape, HeavyTailed::default(), case.seed + 1);
    a.map_inplace(|v| v.max(0.0) * 10.0);
    if case.acts == Acts::OutliersBesideZeros {
        let pick = uniform_tensor(shape, 0.0, 1.0, case.seed + 2);
        for pair in (0..case.cin).step_by(2) {
            for h in 0..SIDE {
                for w in 0..SIDE {
                    let u = pick.get(0, pair, h, w);
                    if u >= 0.08 {
                        continue;
                    }
                    let (hot, zero) = if u < 0.04 {
                        (pair, pair + 1)
                    } else {
                        (pair + 1, pair)
                    };
                    if hot < case.cin {
                        a.set(0, hot, h, w, 3.0 + 25.0 * u);
                    }
                    if zero < case.cin {
                        a.set(0, zero, h, w, 0.0);
                    }
                }
            }
        }
    }
    a
}

/// One generated layer, run through the datapath and through the
/// extraction the reports run.
struct Run {
    case: Case,
    packed: PackedConv,
    /// Quantized activation levels, `(c, h, w)` row-major.
    levels: Vec<i32>,
    stats: FunctionalStats,
    jobs: Vec<UnitJob>,
    layer: LayerWorkload,
}

impl Run {
    fn new(case: Case) -> Self {
        let w = weights(&case);
        let (packed, _) = PackedConv::pack(&w, case.weight_ratio, case.stride, case.pad());
        let qa = quantize_acts(&activations(&case), RATIO);
        let (_, stats, jobs) = execute(&packed, &qa);

        // The extraction reads the activations the datapath multiplies.
        let mut dequantized = Tensor::zeros(qa.shape);
        for (v, &level) in dequantized.as_mut_slice().iter_mut().zip(&qa.levels) {
            *v = level as f32 * qa.scale;
        }
        let mut net = Network::new("differential", qa.shape);
        let geometry = ConvGeometry::new(case.kernel, case.stride, case.pad());
        let conv = net.add(
            "conv",
            Op::Conv(Conv2dSpec::new(case.cin, case.cout, geometry)),
            &[0],
        );
        let mut params = Params::for_network(&net);
        params.set_weights(conv, WeightStore::Dense(w));
        let policy = QuantPolicy {
            outlier_ratio: case.weight_ratio,
            first_layer: FirstLayerPolicy::FineTuned4Bit,
            ..QuantPolicy::olaccel16("differential")
        };
        let layer = extract(&net, &params, &dequantized, &policy)
            .layers
            .remove(0);
        assert_eq!((layer.act_bits, layer.weight_bits), (4, 4), "{case:?}");
        Run {
            case,
            packed,
            levels: qa.levels,
            stats,
            jobs,
            layer,
        }
    }

    fn oc_groups(&self) -> usize {
        self.case.cout.div_ceil(CHUNK_LANES)
    }

    fn level(&self, c: usize, h: usize, w: usize) -> i32 {
        self.levels[(c * SIDE + h) * SIDE + w]
    }

    /// Output positions and kernel taps that read input row (or column)
    /// `x`.
    fn reuse(&self, x: usize) -> u64 {
        let c = &self.case;
        let taps = (0..c.out_side()).flat_map(|o| (0..c.kernel).map(move |k| o * c.stride + k));
        taps.filter(|&t| t == x + c.pad()).count() as u64
    }

    /// Every activation chunk in the extraction's position-major order.
    fn chunks(&self) -> Vec<Chunk> {
        let cin = self.case.cin;
        let mut chunks = Vec::new();
        for h in 0..SIDE {
            for w in 0..SIDE {
                for c0 in (0..cin).step_by(CHUNK_LANES) {
                    let real = (cin - c0).min(CHUNK_LANES);
                    let lanes: Vec<i32> = (c0..c0 + real).map(|c| self.level(c, h, w)).collect();
                    let quads = lanes.chunks(4);
                    chunks.push(Chunk {
                        nnz: lanes.iter().filter(|&&l| l != 0).count() as u64,
                        zero_quads: quads.filter(|q| q.iter().all(|&l| l == 0)).count() as u64,
                        padding_quads: (CHUNK_LANES - real) as u64 / 4,
                        uses: self.oc_groups() as u64 * self.reuse(h) * self.reuse(w),
                    });
                }
            }
        }
        chunks
    }

    /// Broadcasts that hit a packed multi-outlier weight chunk: the second
    /// cycles the datapath pays.
    fn multi_outlier_incidence(&self) -> u64 {
        let c = &self.case;
        let mut hits = 0;
        for g in 0..self.oc_groups() {
            for oy in 0..c.out_side() {
                for ox in 0..c.out_side() {
                    for ky in 0..c.kernel {
                        for kx in 0..c.kernel {
                            let iy = (oy * c.stride + ky).checked_sub(c.pad());
                            let ix = (ox * c.stride + kx).checked_sub(c.pad());
                            let (Some(iy), Some(ix)) = (iy, ix) else {
                                continue;
                            };
                            if iy >= SIDE || ix >= SIDE {
                                continue;
                            }
                            hits += (0..c.cin)
                                .filter(|&ch| {
                                    self.level(ch, iy, ix) != 0
                                        && self.packed.is_multi_outlier(g, ch, ky, kx)
                                })
                                .count() as u64;
                        }
                    }
                }
            }
        }
        hits
    }

    /// Whether the closed form's uniform-reuse assumption holds exactly.
    fn uniform(&self) -> bool {
        let c = &self.case;
        c.kernel == 1
            && c.stride == 1
            && c.cin.is_multiple_of(CHUNK_LANES)
            && self.packed.multi_outlier_fraction() == 0.0
    }
}

/// One activation chunk as the test counts it from the quantized levels.
struct Chunk {
    /// Non-zero lanes.
    nnz: u64,
    /// All-zero quads among the real lanes (the datapath's scan).
    zero_quads: u64,
    /// Quads past the last real channel.
    padding_quads: u64,
    /// How many units the datapath runs on this chunk.
    uses: u64,
}

/// Identity 1: the event simulation over the functional jobs spends
/// exactly the functional cycles.
fn assert_event_matches_functional(run: &Run) {
    let record = simulate_cluster(&run.jobs, 0, &EventConfig::default());
    let u = record.utilization;
    assert_eq!(
        (u.run_cycles, u.skip_cycles),
        (run.stats.run_cycles, run.stats.skip_cycles),
        "{:?}",
        run.case
    );
}

/// The terms of the closed form's gap to the datapath, in cycles.
#[derive(Debug, PartialEq)]
struct Gap {
    /// Broadcasts the closed form charges beyond the datapath's.
    border_run: i64,
    /// Scan cycles the same reuse difference charges on real-lane quads.
    border_skip: i64,
    /// Skip cycles charged on padding quads.
    padding: i64,
    /// The datapath's multi-outlier second cycles.
    incidence: i64,
}

/// Computes the closed form's gap to the datapath and asserts it exactly.
fn assert_closed_form_gap(run: &Run) -> Gap {
    let case = &run.case;
    let l = &run.layer;
    let chunks = run.chunks();
    // The closed form's MAC count includes the kernel taps that land on
    // zero padding; the datapath runs only the in-bounds ones.
    let units = l.group_units();
    let groups = (case.cin.div_ceil(CHUNK_LANES) * run.oc_groups()) as u64;
    let taps = (case.out_side() * case.kernel).pow(2) as u64;
    let in_bounds = (0..SIDE).map(|x| run.reuse(x)).sum::<u64>().pow(2);
    assert_eq!(units, taps * groups, "{case:?}: closed-form units");
    assert_eq!(
        run.jobs.len() as u64,
        in_bounds * groups,
        "{case:?}: units run"
    );
    assert_eq!(l.chunk_nnz.len(), chunks.len(), "{case:?}: chunk count");

    // The extraction reads the datapath's zero pattern, and counts padding
    // quads as all-zero.
    for (i, ch) in chunks.iter().enumerate() {
        assert_eq!(u64::from(l.chunk_nnz[i]), ch.nnz, "{case:?}: chunk {i}");
        assert_eq!(
            u64::from(l.chunk_zero_quads[i]),
            ch.zero_quads + ch.padding_quads,
            "{case:?}: chunk {i}"
        );
    }

    // The datapath's counts, from the levels and the packed chunks.
    let incidence = run.multi_outlier_incidence();
    let broadcasts: u64 = chunks.iter().map(|ch| ch.nnz * ch.uses).sum();
    let scans: u64 = chunks.iter().map(|ch| ch.zero_quads * ch.uses).sum();
    assert_eq!(run.stats.run_cycles, broadcasts + incidence, "{case:?}");
    assert_eq!(run.stats.skip_cycles, scans, "{case:?}");

    // The closed form's multi-outlier rate is the packed chunks'.
    assert_eq!(
        l.wchunk_multi_fraction.to_bits(),
        run.packed.multi_outlier_fraction().to_bits(),
        "{case:?}: multi-outlier fraction"
    );

    let mut gap = Gap {
        border_run: 0,
        border_skip: 0,
        padding: 0,
        incidence: incidence as i64,
    };
    for (i, ch) in chunks.iter().enumerate() {
        let uses = chunk_uses(units, chunks.len(), i);
        let extra = uses as i64 - ch.uses as i64;
        gap.border_run += ch.nnz as i64 * extra;
        gap.border_skip += ch.zero_quads as i64 * extra;
        gap.padding += (ch.padding_quads * uses) as i64;
    }
    let cleared = LayerWorkload {
        wchunk_multi_fraction: 0.0,
        ..l.clone()
    };
    let closed = layer_cost(&cleared, &GroupTuning::default());
    assert_eq!((closed.run.fract(), closed.skip.fract()), (0.0, 0.0));
    assert_eq!(
        closed.run as i64 - run.stats.run_cycles as i64,
        gap.border_run - gap.incidence,
        "{case:?}: run gap"
    );
    assert_eq!(
        closed.skip as i64 - run.stats.skip_cycles as i64,
        gap.border_skip + gap.padding,
        "{case:?}: skip gap"
    );
    gap
}

#[test]
fn three_models_agree_exactly() {
    let (mut uniform, mut single, mut multi, mut border, mut padded) = (0, 0, 0, 0, 0);
    for case in cases() {
        let run = Run::new(case);
        assert_event_matches_functional(&run);
        let gap = assert_closed_form_gap(&run);
        if run.uniform() {
            // Identity 2: the closed form exactly as the reports run it.
            let lc = layer_cost(&run.layer, &GroupTuning::default());
            assert_eq!(lc.run, run.stats.run_cycles as f64, "{case:?}");
            assert_eq!(lc.skip, run.stats.skip_cycles as f64, "{case:?}");
            uniform += 1;
            single += usize::from(run.layer.wchunk_single_fraction > 0.0);
        }
        multi += usize::from(gap.incidence > 0);
        border += usize::from(gap.border_run != 0);
        padded += usize::from(gap.padding > 0);
        if case.weights == Weights::ChannelOutliers {
            // One input channel's columns collect every multi-outlier chunk.
            let hot = case.hot_channel();
            for g in 0..run.oc_groups() {
                for c in (0..case.cin).filter(|&c| c != hot) {
                    for k in 0..case.kernel * case.kernel {
                        let (ky, kx) = (k / case.kernel, k % case.kernel);
                        assert!(!run.packed.is_multi_outlier(g, c, ky, kx), "{case:?}");
                    }
                }
            }
        }
    }
    // The generators reach every regime the identities distinguish.
    assert!(uniform > 0, "no uniform-reuse layer");
    assert!(
        single > 0,
        "no uniform-reuse layer with single-outlier chunks"
    );
    assert!(multi > 0, "no layer with multi-outlier second cycles");
    assert!(border > 0, "no layer with a border-reuse gap");
    assert!(padded > 0, "no layer with padding quads");
}

/// Every network's first conv has 3 input channels. On a uniform-reuse
/// layer whose channel count is not a multiple of 16, the whole
/// disagreement is the padding quads: the closed form charges `padding
/// quads × uses` skip cycles that the datapath does not.
#[test]
fn padding_quads_are_the_whole_gap_on_uniform_layers() {
    // (input channels, padding quads per position)
    for (cin, quads) in [(3, 3), (8, 2), (24, 2)] {
        for cout in [16, 24] {
            for acts in [Acts::PostRelu, Acts::OutliersBesideZeros] {
                // No weight outliers, so no multi-outlier chunk.
                let run = Run::new(Case {
                    cin,
                    cout,
                    kernel: 1,
                    stride: 1,
                    weights: Weights::HeavyTailed,
                    acts,
                    weight_ratio: 0.0,
                    seed: 7 + cin as u64,
                });
                assert_event_matches_functional(&run);
                let gap = assert_closed_form_gap(&run);
                // Every chunk is used once per output-channel group.
                let uses = (run.oc_groups() * SIDE * SIDE) as i64;
                let want = Gap {
                    border_run: 0,
                    border_skip: 0,
                    padding: quads * uses,
                    incidence: 0,
                };
                assert_eq!(gap, want, "{cin} channels, {cout} outputs");
                let lc = layer_cost(&run.layer, &GroupTuning::default());
                assert_eq!(lc.run, run.stats.run_cycles as f64);
                assert_eq!(
                    lc.skip,
                    (run.stats.skip_cycles as i64 + quads * uses) as f64
                );
            }
        }
    }
}
