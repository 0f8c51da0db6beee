//! Synthetic trained-like parameter generation.
//!
//! Generates network parameters whose distributions match the properties the
//! paper's evaluation depends on (DESIGN.md §2): heavy-tailed weights (the
//! Fig 1 outliers) and magnitude-pruned sparsity matching the pruned
//! AlexNet/VGG-16 models of Han et al. and the authors' own ResNet-18
//! pruning.

use crate::layer::Op;
use crate::network::{Network, NodeId, Params, WeightStore};
use ola_tensor::init::{heavy_tailed_tensor, prune_to_sparsity, HeavyTailed};
use ola_tensor::{Shape4, Tensor};
use rand::rngs::Philox;
use rand::Rng;
use std::borrow::Cow;

/// A deterministic, lazily-generated weight matrix.
///
/// Row `i` is generated on demand from its own counter-based [`Philox`]
/// stream `(seed, i)`, drawn from a [`HeavyTailed`] mixture, then
/// magnitude-pruned per row to `sparsity`. A row is a pure function of
/// `(seed, i)` — independent of which rows were generated before it or on
/// which worker — so rows regenerate bit-identically in any order, chunking,
/// or worker count, and statistics sampled from any subset of rows are
/// faithful to the "whole" matrix.
///
/// Used for the fully-connected layers whose materialized weights would be
/// hundreds of megabytes (VGG-16 fc6 is 25088x4096).
#[derive(Clone, Debug, PartialEq)]
pub struct SyntheticMatrix {
    rows: usize,
    cols: usize,
    dist: HeavyTailed,
    sparsity: f64,
    seed: u64,
}

impl SyntheticMatrix {
    /// Creates a generator for a `rows x cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `sparsity` is outside `[0, 1]` or a dimension is zero.
    pub fn new(rows: usize, cols: usize, dist: HeavyTailed, sparsity: f64, seed: u64) -> Self {
        assert!(rows > 0 && cols > 0, "dimensions must be positive");
        assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0,1]");
        SyntheticMatrix {
            rows,
            cols,
            dist,
            sparsity,
            seed,
        }
    }

    /// Number of rows (output features).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (input features).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// The heavy-tailed mixture rows are drawn from.
    ///
    /// Together with [`SyntheticMatrix::sparsity`] and
    /// [`SyntheticMatrix::base_seed`] this is the generator's complete
    /// identity — the artifact store persists these five scalars instead of
    /// the (potentially hundreds of megabytes of) materialized values.
    pub fn dist(&self) -> ola_tensor::init::HeavyTailed {
        self.dist
    }

    /// Per-row magnitude-pruning sparsity target.
    pub fn sparsity(&self) -> f64 {
        self.sparsity
    }

    /// The base seed every row's Philox stream derives from.
    pub fn base_seed(&self) -> u64 {
        self.seed
    }

    /// Whether the matrix is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Fills `row` with the weights of output feature `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows` or `row.len() != cols`.
    pub fn fill_row(&self, i: usize, row: &mut [f32]) {
        assert!(i < self.rows, "row {i} out of range");
        assert_eq!(row.len(), self.cols, "row buffer length mismatch");
        // One Philox stream per row: structurally disjoint from every other
        // row's stream (distinct counter-space halves), no mixing heuristics.
        let prune = (self.cols as f64 * self.sparsity).round() as usize;
        self.dist.fill_pruned(row, self.seed, i as u64, prune);
    }

    /// Generates row `i` into a fresh buffer.
    pub fn row(&self, i: usize) -> Vec<f32> {
        let mut buf = vec![0.0; self.cols];
        self.fill_row(i, &mut buf);
        buf
    }

    /// Samples up to `max_rows` evenly-spaced rows and returns their
    /// concatenated values — enough to measure distribution statistics
    /// without materializing the matrix.
    pub fn sample_values(&self, max_rows: usize) -> Vec<f32> {
        let take = max_rows.clamp(1, self.rows);
        let step = self.rows.div_ceil(take);
        let mut out = Vec::with_capacity(take * self.cols);
        let mut row = vec![0.0; self.cols];
        for i in (0..self.rows).step_by(step) {
            self.fill_row(i, &mut row);
            out.extend_from_slice(&row);
        }
        out
    }
}

/// Per-layer pruned sparsity profile.
///
/// The paper evaluates the Deep-Compression-pruned AlexNet and VGG-16 of
/// Han et al. and prunes ResNet-18 itself; the profiles below follow the
/// published per-layer pruning tables (first conv layers prune far less
/// than later ones, FC layers far more), which matters to ZeNA's
/// weight-skipping and to the first-layer cycle share of Fig 13.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SparsityProfile {
    /// Uniform sparsity from `SynthConfig::{conv,fc}_sparsity`.
    Uniform,
    /// Han et al. pruned AlexNet (conv1 16% ... fc6/7 91%).
    AlexNet,
    /// Han et al. pruned VGG-16.
    Vgg16,
    /// Our own moderate ResNet-18 pruning (the paper pruned it in-house).
    ResNet18,
}

impl SparsityProfile {
    /// The profile the paper used for a zoo network.
    pub fn for_network(name: &str) -> Self {
        match name {
            "alexnet" => SparsityProfile::AlexNet,
            "vgg16" => SparsityProfile::Vgg16,
            "resnet18" => SparsityProfile::ResNet18,
            _ => SparsityProfile::Uniform,
        }
    }

    /// Sparsity of the `conv_index`-th conv layer (0-based) or an FC layer.
    pub fn sparsity(&self, conv_index: usize, is_fc: bool, cfg: &SynthConfig) -> f64 {
        match self {
            SparsityProfile::Uniform => {
                if is_fc {
                    cfg.fc_sparsity
                } else {
                    cfg.conv_sparsity
                }
            }
            SparsityProfile::AlexNet => {
                if is_fc {
                    0.91
                } else {
                    [0.16, 0.62, 0.65, 0.63, 0.63][conv_index.min(4)]
                }
            }
            SparsityProfile::Vgg16 => {
                if is_fc {
                    0.96
                } else {
                    // Deep-Compression-style VGG-16 conv pruning by depth.
                    const T: [f64; 13] = [
                        0.48, 0.72, 0.70, 0.74, 0.53, 0.72, 0.71, 0.77, 0.79, 0.72, 0.71, 0.77,
                        0.70,
                    ];
                    T[conv_index.min(T.len() - 1)]
                }
            }
            SparsityProfile::ResNet18 => {
                // The paper pruned ResNet-18 in-house; the rates below are
                // calibrated so ZeNA's measured speedup reproduces Fig 13.
                if is_fc {
                    0.80
                } else if conv_index == 0 {
                    0.25
                } else {
                    0.65
                }
            }
        }
    }
}

/// Per-network synthesis configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SynthConfig {
    /// Weight distribution for conv layers.
    pub conv_dist: HeavyTailed,
    /// Weight distribution for linear layers.
    pub fc_dist: HeavyTailed,
    /// Zero fraction for conv weights under the `Uniform` profile.
    pub conv_sparsity: f64,
    /// Zero fraction for linear weights under the `Uniform` profile.
    pub fc_sparsity: f64,
    /// Per-layer sparsity profile.
    pub profile: SparsityProfile,
    /// Base RNG seed; each layer derives `seed + node_id`.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        // Uniform sparsities follow Han et al.'s pruned AlexNet averages:
        // ~62% of conv weights and ~91% of FC weights pruned.
        SynthConfig {
            conv_dist: HeavyTailed::default(),
            fc_dist: HeavyTailed::default(),
            conv_sparsity: 0.62,
            fc_sparsity: 0.91,
            profile: SparsityProfile::Uniform,
            seed: 0x001A_CCE1,
        }
    }
}

impl SynthConfig {
    /// Configuration with the paper's pruning profile for a zoo network.
    pub fn for_network(name: &str) -> Self {
        SynthConfig {
            profile: SparsityProfile::for_network(name),
            ..Default::default()
        }
    }

    /// Like [`SynthConfig::for_network`], with the base RNG seed offset by
    /// `seed_offset` (an offset of 0 keeps the default streams). Callers
    /// that prepare several independent instances of one network — the
    /// harness's seeded preparation cache — pass distinct offsets to get
    /// decorrelated but fully deterministic parameter draws.
    pub fn for_network_seeded(name: &str, seed_offset: u64) -> Self {
        let mut cfg = Self::for_network(name);
        cfg.seed ^= seed_offset;
        cfg
    }
}

/// Threshold above which a materialized linear layer switches to row
/// generation (elements).
const DENSE_LINEAR_LIMIT: usize = 1 << 22; // 4M weights = 16 MB f32

/// Synthesizes a full parameter set for `net`.
///
/// Weights come from [`synthesized_weights`]: conv layers get materialized
/// heavy-tailed, pruned weights; linear layers larger than a few million
/// weights get a [`SyntheticMatrix`] row generator. BatchNorm nodes get
/// near-identity affine terms with a small negative shift so post-ReLU
/// sparsity resembles trained networks.
pub fn synthesize_params(net: &Network, cfg: &SynthConfig) -> Params {
    let mut params = Params::for_network(net);
    for (id, weights) in synthesized_weights(net, cfg) {
        params.set_weights(id, weights);
    }
    let shapes = net.shapes();
    for (id, node) in net.nodes().iter().enumerate() {
        let seed = node_seed(cfg, id);
        match node.op {
            Op::Conv(spec) => params.set_bias(id, small_bias(spec.out_channels, seed ^ 0xB1A5)),
            Op::Linear(spec) => params.set_bias(id, small_bias(spec.out_features, seed ^ 0xB1A5)),
            Op::BatchNorm => {
                let c = shapes[node.inputs[0]].c;
                let mut rng = Philox::new(seed, 0);
                let scale: Vec<f32> = (0..c).map(|_| rng.gen_range(0.7..1.3)).collect();
                // Slight negative shift drives realistic post-ReLU sparsity.
                let shift: Vec<f32> = (0..c).map(|_| rng.gen_range(-0.15..0.05)).collect();
                params.set_bn(id, scale, shift);
            }
            _ => {}
        }
    }
    params
}

/// The RNG seed of node `id`'s parameters.
fn node_seed(cfg: &SynthConfig, id: NodeId) -> u64 {
    cfg.seed.wrapping_add(id as u64 * 7919)
}

/// The weights of every compute node of `net`, synthesized lazily in node
/// order — one node per `next`, so a weights-only consumer never holds
/// more than one layer. [`synthesize_params`] stores exactly these.
///
/// A conv layer's sparsity comes from its position among the conv layers
/// (the profile's conv index); a linear layer's from the profile's FC rate.
pub fn synthesized_weights<'a>(
    net: &'a Network,
    cfg: &'a SynthConfig,
) -> impl Iterator<Item = (NodeId, WeightStore)> + 'a {
    let mut conv_index = 0usize;
    net.nodes()
        .iter()
        .enumerate()
        .filter_map(move |(id, node)| {
            let seed = node_seed(cfg, id);
            let weights = match node.op {
                Op::Conv(spec) => {
                    let sparsity = cfg.profile.sparsity(conv_index, false, cfg);
                    conv_index += 1;
                    let mut w = heavy_tailed_tensor(spec.weight_shape(), cfg.conv_dist, seed);
                    prune_to_sparsity(&mut w, sparsity);
                    WeightStore::Dense(w)
                }
                Op::Linear(spec) => {
                    let sparsity = cfg.profile.sparsity(conv_index, true, cfg);
                    if spec.weight_count() <= DENSE_LINEAR_LIMIT {
                        let mut w = heavy_tailed_tensor(
                            Shape4::new(1, 1, spec.out_features, spec.in_features),
                            cfg.fc_dist,
                            seed,
                        );
                        prune_to_sparsity(&mut w, sparsity);
                        WeightStore::Dense(w)
                    } else {
                        WeightStore::RowGen(SyntheticMatrix::new(
                            spec.out_features,
                            spec.in_features,
                            cfg.fc_dist,
                            sparsity,
                            seed,
                        ))
                    }
                }
                _ => return None,
            };
            Some((id, weights))
        })
}

fn small_bias(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Philox::new(seed, 0);
    (0..n).map(|_| rng.gen_range(-0.01..0.01)).collect()
}

/// Target post-ReLU zero fraction for the activations a network's layers
/// produce, indexed by compute-layer position. Values follow the published
/// activation sparsity of the trained/pruned models (Cnvlutin, Han et al.):
/// AlexNet's late conv layers go 60-70% zero, VGG rises with depth, and the
/// batch-normalized residual nets sit lower.
pub fn activation_sparsity_target(network: &str, layer_index: usize) -> Option<f64> {
    match network {
        "alexnet" => {
            const T: [f64; 8] = [0.40, 0.75, 0.65, 0.65, 0.70, 0.70, 0.70, 0.70];
            T.get(layer_index).copied()
        }
        "vgg16" => Some((0.35 + 0.03 * layer_index as f64).min(0.72)),
        "resnet18" | "resnet101" => Some(0.45),
        "densenet121" => Some(0.40),
        _ => None,
    }
}

/// The BatchNorm and ReLU nodes a compute layer feeds, following its
/// output through an optional BatchNorm to the ReLU: `(bn, relu)`.
fn relu_chain(net: &Network, node: NodeId) -> (Option<NodeId>, Option<NodeId>) {
    let mut bn = None;
    let mut cur = node;
    for i in cur + 1..net.nodes().len() {
        if !net.nodes()[i].inputs.contains(&cur) {
            continue;
        }
        match net.nodes()[i].op {
            Op::BatchNorm => {
                bn = Some(i);
                cur = i;
            }
            Op::ReLU => return (bn, Some(i)),
            _ => break,
        }
    }
    (bn, None)
}

/// Shapes each compute layer's post-ReLU sparsity to a per-layer target by
/// shifting its bias (or BatchNorm shift) so the ReLU cuts at the target
/// quantile of the pre-activation distribution — mirroring the activation
/// sparsity a trained network would show (DESIGN.md §2). Runs `passes`
/// forward/adjust passes because shifting one layer perturbs the next.
///
/// Every pass adjusts; none only measures: to see how close the shaping
/// came, run a forward on the shaped `params` and read the zero fractions
/// at the ReLUs.
pub fn shape_activation_sparsity<F>(
    net: &Network,
    params: &mut Params,
    input: &Tensor,
    target: F,
    passes: usize,
) where
    F: Fn(usize) -> Option<f64>,
{
    for _ in 0..passes {
        let outs = net.forward(params, input);
        for (li, &node) in net.compute_nodes().iter().enumerate() {
            let (bn, Some(relu_node)) = relu_chain(net, node) else {
                continue;
            };
            let Some(t) = target(li) else { continue };
            // Pre-ReLU values are the ReLU node's input.
            let pre = &outs[net.nodes()[relu_node].inputs[0]];
            let mut vals: Vec<f32> = pre.as_slice().to_vec();
            // total_cmp is NaN-sound (PR-5 comparator contract): a NaN
            // pre-activation sorts to the top instead of scrambling the
            // quantile order.
            vals.sort_by(f32::total_cmp);
            let k = ((vals.len() as f64 * t) as usize).min(vals.len() - 1);
            let shift = -vals[k];
            if let Some(bn_node) = bn {
                if let Some((scale, sh)) = params.bn(bn_node) {
                    let scale = scale.to_vec();
                    let sh: Vec<f32> = sh.iter().map(|&v| v + shift).collect();
                    params.set_bn(bn_node, scale, sh);
                }
            } else if let Some(b) = params.bias(node) {
                let b: Vec<f32> = b.iter().map(|&v| v + shift).collect();
                params.set_bias(node, b);
            }
        }
    }
}

/// How many evenly-spaced rows stand in for a row generator's population
/// (see [`SyntheticMatrix::sample_values`]).
const SAMPLE_ROWS: usize = 64;

/// The weight population of one layer that statistics are measured on:
/// dense weights by borrow, a row generator's `SAMPLE_ROWS` sampled rows.
pub fn weight_population(weights: &WeightStore) -> Cow<'_, [f32]> {
    match weights {
        WeightStore::Dense(t) => Cow::Borrowed(t.as_slice()),
        WeightStore::RowGen(g) => Cow::Owned(g.sample_values(SAMPLE_ROWS)),
    }
}

/// Collects all weight values of a node (sampled for row generators) — used
/// by quantizer calibration and the Fig 1 distribution plots.
pub fn weight_values(params: &Params, id: NodeId) -> Vec<f32> {
    match params.weights(id) {
        Some(w) => weight_population(w).into_owned(),
        None => panic!("node {id} has no weights"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Conv2dSpec;
    use ola_tensor::ConvGeometry;

    /// Post-ReLU zero fraction of every compute layer, read from the node
    /// outputs `acts` of one forward pass: the zero fraction at the ReLU the
    /// layer feeds (through an optional BatchNorm), or of the layer's own
    /// output when no ReLU follows it. Indexed by compute-layer position.
    fn post_relu_zero_fractions(net: &Network, acts: &[Tensor]) -> Vec<f64> {
        net.compute_nodes()
            .iter()
            .map(|&node| {
                let (_, relu) = relu_chain(net, node);
                acts[relu.unwrap_or(node)].zero_fraction()
            })
            .collect()
    }

    #[test]
    fn synthetic_matrix_deterministic() {
        let m = SyntheticMatrix::new(8, 32, HeavyTailed::default(), 0.5, 99);
        assert_eq!(m.row(3), m.row(3));
        assert_ne!(m.row(3), m.row(4));
    }

    #[test]
    fn synthetic_matrix_row_sparsity() {
        let m = SyntheticMatrix::new(4, 100, HeavyTailed::default(), 0.9, 1);
        let row = m.row(0);
        let zeros = row.iter().filter(|&&v| v == 0.0).count();
        assert_eq!(zeros, 90);
    }

    #[test]
    fn sample_values_covers_cols() {
        let m = SyntheticMatrix::new(100, 10, HeavyTailed::default(), 0.0, 5);
        let s = m.sample_values(10);
        assert_eq!(s.len(), 100); // 10 rows x 10 cols
    }

    #[test]
    fn synthesize_conv_params() {
        let mut net = Network::new("t", Shape4::new(1, 3, 8, 8));
        let c = net.add(
            "conv",
            Op::Conv(Conv2dSpec::new(3, 16, ConvGeometry::new(3, 1, 1))),
            &[0],
        );
        let cfg = SynthConfig {
            conv_sparsity: 0.5,
            ..Default::default()
        };
        let params = synthesize_params(&net, &cfg);
        let Some(WeightStore::Dense(w)) = params.weights(c) else {
            panic!("conv weights are dense");
        };
        assert_eq!(w.len(), 16 * 3 * 9);
        assert!((w.zero_fraction() - 0.5).abs() < 0.01);
        assert!(w.abs_max() > 0.0);
    }

    #[test]
    fn alexnet_profile_prunes_conv1_lightly() {
        let p = SparsityProfile::AlexNet;
        let cfg = SynthConfig::default();
        assert_eq!(p.sparsity(0, false, &cfg), 0.16);
        assert_eq!(p.sparsity(1, false, &cfg), 0.62);
        assert_eq!(p.sparsity(0, true, &cfg), 0.91);
        assert_eq!(
            SparsityProfile::for_network("alexnet"),
            SparsityProfile::AlexNet
        );
        assert_eq!(
            SparsityProfile::for_network("densenet121"),
            SparsityProfile::Uniform
        );
    }

    #[test]
    fn sparsity_shaping_hits_targets() {
        use crate::zoo::{self, ZooConfig};
        use ola_tensor::init::uniform_tensor;
        let cfg = ZooConfig {
            spatial_scale: 8,
            include_classifier: false,
            batch: 1,
        };
        let net = zoo::alexnet(&cfg);
        let mut params = synthesize_params(&net, &SynthConfig::for_network("alexnet"));
        let input = uniform_tensor(net.input_shape(), -1.0, 1.0, 77);
        shape_activation_sparsity(
            &net,
            &mut params,
            &input,
            |li| activation_sparsity_target("alexnet", li),
            2,
        );
        let measured = post_relu_zero_fractions(&net, &net.forward(&params, &input));
        // conv2..conv5's post-ReLU sparsity should land near the profile.
        for (li, &m) in measured.iter().enumerate().take(5).skip(1) {
            let t = activation_sparsity_target("alexnet", li).unwrap();
            assert!(
                (m - t).abs() < 0.08,
                "layer {li}: measured {m} vs target {t}"
            );
        }
    }

    /// Pins `fill_row` to the semantics of the original per-value sampling
    /// and stable-sort pruning: zero the k smallest-|v| entries, ties broken
    /// by lowest index. A subnormal `sigma` rounds the values onto a few
    /// magnitudes, signed zeros among them, so ties reach the kernel's
    /// selection step with no value injected (the injected ties of
    /// `init::tests::selection_breaks_ties_like_stable_sort` test that step
    /// alone).
    #[test]
    fn fill_row_prune_matches_stable_sort_reference() {
        fn reference_row(m: &SyntheticMatrix, i: usize) -> Vec<f32> {
            let mut rng = Philox::new(m.base_seed(), i as u64);
            let mut row: Vec<f32> = (0..m.cols()).map(|_| m.dist().sample(&mut rng)).collect();
            let k = (row.len() as f64 * m.sparsity()).round() as usize;
            let mut order: Vec<usize> = (0..row.len()).collect();
            order.sort_by(|&a, &b| {
                row[a]
                    .abs()
                    .partial_cmp(&row[b].abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for &j in order.iter().take(k) {
                row[j] = 0.0;
            }
            row
        }
        let tiny = HeavyTailed {
            sigma: 4e-45,
            ..HeavyTailed::default()
        };
        for (cols, sparsity, seed, dist) in [
            (1usize, 0.6, 1u64, HeavyTailed::default()),
            (7, 0.5, 2, HeavyTailed::default()),
            (64, 0.91, 3, HeavyTailed::default()),
            (64, 1.0, 4, HeavyTailed::default()),
            (257, 0.62, 5, HeavyTailed::default()),
            (1024, 0.91, 6, HeavyTailed::default()),
            (64, 0.5, 7, tiny),
            (1024, 0.91, 8, tiny),
        ] {
            let m = SyntheticMatrix::new(3, cols, dist, sparsity, seed);
            for i in 0..3 {
                assert_eq!(
                    reference_row(&m, i)
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    m.row(i).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "cols={cols} sparsity={sparsity} row={i}"
                );
            }
        }
    }
}
