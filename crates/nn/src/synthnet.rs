//! SynthNet: a small CNN trained from scratch in pure Rust, used to
//! reproduce the paper's accuracy experiments (Fig 2/3) with *measured*
//! accuracy rather than a surrogate.
//!
//! We cannot run ImageNet, so the accuracy-vs-outlier-ratio relationship is
//! demonstrated on a synthetic image-classification task (DESIGN.md §2): the
//! cliff of plain 4-bit linear quantization and the recovery with a small
//! outlier budget are properties of quantizing a *trained* network with a
//! heavy-tailed weight/activation distribution, which training here produces
//! organically (and error accumulation over four conv/fc stages amplifies).
//!
//! The architecture is fixed: conv(3->16) relu pool conv(16->32) relu pool
//! conv(32->32) relu, fc(288->64) relu, fc(64->C) over 12x12x3 inputs.
//!
//! # Seeding contract
//!
//! Dataset samples, weight initialization, and the per-epoch shuffle all
//! draw from counter-based [`Philox`] streams: sample `j` comes from stream
//! `j`, weight element `e` of layer `l` from stream `(l << 32) | e`, epoch
//! `e`'s shuffle from stream `e`. Each draw is a pure function of
//! `(seed, stream)` — independent of generation order or worker count — so
//! dataset synthesis and the per-sample minibatch gradients parallelize
//! bit-stably: [`SynthNet::train_jobs`] reduces per-sample gradients in
//! sample order at *every* worker count, making the trained weights
//! byte-identical from `--jobs 1` to `--jobs N`.

use ola_tensor::par::ordered_map;
use rand::rngs::Philox;
use rand::Rng;

/// Stream id reserved for dataset-level draws (the common component and the
/// class prototypes); per-sample streams use the sample index, which stays
/// far below this.
const META_STREAM: u64 = 1 << 63;

/// Input side length.
pub const IMG: usize = 12;
/// Input channels.
pub const IMG_C: usize = 3;

/// A labeled synthetic dataset.
#[derive(Clone, Debug)]
pub struct SynthDataset {
    /// Flattened CHW images, each `IMG_C * IMG * IMG` long.
    pub images: Vec<Vec<f32>>,
    /// Class labels in `0..classes`.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
}

impl SynthDataset {
    /// Generates `n` samples of a `classes`-way task: each class is a random
    /// spatial prototype; samples are noisy, randomly-scaled copies.
    ///
    /// Sample `j` is a pure function of `(seed, j)` (its own Philox stream),
    /// so the dataset is bit-identical at any generation order or worker
    /// count — and a longer dataset is a strict prefix-extension of a
    /// shorter one with the same seed.
    pub fn generate(n: usize, classes: usize, seed: u64) -> Self {
        let mut meta = Philox::new(seed, META_STREAM);
        let dim = IMG_C * IMG * IMG;
        // Prototypes share a common component so classes are close together
        // and the decision boundary is tight — quantization noise then costs
        // accuracy the way it does on ImageNet-scale tasks.
        let common: Vec<f32> = (0..dim).map(|_| gauss(&mut meta)).collect();
        let prototypes: Vec<Vec<f32>> = (0..classes)
            .map(|_| {
                common
                    .iter()
                    .map(|&c| c + gauss(&mut meta) * 0.55)
                    .collect()
            })
            .collect();
        let indices: Vec<usize> = (0..n).collect();
        let jobs = ola_tensor::par::fill_jobs();
        let samples = ordered_map(&indices, jobs, |_, &j| {
            let mut rng = Philox::new(seed, j as u64);
            let k = rng.gen_range(0..classes);
            let scale: f32 = rng.gen_range(0.6..1.4);
            let img: Vec<f32> = prototypes[k]
                .iter()
                .map(|&p| p * scale + gauss(&mut rng) * 0.7)
                .collect();
            (img, k)
        });
        let mut images = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for (img, k) in samples {
            images.push(img);
            labels.push(k);
        }
        SynthDataset {
            images,
            labels,
            classes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }
}

/// Everything a trained [`SynthNet`] and its full-precision baseline are
/// a function of: the split sizes, the task, the SGD schedule, the three
/// seeds and the baseline's top-k. Training and evaluation are
/// bit-identical at any worker count, so no worker count belongs here.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainSpec {
    /// Training (and calibration) images: the first `train` samples of one
    /// generated dataset.
    pub train: usize,
    /// Held-out evaluation images: the `test` samples after them.
    pub test: usize,
    /// Classes of the task and outputs of the net.
    pub classes: usize,
    /// Passes over the training split.
    pub epochs: usize,
    /// Base SGD learning rate.
    pub lr: f32,
    /// Seed of [`SynthDataset::generate`].
    pub data_seed: u64,
    /// Seed of [`SynthNet::new`].
    pub init_seed: u64,
    /// Seed of [`SynthNet::train`]'s per-epoch shuffles.
    pub shuffle_seed: u64,
    /// `k` of the full-precision top-k baseline.
    pub topk: usize,
}

/// A trained [`SynthNet`] with the splits it was trained and measured on
/// and its full-precision baseline: the fixture the accuracy figures
/// share, and one persisted record.
#[derive(Clone, Debug)]
pub struct TrainedSynthNet {
    /// The trained network.
    pub net: SynthNet,
    /// Training (and calibration) split.
    pub train: SynthDataset,
    /// Held-out evaluation split.
    pub test: SynthDataset,
    /// Full-precision top-1 accuracy on the test split.
    pub fp_top1: f64,
    /// Full-precision top-k accuracy on the test split (`k` = the
    /// [`TrainSpec::topk`] it was built with).
    pub fp_top5: f64,
}

fn gauss<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

const C1: usize = 16;
const C2: usize = 32;
const C3: usize = 32;
const H1: usize = IMG; // after conv1 (pad 1)
const H2: usize = IMG / 2; // after pool1
const H3: usize = IMG / 4; // after pool2
const FLAT: usize = C3 * H3 * H3;
const FC1: usize = 64;

/// The lengths of a `classes`-way [`SynthNet`]'s ten parameter vectors, in
/// field order: `[w1, b1, w2, b2, w3, b3, w4, b4, w5, b5]`. The forward and
/// backward kernels index every vector up to exactly this length.
pub fn param_lens(classes: usize) -> [usize; 10] {
    [
        C1 * IMG_C * 9,
        C1,
        C2 * C1 * 9,
        C2,
        C3 * C2 * 9,
        C3,
        FC1 * FLAT,
        FC1,
        classes * FC1,
        classes,
    ]
}

/// The trainable network. All weights are plain `Vec<f32>` so quantizers can
/// transform them wholesale via [`SynthNet::map_weights`].
#[derive(Clone, Debug)]
pub struct SynthNet {
    /// conv1 weights, OIHW `(C1, IMG_C, 3, 3)`.
    pub w1: Vec<f32>,
    /// conv1 bias.
    pub b1: Vec<f32>,
    /// conv2 weights `(C2, C1, 3, 3)`.
    pub w2: Vec<f32>,
    /// conv2 bias.
    pub b2: Vec<f32>,
    /// conv3 weights `(C3, C2, 3, 3)`.
    pub w3: Vec<f32>,
    /// conv3 bias.
    pub b3: Vec<f32>,
    /// fc1 weights, row-major `(FC1, FLAT)`.
    pub w4: Vec<f32>,
    /// fc1 bias.
    pub b4: Vec<f32>,
    /// fc2 weights `(classes, FC1)`.
    pub w5: Vec<f32>,
    /// fc2 bias.
    pub b5: Vec<f32>,
    /// Output classes.
    pub classes: usize,
}

/// Identifies a weight matrix within [`SynthNet`] for per-layer transforms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayerId {
    /// First conv layer (the paper's "first layer needs more bits" case).
    Conv1,
    /// Second conv layer.
    Conv2,
    /// Third conv layer.
    Conv3,
    /// First fully-connected layer.
    Fc1,
    /// Classifier layer.
    Fc2,
}

/// All layer ids, in forward order.
pub const LAYERS: [LayerId; 5] = [
    LayerId::Conv1,
    LayerId::Conv2,
    LayerId::Conv3,
    LayerId::Fc1,
    LayerId::Fc2,
];

impl SynthNet {
    /// Random initialization: He scaling with a heavy-tailed component.
    ///
    /// Large trained networks develop heavy-tailed weight distributions (the
    /// Fig 1 outliers) over long ImageNet training; a five-layer network on
    /// a synthetic task will not get there in a few epochs, so the tails are
    /// seeded at initialization and survive training — giving the quantizers
    /// the same distribution shape the paper's mechanism targets.
    pub fn new(classes: usize, seed: u64) -> Self {
        // Weight element e of layer lid draws from stream (lid << 32) | e —
        // a pure function of (seed, lid, e), so initialization never depends
        // on the sizes of earlier layers or the order elements are filled.
        let init = |lid: u64, n: usize, fan_in: usize| -> Vec<f32> {
            let s = (2.0 / fan_in as f32).sqrt();
            (0..n)
                .map(|e| {
                    let mut rng = Philox::new(seed, (lid << 32) | e as u64);
                    let tail = if rng.gen_range(0.0..1.0) < 0.03 {
                        5.0
                    } else {
                        1.0
                    };
                    gauss(&mut rng) * s * tail
                })
                .collect()
        };
        let [l1, n1, l2, n2, l3, n3, l4, n4, l5, n5] = param_lens(classes);
        SynthNet {
            w1: init(1, l1, IMG_C * 9),
            b1: vec![0.0; n1],
            w2: init(2, l2, C1 * 9),
            b2: vec![0.0; n2],
            w3: init(3, l3, C2 * 9),
            b3: vec![0.0; n3],
            w4: init(4, l4, FLAT),
            b4: vec![0.0; n4],
            w5: init(5, l5, FC1),
            b5: vec![0.0; n5],
            classes,
        }
    }

    /// The ten parameter vectors in field order
    /// (`w1, b1, w2, b2, … w5, b5`), with the lengths [`param_lens`]
    /// states.
    pub fn params(&self) -> [&[f32]; 10] {
        [
            &self.w1, &self.b1, &self.w2, &self.b2, &self.w3, &self.b3, &self.w4, &self.b4,
            &self.w5, &self.b5,
        ]
    }

    /// Returns a copy with every weight matrix transformed by `f`.
    ///
    /// `f` receives the layer id and the flat weight slice; it must write the
    /// transformed values back in place.
    pub fn map_weights<F: FnMut(LayerId, &mut [f32])>(&self, mut f: F) -> SynthNet {
        let mut out = self.clone();
        f(LayerId::Conv1, &mut out.w1);
        f(LayerId::Conv2, &mut out.w2);
        f(LayerId::Conv3, &mut out.w3);
        f(LayerId::Fc1, &mut out.w4);
        f(LayerId::Fc2, &mut out.w5);
        out
    }

    /// Borrows the weight matrix of one layer.
    pub fn weights(&self, layer: LayerId) -> &[f32] {
        match layer {
            LayerId::Conv1 => &self.w1,
            LayerId::Conv2 => &self.w2,
            LayerId::Conv3 => &self.w3,
            LayerId::Fc1 => &self.w4,
            LayerId::Fc2 => &self.w5,
        }
    }

    /// Forward pass returning class logits. `act` is applied in place to the
    /// post-ReLU activations of each hidden stage — the hook the quantization
    /// experiments use to quantize activations (pass `|_, _| ()` for the
    /// full-precision path).
    ///
    /// Repacks the weights on every call; to run many forwards on the same
    /// weights, build a [`PackedNet`] once with [`SynthNet::packed`].
    pub fn forward_with<F: FnMut(LayerId, &mut [f32])>(&self, x: &[f32], act: F) -> Vec<f32> {
        self.packed().forward_with(x, act)
    }

    /// The weights repacked for the forward kernels (see [`PackedNet`]).
    pub fn packed(&self) -> PackedNet<'_> {
        PackedNet {
            net: self,
            conv: [
                transpose(&self.w1, C1, IMG_C * 9),
                transpose(&self.w2, C2, C1 * 9),
                transpose(&self.w3, C3, C2 * 9),
            ],
            fc: [
                transpose(&self.w4, FC1, FLAT),
                transpose(&self.w5, self.classes, FC1),
            ],
        }
    }

    /// Plain full-precision forward pass.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        self.forward_with(x, |_, _| ())
    }

    /// Top-1 and top-k accuracy from **one** forward pass per image, with
    /// an activation transform hook, fanned out over `jobs` workers via
    /// [`ordered_map`]. Returns `(top1, topk)`.
    ///
    /// Requires a `Fn + Sync` hook (immutable after construction — the
    /// quantizers are, once calibrated). Each image's `(top1, topk)` pair
    /// is a pure function of its input; the boolean counts are summed in
    /// image order, so the result is bit-identical at any worker count.
    pub fn eval_with_jobs<F>(
        &self,
        data: &SynthDataset,
        k: usize,
        act: F,
        jobs: usize,
    ) -> (f64, f64)
    where
        F: Fn(LayerId, &mut [f32]) + Sync,
    {
        let packed = self.packed();
        let indices: Vec<usize> = (0..data.len()).collect();
        let per_image = ordered_map(&indices, jobs, |_, &i| {
            packed.eval_image(&data.images[i], data.labels[i], k, &act)
        });
        let mut top1 = 0usize;
        let mut topk = 0usize;
        for (t1, tk) in per_image {
            top1 += t1 as usize;
            topk += tk as usize;
        }
        (
            top1 as f64 / data.len() as f64,
            topk as f64 / data.len() as f64,
        )
    }

    /// Top-1 accuracy, full precision, on one worker.
    pub fn accuracy(&self, data: &SynthDataset) -> f64 {
        self.eval_with_jobs(data, 1, |_, _| (), 1).0
    }

    /// Trains with SGD + momentum for `epochs` passes over `data`.
    /// Returns the final training accuracy.
    ///
    /// Uses the process-wide forward-kernel worker budget
    /// ([`crate::kernels::forward_jobs`]) for the minibatch gradients; see
    /// [`SynthNet::train_jobs`] for the determinism guarantee.
    pub fn train(&mut self, data: &SynthDataset, epochs: usize, lr: f32, seed: u64) -> f64 {
        self.train_jobs(data, epochs, lr, seed, crate::kernels::forward_jobs())
    }

    /// [`SynthNet::train`] with an explicit worker count for the per-sample
    /// minibatch gradients.
    ///
    /// Each sample's gradient is computed independently (any worker, any
    /// order) and the per-sample gradients are then summed **in sample
    /// order** — the same reduction shape at every `jobs` value — so the
    /// trained weights are byte-identical from 1 worker to N. The per-epoch
    /// shuffle draws from the counter-based stream `(seed, epoch)`.
    ///
    /// The weights are repacked for the kernels once per minibatch (they
    /// only change between minibatches).
    pub fn train_jobs(
        &mut self,
        data: &SynthDataset,
        epochs: usize,
        lr: f32,
        seed: u64,
        jobs: usize,
    ) -> f64 {
        let mut vel = Gradients::zeros(self.classes);
        for epoch in 0..epochs {
            let mut rng = Philox::new(seed, epoch as u64);
            let mut order: Vec<usize> = (0..data.len()).collect();
            // Fisher-Yates shuffle.
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let lr_e = lr / (1.0 + 0.15 * epoch as f32);
            for batch in order.chunks(16) {
                let packed = self.packed();
                let dx_weights = [oihw_to_ohwi(&self.w2, C1), oihw_to_ohwi(&self.w3, C2)];
                let per_sample = ordered_map(batch, jobs, |_, &i| {
                    let mut g = Gradients::zeros(self.classes);
                    packed.backward(&dx_weights, &data.images[i], data.labels[i], &mut g);
                    g
                });
                let mut grads = Gradients::zeros(self.classes);
                for g in &per_sample {
                    grads.add(g);
                }
                grads.unpack_conv();
                let mut scale = 1.0 / batch.len() as f32;
                // Global-norm gradient clipping: the heavy-tailed
                // initialization can spike early gradients.
                let norm = grads.norm() * scale;
                const CLIP: f32 = 8.0;
                if norm > CLIP {
                    scale *= CLIP / norm;
                }
                vel.blend(&grads, 0.9, scale);
                self.apply(&vel, lr_e);
            }
        }
        self.accuracy(data)
    }

    fn apply(&mut self, g: &Gradients, lr: f32) {
        for (w, d) in [
            (&mut self.w1, &g.w1),
            (&mut self.w2, &g.w2),
            (&mut self.w3, &g.w3),
            (&mut self.w4, &g.w4),
            (&mut self.w5, &g.w5),
        ] {
            for (wi, di) in w.iter_mut().zip(d) {
                *wi -= lr * di;
            }
        }
        for (b, d) in [
            (&mut self.b1, &g.b1),
            (&mut self.b2, &g.b2),
            (&mut self.b3, &g.b3),
            (&mut self.b4, &g.b4),
            (&mut self.b5, &g.b5),
        ] {
            for (bi, di) in b.iter_mut().zip(d) {
                *bi -= lr * di;
            }
        }
    }
}

/// A [`SynthNet`] with its weights repacked for the vectorized kernels:
/// conv weights as `[ic][ky][kx][oc]` and fc weights as `[in][out]`, so the
/// innermost loop of every forward kernel runs across independent outputs
/// (DESIGN.md §18). Repacking costs about a third of one forward; build a
/// `PackedNet` once with [`SynthNet::packed`] to run many forwards on the
/// same weights. Its forwards are bit-identical to [`SynthNet::forward_with`].
pub struct PackedNet<'a> {
    net: &'a SynthNet,
    /// conv1..conv3 weights, `[ic][ky][kx][oc]`.
    conv: [Vec<f32>; 3],
    /// fc1 and fc2 weights, `[in][out]`.
    fc: [Vec<f32>; 2],
}

impl PackedNet<'_> {
    /// [`SynthNet::forward_with`] on the packed weights.
    pub fn forward_with<F: FnMut(LayerId, &mut [f32])>(&self, x: &[f32], mut act: F) -> Vec<f32> {
        assert_eq!(x.len(), IMG_C * IMG * IMG, "input size mismatch");
        let net = self.net;
        // conv1 + relu
        let mut a1 = conv3x3(x, IMG_C, H1, &self.conv[0], &net.b1, C1);
        relu(&mut a1);
        act(LayerId::Conv1, &mut a1);
        let (p1, _) = maxpool2(&a1, C1, H1);
        // conv2 + relu
        let mut a2 = conv3x3(&p1, C1, H2, &self.conv[1], &net.b2, C2);
        relu(&mut a2);
        act(LayerId::Conv2, &mut a2);
        let (p2, _) = maxpool2(&a2, C2, H2);
        // conv3 + relu
        let mut a3 = conv3x3(&p2, C2, H3, &self.conv[2], &net.b3, C3);
        relu(&mut a3);
        act(LayerId::Conv3, &mut a3);
        // fc1 + relu
        let mut a4 = fc(&a3, &self.fc[0], &net.b4, FC1);
        relu(&mut a4);
        act(LayerId::Fc1, &mut a4);
        // fc2 (logits)
        fc(&a4, &self.fc[1], &net.b5, net.classes)
    }

    /// Evaluates one image with a single forward pass, returning
    /// `(top-1 correct, top-k correct)`.
    ///
    /// Top-1 is the NaN-sound [`argmax`] (first index wins). Top-k is a
    /// single-pass NaN-sound rank instead of sorting the full logit vector
    /// (which panicked on NaN via `partial_cmp().unwrap()`): the label is
    /// in the top k iff fewer than k logits outrank it under the
    /// stable-descending order — strictly greater, or equal with a smaller
    /// index (`total_cmp` puts NaN above every finite logit, matching "a
    /// NaN logit beats the label").
    fn eval_image<F: FnMut(LayerId, &mut [f32])>(
        &self,
        img: &[f32],
        label: usize,
        k: usize,
        act: F,
    ) -> (bool, bool) {
        let logits = self.forward_with(img, act);
        let top1 = argmax(&logits) == label;
        let rank = logits
            .iter()
            .enumerate()
            .filter(|&(i, v)| match v.total_cmp(&logits[label]) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Equal => i < label,
                std::cmp::Ordering::Less => false,
            })
            .count();
        (top1, rank < k)
    }

    /// One-sample backprop, accumulating into `g` — with the conv weight
    /// gradients in the backward kernel's `[oc][ky][kx][ic]` layout (see
    /// [`Gradients::unpack_conv`]). `dx_weights` holds conv2's and conv3's
    /// weights in that layout, for their input gradients.
    fn backward(&self, dx_weights: &[Vec<f32>; 2], x: &[f32], label: usize, g: &mut Gradients) {
        let net = self.net;
        // ---- forward with caches ----
        let mut a1 = conv3x3(x, IMG_C, H1, &self.conv[0], &net.b1, C1);
        relu(&mut a1);
        let (p1, i1) = maxpool2(&a1, C1, H1);
        let mut a2 = conv3x3(&p1, C1, H2, &self.conv[1], &net.b2, C2);
        relu(&mut a2);
        let (p2, i2) = maxpool2(&a2, C2, H2);
        let mut a3 = conv3x3(&p2, C2, H3, &self.conv[2], &net.b3, C3);
        relu(&mut a3);
        let mut a4 = fc(&a3, &self.fc[0], &net.b4, FC1);
        relu(&mut a4);
        let logits = fc(&a4, &self.fc[1], &net.b5, net.classes);

        // ---- softmax cross-entropy gradient ----
        let mut d5 = softmax(&logits);
        d5[label] -= 1.0;

        // ---- fc2 backward ----
        let mut d4 = fc_backward(&d5, &a4, &net.w5, &mut g.w5, &mut g.b5);
        relu_backward(&mut d4, &a4);

        // ---- fc1 backward ----
        let mut d3 = fc_backward(&d4, &a3, &net.w4, &mut g.w4, &mut g.b4);
        relu_backward(&mut d3, &a3);

        // ---- conv3 backward ----
        let d_p2 = conv3x3_backward(
            &d3,
            &p2,
            C2,
            H3,
            C3,
            &mut g.w3,
            &mut g.b3,
            Some(&dx_weights[1]),
        );
        let mut d_a2 = maxpool2_backward(&d_p2, &i2, C2, H2);
        relu_backward(&mut d_a2, &a2);

        // ---- conv2 backward ----
        let d_p1 = conv3x3_backward(
            &d_a2,
            &p1,
            C1,
            H2,
            C2,
            &mut g.w2,
            &mut g.b2,
            Some(&dx_weights[0]),
        );
        let mut d_a1 = maxpool2_backward(&d_p1, &i1, C1, H1);
        relu_backward(&mut d_a1, &a1);

        // ---- conv1 backward (no input gradient: nothing consumes it) ----
        conv3x3_backward(&d_a1, x, IMG_C, H1, C1, &mut g.w1, &mut g.b1, None);
    }
}

struct Gradients {
    w1: Vec<f32>,
    b1: Vec<f32>,
    w2: Vec<f32>,
    b2: Vec<f32>,
    w3: Vec<f32>,
    b3: Vec<f32>,
    w4: Vec<f32>,
    b4: Vec<f32>,
    w5: Vec<f32>,
    b5: Vec<f32>,
}

impl Gradients {
    fn zeros(classes: usize) -> Self {
        let [w1, b1, w2, b2, w3, b3, w4, b4, w5, b5] = param_lens(classes).map(|n| vec![0.0; n]);
        Gradients {
            w1,
            b1,
            w2,
            b2,
            w3,
            b3,
            w4,
            b4,
            w5,
            b5,
        }
    }

    /// `self += other` field-wise. Summing per-sample gradients with this,
    /// in sample order, is the fixed reduction shape that keeps parallel
    /// training bit-identical at any worker count.
    fn add(&mut self, other: &Gradients) {
        for (a, b) in [
            (&mut self.w1, &other.w1),
            (&mut self.b1, &other.b1),
            (&mut self.w2, &other.w2),
            (&mut self.b2, &other.b2),
            (&mut self.w3, &other.w3),
            (&mut self.b3, &other.b3),
            (&mut self.w4, &other.w4),
            (&mut self.b4, &other.b4),
            (&mut self.w5, &other.w5),
            (&mut self.b5, &other.b5),
        ] {
            for (x, y) in a.iter_mut().zip(b) {
                *x += *y;
            }
        }
    }

    /// Permutes the conv weight gradients from the backward kernel's
    /// `[oc][ky][kx][ic]` layout to the weights' OIHW layout. A pure
    /// permutation — every element keeps its bits — so summing per-sample
    /// gradients before or after it gives the same bytes.
    fn unpack_conv(&mut self) {
        self.w1 = ohwi_to_oihw(&self.w1, IMG_C);
        self.w2 = ohwi_to_oihw(&self.w2, C1);
        self.w3 = ohwi_to_oihw(&self.w3, C2);
    }

    /// Global L2 norm across all gradient fields.
    fn norm(&self) -> f32 {
        let mut acc = 0.0f64;
        for g in [
            &self.w1, &self.b1, &self.w2, &self.b2, &self.w3, &self.b3, &self.w4, &self.b4,
            &self.w5, &self.b5,
        ] {
            acc += g.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>();
        }
        acc.sqrt() as f32
    }

    /// `self = momentum * self + scale * other` across all fields.
    fn blend(&mut self, other: &Gradients, momentum: f32, scale: f32) {
        for (a, b) in [
            (&mut self.w1, &other.w1),
            (&mut self.b1, &other.b1),
            (&mut self.w2, &other.w2),
            (&mut self.b2, &other.b2),
            (&mut self.w3, &other.w3),
            (&mut self.b3, &other.b3),
            (&mut self.w4, &other.w4),
            (&mut self.b4, &other.b4),
            (&mut self.w5, &other.w5),
            (&mut self.b5, &other.b5),
        ] {
            for (x, y) in a.iter_mut().zip(b) {
                *x = *x * momentum + *y * scale;
            }
        }
    }
}

// ---- primitive ops on flat CHW buffers ----
//
// The three MAC-heavy kernels (`conv3x3`, `conv3x3_backward`, `fc`) run
// their innermost loop across *independent* outputs, so safe Rust
// auto-vectorizes it, while every individual output still sees the exact
// floating-point sequence of the loop nests they replaced (kept as the
// `oracle` module under `cfg(test)`): no reassociation, no `mul_add`, no
// intrinsics. DESIGN.md §18 gives the per-output order contract.

/// Row-major `(rows, cols)` -> `(cols, rows)`. Repacks weights for the
/// kernels and converts CHW <-> HWC (a `(c, h*w)` matrix either way).
fn transpose(m: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    debug_assert_eq!(m.len(), rows * cols, "matrix size mismatch");
    let mut t = vec![0.0; m.len()];
    for (r, row) in m.chunks_exact(cols).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            t[c * rows + r] = v;
        }
    }
    t
}

/// OIHW 3x3 conv weights (`ci` input channels) -> `[oc][ky][kx][ic]`.
fn oihw_to_ohwi(w: &[f32], ci: usize) -> Vec<f32> {
    w.chunks_exact(ci * 9)
        .flat_map(|oc| transpose(oc, ci, 9))
        .collect()
}

/// `[oc][ky][kx][ic]` 3x3 conv weights (`ci` input channels) -> OIHW.
fn ohwi_to_oihw(w: &[f32], ci: usize) -> Vec<f32> {
    w.chunks_exact(ci * 9)
        .flat_map(|oc| transpose(oc, 9, ci))
        .collect()
}

/// The in-bounds taps `k` of a padding-1 3x3 kernel at output coordinate
/// `o` on a side of `h`: those whose input coordinate `o + k - 1` lies in
/// `0..h`.
fn taps(o: usize, h: usize) -> std::ops::Range<usize> {
    let lo = usize::from(o == 0);
    let hi = if o + 1 == h { 2 } else { 3 };
    lo..hi
}

/// 3x3 convolution, stride 1, padding 1, of a CHW input, with the weights
/// packed `[ic][ky][kx][oc]`. Each output starts from its bias and adds the
/// in-bounds taps in `(ic, ky, kx)` order; the innermost loop runs across
/// the `co` outputs of one pixel, one packed weight row per tap.
fn conv3x3(x: &[f32], ci: usize, h: usize, wt: &[f32], bias: &[f32], co: usize) -> Vec<f32> {
    let hw = h * h;
    let mut out = vec![0.0; co * hw];
    let mut acc = vec![0.0; co];
    for oy in 0..h {
        for ox in 0..h {
            acc.copy_from_slice(&bias[..co]);
            for ic in 0..ci {
                let plane = &x[ic * hw..][..hw];
                for ky in taps(oy, h) {
                    let row = &plane[(oy + ky - 1) * h..][..h];
                    for kx in taps(ox, h) {
                        let xv = row[ox + kx - 1];
                        let w = &wt[((ic * 3 + ky) * 3 + kx) * co..][..co];
                        for (a, &wv) in acc.iter_mut().zip(w) {
                            *a += xv * wv;
                        }
                    }
                }
            }
            for (oc, &a) in acc.iter().enumerate() {
                out[oc * hw + oy * h + ox] = a;
            }
        }
    }
    out
}

/// Backward of [`conv3x3`] for one CHW input `x` and output gradient `dy`:
/// adds the weight gradient into `dw` and the bias gradient into `db`, and
/// returns the CHW input gradient when given the weights `wt` (empty
/// otherwise). `dw` and `wt` are packed `[oc][ky][kx][ic]`.
///
/// With `x` and the input gradient held HWC, the in-bounds taps of one
/// kernel row form one contiguous `(kx, ic)` span in the input, the weights
/// and `dw` alike; the innermost loops run across that span. Each dW
/// element accumulates over `(oy, ox)` row-major and each dX element over
/// `(oc, oy, ox)`, both skipping `g == 0.0` — the oracle's order.
#[allow(clippy::too_many_arguments)]
fn conv3x3_backward(
    dy: &[f32],
    x: &[f32],
    ci: usize,
    h: usize,
    co: usize,
    dw: &mut [f32],
    db: &mut [f32],
    wt: Option<&[f32]>,
) -> Vec<f32> {
    let hw = h * h;
    let k9 = 9 * ci;
    let xh = transpose(x, ci, hw);
    let mut dxh = vec![0.0; if wt.is_some() { ci * hw } else { 0 }];
    for oc in 0..co {
        let dw_oc = &mut dw[oc * k9..][..k9];
        let w_oc = wt.map(|w| &w[oc * k9..][..k9]);
        for oy in 0..h {
            for ox in 0..h {
                let g = dy[(oc * h + oy) * h + ox];
                if g == 0.0 {
                    continue;
                }
                db[oc] += g;
                let kx = taps(ox, h);
                let span = kx.len() * ci;
                for ky in taps(oy, h) {
                    let xs = ((oy + ky - 1) * h + ox + kx.start - 1) * ci;
                    let ws = (ky * 3 + kx.start) * ci;
                    for (d, &xv) in dw_oc[ws..][..span].iter_mut().zip(&xh[xs..][..span]) {
                        *d += g * xv;
                    }
                    if let Some(w_oc) = w_oc {
                        for (d, &wv) in dxh[xs..][..span].iter_mut().zip(&w_oc[ws..][..span]) {
                            *d += g * wv;
                        }
                    }
                }
            }
        }
    }
    if wt.is_some() {
        transpose(&dxh, hw, ci)
    } else {
        dxh
    }
}

fn relu(x: &mut [f32]) {
    for v in x {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// dX masked by the *post*-ReLU activation (zero stays zero).
fn relu_backward(dx: &mut [f32], post: &[f32]) {
    for (d, &a) in dx.iter_mut().zip(post) {
        if a <= 0.0 {
            *d = 0.0;
        }
    }
}

/// 2x2 max pool, stride 2. Returns (pooled, argmax flat indices).
fn maxpool2(x: &[f32], c: usize, h: usize) -> (Vec<f32>, Vec<usize>) {
    let oh = h / 2;
    let mut out = vec![0.0; c * oh * oh];
    let mut idx = vec![0usize; c * oh * oh];
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..oh {
                let mut best = f32::NEG_INFINITY;
                let mut bi = 0usize;
                for ky in 0..2 {
                    for kx in 0..2 {
                        let i = (ch * h + oy * 2 + ky) * h + ox * 2 + kx;
                        if x[i] > best {
                            best = x[i];
                            bi = i;
                        }
                    }
                }
                let o = (ch * oh + oy) * oh + ox;
                out[o] = best;
                idx[o] = bi;
            }
        }
    }
    (out, idx)
}

fn maxpool2_backward(dy: &[f32], idx: &[usize], c: usize, h: usize) -> Vec<f32> {
    let mut dx = vec![0.0; c * h * h];
    for (o, &i) in idx.iter().enumerate() {
        dx[i] += dy[o];
    }
    dx
}

/// Fully-connected layer with the weights packed `[in][out]`. Each output
/// starts from its bias and adds the inputs in ascending order; the
/// innermost loop runs across the outputs.
fn fc(x: &[f32], wt: &[f32], bias: &[f32], out: usize) -> Vec<f32> {
    let mut y = bias[..out].to_vec();
    for (&xi, w) in x.iter().zip(wt.chunks_exact(out)) {
        for (yo, &wv) in y.iter_mut().zip(w) {
            *yo += xi * wv;
        }
    }
    y
}

/// Backward of fc: accumulates dW, dB; returns dX.
fn fc_backward(dy: &[f32], x: &[f32], w: &[f32], dw: &mut [f32], db: &mut [f32]) -> Vec<f32> {
    let inf = x.len();
    let mut dx = vec![0.0; inf];
    for (o, &g) in dy.iter().enumerate() {
        db[o] += g;
        let row = &w[o * inf..(o + 1) * inf];
        let drow = &mut dw[o * inf..(o + 1) * inf];
        for i in 0..inf {
            drow[i] += g * x[i];
            dx[i] += g * row[i];
        }
    }
    dx
}

fn softmax(logits: &[f32]) -> Vec<f32> {
    let m = logits.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let exps: Vec<f32> = logits.iter().map(|&v| (v - m).exp()).collect();
    let s: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / s).collect()
}

/// Single-pass NaN-sound argmax: `total_cmp` gives a total order (NaN above
/// all finite values), first index wins ties.
fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    for i in 1..v.len() {
        if v[i].total_cmp(&v[best]) == std::cmp::Ordering::Greater {
            best = i;
        }
    }
    best
}

/// The scalar loop nests the vectorized kernels replaced, kept verbatim as
/// the oracles they are checked against bit for bit.
#[cfg(test)]
mod oracle {
    pub(super) fn conv3x3(
        x: &[f32],
        ci: usize,
        h: usize,
        w: &[f32],
        bias: &[f32],
        co: usize,
    ) -> Vec<f32> {
        let mut out = vec![0.0; co * h * h];
        for oc in 0..co {
            for oy in 0..h {
                for ox in 0..h {
                    let mut acc = bias[oc];
                    for ic in 0..ci {
                        let wbase = ((oc * ci + ic) * 3) * 3;
                        let xbase = ic * h * h;
                        for ky in 0..3usize {
                            let iy = oy as isize + ky as isize - 1;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..3usize {
                                let ix = ox as isize + kx as isize - 1;
                                if ix < 0 || ix >= h as isize {
                                    continue;
                                }
                                acc += x[xbase + iy as usize * h + ix as usize]
                                    * w[wbase + ky * 3 + kx];
                            }
                        }
                    }
                    out[(oc * h + oy) * h + ox] = acc;
                }
            }
        }
        out
    }

    /// Backward of conv3x3: accumulates dW, dB; returns dX.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn conv3x3_backward(
        dy: &[f32],
        x: &[f32],
        ci: usize,
        h: usize,
        w: &[f32],
        co: usize,
        dw: &mut [f32],
        db: &mut [f32],
    ) -> Vec<f32> {
        let mut dx = vec![0.0; ci * h * h];
        for oc in 0..co {
            for oy in 0..h {
                for ox in 0..h {
                    let g = dy[(oc * h + oy) * h + ox];
                    if g == 0.0 {
                        continue;
                    }
                    db[oc] += g;
                    for ic in 0..ci {
                        let wbase = ((oc * ci + ic) * 3) * 3;
                        let xbase = ic * h * h;
                        for ky in 0..3usize {
                            let iy = oy as isize + ky as isize - 1;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..3usize {
                                let ix = ox as isize + kx as isize - 1;
                                if ix < 0 || ix >= h as isize {
                                    continue;
                                }
                                let xi = xbase + iy as usize * h + ix as usize;
                                dw[wbase + ky * 3 + kx] += g * x[xi];
                                dx[xi] += g * w[wbase + ky * 3 + kx];
                            }
                        }
                    }
                }
            }
        }
        dx
    }

    pub(super) fn fc(x: &[f32], w: &[f32], bias: &[f32], out: usize) -> Vec<f32> {
        let inf = x.len();
        let mut y = vec![0.0; out];
        for (o, yo) in y.iter_mut().enumerate() {
            let row = &w[o * inf..(o + 1) * inf];
            let mut acc = bias[o];
            for (xi, wi) in x.iter().zip(row) {
                acc += xi * wi;
            }
            *yo = acc;
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One sample's gradients with every field in the weights' layout.
    fn sample_gradients(net: &SynthNet, x: &[f32], label: usize) -> Gradients {
        let dx_weights = [oihw_to_ohwi(&net.w2, C1), oihw_to_ohwi(&net.w3, C2)];
        let mut g = Gradients::zeros(net.classes);
        net.packed().backward(&dx_weights, x, label, &mut g);
        g.unpack_conv();
        g
    }

    /// `n` values with many signed zeros: one in six is `0.0`, one in six
    /// `-0.0`, the rest uniform in `[-2, 2)`.
    fn values(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = Philox::new(seed, 0);
        (0..n)
            .map(|_| match rng.gen_range(0..6) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        /// The vectorized forward conv equals the scalar loop nest bit for
        /// bit, padding edges and signed zeros included.
        #[test]
        fn conv3x3_matches_oracle_bitwise(
            ci in 1usize..=6,
            h in 1usize..=7,
            co in 1usize..=11,
            seed in 0u64..1 << 48,
        ) {
            let x = values(ci * h * h, seed);
            let w = values(co * ci * 9, seed ^ 1);
            let bias = values(co, seed ^ 2);
            let got = conv3x3(&x, ci, h, &transpose(&w, co, ci * 9), &bias, co);
            let want = oracle::conv3x3(&x, ci, h, &w, &bias, co);
            prop_assert_eq!(bits(&got), bits(&want));
        }

        /// The backward conv equals the scalar loop nest bit for bit —
        /// accumulating into non-zero (and signed-zero) dW/dB, with zeros of
        /// both signs in `dy` taking the `g == 0.0` skip — with and without
        /// the input gradient.
        #[test]
        fn conv3x3_backward_matches_oracle_bitwise(
            ci in 1usize..=6,
            h in 1usize..=7,
            co in 1usize..=11,
            want_dx in prop::bool::ANY,
            seed in 0u64..1 << 48,
        ) {
            let dy = values(co * h * h, seed);
            let x = values(ci * h * h, seed ^ 1);
            let w = values(co * ci * 9, seed ^ 2);
            let dw0 = values(co * ci * 9, seed ^ 3);
            let db0 = values(co, seed ^ 4);

            let (mut dw_want, mut db_want) = (dw0.clone(), db0.clone());
            let dx_want =
                oracle::conv3x3_backward(&dy, &x, ci, h, &w, co, &mut dw_want, &mut db_want);

            let wt = oihw_to_ohwi(&w, ci);
            let (mut dw_got, mut db_got) = (oihw_to_ohwi(&dw0, ci), db0.clone());
            let dx_got = conv3x3_backward(
                &dy,
                &x,
                ci,
                h,
                co,
                &mut dw_got,
                &mut db_got,
                want_dx.then_some(&wt[..]),
            );
            prop_assert_eq!(bits(&ohwi_to_oihw(&dw_got, ci)), bits(&dw_want));
            prop_assert_eq!(bits(&db_got), bits(&db_want));
            if want_dx {
                prop_assert_eq!(bits(&dx_got), bits(&dx_want));
            } else {
                prop_assert!(dx_got.is_empty());
            }
        }

        /// The vectorized fc equals the per-output dot products bit for bit.
        #[test]
        fn fc_matches_oracle_bitwise(
            inf in 1usize..=40,
            out in 1usize..=20,
            seed in 0u64..1 << 48,
        ) {
            let x = values(inf, seed);
            let w = values(out * inf, seed ^ 1);
            let bias = values(out, seed ^ 2);
            let got = fc(&x, &transpose(&w, out, inf), &bias, out);
            prop_assert_eq!(bits(&got), bits(&oracle::fc(&x, &w, &bias, out)));
        }
    }

    #[test]
    fn untrained_accuracy_is_chance() {
        let data = SynthDataset::generate(200, 10, 1);
        let net = SynthNet::new(10, 2);
        let acc = net.accuracy(&data);
        assert!(acc < 0.35, "untrained accuracy {acc} suspiciously high");
    }

    #[test]
    fn training_learns_task() {
        let data = SynthDataset::generate(400, 4, 3);
        let mut net = SynthNet::new(4, 4);
        let acc = net.train(&data, 6, 0.02, 5);
        assert!(acc > 0.85, "training accuracy only {acc}");
        // Held-out set from the same distribution.
        let test = SynthDataset::generate(200, 4, 30);
        // Note: different prototypes => different task; instead evaluate on
        // fresh samples of the SAME task by regenerating with the train seed.
        let more = SynthDataset::generate(600, 4, 3);
        let holdout = SynthDataset {
            images: more.images[400..].to_vec(),
            labels: more.labels[400..].to_vec(),
            classes: 4,
        };
        let test_acc = net.accuracy(&holdout);
        assert!(test_acc > 0.8, "holdout accuracy only {test_acc}");
        drop(test);
    }

    #[test]
    fn gradient_check_fc() {
        // Numeric gradient check on fc2 weights through softmax-CE.
        let data = SynthDataset::generate(1, 3, 9);
        let net = SynthNet::new(3, 10);
        let x = &data.images[0];
        let label = data.labels[0];
        let loss = |n: &SynthNet| -> f32 {
            let logits = n.forward(x);
            let p = softmax(&logits);
            -p[label].max(1e-9).ln()
        };
        let g = sample_gradients(&net, x, label);
        let eps = 1e-3;
        for &wi in &[0usize, 5, 17] {
            let mut plus = net.clone();
            plus.w5[wi] += eps;
            let mut minus = net.clone();
            minus.w5[wi] -= eps;
            let num = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            let ana = g.w5[wi];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + num.abs().max(ana.abs())),
                "w5[{wi}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn gradient_check_conv1() {
        let data = SynthDataset::generate(1, 3, 19);
        let net = SynthNet::new(3, 11);
        let x = &data.images[0];
        let label = data.labels[0];
        let loss = |n: &SynthNet| -> f32 {
            let logits = n.forward(x);
            let p = softmax(&logits);
            -p[label].max(1e-9).ln()
        };
        let g = sample_gradients(&net, x, label);
        let eps = 1e-3;
        for &wi in &[0usize, 10, 40] {
            let mut plus = net.clone();
            plus.w1[wi] += eps;
            let mut minus = net.clone();
            minus.w1[wi] -= eps;
            let num = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            let ana = g.w1[wi];
            assert!(
                (num - ana).abs() < 5e-2 * (1.0 + num.abs().max(ana.abs())),
                "w1[{wi}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn argmax_is_nan_sound() {
        // NaN sorts above every finite logit under total_cmp, so a NaN
        // prediction is deterministic (first NaN wins) and never panics.
        assert_eq!(argmax(&[0.1, 0.9, 0.3]), 1);
        assert_eq!(argmax(&[0.1, 0.9, 0.9]), 1, "first index wins ties");
        assert_eq!(argmax(&[0.1, f32::NAN, 0.9]), 1);
        assert_eq!(argmax(&[f32::NAN, f32::NAN, 0.9]), 0);
        assert_eq!(argmax(&[f32::NEG_INFINITY, -1.0]), 1);
    }

    #[test]
    fn topk_accuracy_survives_nan_logits() {
        // The old implementation sorted the full logit vector with
        // partial_cmp().unwrap() and panicked the moment any logit went NaN.
        let net = SynthNet::new(4, 8);
        let data = SynthDataset::generate(20, 4, 8);
        let hook = |layer: LayerId, a: &mut [f32]| {
            if layer == LayerId::Fc1 {
                a.fill(f32::NAN);
            }
        };
        let (_, acc) = net.eval_with_jobs(&data, 2, hook, 1);
        // All logits NaN => every logit "outranks" by index order only; the
        // label ranks at its own position. The exact value is not the point —
        // not panicking and staying in [0,1] is.
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn topk_rank_matches_sort_reference() {
        let net = SynthNet::new(6, 12);
        let data = SynthDataset::generate(50, 6, 13);
        for k in [1, 2, 4] {
            let (_, got) = net.eval_with_jobs(&data, k, |_, _| (), 1);
            // Reference: the old stable descending sort (finite logits).
            let mut correct = 0usize;
            for (img, &label) in data.images.iter().zip(&data.labels) {
                let logits = net.forward(img);
                let mut idx: Vec<usize> = (0..logits.len()).collect();
                idx.sort_by(|&a, &b| logits[b].total_cmp(&logits[a]));
                if idx.iter().take(k).any(|&i| i == label) {
                    correct += 1;
                }
            }
            assert_eq!(got, correct as f64 / data.len() as f64, "k={k}");
        }
        // top-1 agrees with argmax-based accuracy on finite logits.
        assert_eq!(
            net.eval_with_jobs(&data, 1, |_, _| (), 1).1,
            net.accuracy(&data)
        );
    }

    #[test]
    fn dataset_bit_identical_across_worker_counts() {
        let serial = SynthDataset::generate(120, 5, 42);
        ola_tensor::par::set_fill_jobs(4);
        let parallel = SynthDataset::generate(120, 5, 42);
        ola_tensor::par::set_fill_jobs(1);
        assert_eq!(serial.labels, parallel.labels);
        for (a, b) in serial.images.iter().zip(&parallel.images) {
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn dataset_prefix_extension_property() {
        // Sample j depends only on (seed, j): a longer dataset starts with
        // exactly the shorter one.
        let short = SynthDataset::generate(30, 4, 7);
        let long = SynthDataset::generate(90, 4, 7);
        assert_eq!(&long.labels[..30], &short.labels[..]);
        assert_eq!(&long.images[..30], &short.images[..]);
    }

    #[test]
    fn training_bit_identical_across_worker_counts() {
        let data = SynthDataset::generate(64, 3, 11);
        let mut serial = SynthNet::new(3, 21);
        serial.train_jobs(&data, 2, 0.02, 31, 1);
        let mut parallel = SynthNet::new(3, 21);
        parallel.train_jobs(&data, 2, 0.02, 31, 3);
        for layer in LAYERS {
            assert_eq!(
                serial
                    .weights(layer)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                parallel
                    .weights(layer)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "{layer:?} drifted between 1 and 3 workers"
            );
        }
    }

    #[test]
    fn map_weights_transforms_all_layers() {
        let net = SynthNet::new(5, 1);
        let zeroed = net.map_weights(|_, w| w.fill(0.0));
        for layer in LAYERS {
            assert!(zeroed.weights(layer).iter().all(|&v| v == 0.0));
        }
        // Original untouched.
        assert!(net.w1.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn eval_with_returns_both_metrics_from_one_pass() {
        let data = SynthDataset::generate(80, 5, 23);
        let mut net = SynthNet::new(5, 24);
        net.train(&data, 2, 0.02, 25);
        let (top1, top3) = net.eval_with_jobs(&data, 3, |_, _| (), 1);
        // Reference: per-image forwards, argmax for top-1, a full stable
        // sort for top-3.
        let (mut hits1, mut hits3) = (0, 0);
        for (img, &label) in data.images.iter().zip(&data.labels) {
            let logits = net.forward(img);
            let mut idx: Vec<usize> = (0..logits.len()).collect();
            idx.sort_by(|&a, &b| logits[b].total_cmp(&logits[a]));
            hits1 += usize::from(argmax(&logits) == label);
            hits3 += usize::from(idx[..3].contains(&label));
        }
        let n = data.len() as f64;
        assert_eq!((top1, top3), (hits1 as f64 / n, hits3 as f64 / n));
        assert!(top3 >= top1, "top-3 can never be below top-1");
    }

    #[test]
    fn eval_with_jobs_matches_serial_at_any_worker_count() {
        let data = SynthDataset::generate(70, 4, 33);
        let net = SynthNet::new(4, 34);
        // A hook that actually perturbs activations, like the quantizers do.
        let hook = |layer: LayerId, a: &mut [f32]| {
            if layer == LayerId::Conv2 {
                for v in a {
                    *v = (*v * 4.0).round() / 4.0;
                }
            }
        };
        let serial = net.eval_with_jobs(&data, 2, hook, 1);
        for jobs in [2, 3, 4] {
            let par = net.eval_with_jobs(&data, 2, hook, jobs);
            assert_eq!(
                (serial.0.to_bits(), serial.1.to_bits()),
                (par.0.to_bits(), par.1.to_bits()),
                "jobs={jobs} drifted from serial"
            );
        }
    }

    #[test]
    fn forward_with_hook_sees_all_hidden_layers() {
        let net = SynthNet::new(4, 8);
        let data = SynthDataset::generate(1, 4, 8);
        let mut seen = Vec::new();
        let _ = net.forward_with(&data.images[0], |layer, _| seen.push(layer));
        assert_eq!(
            seen,
            vec![LayerId::Conv1, LayerId::Conv2, LayerId::Conv3, LayerId::Fc1]
        );
    }
}
