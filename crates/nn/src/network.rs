//! Network graph representation, shape inference, and f32 reference
//! inference.
//!
//! Networks are DAGs of [`Node`]s. Sequential models (AlexNet, VGG-16) are a
//! chain; ResNets add `Add` nodes with two inputs and DenseNets add `Concat`
//! nodes. The forward pass here is the full-precision reference that the
//! quantizers calibrate against and that the simulators sample activation
//! statistics from.

use crate::layer::{Op, PoolKind};
use crate::synth::SyntheticMatrix;
use ola_tensor::{Shape4, Tensor};

/// Index of a node within a [`Network`].
pub type NodeId = usize;

/// One operator instance in the graph.
#[derive(Clone, Debug)]
pub struct Node {
    /// Human-readable name (`"conv1"`, `"fc6"`, ...).
    pub name: String,
    /// The operator.
    pub op: Op,
    /// Data inputs (node ids). Empty only for `Op::Input`.
    pub inputs: Vec<NodeId>,
}

/// A feed-forward network DAG.
///
/// # Example
///
/// ```
/// use ola_nn::{Network, Op, Conv2dSpec};
/// use ola_tensor::{ConvGeometry, Shape4};
///
/// let mut net = Network::new("tiny", Shape4::new(1, 3, 8, 8));
/// let c = net.add("conv1", Op::Conv(Conv2dSpec::new(3, 4, ConvGeometry::new(3, 1, 1))), &[0]);
/// let r = net.add("relu1", Op::ReLU, &[c]);
/// let shapes = net.shapes();
/// assert_eq!(shapes[r], Shape4::new(1, 4, 8, 8));
/// ```
#[derive(Clone, Debug)]
pub struct Network {
    name: String,
    input_shape: Shape4,
    nodes: Vec<Node>,
}

impl Network {
    /// Creates a network with a single `Input` node (id 0) of the given
    /// shape.
    pub fn new(name: impl Into<String>, input_shape: Shape4) -> Self {
        let nodes = vec![Node {
            name: "input".to_string(),
            op: Op::Input,
            inputs: Vec::new(),
        }];
        Network {
            name: name.into(),
            input_shape,
            nodes,
        }
    }

    /// The network's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Shape of the input node.
    pub fn input_shape(&self) -> Shape4 {
        self.input_shape
    }

    /// All nodes in topological (insertion) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Appends a node and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if an input id is out of range (inputs must precede the node)
    /// or if the input arity does not match the op.
    pub fn add(&mut self, name: impl Into<String>, op: Op, inputs: &[NodeId]) -> NodeId {
        let id = self.nodes.len();
        for &i in inputs {
            assert!(i < id, "input {i} does not precede node {id}");
        }
        let arity_ok = match op {
            Op::Input => inputs.is_empty(),
            Op::Add | Op::Concat => inputs.len() == 2,
            _ => inputs.len() == 1,
        };
        assert!(arity_ok, "op {op:?} given {} inputs", inputs.len());
        self.nodes.push(Node {
            name: name.into(),
            op,
            inputs: inputs.to_vec(),
        });
        id
    }

    /// Ids of all weight-bearing (conv or linear) nodes, in order.
    pub fn compute_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].op.is_compute())
            .collect()
    }

    /// Infers the output shape of every node.
    ///
    /// # Panics
    ///
    /// Panics if a `Linear` node's input does not flatten to its
    /// `in_features`, or `Add` inputs disagree in shape.
    pub fn shapes(&self) -> Vec<Shape4> {
        let mut shapes: Vec<Shape4> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let s = match node.op {
                Op::Input => self.input_shape,
                Op::Conv(spec) => {
                    let i = shapes[node.inputs[0]];
                    assert_eq!(
                        i.c, spec.in_channels,
                        "conv {} expects {} channels, input has {}",
                        node.name, spec.in_channels, i.c
                    );
                    let (oh, ow) = spec.geometry.output_hw(i.h, i.w);
                    Shape4::new(i.n, spec.out_channels, oh, ow)
                }
                Op::Linear(spec) => {
                    let i = shapes[node.inputs[0]];
                    assert_eq!(
                        i.c * i.h * i.w,
                        spec.in_features,
                        "linear {} expects {} features, input flattens to {}",
                        node.name,
                        spec.in_features,
                        i.c * i.h * i.w
                    );
                    Shape4::new(i.n, spec.out_features, 1, 1)
                }
                Op::ReLU | Op::BatchNorm => shapes[node.inputs[0]],
                Op::Pool(spec) => {
                    let i = shapes[node.inputs[0]];
                    let (oh, ow) = spec.geometry.output_hw(i.h, i.w);
                    Shape4::new(i.n, i.c, oh, ow)
                }
                Op::GlobalAvgPool => {
                    let i = shapes[node.inputs[0]];
                    Shape4::new(i.n, i.c, 1, 1)
                }
                Op::Add => {
                    let a = shapes[node.inputs[0]];
                    let b = shapes[node.inputs[1]];
                    assert_eq!(a, b, "add {} inputs disagree: {a} vs {b}", node.name);
                    a
                }
                Op::Concat => {
                    let a = shapes[node.inputs[0]];
                    let b = shapes[node.inputs[1]];
                    assert_eq!(
                        (a.n, a.h, a.w),
                        (b.n, b.h, b.w),
                        "concat {} spatial mismatch",
                        node.name
                    );
                    Shape4::new(a.n, a.c + b.c, a.h, a.w)
                }
            };
            shapes.push(s);
        }
        shapes
    }
}

/// Weight storage for one parameterized layer.
#[derive(Clone, Debug)]
pub enum WeightStore {
    /// Fully materialized weights (conv layers, small linears).
    Dense(Tensor),
    /// Deterministic on-the-fly row generation — used for the enormous
    /// fully-connected layers (VGG-16 fc6 alone is 102 M weights) whose
    /// statistics, not values, matter to the simulators.
    RowGen(SyntheticMatrix),
}

/// Parameter set for a [`Network`]: per-node optional weights, biases and
/// batch-norm affine terms.
#[derive(Clone, Debug, Default)]
pub struct Params {
    weights: Vec<Option<WeightStore>>,
    biases: Vec<Option<Vec<f32>>>,
    /// Per-channel `(scale, shift)` for BatchNorm nodes.
    bn: Vec<Option<(Vec<f32>, Vec<f32>)>>,
}

impl Params {
    /// Creates an empty parameter set sized for `net`.
    pub fn for_network(net: &Network) -> Self {
        Self::sized(net.nodes().len())
    }

    /// Creates an empty parameter set with `n` node slots (deserialization;
    /// prefer [`Params::for_network`] when the graph is at hand).
    pub fn sized(n: usize) -> Self {
        Params {
            weights: vec![None; n],
            biases: vec![None; n],
            bn: vec![None; n],
        }
    }

    /// Number of node slots (equals the node count of the network this set
    /// was sized for).
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the set has no node slots.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Sets the weights of node `id`.
    pub fn set_weights(&mut self, id: NodeId, w: WeightStore) {
        self.weights[id] = Some(w);
    }

    /// Sets the bias of node `id`.
    pub fn set_bias(&mut self, id: NodeId, b: Vec<f32>) {
        self.biases[id] = Some(b);
    }

    /// Sets batch-norm affine terms for node `id`.
    pub fn set_bn(&mut self, id: NodeId, scale: Vec<f32>, shift: Vec<f32>) {
        self.bn[id] = Some((scale, shift));
    }

    /// Weights of node `id`, if set.
    pub fn weights(&self, id: NodeId) -> Option<&WeightStore> {
        self.weights.get(id).and_then(|w| w.as_ref())
    }

    /// Bias of node `id`, if set.
    pub fn bias(&self, id: NodeId) -> Option<&[f32]> {
        self.biases.get(id).and_then(|b| b.as_deref())
    }

    /// BatchNorm `(scale, shift)` of node `id`, if set.
    pub fn bn(&self, id: NodeId) -> Option<(&[f32], &[f32])> {
        self.bn
            .get(id)
            .and_then(|b| b.as_ref())
            .map(|(s, sh)| (s.as_slice(), sh.as_slice()))
    }

    /// Dense weights of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if the node has no dense weights.
    pub fn dense_weights(&self, id: NodeId) -> &Tensor {
        match self.weights(id) {
            Some(WeightStore::Dense(t)) => t,
            other => panic!("node {id} has no dense weights (got {other:?})"),
        }
    }
}

/// All node outputs from one forward pass, indexed by [`NodeId`].
pub type Activations = Vec<Tensor>;

impl Network {
    /// Runs full-precision inference, returning every node's output.
    ///
    /// Compute nodes execute on the tiled im2col kernels of
    /// [`crate::kernels`] with the calling thread's worker budget
    /// ([`ola_tensor::par::jobs`], default 1); results are
    /// bit-identical to [`Network::forward_naive`] at any worker count.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match [`Network::input_shape`] (batch size
    /// may differ), or a compute node is missing weights.
    pub fn forward(&self, params: &Params, input: &Tensor) -> Activations {
        self.forward_with_jobs(params, input, ola_tensor::par::jobs())
    }

    /// Runs full-precision inference with an explicit kernel worker count.
    ///
    /// # Panics
    ///
    /// As [`Network::forward`], plus if `jobs` is zero.
    pub fn forward_with_jobs(&self, params: &Params, input: &Tensor, jobs: usize) -> Activations {
        self.forward_impl(params, input, Some(jobs))
    }

    /// Runs full-precision inference on the naive reference kernels.
    ///
    /// This is the oracle path the fast kernels are property-tested
    /// against (and the baseline the `prep_forward` bench compares to);
    /// production code should call [`Network::forward`].
    ///
    /// # Panics
    ///
    /// As [`Network::forward`].
    pub fn forward_naive(&self, params: &Params, input: &Tensor) -> Activations {
        self.forward_impl(params, input, None)
    }

    /// Shared graph walk; `jobs` of `None` selects the naive kernels.
    fn forward_impl(&self, params: &Params, input: &Tensor, jobs: Option<usize>) -> Activations {
        let is = input.shape();
        assert_eq!(
            (is.c, is.h, is.w),
            (self.input_shape.c, self.input_shape.h, self.input_shape.w),
            "input shape mismatch"
        );
        let mut outs: Activations = Vec::with_capacity(self.nodes.len());
        for (id, node) in self.nodes.iter().enumerate() {
            let out = match node.op {
                Op::Input => input.clone(),
                Op::Conv(spec) => {
                    let x = &outs[node.inputs[0]];
                    let w = params.dense_weights(id);
                    let b = params.biases[id].as_deref();
                    let (stride, pad) = (spec.geometry.stride, spec.geometry.pad);
                    match (jobs, spec.groups) {
                        (None, 1) => conv2d(x, w, b, stride, pad),
                        (None, g) => conv2d_grouped(x, w, b, stride, pad, g),
                        (Some(j), 1) => crate::kernels::conv2d_fast(x, w, b, stride, pad, j),
                        (Some(j), g) => {
                            crate::kernels::conv2d_grouped_fast(x, w, b, stride, pad, g, j)
                        }
                    }
                }
                Op::Linear(spec) => {
                    let x = &outs[node.inputs[0]];
                    let b = params.biases[id].as_deref();
                    match (jobs, params.weights(id)) {
                        (None, Some(WeightStore::Dense(w))) => {
                            linear_dense(x, w, b, spec.out_features)
                        }
                        (None, Some(WeightStore::RowGen(g))) => {
                            linear_rowgen(x, g, b, spec.out_features)
                        }
                        (Some(j), Some(WeightStore::Dense(w))) => {
                            crate::kernels::linear_fast(x, w, b, spec.out_features, j)
                        }
                        (Some(j), Some(WeightStore::RowGen(g))) => {
                            crate::kernels::linear_rowgen_fast(x, g, b, spec.out_features, j)
                        }
                        (_, None) => panic!("linear node {} has no weights", node.name),
                    }
                }
                Op::ReLU => {
                    let mut t = outs[node.inputs[0]].clone();
                    t.map_inplace(|v| v.max(0.0));
                    t
                }
                Op::BatchNorm => {
                    let x = &outs[node.inputs[0]];
                    match &params.bn[id] {
                        Some((scale, shift)) => batch_norm(x, scale, shift),
                        None => x.clone(),
                    }
                }
                Op::Pool(spec) => pool2d(
                    &outs[node.inputs[0]],
                    spec.kind,
                    spec.geometry.kernel,
                    spec.geometry.stride,
                    spec.geometry.pad,
                ),
                Op::GlobalAvgPool => global_avg_pool(&outs[node.inputs[0]]),
                Op::Add => {
                    let a = &outs[node.inputs[0]];
                    let b = &outs[node.inputs[1]];
                    let mut t = a.clone();
                    for (x, y) in t.iter_mut().zip(b.iter()) {
                        *x += *y;
                    }
                    t
                }
                Op::Concat => concat_channels(&outs[node.inputs[0]], &outs[node.inputs[1]]),
            };
            outs.push(out);
        }
        outs
    }
}

/// Naive direct 2-D convolution (NCHW x OIHW) — the oracle for
/// [`crate::kernels::conv2d_fast`]. Accumulates each output element in
/// `(ic, ky, kx)` order, the reduction order the fast kernels preserve.
pub fn conv2d(x: &Tensor, w: &Tensor, bias: Option<&[f32]>, stride: usize, pad: usize) -> Tensor {
    let xs = x.shape();
    let ws = w.shape();
    assert_eq!(xs.c, ws.c, "channel mismatch");
    let k = ws.h;
    let oh = (xs.h + 2 * pad - k) / stride + 1;
    let ow = (xs.w + 2 * pad - k) / stride + 1;
    let mut out = Tensor::zeros(Shape4::new(xs.n, ws.n, oh, ow));
    let xd = x.as_slice();
    let wd = w.as_slice();
    let od = out.as_mut_slice();
    for n in 0..xs.n {
        for oc in 0..ws.n {
            let b = bias.map_or(0.0, |bv| bv[oc]);
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = b;
                    let iy0 = (oy * stride) as isize - pad as isize;
                    let ix0 = (ox * stride) as isize - pad as isize;
                    for ic in 0..xs.c {
                        let xoff = (n * xs.c + ic) * xs.h;
                        let woff = ((oc * ws.c + ic) * k) * k;
                        for ky in 0..k {
                            let iy = iy0 + ky as isize;
                            if iy < 0 || iy >= xs.h as isize {
                                continue;
                            }
                            let xrow = (xoff + iy as usize) * xs.w;
                            let wrow = woff + ky * k;
                            for kx in 0..k {
                                let ix = ix0 + kx as isize;
                                if ix < 0 || ix >= xs.w as isize {
                                    continue;
                                }
                                acc += xd[xrow + ix as usize] * wd[wrow + kx];
                            }
                        }
                    }
                    od[((n * ws.n + oc) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    out
}

/// Grouped convolution: channels split into `groups` independent slices.
pub fn conv2d_grouped(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    groups: usize,
) -> Tensor {
    let xs = x.shape();
    let ws = w.shape();
    assert_eq!(xs.c % groups, 0, "groups must divide input channels");
    assert_eq!(ws.n % groups, 0, "groups must divide output channels");
    assert_eq!(ws.c, xs.c / groups, "weight shape inconsistent with groups");
    let cig = xs.c / groups;
    let cog = ws.n / groups;
    let k = ws.h;
    let (oh, ow) = crate::layer::Conv2dSpec::with_groups(
        xs.c,
        ws.n,
        ola_tensor::ConvGeometry::new(k, stride, pad),
        groups,
    )
    .geometry
    .output_hw(xs.h, xs.w);
    let mut out = Tensor::zeros(Shape4::new(xs.n, ws.n, oh, ow));
    for g in 0..groups {
        // Gather this group's input/weight slices once (contiguous plane
        // copies), run the dense reference on them, and scatter the result
        // back — the per-element re-gathering this loop used to do made
        // the oracle itself quadratic in channel count.
        let mut xg = Tensor::zeros(Shape4::new(xs.n, cig, xs.h, xs.w));
        for n in 0..xs.n {
            for c in 0..cig {
                xg.plane_mut(n, c).copy_from_slice(x.plane(n, g * cig + c));
            }
        }
        let mut wg = Tensor::zeros(Shape4::new(cog, cig, k, k));
        let row = cig * k * k;
        for oc in 0..cog {
            wg.as_mut_slice()[oc * row..(oc + 1) * row]
                .copy_from_slice(&w.as_slice()[(g * cog + oc) * row..(g * cog + oc + 1) * row]);
        }
        let bg: Option<&[f32]> = bias.map(|b| &b[g * cog..(g + 1) * cog]);
        let og = conv2d(&xg, &wg, bg, stride, pad);
        for n in 0..xs.n {
            for oc in 0..cog {
                out.plane_mut(n, g * cog + oc)
                    .copy_from_slice(og.plane(n, oc));
            }
        }
    }
    out
}

/// Naive dense linear layer (the oracle for
/// [`crate::kernels::linear_fast`]).
pub fn linear_dense(x: &Tensor, w: &Tensor, bias: Option<&[f32]>, out_features: usize) -> Tensor {
    let xs = x.shape();
    let in_features = xs.c * xs.h * xs.w;
    assert_eq!(w.len(), in_features * out_features, "weight size mismatch");
    let xd = x.as_slice();
    let wd = w.as_slice();
    let mut out = Tensor::zeros(Shape4::new(xs.n, out_features, 1, 1));
    let od = out.as_mut_slice();
    for n in 0..xs.n {
        let xrow = &xd[n * in_features..(n + 1) * in_features];
        for o in 0..out_features {
            let wrow = &wd[o * in_features..(o + 1) * in_features];
            let mut acc = bias.map_or(0.0, |b| b[o]);
            for (xa, wa) in xrow.iter().zip(wrow) {
                acc += xa * wa;
            }
            od[n * out_features + o] = acc;
        }
    }
    out
}

/// Naive row-generated linear layer (the oracle for
/// [`crate::kernels::linear_rowgen_fast`]).
pub fn linear_rowgen(
    x: &Tensor,
    gen: &SyntheticMatrix,
    bias: Option<&[f32]>,
    out_features: usize,
) -> Tensor {
    let xs = x.shape();
    let in_features = xs.c * xs.h * xs.w;
    assert_eq!(gen.cols(), in_features, "generator column mismatch");
    assert_eq!(gen.rows(), out_features, "generator row mismatch");
    let xd = x.as_slice();
    let mut out = Tensor::zeros(Shape4::new(xs.n, out_features, 1, 1));
    let od = out.as_mut_slice();
    let mut row = vec![0.0_f32; in_features];
    for o in 0..out_features {
        gen.fill_row(o, &mut row);
        let b = bias.map_or(0.0, |bv| bv[o]);
        for n in 0..xs.n {
            let xrow = &xd[n * in_features..(n + 1) * in_features];
            let mut acc = b;
            for (xa, wa) in xrow.iter().zip(row.iter()) {
                acc += xa * wa;
            }
            od[n * out_features + o] = acc;
        }
    }
    out
}

fn batch_norm(x: &Tensor, scale: &[f32], shift: &[f32]) -> Tensor {
    let s = x.shape();
    assert_eq!(scale.len(), s.c);
    assert_eq!(shift.len(), s.c);
    let mut out = x.clone();
    let od = out.as_mut_slice();
    let hw = s.h * s.w;
    for n in 0..s.n {
        for c in 0..s.c {
            let base = (n * s.c + c) * hw;
            for i in 0..hw {
                od[base + i] = od[base + i] * scale[c] + shift[c];
            }
        }
    }
    out
}

fn pool2d(x: &Tensor, kind: PoolKind, k: usize, stride: usize, pad: usize) -> Tensor {
    let s = x.shape();
    let oh = (s.h + 2 * pad - k) / stride + 1;
    let ow = (s.w + 2 * pad - k) / stride + 1;
    let mut out = Tensor::zeros(Shape4::new(s.n, s.c, oh, ow));
    for n in 0..s.n {
        for c in 0..s.c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = match kind {
                        PoolKind::Max => f32::NEG_INFINITY,
                        PoolKind::Avg => 0.0,
                    };
                    let mut count = 0usize;
                    for ky in 0..k {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        if iy < 0 || iy >= s.h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if ix < 0 || ix >= s.w as isize {
                                continue;
                            }
                            let v = x.get(n, c, iy as usize, ix as usize);
                            match kind {
                                PoolKind::Max => acc = acc.max(v),
                                PoolKind::Avg => acc += v,
                            }
                            count += 1;
                        }
                    }
                    let v = match kind {
                        PoolKind::Max => {
                            if count == 0 {
                                0.0
                            } else {
                                acc
                            }
                        }
                        PoolKind::Avg => {
                            if count == 0 {
                                0.0
                            } else {
                                acc / count as f32
                            }
                        }
                    };
                    out.set(n, c, oy, ox, v);
                }
            }
        }
    }
    out
}

fn global_avg_pool(x: &Tensor) -> Tensor {
    let s = x.shape();
    let mut out = Tensor::zeros(Shape4::new(s.n, s.c, 1, 1));
    let hw = (s.h * s.w) as f32;
    for n in 0..s.n {
        for c in 0..s.c {
            let mut acc = 0.0;
            for h in 0..s.h {
                for w in 0..s.w {
                    acc += x.get(n, c, h, w);
                }
            }
            out.set(n, c, 0, 0, acc / hw);
        }
    }
    out
}

fn concat_channels(a: &Tensor, b: &Tensor) -> Tensor {
    let sa = a.shape();
    let sb = b.shape();
    assert_eq!(
        (sa.n, sa.h, sa.w),
        (sb.n, sb.h, sb.w),
        "concat spatial mismatch"
    );
    let mut out = Tensor::zeros(Shape4::new(sa.n, sa.c + sb.c, sa.h, sa.w));
    for n in 0..sa.n {
        for c in 0..sa.c {
            for h in 0..sa.h {
                for w in 0..sa.w {
                    out.set(n, c, h, w, a.get(n, c, h, w));
                }
            }
        }
        for c in 0..sb.c {
            for h in 0..sa.h {
                for w in 0..sa.w {
                    out.set(n, sa.c + c, h, w, b.get(n, c, h, w));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Conv2dSpec, LinearSpec, PoolSpec};
    use ola_tensor::ConvGeometry;

    #[test]
    fn conv2d_identity_kernel() {
        // 1x1 kernel with weight 1.0 copies the input.
        let x = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        let w = Tensor::from_vec(Shape4::new(1, 1, 1, 1), vec![1.0]);
        let y = conv2d(&x, &w, None, 1, 0);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn conv2d_known_3x3() {
        // All-ones 3x3 kernel, pad 1: center output = sum of all 9 inputs.
        let x = Tensor::from_vec(
            Shape4::new(1, 1, 3, 3),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        );
        let w = Tensor::from_vec(Shape4::new(1, 1, 3, 3), vec![1.0; 9]);
        let y = conv2d(&x, &w, None, 1, 1);
        assert_eq!(y.get(0, 0, 1, 1), 45.0);
        // Corner output sums the 2x2 neighborhood.
        assert_eq!(y.get(0, 0, 0, 0), 1.0 + 2.0 + 4.0 + 5.0);
    }

    #[test]
    fn conv2d_stride_and_bias() {
        let x = Tensor::from_vec(
            Shape4::new(1, 1, 4, 4),
            (1..=16).map(|i| i as f32).collect(),
        );
        let w = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0; 4]);
        let y = conv2d(&x, &w, Some(&[10.0]), 2, 0);
        assert_eq!(y.shape(), Shape4::new(1, 1, 2, 2));
        assert_eq!(y.get(0, 0, 0, 0), 1.0 + 2.0 + 5.0 + 6.0 + 10.0);
    }

    #[test]
    fn conv2d_multi_channel_sums_channels() {
        let x = Tensor::from_vec(Shape4::new(1, 2, 1, 1), vec![3.0, 5.0]);
        let w = Tensor::from_vec(Shape4::new(1, 2, 1, 1), vec![2.0, 4.0]);
        let y = conv2d(&x, &w, None, 1, 0);
        assert_eq!(y.get(0, 0, 0, 0), 3.0 * 2.0 + 5.0 * 4.0);
    }

    #[test]
    fn pool_max_and_avg() {
        let x = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        let m = pool2d(&x, PoolKind::Max, 2, 2, 0);
        assert_eq!(m.get(0, 0, 0, 0), 4.0);
        let a = pool2d(&x, PoolKind::Avg, 2, 2, 0);
        assert_eq!(a.get(0, 0, 0, 0), 2.5);
    }

    #[test]
    fn forward_chain_shapes_and_values() {
        let mut net = Network::new("t", Shape4::new(1, 1, 4, 4));
        let c = net.add(
            "conv",
            Op::Conv(Conv2dSpec::new(1, 2, ConvGeometry::new(3, 1, 1))),
            &[0],
        );
        let r = net.add("relu", Op::ReLU, &[c]);
        let p = net.add(
            "pool",
            Op::Pool(PoolSpec::new(PoolKind::Max, 2, 2, 0)),
            &[r],
        );
        let f = net.add("fc", Op::Linear(LinearSpec::new(2 * 2 * 2, 3)), &[p]);

        let shapes = net.shapes();
        assert_eq!(shapes[c], Shape4::new(1, 2, 4, 4));
        assert_eq!(shapes[p], Shape4::new(1, 2, 2, 2));
        assert_eq!(shapes[f], Shape4::new(1, 3, 1, 1));

        let mut params = Params::for_network(&net);
        params.set_weights(
            c,
            WeightStore::Dense(Tensor::zeros(Shape4::new(2, 1, 3, 3))),
        );
        params.set_weights(
            f,
            WeightStore::Dense(Tensor::zeros(Shape4::new(1, 1, 3, 8))),
        );
        let input = Tensor::zeros(Shape4::new(1, 1, 4, 4));
        let outs = net.forward(&params, &input);
        assert_eq!(outs[f].shape(), Shape4::new(1, 3, 1, 1));
    }

    #[test]
    fn add_and_concat() {
        let mut net = Network::new("t", Shape4::new(1, 2, 1, 1));
        let r = net.add("relu", Op::ReLU, &[0]);
        let a = net.add("add", Op::Add, &[0, r]);
        let cc = net.add("cat", Op::Concat, &[0, a]);
        let shapes = net.shapes();
        assert_eq!(shapes[cc], Shape4::new(1, 4, 1, 1));

        let params = Params::for_network(&net);
        let input = Tensor::from_vec(Shape4::new(1, 2, 1, 1), vec![-1.0, 2.0]);
        let outs = net.forward(&params, &input);
        // relu(-1,2) = (0,2); add = (-1,4); concat = (-1,2,-1,4)
        assert_eq!(outs[cc].as_slice(), &[-1.0, 2.0, -1.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "does not precede")]
    fn bad_input_order_panics() {
        let mut net = Network::new("t", Shape4::new(1, 1, 1, 1));
        net.add("x", Op::ReLU, &[5]);
    }

    #[test]
    fn forward_and_forward_naive_agree_bitwise() {
        use ola_tensor::init::{gaussian_tensor, uniform_tensor};
        let mut net = Network::new("t", Shape4::new(1, 3, 8, 8));
        let c1 = net.add(
            "conv1",
            Op::Conv(Conv2dSpec::new(3, 6, ConvGeometry::new(3, 1, 1))),
            &[0],
        );
        let r = net.add("relu", Op::ReLU, &[c1]);
        let c2 = net.add(
            "conv2",
            Op::Conv(Conv2dSpec::with_groups(6, 4, ConvGeometry::new(3, 2, 1), 2)),
            &[r],
        );
        let f = net.add("fc", Op::Linear(LinearSpec::new(4 * 4 * 4, 5)), &[c2]);
        let mut params = Params::for_network(&net);
        params.set_weights(
            c1,
            WeightStore::Dense(gaussian_tensor(Shape4::new(6, 3, 3, 3), 0.5, 1)),
        );
        params.set_bias(c1, (0..6).map(|i| i as f32 * 0.1).collect());
        params.set_weights(
            c2,
            WeightStore::Dense(gaussian_tensor(Shape4::new(4, 3, 3, 3), 0.5, 2)),
        );
        params.set_weights(
            f,
            WeightStore::Dense(gaussian_tensor(Shape4::new(1, 1, 5, 64), 0.5, 3)),
        );
        let input = uniform_tensor(Shape4::new(1, 3, 8, 8), -1.0, 1.0, 4);
        let naive = net.forward_naive(&params, &input);
        for jobs in [1, 3] {
            let fast = net.forward_with_jobs(&params, &input, jobs);
            assert_eq!(naive.len(), fast.len());
            for (a, b) in naive.iter().zip(&fast) {
                let ab: Vec<u32> = a.as_slice().iter().map(|v| v.to_bits()).collect();
                let bb: Vec<u32> = b.as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(ab, bb);
            }
        }
    }

    #[test]
    fn grouped_conv_matches_blockwise_reference() {
        // groups=2 over 4 input channels: each half of the outputs only
        // sees its half of the inputs.
        let x = Tensor::from_vec(Shape4::new(1, 4, 1, 1), vec![1.0, 2.0, 3.0, 4.0]);
        // 2 out channels, 2 in-per-group, 1x1 kernels.
        let w = Tensor::from_vec(Shape4::new(2, 2, 1, 1), vec![1.0, 1.0, 1.0, 1.0]);
        let y = conv2d_grouped(&x, &w, None, 1, 0, 2);
        // out0 = x0 + x1 = 3; out1 = x2 + x3 = 7.
        assert_eq!(y.as_slice(), &[3.0, 7.0]);
    }

    #[test]
    fn grouped_conv_equals_dense_when_groups_is_one() {
        let x = Tensor::from_vec(Shape4::new(1, 2, 2, 2), (1..=8).map(|i| i as f32).collect());
        let w = Tensor::from_vec(
            Shape4::new(3, 2, 1, 1),
            (1..=6).map(|i| i as f32 / 10.0).collect(),
        );
        let dense = conv2d(&x, &w, None, 1, 0);
        let grouped = conv2d_grouped(&x, &w, None, 1, 0, 1);
        assert_eq!(dense, grouped);
    }

    #[test]
    fn global_avg_pool_averages() {
        let mut net = Network::new("t", Shape4::new(1, 2, 2, 2));
        let g = net.add("gap", Op::GlobalAvgPool, &[0]);
        let params = Params::for_network(&net);
        let input = Tensor::from_vec(
            Shape4::new(1, 2, 2, 2),
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0],
        );
        let outs = net.forward(&params, &input);
        assert_eq!(outs[g].as_slice(), &[2.5, 25.0]);
    }

    #[test]
    fn batch_norm_applies_affine() {
        let mut net = Network::new("t", Shape4::new(1, 2, 1, 1));
        let b = net.add("bn", Op::BatchNorm, &[0]);
        let mut params = Params::for_network(&net);
        params.set_bn(b, vec![2.0, 0.5], vec![1.0, -1.0]);
        let input = Tensor::from_vec(Shape4::new(1, 2, 1, 1), vec![3.0, 4.0]);
        let outs = net.forward(&params, &input);
        assert_eq!(outs[b].as_slice(), &[7.0, 1.0]);
    }

    #[test]
    fn bias_and_bn_accessors() {
        let mut net = Network::new("t", Shape4::new(1, 1, 1, 1));
        let b = net.add("bn", Op::BatchNorm, &[0]);
        let mut params = Params::for_network(&net);
        assert!(params.bn(b).is_none());
        params.set_bn(b, vec![1.0], vec![0.5]);
        assert_eq!(params.bn(b).unwrap().1, &[0.5]);
        params.set_bias(b, vec![0.25]);
        assert_eq!(params.bias(b).unwrap(), &[0.25]);
    }
}
