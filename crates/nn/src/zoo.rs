//! The model zoo: layer-exact descriptors of the five networks the paper
//! evaluates, with an optional spatial down-scale knob.
//!
//! Layer shapes are taken from the canonical Caffe/torchvision definitions
//! the paper's PyTorch/Caffe setup used. `spatial_scale` divides the input
//! resolution so detailed chunk-level simulation stays tractable (channel
//! structure — which is what the 16-lane chunking keys on — is preserved;
//! cycle counts extrapolate linearly in spatial positions, see DESIGN.md §5).

use crate::layer::{Conv2dSpec, LinearSpec, Op, PoolKind, PoolSpec};
use crate::network::{Network, NodeId};
use ola_tensor::{ConvGeometry, Shape4};

/// Zoo construction options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZooConfig {
    /// Divide the native input resolution by this factor (1 = full size).
    pub spatial_scale: usize,
    /// Include the fully-connected classifier head.
    pub include_classifier: bool,
    /// Batch size of the input node.
    pub batch: usize,
}

impl Default for ZooConfig {
    fn default() -> Self {
        ZooConfig {
            spatial_scale: 1,
            include_classifier: true,
            batch: 1,
        }
    }
}

impl ZooConfig {
    /// A configuration scaled down for fast tests.
    pub fn test_scale() -> Self {
        ZooConfig {
            spatial_scale: 4,
            include_classifier: true,
            batch: 1,
        }
    }
}

/// Incremental network builder tracking the current node and shape.
struct Builder {
    net: Network,
    cur: NodeId,
    shape: Shape4,
    counter: usize,
}

impl Builder {
    fn new(name: &str, input: Shape4) -> Self {
        Builder {
            net: Network::new(name, input),
            cur: 0,
            shape: input,
            counter: 0,
        }
    }

    fn fresh(&mut self, prefix: &str) -> String {
        self.counter += 1;
        format!("{prefix}{}", self.counter)
    }

    fn conv(&mut self, name: &str, out_c: usize, k: usize, s: usize, p: usize) -> NodeId {
        self.conv_grouped(name, out_c, k, s, p, 1)
    }

    fn conv_grouped(
        &mut self,
        name: &str,
        out_c: usize,
        k: usize,
        s: usize,
        p: usize,
        groups: usize,
    ) -> NodeId {
        let spec = Conv2dSpec::with_groups(self.shape.c, out_c, ConvGeometry::new(k, s, p), groups);
        let (oh, ow) = spec.geometry.output_hw(self.shape.h, self.shape.w);
        assert!(
            oh >= 1 && ow >= 1,
            "conv {name} output collapsed; scale too aggressive"
        );
        self.cur = self.net.add(name, Op::Conv(spec), &[self.cur]);
        self.shape = Shape4::new(self.shape.n, out_c, oh, ow);
        self.cur
    }

    fn relu(&mut self) -> NodeId {
        let name = self.fresh("relu");
        self.cur = self.net.add(name, Op::ReLU, &[self.cur]);
        self.cur
    }

    fn bn(&mut self) -> NodeId {
        let name = self.fresh("bn");
        self.cur = self.net.add(name, Op::BatchNorm, &[self.cur]);
        self.cur
    }

    /// Pooling with the kernel clamped so scaled-down inputs never collapse
    /// to zero spatial size.
    fn pool(&mut self, kind: PoolKind, k: usize, s: usize, p: usize) -> NodeId {
        let k = k.min(self.shape.h).min(self.shape.w).max(1);
        let s = s.min(k);
        let spec = PoolSpec::new(kind, k, s, p.min(k / 2));
        let (oh, ow) = spec.geometry.output_hw(self.shape.h, self.shape.w);
        let name = self.fresh("pool");
        self.cur = self.net.add(name, Op::Pool(spec), &[self.cur]);
        self.shape = Shape4::new(self.shape.n, self.shape.c, oh, ow);
        self.cur
    }

    fn gap(&mut self) -> NodeId {
        self.cur = self.net.add("gap", Op::GlobalAvgPool, &[self.cur]);
        self.shape = Shape4::new(self.shape.n, self.shape.c, 1, 1);
        self.cur
    }

    fn linear(&mut self, name: &str, out: usize) -> NodeId {
        let inf = self.shape.c * self.shape.h * self.shape.w;
        self.cur = self
            .net
            .add(name, Op::Linear(LinearSpec::new(inf, out)), &[self.cur]);
        self.shape = Shape4::new(self.shape.n, out, 1, 1);
        self.cur
    }

    fn add_from(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let name = self.fresh("add");
        self.cur = self.net.add(name, Op::Add, &[a, b]);
        self.cur
    }

    fn concat_from(&mut self, a: NodeId, b: NodeId, b_channels: usize) -> NodeId {
        let name = self.fresh("cat");
        self.cur = self.net.add(name, Op::Concat, &[a, b]);
        self.shape = Shape4::new(
            self.shape.n,
            self.shape.c + b_channels,
            self.shape.h,
            self.shape.w,
        );
        self.cur
    }

    fn finish(self) -> Network {
        self.net
    }
}

fn scaled(base: usize, scale: usize) -> usize {
    assert!(scale >= 1, "spatial_scale must be >= 1");
    (base / scale).max(8)
}

/// AlexNet (Caffe variant, 227x227 input, grouped conv2/4/5 as in the
/// original two-tower network).
///
/// The paper feeds 16/8-bit raw activations to conv1 and 4-bit activations
/// elsewhere; that policy lives in the quantization config, not here.
pub fn alexnet(cfg: &ZooConfig) -> Network {
    let hw = scaled(227, cfg.spatial_scale);
    let mut b = Builder::new("alexnet", Shape4::new(cfg.batch, 3, hw, hw));
    b.conv("conv1", 96, 11, 4, 2);
    b.relu();
    b.pool(PoolKind::Max, 3, 2, 0);
    b.conv_grouped("conv2", 256, 5, 1, 2, 2);
    b.relu();
    b.pool(PoolKind::Max, 3, 2, 0);
    b.conv("conv3", 384, 3, 1, 1);
    b.relu();
    b.conv_grouped("conv4", 384, 3, 1, 1, 2);
    b.relu();
    b.conv_grouped("conv5", 256, 3, 1, 1, 2);
    b.relu();
    b.pool(PoolKind::Max, 3, 2, 0);
    if cfg.include_classifier {
        b.linear("fc6", 4096);
        b.relu();
        b.linear("fc7", 4096);
        b.relu();
        b.linear("fc8", 1000);
    }
    b.finish()
}

/// VGG-16 (configuration D, 224x224 input).
pub fn vgg16(cfg: &ZooConfig) -> Network {
    let hw = scaled(224, cfg.spatial_scale);
    let mut b = Builder::new("vgg16", Shape4::new(cfg.batch, 3, hw, hw));
    let stages: [(usize, usize); 5] = [(2, 64), (2, 128), (3, 256), (3, 512), (3, 512)];
    let mut li = 0;
    for (convs, ch) in stages {
        for _ in 0..convs {
            li += 1;
            b.conv(&format!("conv{li}"), ch, 3, 1, 1);
            b.relu();
        }
        b.pool(PoolKind::Max, 2, 2, 0);
    }
    if cfg.include_classifier {
        b.linear("fc6", 4096);
        b.relu();
        b.linear("fc7", 4096);
        b.relu();
        b.linear("fc8", 1000);
    }
    b.finish()
}

/// Adds a ResNet basic block (two 3x3 convs) to `b`; returns the output id.
fn basic_block(b: &mut Builder, name: &str, out_c: usize, stride: usize) -> NodeId {
    let input = b.cur;
    let in_c = b.shape.c;
    let in_shape = b.shape;
    b.conv(&format!("{name}_conv1"), out_c, 3, stride, 1);
    b.bn();
    b.relu();
    b.conv(&format!("{name}_conv2"), out_c, 3, 1, 1);
    b.bn();
    let main = b.cur;
    let shortcut = if stride != 1 || in_c != out_c {
        // Projection shortcut.
        let saved_shape = b.shape;
        b.cur = input;
        b.shape = in_shape;
        b.conv(&format!("{name}_down"), out_c, 1, stride, 0);
        b.bn();
        let s = b.cur;
        b.shape = saved_shape;
        s
    } else {
        input
    };
    b.add_from(main, shortcut);
    b.relu()
}

/// Adds a ResNet bottleneck block (1x1 -> 3x3 -> 1x1) to `b`.
fn bottleneck_block(b: &mut Builder, name: &str, mid_c: usize, stride: usize) -> NodeId {
    let out_c = mid_c * 4;
    let input = b.cur;
    let in_c = b.shape.c;
    let in_shape = b.shape;
    b.conv(&format!("{name}_conv1"), mid_c, 1, 1, 0);
    b.bn();
    b.relu();
    b.conv(&format!("{name}_conv2"), mid_c, 3, stride, 1);
    b.bn();
    b.relu();
    b.conv(&format!("{name}_conv3"), out_c, 1, 1, 0);
    b.bn();
    let main = b.cur;
    let shortcut = if stride != 1 || in_c != out_c {
        let saved_shape = b.shape;
        b.cur = input;
        b.shape = in_shape;
        b.conv(&format!("{name}_down"), out_c, 1, stride, 0);
        b.bn();
        let s = b.cur;
        b.shape = saved_shape;
        s
    } else {
        input
    };
    b.add_from(main, shortcut);
    b.relu()
}

fn resnet_stem(b: &mut Builder) {
    b.conv("conv1", 64, 7, 2, 3);
    b.bn();
    b.relu();
    b.pool(PoolKind::Max, 3, 2, 1);
}

/// ResNet-18 (224x224 input). The paper gives its first conv layer 8-bit
/// weights (quant config, not shape).
pub fn resnet18(cfg: &ZooConfig) -> Network {
    let hw = scaled(224, cfg.spatial_scale);
    let mut b = Builder::new("resnet18", Shape4::new(cfg.batch, 3, hw, hw));
    resnet_stem(&mut b);
    let stages: [(usize, usize); 4] = [(64, 1), (128, 2), (256, 2), (512, 2)];
    for (si, (ch, stride)) in stages.into_iter().enumerate() {
        basic_block(&mut b, &format!("s{}b0", si + 1), ch, stride);
        basic_block(&mut b, &format!("s{}b1", si + 1), ch, 1);
    }
    b.gap();
    if cfg.include_classifier {
        b.linear("fc", 1000);
    }
    b.finish()
}

/// ResNet-101 (224x224 input), bottleneck blocks [3, 4, 23, 3].
pub fn resnet101(cfg: &ZooConfig) -> Network {
    let hw = scaled(224, cfg.spatial_scale);
    let mut b = Builder::new("resnet101", Shape4::new(cfg.batch, 3, hw, hw));
    resnet_stem(&mut b);
    let stages: [(usize, usize, usize); 4] = [(64, 3, 1), (128, 4, 2), (256, 23, 2), (512, 3, 2)];
    for (si, (ch, blocks, stride)) in stages.into_iter().enumerate() {
        for bi in 0..blocks {
            let s = if bi == 0 { stride } else { 1 };
            bottleneck_block(&mut b, &format!("s{}b{bi}", si + 1), ch, s);
        }
    }
    b.gap();
    if cfg.include_classifier {
        b.linear("fc", 1000);
    }
    b.finish()
}

/// DenseNet-121 (224x224 input): growth 32, blocks [6, 12, 24, 16],
/// compression 0.5 transitions.
pub fn densenet121(cfg: &ZooConfig) -> Network {
    let hw = scaled(224, cfg.spatial_scale);
    let growth = 32;
    let mut b = Builder::new("densenet121", Shape4::new(cfg.batch, 3, hw, hw));
    b.conv("conv0", 64, 7, 2, 3);
    b.bn();
    b.relu();
    b.pool(PoolKind::Max, 3, 2, 1);
    let blocks = [6usize, 12, 24, 16];
    for (bi, &layers) in blocks.iter().enumerate() {
        for li in 0..layers {
            // Dense layer: BN-ReLU-1x1(4g)-BN-ReLU-3x3(g), concat to input.
            let input = b.cur;
            let in_shape = b.shape;
            b.bn();
            b.relu();
            b.conv(&format!("d{bi}l{li}_c1"), 4 * growth, 1, 1, 0);
            b.bn();
            b.relu();
            b.conv(&format!("d{bi}l{li}_c2"), growth, 3, 1, 1);
            let new_feat = b.cur;
            b.shape = in_shape;
            b.cur = input;
            b.concat_from(input, new_feat, growth);
        }
        if bi + 1 < blocks.len() {
            // Transition: BN-ReLU-1x1(compress)-AvgPool2.
            b.bn();
            b.relu();
            let out_c = b.shape.c / 2;
            b.conv(&format!("t{bi}_conv"), out_c, 1, 1, 0);
            b.pool(PoolKind::Avg, 2, 2, 0);
        }
    }
    b.bn();
    b.relu();
    b.gap();
    if cfg.include_classifier {
        b.linear("fc", 1000);
    }
    b.finish()
}

/// Builds a zoo network by name.
///
/// # Panics
///
/// Panics on an unknown name.
pub fn by_name(name: &str, cfg: &ZooConfig) -> Network {
    try_by_name(name, cfg).unwrap_or_else(|| panic!("unknown network {name}"))
}

/// [`by_name`], or `None` for a name the zoo does not know.
pub fn try_by_name(name: &str, cfg: &ZooConfig) -> Option<Network> {
    Some(match name {
        "alexnet" => alexnet(cfg),
        "vgg16" => vgg16(cfg),
        "resnet18" => resnet18(cfg),
        "resnet101" => resnet101(cfg),
        "densenet121" => densenet121(cfg),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Op;

    /// Number of weight-bearing conv layers.
    fn conv_layer_count(net: &Network) -> usize {
        net.nodes()
            .iter()
            .filter(|n| matches!(n.op, Op::Conv(_)))
            .count()
    }

    #[test]
    fn alexnet_full_scale_shapes() {
        let net = alexnet(&ZooConfig::default());
        let shapes = net.shapes();
        let convs: Vec<_> = net
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, Op::Conv(_)))
            .map(|(i, _)| shapes[i])
            .collect();
        // Canonical Caffe AlexNet activation shapes.
        assert_eq!(convs[0], Shape4::new(1, 96, 56, 56));
        assert_eq!(convs[1], Shape4::new(1, 256, 27, 27));
        assert_eq!(convs[2], Shape4::new(1, 384, 13, 13));
        assert_eq!(convs[4], Shape4::new(1, 256, 13, 13));
        // fc6 input is 256*6*6 = 9216.
        let fc6 = net.nodes().iter().find(|n| n.name == "fc6").unwrap();
        match fc6.op {
            Op::Linear(s) => assert_eq!(s.in_features, 9216),
            _ => panic!(),
        }
    }

    #[test]
    fn alexnet_param_count_close_to_canonical() {
        let net = alexnet(&ZooConfig::default());
        let total: usize = net
            .nodes()
            .iter()
            .map(|n| match n.op {
                Op::Conv(s) => s.weight_count(),
                Op::Linear(s) => s.weight_count(),
                _ => 0,
            })
            .sum();
        // Canonical AlexNet has ~61M params (2.3M conv + 58.6M FC).
        assert!((58_000_000..63_000_000).contains(&total), "got {total}");
    }

    #[test]
    fn vgg16_has_13_convs_and_3_fcs() {
        let net = vgg16(&ZooConfig::default());
        assert_eq!(conv_layer_count(&net), 13);
        let fcs = net
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, Op::Linear(_)))
            .count();
        assert_eq!(fcs, 3);
        let fc6 = net.nodes().iter().find(|n| n.name == "fc6").unwrap();
        match fc6.op {
            Op::Linear(s) => assert_eq!(s.in_features, 25088),
            _ => panic!(),
        }
    }

    #[test]
    fn resnet18_structure() {
        let net = resnet18(&ZooConfig::default());
        // 1 stem + 2 convs x 8 blocks + 3 projection shortcuts = 20 convs.
        assert_eq!(conv_layer_count(&net), 20);
        let shapes = net.shapes();
        assert_eq!(*shapes.last().unwrap(), Shape4::new(1, 1000, 1, 1));
    }

    #[test]
    fn resnet101_conv_count() {
        let net = resnet101(&ZooConfig {
            spatial_scale: 4,
            ..Default::default()
        });
        // 1 stem + 3 x (3+4+23+3) blocks + 4 projections = 1 + 99 + 4 = 104.
        assert_eq!(conv_layer_count(&net), 104);
    }

    #[test]
    fn densenet121_conv_count_and_output() {
        let net = densenet121(&ZooConfig {
            spatial_scale: 4,
            ..Default::default()
        });
        // conv0 + 2 x (6+12+24+16) dense layers + 3 transitions = 1+116+3 = 120.
        assert_eq!(conv_layer_count(&net), 120);
        let shapes = net.shapes();
        assert_eq!(*shapes.last().unwrap(), Shape4::new(1, 1000, 1, 1));
    }

    #[test]
    fn scaled_networks_stay_valid() {
        for name in ["alexnet", "vgg16", "resnet18"] {
            for scale in [1usize, 2, 4] {
                let net = by_name(
                    name,
                    &ZooConfig {
                        spatial_scale: scale,
                        ..Default::default()
                    },
                );
                let shapes = net.shapes();
                assert!(shapes.iter().all(|s| !s.is_empty()), "{name} scale {scale}");
            }
        }
    }
}
