//! Quantization policy applied when extracting workloads.

use ola_energy::ComparisonMode;
pub use ola_quant::policy::OutlierSelect;

/// How the first convolutional layer is treated (§II / Fig 3 notes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FirstLayerPolicy {
    /// Raw input activations at the comparison bit width (16 or 8), 4-bit
    /// weights — AlexNet / VGG-16.
    RawActs,
    /// Raw input activations *and* 8-bit weights — ResNet-18/101, which the
    /// paper found too sensitive for 4-bit first-layer weights without
    /// fine-tuning.
    RawActsWideWeights,
    /// Pretend fine-tuning recovered a fully 4-bit first layer (the paper's
    /// footnotes 1 and 6) — used by the ablation benches.
    FineTuned4Bit,
}

/// The quantization operating point for a simulation run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuantPolicy {
    /// 16-bit or 8-bit comparison (sets baseline precision, raw input
    /// activation width and outlier activation width).
    pub mode: ComparisonMode,
    /// Dense-region bits (4 throughout the paper).
    pub low_bits: u32,
    /// Outlier ratio applied to weights and non-zero activations.
    pub outlier_ratio: f64,
    /// First-layer treatment.
    pub first_layer: FirstLayerPolicy,
    /// Which outlier-selection rule picks the outliers (the paper's
    /// magnitude percentile unless a policy sweep overrides it).
    pub select: OutlierSelect,
}

impl QuantPolicy {
    /// The paper's standard OLAccel16 operating point for a given network.
    pub fn olaccel16(network: &str) -> Self {
        QuantPolicy {
            mode: ComparisonMode::Bits16,
            low_bits: 4,
            outlier_ratio: default_ratio(network),
            first_layer: first_layer_policy(network),
            select: OutlierSelect::MagnitudePercentile,
        }
    }

    /// The paper's standard OLAccel8 operating point for a given network.
    pub fn olaccel8(network: &str) -> Self {
        QuantPolicy {
            mode: ComparisonMode::Bits8,
            ..Self::olaccel16(network)
        }
    }

    /// Bits of a dense weight in layer `index` (0 = first layer).
    pub fn weight_bits(&self, layer_index: usize) -> u32 {
        if layer_index == 0 && self.first_layer == FirstLayerPolicy::RawActsWideWeights {
            8
        } else {
            self.low_bits
        }
    }

    /// Bits of a dense activation entering layer `index`.
    pub fn act_bits(&self, layer_index: usize) -> u32 {
        if layer_index == 0 && self.first_layer != FirstLayerPolicy::FineTuned4Bit {
            self.mode.bits()
        } else {
            self.low_bits
        }
    }

    /// Bits of an outlier activation (16 or 8 per comparison mode).
    pub fn outlier_act_bits(&self) -> u32 {
        self.mode.bits()
    }
}

/// Outlier ratios the paper quotes per network (Fig 3 captions).
pub fn default_ratio(network: &str) -> f64 {
    match network {
        "alexnet" => 0.035,
        "vgg16" => 0.01,
        _ => 0.03,
    }
}

fn first_layer_policy(network: &str) -> FirstLayerPolicy {
    match network {
        "resnet18" | "resnet101" => FirstLayerPolicy::RawActsWideWeights,
        _ => FirstLayerPolicy::RawActs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alexnet_policy() {
        let p = QuantPolicy::olaccel16("alexnet");
        assert_eq!(p.outlier_ratio, 0.035);
        assert_eq!(p.act_bits(0), 16);
        assert_eq!(p.weight_bits(0), 4);
        assert_eq!(p.act_bits(1), 4);
        assert_eq!(p.weight_bits(1), 4);
    }

    #[test]
    fn resnet_first_layer_gets_8bit_weights() {
        let p = QuantPolicy::olaccel8("resnet18");
        assert_eq!(p.weight_bits(0), 8);
        assert_eq!(p.act_bits(0), 8);
        assert_eq!(p.outlier_act_bits(), 8);
    }

    #[test]
    fn fine_tuned_first_layer_is_4bit() {
        let mut p = QuantPolicy::olaccel16("resnet18");
        p.first_layer = FirstLayerPolicy::FineTuned4Bit;
        assert_eq!(p.act_bits(0), 4);
        assert_eq!(p.weight_bits(0), 4);
    }
}
