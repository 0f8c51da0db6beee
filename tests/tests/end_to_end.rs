//! End-to-end integration tests: zoo network -> synthetic parameters ->
//! quantization -> workload extraction -> all three accelerator models,
//! checking the paper's qualitative claims hold across the stack.

use ola_baselines::zena::ZenaTuning;
use ola_baselines::{EyerissSim, ZenaSim};
use ola_core::OlAccelSim;
use ola_energy::{ComparisonMode, TechParams};
use ola_harness::prep::{workloads, SixWay};
use ola_sim::QuantPolicy;

fn alexnet_six() -> SixWay {
    SixWay::run(
        &workloads("alexnet", true, &QuantPolicy::olaccel16("alexnet")),
        &workloads("alexnet", true, &QuantPolicy::olaccel8("alexnet")),
        &TechParams::default(),
    )
}

#[test]
fn cycle_ordering_matches_paper() {
    let six = alexnet_six();
    // Fig 11 ordering: OLAccel16 < ZeNA16 < Eyeriss16.
    assert!(six.olaccel16.total_cycles() < six.zena16.total_cycles());
    assert!(six.zena16.total_cycles() < six.eyeriss16.total_cycles());
    // Footnote 5: 16- and 8-bit baselines take identical cycles.
    assert_eq!(six.eyeriss16.total_cycles(), six.eyeriss8.total_cycles());
    assert_eq!(six.zena16.total_cycles(), six.zena8.total_cycles());
}

#[test]
fn energy_ordering_matches_paper() {
    let six = alexnet_six();
    let e = |r: &ola_sim::NetworkRun| r.total_energy().total();
    // OLAccel beats the matching-precision baselines.
    assert!(e(&six.olaccel16) < e(&six.zena16));
    assert!(e(&six.zena16) < e(&six.eyeriss16));
    assert!(e(&six.olaccel8) < e(&six.zena8));
    // 8-bit halves the baselines' memory energy.
    assert!(e(&six.eyeriss8) < 0.6 * e(&six.eyeriss16));
}

#[test]
fn olaccel_energy_gain_mostly_from_memory() {
    // The abstract's claim: the gain comes from DRAM + on-chip memory.
    let six = alexnet_six();
    let z = six.zena16.total_energy();
    let o = six.olaccel16.total_energy();
    let mem_saving = (z.dram - o.dram) + (z.buffer - o.buffer);
    let total_saving = z.total() - o.total();
    assert!(total_saving > 0.0);
    assert!(
        mem_saving > 0.5 * total_saving,
        "memory saving {mem_saving} should dominate total {total_saving}"
    );
}

#[test]
fn first_layer_dominates_olaccel16_cycles() {
    // §V: the 16-bit raw-input first layer takes a disproportionate share.
    let six = alexnet_six();
    let conv1 = six.olaccel16.layers[0].cycles as f64;
    let total = six.olaccel16.total_cycles() as f64;
    let macs_share = 0.25; // conv1 is ~16% of AlexNet MACs at this scale
    assert!(
        conv1 / total > macs_share,
        "conv1 share {:.2} should exceed its MAC share",
        conv1 / total
    );
}

#[test]
fn utilization_totals_are_consistent() {
    let six = alexnet_six();
    for run in six.all() {
        for layer in &run.layers {
            assert_eq!(
                layer.utilization.total(),
                layer.cycles,
                "{} layer {}",
                run.accelerator,
                layer.name
            );
        }
    }
}

#[test]
fn resnet18_first_layer_is_half_of_olaccel16() {
    // Fig 13: C1 occupies ~half of OLAccel16's total on ResNet-18 (8-bit
    // weights x 16-bit acts = 8 passes).
    let ws16 = workloads("resnet18", true, &QuantPolicy::olaccel16("resnet18"));
    let run = OlAccelSim::new(TechParams::default(), ComparisonMode::Bits16).simulate(&ws16);
    let conv1 = run.layers[0].cycles as f64;
    let share = conv1 / run.total_cycles() as f64;
    assert!(
        (0.25..0.75).contains(&share),
        "ResNet-18 conv1 share {share:.2} should be near one half"
    );
}

#[test]
fn eyeriss_and_zena_agree_on_total_work() {
    // ZeNA's effective MACs never exceed the dense MAC count Eyeriss runs.
    let ws16 = workloads("alexnet", true, &QuantPolicy::olaccel16("alexnet"));
    let tech = TechParams::default();
    let ez = ZenaSim::new(tech, ComparisonMode::Bits16);
    let ee = EyerissSim::new(tech, ComparisonMode::Bits16);
    let mem = ola_energy::config::MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
    let mut zena_total = 0u64;
    let mut eyeriss_total = 0u64;
    for l in &ws16.layers {
        assert!(ZenaTuning::effective_macs(l) <= l.macs as f64);
        zena_total += ez.simulate_layer(l, &mem).cycles;
        eyeriss_total += ee.simulate_layer(l, &mem).cycles;
    }
    // Per-layer ZeNA can lose on dense layers (skip-queue imbalance), but
    // across the pruned network skipping must win overall.
    assert!(zena_total < eyeriss_total);
}
