//! Full six-way accelerator comparison on AlexNet (a fast-mode Fig 11):
//! Eyeriss/ZeNA/OLAccel at 16 and 8 bits, with per-layer cycles and the
//! energy breakdown.
//!
//! Run with: `cargo run --release -p ola-examples --bin accelerator_comparison`
//! Pass `--full` for the full-resolution workload (slower).

use ola_energy::TechParams;
use ola_harness::fig11_13;
use ola_harness::prep::{default_scale, workloads, SixWay};
use ola_sim::QuantPolicy;

fn main() {
    let fast = !std::env::args().any(|a| a == "--full");
    let scale = default_scale("alexnet", fast);
    println!("preparing AlexNet workloads at 1/{scale} resolution...");
    let six = SixWay::run(
        &workloads("alexnet", fast, &QuantPolicy::olaccel16("alexnet")),
        &workloads("alexnet", fast, &QuantPolicy::olaccel8("alexnet")),
        &TechParams::default(),
    );
    println!("{}", fig11_13::render("alexnet", &six));
}
