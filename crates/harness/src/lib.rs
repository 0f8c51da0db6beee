#![warn(missing_docs)]

//! Experiment harness: one runner per table/figure of the paper.
//!
//! Each `figNN` module regenerates the corresponding figure's data —
//! workload generation, parameter sweep, baselines, and a printed report in
//! the same rows/series the paper plots. The `olaccel-repro` binary
//! dispatches to them; the `ola-bench` crate wraps them in Criterion.
//!
//! Absolute numbers come from our parametric models (DESIGN.md §2); the
//! comparisons the paper makes — who wins, by roughly what factor, where
//! the crossovers are — are the reproduction targets, recorded side by side
//! with the paper's values in EXPERIMENTS.md.
//!
//! Experiments are independent and internally seeded, so the suite runs in
//! parallel through [`engine::run_suite`], with expensive workload
//! preparation shared (and computed exactly once per key) via
//! [`prep::PrepCache`]. Reports are byte-identical at any worker count.

pub mod cli;
pub mod engine;
pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig11_13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod policy_panel;
pub mod prep;
pub mod report;
pub mod sensitivity;
#[cfg(unix)]
pub mod server;
pub mod summary;
pub mod table1;
pub mod validate;

/// The suite `all` runs: the paper's figures and table in paper order,
/// plus the `validate` cross-check, `summary`/`sensitivity` context and
/// the policy panel. [`run_experiment`] also accepts `compare-<network>`,
/// `validate-<network>`, `extra-resnet101` and `extra-densenet121`, which
/// are not listed here.
pub const EXPERIMENTS: &[&str] = &[
    "fig1",
    "fig2",
    "fig3",
    "table1",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "validate",
    "summary",
    "sensitivity",
    "policy-panel",
];

/// Runs one experiment by name, returning its formatted report.
///
/// `fast` trades fidelity for speed (smaller spatial scale, fewer training
/// epochs) — used by tests and Criterion wrappers.
///
/// # Panics
///
/// Panics on an unknown experiment name.
pub fn run_experiment(name: &str, fast: bool) -> String {
    match name {
        "fig1" => fig01::run(fast),
        "fig2" => fig02::run(fast),
        "fig3" => fig03::run(fast),
        "table1" => table1::run(),
        "fig11" => fig11_13::run("alexnet", fast),
        "fig12" => fig11_13::run("vgg16", fast),
        "fig13" => fig11_13::run("resnet18", fast),
        "fig14" => fig14::run(fast),
        "fig15" => fig15::run(fast),
        "fig16" => fig16::run(fast),
        "fig17" => fig17::run(),
        "fig18" => fig18::run(fast),
        "fig19" => fig19::run(fast),
        "validate" => validate::run(fast),
        "summary" => summary::run(),
        "sensitivity" => sensitivity::run(fast),
        "policy-panel" => policy_panel::run(fast),
        // Extension (DESIGN.md §8): the networks the paper only quantizes,
        // run through the full cycle/energy comparison.
        "extra-resnet101" => fig11_13::run("resnet101", true),
        "extra-densenet121" => fig11_13::run("densenet121", true),
        // `compare-<network>`: the six-way comparison on any zoo network.
        name if name.starts_with("compare-") => {
            fig11_13::run(name.trim_start_matches("compare-"), fast)
        }
        // `validate-<network>`: event-vs-analytic cross-check of every
        // layer of any zoo network (the default `validate` covers AlexNet).
        name if name.starts_with("validate-") => {
            validate::run_network(name.trim_start_matches("validate-"), fast)
        }
        // Hidden fault-injection hook for the engine/server tests: always
        // panics, deliberately kept out of `EXPERIMENTS` so it can't be
        // scheduled by suite-wide runs.
        "__panic" => panic!("__panic experiment failed deliberately"),
        other => panic!("unknown experiment {other}; known: {EXPERIMENTS:?}"),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_experiment_panics() {
        let _ = super::run_experiment("fig99", true);
    }

    #[test]
    fn experiment_list_is_complete() {
        assert!(super::EXPERIMENTS.contains(&"fig11"));
        assert!(super::EXPERIMENTS.contains(&"validate"));
        assert_eq!(super::EXPERIMENTS.len(), 17);
    }
}
