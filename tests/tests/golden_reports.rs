//! Golden-report regression tests: fast-mode figure reports compared
//! byte-for-byte against checked-in snapshots under `tests/golden/`.
//!
//! These lock down the full pipeline — synthesis seeding, workload
//! extraction, the accelerator models, and report formatting. Any
//! intentional change to one of those layers shows up as a readable diff;
//! regenerate the snapshots with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p ola-integration --test golden_reports
//! ```
//!
//! and review the diff like any other code change. Snapshots are fast-mode
//! (`fast = true`) so the test stays CI-sized.

use std::fs;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{name}.txt"))
}

fn check(name: &str) {
    let actual = ola_harness::run_experiment(name, true);
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, &actual).expect("write golden snapshot");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {}: {e}\n\
             regenerate with: UPDATE_GOLDEN=1 cargo test -p ola-integration --test golden_reports",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "{name} report drifted from {}\n\
         if the change is intentional, regenerate with:\n\
         UPDATE_GOLDEN=1 cargo test -p ola-integration --test golden_reports",
        path.display()
    );
}

#[test]
fn fig1_matches_golden() {
    // Locks conv2's weights, synthesized alone (no prepared network),
    // and both quantizers' histograms and SQNRs.
    check("fig1");
}

#[test]
fn fig2_matches_golden() {
    // Locks the whole SynthNet path: counter-based dataset synthesis,
    // order-fixed parallel SGD, and the quantization sweep. Training is
    // byte-identical at any worker count, so this snapshot holds at any
    // `--jobs` value.
    check("fig2");
}

#[test]
fn fig3_matches_golden() {
    check("fig3");
}

#[test]
fn fig14_matches_golden() {
    check("fig14");
}

#[test]
fn fig16_matches_golden() {
    // The calibration-heaviest figure: locks the sort-free threshold
    // selection and fused extraction to the pre-fusion report bytes.
    check("fig16");
}

#[test]
fn fig18_matches_golden() {
    check("fig18");
}

#[test]
fn table1_matches_golden() {
    check("table1");
}

#[test]
fn policy_panel_matches_golden() {
    // Locks the full policy panel: trait-based calibration for all three
    // selection rules, the policy-threaded workload extraction, and the
    // cycle/energy models consuming the measured counts. CI additionally
    // byte-compares the binary's output at two `--jobs` values against
    // this same snapshot.
    check("policy-panel");
}
