//! The built `olaccel-repro` binary on unusable output paths: an `--out`
//! or `--cache-dir` that is an existing file is a usage error (exit 2, one
//! `error:` line plus the synopsis), and a report that cannot be written is
//! an `error:` line and exit 1 — never a panic with a backtrace.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory per call (parallel tests never collide).
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ola-cli-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_olaccel-repro"))
        .args(args)
        .output()
        .expect("spawn olaccel-repro")
}

/// Asserts `out` exited with `code` after one leading `error:` line
/// containing `what`, and without a panic.
fn assert_error(out: &Output, code: i32, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "stderr: {stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.lines().next().unwrap().contains(what),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn out_and_cache_dir_at_a_file_are_usage_errors() {
    let dir = scratch("file");
    let file = dir.join("not-a-dir");
    std::fs::write(&file, b"").unwrap();
    let file = file.to_str().unwrap();
    for flag in ["--out", "--cache-dir"] {
        let out = run(&["table1", "--fast", flag, file]);
        assert_error(&out, 2, flag);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: "), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag}: no report may run");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unwritable_report_is_an_error_not_a_panic() {
    let dir = scratch("unwritable");
    // A directory where the report file should go makes the write fail.
    std::fs::create_dir_all(dir.join("table1.txt")).unwrap();
    let out = run(&["table1", "--fast", "--out", dir.to_str().unwrap()]);
    assert_error(&out, 1, "table1.txt");
    std::fs::remove_dir_all(&dir).ok();
}
