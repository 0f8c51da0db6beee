//! The built `olaccel-repro` binary on unusable output paths: an `--out`
//! or `--cache-dir` that cannot be used is a usage error (exit 2, one
//! `error:` line naming the path plus the synopsis) in one-shot and daemon
//! mode alike, a socket that cannot be bound is an `error:` line naming it
//! and exit 1, and so is a report that cannot be written — never a panic
//! with a backtrace.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

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

/// Like [`run`], but kills the process if it still runs after 60 s: a
/// daemon that wrongly starts serving fails the test instead of hanging it.
fn run_bounded(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_olaccel-repro"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn olaccel-repro");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().unwrap()
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

#[test]
fn serve_names_the_path_it_cannot_use() {
    let dir = scratch("serve");
    let file = dir.join("not-a-dir");
    std::fs::write(&file, b"").unwrap();
    let socket = dir.join("s.sock");
    let socket = socket.to_str().unwrap();
    // A directory that cannot be created under a file, and a file.
    let nested = file.join("reports");
    for (flag, path) in [
        ("--out", nested.to_str().unwrap()),
        ("--cache-dir", file.to_str().unwrap()),
    ] {
        let out = run_bounded(&["serve", "--socket", socket, flag, path]);
        assert_error(&out, 2, &format!("{flag} {path}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: "), "{flag}: {stderr}");
        assert!(!Path::new(socket).exists(), "{flag}: the daemon started");
    }
    let missing = dir.join("missing").join("s.sock");
    let missing = missing.to_str().unwrap();
    let out = run_bounded(&["serve", "--socket", missing]);
    assert_error(&out, 1, &format!("--socket {missing}"));
    std::fs::remove_dir_all(&dir).ok();
}
