//! The repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <warm-suite|policy-sweep> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run builds `olaccel-repro`, runs one
//! workload in fresh child processes, checks every output, prints a
//! human-readable summary on stderr and, as the last line of stdout, one
//! JSON object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of a traced run (`--trace 1`). See `perfbench/README.md`.

mod layers;
mod proc;
mod stats;
mod suite;
mod sweep;
mod trace;

use stats::{json_num, json_str};
use std::path::PathBuf;
use std::process::{exit, Command};

/// Paths and mode shared by a run's workload code.
pub struct Ctx {
    /// The `olaccel-repro` binary under test.
    pub cli: PathBuf,
    /// This benchmark's own binary (re-spawned for in-process children).
    pub exe: PathBuf,
    /// Scratch directory of this run, removed at the end.
    pub work: PathBuf,
    /// Where traced runs write their span JSON.
    pub traces: PathBuf,
    /// Whether this is a traced run.
    pub trace: bool,
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed (panics, non-zero exits, failed output checks).
    pub failed: u64,
    /// `(name, unit, value)` in output order.
    pub metrics: Vec<(String, &'static str, f64)>,
}

impl Outcome {
    /// Adds a report check's ops; a process that exited non-zero while
    /// every report it wrote checked out still fails one op.
    pub fn add_ops(&mut self, (attempted, failed): (u64, u64), exit: &proc::Exit, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if !exit.success() && failed == 0 {
            eprintln!("perfbench: {what} exited with {:?}", exit.code);
            self.failed += 1;
        }
    }

    /// Adds one pass/fail check as an op.
    pub fn add_check(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}: {}", problems.join("; "));
        }
    }

    /// Records an end-to-end metric.
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push((name.to_string(), unit, value));
    }

    /// Records every per-layer metric derived from `raw`.
    pub fn layers(&mut self, raw: &layers::Raw) {
        self.metrics.extend(layers::per_layer_metrics(raw));
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, u, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(n),
                    json_num(*v),
                    json_str(u)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Sets every worker budget of the program to `jobs` threads, as
/// `olaccel-repro --jobs <jobs>` does for a single experiment.
pub fn set_workers(jobs: usize) {
    ola_nn::kernels::set_forward_jobs(jobs);
    ola_sim::workload::set_extract_jobs(jobs);
    ola_sim::simcache::set_model_jobs(jobs);
    ola_quant::evalcache::set_eval_jobs(jobs);
    ola_tensor::par::set_fill_jobs(jobs);
}

const USAGE: &str =
    "usage: perfbench --workload <warm-suite|policy-sweep> --seed N --seconds S --trace <0|1>";

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    exit(2)
}

/// `--key value` pairs of a command line, in order.
fn flags(args: &[String]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let Some(key) = k.strip_prefix("--") else {
            fail(&format!("unexpected argument {k}\n{USAGE}"))
        };
        let Some(v) = it.next() else {
            fail(&format!("--{key} needs a value\n{USAGE}"))
        };
        out.push((key.to_string(), v.clone()));
    }
    out
}

fn flag<'a>(flags: &'a [(String, String)], key: &str) -> &'a str {
    flags
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .unwrap_or_else(|| fail(&format!("missing --{key}\n{USAGE}")))
}

fn number<T: std::str::FromStr>(flags: &[(String, String)], key: &str) -> T {
    let v = flag(flags, key);
    v.parse()
        .unwrap_or_else(|_| fail(&format!("--{key}: not a number: {v}")))
}

/// Builds `olaccel-repro` from the checkout into the benchmark's target
/// directory and returns its path.
fn build_cli(target: &str) -> PathBuf {
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "ola-harness",
            "--bin",
            "olaccel-repro",
        ])
        .env("CARGO_TARGET_DIR", target)
        .status()
        .unwrap_or_else(|e| fail(&format!("cannot run cargo: {e}")));
    if !status.success() {
        fail("building olaccel-repro failed");
    }
    PathBuf::from(target).join("release").join("olaccel-repro")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("trace-suite") => {
            let f = flags(&args[1..]);
            let child = suite::TraceArgs {
                run: flag(&f, "run").to_string(),
                names: flag(&f, "names").split(',').map(str::to_string).collect(),
                cache_dir: flag(&f, "cache-dir").into(),
                out: flag(&f, "out").into(),
                trace_file: flag(&f, "trace-file").into(),
            };
            if let Err(e) = suite::trace_child(&child) {
                fail(&e);
            }
        }
        Some("sweep-child") => {
            let f = flags(&args[1..]);
            let seed: u64 = number(&f, "seed");
            let blocks: usize = number(&f, "blocks");
            let trace_file = flag(&f, "trace-file");
            let mut tracer = trace::Tracer::new(flag(&f, "trace") == "1", "sweep");
            let (r, raw) = sweep::run_child(seed, blocks, &mut tracer);
            if tracer.enabled() {
                if let Err(e) = std::fs::write(trace_file, tracer.to_json()) {
                    fail(&format!("write {trace_file}: {e}"));
                }
            }
            print!("{}", raw.emit());
            println!(
                "stat setup_s {}\nstat wall_s {}\nstat attempted {}\nstat failed {}",
                r.setup_s, r.wall_s, r.attempted, r.failed
            );
        }
        _ => run_benchmark(&args),
    }
}

fn run_benchmark(args: &[String]) {
    let f = flags(args);
    let workload = flag(&f, "workload").to_string();
    let seed: u64 = number(&f, "seed");
    let seconds: u64 = number(&f, "seconds");
    let trace = match flag(&f, "trace") {
        "0" => false,
        "1" => true,
        v => fail(&format!("--trace must be 0 or 1, not {v}")),
    };
    if seconds == 0 {
        fail("--seconds must be at least 1");
    }
    if !matches!(workload.as_str(), "warm-suite" | "policy-sweep") {
        fail(&format!("unknown workload {workload}\n{USAGE}"));
    }
    for needed in ["Cargo.toml", "crates", "tests/golden"] {
        if !std::path::Path::new(needed).exists() {
            fail(&format!("{needed} not found: run from the repository root"));
        }
    }

    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let cli = build_cli(&target);
    let base = PathBuf::from(&target).join("perfbench");
    let ctx = Ctx {
        cli,
        exe: std::env::current_exe().unwrap_or_else(|e| fail(&format!("current_exe: {e}"))),
        work: base.join(format!("work-{}", std::process::id())),
        traces: base.join("traces").join(format!("{workload}-seed{seed}")),
        trace,
    };
    for d in [&ctx.work, &ctx.traces] {
        if let Err(e) = std::fs::create_dir_all(d) {
            fail(&format!("create {}: {e}", d.display()));
        }
    }
    let result = match workload.as_str() {
        "warm-suite" => suite::run(&ctx, seed),
        _ => sweep::run(&ctx, seed, seconds),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let outcome = result.unwrap_or_else(|e| fail(&e));
    eprintln!(
        "perfbench: {workload} seed {seed}: {} ops, {} failed (fail_ratio {} ratio)",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for (name, unit, value) in &outcome.metrics {
        eprintln!("perfbench:   {name:<36} {value:>14.6} {unit}");
    }
    println!("{}", outcome.to_json());
}
