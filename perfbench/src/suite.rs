//! The `warm-suite` workload: the whole `olaccel-repro` suite, run twice
//! against one artifact store.
//!
//! Set-up primes an empty store with a cold run of the build under test
//! (artifacts are keyed by a code-version hash, so a store written by
//! another commit would silently miss). The timed region is a second,
//! fresh `olaccel-repro` process reading that store — the repeat-run path
//! the memo tiers exist for. Reports are order-independent by the
//! determinism contract, so every report is checked against its golden
//! file, its reference hash and its twin from the other run.

use crate::layers::Raw;
use crate::proc::{self, Exit};
use crate::stats::{fnv1a, SplitMix};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};
use std::collections::BTreeMap;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Reports locked byte-for-byte by `tests/golden/<name>.txt`.
pub const GOLDEN: [&str; 7] = [
    "fig2",
    "fig3",
    "fig14",
    "fig16",
    "fig18",
    "table1",
    "policy-panel",
];

/// Reference length and FNV-1a hash of every report, one `name len hash`
/// line each, recorded from the seed-state build.
pub const REFERENCE: &str = "perfbench/reference/reports.txt";

/// Worker count of the priming run. Priming is set-up, not the timed
/// region; two workers halve its cost, which keeps the whole benchmark
/// inside its time budget.
pub const PRIME_JOBS: usize = 2;

/// The 17 experiment names in the order seed `seed` requests them.
pub fn permutation(seed: u64) -> Vec<&'static str> {
    let mut names = ola_harness::EXPERIMENTS.to_vec();
    SplitMix::new(seed, 1).shuffle(&mut names);
    names
}

/// What a correct report must equal.
#[derive(Default)]
pub struct Expected {
    /// Golden report text by experiment name.
    pub golden: BTreeMap<String, String>,
    /// Reference `(length, fnv1a)` by experiment name.
    pub reference: BTreeMap<String, (usize, u64)>,
}

impl Expected {
    /// Reads the golden files and the reference hashes from the checkout.
    pub fn load() -> Result<Expected, String> {
        let mut golden = BTreeMap::new();
        for name in GOLDEN {
            let path = format!("tests/golden/{name}.txt");
            let text = fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
            golden.insert(name.to_string(), text);
        }
        let text = fs::read_to_string(REFERENCE).map_err(|e| format!("read {REFERENCE}: {e}"))?;
        let mut reference = BTreeMap::new();
        for line in text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        {
            let f: Vec<&str> = line.split_whitespace().collect();
            let parsed = match f.as_slice() {
                [name, len, hash] => len
                    .parse()
                    .ok()
                    .zip(u64::from_str_radix(hash, 16).ok())
                    .map(|v| (name.to_string(), v)),
                _ => None,
            };
            let (name, v) = parsed.ok_or_else(|| format!("{REFERENCE}: bad line {line:?}"))?;
            reference.insert(name, v);
        }
        Ok(Expected { golden, reference })
    }
}

/// Checks one report. Returns every problem found; an empty list means
/// the report is correct.
pub fn report_problems(
    name: &str,
    report: Option<&str>,
    expected: &Expected,
    cold: Option<&str>,
) -> Vec<String> {
    let Some(report) = report else {
        return vec![format!("{name}: no report (experiment failed)")];
    };
    let mut problems = Vec::new();
    if let Some(golden) = expected.golden.get(name) {
        if golden != report {
            problems.push(format!("{name}: differs from tests/golden/{name}.txt"));
        }
    }
    let got = (report.len(), fnv1a(report.as_bytes()));
    match expected.reference.get(name) {
        Some(&want) if want == got => {}
        Some(_) | None => problems.push(format!(
            "{name}: reference mismatch, got `{name} {} {:016x}`",
            got.0, got.1
        )),
    }
    if let Some(cold) = cold {
        if cold != report {
            problems.push(format!("{name}: warm report differs from the cold one"));
        }
    }
    problems
}

/// Reports of one run by name (`None` when the experiment produced none).
pub type Reports = BTreeMap<String, Option<String>>;

/// Checks every report of a run; each report is one op. Returns
/// `(attempted, failed)` and logs problems to stderr.
pub fn check_reports(
    names: &[&str],
    reports: &Reports,
    expected: &Expected,
    cold: Option<&Reports>,
    label: &str,
) -> (u64, u64) {
    let mut failed = 0;
    for name in names {
        let report = reports.get(*name).and_then(|r| r.as_deref());
        let twin = cold.map(|c| c.get(*name).and_then(|r| r.as_deref()).unwrap_or(""));
        let problems = report_problems(name, report, expected, twin);
        for p in &problems {
            eprintln!("perfbench: {label}: {p}");
        }
        failed += u64::from(!problems.is_empty());
    }
    (names.len() as u64, failed)
}

/// Reads the `--out` reports of a run and, when `stdout` is given, checks
/// that it streamed exactly those reports in request order (each followed
/// by a newline). The first report the stream gets wrong counts as missing;
/// the stream is not checked past it.
fn read_reports(names: &[&str], dir: &Path, stdout: Option<&str>) -> Reports {
    let mut reports = Reports::new();
    let mut rest = stdout;
    for name in names {
        let mut report = fs::read_to_string(dir.join(format!("{name}.txt"))).ok();
        if let (Some(r), Some(s)) = (&report, rest) {
            match s
                .strip_prefix(r.as_str())
                .and_then(|s| s.strip_prefix('\n'))
            {
                Some(tail) => rest = Some(tail),
                None => {
                    eprintln!(
                        "perfbench: {name}: stdout does not carry the report in request order"
                    );
                    report = None;
                    rest = None;
                }
            }
        }
        reports.insert(name.to_string(), report);
    }
    reports
}

/// Parses a warm run's stderr summary and lists what it recomputed: a
/// warm run must build, extract, simulate and evaluate nothing.
fn warm_recomputed(stderr: &str) -> Vec<String> {
    let wanted = [
        ("prepared networks:", "built"),
        ("workload sets:", "extracted"),
        ("layer sims:", "simulated"),
        ("event sims:", "simulated"),
        ("evals:", "evaluated"),
    ];
    wanted
        .iter()
        .filter_map(|(prefix, what)| {
            let count = stderr
                .lines()
                .find_map(|l| l.strip_prefix(prefix))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|n| n.parse::<u64>().ok());
            match count {
                Some(0) => None,
                Some(n) => Some(format!("{prefix} {n} {what}")),
                None => Some(format!("summary line `{prefix}` missing")),
            }
        })
        .collect()
}

/// Total size and file count of a directory tree.
fn dir_usage(dir: &Path) -> (u64, u64) {
    let mut bytes = 0;
    let mut files = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).into_iter().flatten().flatten() {
            match entry.metadata() {
                Ok(m) if m.is_dir() => stack.push(entry.path()),
                Ok(m) => {
                    bytes += m.len();
                    files += 1;
                }
                Err(_) => {}
            }
        }
    }
    (bytes, files)
}

/// One of the workload's two `olaccel-repro` runs, finished.
struct Half {
    names: Vec<&'static str>,
    exit: Exit,
    stdout: String,
    stderr: String,
    reports: Reports,
}

/// Runs one half against `store`: untraced, the real `olaccel-repro`
/// binary (the priming half at [`PRIME_JOBS`] workers, the timed half at
/// one); traced, a fresh child of this binary running the same experiments
/// serially in-process.
fn half(ctx: &Ctx, run: &str, names: Vec<&'static str>, store: &Path) -> Result<Half, String> {
    let dir = ctx.work.join(run);
    fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut cmd = if ctx.trace {
        let trace_file = ctx.traces.join(format!("{run}.json"));
        eprintln!("perfbench: writing trace {}", trace_file.display());
        let mut cmd = Command::new(&ctx.exe);
        cmd.args(["trace-suite", "--run", run, "--names", &names.join(",")])
            .arg("--cache-dir")
            .arg(store)
            .arg("--out")
            .arg(&dir)
            .arg("--trace-file")
            .arg(trace_file);
        cmd
    } else {
        let jobs = if run == "cold" { PRIME_JOBS } else { 1 };
        let mut cmd = Command::new(&ctx.cli);
        cmd.args(&names)
            .args(["--fast", "--jobs", &jobs.to_string(), "--cache-dir"])
            .arg(store)
            .arg("--out")
            .arg(&dir);
        cmd
    };
    let (out, err) = (
        ctx.work.join(format!("{run}.out")),
        ctx.work.join(format!("{run}.err")),
    );
    let exit = proc::run(&mut cmd, &out, &err).map_err(|e| format!("spawn {run} run: {e}"))?;
    let stdout = fs::read_to_string(&out).unwrap_or_default();
    let stderr = fs::read_to_string(&err).unwrap_or_default();
    if !exit.success() {
        let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
        eprintln!(
            "perfbench: {run} run exited with {:?}; stderr ends: {tail:?}",
            exit.code
        );
    }
    // The CLI streams every report to stdout too; the traced child does not.
    let reports = read_reports(&names, &dir, (!ctx.trace).then_some(stdout.as_str()));
    Ok(Half {
        names,
        exit,
        stdout,
        stderr,
        reports,
    })
}

/// Runs the workload. Set-up primes an empty store in the seed's order;
/// the timed run requests the paper's order, so its time and memory do not
/// depend on the seed (memory peaks where the largest transient meets the
/// most cached networks, which the order decides), and every warm report
/// must equal its cold twin produced in another order.
pub fn run(ctx: &Ctx, seed: u64) -> Result<Outcome, String> {
    let expected = Expected::load()?;
    let store = ctx.work.join("store");
    fs::create_dir_all(&store).map_err(|e| format!("create {}: {e}", store.display()))?;
    let setup = Instant::now();
    let cold = half(ctx, "cold", permutation(seed), &store)?;
    let setup_s = setup.elapsed().as_secs_f64();
    let warm = half(ctx, "warm", ola_harness::EXPERIMENTS.to_vec(), &store)?;

    let mut outcome = Outcome::default();
    let checks = check_reports(&cold.names, &cold.reports, &expected, None, "cold");
    outcome.add_ops(checks, &cold.exit, "cold run");
    let checks = check_reports(
        &warm.names,
        &warm.reports,
        &expected,
        Some(&cold.reports),
        "warm",
    );
    outcome.add_ops(checks, &warm.exit, "warm run");

    if !ctx.trace {
        outcome.add_check(
            "warm run recomputed nothing",
            &warm_recomputed(&warm.stderr),
        );
        outcome.metric("wall_s", "s", warm.exit.wall.as_secs_f64());
        outcome.metric("setup_s", "s", setup_s);
        outcome.metric("peak_rss_mb", "MB", warm.exit.peak_rss_mb);
        return Ok(outcome);
    }

    let mut raw = Raw::parse(&cold.stdout);
    for exp in ola_harness::EXPERIMENTS {
        raw.rename(
            &format!("engine.{exp}.wall_s"),
            &format!("engine.{exp}.cold_s"),
        );
    }
    let (bytes, files) = dir_usage(&store);
    raw.add("store.bytes", bytes as f64);
    raw.add("store.files", files as f64);
    let warm_raw = Raw::parse(&warm.stdout);
    let recomputed: Vec<String> = [
        "harness.prep.prepared_built",
        "harness.prep.workloads_extracted",
        "sim.simcache.layer_sims",
        "sim.simcache.event_sims",
        "quant.evalcache.evaluated",
    ]
    .iter()
    .filter(|k| warm_raw.get(k) != 0.0)
    .map(|k| format!("{k} = {}", warm_raw.get(k)))
    .collect();
    outcome.add_check("warm run recomputed nothing", &recomputed);
    raw.merge(&warm_raw);
    for h in [&cold, &warm] {
        raw.add("process.cpu_s", h.exit.cpu.as_secs_f64());
        let problems: Vec<String> = h
            .stdout
            .lines()
            .filter_map(|l| l.strip_prefix("problem "))
            .map(str::to_string)
            .collect();
        outcome.add_check(
            "experiment spans sum to the traced run's wall time",
            &problems,
        );
    }
    outcome.layers(&raw);
    Ok(outcome)
}

/// Arguments of the traced in-process suite child.
pub struct TraceArgs {
    /// Span run id (`cold` or `warm`).
    pub run: String,
    /// Experiments in request order.
    pub names: Vec<String>,
    /// Artifact store to attach.
    pub cache_dir: PathBuf,
    /// Directory the reports go to, one `<name>.txt` each.
    pub out: PathBuf,
    /// Where the span JSON goes.
    pub trace_file: PathBuf,
}

/// The traced child: runs each experiment serially through
/// `ola_harness::run_experiment` (one span each) with every worker budget
/// at 1, as `olaccel-repro --jobs 1` would, and prints its raw layer
/// quantities.
pub fn trace_child(args: &TraceArgs) -> Result<(), String> {
    crate::set_workers(1);
    ola_harness::prep::attach_disk_store(&args.cache_dir)
        .map_err(|e| format!("attach store {}: {e}", args.cache_dir.display()))?;
    let mut tracer = Tracer::new(true, &args.run);
    let mut reports = Vec::new();
    let start = Instant::now();
    for name in &args.names {
        let label = format!("run_experiment({name})");
        let report = tracer.span(&label, None, |_| {
            catch_unwind(AssertUnwindSafe(|| ola_harness::run_experiment(name, true)))
        });
        reports.push((name, report));
    }
    let wall = start.elapsed();

    // The program's phase counters inside each experiment span attribute
    // its time to the layers below the harness.
    let mut raw = Raw::default();
    let mut span_sum = 0.0;
    for (name, span) in args.names.iter().zip(tracer.spans()) {
        let d = span.duration();
        span_sum += d.as_secs_f64();
        raw.add(&format!("engine.{name}.wall_s"), d.as_secs_f64());
        let p = &span.delta.phases;
        raw.add(
            "harness.unattributed_s",
            d.saturating_sub(p.instrumented()).as_secs_f64(),
        );
        raw.add("nn.synth.busy_s", p.synthesize.as_secs_f64());
        raw.add("nn.kernels.busy_s", p.forward.as_secs_f64());
        raw.add("nn.synthnet.train_s", p.train.as_secs_f64());
        raw.add("sim.workload.busy_s", p.extract.as_secs_f64());
        raw.add("quant.accuracy.busy_s", p.eval.as_secs_f64());
        raw.add("core.model.busy_s", p.model.as_secs_f64());
        raw.add("store.load_s", p.load.as_secs_f64());
        raw.add_cache_counters(&span.delta);
        let s = &span.delta.sim;
        raw.add("core.model.layer_runs", (s.run_misses + s.run_hits) as f64);
        raw.add("core.event.layers", (s.event_misses + s.event_hits) as f64);
    }
    raw.add("trace.overhead_s", tracer.overhead().as_secs_f64());
    raw.add("trace.wall_s", wall.as_secs_f64());
    print!("{}", raw.emit());
    let wall_s = wall.as_secs_f64();
    if (wall_s - span_sum).abs() > 0.01 * wall_s {
        println!("problem experiment spans sum to {span_sum:.3}s of a {wall_s:.3}s run");
    }

    fs::write(&args.trace_file, tracer.to_json())
        .map_err(|e| format!("write {}: {e}", args.trace_file.display()))?;
    fs::create_dir_all(&args.out).map_err(|e| format!("create {}: {e}", args.out.display()))?;
    for (name, report) in reports {
        if let Ok(text) = report {
            fs::write(args.out.join(format!("{name}.txt")), text)
                .map_err(|e| format!("write report {name}: {e}"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_seeded() {
        let a = permutation(7);
        assert_eq!(a, permutation(7));
        assert_ne!(a, permutation(8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        let mut all = ola_harness::EXPERIMENTS.to_vec();
        all.sort_unstable();
        assert_eq!(sorted, all, "a permutation of all 17 experiments");
    }

    fn expected_for(reports: &[(&str, &str)]) -> Expected {
        Expected {
            golden: reports
                .iter()
                .filter(|(n, _)| GOLDEN.contains(n))
                .map(|(n, r)| (n.to_string(), r.to_string()))
                .collect(),
            reference: reports
                .iter()
                .map(|(n, r)| (n.to_string(), (r.len(), fnv1a(r.as_bytes()))))
                .collect(),
        }
    }

    #[test]
    fn one_byte_off_golden_is_exactly_one_failed_op() {
        let good = [
            ("fig2", "acc 91.25%\n"),
            ("table1", "PEs 576\n"),
            ("fig1", "hist\n"),
        ];
        let expected = expected_for(&good);
        let names: Vec<&str> = good.iter().map(|(n, _)| *n).collect();
        let mut reports: Reports = good
            .iter()
            .map(|(n, r)| (n.to_string(), Some(r.to_string())))
            .collect();
        assert_eq!(
            check_reports(&names, &reports, &expected, None, "t"),
            (3, 0)
        );

        // One byte off the golden: exactly one failed op, even though the
        // report also misses its reference hash and its cold twin.
        let cold = reports.clone();
        reports.insert("fig2".into(), Some("acc 91.26%\n".into()));
        assert_eq!(
            check_reports(&names, &reports, &expected, Some(&cold), "t"),
            (3, 1)
        );
        assert!(!report_problems("fig2", Some("acc 91.26%\n"), &expected, None).is_empty());

        // A missing report (a panicked experiment) is one failed op too.
        reports.insert("fig2".into(), None);
        assert_eq!(
            check_reports(&names, &reports, &expected, None, "t"),
            (3, 1)
        );
    }

    #[test]
    fn stdout_must_stream_reports_in_order() {
        let dir = std::env::temp_dir().join(format!("perfbench-suite-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("a.txt"), "A\n").unwrap();
        fs::write(dir.join("b.txt"), "B\n").unwrap();
        let ok = read_reports(&["a", "b"], &dir, Some("A\n\nB\n\n"));
        assert!(ok.values().all(Option::is_some));
        let swapped = read_reports(&["a", "b"], &dir, Some("B\n\nA\n\n"));
        assert_eq!(swapped.values().filter(|r| r.is_none()).count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_summary_must_show_no_recomputation() {
        let clean = "prepared networks: 0 built, 9 cache hits\nworkload sets:     0 extracted, 9 cache hits\n\
                     layer sims:        0 simulated, 96 cache hits\nevent sims:        0 simulated, 0 cache hits\n\
                     evals:             0 evaluated, 1 cache hits\n";
        assert!(warm_recomputed(clean).is_empty());
        let dirty = clean.replace("layer sims:        0", "layer sims:        5");
        assert_eq!(
            warm_recomputed(&dirty),
            vec!["layer sims: 5 simulated".to_string()]
        );
        assert_eq!(warm_recomputed("").len(), 5);
    }
}
