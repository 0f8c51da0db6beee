//! Parallel experiment engine: a work-queue executor over the experiment
//! list.
//!
//! Experiments are independent — every one seeds its own RNG streams and
//! shares read-only state through [`crate::prep::PrepCache`] — so the suite
//! is an embarrassingly parallel job set. The engine runs `jobs` worker
//! threads (std [`std::thread::scope`], no external dependencies) over a
//! shared atomic cursor, while the calling thread emits finished reports
//! **in request order** as soon as each prefix completes. Reports are
//! therefore byte-identical to a serial run no matter the worker count or
//! scheduling order; only the wall-clock summary (which carries timings)
//! varies, which is why the binary prints it to stderr rather than stdout.
//!
//! Panics inside an experiment are caught per job, recorded in the
//! outcome, and re-raised by [`run_suite`] after every worker has drained —
//! one broken figure doesn't strand the queue mid-run.

use crate::prep::{CacheStats, PrepCache};
use ola_quant::{EvalCache, EvalStats};
use ola_sim::timing::{self, PhaseStats};
use ola_sim::{SimCache, SimStats};
use ola_tensor::memo::{lock_unpoisoned, panic_message};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// The result of one experiment: its report (or caught panic) and timing.
#[derive(Clone, Debug)]
pub struct ExperimentOutcome {
    /// Experiment name as requested.
    pub name: String,
    /// The formatted report, or the panic message if the experiment died.
    pub report: Result<String, String>,
    /// Wall-clock time this experiment spent executing.
    pub wall: Duration,
}

/// Everything [`run_suite`] produced: per-experiment outcomes in request
/// order plus whole-run context for the summary.
#[derive(Clone, Debug)]
pub struct SuiteResult {
    /// Outcomes in the order the experiments were requested.
    pub outcomes: Vec<ExperimentOutcome>,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock time of the whole suite.
    pub total_wall: Duration,
    /// Preparation-cache counters accumulated during the run.
    pub cache: CacheStats,
    /// Simulation-cache counters accumulated during the run.
    pub sim: SimStats,
    /// Accuracy-eval cache counters accumulated during the run.
    pub eval: EvalStats,
    /// Per-phase wall time accumulated during the run (summed across
    /// workers, so comparable to [`SuiteResult::busy`], not `total_wall`).
    pub phases: PhaseStats,
}

impl SuiteResult {
    /// Sum of per-experiment execution times — the serial-equivalent cost.
    /// `busy() / total_wall` approximates the parallel speedup achieved.
    pub fn busy(&self) -> Duration {
        self.outcomes.iter().map(|o| o.wall).sum()
    }

    /// Formats the run summary: one wall-time line per experiment, cache
    /// hit/miss counters, and aggregate timing. Contains timings, so it is
    /// NOT byte-stable across runs — keep it out of report comparisons.
    pub fn summary(&self) -> String {
        let mut out = String::from("--- run summary ---\n");
        for o in &self.outcomes {
            let status = if o.report.is_ok() { "" } else { "  [PANICKED]" };
            out.push_str(&format!(
                "{:<24} {:>9.3}s{}\n",
                o.name,
                o.wall.as_secs_f64(),
                status
            ));
        }
        out.push_str(&format!(
            "{:<24} {:>9.3}s wall ({:.3}s serial-equivalent, {} jobs, {:.2}x)\n",
            "total",
            self.total_wall.as_secs_f64(),
            self.busy().as_secs_f64(),
            self.jobs,
            self.busy().as_secs_f64() / self.total_wall.as_secs_f64().max(1e-9),
        ));
        out.push_str(&self.phases.render(self.busy()));
        out.push('\n');
        out.push_str(&render_cache_stats(&self.cache, &self.sim, &self.eval));
        out
    }
}

/// The memo tiers' counter lines: the one rendering the run summary and
/// the daemon's `stats` reply share.
pub fn render_cache_stats(prep: &CacheStats, sim: &SimStats, eval: &EvalStats) -> String {
    format!("{}\n{}\n{}\n", prep.render(), sim.render(), eval.render())
}

/// Whether `name` is an experiment [`crate::run_experiment`] accepts. A
/// `compare-`/`validate-` name must end in a network the zoo knows.
pub fn is_known_experiment(name: &str) -> bool {
    let zoo_suffix = |prefix: &str| {
        name.strip_prefix(prefix).is_some_and(|network| {
            ola_nn::zoo::try_by_name(network, &ola_nn::zoo::ZooConfig::test_scale()).is_some()
        })
    };
    crate::EXPERIMENTS.contains(&name)
        || name == "extra-resnet101"
        || name == "extra-densenet121"
        || name == "__panic"
        || zoo_suffix("compare-")
        || zoo_suffix("validate-")
}

/// Per-experiment slot shared between workers and the emitting thread.
struct Slots {
    done: Mutex<Vec<Option<ExperimentOutcome>>>,
    ready: Condvar,
}

/// Runs `names` across `jobs` workers, invoking `on_report` for each
/// outcome **in request order** as soon as it (and everything before it)
/// has finished — a serial consumer sees the exact stream a `--jobs 1` run
/// would produce, while later experiments keep executing in the background.
///
/// Returns all outcomes plus run-level context. Unknown names are rejected
/// up front (before any work starts); experiment panics are captured in
/// the outcome and also re-raised after the whole suite has drained, so a
/// long run reports every failure rather than dying at the first.
///
/// # Panics
///
/// Panics if `names` contains an unknown experiment, if `jobs == 0`, or
/// (after completion) if any experiment panicked.
pub fn run_suite<F>(names: &[&str], fast: bool, jobs: usize, mut on_report: F) -> SuiteResult
where
    F: FnMut(&ExperimentOutcome),
{
    assert!(jobs > 0, "run_suite needs at least one worker");
    if let Some(bad) = names.iter().find(|n| !is_known_experiment(n)) {
        panic!("unknown experiment {bad}; known: {:?}", crate::EXPERIMENTS);
    }
    // Split the worker budget between the experiment level and the
    // phases inside each experiment so the two never oversubscribe the
    // machine: a single experiment gets the whole budget for its forward
    // passes, while a wide suite keeps each worker's phases serial. Results
    // are bit-identical at any worker count, so this only shifts where the
    // parallelism lives, never what is computed.
    let outer = jobs.min(names.len().max(1));
    let inner = (jobs / outer).max(1);
    let start = Instant::now();
    let stats_before = PrepCache::global().stats();
    let sim_before = SimCache::global().stats();
    let eval_before = EvalCache::global().stats();
    let phases_before = timing::snapshot();
    let cursor = AtomicUsize::new(0);
    let slots = Slots {
        done: Mutex::new((0..names.len()).map(|_| None).collect()),
        ready: Condvar::new(),
    };

    let mut outcomes: Vec<ExperimentOutcome> = Vec::with_capacity(names.len());
    std::thread::scope(|scope| {
        for _ in 0..outer {
            scope.spawn(|| loop {
                ola_tensor::par::set_jobs(inner);
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(name) = names.get(i) else { break };
                let t = Instant::now();
                let report = catch_unwind(AssertUnwindSafe(|| crate::run_experiment(name, fast)))
                    // `e.as_ref()`, not `&e`: coercing `&Box<dyn Any>` would
                    // downcast the Box itself and lose the payload.
                    .map_err(|e| panic_message(e.as_ref()));
                let outcome = ExperimentOutcome {
                    name: name.to_string(),
                    report,
                    wall: t.elapsed(),
                };
                // Poison-tolerant locking throughout the queue: every
                // experiment panic is already caught above, but a panic in
                // the consumer's `on_report` callback would otherwise
                // poison this mutex and replace the workers' (and the
                // suite's) real failure message with a generic
                // `PoisonError` — the first failure's payload must survive.
                let mut done = lock_unpoisoned(&slots.done);
                done[i] = Some(outcome);
                slots.ready.notify_all();
            });
        }

        // Emit in request order while workers keep draining the queue.
        let mut done = lock_unpoisoned(&slots.done);
        for i in 0..names.len() {
            while done[i].is_none() {
                done = slots
                    .ready
                    .wait(done)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            let outcome = done[i].take().expect("slot filled");
            drop(done);
            on_report(&outcome);
            outcomes.push(outcome);
            done = lock_unpoisoned(&slots.done);
        }
    });

    let stats_after = PrepCache::global().stats();
    let result = SuiteResult {
        jobs,
        total_wall: start.elapsed(),
        cache: stats_after.since(&stats_before),
        sim: SimCache::global().stats().since(&sim_before),
        eval: EvalCache::global().stats().since(&eval_before),
        phases: timing::snapshot().since(&phases_before),
        outcomes,
    };
    if let Some(failed) = result.outcomes.iter().find(|o| o.report.is_err()) {
        panic!(
            "experiment {} panicked: {}",
            failed.name,
            failed.report.as_ref().unwrap_err()
        );
    }
    result
}

/// Like [`run_suite`] but collects the ordered reports instead of streaming
/// them — the form the determinism tests compare byte-for-byte.
pub fn run_suite_collect(names: &[&str], fast: bool, jobs: usize) -> Vec<String> {
    let result = run_suite(names, fast, jobs, |_| {});
    result
        .outcomes
        .into_iter()
        .map(|o| o.report.expect("run_suite re-raises panics"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_stream_in_request_order() {
        let names = ["table1", "fig17", "table1"];
        let mut seen = Vec::new();
        let result = run_suite(&names, true, 2, |o| seen.push(o.name.clone()));
        assert_eq!(seen, vec!["table1", "fig17", "table1"]);
        assert_eq!(result.outcomes.len(), 3);
        assert!(result.outcomes.iter().all(|o| o.report.is_ok()));
        // Identical requests produce identical reports.
        assert_eq!(
            result.outcomes[0].report.as_ref().unwrap(),
            result.outcomes[2].report.as_ref().unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_names_rejected_before_running() {
        let _ = run_suite(&["fig99"], true, 2, |_| {});
    }

    #[test]
    fn panicking_experiment_surfaces_its_own_message() {
        // The hidden `__panic` experiment dies mid-suite; the healthy
        // experiments around it must still stream their reports, and the
        // re-raised failure must carry the *original* panic message — not
        // a mutex-poisoning error from the work queue.
        let names = ["table1", "__panic", "fig17"];
        let mut seen = Vec::new();
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_suite(&names, true, 2, |o| {
                seen.push((o.name.clone(), o.report.is_ok()));
            })
        }))
        .expect_err("suite with a panicking experiment must re-raise");
        let msg = panic_message(err.as_ref());
        assert!(
            msg.contains("__panic experiment failed deliberately"),
            "original payload lost, got: {msg}"
        );
        assert_eq!(
            seen,
            vec![
                ("table1".to_string(), true),
                ("__panic".to_string(), false),
                ("fig17".to_string(), true),
            ],
            "healthy experiments must complete and stream around the failure"
        );
    }

    #[test]
    fn summary_mentions_every_experiment() {
        let result = run_suite(&["table1", "fig17"], true, 1, |_| {});
        let s = result.summary();
        assert!(s.contains("table1"));
        assert!(s.contains("fig17"));
        assert!(s.contains("phases: synthesize"));
        assert!(s.contains(", model "));
        assert!(s.contains(", eval "));
        assert!(s.contains(", report "));
        assert!(s.contains("prepared networks"));
        assert!(s.contains("workload sets"));
        assert!(s.contains("layer sims"));
        assert!(s.contains("sim artifacts"));
        assert!(s.contains("evals"));
        assert!(s.contains("eval artifacts"));
    }
}
