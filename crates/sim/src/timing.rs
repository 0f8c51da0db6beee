//! Process-wide per-phase timing accumulators for the suite summary.
//!
//! The experiment engine's stderr summary breaks a run down into the
//! pipeline phases that dominate suite time — parameter synthesis, the f32
//! reference forward pass, workload extraction, and the accelerator models
//! — so perf work can see where the time actually goes. Accumulation is a
//! pair of relaxed atomic adds per timed region: cheap enough to leave on
//! permanently, and the counters never feed back into any computed result
//! (stdout stays byte-identical).
//!
//! The module lives in `ola-sim` (below both the accelerator models and
//! the harness) so the model crates can record [`Phase::Model`] themselves.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A timed pipeline phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Network construction, parameter synthesis, and sparsity shaping.
    Synthesize,
    /// The f32 reference forward pass.
    Forward,
    /// Workload extraction (calibration + chunk statistics).
    Extract,
    /// SynthNet SGD training (the fig2/fig3 accuracy experiments).
    Train,
    /// Loading (and validating) artifacts from the on-disk store — the
    /// warm-cache replacement for the computed phases.
    Load,
    /// Accelerator model evaluation (cycle/energy simulation of a
    /// workload set, including the event-driven validation backend).
    Model,
    /// Quantized-accuracy evaluation (quantize/calibrate/forward over the
    /// SynthNet test set — the fig2/fig3/policy-panel hot path).
    Eval,
}

/// Each phase's accumulated nanoseconds, indexed by `Phase as usize`.
static NANOS: [AtomicU64; 7] = [const { AtomicU64::new(0) }; 7];

/// Adds `wall` to a phase's process-wide accumulator.
pub fn record(phase: Phase, wall: Duration) {
    NANOS[phase as usize].fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
}

/// Times `f` and records its wall time under `phase`.
pub fn timed<R>(phase: Phase, f: impl FnOnce() -> R) -> R {
    let start = std::time::Instant::now();
    let out = f();
    record(phase, start.elapsed());
    out
}

/// A snapshot of the accumulated per-phase wall time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Time spent building networks and synthesizing parameters.
    pub synthesize: Duration,
    /// Time spent in reference forward passes.
    pub forward: Duration,
    /// Time spent extracting workloads.
    pub extract: Duration,
    /// Time spent training SynthNet for the accuracy figures.
    pub train: Duration,
    /// Time spent loading artifacts from the on-disk store.
    pub load: Duration,
    /// Time spent evaluating the accelerator models.
    pub model: Duration,
    /// Time spent measuring quantized accuracy.
    pub eval: Duration,
}

impl PhaseStats {
    /// The sum of the instrumented phases.
    pub fn instrumented(&self) -> Duration {
        self.synthesize
            + self.forward
            + self.extract
            + self.train
            + self.load
            + self.model
            + self.eval
    }

    /// The phase-wise difference `self - before` (saturating), for
    /// delta-over-a-run reporting.
    pub fn since(&self, before: &PhaseStats) -> PhaseStats {
        PhaseStats {
            synthesize: self.synthesize.saturating_sub(before.synthesize),
            forward: self.forward.saturating_sub(before.forward),
            extract: self.extract.saturating_sub(before.extract),
            train: self.train.saturating_sub(before.train),
            load: self.load.saturating_sub(before.load),
            model: self.model.saturating_sub(before.model),
            eval: self.eval.saturating_sub(before.eval),
        }
    }

    /// Formats the summary line. `busy` is the suite's serial-equivalent
    /// time; whatever the instrumented phases don't account for is report
    /// formatting and other glue.
    pub fn render(&self, busy: Duration) -> String {
        let report = busy.saturating_sub(self.instrumented());
        format!(
            "phases: synthesize {:.3}s, forward {:.3}s, extract {:.3}s, train {:.3}s, load {:.3}s, model {:.3}s, eval {:.3}s, report {:.3}s",
            self.synthesize.as_secs_f64(),
            self.forward.as_secs_f64(),
            self.extract.as_secs_f64(),
            self.train.as_secs_f64(),
            self.load.as_secs_f64(),
            self.model.as_secs_f64(),
            self.eval.as_secs_f64(),
            report.as_secs_f64(),
        )
    }
}

/// Snapshots the process-wide accumulators.
pub fn snapshot() -> PhaseStats {
    let ns = |phase: Phase| Duration::from_nanos(NANOS[phase as usize].load(Ordering::Relaxed));
    PhaseStats {
        synthesize: ns(Phase::Synthesize),
        forward: ns(Phase::Forward),
        extract: ns(Phase::Extract),
        train: ns(Phase::Train),
        load: ns(Phase::Load),
        model: ns(Phase::Model),
        eval: ns(Phase::Eval),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_regions_accumulate() {
        let before = snapshot();
        let v = timed(Phase::Extract, || {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        let delta = snapshot().since(&before);
        assert!(delta.extract >= Duration::from_millis(5));
        let line = delta.render(Duration::from_secs(1));
        assert!(line.contains("extract"));
        assert!(line.contains("model"));
        assert!(line.contains("eval"));
        assert!(line.contains("report"));
    }

    #[test]
    fn model_phase_accumulates_separately() {
        let before = snapshot();
        timed(Phase::Model, || {
            std::thread::sleep(Duration::from_millis(3));
        });
        let delta = snapshot().since(&before);
        assert!(delta.model >= Duration::from_millis(3));
        assert!(delta.instrumented() >= delta.model);
    }

    #[test]
    fn eval_phase_accumulates_separately() {
        let before = snapshot();
        timed(Phase::Eval, || {
            std::thread::sleep(Duration::from_millis(3));
        });
        let delta = snapshot().since(&before);
        assert!(delta.eval >= Duration::from_millis(3));
        assert!(delta.instrumented() >= delta.eval);
    }

    #[test]
    fn since_saturates_rather_than_underflows() {
        let a = PhaseStats {
            synthesize: Duration::from_secs(1),
            ..Default::default()
        };
        let b = PhaseStats {
            synthesize: Duration::from_secs(2),
            ..Default::default()
        };
        assert_eq!(a.since(&b).synthesize, Duration::ZERO);
    }
}
