//! The benchmark's span recorder.
//!
//! A span wraps one call from the benchmark's own code into a layer's
//! public function. At each span boundary the recorder snapshots the
//! program's public counters — the per-phase timers of
//! [`ola_sim::timing`] and the three memo tiers' stats — so each span
//! carries the work the layers below it did. Spans stay in memory and are
//! written as JSON once the run ends. A disabled recorder does nothing, so
//! untraced runs pay nothing for it.

use crate::stats::{json_num, json_str};
use ola_harness::prep::{CacheStats, PrepCache};
use ola_quant::{EvalCache, EvalStats};
use ola_sim::timing::{self, PhaseStats};
use ola_sim::{SimCache, SimStats};
use std::time::{Duration, Instant};

/// The program's public counters at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counters {
    /// Per-phase wall time (`ola_sim::timing`).
    pub phases: PhaseStats,
    /// Preparation-cache counters.
    pub prep: CacheStats,
    /// Simulation-cache counters.
    pub sim: SimStats,
    /// Accuracy-eval cache counters.
    pub eval: EvalStats,
}

impl Counters {
    /// Snapshots every counter.
    pub fn now() -> Self {
        Counters {
            phases: timing::snapshot(),
            prep: PrepCache::global().stats(),
            sim: SimCache::global().stats(),
            eval: EvalCache::global().stats(),
        }
    }

    /// The counter-wise change since `before`.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            phases: self.phases.since(&before.phases),
            prep: self.prep.since(&before.prep),
            sim: self.sim.since(&before.sim),
            eval: self.eval.since(&before.eval),
        }
    }
}

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer function called, e.g. `Prepared::workloads`.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Design-point id (sweep spans only).
    pub point: Option<usize>,
    /// Start, relative to the recorder's origin.
    pub start: Duration,
    /// End, relative to the recorder's origin.
    pub end: Duration,
    /// What the program's counters recorded inside the span.
    pub delta: Counters,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans for one run, or nothing when disabled.
pub struct Tracer {
    enabled: bool,
    run: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Counters)>,
    overhead: Duration,
}

impl Tracer {
    /// A recorder for run `run`; `enabled == false` records nothing.
    pub fn new(enabled: bool, run: &str) -> Self {
        Tracer {
            enabled,
            run: run.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            overhead: Duration::ZERO,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &str,
        point: Option<usize>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        self.enter(name, point);
        let out = f(self);
        self.exit();
        out
    }

    fn enter(&mut self, name: &str, point: Option<usize>) {
        let t = Instant::now();
        let before = Counters::now();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().map(|&(i, _)| i),
            point,
            start: Duration::ZERO,
            end: Duration::ZERO,
            delta: Counters::default(),
        });
        self.open.push((id, before));
        // The span starts after its bookkeeping, so the recorder's own cost
        // lands in the parent's self time and in `overhead`, not here.
        let start = Instant::now();
        self.spans[id].start = start - self.origin;
        self.overhead += start - t;
    }

    fn exit(&mut self) {
        let end = Instant::now();
        let (id, before) = self.open.pop().expect("exit matches an enter");
        self.spans[id].end = end - self.origin;
        self.spans[id].delta = Counters::now().since(&before);
        self.overhead += end.elapsed();
    }

    /// Closes every span opened since depth `depth` — used after a caught
    /// panic unwound through them.
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.exit();
        }
    }

    /// How many spans are open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Time spent recording (snapshots and bookkeeping).
    pub fn overhead(&self) -> Duration {
        self.overhead
    }

    /// Writes the spans and their self times as JSON.
    pub fn to_json(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = format!("{{\"run\": {}, \"spans\": [\n", json_str(&self.run));
        for (i, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let p = &s.delta.phases;
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": {}, \"parent\": {}, \"run\": {}, \"point\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \
                 \"phases_ns\": {{\"synthesize\": {}, \"forward\": {}, \"extract\": {}, \"train\": {}, \
                 \"load\": {}, \"model\": {}, \"eval\": {}}}, \
                 \"prep\": [{}, {}, {}, {}, {}, {}], \"sim\": [{}, {}, {}, {}, {}, {}], \
                 \"eval\": [{}, {}, {}, {}]}}{}\n",
                json_str(&s.name),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json_str(&self.run),
                s.point.map_or("null".to_string(), |p| p.to_string()),
                s.start.as_nanos(),
                s.end.as_nanos(),
                own.as_nanos(),
                p.synthesize.as_nanos(),
                p.forward.as_nanos(),
                p.extract.as_nanos(),
                p.train.as_nanos(),
                p.load.as_nanos(),
                p.model.as_nanos(),
                p.eval.as_nanos(),
                s.delta.prep.prepared_misses,
                s.delta.prep.prepared_hits,
                s.delta.prep.workload_misses,
                s.delta.prep.workload_hits,
                s.delta.prep.disk_hits,
                s.delta.prep.disk_misses,
                s.delta.sim.run_misses,
                s.delta.sim.run_hits,
                s.delta.sim.event_misses,
                s.delta.sim.event_hits,
                s.delta.sim.disk_hits,
                s.delta.sim.disk_misses,
                s.delta.eval.misses,
                s.delta.eval.hits,
                s.delta.eval.disk_hits,
                s.delta.eval.disk_misses,
                if i + 1 < self.spans.len() { "," } else { "" },
            ));
        }
        out.push_str(&format!(
            "], \"counter_order\": {{\"prep\": [\"built\", \"hits\", \"extracted\", \"workload_hits\", \
             \"disk_loaded\", \"disk_missed\"], \"sim\": [\"layer_sims\", \"layer_hits\", \"event_sims\", \
             \"event_hits\", \"loaded\", \"missed\"], \"eval\": [\"evaluated\", \"hits\", \"loaded\", \
             \"missed\"]}}, \"overhead_s\": {}}}\n",
            json_num(self.overhead.as_secs_f64())
        ));
        out
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name: "s".into(),
            parent,
            point: None,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
            delta: Counters::default(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0, 100) > a [10, 40) > a1 [15, 35)
        //               > b [50, 90)
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(1), 15, 35),
            span(Some(0), 50, 90),
        ];
        let ms: Vec<u128> = self_times(&spans).iter().map(|d| d.as_millis()).collect();
        assert_eq!(ms, vec![30, 10, 20, 40]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(0), 40, 120),
        ];
        let ms: Vec<u128> = self_times(&spans).iter().map(|d| d.as_millis()).collect();
        assert_eq!(ms, vec![10, 50, 80]);
    }

    #[test]
    fn recorder_nests_and_unwinds() {
        let mut t = Tracer::new(true, "test");
        t.span("outer", None, |t| {
            t.span("inner", Some(3), |_| {
                std::thread::sleep(Duration::from_millis(2))
            });
        });
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.span("dies", None, |_| panic!("boom"))
        }));
        assert!(caught.is_err());
        t.unwind_to(0);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].point, Some(3));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        assert!(s[1].duration() >= Duration::from_millis(2));
        assert!(s[2].end >= s[2].start);
        assert_eq!(t.depth(), 0);
        assert!(t.to_json().contains("\"name\": \"inner\""));

        let mut off = Tracer::new(false, "off");
        assert_eq!(off.span("x", None, |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
