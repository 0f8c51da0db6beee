//! Per-layer metrics of a traced run.
//!
//! A traced run may span several child processes (the suite's priming
//! run and its warm run), so children report *additive* raw quantities —
//! busy seconds, counts, sums — as `raw <key> <value>` lines; the parent
//! adds them up and derives ratios once, in [`per_layer_metrics`].

use crate::trace::Counters;
use std::collections::BTreeMap;

/// The zoo networks the sweep prepares, with their spatial scales.
pub const NETWORKS: [(&str, usize); 3] = [("alexnet", 4), ("resnet18", 8), ("densenet121", 8)];

/// Additive raw quantities keyed by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Raw(BTreeMap<String, f64>);

impl Raw {
    /// Adds `v` to `key`.
    pub fn add(&mut self, key: &str, v: f64) {
        *self.0.entry(key.to_string()).or_insert(0.0) += v;
    }

    /// The value of `key` (0 when never recorded).
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Adds every entry of `other`.
    pub fn merge(&mut self, other: &Raw) {
        for (k, v) in &other.0 {
            self.add(k, *v);
        }
    }

    /// Moves the value of `from` onto `to`.
    pub fn rename(&mut self, from: &str, to: &str) {
        if let Some(v) = self.0.remove(from) {
            self.add(to, v);
        }
    }

    /// The `raw <key> <value>` lines a child prints.
    pub fn emit(&self) -> String {
        self.0
            .iter()
            .map(|(k, v)| format!("raw {k} {v}\n"))
            .collect()
    }

    /// Parses the `raw` lines out of a child's stdout, ignoring all else.
    pub fn parse(text: &str) -> Raw {
        let mut raw = Raw::default();
        for line in text.lines() {
            let mut it = line.split_whitespace();
            if let (Some("raw"), Some(k), Some(v), None) =
                (it.next(), it.next(), it.next(), it.next())
            {
                if let Ok(v) = v.parse::<f64>() {
                    raw.add(k, v);
                }
            }
        }
        raw
    }

    /// Adds the program's memo-tier counters from a counter delta.
    pub fn add_cache_counters(&mut self, d: &Counters) {
        let p = &d.prep;
        self.add("harness.prep.prepared_built", p.prepared_misses as f64);
        self.add("harness.prep.prepared_hits", p.prepared_hits as f64);
        self.add("harness.prep.workloads_extracted", p.workload_misses as f64);
        self.add("harness.prep.workload_hits", p.workload_hits as f64);
        self.add("harness.prep.disk_loaded", p.disk_hits as f64);
        self.add("harness.prep.disk_missed", p.disk_misses as f64);
        let s = &d.sim;
        self.add("sim.simcache.layer_sims", s.run_misses as f64);
        self.add("sim.simcache.layer_hits", s.run_hits as f64);
        self.add("sim.simcache.event_sims", s.event_misses as f64);
        self.add("sim.simcache.event_hits", s.event_hits as f64);
        self.add("sim.simcache.loaded", s.disk_hits as f64);
        let e = &d.eval;
        self.add("quant.evalcache.evaluated", e.misses as f64);
        self.add("quant.evalcache.hits", e.hits as f64);
        self.add("quant.evalcache.loaded", e.disk_hits as f64);
    }
}

/// Per-layer quantities a traced run reports as measured, with units.
const MEASURED: &[(&str, &str)] = &[
    ("process.cpu_s", "s"),
    ("harness.unattributed_s", "s"),
    ("nn.synth.busy_s", "s"),
    ("nn.kernels.busy_s", "s"),
    ("nn.synthnet.train_s", "s"),
    ("sim.workload.busy_s", "s"),
    ("sim.workload.alexnet.extract_s", "s"),
    ("sim.workload.resnet18.extract_s", "s"),
    ("sim.workload.densenet121.extract_s", "s"),
    ("quant.accuracy.busy_s", "s"),
    ("quant.evalcache.evaluated", "count"),
    ("quant.evalcache.hits", "count"),
    ("quant.evalcache.loaded", "count"),
    ("core.model.busy_s", "s"),
    ("baselines.zena.busy_s", "s"),
    ("baselines.eyeriss.busy_s", "s"),
    ("core.model.layer_runs", "count"),
    ("core.event.busy_s", "s"),
    ("core.event.layers", "count"),
    ("sim.simcache.layer_sims", "count"),
    ("sim.simcache.layer_hits", "count"),
    ("sim.simcache.event_sims", "count"),
    ("sim.simcache.event_hits", "count"),
    ("sim.simcache.loaded", "count"),
    ("harness.prep.prepared_built", "count"),
    ("harness.prep.prepared_hits", "count"),
    ("harness.prep.workloads_extracted", "count"),
    ("harness.prep.workload_hits", "count"),
    ("harness.prep.disk_loaded", "count"),
    ("harness.prep.disk_missed", "count"),
    ("harness.prep.alexnet.prepare_s", "s"),
    ("harness.prep.resnet18.prepare_s", "s"),
    ("harness.prep.densenet121.prepare_s", "s"),
    ("store.load_s", "s"),
    ("store.bytes", "B"),
    ("store.files", "count"),
    ("sweep.point_p50_ms", "ms"),
    ("sweep.point_p90_ms", "ms"),
    ("sweep.model_err_pct", "%"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, in a fixed order, as `(name, unit, value)`.
/// A layer a workload does not reach reports 0.
pub fn per_layer_metrics(r: &Raw) -> Vec<(String, &'static str, f64)> {
    let g = |k: &str| r.get(k);
    let mut m: Vec<(String, &'static str, f64)> = Vec::new();
    for suffix in ["wall_s", "cold_s"] {
        for exp in ola_harness::EXPERIMENTS {
            let key = format!("engine.{exp}.{suffix}");
            m.push((key.clone(), "s", g(&key)));
        }
    }
    m.extend(
        MEASURED
            .iter()
            .map(|&(k, unit)| (k.to_string(), unit, g(k))),
    );

    let hits = |keys: &[&str]| keys.iter().map(|k| g(k)).sum::<f64>();
    let eval_hits = hits(&["quant.evalcache.hits", "quant.evalcache.loaded"]);
    let sim_hits = hits(&[
        "sim.simcache.layer_hits",
        "sim.simcache.event_hits",
        "sim.simcache.loaded",
    ]);
    let prep_hits = hits(&[
        "harness.prep.prepared_hits",
        "harness.prep.workload_hits",
        "harness.prep.disk_loaded",
    ]);
    let model_s = hits(&[
        "core.model.busy_s",
        "baselines.zena.busy_s",
        "baselines.eyeriss.busy_s",
    ]);
    let derived = [
        (
            "quant.evalcache.hit_ratio",
            "ratio",
            ratio(eval_hits, eval_hits + g("quant.evalcache.evaluated")),
        ),
        (
            "sim.simcache.hit_ratio",
            "ratio",
            ratio(
                sim_hits,
                sim_hits + g("sim.simcache.layer_sims") + g("sim.simcache.event_sims"),
            ),
        ),
        (
            "harness.prep.hit_ratio",
            "ratio",
            ratio(
                prep_hits,
                prep_hits
                    + g("harness.prep.prepared_built")
                    + g("harness.prep.workloads_extracted"),
            ),
        ),
        (
            "core.model.ns_per_layer_run",
            "ns",
            ratio(model_s * 1e9, g("core.model.layer_runs")),
        ),
        (
            "core.event.mean_err_pct",
            "%",
            ratio(g("core.event.err_sum_pct"), g("core.event.layers")),
        ),
        (
            "trace.overhead_pct",
            "%",
            ratio(g("trace.overhead_s") * 100.0, g("trace.wall_s")),
        ),
    ];
    m.extend(derived.iter().map(|&(k, unit, v)| (k.to_string(), unit, v)));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_lines_round_trip_and_add() {
        let mut a = Raw::default();
        a.add("x", 1.5);
        a.add("y", 2.0);
        let mut b = Raw::parse(&format!("noise line\n{}raw bad notanumber\n", a.emit()));
        assert_eq!(b, a);
        b.merge(&a);
        b.rename("y", "z");
        assert_eq!((b.get("x"), b.get("y"), b.get("z")), (3.0, 0.0, 4.0));
    }

    #[test]
    fn ratios_derive_from_summed_counts() {
        let mut r = Raw::default();
        r.add("quant.evalcache.evaluated", 3.0);
        r.add("quant.evalcache.hits", 1.0);
        r.add("trace.overhead_s", 0.5);
        r.add("trace.wall_s", 50.0);
        let m: BTreeMap<String, f64> = per_layer_metrics(&r)
            .into_iter()
            .map(|(k, _, v)| (k, v))
            .collect();
        assert_eq!(m["quant.evalcache.hit_ratio"], 0.25);
        assert_eq!(m["trace.overhead_pct"], 1.0);
        assert_eq!(m["sim.simcache.hit_ratio"], 0.0);
    }

    #[test]
    fn benchmark_manifest_lists_every_per_layer_metric() {
        let manifest = include_str!("../../BENCHMARK.json");
        let metrics = per_layer_metrics(&Raw::default());
        for (name, unit, _) in &metrics {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = manifest
            .split("\"per_layer\"")
            .nth(1)
            .expect("per_layer section")
            .matches("\"name\"")
            .count();
        assert_eq!(listed, metrics.len());
    }
}
