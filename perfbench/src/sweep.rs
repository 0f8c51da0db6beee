//! The `policy-sweep` workload: design-space exploration in which every
//! point misses the preparation and eval caches.
//!
//! Set-up prepares three zoo networks through `PrepCache::prepared` and
//! trains a fig2-sized SynthNet, all from seed-derived streams (so the
//! networks differ from the suite's, on which the closed-form model was
//! calibrated). The timed loop draws outlier policies — a ratio in
//! (0, 5%], one of the panel's selection rules, 16- or 8-bit mode — scores
//! each with `evaluate_synthnet`, and for each network extracts the
//! workload, simulates OLAccel, ZeNA and Eyeriss, and cross-checks every
//! layer with the event-driven model. One design point is one policy on
//! one network.

use crate::layers::{Raw, NETWORKS};
use crate::stats::{highest_tail, percentile, Digest, SplitMix, MIN_BEYOND};
use crate::trace::Tracer;
use crate::{proc, Ctx, Outcome};
use ola_baselines::{EyerissSim, ZenaSim};
use ola_core::cost::GroupTuning;
use ola_core::event::{validate_layer, EventConfig};
use ola_core::OlAccelSim;
use ola_energy::{ComparisonMode, TechParams};
use ola_harness::prep::{PrepCache, Prepared};
use ola_nn::synthnet::{SynthDataset, SynthNet};
use ola_quant::accuracy::{evaluate_synthnet, evaluate_synthnet_jobs, QuantAccuracy, QuantSpec};
use ola_sim::{LayerRun, NetworkRun, OutlierSelect, QuantPolicy, SimCache, WorkloadSet};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

/// Reference digests, one `seed policies digest` line each.
pub const REFERENCE: &str = "perfbench/reference/sweep-digests.txt";

/// Policies per block: one for each (rule, mode) pair.
pub const BLOCK: usize = 6;

/// Fewest blocks a run draws: 6 blocks of 6 policies on three networks give
/// 108 design points, enough for a p90 with ten points beyond it.
pub const MIN_BLOCKS: usize = 6;

/// Policies drawn per second of `--seconds`, so the timed loop lasts about
/// that long on a two-vCPU host (one policy costs ~0.7 s at one worker).
pub const POLICIES_PER_SECOND: f64 = 1.35;

/// SynthNet training set size and epochs (fig2's `--fast` sizing), and
/// the test split every policy is scored on. The split is half of fig2's
/// 400 images: scoring is the loop's costliest step, and 200 images keep
/// the loop inside the benchmark's time budget.
const TRAIN_IMAGES: usize = 700;
const TEST_IMAGES: usize = 200;
const EPOCHS: usize = 8;

/// One drawn outlier policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Draw {
    /// Outlier ratio in (0, 0.05].
    pub ratio: f64,
    /// Outlier-selection rule.
    pub select: OutlierSelect,
    /// 16- or 8-bit comparison mode.
    pub mode: ComparisonMode,
}

/// How many blocks of [`BLOCK`] policies a run of `seconds` draws.
pub fn block_count(seconds: u64) -> usize {
    ((seconds as f64 * POLICIES_PER_SECOND / BLOCK as f64).ceil() as usize).max(MIN_BLOCKS)
}

/// The `blocks × BLOCK` policies seed `seed` draws, block by block. The
/// draw is stratified so runs of different seeds do the same mix of work:
/// every block holds each (rule, mode) pair once, and each ratio falls in
/// its own stratum of (0, 5%]. The seed picks where in each stratum, which
/// policy each stratum goes to, and the order within each block.
pub fn draw_policies(seed: u64, blocks: usize) -> Vec<Draw> {
    let mut g = SplitMix::new(seed, 2);
    let n = blocks * BLOCK;
    let mut strata: Vec<usize> = (0..n).collect();
    g.shuffle(&mut strata);
    let pairs: Vec<_> = OutlierSelect::panel()
        .into_iter()
        .flat_map(|select| {
            [ComparisonMode::Bits16, ComparisonMode::Bits8].map(|mode| (select, mode))
        })
        .collect();
    let mut draws = Vec::with_capacity(n);
    for chunk in strata.chunks(BLOCK) {
        let mut block: Vec<Draw> = chunk
            .iter()
            .zip(&pairs)
            .map(|(&stratum, &(select, mode))| Draw {
                // `(stratum + unit) / n` lies in [0, 1), so the ratio lies
                // in (0, 0.05] and never reaches 0.
                ratio: 0.05 * (1.0 - (stratum as f64 + g.unit()) / n as f64),
                select,
                mode,
            })
            .collect();
        g.shuffle(&mut block);
        draws.extend(block);
    }
    draws
}

impl Draw {
    fn spec(&self) -> QuantSpec {
        QuantSpec {
            act_high_bits: self.mode.bits() as u8,
            select: self.select,
            ..QuantSpec::paper_4bit(self.ratio)
        }
    }

    fn policy(&self, network: &str) -> QuantPolicy {
        QuantPolicy {
            mode: self.mode,
            outlier_ratio: self.ratio,
            select: self.select,
            ..QuantPolicy::olaccel16(network)
        }
    }
}

/// Everything one design point simulated.
struct PointSims {
    runs: [NetworkRun; 3],
    /// `(event, closed-form)` cycles per layer.
    validated: Vec<(u64, u64)>,
}

fn fold_run(d: &mut Digest, run: &LayerRun) {
    d.str(&run.name).u64(run.cycles);
    let e = &run.energy;
    d.f64(e.dram).f64(e.buffer).f64(e.local).f64(e.logic);
    let u = &run.utilization;
    d.u64(u.run_cycles).u64(u.skip_cycles).u64(u.idle_cycles);
    d.u64(run.chunk_cycle_hist.len() as u64);
    for &c in &run.chunk_cycle_hist {
        d.u64(c);
    }
}

fn fold_accuracy(d: &mut Digest, acc: &QuantAccuracy) {
    d.f64(acc.top1).f64(acc.topk).f64(acc.realized_weight_ratio);
}

impl PointSims {
    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for run in &self.runs {
            d.str(&run.accelerator);
            for l in &run.layers {
                fold_run(&mut d, l);
            }
        }
        for &(e, a) in &self.validated {
            d.u64(e).u64(a);
        }
        d.value()
    }
}

/// Simulates one workload set on the three accelerators and cross-checks
/// every layer, each call in its own span.
fn simulate_point(
    t: &mut Tracer,
    ws: &WorkloadSet,
    mode: ComparisonMode,
    point: usize,
) -> PointSims {
    let tech = TechParams::default();
    let ola = t.span("OlAccelSim::simulate", Some(point), |_| {
        OlAccelSim::new(tech, mode).simulate(ws)
    });
    let zena = t.span("ZenaSim::simulate", Some(point), |_| {
        ZenaSim::new(tech, mode).simulate(ws)
    });
    let eyeriss = t.span("EyerissSim::simulate", Some(point), |_| {
        EyerissSim::new(tech, mode).simulate(ws)
    });
    let (tuning, cfg) = (GroupTuning::default(), EventConfig::default());
    let validated = ws
        .layers
        .iter()
        .map(|l| {
            t.span("validate_layer", Some(point), |_| {
                validate_layer(l, &tuning, &cfg)
            })
        })
        .collect();
    PointSims {
        runs: [ola, zena, eyeriss],
        validated,
    }
}

/// Result of the sweep child, printed as `raw`/`stat` lines.
pub struct SweepResult {
    /// Set-up wall time.
    pub setup_s: f64,
    /// Timed-loop wall time.
    pub wall_s: f64,
    /// Ops attempted (design points plus the digest check).
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
}

/// Runs the sweep in this process, recording spans into `tracer`.
pub fn run_child(seed: u64, blocks: usize, tracer: &mut Tracer) -> (SweepResult, Raw) {
    crate::set_workers(1);
    let draws = draw_policies(seed, blocks);
    let policies = draws.len();
    let mut g = SplitMix::new(seed, 3);
    let prep_seed = g.next_u64();
    let (data_seed, init_seed, sgd_seed) = (g.next_u64(), g.next_u64(), g.next_u64());

    // Set-up: networks and a trained SynthNet, outside the timed region.
    let setup = Instant::now();
    let preps: Vec<Arc<Prepared>> = NETWORKS
        .iter()
        .map(|&(net, scale)| {
            tracer.span("PrepCache::prepared", None, |_| {
                PrepCache::global().prepared(net, scale, prep_seed)
            })
        })
        .collect();
    let all = tracer.span("SynthDataset::generate", None, |_| {
        SynthDataset::generate(TRAIN_IMAGES + TEST_IMAGES, 10, data_seed)
    });
    let split = |r: std::ops::Range<usize>| SynthDataset {
        images: all.images[r.clone()].to_vec(),
        labels: all.labels[r].to_vec(),
        classes: 10,
    };
    let (train, test) = (
        split(0..TRAIN_IMAGES),
        split(TRAIN_IMAGES..TRAIN_IMAGES + TEST_IMAGES),
    );
    let mut synthnet = SynthNet::new(10, init_seed);
    tracer.span("SynthNet::train", None, |_| {
        synthnet.train(&train, EPOCHS, 0.02, sgd_seed)
    });
    let setup_s = setup.elapsed().as_secs_f64();

    // The timed loop.
    let mut latencies = Vec::with_capacity(draws.len() * NETWORKS.len());
    let mut accs: Vec<Option<QuantAccuracy>> = Vec::with_capacity(draws.len());
    let mut points: Vec<Option<u64>> = Vec::with_capacity(draws.len() * NETWORKS.len());
    let mut errs: Vec<f64> = Vec::new();
    let mut digest = Digest::default();
    let start = Instant::now();
    for (pi, draw) in draws.iter().enumerate() {
        let depth = tracer.depth();
        let acc = catch_unwind(AssertUnwindSafe(|| {
            tracer.span("evaluate_synthnet", None, |_| {
                evaluate_synthnet(&synthnet, &test, &train, &draw.spec(), 5)
            })
        }))
        .ok();
        tracer.unwind_to(depth);
        if let Some(a) = &acc {
            fold_accuracy(&mut digest, a);
        }
        accs.push(acc);
        for (ni, prep) in preps.iter().enumerate() {
            let point = pi * NETWORKS.len() + ni;
            let t = Instant::now();
            // One parent span per design point; its self time is the
            // benchmark's own glue between the layer calls.
            let sims = catch_unwind(AssertUnwindSafe(|| {
                tracer.span("design_point", Some(point), |t| {
                    let ws = t.span("Prepared::workloads", Some(point), |_| {
                        prep.workloads(&draw.policy(&prep.network))
                    });
                    simulate_point(t, &ws, draw.mode, point)
                })
            }));
            latencies.push(t.elapsed());
            tracer.unwind_to(depth);
            let ok = sims.ok().filter(|_| acc.is_some()).map(|s| {
                errs.extend(
                    s.validated
                        .iter()
                        .map(|&(e, a)| (e as f64 - a as f64).abs() / a.max(1) as f64 * 100.0),
                );
                s.digest()
            });
            if let Some(d) = ok {
                digest.u64(d);
            }
            points.push(ok);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();

    // Outside the timed region: one seeded policy is re-computed without
    // any cache on every network, and must equal what the loop cached.
    let mut failed: Vec<bool> = points.iter().map(Option::is_none).collect();
    let pi = SplitMix::new(seed, 4).below(draws.len());
    let cached = &points[pi * NETWORKS.len()..(pi + 1) * NETWORKS.len()];
    let problems = check_policy(
        &preps, &draws[pi], accs[pi], cached, &synthnet, &test, &train,
    );
    for (ni, p) in &problems {
        eprintln!(
            "perfbench: policy {pi} {:?} on {}: {p}",
            draws[pi], NETWORKS[*ni].0
        );
        failed[pi * NETWORKS.len() + ni] = true;
    }

    let digest = digest.value();
    let digest_ok = match reference_digest(seed, policies) {
        Some(want) if want != digest => {
            eprintln!(
                "perfbench: simulated-statistics digest {digest:016x} differs from the reference \
                 {want:016x} for seed {seed} ({policies} policies)"
            );
            false
        }
        Some(_) => true,
        None => {
            eprintln!("perfbench: no reference digest for seed {seed} ({policies} policies)");
            true
        }
    };
    eprintln!("perfbench: digest {seed} {policies} {digest:016x}");

    let mut raw = Raw::default();
    let mut ms: Vec<f64> = latencies.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    let (p50, (p90, beyond)) = (percentile(&ms, 50.0).0, percentile(&ms, 90.0));
    raw.add("sweep.point_p50_ms", p50);
    raw.add("sweep.point_p90_ms", p90);
    if beyond < MIN_BEYOND {
        eprintln!("perfbench: only {beyond} points beyond p90: the p90 is not valid");
    }
    if let Some(t) = highest_tail(&ms) {
        eprintln!(
            "perfbench: point latency over {} points: p50 {p50:.3} ms, p{} {:.3} ms ({} beyond)",
            t.count, t.pct, t.value, t.beyond
        );
    }
    raw.add(
        "sweep.model_err_pct",
        errs.iter().copied().fold(0.0, f64::max),
    );
    raw.add("core.event.err_sum_pct", errs.iter().sum());
    if tracer.enabled() {
        add_span_totals(&mut raw, tracer);
        raw.add(
            "trace.wall_s",
            tracer.spans().last().map_or(0.0, |s| s.end.as_secs_f64()),
        );
    }
    let result = SweepResult {
        setup_s,
        wall_s,
        attempted: points.len() as u64 + 1,
        failed: failed.iter().filter(|&&f| f).count() as u64 + u64::from(!digest_ok),
    };
    (result, raw)
}

/// The sweep runs in one fresh child process, whose peak memory is the
/// workload's.
pub fn run(ctx: &Ctx, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let blocks = block_count(seconds);
    let trace_file = ctx.traces.join("sweep.json");
    let mut cmd = Command::new(&ctx.exe);
    cmd.args([
        "sweep-child",
        "--seed",
        &seed.to_string(),
        "--blocks",
        &blocks.to_string(),
    ])
    .args(["--trace", if ctx.trace { "1" } else { "0" }, "--trace-file"])
    .arg(&trace_file);
    let (out, err) = (ctx.work.join("sweep.out"), ctx.work.join("sweep.err"));
    let exit = proc::run(&mut cmd, &out, &err).map_err(|e| format!("spawn sweep child: {e}"))?;
    let stderr = std::fs::read_to_string(&err).unwrap_or_default();
    eprint!("{stderr}");
    let stdout = std::fs::read_to_string(&out).unwrap_or_default();
    let stat = |key: &str| -> Option<f64> {
        stdout.lines().find_map(|l| {
            let rest = l
                .strip_prefix("stat ")?
                .strip_prefix(key)?
                .strip_prefix(' ')?;
            rest.parse().ok()
        })
    };
    let mut outcome = Outcome::default();
    let (Some(setup_s), Some(wall_s), Some(attempted), Some(failed)) = (
        stat("setup_s"),
        stat("wall_s"),
        stat("attempted"),
        stat("failed"),
    ) else {
        return Err(format!(
            "sweep child exited with {:?} without results",
            exit.code
        ));
    };
    outcome.attempted = attempted as u64;
    outcome.failed = failed as u64 + u64::from(!exit.success());
    if ctx.trace {
        let mut raw = Raw::parse(&stdout);
        raw.add("process.cpu_s", exit.cpu.as_secs_f64());
        outcome.layers(&raw);
        eprintln!("perfbench: trace written to {}", trace_file.display());
    } else {
        outcome.metric("wall_s", "s", wall_s);
        outcome.metric("setup_s", "s", setup_s);
        outcome.metric("peak_rss_mb", "MB", exit.peak_rss_mb);
    }
    Ok(outcome)
}

/// Re-computes one policy without any cache — its accuracy, and on each
/// network its workloads and simulated statistics — and lists every
/// network whose result differs from the cached one.
fn check_policy(
    preps: &[Arc<Prepared>],
    draw: &Draw,
    acc: Option<QuantAccuracy>,
    cached: &[Option<u64>],
    net: &SynthNet,
    test: &SynthDataset,
    train: &SynthDataset,
) -> Vec<(usize, String)> {
    let mut problems = Vec::new();
    let eval_ok = acc == Some(evaluate_synthnet_jobs(net, test, train, &draw.spec(), 5, 1));
    SimCache::global().reset();
    let fp = |ws: &WorkloadSet| {
        ws.layers
            .iter()
            .map(|l| l.fingerprint())
            .collect::<Vec<_>>()
    };
    for (ni, (prep, cached)) in preps.iter().zip(cached).enumerate() {
        if !eval_ok {
            problems.push((ni, "uncached accuracy differs from the cached one".into()));
            continue;
        }
        let policy = draw.policy(&prep.network);
        let fresh = prep.extract(&policy);
        if fp(&prep.workloads(&policy)) != fp(&fresh) {
            problems.push((
                ni,
                "extracted workload fingerprints differ from the cached set".into(),
            ));
        } else if Some(
            simulate_point(&mut Tracer::new(false, "check"), &fresh, draw.mode, 0).digest(),
        ) != *cached
        {
            problems.push((
                ni,
                "re-simulated statistics differ from the cached ones".into(),
            ));
        }
    }
    problems
}

/// Sums span durations into per-layer busy times, and the program's phase
/// counters inside the preparation spans into synthesis and forward time.
fn add_span_totals(raw: &mut Raw, tracer: &Tracer) {
    let mut prep_index = 0;
    for s in tracer.spans() {
        let d = s.duration().as_secs_f64();
        match s.name.as_str() {
            "PrepCache::prepared" => {
                let net = NETWORKS[prep_index % NETWORKS.len()].0;
                prep_index += 1;
                raw.add(&format!("harness.prep.{net}.prepare_s"), d);
                raw.add("nn.synth.busy_s", s.delta.phases.synthesize.as_secs_f64());
                raw.add("nn.kernels.busy_s", s.delta.phases.forward.as_secs_f64());
            }
            "SynthDataset::generate" => raw.add("nn.synth.busy_s", d),
            "SynthNet::train" => raw.add("nn.synthnet.train_s", d),
            "evaluate_synthnet" => raw.add("quant.accuracy.busy_s", d),
            "Prepared::workloads" => {
                let net = NETWORKS[s.point.unwrap_or(0) % NETWORKS.len()].0;
                raw.add("sim.workload.busy_s", d);
                raw.add(&format!("sim.workload.{net}.extract_s"), d);
            }
            "OlAccelSim::simulate" => raw.add("core.model.busy_s", d),
            "ZenaSim::simulate" => raw.add("baselines.zena.busy_s", d),
            "EyerissSim::simulate" => raw.add("baselines.eyeriss.busy_s", d),
            "validate_layer" => {
                raw.add("core.event.busy_s", d);
                raw.add("core.event.layers", 1.0);
            }
            _ => {}
        }
        if s.parent.is_none() {
            raw.add_cache_counters(&s.delta);
        }
        if matches!(
            s.name.as_str(),
            "OlAccelSim::simulate" | "ZenaSim::simulate" | "EyerissSim::simulate"
        ) {
            raw.add(
                "core.model.layer_runs",
                (s.delta.sim.run_misses + s.delta.sim.run_hits) as f64,
            );
        }
    }
    raw.add("trace.overhead_s", tracer.overhead().as_secs_f64());
}

/// The reference digest for `(seed, policies)`, if one is recorded.
fn reference_digest(seed: u64, policies: usize) -> Option<u64> {
    let text = std::fs::read_to_string(REFERENCE).ok()?;
    let table: BTreeMap<(u64, usize), u64> = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f.as_slice() {
                [s, p, d] => Some((
                    (s.parse().ok()?, p.parse().ok()?),
                    u64::from_str_radix(d, 16).ok()?,
                )),
                _ => None,
            }
        })
        .collect();
    table.get(&(seed, policies)).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_are_seeded_and_in_range() {
        let a = draw_policies(11, 7);
        assert_eq!(a.len(), 42);
        assert_eq!(a, draw_policies(11, 7));
        assert_ne!(a, draw_policies(12, 7));
        assert!(a.iter().all(|d| d.ratio > 0.0 && d.ratio <= 0.05));
        // Every block holds each (rule, mode) pair exactly once.
        for block in a.chunks(BLOCK) {
            for rule in OutlierSelect::panel() {
                for mode in [ComparisonMode::Bits16, ComparisonMode::Bits8] {
                    let k = block
                        .iter()
                        .filter(|d| d.select == rule && d.mode == mode)
                        .count();
                    assert_eq!(k, 1, "{rule:?} {mode:?} drawn {k} times in a block");
                }
            }
        }
        // One ratio per 1/42-wide stratum.
        let mut strata: Vec<usize> = a
            .iter()
            .map(|d| ((0.05 - d.ratio) / 0.05 * 42.0) as usize)
            .collect();
        strata.sort_unstable();
        assert_eq!(strata, (0..42).collect::<Vec<_>>());
    }

    #[test]
    fn block_count_keeps_a_valid_p90() {
        assert_eq!(block_count(1), MIN_BLOCKS);
        assert!(block_count(60) > MIN_BLOCKS);
        assert!(MIN_BLOCKS * BLOCK * NETWORKS.len() >= 100);
    }
}
