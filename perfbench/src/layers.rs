//! Per-layer metrics, derived from outside the program: the benchmark's
//! own timers around public calls, plus the program's existing registry
//! counters and span report (read in-process for one-shot campaigns, over
//! the service's `METRICS <id>` / `PROFILE` verbs for `serve_mixed`).
//!
//! Every workload prints every metric; a layer the workload does not
//! exercise (or cannot observe from outside) reads 0.

use crate::check::Cell;
use marvel_serve::json::{parse, Json};
use marvel_telemetry::{PhaseReport, Registry};
use std::collections::BTreeMap;

/// `(name, unit)` of every per-layer metric, in report order. The
/// `per_layer` list in `BENCHMARK.json` mirrors this table.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.golden_prep_s", "s"),
    ("core.ladder_build_s", "s"),
    ("core.masks_s", "s"),
    ("core.drive_s", "s"),
    ("core.rung_restore_s", "s"),
    ("core.early_term_frac", "frac"),
    ("core.converged_frac", "frac"),
    ("core.scalar_frac", "frac"),
    ("soc.reset_us.p50", "us"),
    ("soc.reset_bytes.mean", "bytes"),
    ("cpu.golden_cycles_per_s", "cycles/s"),
    ("cpu.scalar_step_s", "s"),
    ("cpu.sim_cycles_per_s", "cycles/s"),
    ("lane.passes", "count"),
    ("lane.occupancy.mean", "lanes"),
    ("lane.retired_frac", "frac"),
    ("lane.fork_frac", "frac"),
    ("lane.pass_s", "s"),
    ("lane.pass_us_per_lane", "us"),
    ("lane.fork_s", "s"),
    ("lane.fork_inject_s", "s"),
    ("accel.golden_prep_s", "s"),
    ("accel.replay_s", "s"),
    ("accel.run_us.p50", "us"),
    ("accel.run_us.p95", "us"),
    ("serve.submit_ms", "ms"),
    ("serve.status_ms.p50", "ms"),
    ("serve.status_ms.p95", "ms"),
    ("serve.shards", "count"),
    ("serve.journal_append_us.p50", "us"),
    ("serve.journal_append_us.p95", "us"),
    ("serve.journal_fsync_ms.p50", "ms"),
    ("serve.journal_fsync_ms.p95", "ms"),
    ("serve.fsyncs", "count"),
    ("serve.idle_s", "s"),
    ("serve.cpu_done_s", "s"),
    ("serve.dsa_done_s", "s"),
    ("telemetry.trace_overhead_frac", "frac"),
    ("telemetry.coverage", "frac"),
];

pub type Metrics = BTreeMap<&'static str, f64>;

pub fn zeroed() -> Metrics {
    PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect()
}

/// One span-report row (µs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Phase {
    pub calls: u64,
    pub total_us: u64,
    pub self_us: u64,
    pub p50_us: u64,
    pub p95_us: u64,
}

/// What the program reports about one campaign (or the service itself):
/// span rows by phase name, counters, and histogram `(count, sum)`.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    pub phases: BTreeMap<String, Phase>,
    pub counters: BTreeMap<String, u64>,
    pub hists: BTreeMap<String, (u64, f64)>,
    /// Wall clock of the reporting span collector (µs since it started).
    pub wall_us: u64,
}

fn num(v: &Json) -> f64 {
    match v {
        Json::Int(i) => *i as f64,
        Json::Float(f) => *f,
        _ => 0.0,
    }
}

impl Obs {
    /// Read an in-process registry and span collector.
    pub fn from_process(reg: &Registry, report: &PhaseReport) -> Obs {
        let snap = reg.snapshot();
        Obs {
            phases: report
                .rows
                .iter()
                .map(|r| {
                    let p = Phase {
                        calls: r.calls,
                        total_us: r.total_us,
                        self_us: r.self_us,
                        p50_us: r.p50_us,
                        p95_us: r.p95_us,
                    };
                    (r.phase.name().to_string(), p)
                })
                .collect(),
            counters: snap.counters.into_iter().collect(),
            hists: snap.histograms.into_iter().map(|(n, h)| (n, (h.count, h.sum as f64))).collect(),
            wall_us: report.wall_us,
        }
    }

    /// Parse a service `METRICS <id>` line or `PROFILE` line (both carry
    /// a `phases` object; METRICS adds counters and histograms).
    pub fn from_service_line(line: &str) -> Result<Obs, String> {
        let v = parse(line).map_err(|e| format!("service reply is not JSON ({e}): {line}"))?;
        if v.get("ok").and_then(Json::as_bool) == Some(false) {
            return Err(format!("service refused the request: {line}"));
        }
        let fields = |key: &str| match v.get(key) {
            Some(Json::Object(f)) => f.clone(),
            _ => Vec::new(),
        };
        let field = |o: &Json, k: &str| o.get(k).map_or(0.0, num);
        Ok(Obs {
            phases: fields("phases")
                .into_iter()
                .map(|(n, p)| {
                    let row = Phase {
                        calls: field(&p, "calls") as u64,
                        total_us: field(&p, "total_us") as u64,
                        self_us: field(&p, "self_us") as u64,
                        p50_us: field(&p, "p50_us") as u64,
                        p95_us: field(&p, "p95_us") as u64,
                    };
                    (n, row)
                })
                .collect(),
            counters: fields("counters").into_iter().map(|(n, c)| (n, num(&c) as u64)).collect(),
            hists: fields("histograms")
                .into_iter()
                .map(|(n, h)| (n, (field(&h, "count") as u64, field(&h, "sum"))))
                .collect(),
            wall_us: field(&v, "wall_us") as u64,
        })
    }

    pub fn phase(&self, name: &str) -> Phase {
        self.phases.get(name).copied().unwrap_or_default()
    }

    pub fn self_s(&self, name: &str) -> f64 {
        self.phase(name).self_us as f64 / 1e6
    }

    pub fn total_s(&self, name: &str) -> f64 {
        self.phase(name).total_us as f64 / 1e6
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn hist(&self, name: &str) -> (u64, f64) {
        self.hists.get(name).copied().unwrap_or((0, 0.0))
    }

    pub fn hist_mean(&self, name: &str) -> f64 {
        let (n, sum) = self.hist(name);
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Summed self time over every phase (µs).
    pub fn self_total_us(&self) -> u64 {
        self.phases.values().map(|p| p.self_us).sum()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Path shares over a set of campaign exports: every run is lane-retired,
/// forked out of a lane pass, or scalar (never packed).
pub fn traffic(m: &mut Metrics, cells: &[&Cell], packed: f64, forks: f64) {
    let runs: f64 = cells.iter().map(|c| c.runs as f64).sum();
    let early: f64 = cells.iter().map(|c| c.early as f64).sum();
    let converged: f64 = cells.iter().map(|c| c.converged as f64).sum();
    m.insert("core.early_term_frac", ratio(early, runs));
    m.insert("core.converged_frac", ratio(converged, runs));
    m.insert("core.scalar_frac", ratio(runs - packed, runs));
    m.insert("lane.retired_frac", ratio(packed - forks, runs));
    m.insert("lane.fork_frac", ratio(forks, runs));
}

/// The CPU-campaign layers readable from any campaign's report: golden
/// prep, ladder, rung restore, scalar stepping and the lane engine.
/// Returns `(packed, forks)` for [`traffic`].
pub fn cpu_layers(m: &mut Metrics, o: &Obs) -> (f64, f64) {
    let golden_s = o.total_s("GoldenPrep");
    m.insert("core.golden_prep_s", golden_s);
    let golden_cycles = (o.counter("golden.ckpt_cycle") + o.counter("golden.exec_cycles")) as f64;
    m.insert("cpu.golden_cycles_per_s", ratio(golden_cycles, golden_s));
    m.insert("cpu.scalar_step_s", o.self_s("SimStepCpu"));
    let (passes, packed) = o.hist("campaign.lane_occupancy");
    let forks = o.phase("LaneFork").calls as f64;
    m.insert("lane.passes", passes as f64);
    m.insert("lane.occupancy.mean", o.hist_mean("campaign.lane_occupancy"));
    let pass_s = o.self_s("SimStepLane");
    m.insert("lane.pass_s", pass_s);
    m.insert("lane.pass_us_per_lane", ratio(pass_s * 1e6, packed - forks));
    m.insert("lane.fork_s", o.total_s("LaneFork"));
    // Every lane-packable mask runs inside a pass first, so on a packed
    // campaign the only Inject spans (rung → injection re-simulation)
    // are those of forked lanes.
    m.insert("lane.fork_inject_s", if passes > 0 { o.self_s("Inject") } else { 0.0 });
    (packed, forks)
}

/// The accelerator layers of a DSA campaign's report.
pub fn dsa_layers(m: &mut Metrics, o: &Obs) {
    m.insert("accel.golden_prep_s", o.total_s("GoldenPrep"));
    m.insert("accel.replay_s", o.self_s("TraceReplay"));
    m.insert("accel.run_us.p50", o.phase("SimStepDsa").p50_us as f64);
    m.insert("accel.run_us.p95", o.phase("SimStepDsa").p95_us as f64);
}

/// Dirty reset of the campaign that pays one reset per run.
pub fn reset_layers(m: &mut Metrics, o: &Obs, bytes_hist: &str) {
    m.insert("soc.reset_us.p50", o.phase("DirtyReset").p50_us as f64);
    m.insert("soc.reset_bytes.mean", o.hist_mean(bytes_hist));
}

/// Attributed self time over `workers × wall`: the share of the worker
/// pool's wall-clock capacity the span report accounts for.
pub fn coverage(m: &mut Metrics, self_us: u64, workers: usize, wall_s: f64) {
    m.insert("telemetry.coverage", ratio(self_us as f64 / 1e6, workers as f64 * wall_s));
}
