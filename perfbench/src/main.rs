//! Paper-scale campaign benchmark for gem5-marvel.
//!
//! ```text
//! perfbench --workload <cpu_transient|cpu_permanent|serve_mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--tiny] [--expect <expected.json>]
//! ```
//!
//! Repeats the workload's timed campaign cell for about `--seconds`
//! (closed loop: one client, each campaign waits for its result), then
//! runs the correctness gate: every timed export against its pinned
//! digest and against the other repetitions, and a verification
//! campaign whose spec seed is `--seed` against its pin (when pinned) and
//! against the program's oracle configuration on a seeded sample. The
//! last stdout line is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. The exit code is 0 only when every check
//! passed. See README.md in this directory.

mod check;
mod layers;
mod oneshot;
mod service;

use check::{Cell, Expectations, Ledger};
use layers::{Metrics, PER_LAYER};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The spec default seed: the seed of every timed cell.
const DEFAULT_SEED: u64 = 0xC0FFEE;
/// Extra set-up-only samples a one-shot run takes before its timed
/// repetitions (each repetition adds one more).
const SETUP_SAMPLES: usize = 4;
/// Oracle-configuration sample size per verification campaign.
const ORACLE_SAMPLE: usize = 8;
/// `telemetry.coverage` outside this range is flagged in traced runs.
const COVERAGE_TOLERANCE: (f64, f64) = (0.85, 1.05);

/// `(name, unit)` of the end-to-end metrics, in report order.
const END_TO_END: &[(&str, &str)] =
    &[("wall_s", "s"), ("setup_s", "s"), ("runs_per_s", "1/s"), ("peak_rss_mb", "MB")];

/// One campaign spec of a workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub id: String,
    pub seed: u64,
    pub faults: usize,
    /// The spec document, as a client would submit it.
    pub text: String,
}

impl Spec {
    fn cpu(bench: &str, isa: &str, kind: &str, faults: usize, seed: u64) -> Spec {
        let id = format!("{bench}-{isa}-prf-{}{faults}", &kind[..1]);
        let workload = format!(r#"{{"kind":"cpu","bench":"{bench}","isa":"{isa}"}}"#);
        Spec::new(id, workload, kind, faults, seed)
    }

    fn dsa(design: &str, component: &str, faults: usize, seed: u64) -> Spec {
        let id = format!("{design}-{component}-t{faults}");
        let workload = format!(r#"{{"kind":"dsa","design":"{design}","component":"{component}"}}"#);
        Spec::new(id, workload, "transient", faults, seed)
    }

    fn new(id: String, workload: String, kind: &str, faults: usize, seed: u64) -> Spec {
        let text = format!(
            r#"{{"type":"campaign_spec","schema_version":1,"id":"{id}","workload":{workload},"target":"prf","faults":{faults},"fault_kind":"{kind}","seed":{seed},"workers":0}}"#
        );
        Spec { id, seed, faults, text }
    }

    /// Key into `expected.json`.
    pub fn key(&self) -> String {
        format!("{}@{}", self.id, self.seed)
    }
}

/// A workload: the timed cell (spec default seed) and its verification
/// campaigns (spec seed = `--seed`, a tenth of the size).
struct Workload {
    timed: Vec<Spec>,
    verify: Vec<Spec>,
    /// Timed through the in-process service instead of one-shot.
    service: bool,
}

/// A workload's campaigns at fault count `n` and spec seed `s`.
type Campaigns = fn(n: usize, s: u64) -> Vec<Spec>;

fn workload(name: &str, seed: u64, tiny: bool) -> Result<Workload, String> {
    let (specs, n, service): (Campaigns, usize, bool) = match name {
        "cpu_transient" => (|n, s| vec![Spec::cpu("sha", "riscv", "transient", n, s)], 1000, false),
        "cpu_permanent" => (|n, s| vec![Spec::cpu("dijkstra", "x86", "permanent", n, s)], 100, false),
        // 400 CPU transients beside 6000 DSA transients.
        "serve_mixed" => (
            |n, s| {
                vec![
                    Spec::cpu("sha", "riscv", "transient", (n / 15).max(4), s),
                    Spec::dsa("FFT", "IMG", n, s),
                ]
            },
            6000,
            true,
        ),
        other => {
            return Err(format!("unknown workload '{other}' (cpu_transient|cpu_permanent|serve_mixed)"))
        }
    };
    let size = |n: usize| if tiny { (n / 50).max(4) } else { n };
    Ok(Workload { timed: specs(size(n), DEFAULT_SEED), verify: specs(size(n / 10), seed), service })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    expect: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 30.0,
            trace: false,
            tiny: false,
            expect: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json")),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            if flag == "--tiny" {
                args.tiny = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} value '{value}': {e}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
                "--expect" => args.expect = PathBuf::from(&value),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(args)
    }
}

/// One timed repetition of a workload's cell.
struct Rep {
    traced: bool,
    wall_s: f64,
    setup_s: f64,
    peak_rss_mb: f64,
    cells: Vec<Cell>,
    layers: Option<Metrics>,
}

impl Rep {
    fn runs(&self) -> usize {
        self.cells.iter().map(|c| c.runs).sum()
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Host memory high-water mark of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart the VmHWM high-water mark from the current RSS, so each
/// repetition reports its own peak.
fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

/// CPU seconds (user + system) this process has used so far.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of them, in clock ticks (100 per second on Linux).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: f64 =
        rest.split_whitespace().skip(11).take(2).filter_map(|t| t.parse::<f64>().ok()).sum();
    ticks / 100.0
}

/// Timed repetitions plus the set-up-only samples taken before them.
struct Timing {
    reps: Vec<Rep>,
    setups: Vec<f64>,
}

/// Take the set-up samples (one-shot workloads), then repeat the timed
/// cell while the next repetition would end less than half a repetition
/// past `seconds` (at least one; two in traced runs, which alternate
/// untraced and traced repetitions).
fn timed_reps(args: &Args, w: &Workload, work: &Path, workers: usize) -> Result<Timing, String> {
    let start = Instant::now();
    let setups = if w.service {
        Vec::new()
    } else {
        (0..SETUP_SAMPLES).map(|_| oneshot::setup_only(&w.timed[0])).collect::<Result<_, _>>()?
    };
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let traced = args.trace && reps.len() % 2 == 1;
        let cpu0 = cpu_seconds();
        reset_peak_rss();
        let (wall_s, setup_s, cells, layers) = if w.service {
            let o = service::run(&w.timed, work, traced, workers)?;
            (o.wall_s, o.setup_s, o.cells, o.layers)
        } else {
            let o = oneshot::run(&w.timed[0], work, traced, workers)?;
            (o.wall_s, o.setup_s, vec![o.cell], o.layers)
        };
        let rep = Rep { traced, wall_s, setup_s, peak_rss_mb: peak_rss_mb(), cells, layers };
        eprintln!(
            "perfbench: rep {} ({}): wall {:.3} s, setup {:.3} s, host cpu {:.2} s, peak rss {:.1} MB",
            reps.len(),
            if traced { "traced" } else { "untraced" },
            rep.wall_s,
            rep.setup_s,
            cpu_seconds() - cpu0,
            rep.peak_rss_mb
        );
        reps.push(rep);
        let elapsed = start.elapsed().as_secs_f64();
        let per_rep = reps.iter().map(|r| r.wall_s).sum::<f64>() / reps.len() as f64;
        if reps.len() >= if args.trace { 2 } else { 1 } && elapsed + per_rep / 2.0 > args.seconds {
            return Ok(Timing { reps, setups });
        }
    }
}

/// The correctness gate over the timed repetitions and the verification
/// campaigns at `--seed`.
fn gate(
    args: &Args,
    w: &Workload,
    reps: &[Rep],
    expect: &Expectations,
    work: &Path,
    workers: usize,
) -> Ledger {
    let mut ledger = Ledger::default();
    for (j, spec) in w.timed.iter().enumerate() {
        let first = &reps[0].cells[j];
        println!("{}", first.pin_line());
        for rep in reps {
            let cell = &rep.cells[j];
            let outcome = expect.check(cell).map(|_| ()).and_then(|()| {
                if cell == first {
                    Ok(())
                } else {
                    Err(format!("{}: records differ between repetitions of the same spec", cell.key))
                }
            });
            ledger.record(spec.faults, outcome);
        }
    }
    for spec in &w.verify {
        let verified = oneshot::run(spec, work, false, workers).and_then(|o| {
            println!("{}", o.cell.pin_line());
            let pinned = expect.check(&o.cell)?;
            let compared = oneshot::oracle_sample(spec, &o.cell, args.seed, ORACLE_SAMPLE)?;
            eprintln!(
                "perfbench: verify {}: {}, {compared} sampled runs match the oracle configuration",
                spec.key(),
                if pinned { "matches its pin" } else { "not pinned" }
            );
            Ok(compared)
        });
        match verified {
            Ok(compared) => ledger.record(spec.faults + compared, Ok(())),
            Err(e) => ledger.record(spec.faults, Err(e)),
        }
    }
    ledger
}

fn summarize(name: &str, unit: &str, v: &[f64]) {
    let max = v.iter().copied().fold(f64::NAN, f64::max);
    eprintln!(
        "perfbench: {name:<32} median {:>12.4} {unit:<8} max {max:>12.4}  n={}",
        median(v.to_vec()),
        v.len()
    );
}

fn metrics(args: &Args, timing: &Timing) -> Vec<(&'static str, &'static str, f64)> {
    let reps = &timing.reps;
    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let walls = |rs: &[&Rep]| rs.iter().map(|r| r.wall_s).collect::<Vec<_>>();
    if !args.trace {
        let cols: [Vec<f64>; 4] = [
            walls(&untraced),
            timing.setups.iter().copied().chain(untraced.iter().map(|r| r.setup_s)).collect(),
            untraced.iter().map(|r| r.runs() as f64 / (r.wall_s - r.setup_s)).collect(),
            // The workload's high-water mark: the largest repetition peak.
            vec![untraced.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max)],
        ];
        return END_TO_END
            .iter()
            .zip(cols)
            .map(|(&(name, unit), v)| {
                summarize(name, unit, &v);
                (name, unit, median(v))
            })
            .collect();
    }
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let overhead = median(walls(&traced)) / median(walls(&untraced)) - 1.0;
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v: Vec<f64> = if name == "telemetry.trace_overhead_frac" {
                vec![overhead]
            } else {
                traced.iter().filter_map(|r| r.layers.as_ref().map(|m| m[name])).collect()
            };
            summarize(name, unit, &v);
            (name, unit, median(v))
        })
        .collect()
}

fn run() -> Result<bool, String> {
    let args = Args::parse()?;
    let w = workload(&args.workload, args.seed, args.tiny)?;
    let expect = Expectations::load(&args.expect)?;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: {} at {workers} workers, seed {}, {} s",
        args.workload, args.seed, args.seconds
    );
    let scratch = std::env::current_dir().map_err(|e| e.to_string())?.join(".perfbench-work");
    let work = scratch.join(std::process::id().to_string());
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let measured = timed_reps(&args, &w, &work, workers).map(|timing| {
        let ledger = gate(&args, &w, &timing.reps, &expect, &work, workers);
        (timing, ledger)
    });
    std::fs::remove_dir_all(&work).ok();
    std::fs::remove_dir(&scratch).ok();
    let (timing, ledger) = measured?;

    let reported = metrics(&args, &timing);
    if let Some(&(_, _, cov)) = reported.iter().find(|(name, ..)| *name == "telemetry.coverage") {
        let (lo, hi) = COVERAGE_TOLERANCE;
        let verdict = if (lo..=hi).contains(&cov) { "ok" } else { "OUTSIDE TOLERANCE" };
        eprintln!("perfbench: layer accounting: coverage {cov:.3} of workers x wall ({verdict}, tolerance {lo}-{hi})");
    }
    let fields: Vec<String> = reported
        .into_iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    let correct = ledger.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted,
        ledger.failed,
        fields.join(", ")
    );
    Ok(correct)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
