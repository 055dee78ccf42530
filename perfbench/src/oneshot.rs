//! One-shot campaigns through the spec path the CLI uses:
//! `CampaignSpec::parse` → `Prepared::new` → `Prepared::drive` →
//! `write_exports`, timed from outside at those calls.

use crate::check::Cell;
use crate::layers::{coverage, cpu_layers, dsa_layers, reset_layers, traffic, zeroed, Metrics, Obs};
use crate::Spec;
use marvel_core::{DsaEngine, FaultMask, FaultModel, ResetMode, RunRecord, TelemetryConfig};
use marvel_serve::{render_records_csv, write_exports, CampaignSpec, Prepared, Workload};
use marvel_telemetry::span::DEFAULT_RING_CAP;
use marvel_telemetry::{PhaseId, Registry, SpanCollector};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One timed campaign.
pub struct Outcome {
    /// Spec in → every export written.
    pub wall_s: f64,
    /// `Prepared::new`: golden prep, ladder build and mask derivation.
    pub setup_s: f64,
    pub cell: Cell,
    /// Per-layer figures (traced runs only).
    pub layers: Option<Metrics>,
}

fn drive_all(
    prepared: &Prepared,
    cc: &marvel_core::CampaignConfig,
    skip: &[bool],
) -> Vec<Option<RunRecord>> {
    let slots: Vec<Mutex<Option<RunRecord>>> = skip.iter().map(|_| Mutex::new(None)).collect();
    prepared.drive(cc, skip, None, &|i, rec| {
        *slots[i].lock().expect("record slot lock poisoned by a panicking worker") = Some(rec);
    });
    slots.into_iter().map(|s| s.into_inner().expect("record slot lock poisoned")).collect()
}

/// Run `spec` once, writing its exports under `work`. With `traced`, the
/// campaign gets a live registry and a span collector that keeps every
/// run's span tree, and the per-layer figures are derived from them.
pub fn run(spec: &Spec, work: &Path, traced: bool, workers: usize) -> Result<Outcome, String> {
    let (registry, spans) = if traced {
        (Registry::new(), SpanCollector::new(DEFAULT_RING_CAP, usize::MAX))
    } else {
        (Registry::disabled(), SpanCollector::disabled())
    };
    let dir = work.join(&spec.id);
    let t0 = Instant::now();
    let parsed = CampaignSpec::parse(&spec.text)?;
    let telemetry =
        TelemetryConfig { registry: registry.clone(), spans: spans.clone(), ..Default::default() };
    let cc = parsed.to_config(telemetry);
    let prepared = Prepared::new(&parsed, &cc)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let t_drive = Instant::now();
    let slots = drive_all(&prepared, &cc, &vec![false; prepared.masks.len()]);
    let drive_s = t_drive.elapsed().as_secs_f64();
    let records: Vec<RunRecord> = slots
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.ok_or(format!("{}: run {i} never reached the sink", spec.key())))
        .collect::<Result<_, _>>()?;
    write_exports(&dir, &parsed, &prepared, &records)?;
    let wall_s = t0.elapsed().as_secs_f64();

    let csv =
        std::fs::read_to_string(dir.join("records.csv")).map_err(|e| format!("{}: {e}", spec.id))?;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    let cell = Cell::from_records_csv(spec.key(), &csv, spec.faults)?;
    let layers = traced.then(|| {
        let o = Obs::from_process(&registry, &spans.report());
        let mut m = zeroed();
        m.insert("core.ladder_build_s", o.total_s("LadderBuild"));
        // Prepared::new time outside its GoldenPrep/LadderBuild spans:
        // assembly, system load and mask derivation.
        let residual = setup_s - o.total_s("GoldenPrep") - o.total_s("LadderBuild");
        m.insert("core.masks_s", residual.max(0.0));
        m.insert("core.drive_s", drive_s);
        m.insert("core.rung_restore_s", o.self_s("RungRestore"));
        let (packed, forks) = match parsed.workload {
            Workload::Cpu { .. } => {
                reset_layers(&mut m, &o, "campaign.reset_bytes");
                let ckpt = o.counter("golden.ckpt_cycle");
                let (cycles, step_s) = scalar_cycles(&spans, &prepared.masks, &cell, ckpt);
                m.insert(
                    "cpu.sim_cycles_per_s",
                    if step_s > 0.0 { cycles as f64 / step_s } else { 0.0 },
                );
                cpu_layers(&mut m, &o)
            }
            Workload::Dsa { .. } => {
                reset_layers(&mut m, &o, "dsa.reset_bytes");
                dsa_layers(&mut m, &o);
                (0.0, 0.0)
            }
        };
        traffic(&mut m, &[&cell], packed, forks);
        coverage(&mut m, o.self_total_us(), workers, wall_s);
        m
    });
    Ok(Outcome { wall_s, setup_s, cell, layers })
}

/// Time the set-up alone (spec parse + `Prepared::new`), untraced.
pub fn setup_only(spec: &Spec) -> Result<f64, String> {
    let t0 = Instant::now();
    let parsed = CampaignSpec::parse(&spec.text)?;
    Prepared::new(&parsed, &parsed.to_config(TelemetryConfig::default()))?;
    Ok(t0.elapsed().as_secs_f64())
}

/// Simulated cycles and host seconds of the scalar (`SimStepCpu`) part of
/// every run, from the per-run span trees: a run's post-injection cycles
/// are its record's cycle count (from the checkpoint) less the injection
/// offset for transients.
fn scalar_cycles(spans: &SpanCollector, masks: &[FaultMask], cell: &Cell, ckpt: u64) -> (u64, f64) {
    let (mut cycles, mut us) = (0u64, 0u64);
    for lane in spans.trace().lanes {
        for tree in lane.runs {
            let step_us: u64 =
                tree.events.iter().filter(|e| e.phase == PhaseId::SimStepCpu).map(|e| e.dur_us).sum();
            if step_us == 0 {
                continue;
            }
            let i = tree.run as usize;
            let run_cycles: u64 =
                cell.rows[i].rsplit(',').next().and_then(|c| c.parse().ok()).unwrap_or(0);
            cycles += match masks[i].model {
                FaultModel::Transient { cycle } => (run_cycles + ckpt).saturating_sub(cycle),
                FaultModel::Permanent { .. } => run_cycles,
            };
            us += step_us;
        }
    }
    (cycles, us as f64 / 1e6)
}

/// splitmix64: the benchmark's own seeded index sampler.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Re-run `k` seeded sample runs of `spec` through the program's oracle
/// configuration — no checkpoint ladder, deep-clone reset, scalar CPU
/// runs (lane width 0) and the cycle-stepped DSA engine — and require
/// their records to match the rows of `cell` byte for byte. Returns the
/// number of runs compared.
pub fn oracle_sample(spec: &Spec, cell: &Cell, seed: u64, k: usize) -> Result<usize, String> {
    let mut oracle = CampaignSpec::parse(&spec.text)?;
    oracle.ladder_rungs = 0;
    oracle.reset_mode = ResetMode::Clone;
    let mut cc = oracle.to_config(TelemetryConfig::default());
    cc.lane_width = 0;
    cc.dsa_engine = DsaEngine::Cycle;
    let prepared = Prepared::new(&oracle, &cc)?;
    let n = prepared.masks.len();
    let mut skip = vec![true; n];
    let mut state = seed ^ 0x0a11_ce5e_ed00;
    for _ in 0..k.min(n) {
        loop {
            let i = (splitmix(&mut state) % n as u64) as usize;
            if skip[i] {
                skip[i] = false;
                break;
            }
        }
    }
    let slots = drive_all(&prepared, &cc, &skip);
    let mut compared = 0;
    for (i, rec) in slots.into_iter().enumerate().filter(|(i, _)| !skip[*i]) {
        let rec = rec.ok_or(format!("{}: oracle run {i} never reached the sink", spec.key()))?;
        let rendered = render_records_csv(&[rec]);
        let body = rendered.lines().nth(2).and_then(|l| l.strip_prefix("0,")).unwrap_or_default();
        let want = format!("{i},{body}");
        if cell.rows[i] != want {
            return Err(format!(
                "{}: run {i} is `{}` but the oracle configuration gives `{want}`",
                spec.key(),
                cell.rows[i]
            ));
        }
        compared += 1;
    }
    Ok(compared)
}
