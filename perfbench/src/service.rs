//! The `serve_mixed` workload: an in-process `marvel serve` at `nproc`
//! workers, driven by one client over TCP. Both campaigns are submitted
//! back to back; the client then polls `STATUS` (one connection at a
//! time) until both report done, reads `METRICS <id>` / `PROFILE` when
//! traced, and stops the service.

use crate::check::Cell;
use crate::layers::{coverage, cpu_layers, dsa_layers, reset_layers, traffic, zeroed, Metrics, Obs};
use crate::Spec;
use marvel_serve::json::{parse, Json};
use marvel_serve::{request, serve, shutdown_flag, wait_for_addr, CampaignSpec, ServeConfig};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Pause between the client's STATUS polls.
const POLL: Duration = Duration::from_millis(10);
/// Give up on a service that has not finished well inside the run limit.
const DEADLINE: Duration = Duration::from_secs(150);

pub struct Outcome {
    /// First SUBMIT sent → last campaign seen done.
    pub wall_s: f64,
    /// First SUBMIT sent → every campaign's STATUS reports running.
    pub setup_s: f64,
    /// One per spec, in submission order.
    pub cells: Vec<Cell>,
    pub layers: Option<Metrics>,
}

/// Run one service session over `specs` (a CPU campaign, then a DSA one)
/// with its artifact root under `work`.
pub fn run(specs: &[Spec], work: &Path, traced: bool, workers: usize) -> Result<Outcome, String> {
    let root = work.join("serve");
    let cfg = ServeConfig { root: root.clone(), workers, ..ServeConfig::default() };
    // The service stops on the process-wide shutdown flag (the one its
    // SIGINT/SIGTERM handler trips); clear it for this session.
    shutdown_flag().store(false, Ordering::SeqCst);
    let server = std::thread::spawn(move || serve(cfg));
    let session = client(specs, &root, traced, workers);
    shutdown_flag().store(true, Ordering::SeqCst);
    let served = server.join().map_err(|_| "the service thread panicked".to_string())?;
    shutdown_flag().store(false, Ordering::SeqCst);
    std::fs::remove_dir_all(&root).map_err(|e| format!("removing {}: {e}", root.display()))?;
    served?;
    session
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted.get(((sorted.len() as f64 - 1.0) * q).round() as usize).copied().unwrap_or(0.0)
}

fn client(specs: &[Spec], root: &Path, traced: bool, workers: usize) -> Result<Outcome, String> {
    let addr = wait_for_addr(root, Duration::from_secs(10))?;
    let canonical: Vec<CampaignSpec> =
        specs.iter().map(|s| CampaignSpec::parse(&s.text)).collect::<Result<_, _>>()?;
    let t0 = Instant::now();
    let mut submit_ms = Vec::new();
    for spec in &canonical {
        let t = Instant::now();
        let ack = request(&addr, &format!("SUBMIT {}", spec.render()))?;
        submit_ms.push(ms(t.elapsed()));
        if parse(&ack).ok().and_then(|v| v.get("ok").and_then(Json::as_bool)) != Some(true) {
            return Err(format!("SUBMIT {} refused: {ack}", spec.id));
        }
    }

    let mut status_ms = Vec::new();
    let mut setup_s = None;
    let mut done_s: Vec<Option<f64>> = vec![None; specs.len()];
    while done_s.iter().any(Option::is_none) {
        if t0.elapsed() > DEADLINE {
            return Err(format!("service campaigns not done after {DEADLINE:?}"));
        }
        std::thread::sleep(POLL);
        let t = Instant::now();
        let line = request(&addr, "STATUS")?;
        status_ms.push(ms(t.elapsed()));
        let now = t0.elapsed().as_secs_f64();
        let v = parse(&line).map_err(|e| format!("STATUS reply is not JSON ({e}): {line}"))?;
        let list = v.get("campaigns").and_then(Json::as_array).ok_or(format!("bad STATUS: {line}"))?;
        let mut running = 0;
        for c in list {
            let id = c.get("id").and_then(Json::as_str).unwrap_or_default();
            let Some(i) = canonical.iter().position(|s| s.id == id) else { continue };
            match c.get("phase").and_then(Json::as_str) {
                Some("running") => running += 1,
                Some("done") => {
                    running += 1;
                    done_s[i].get_or_insert(now);
                }
                Some("failed") => return Err(format!("service campaign {id} failed: {line}")),
                _ => {}
            }
        }
        if setup_s.is_none() && running == specs.len() {
            setup_s = Some(now);
        }
    }
    let done: Vec<f64> = done_s.into_iter().flatten().collect();
    let wall_s = done.iter().copied().fold(0.0, f64::max);
    let setup_s = setup_s.expect("every campaign is done, so every campaign was seen running");

    let mut cells = Vec::new();
    for (spec, parsed) in specs.iter().zip(&canonical) {
        let dir = root.join(&parsed.id);
        if !dir.join("DONE").is_file() {
            return Err(format!("{}: reported done but has no DONE marker", spec.key()));
        }
        let csv =
            std::fs::read_to_string(dir.join("records.csv")).map_err(|e| format!("{}: {e}", spec.id))?;
        cells.push(Cell::from_records_csv(spec.key(), &csv, spec.faults)?);
    }

    let layers = if traced {
        let mut obs = Vec::new();
        for spec in &canonical {
            obs.push(Obs::from_service_line(&request(&addr, &format!("METRICS {}", spec.id))?)?);
        }
        let server = Obs::from_service_line(&request(&addr, "PROFILE")?)?;
        let (cpu, dsa) = (&obs[0], &obs[1]);
        let mut m = zeroed();
        let (packed, forks) = cpu_layers(&mut m, cpu);
        dsa_layers(&mut m, dsa);
        reset_layers(&mut m, dsa, "dsa.reset_bytes");
        m.insert("core.ladder_build_s", cpu.total_s("LadderBuild") + dsa.total_s("LadderBuild"));
        m.insert("core.rung_restore_s", cpu.self_s("RungRestore") + dsa.self_s("RungRestore"));
        traffic(&mut m, &cells.iter().collect::<Vec<_>>(), packed, forks);
        status_ms.sort_by(f64::total_cmp);
        m.insert("serve.submit_ms", submit_ms.iter().sum::<f64>() / submit_ms.len() as f64);
        m.insert("serve.status_ms.p50", quantile(&status_ms, 0.5));
        m.insert("serve.status_ms.p95", quantile(&status_ms, 0.95));
        let shard = ServeConfig::default().shard;
        let shards: usize = specs.iter().map(|s| s.faults.div_ceil(shard)).sum();
        m.insert("serve.shards", shards as f64);
        // Span quantiles are per campaign; report the larger of the two.
        let worst = |phase: &str, q: fn(&crate::layers::Phase) -> u64| {
            obs.iter().map(|o| q(&o.phase(phase))).max().unwrap_or(0) as f64
        };
        m.insert("serve.journal_append_us.p50", worst("JournalAppend", |p| p.p50_us));
        m.insert("serve.journal_append_us.p95", worst("JournalAppend", |p| p.p95_us));
        m.insert("serve.journal_fsync_ms.p50", worst("JournalFsync", |p| p.p50_us) / 1e3);
        m.insert("serve.journal_fsync_ms.p95", worst("JournalFsync", |p| p.p95_us) / 1e3);
        m.insert("serve.fsyncs", obs.iter().map(|o| o.phase("JournalFsync").calls).sum::<u64>() as f64);
        m.insert("serve.idle_s", server.self_s("Idle"));
        m.insert("serve.cpu_done_s", done[0]);
        m.insert("serve.dsa_done_s", done[1]);
        // Idle spans run for the service's whole life, not just from the
        // first SUBMIT: measure against the service's own wall clock.
        let attributed = obs.iter().map(Obs::self_total_us).sum::<u64>() + server.self_total_us();
        coverage(&mut m, attributed, workers, server.wall_us as f64 / 1e6);
        Some(m)
    } else {
        None
    };
    Ok(Outcome { wall_s, setup_s, cells, layers })
}
