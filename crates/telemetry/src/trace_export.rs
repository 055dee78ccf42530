//! Exporters for [`crate::span`] data: Chrome trace-event JSON (loadable
//! in Perfetto / `chrome://tracing`) and the per-phase wall-time
//! attribution table as a human-readable text table, CSV and JSONL —
//! schema-versioned like every other artifact this crate writes.

use crate::export::json_string;
use crate::span::{PhaseReport, TraceDump};

/// Version of the span trace / phase report schemas. Bump on any shape
/// change; readers must reject versions they do not understand.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// Render a [`TraceDump`] as Chrome trace-event JSON (the "JSON object
/// format": a `traceEvents` array of complete `"X"` events plus
/// `thread_name` metadata, one track per lane). Timestamps are µs since
/// the collector epoch, which is what the trace-event spec expects.
pub fn render_chrome_trace(dump: &TraceDump) -> String {
    fn track(events: &mut Vec<String>, tid: u64, name: &str) {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
            json_string(name)
        ));
    }
    fn span(
        events: &mut Vec<String>,
        tid: u64,
        phase: &str,
        start_us: u64,
        dur_us: u64,
        run: Option<u64>,
    ) {
        let args = match run {
            Some(r) => format!(",\"args\":{{\"run\":{r}}}"),
            None => String::new(),
        };
        events.push(format!(
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":{},\"cat\":\"phase\",\"ts\":{start_us},\"dur\":{dur_us}{args}}}",
            json_string(phase)
        ));
    }
    let mut events: Vec<String> = Vec::new();
    for lane in std::iter::once(&dump.external).chain(dump.lanes.iter()) {
        track(&mut events, lane.tid, &lane.name);
        for ev in &lane.outer {
            span(&mut events, lane.tid, ev.phase.name(), ev.start_us, ev.dur_us, None);
        }
        for run in &lane.runs {
            for ev in &run.events {
                span(&mut events, lane.tid, ev.phase.name(), ev.start_us, ev.dur_us, Some(run.run));
            }
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"schema_version\":{TRACE_SCHEMA_VERSION}}},\"traceEvents\":[{}]}}",
        events.join(",")
    )
}

/// Render the attribution report as an aligned human table plus a
/// coverage line (attributed self time over worker lanes × collector
/// wall time).
pub fn render_phase_table(rep: &PhaseReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>10} {:>12} {:>12} {:>10} {:>10}\n",
        "phase", "calls", "total_us", "self_us", "p50_us", "p95_us"
    ));
    for r in &rep.rows {
        out.push_str(&format!(
            "{:<16} {:>10} {:>12} {:>12} {:>10} {:>10}\n",
            r.phase.name(),
            r.calls,
            r.total_us,
            r.self_us,
            r.p50_us,
            r.p95_us
        ));
    }
    out.push_str(&format!(
        "attributed {} µs of {} µs wall ({:.1}%) over {} worker lane(s)\n",
        rep.self_total_us(),
        rep.wall_us,
        rep.coverage() * 100.0,
        rep.lanes
    ));
    out
}

/// Render the attribution report as CSV, schema header first (same
/// convention as [`crate::export::render_csv`]).
pub fn render_phase_csv(rep: &PhaseReport) -> String {
    let mut out =
        format!("# schema_version={TRACE_SCHEMA_VERSION}\nphase,calls,total_us,self_us,p50_us,p95_us\n");
    for r in &rep.rows {
        out.push_str(&format!(
            "{},{},{},{},{},{}\n",
            r.phase.name(),
            r.calls,
            r.total_us,
            r.self_us,
            r.p50_us,
            r.p95_us
        ));
    }
    out
}

/// Render the attribution report as JSONL: a schema/header line carrying
/// the wall clock, then one object per phase.
pub fn render_phase_jsonl(rep: &PhaseReport) -> String {
    let mut out = format!(
        "{{\"type\":\"phase_report\",\"schema_version\":{TRACE_SCHEMA_VERSION},\"wall_us\":{},\"attributed_us\":{}}}\n",
        rep.wall_us,
        rep.self_total_us()
    );
    for r in &rep.rows {
        out.push_str(&format!(
            "{{\"type\":\"phase\",\"phase\":{},\"calls\":{},\"total_us\":{},\"self_us\":{},\"p50_us\":{},\"p95_us\":{}}}\n",
            json_string(r.phase.name()),
            r.calls,
            r.total_us,
            r.self_us,
            r.p50_us,
            r.p95_us
        ));
    }
    out
}

/// Render phase totals as one JSON object string (`{"SimStepCpu":{...}}`)
/// for embedding in protocol messages (the service `METRICS`/`PROFILE`
/// responses) and the campaign bench's schema-v3 scenario breakdowns.
pub fn render_phase_object(rep: &PhaseReport) -> String {
    let rows: Vec<String> = rep
        .rows
        .iter()
        .map(|r| {
            format!(
                "{}:{{\"calls\":{},\"total_us\":{},\"self_us\":{},\"p50_us\":{},\"p95_us\":{}}}",
                json_string(r.phase.name()),
                r.calls,
                r.total_us,
                r.self_us,
                r.p50_us,
                r.p95_us
            )
        })
        .collect();
    format!("{{{}}}", rows.join(","))
}

/// Render a Prometheus-style text exposition of a registry snapshot plus
/// phase totals: counters as-is, histograms as `_count`/`_sum` plus
/// cumulative `_bucket{le=...}` series, phase self/total/calls with a
/// `phase` label. Metric names are sanitised to `[a-zA-Z0-9_:]`.
pub fn render_prometheus(snap: &crate::registry::Snapshot, rep: &PhaseReport, labels: &str) -> String {
    let metric = |name: &str| -> String {
        let mut m = String::from("marvel_");
        for c in name.chars() {
            m.push(if c.is_ascii_alphanumeric() || c == ':' { c } else { '_' });
        }
        m
    };
    let with = |extra: &str| -> String {
        match (labels.is_empty(), extra.is_empty()) {
            (true, true) => String::new(),
            (true, false) => format!("{{{extra}}}"),
            (false, true) => format!("{{{labels}}}"),
            (false, false) => format!("{{{labels},{extra}}}"),
        }
    };
    let mut out = String::new();
    for (name, v) in &snap.counters {
        out.push_str(&format!("{}{} {v}\n", metric(name), with("")));
    }
    for (name, h) in &snap.histograms {
        let base = metric(name);
        let mut cum = 0u64;
        for &(le, n) in &h.buckets {
            cum += n;
            let le = if le == u64::MAX { "+Inf".to_string() } else { le.to_string() };
            out.push_str(&format!("{base}_bucket{} {cum}\n", with(&format!("le=\"{le}\""))));
        }
        if h.buckets.last().map(|&(le, _)| le) != Some(u64::MAX) {
            out.push_str(&format!("{base}_bucket{} {cum}\n", with("le=\"+Inf\"")));
        }
        out.push_str(&format!("{base}_count{} {}\n", with(""), h.count));
        out.push_str(&format!("{base}_sum{} {}\n", with(""), h.sum));
    }
    for r in &rep.rows {
        let phase = with(&format!("phase=\"{}\"", r.phase.name()));
        out.push_str(&format!("marvel_phase_calls{phase} {}\n", r.calls));
        out.push_str(&format!("marvel_phase_total_microseconds{phase} {}\n", r.total_us));
        out.push_str(&format!("marvel_phase_self_microseconds{phase} {}\n", r.self_us));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::span::{PhaseId, SpanCollector};

    fn sample_collector() -> SpanCollector {
        let c = SpanCollector::enabled();
        let mut lane = c.lane("worker-0");
        lane.begin_run(3);
        lane.enter(PhaseId::SimStepCpu);
        lane.enter(PhaseId::ConvergenceDiff);
        lane.exit(PhaseId::ConvergenceDiff);
        lane.exit(PhaseId::SimStepCpu);
        lane.end_run();
        drop(lane);
        c.time(PhaseId::GoldenPrep, || {});
        c
    }

    #[test]
    fn chrome_trace_has_tracks_and_complete_events() {
        let c = sample_collector();
        let json = render_chrome_trace(&c.trace());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\""), "{json}");
        assert!(json.contains("\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"M\""), "{json}");
        assert!(json.contains("\"name\":\"thread_name\""), "{json}");
        assert!(json.contains("\"args\":{\"name\":\"worker-0\"}"), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"name\":\"SimStepCpu\""), "{json}");
        assert!(json.contains("\"args\":{\"run\":3}"), "{json}");
        assert!(json.contains("\"name\":\"GoldenPrep\""), "{json}");
        assert!(json.contains(&format!("\"schema_version\":{TRACE_SCHEMA_VERSION}")), "{json}");
        assert!(!json.contains('\n'));
    }

    #[test]
    fn phase_renderings_carry_schema_and_rows() {
        let c = sample_collector();
        let rep = c.report();
        let csv = render_phase_csv(&rep);
        assert!(csv.starts_with(&format!("# schema_version={TRACE_SCHEMA_VERSION}\n")));
        assert!(csv.contains("SimStepCpu,1,"), "{csv}");
        let jsonl = render_phase_jsonl(&rep);
        assert!(jsonl.lines().next().unwrap().contains("\"type\":\"phase_report\""), "{jsonl}");
        assert!(jsonl.contains("\"phase\":\"ConvergenceDiff\""), "{jsonl}");
        let table = render_phase_table(&rep);
        assert!(table.contains("GoldenPrep"), "{table}");
        assert!(table.contains("attributed"), "{table}");
        let obj = render_phase_object(&rep);
        assert!(obj.starts_with('{') && obj.ends_with('}'), "{obj}");
        assert!(obj.contains("\"SimStepCpu\":{\"calls\":1"), "{obj}");
    }

    #[test]
    fn prometheus_exposition_is_sanitised_and_cumulative() {
        let reg = Registry::new();
        reg.publish("campaign.runs", 10);
        let h = reg.histogram("journal.fsync_ns").unwrap();
        h.record(3);
        h.record(100);
        let c = sample_collector();
        let text = render_prometheus(&reg.snapshot(), &c.report(), "campaign=\"it-fft\"");
        assert!(text.contains("marvel_campaign_runs{campaign=\"it-fft\"} 10"), "{text}");
        assert!(text.contains("marvel_journal_fsync_ns_count{campaign=\"it-fft\"} 2"), "{text}");
        assert!(text.contains("marvel_journal_fsync_ns_sum{campaign=\"it-fft\"} 103"), "{text}");
        assert!(
            text.contains("marvel_journal_fsync_ns_bucket{campaign=\"it-fft\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("marvel_phase_self_microseconds{campaign=\"it-fft\",phase=\"SimStepCpu\"}"),
            "{text}"
        );
        // Cumulative buckets: the le="3" bucket holds 1, +Inf holds 2.
        let b3 = text.lines().find(|l| l.contains("le=\"3\"")).expect("bucket for value 3");
        assert!(b3.ends_with(" 1"), "{b3}");
    }
}
