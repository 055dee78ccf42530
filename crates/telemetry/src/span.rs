//! marvel-spans: structured phase tracing for the campaign stack.
//!
//! A [`SpanCollector`] owns the shared aggregation state (per-phase call
//! counts, total/self wall time, duration histograms) behind an `Arc`,
//! mirroring [`crate::Registry`]'s disabled-is-a-single-branch idiom: a
//! default collector hands out no-op [`SpanLane`]s whose `enter`/`exit`
//! hot path is one `Option` check, so instrumentation stays compiled in
//! unconditionally.
//!
//! Each worker thread owns one [`SpanLane`]: a thread-local span *stack*
//! (enter/exit pairs, strictly nested) recording monotonic-clock deltas
//! against the collector's epoch. Completed spans land in preallocated
//! per-lane buffers — no allocation on the enter/exit hot path — and the
//! lane merges into the collector when it is dropped (worker exit).
//!
//! Per-run span *trees* are kept only for the K slowest runs of each lane
//! ([`SpanLane::begin_run`]/[`end_run`](SpanLane::end_run)); everything
//! else contributes to the aggregate tables only. This bounds trace
//! memory while keeping full nesting detail for exactly the runs a
//! throughput investigation wants to look at.
//!
//! Invariants (pinned by tests and documented in DESIGN.md):
//! * spans nest strictly — `exit` must match the innermost `enter`;
//! * a lane is single-threaded — only the aggregate tables are shared;
//! * phase *counts* are deterministic for a given campaign config
//!   (wall times are not), so trace runs are comparable across machines.

use crate::hist::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of distinct [`PhaseId`]s (array sizes below).
pub const PHASE_COUNT: usize = 17;

/// Static identifiers for every phase of the campaign pipeline, CPU and
/// DSA sides included. One enum across the whole stack keeps attribution
/// tables comparable between workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseId {
    /// Golden reference preparation (warmup + fault-free run).
    GoldenPrep,
    /// Checkpoint-ladder construction (CPU or DSA).
    LadderBuild,
    /// Establishing a run's base state by deep clone (checkpoint or rung).
    RungRestore,
    /// Zero-copy dirty reset against the pristine base.
    DirtyReset,
    /// Arming the fault: prefix advance to the injection cycle + the flip
    /// (transients) or stuck-at application (permanents).
    Inject,
    /// Post-injection cycle-level CPU simulation to a terminal outcome.
    SimStepCpu,
    /// Lane-packed CPU pass: one shared golden execution carrying up to
    /// 64 bit-plane fault lanes, retiring them in place.
    SimStepLane,
    /// A lane left its pass (divergence reached control flow, a memory
    /// address, store data or a corrupt byte was read) and is handed to
    /// an ordinary scalar re-run.
    LaneFork,
    /// Post-injection DSA simulation (DMA-in → compute → DMA-out).
    SimStepDsa,
    /// Static CDFG schedule construction plus golden firing-trace
    /// recording during DSA golden prep (the event engine's inputs).
    ScheduleBuild,
    /// Event-driven DSA stepping under golden-trace replay — the
    /// sub-attribution of [`PhaseId::SimStepDsa`] spent inside the
    /// memoizing engine rather than the cycle-exact oracle.
    TraceReplay,
    /// Dirty-diff state comparison at a ladder-rung crossing.
    ConvergenceDiff,
    /// Handing a finished record to the sink (journal append, slot store).
    ExportRecord,
    /// Journal record encode + buffered write.
    JournalAppend,
    /// Journal durability barrier (`sync_data`).
    JournalFsync,
    /// Claiming the next run from the shared schedule.
    Schedule,
    /// Service worker poll loop with no runnable campaign.
    Idle,
}

impl PhaseId {
    /// Every phase, in declaration order (stable across releases of the
    /// same trace schema version).
    pub const ALL: [PhaseId; PHASE_COUNT] = [
        PhaseId::GoldenPrep,
        PhaseId::LadderBuild,
        PhaseId::RungRestore,
        PhaseId::DirtyReset,
        PhaseId::Inject,
        PhaseId::SimStepCpu,
        PhaseId::SimStepLane,
        PhaseId::LaneFork,
        PhaseId::SimStepDsa,
        PhaseId::ScheduleBuild,
        PhaseId::TraceReplay,
        PhaseId::ConvergenceDiff,
        PhaseId::ExportRecord,
        PhaseId::JournalAppend,
        PhaseId::JournalFsync,
        PhaseId::Schedule,
        PhaseId::Idle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            PhaseId::GoldenPrep => "GoldenPrep",
            PhaseId::LadderBuild => "LadderBuild",
            PhaseId::RungRestore => "RungRestore",
            PhaseId::DirtyReset => "DirtyReset",
            PhaseId::Inject => "Inject",
            PhaseId::SimStepCpu => "SimStepCpu",
            PhaseId::SimStepLane => "SimStepLane",
            PhaseId::LaneFork => "LaneFork",
            PhaseId::SimStepDsa => "SimStepDsa",
            PhaseId::ScheduleBuild => "ScheduleBuild",
            PhaseId::TraceReplay => "TraceReplay",
            PhaseId::ConvergenceDiff => "ConvergenceDiff",
            PhaseId::ExportRecord => "ExportRecord",
            PhaseId::JournalAppend => "JournalAppend",
            PhaseId::JournalFsync => "JournalFsync",
            PhaseId::Schedule => "Schedule",
            PhaseId::Idle => "Idle",
        }
    }

    fn index(self) -> usize {
        Self::ALL.iter().position(|&p| p == self).expect("phase is in ALL")
    }
}

/// One completed span: phase plus `[start, start+dur)` in microseconds
/// since the collector's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    pub phase: PhaseId,
    pub start_us: u64,
    pub dur_us: u64,
}

/// The retained span tree of one slowest-K run: mask index, wall window
/// and every span completed inside the run scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunTree {
    /// Mask index of the run (campaign order, not claim order).
    pub run: u64,
    pub start_us: u64,
    pub dur_us: u64,
    pub events: Vec<SpanEvent>,
}

/// Merged dump of one lane: worker identity, loose (non-run) spans, the
/// slowest-K run trees, and how many loose spans the bounded buffer shed.
#[derive(Debug, Clone)]
pub struct LaneDump {
    pub tid: u64,
    pub name: String,
    pub outer: Vec<SpanEvent>,
    pub runs: Vec<RunTree>,
    pub dropped: u64,
}

/// Everything needed to render a Chrome trace: one track per worker lane
/// plus the shared track for one-off phases timed via
/// [`SpanCollector::time`] (golden prep, ladder build, journal I/O).
#[derive(Debug, Clone)]
pub struct TraceDump {
    pub external: LaneDump,
    pub lanes: Vec<LaneDump>,
}

/// One row of the wall-time attribution table.
#[derive(Debug, Clone)]
pub struct PhaseRow {
    pub phase: PhaseId,
    pub calls: u64,
    /// Wall time inside the phase, children included.
    pub total_us: u64,
    /// Wall time inside the phase, children excluded.
    pub self_us: u64,
    /// Per-call total-duration quantiles (power-of-two bucket bounds).
    pub p50_us: u64,
    pub p95_us: u64,
}

/// Point-in-time attribution report: every phase with at least one call,
/// sorted by self time descending, plus the collector wall clock.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    pub rows: Vec<PhaseRow>,
    /// Microseconds since the collector was created (its epoch).
    pub wall_us: u64,
    /// Most worker lanes ever open at once (at least 1): the number of
    /// threads that could accrue self time in parallel.
    pub lanes: u64,
}

impl PhaseReport {
    /// Sum of self time across phases — the attributed portion of the
    /// campaign's work.
    pub fn self_total_us(&self) -> u64 {
        self.rows.iter().map(|r| r.self_us).sum()
    }

    /// Attributed fraction of the time the worker lanes had: self time
    /// summed over every lane, over `lanes` × wall clock. Reads the same
    /// at any worker count — about 1.0 when every lane is busy inside
    /// some phase for the whole run.
    pub fn coverage(&self) -> f64 {
        self.self_total_us() as f64 / (self.lanes.max(1) * self.wall_us.max(1)) as f64
    }

    pub fn calls(&self, phase: PhaseId) -> u64 {
        self.rows.iter().find(|r| r.phase == phase).map_or(0, |r| r.calls)
    }
}

#[derive(Debug)]
struct PhaseAgg {
    calls: AtomicU64,
    total_us: AtomicU64,
    self_us: AtomicU64,
}

#[derive(Debug)]
struct SpanShared {
    epoch: Instant,
    ring_cap: usize,
    slow_k: usize,
    agg: [PhaseAgg; PHASE_COUNT],
    hist: [Histogram; PHASE_COUNT],
    external: Mutex<(Vec<SpanEvent>, u64)>,
    lanes: Mutex<Vec<LaneDump>>,
    next_tid: AtomicU64,
    open_lanes: AtomicU64,
    peak_lanes: AtomicU64,
}

/// Shared handle to a campaign's span state. `Default` is disabled: every
/// lane it hands out is a no-op whose hot path is one branch, and
/// [`SpanCollector::time`] runs its closure unmeasured.
#[derive(Debug, Clone, Default)]
pub struct SpanCollector {
    shared: Option<Arc<SpanShared>>,
}

/// Default bound on loose (non-run) spans retained per lane.
pub const DEFAULT_RING_CAP: usize = 16 * 1024;
/// Default slowest-K run trees retained per lane.
pub const DEFAULT_SLOW_K: usize = 8;

impl SpanCollector {
    /// An enabled collector with explicit retention bounds.
    pub fn new(ring_cap: usize, slow_k: usize) -> SpanCollector {
        SpanCollector {
            shared: Some(Arc::new(SpanShared {
                epoch: Instant::now(),
                ring_cap,
                slow_k,
                agg: [const {
                    PhaseAgg {
                        calls: AtomicU64::new(0),
                        total_us: AtomicU64::new(0),
                        self_us: AtomicU64::new(0),
                    }
                }; PHASE_COUNT],
                hist: [const { Histogram::new() }; PHASE_COUNT],
                external: Mutex::new((Vec::new(), 0)),
                lanes: Mutex::new(Vec::new()),
                next_tid: AtomicU64::new(1),
                open_lanes: AtomicU64::new(0),
                peak_lanes: AtomicU64::new(0),
            })),
        }
    }

    /// An enabled collector with the default retention bounds.
    pub fn enabled() -> SpanCollector {
        SpanCollector::new(DEFAULT_RING_CAP, DEFAULT_SLOW_K)
    }

    /// The disabled collector (same as `Default`).
    pub fn disabled() -> SpanCollector {
        SpanCollector::default()
    }

    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Microseconds since the collector was created. 0 when disabled.
    pub fn uptime_us(&self) -> u64 {
        self.shared.as_ref().map_or(0, |s| s.epoch.elapsed().as_micros() as u64)
    }

    /// Open a span lane for one worker thread. Lanes from a disabled
    /// collector are free to construct and no-ops to use.
    pub fn lane(&self, name: &str) -> SpanLane {
        let (tid, name) = match &self.shared {
            Some(s) => {
                let open = s.open_lanes.fetch_add(1, Ordering::Relaxed) + 1;
                s.peak_lanes.fetch_max(open, Ordering::Relaxed);
                (s.next_tid.fetch_add(1, Ordering::Relaxed), name.to_string())
            }
            None => (0, String::new()),
        };
        SpanLane {
            shared: self.shared.clone(),
            tid,
            name,
            stack: Vec::with_capacity(8),
            scratch: Vec::with_capacity(64),
            outer: Vec::new(),
            dropped: 0,
            kept: Vec::new(),
            run: None,
        }
    }

    /// Time a one-off phase outside any lane (golden prep on the main
    /// thread, journal I/O under a state lock, service idle polls). The
    /// span lands on the shared "external" trace track and in the
    /// aggregate tables; when disabled, `f` runs unmeasured.
    pub fn time<T>(&self, phase: PhaseId, f: impl FnOnce() -> T) -> T {
        let Some(sh) = &self.shared else { return f() };
        let start_us = sh.epoch.elapsed().as_micros() as u64;
        let out = f();
        let dur_us = (sh.epoch.elapsed().as_micros() as u64).saturating_sub(start_us);
        sh.aggregate(phase, dur_us, dur_us);
        let mut ext = sh.external.lock().unwrap();
        if ext.0.len() < sh.ring_cap {
            ext.0.push(SpanEvent { phase, start_us, dur_us });
        } else {
            ext.1 += 1;
        }
        out
    }

    /// Build the wall-time attribution table from the live aggregates
    /// (no lane flush required — the tables are updated at span exit).
    pub fn report(&self) -> PhaseReport {
        let Some(sh) = &self.shared else {
            return PhaseReport { rows: Vec::new(), wall_us: 0, lanes: 1 };
        };
        let mut rows: Vec<PhaseRow> = PhaseId::ALL
            .iter()
            .filter_map(|&phase| {
                let a = &sh.agg[phase.index()];
                let calls = a.calls.load(Ordering::Relaxed);
                if calls == 0 {
                    return None;
                }
                let h = sh.hist[phase.index()].snapshot();
                Some(PhaseRow {
                    phase,
                    calls,
                    total_us: a.total_us.load(Ordering::Relaxed),
                    self_us: a.self_us.load(Ordering::Relaxed),
                    p50_us: h.quantile(0.5),
                    p95_us: h.quantile(0.95),
                })
            })
            .collect();
        rows.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.phase.index().cmp(&b.phase.index())));
        PhaseReport {
            rows,
            wall_us: sh.epoch.elapsed().as_micros() as u64,
            lanes: sh.peak_lanes.load(Ordering::Relaxed).max(1),
        }
    }

    /// Snapshot every flushed lane plus the external track. Lanes merge
    /// when dropped, so workers must have exited (the drive call
    /// returned) for their spans to appear here.
    pub fn trace(&self) -> TraceDump {
        let external = match &self.shared {
            Some(sh) => {
                let ext = sh.external.lock().unwrap();
                LaneDump {
                    tid: 0,
                    name: "main".to_string(),
                    outer: ext.0.clone(),
                    runs: Vec::new(),
                    dropped: ext.1,
                }
            }
            None => LaneDump {
                tid: 0,
                name: "main".to_string(),
                outer: Vec::new(),
                runs: Vec::new(),
                dropped: 0,
            },
        };
        let mut lanes = match &self.shared {
            Some(sh) => sh.lanes.lock().unwrap().clone(),
            None => Vec::new(),
        };
        lanes.sort_by_key(|l| l.tid);
        TraceDump { external, lanes }
    }
}

impl SpanShared {
    fn aggregate(&self, phase: PhaseId, dur_us: u64, self_us: u64) {
        let a = &self.agg[phase.index()];
        a.calls.fetch_add(1, Ordering::Relaxed);
        a.total_us.fetch_add(dur_us, Ordering::Relaxed);
        a.self_us.fetch_add(self_us, Ordering::Relaxed);
        self.hist[phase.index()].record(dur_us);
    }
}

#[derive(Debug)]
struct Frame {
    phase: PhaseId,
    start_us: u64,
    /// Wall time spent in completed child spans (for self-time).
    child_us: u64,
}

/// One worker thread's span stack and retention buffers. Not `Sync` by
/// design: all mutation is single-threaded; only span *exit* touches the
/// shared atomics. Dropping the lane merges its buffers into the
/// collector.
#[derive(Debug)]
pub struct SpanLane {
    shared: Option<Arc<SpanShared>>,
    tid: u64,
    name: String,
    stack: Vec<Frame>,
    /// Completed spans of the current run scope.
    scratch: Vec<SpanEvent>,
    /// Completed spans outside any run scope (bounded by `ring_cap`).
    outer: Vec<SpanEvent>,
    dropped: u64,
    /// Slowest-K run trees seen so far.
    kept: Vec<RunTree>,
    run: Option<(u64, u64)>,
}

impl SpanLane {
    /// A free-standing no-op lane (for the un-traced oracle entry points).
    pub fn disabled() -> SpanLane {
        SpanCollector::disabled().lane("")
    }

    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    fn now_us(sh: &SpanShared) -> u64 {
        sh.epoch.elapsed().as_micros() as u64
    }

    /// Open a span. Must be balanced by [`exit`](Self::exit) (or
    /// [`cancel`](Self::cancel)) with the same phase, innermost first.
    #[inline]
    pub fn enter(&mut self, phase: PhaseId) {
        let Some(sh) = &self.shared else { return };
        let start_us = Self::now_us(sh);
        self.stack.push(Frame { phase, start_us, child_us: 0 });
    }

    /// Close the innermost span: aggregate its total/self time and record
    /// the event in the current run scope (or the loose buffer).
    #[inline]
    pub fn exit(&mut self, phase: PhaseId) {
        let Some(sh) = &self.shared else { return };
        let now = Self::now_us(sh);
        let frame = self.stack.pop().expect("span exit without matching enter");
        debug_assert_eq!(frame.phase, phase, "span exit must match the innermost enter");
        let dur_us = now.saturating_sub(frame.start_us);
        // Microsecond rounding can make child sums exceed the parent by
        // a few µs; clamp rather than wrap.
        let self_us = dur_us.saturating_sub(frame.child_us);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_us += dur_us;
        }
        sh.aggregate(phase, dur_us, self_us);
        let ev = SpanEvent { phase, start_us: frame.start_us, dur_us };
        if self.run.is_some() {
            self.scratch.push(ev);
        } else if self.outer.len() < sh.ring_cap {
            self.outer.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Discard the innermost span without recording it (a claim that
    /// found the schedule drained).
    #[inline]
    pub fn cancel(&mut self, phase: PhaseId) {
        if self.shared.is_none() {
            return;
        }
        let frame = self.stack.pop().expect("span cancel without matching enter");
        debug_assert_eq!(frame.phase, phase, "span cancel must match the innermost enter");
    }

    /// Open a run scope for mask index `run`: subsequent spans build this
    /// run's tree until [`end_run`](Self::end_run) decides whether it is
    /// one of the lane's slowest K.
    #[inline]
    pub fn begin_run(&mut self, run: u64) {
        let Some(sh) = &self.shared else { return };
        debug_assert!(self.run.is_none(), "run scopes do not nest");
        self.scratch.clear();
        self.run = Some((run, Self::now_us(sh)));
    }

    /// Close the run scope. The tree is retained only if the run ranks
    /// among this lane's K slowest so far; otherwise its events are
    /// discarded (aggregates were already updated at each span exit).
    pub fn end_run(&mut self) {
        let Some(sh) = &self.shared else { return };
        let (run, start_us) = self.run.take().expect("end_run without begin_run");
        let dur_us = Self::now_us(sh).saturating_sub(start_us);
        if self.kept.len() < sh.slow_k {
            let events = std::mem::take(&mut self.scratch);
            self.kept.push(RunTree { run, start_us, dur_us, events });
            return;
        }
        let min = match self.kept.iter().enumerate().min_by_key(|(_, t)| t.dur_us) {
            Some((i, t)) if t.dur_us < dur_us => i,
            _ => {
                self.scratch.clear();
                return;
            }
        };
        // Swap buffers with the evicted tree so neither path reallocates.
        let slot = &mut self.kept[min];
        let recycled = std::mem::replace(&mut slot.events, std::mem::take(&mut self.scratch));
        slot.run = run;
        slot.start_us = start_us;
        slot.dur_us = dur_us;
        self.scratch = recycled;
        self.scratch.clear();
    }
}

impl Drop for SpanLane {
    fn drop(&mut self) {
        let Some(sh) = &self.shared else { return };
        debug_assert!(self.stack.is_empty(), "lane dropped with open spans");
        sh.open_lanes.fetch_sub(1, Ordering::Relaxed);
        let mut kept = std::mem::take(&mut self.kept);
        kept.sort_by_key(|t| std::cmp::Reverse(t.dur_us));
        sh.lanes.lock().unwrap().push(LaneDump {
            tid: self.tid,
            name: std::mem::take(&mut self.name),
            outer: std::mem::take(&mut self.outer),
            runs: kept,
            dropped: self.dropped,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_is_inert() {
        let c = SpanCollector::disabled();
        assert!(!c.is_enabled());
        let mut lane = c.lane("w");
        lane.enter(PhaseId::SimStepCpu);
        lane.exit(PhaseId::SimStepCpu);
        lane.begin_run(0);
        lane.end_run();
        assert_eq!(c.time(PhaseId::GoldenPrep, || 42), 42);
        assert!(c.report().rows.is_empty());
        let t = c.trace();
        assert!(t.lanes.is_empty() && t.external.outer.is_empty());
    }

    #[test]
    fn nesting_attributes_self_time_to_the_right_phase() {
        let c = SpanCollector::enabled();
        let mut lane = c.lane("w");
        lane.enter(PhaseId::SimStepCpu);
        lane.enter(PhaseId::ConvergenceDiff);
        std::thread::sleep(std::time::Duration::from_millis(2));
        lane.exit(PhaseId::ConvergenceDiff);
        lane.exit(PhaseId::SimStepCpu);
        drop(lane);
        let rep = c.report();
        let sim = rep.rows.iter().find(|r| r.phase == PhaseId::SimStepCpu).unwrap();
        let conv = rep.rows.iter().find(|r| r.phase == PhaseId::ConvergenceDiff).unwrap();
        assert_eq!(sim.calls, 1);
        assert_eq!(conv.calls, 1);
        // The child's wall time is excluded from the parent's self time
        // but included in its total.
        assert!(sim.total_us >= conv.total_us);
        assert!(sim.self_us <= sim.total_us - conv.self_us + 1);
        assert!(conv.self_us >= 1_000, "slept ≥2ms inside the child span");
    }

    #[test]
    fn slowest_k_runs_are_retained_with_their_trees() {
        let c = SpanCollector::new(1024, 2);
        let mut lane = c.lane("w");
        // Three runs with increasing durations; K=2 keeps the last two.
        for (i, sleep_ms) in [(0u64, 0u64), (1, 3), (2, 6)] {
            lane.begin_run(i);
            lane.enter(PhaseId::SimStepCpu);
            if sleep_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
            }
            lane.exit(PhaseId::SimStepCpu);
            lane.end_run();
        }
        drop(lane);
        let t = c.trace();
        assert_eq!(t.lanes.len(), 1);
        let mut runs: Vec<u64> = t.lanes[0].runs.iter().map(|r| r.run).collect();
        runs.sort();
        assert_eq!(runs, vec![1, 2]);
        assert!(t.lanes[0].runs.iter().all(|r| !r.events.is_empty()));
        // Aggregates still cover all three runs.
        assert_eq!(c.report().calls(PhaseId::SimStepCpu), 3);
    }

    #[test]
    fn loose_span_buffer_is_bounded() {
        let c = SpanCollector::new(4, 1);
        let mut lane = c.lane("w");
        for _ in 0..10 {
            lane.enter(PhaseId::Schedule);
            lane.exit(PhaseId::Schedule);
        }
        drop(lane);
        let t = c.trace();
        assert_eq!(t.lanes[0].outer.len(), 4);
        assert_eq!(t.lanes[0].dropped, 6);
        // Aggregation is unaffected by retention bounds.
        assert_eq!(c.report().calls(PhaseId::Schedule), 10);
    }

    #[test]
    fn cancel_discards_the_span() {
        let c = SpanCollector::enabled();
        let mut lane = c.lane("w");
        lane.enter(PhaseId::Schedule);
        lane.cancel(PhaseId::Schedule);
        drop(lane);
        assert_eq!(c.report().calls(PhaseId::Schedule), 0);
        assert!(c.trace().lanes[0].outer.is_empty());
    }

    #[test]
    fn external_timing_lands_on_the_shared_track() {
        let c = SpanCollector::enabled();
        let v = c.time(PhaseId::GoldenPrep, || 7);
        assert_eq!(v, 7);
        let t = c.trace();
        assert_eq!(t.external.outer.len(), 1);
        assert_eq!(t.external.outer[0].phase, PhaseId::GoldenPrep);
        assert_eq!(c.report().calls(PhaseId::GoldenPrep), 1);
    }

    #[test]
    fn report_coverage_is_attributed_over_wall() {
        let c = SpanCollector::enabled();
        c.time(PhaseId::GoldenPrep, || std::thread::sleep(std::time::Duration::from_millis(5)));
        let rep = c.report();
        assert!(rep.wall_us >= 5_000);
        assert!(rep.self_total_us() >= 5_000);
        assert!(rep.coverage() > 0.0 && rep.coverage() <= 1.05);
    }

    #[test]
    fn coverage_normalises_by_concurrent_lanes() {
        let c = SpanCollector::enabled();
        // Two lanes busy inside a phase for the collector's whole life.
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for k in 0..2 {
                let (c, barrier) = (&c, &barrier);
                s.spawn(move || {
                    let mut lane = c.lane(&format!("w{k}"));
                    barrier.wait();
                    lane.enter(PhaseId::SimStepCpu);
                    std::thread::sleep(std::time::Duration::from_millis(100));
                    lane.exit(PhaseId::SimStepCpu);
                });
            }
        });
        let rep = c.report();
        assert_eq!(rep.lanes, 2);
        let cov = rep.coverage();
        assert!((0.8..=1.05).contains(&cov), "2 busy lanes cover {:.0}%, not ~100%", cov * 100.0);
        // A later single-lane phase does not lower the lane count.
        drop(c.lane("late"));
        assert_eq!(c.report().lanes, 2);
    }
}
