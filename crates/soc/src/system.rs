//! The heterogeneous system: core + RAM + console + interrupt controller +
//! hosted accelerators, with a unified fault-injection surface and
//! clone-based checkpointing.

use crate::hosted::HostedAccel;
use crate::irq::{IrqController, IrqCtrlKind};
use crate::isr::build_isr;
use marvel_cpu::{
    Bus, Core, CoreConfig, CoreDirtyMarks, DirtyMap, DirtyMarks, FaultFate, LaneEngine, LaneEvent,
    StepEvent,
};
use marvel_ir::memmap::{
    ACCEL_MMR_BASE, ACCEL_MMR_STRIDE, CONSOLE_ADDR, IRQ_CTRL_BASE, IRQ_CTRL_SIZE, IRQ_VECTOR, RAM_BASE,
    RAM_SIZE,
};
use marvel_ir::Binary;
use marvel_isa::Trap;

/// All fault-injection targets of the heterogeneous SoC.
///
/// CPU-side targets follow the paper's Section IV-E list; DSA-side targets
/// are the Table IV scratchpads, register banks and MMR blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// Integer physical register file.
    PrfInt,
    /// Floating-point physical register file.
    PrfFp,
    /// L1 instruction cache data array.
    L1I,
    /// L1 data cache data array.
    L1D,
    /// L2 cache data array.
    L2,
    LoadQueue,
    StoreQueue,
    /// Reorder-buffer result fields.
    Rob,
    /// Speculative rename map.
    RenameMap,
    /// Scratchpad `mem` of accelerator `accel`.
    Spm {
        accel: usize,
        mem: usize,
    },
    /// Register bank `mem` of accelerator `accel`.
    RegBank {
        accel: usize,
        mem: usize,
    },
    /// MMR block of accelerator `accel`.
    Mmr {
        accel: usize,
    },
}

impl Target {
    /// CPU-side targets (no accelerator indices needed).
    pub const CPU_ALL: [Target; 9] = [
        Target::PrfInt,
        Target::PrfFp,
        Target::L1I,
        Target::L1D,
        Target::L2,
        Target::LoadQueue,
        Target::StoreQueue,
        Target::Rob,
        Target::RenameMap,
    ];

    pub fn name(&self) -> String {
        match self {
            Target::PrfInt => "PhysRegFile(Int)".into(),
            Target::PrfFp => "PhysRegFile(FP)".into(),
            Target::L1I => "L1I".into(),
            Target::L1D => "L1D".into(),
            Target::L2 => "L2".into(),
            Target::LoadQueue => "LoadQueue".into(),
            Target::StoreQueue => "StoreQueue".into(),
            Target::Rob => "ROB".into(),
            Target::RenameMap => "RenameMap".into(),
            Target::Spm { accel, mem } => format!("SPM[{accel}.{mem}]"),
            Target::RegBank { accel, mem } => format!("RegBank[{accel}.{mem}]"),
            Target::Mmr { accel } => format!("MMR[{accel}]"),
        }
    }
}

/// Devices + memory, split from the core so `Core::tick(&mut bus)` can
/// borrow them while the core is borrowed mutably.
#[derive(Debug, Clone)]
pub struct SocBus {
    pub ram: Vec<u8>,
    pub console: Vec<u8>,
    pub irq_ctrl: IrqController,
    pub accels: Vec<HostedAccel>,
    /// marvel-taint shadow of `ram`, one byte of taint flags per data
    /// byte (empty = tracking off). Moves with cache line traffic and
    /// DMA transfers but never influences the data plane.
    pub ram_shadow: Vec<u8>,
    /// Dirty-page journal over `ram` (4 KiB pages) for the zero-copy
    /// campaign reset (`None` = tracking off). `write_line` marks pages;
    /// DMA ToRam drains, which write RAM through a raw slice, are folded
    /// in from the engines' watermarks by [`System::reset_from`].
    ram_journal: Option<Box<DirtyMap>>,
}

/// RAM dirty-page granularity (log2 of the 4 KiB page).
const RAM_PAGE_SHIFT: usize = 12;

impl SocBus {
    fn accel_reg(&self, addr: u64) -> Option<(usize, usize)> {
        if addr < ACCEL_MMR_BASE {
            return None;
        }
        let idx = ((addr - ACCEL_MMR_BASE) / ACCEL_MMR_STRIDE) as usize;
        if idx >= self.accels.len() {
            return None;
        }
        let off = (addr - ACCEL_MMR_BASE) % ACCEL_MMR_STRIDE;
        if !off.is_multiple_of(8) {
            return None;
        }
        Some((idx, (off / 8) as usize))
    }

    /// Advance all devices one cycle; posts accelerator IRQs.
    fn tick_devices(&mut self) {
        let ram = &mut self.ram;
        let shadow = &mut self.ram_shadow;
        for (i, a) in self.accels.iter_mut().enumerate() {
            if shadow.is_empty() {
                a.tick(ram);
            } else {
                a.tick_tainted(ram, Some(&mut shadow[..]));
            }
            if a.irq_out {
                a.irq_out = false;
                self.irq_ctrl.post(i as u32 + 1);
            }
        }
    }
}

impl Bus for SocBus {
    fn read_line(&mut self, addr: u64, buf: &mut [u8]) -> bool {
        if !self.is_cacheable(addr) || !self.is_cacheable(addr + buf.len() as u64 - 1) {
            return false;
        }
        let off = (addr - RAM_BASE) as usize;
        buf.copy_from_slice(&self.ram[off..off + buf.len()]);
        true
    }

    fn write_line(&mut self, addr: u64, data: &[u8]) -> bool {
        if !self.is_cacheable(addr) || !self.is_cacheable(addr + data.len() as u64 - 1) {
            return false;
        }
        let off = (addr - RAM_BASE) as usize;
        if let Some(j) = &mut self.ram_journal {
            j.mark(off >> RAM_PAGE_SHIFT);
            j.mark((off + data.len() - 1) >> RAM_PAGE_SHIFT);
        }
        self.ram[off..off + data.len()].copy_from_slice(data);
        true
    }

    fn device_read(&mut self, addr: u64, _size: u8) -> Option<u64> {
        if (IRQ_CTRL_BASE..IRQ_CTRL_BASE + IRQ_CTRL_SIZE).contains(&addr) {
            return self.irq_ctrl.mmio_read(addr - IRQ_CTRL_BASE);
        }
        if let Some((idx, reg)) = self.accel_reg(addr) {
            return self.accels[idx].mmr_read(reg);
        }
        None
    }

    fn device_write(&mut self, addr: u64, _size: u8, val: u64) -> Option<()> {
        if addr == CONSOLE_ADDR {
            self.console.push(val as u8);
            return Some(());
        }
        if (IRQ_CTRL_BASE..IRQ_CTRL_BASE + IRQ_CTRL_SIZE).contains(&addr) {
            return self.irq_ctrl.mmio_write(addr - IRQ_CTRL_BASE, val);
        }
        if let Some((idx, reg)) = self.accel_reg(addr) {
            return self.accels[idx].mmr_write(reg, val);
        }
        None
    }

    fn taint_read_line(&mut self, addr: u64, buf: &mut [u8]) {
        if self.ram_shadow.is_empty() || !self.is_cacheable(addr) {
            buf.fill(0);
            return;
        }
        let off = (addr - RAM_BASE) as usize;
        buf.copy_from_slice(&self.ram_shadow[off..off + buf.len()]);
    }

    fn taint_write_line(&mut self, addr: u64, data: &[u8]) {
        if self.ram_shadow.is_empty() || !self.is_cacheable(addr) {
            return;
        }
        let off = (addr - RAM_BASE) as usize;
        self.ram_shadow[off..off + data.len()].copy_from_slice(data);
    }

    fn is_cacheable(&self, addr: u64) -> bool {
        (RAM_BASE..RAM_BASE + RAM_SIZE).contains(&addr)
    }

    fn is_device(&self, addr: u64) -> bool {
        addr == CONSOLE_ADDR
            || (IRQ_CTRL_BASE..IRQ_CTRL_BASE + IRQ_CTRL_SIZE).contains(&addr)
            || self.accel_reg(addr).is_some()
    }
}

/// Drained dirty marks of a whole system segment: which CPU structures and
/// RAM pages a stretch of execution touched. Captured per ladder rung while
/// building the golden checkpoint ladder, then merged into a faulty run's
/// live journals at each rung crossing so the convergence compare covers
/// locations the *golden* run wrote even if the fault suppressed the write.
#[derive(Debug, Clone, Default)]
pub struct SysDirtyMarks {
    core: CoreDirtyMarks,
    ram: DirtyMarks,
}

/// Outcome of [`System::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// `Halt` committed; console output captured.
    Halted { cycles: u64 },
    /// A trap reached commit (fault-effect class: Crash).
    Crashed { trap: Trap, cycles: u64 },
    /// The cycle budget expired (fault-effect class: Crash/hang).
    Timeout,
}

/// Events surfaced by [`System::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysEvent {
    Running,
    Halted,
    Trapped(Trap),
    Checkpoint,
    SwitchCpu,
}

/// The heterogeneous system under test. `Clone` is the checkpoint
/// mechanism: cloning captures the full architectural *and*
/// microarchitectural state, including warm caches — the paper's extended
/// gem5 checkpoint semantics.
#[derive(Debug, Clone)]
pub struct System {
    pub core: Core,
    pub bus: SocBus,
    pub cycle: u64,
    /// Cycle at which the `Checkpoint` marker committed (if seen).
    pub checkpoint_cycle: Option<u64>,
    /// Cycle at which the `SwitchCpu` marker committed (if seen).
    pub switch_cycle: Option<u64>,
    /// Traps surfaced by the run loop (commit-stage crashes).
    pub traps: u64,
    /// Lockstep differential oracle (`None` = off). Enabled with
    /// [`enable_lockstep`](Self::enable_lockstep); every committed
    /// micro-op is then replayed on the architectural reference model.
    pub lockstep: Option<Box<marvel_ref::Lockstep>>,
}

impl System {
    pub fn new(cfg: CoreConfig) -> Self {
        let kind = IrqCtrlKind::for_isa(cfg.isa);
        System {
            core: Core::new(cfg),
            bus: SocBus {
                ram: vec![0u8; RAM_SIZE as usize],
                console: Vec::new(),
                irq_ctrl: IrqController::new(kind),
                accels: Vec::new(),
                ram_shadow: Vec::new(),
                ram_journal: None,
            },
            cycle: 0,
            checkpoint_cycle: None,
            switch_cycle: None,
            traps: 0,
            lockstep: None,
        }
    }

    /// Load a program image and install the ISR stub; the core starts at
    /// the binary's entry.
    pub fn load_binary(&mut self, bin: &Binary) {
        assert_eq!(bin.isa, self.core.isa(), "binary ISA mismatch");
        let off = (bin.entry - RAM_BASE) as usize;
        self.bus.ram[off..off + bin.image.len()].copy_from_slice(&bin.image);
        let isr = build_isr(self.core.isa(), self.bus.irq_ctrl.kind);
        let voff = (IRQ_VECTOR - RAM_BASE) as usize;
        self.bus.ram[voff..voff + isr.len()].copy_from_slice(&isr);
        self.core.reset_to(bin.entry);
    }

    /// Attach a hosted accelerator; returns its index (MMR page
    /// `ACCEL_MMR_BASE + idx * ACCEL_MMR_STRIDE`, IRQ source `idx + 1`).
    pub fn add_accel(&mut self, a: HostedAccel) -> usize {
        self.bus.accels.push(a);
        self.bus.accels.len() - 1
    }

    /// Attach the lockstep differential oracle. Call after
    /// [`load_binary`](Self::load_binary) and before the first tick: the
    /// reference machine is seeded from the core's current architectural
    /// state and a copy of RAM.
    pub fn enable_lockstep(&mut self) {
        self.core.enable_commit_effects();
        let ls = marvel_ref::Lockstep::new(
            self.core.isa(),
            self.core.arch_pc(),
            &self.core.arch_regs(),
            self.bus.ram.clone(),
            self.core.cfg.l1i.line as u64,
        );
        self.lockstep = Some(Box::new(ls));
    }

    /// First O3-vs-reference divergence, when lockstep is enabled.
    pub fn lockstep_divergence(&self) -> Option<&marvel_ref::Divergence> {
        self.lockstep.as_deref().and_then(|ls| ls.divergence())
    }

    /// Micro-ops checked by the lockstep oracle so far.
    pub fn lockstep_checked(&self) -> u64 {
        self.lockstep.as_deref().map(|ls| ls.checked()).unwrap_or(0)
    }

    /// Turn on dirty-state journaling (CPU structures + RAM page journal)
    /// so [`reset_from`](Self::reset_from) can restore this system to its
    /// checkpoint by undoing only what a run touched. Call once on the
    /// per-worker reusable system, right after cloning the checkpoint.
    pub fn enable_dirty_tracking(&mut self) {
        self.core.enable_dirty_tracking();
        if self.bus.ram_journal.is_none() {
            let pages = self.bus.ram.len().div_ceil(1 << RAM_PAGE_SHIFT);
            self.bus.ram_journal = Some(Box::new(DirtyMap::new(pages)));
        }
    }

    /// Restore this system to the pristine checkpoint it was cloned from,
    /// undoing journaled state (dirty RAM pages, dirty cache sets and
    /// registers) and copying small unjournaled structures wholesale.
    /// Returns state bytes copied — the zero-copy campaign's cost measure.
    ///
    /// Soundness relies on every RAM mutation being visible to the page
    /// journal: `write_line` marks pages directly, and DMA ToRam drains
    /// (raw-slice writes) are folded in here from each engine's watermark.
    pub fn reset_from(&mut self, pristine: &System) -> u64 {
        let mut bytes = self.core.reset_from(&pristine.core);
        self.fold_dma_watermarks();
        if let Some(mut j) = self.bus.ram_journal.take() {
            let ram_len = self.bus.ram.len();
            j.drain(|p| {
                let lo = p << RAM_PAGE_SHIFT;
                let hi = (lo + (1 << RAM_PAGE_SHIFT)).min(ram_len);
                self.bus.ram[lo..hi].copy_from_slice(&pristine.bus.ram[lo..hi]);
                bytes += (hi - lo) as u64;
            });
            self.bus.ram_journal = Some(j);
        } else {
            self.bus.ram.copy_from_slice(&pristine.bus.ram);
            bytes += self.bus.ram.len() as u64;
        }
        self.bus.console.clone_from(&pristine.bus.console);
        bytes += pristine.bus.console.len() as u64;
        self.bus.irq_ctrl = pristine.bus.irq_ctrl.clone();
        for (h, p) in self.bus.accels.iter_mut().zip(&pristine.bus.accels) {
            bytes += h.reset_from(p);
        }
        // Per-run taint shadow: the pristine checkpoint never carries one.
        if pristine.bus.ram_shadow.is_empty() {
            self.bus.ram_shadow.clear();
        } else {
            self.bus.ram_shadow.clone_from(&pristine.bus.ram_shadow);
        }
        self.cycle = pristine.cycle;
        self.checkpoint_cycle = pristine.checkpoint_cycle;
        self.switch_cycle = pristine.switch_cycle;
        self.traps = pristine.traps;
        self.lockstep.clone_from(&pristine.lockstep);
        bytes + 40 // SoC scalars + IRQ controller
    }

    /// Fold each DMA engine's RAM-write watermark into the page journal so
    /// raw-slice DMA drains are visible to journal-driven reset/compare.
    /// Marking is idempotent; the watermarks stay armed until the next
    /// [`reset_from`](Self::reset_from).
    fn fold_dma_watermarks(&mut self) {
        if let Some(j) = &mut self.bus.ram_journal {
            for h in &self.bus.accels {
                if let Some((lo, hi)) = h.dma.ram_written_range() {
                    for p in (lo >> RAM_PAGE_SHIFT)..=((hi - 1) >> RAM_PAGE_SHIFT) {
                        j.mark(p);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // checkpoint-ladder support (segment dirty marks + convergence exit)
    // ------------------------------------------------------------------

    /// Drain the CPU and RAM dirty journals into a [`SysDirtyMarks`]
    /// segment record, leaving the journals clean. Used while building the
    /// checkpoint ladder: each rung captures what the golden run touched
    /// since the previous rung. Requires
    /// [`enable_dirty_tracking`](Self::enable_dirty_tracking).
    pub fn take_dirty_marks(&mut self) -> SysDirtyMarks {
        self.fold_dma_watermarks();
        SysDirtyMarks {
            core: self.core.take_dirty_marks(),
            ram: self.bus.ram_journal.as_mut().map(|j| j.take_marks()).unwrap_or_default(),
        }
    }

    /// Merge a golden segment's dirty marks into this system's live
    /// journals, so a subsequent [`state_converged`](Self::state_converged)
    /// also checks locations only the golden run wrote (a fault can
    /// *suppress* a golden store; comparing only the faulty run's dirt
    /// would miss that divergence). Over-marking is harmless.
    pub fn merge_dirty_marks(&mut self, m: &SysDirtyMarks) {
        self.core.merge_dirty_marks(&m.core);
        if let Some(j) = &mut self.bus.ram_journal {
            j.merge(&m.ram);
        }
    }

    /// Dirty-diff convergence check: does this system's functional state
    /// equal `pristine`'s (a golden-run snapshot at the same cycle)?
    ///
    /// Journaled structures (RAM pages, cache sets, physical registers)
    /// are compared only at dirty locations — sound as long as golden
    /// segment marks have been [`merge_dirty_marks`](Self::merge_dirty_marks)-ed
    /// in at every rung crossing since restore, so the union covers every
    /// location either run wrote. Unjournaled structures are compared
    /// wholesale. Observational state (statistics, armed fault fates,
    /// journals, taint shadows) is excluded: it never steers execution.
    pub fn state_converged(&mut self, pristine: &System) -> bool {
        if self.cycle != pristine.cycle
            || self.checkpoint_cycle != pristine.checkpoint_cycle
            || self.switch_cycle != pristine.switch_cycle
            || self.traps != pristine.traps
            || self.bus.console != pristine.bus.console
            || !self.bus.irq_ctrl.state_eq(&pristine.bus.irq_ctrl)
        {
            return false;
        }
        if !self.bus.accels.iter().zip(&pristine.bus.accels).all(|(h, p)| h.state_eq(p)) {
            return false;
        }
        self.fold_dma_watermarks();
        let ram_len = self.bus.ram.len();
        let page_eq = |p: usize| {
            let lo = p << RAM_PAGE_SHIFT;
            let hi = (lo + (1 << RAM_PAGE_SHIFT)).min(ram_len);
            self.bus.ram[lo..hi] == pristine.bus.ram[lo..hi]
        };
        let ram_ok = match &self.bus.ram_journal {
            Some(j) => {
                let mut ok = true;
                j.peek(|p| ok = ok && page_eq(p));
                ok
            }
            None => self.bus.ram == pristine.bus.ram,
        };
        ram_ok && self.core.state_converged(&pristine.core)
    }

    /// True when no tracked state carries taint (or tracking is off) —
    /// required before a convergence exit when attribution is collected,
    /// so the frozen taint report equals the full run's.
    pub fn taint_quiescent(&self) -> bool {
        self.core.taint_quiescent()
            && self.bus.ram_shadow.iter().all(|&b| b == 0)
            && self.bus.accels.iter().all(|h| h.taint_quiescent())
    }

    /// Advance one cycle.
    pub fn tick(&mut self) -> SysEvent {
        self.cycle += 1;
        self.bus.tick_devices();
        self.core.set_irq(self.bus.irq_ctrl.line());
        let ev = self.core.tick(&mut self.bus);
        if let Some(ls) = self.lockstep.as_deref_mut() {
            // The reference model has no interrupt plumbing: stop
            // comparing the moment the core vectors into the ISR.
            if self.core.in_irq() {
                ls.suspend("interrupt service entered");
            }
            for e in self.core.drain_commit_effects() {
                ls.check(&e);
            }
        }
        match ev {
            StepEvent::None => SysEvent::Running,
            StepEvent::Halted => SysEvent::Halted,
            StepEvent::Trapped(t) => {
                self.traps += 1;
                SysEvent::Trapped(t)
            }
            StepEvent::CheckpointHit => {
                self.checkpoint_cycle = Some(self.cycle);
                SysEvent::Checkpoint
            }
            StepEvent::SwitchCpuHit => {
                self.switch_cycle = Some(self.cycle);
                SysEvent::SwitchCpu
            }
        }
    }

    /// Run until halt/trap or the cycle budget expires.
    pub fn run(&mut self, max_cycles: u64) -> RunOutcome {
        while self.cycle < max_cycles {
            match self.tick() {
                SysEvent::Halted => return RunOutcome::Halted { cycles: self.cycle },
                SysEvent::Trapped(t) => return RunOutcome::Crashed { trap: t, cycles: self.cycle },
                _ => {}
            }
        }
        RunOutcome::Timeout
    }

    /// Run until the `Checkpoint` marker commits (or halt/trap).
    pub fn run_to_checkpoint(&mut self, max_cycles: u64) -> SysEvent {
        while self.cycle < max_cycles {
            match self.tick() {
                SysEvent::Running => {}
                e => return e,
            }
        }
        SysEvent::Running
    }

    /// Program output so far.
    pub fn output(&self) -> &[u8] {
        &self.bus.console
    }

    /// Export run-loop and per-structure counters into a telemetry
    /// registry under `scope`: SoC-level cycle/trap gauges, the CPU's
    /// structure metrics under `<scope>.cpu`, and each hosted
    /// accelerator's under `<scope>.accel<i>`.
    pub fn publish_metrics(&self, reg: &marvel_telemetry::Registry, scope: &marvel_telemetry::Scope) {
        if !reg.is_enabled() {
            return;
        }
        reg.publish_scoped(scope, "cycles", self.cycle);
        reg.publish_scoped(scope, "traps", self.traps);
        reg.publish_scoped(scope, "console_bytes", self.bus.console.len() as u64);
        reg.publish_scoped(scope, "checkpoint_cycle", self.checkpoint_cycle.unwrap_or(0));
        reg.publish_scoped(scope, "switch_cycle", self.switch_cycle.unwrap_or(0));
        self.core.publish_metrics(reg, &scope.child("cpu"));
        for (i, h) in self.bus.accels.iter().enumerate() {
            let sc = scope.indexed("accel", i);
            h.accel.publish_metrics(reg, &sc);
            reg.publish_scoped(&sc, "dma_bytes_moved", h.dma.bytes_moved);
            reg.publish_scoped(&sc, "dma_cycles", h.dma_cycles);
            reg.publish_scoped(&sc, "hosted_compute_cycles", h.compute_cycles);
        }
    }

    // ------------------------------------------------------------------
    // marvel-taint
    // ------------------------------------------------------------------

    /// Enable bit-level taint tracking for a fault that will be injected
    /// into `t`. Must be called *before* [`flip`](Self::flip) /
    /// [`set_stuck`](Self::set_stuck) so the injection seeds the shadow
    /// planes. Allocates CPU, cache, accelerator and RAM shadows; the
    /// data plane is untouched, so runs stay bit-identical.
    pub fn enable_taint(&mut self, t: Target) {
        let seed = t.name();
        self.core.enable_taint(&seed);
        for h in &mut self.bus.accels {
            h.accel.enable_taint(&seed);
        }
        if self.bus.ram_shadow.is_empty() {
            self.bus.ram_shadow = vec![0u8; self.bus.ram.len()];
        }
    }

    pub fn taint_enabled(&self) -> bool {
        self.core.taint_enabled()
    }

    /// Merged propagation report: CPU-side tracer plus every hosted
    /// accelerator's tracer. `None` when taint is off.
    pub fn taint_report(&self) -> Option<marvel_telemetry::TaintReport> {
        let mut rep = self.core.taint_tracer()?.report();
        for h in &self.bus.accels {
            if let Some(tr) = h.accel.taint_tracer() {
                rep.absorb(tr.report());
            }
        }
        Some(rep)
    }

    /// Start recording a Konata pipeline trace on the CPU core.
    pub fn enable_pipe_trace(&mut self) {
        self.core.enable_pipe_trace();
    }

    // ------------------------------------------------------------------
    // fault-injection surface
    // ------------------------------------------------------------------

    /// Injectable bit count of `target`.
    pub fn bit_len(&self, t: Target) -> u64 {
        match t {
            Target::PrfInt => self.core.prf.bit_len(),
            Target::PrfFp => self.core.prf_fp.bit_len(),
            Target::L1I => self.core.l1i.bit_len(),
            Target::L1D => self.core.l1d.bit_len(),
            Target::L2 => self.core.l2.bit_len(),
            Target::LoadQueue => self.core.lq.bit_len(),
            Target::StoreQueue => self.core.sq.bit_len(),
            Target::Rob => self.core.rob_bit_len(),
            Target::RenameMap => self.core.rename_map().bit_len(),
            Target::Spm { accel, mem } => self.bus.accels[accel].accel.spms[mem].bit_len(),
            Target::RegBank { accel, mem } => self.bus.accels[accel].accel.regbanks[mem].bit_len(),
            Target::Mmr { accel } => self.bus.accels[accel].accel.mmr.bit_len(),
        }
    }

    /// Flip one bit of `target` (transient fault).
    pub fn flip(&mut self, t: Target, bit: u64) {
        assert!(bit < self.bit_len(t), "bit {bit} out of range for {}", t.name());
        match t {
            Target::PrfInt => {
                self.core.prf.flip_bit(bit);
            }
            Target::PrfFp => {
                self.core.prf_fp.flip_bit(bit);
            }
            Target::L1I => {
                self.core.l1i.flip_bit(bit);
            }
            Target::L1D => {
                self.core.l1d.flip_bit(bit);
            }
            Target::L2 => {
                self.core.l2.flip_bit(bit);
            }
            Target::LoadQueue => {
                self.core.lq.flip_bit(bit);
            }
            Target::StoreQueue => {
                self.core.sq.flip_bit(bit);
            }
            Target::Rob => {
                self.core.rob_flip_bit(bit);
            }
            Target::RenameMap => {
                self.core.rename_map_mut().flip_bit(bit);
                // The rename array has no shadow of its own: mark the
                // remapped architectural register as control-tainted.
                self.core.seed_rename_taint(bit);
            }
            Target::Spm { accel, mem } => {
                self.bus.accels[accel].accel.spms[mem].flip_bit(bit);
            }
            Target::RegBank { accel, mem } => {
                self.bus.accels[accel].accel.regbanks[mem].flip_bit(bit);
            }
            Target::Mmr { accel } => {
                self.bus.accels[accel].accel.mmr.flip_bit(bit);
            }
        }
        self.core.note_external_mutation();
    }

    /// Install a permanent stuck-at fault.
    pub fn set_stuck(&mut self, t: Target, bit: u64, value: bool) {
        assert!(bit < self.bit_len(t), "bit {bit} out of range for {}", t.name());
        match t {
            Target::PrfInt => self.core.prf.set_stuck(bit, value),
            Target::PrfFp => self.core.prf_fp.set_stuck(bit, value),
            Target::L1I => self.core.l1i.set_stuck(bit, value),
            Target::L1D => self.core.l1d.set_stuck(bit, value),
            Target::L2 => self.core.l2.set_stuck(bit, value),
            Target::Spm { accel, mem } => self.bus.accels[accel].accel.spms[mem].set_stuck(bit, value),
            Target::RegBank { accel, mem } => {
                self.bus.accels[accel].accel.regbanks[mem].set_stuck(bit, value)
            }
            Target::Mmr { accel } => self.bus.accels[accel].accel.mmr.set_stuck(bit, value),
            // Queue/ROB/rename state is short-lived; permanent faults there
            // are modelled as repeated transients by the campaign layer.
            Target::LoadQueue | Target::StoreQueue | Target::Rob | Target::RenameMap => {
                self.flip(t, bit)
            }
        }
        self.core.note_external_mutation();
    }

    /// Early-termination monitoring state of the armed fault, if the
    /// target supports it.
    pub fn fault_fate(&self, t: Target) -> Option<FaultFate> {
        fn conv(f: marvel_accel::SramFate) -> FaultFate {
            match f {
                marvel_accel::SramFate::Pending => FaultFate::Pending,
                marvel_accel::SramFate::Read => FaultFate::Read,
                marvel_accel::SramFate::Overwritten => FaultFate::Overwritten,
            }
        }
        match t {
            Target::PrfInt => self.core.prf.fate(),
            Target::PrfFp => self.core.prf_fp.fate(),
            Target::L1I => self.core.l1i.fate(),
            Target::L1D => self.core.l1d.fate(),
            Target::L2 => self.core.l2.fate(),
            Target::Rob => self.core.rob_fate(),
            Target::Spm { accel, mem } => self.bus.accels[accel].accel.spms[mem].fate().map(conv),
            Target::RegBank { accel, mem } => {
                self.bus.accels[accel].accel.regbanks[mem].fate().map(conv)
            }
            Target::Mmr { accel } => self.bus.accels[accel].accel.mmr.fate().map(conv),
            Target::LoadQueue | Target::StoreQueue | Target::RenameMap => None,
        }
    }

    // ------------------------------------------------------------------
    // lane-packed injection surface
    // ------------------------------------------------------------------

    /// True when `t` supports bit-plane lane packing: single-bit transients
    /// on these structures leave golden control flow, memory addressing and
    /// timing untouched until the divergence monitor forks the lane out.
    pub fn lane_packable(t: Target) -> bool {
        matches!(
            t,
            Target::PrfInt | Target::PrfFp | Target::Rob | Target::L1I | Target::L1D | Target::L2
        )
    }

    /// Attach the lane-divergence overlay to the core. Must be called
    /// before any [`lane_arm`](Self::lane_arm); the overlay is purely
    /// observational (the data plane keeps executing the golden run).
    pub fn lane_begin(&mut self) {
        self.core.lane_begin();
    }

    /// Detach the lane overlay and clear all cache lane monitors.
    pub fn lane_end(&mut self) {
        self.core.lane_end();
    }

    /// Arm `lane` with a single-bit transient on `t` at bit `bit`,
    /// returning the arm-time fate (e.g. `InvalidAtInjection` for a flip
    /// landing in an invalid cache line). No data-plane state changes.
    pub fn lane_arm(&mut self, lane: u8, t: Target, bit: u64) -> FaultFate {
        assert!(bit < self.bit_len(t), "bit {bit} out of range for {}", t.name());
        self.core.note_external_mutation();
        match t {
            Target::PrfInt => self.core.lane_arm_prf(lane, false, bit),
            Target::PrfFp => self.core.lane_arm_prf(lane, true, bit),
            Target::Rob => self.core.lane_arm_rob(lane, bit),
            Target::L1I => {
                let f = self.core.l1i.lane_arm(lane, bit);
                self.core.lane_note_cache_arm(lane, f);
                f
            }
            Target::L1D => {
                let f = self.core.l1d.lane_arm(lane, bit);
                self.core.lane_note_cache_arm(lane, f);
                f
            }
            Target::L2 => {
                let f = self.core.l2.lane_arm(lane, bit);
                self.core.lane_note_cache_arm(lane, f);
                f
            }
            _ => unreachable!("{} is not lane-packable", t.name()),
        }
    }

    /// Drain lane fork/fate/divergence events accumulated since the last
    /// drain (including cache-monitor events folded through the core)
    /// into `out`, replacing its contents.
    pub fn lane_drain_events(&mut self, out: &mut Vec<LaneEvent>) {
        self.core.lane_drain_events(out)
    }

    /// The live lane-divergence overlay, when armed.
    pub fn lane_engine(&self) -> Option<&LaneEngine> {
        self.core.lane_engine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marvel_ir::{assemble, FuncBuilder, Module};
    use marvel_isa::{AluOp, Isa};

    fn hello_module() -> Module {
        let mut m = Module::new();
        let f = m.declare("main", 0);
        let mut b = FuncBuilder::new(0);
        let x = b.bin(AluOp::Add, 40, 2);
        b.out_byte(x);
        b.halt();
        m.define(f, b.build());
        m
    }

    #[test]
    fn run_program_on_soc() {
        for isa in Isa::ALL {
            let bin = assemble(&hello_module(), isa).unwrap();
            let mut sys = System::new(CoreConfig::table2(isa));
            sys.load_binary(&bin);
            let out = sys.run(1_000_000);
            assert!(matches!(out, RunOutcome::Halted { .. }), "{isa}: {out:?}");
            assert_eq!(sys.output(), &[42]);
        }
    }

    #[test]
    fn checkpoint_clone_restores_state() {
        let isa = Isa::RiscV;
        let mut m = Module::new();
        let f = m.declare("main", 0);
        let mut b = FuncBuilder::new(0);
        let x = b.li(7);
        b.checkpoint();
        let y = b.bin(AluOp::Mul, x, 6);
        b.out_byte(y);
        b.halt();
        m.define(f, b.build());
        let bin = assemble(&m, isa).unwrap();
        let mut sys = System::new(CoreConfig::table2(isa));
        sys.load_binary(&bin);
        assert_eq!(sys.run_to_checkpoint(1_000_000), SysEvent::Checkpoint);
        let ckpt = sys.clone();
        // Run the original and a restored copy; identical outcomes.
        let o1 = sys.run(1_000_000);
        let mut restored = ckpt.clone();
        let o2 = restored.run(1_000_000);
        assert_eq!(o1, o2);
        assert_eq!(sys.output(), restored.output());
        assert_eq!(sys.output(), &[42]);
        // Determinism extends to cycle counts.
        assert_eq!(sys.cycle, restored.cycle);
    }

    #[test]
    fn dirty_reset_matches_clone_restore() {
        let isa = Isa::RiscV;
        let mut m = Module::new();
        let f = m.declare("main", 0);
        let mut b = FuncBuilder::new(0);
        let x = b.li(7);
        b.checkpoint();
        let y = b.bin(AluOp::Mul, x, 6);
        b.out_byte(y);
        b.halt();
        m.define(f, b.build());
        let bin = assemble(&m, isa).unwrap();
        let mut sys = System::new(CoreConfig::table2(isa));
        sys.load_binary(&bin);
        assert_eq!(sys.run_to_checkpoint(1_000_000), SysEvent::Checkpoint);
        let ckpt = sys;
        // Reference: a fresh clone per run.
        let mut cloned = ckpt.clone();
        let o_ref = cloned.run(1_000_000);
        // Reusable worker system: run, dirty-reset, run again — both runs
        // and the post-reset state must match the clone path exactly.
        let mut worker = ckpt.clone();
        worker.enable_dirty_tracking();
        let o1 = worker.run(1_000_000);
        assert_eq!(o1, o_ref);
        let run_output = worker.output().to_vec();
        let bytes = worker.reset_from(&ckpt);
        assert!(bytes > 0);
        assert_eq!(worker.cycle, ckpt.cycle);
        assert_eq!(worker.output(), ckpt.output());
        let o2 = worker.run(1_000_000);
        assert_eq!(o2, o_ref);
        assert_eq!(worker.output(), &run_output[..]);
        assert_eq!(worker.cycle, cloned.cycle);
        // Faulted run followed by reset also converges back.
        worker.reset_from(&ckpt);
        worker.flip(Target::PrfInt, 5 * 64 + 1);
        let _ = worker.run(2_000_000);
        worker.reset_from(&ckpt);
        let o3 = worker.run(1_000_000);
        assert_eq!(o3, o_ref);
        assert_eq!(worker.output(), &run_output[..]);
    }

    #[test]
    fn lockstep_clean_run_has_no_divergence() {
        for isa in Isa::ALL {
            let bin = assemble(&hello_module(), isa).unwrap();
            let mut sys = System::new(CoreConfig::table2(isa));
            sys.load_binary(&bin);
            sys.enable_lockstep();
            let out = sys.run(1_000_000);
            assert!(matches!(out, RunOutcome::Halted { .. }), "{isa}: {out:?}");
            if let Some(d) = sys.lockstep_divergence() {
                panic!("{isa}: {d}");
            }
            assert!(sys.lockstep_checked() > 0, "{isa}: oracle never ran");
            // The reference machine saw the same console bytes.
            assert_eq!(sys.lockstep.as_deref().unwrap().ref_console(), sys.output());
        }
    }

    #[test]
    fn lockstep_catches_injected_corruption() {
        // A PRF flip that causes an SDC must surface as a divergence —
        // the oracle detecting a corrupted committed value is the
        // positive control for the whole comparison path.
        let isa = Isa::Arm;
        let mut m = Module::new();
        let f = m.declare("main", 0);
        let mut b = FuncBuilder::new(0);
        let mut acc = b.li(1);
        for i in 2..24 {
            acc = b.bin(AluOp::Add, acc, i as i64);
        }
        b.out_byte(acc);
        b.halt();
        m.define(f, b.build());
        let bin = assemble(&m, isa).unwrap();
        let mut found = false;
        for bit in 0..512u64 {
            let mut sys = System::new(CoreConfig::table2(isa));
            sys.load_binary(&bin);
            sys.enable_lockstep();
            for _ in 0..30 {
                sys.tick();
            }
            sys.flip(Target::PrfInt, bit);
            let out = sys.run(1_000_000);
            let sdc = matches!(out, RunOutcome::Halted { .. }) && sys.output() != [20];
            if sys.lockstep_divergence().is_some() {
                found = true;
                break;
            }
            // An SDC the oracle missed would be a real hole — but only
            // when the oracle was still active at the end.
            if sdc && sys.lockstep.as_deref().unwrap().disabled_reason().is_none() {
                panic!("bit {bit}: SDC escaped the lockstep oracle");
            }
        }
        assert!(found, "no injected fault ever produced a divergence");
    }

    #[test]
    fn bit_lens_match_table2() {
        let sys = System::new(CoreConfig::table2(Isa::Arm));
        assert_eq!(sys.bit_len(Target::PrfInt), 128 * 64);
        assert_eq!(sys.bit_len(Target::L1I), 32 * 1024 * 8);
        assert_eq!(sys.bit_len(Target::L1D), 32 * 1024 * 8);
        assert_eq!(sys.bit_len(Target::L2), 1024 * 1024 * 8);
        assert_eq!(sys.bit_len(Target::LoadQueue), 32 * 136);
        assert_eq!(sys.bit_len(Target::StoreQueue), 32 * 136);
    }

    #[test]
    fn prf_flip_can_cause_sdc_or_crash_or_mask() {
        // Just exercise the injection path: flip a random PRF bit mid-run
        // and require the system to terminate one way or another.
        let isa = Isa::Arm;
        let bin = assemble(&hello_module(), isa).unwrap();
        for bit in [5u64, 700, 4000] {
            let mut sys = System::new(CoreConfig::table2(isa));
            sys.load_binary(&bin);
            for _ in 0..20 {
                sys.tick();
            }
            sys.flip(Target::PrfInt, bit);
            let out = sys.run(2_000_000);
            assert!(!matches!(out, RunOutcome::Timeout), "bit {bit}: hung");
        }
    }
}
