//! The out-of-order core: fetch (decoding real bytes from the L1I) →
//! rename → issue → execute → commit, with commit-time squash recovery.
//!
//! Every architectural and microarchitectural value is held as explicit
//! bits in an injectable structure (PRF, caches, LQ/SQ, ROB results,
//! rename map), so injected faults propagate — or are masked — for the
//! same reasons they would in hardware: dead registers, wrong-path
//! execution, overwrites, cache evictions, decode don't-cares.

use crate::bp::BranchPredictor;
use crate::cache::{Cache, CacheLaneEvent, FaultFate};
use crate::config::CoreConfig;
use crate::dirty::DirtyMarks;
use crate::lane::{LaneEngine, LaneEvent};
use crate::lsq::{LoadQueue, StoreQueue};
use crate::prf::{FreeList, PhysRegFile, RenameMap};
use marvel_isa::{AluOp, Isa, MicroOp, Op, Trap, REG_NONE};
use marvel_telemetry::{alu_taint, PipeTracer, TaintAluKind, TaintTracer};
use std::sync::Arc;

/// Backing memory + devices, provided by the SoC.
pub trait Bus {
    /// Read a full cache line from RAM. Returns `false` if unmapped.
    fn read_line(&mut self, addr: u64, buf: &mut [u8]) -> bool;
    /// Write a full cache line back to RAM. Returns `false` if unmapped.
    fn write_line(&mut self, addr: u64, data: &[u8]) -> bool;
    /// Uncached device read.
    fn device_read(&mut self, addr: u64, size: u8) -> Option<u64>;
    /// Uncached device write.
    fn device_write(&mut self, addr: u64, size: u8, val: u64) -> Option<()>;
    /// Address is backed by cacheable RAM.
    fn is_cacheable(&self, addr: u64) -> bool;
    /// Address belongs to a device range.
    fn is_device(&self, addr: u64) -> bool;
    /// marvel-taint: shadow counterpart of [`read_line`](Bus::read_line).
    /// Buses without a RAM shadow report zero taint (the default).
    fn taint_read_line(&mut self, _addr: u64, buf: &mut [u8]) {
        buf.fill(0);
    }
    /// marvel-taint: shadow counterpart of [`write_line`](Bus::write_line).
    fn taint_write_line(&mut self, _addr: u64, _data: &[u8]) {}
}

// Structure names used in taint propagation timelines. Where a structure
// is also an injection target these match `Target::name()`.
const T_PRF: &str = "PhysRegFile(Int)";
const T_ROB: &str = "ROB";
const T_LQ: &str = "LoadQueue";
const T_SQ: &str = "StoreQueue";
const T_L1I: &str = "L1I";
const T_L1D: &str = "L1D";
const T_L2: &str = "L2";
const T_RENAME: &str = "RenameMap";
const T_RAM: &str = "RAM";
const T_DECODE: &str = "Decode";
const T_CONSOLE: &str = "Console";

/// Core-side marvel-taint state: the per-run propagation tracer plus the
/// rename-map taint bits (the PRF/cache shadows live inside those
/// structures). Boxed behind an `Option` on [`Core`] so the disabled
/// case costs one pointer test per hook.
#[derive(Debug, Clone)]
pub struct TaintPlane {
    pub tracer: TaintTracer,
    /// Per architectural register: the speculative rename mapping is
    /// corrupted, so any dispatch reading it yields an unknown value.
    rename: Vec<bool>,
}

/// Detached dirty-mark captures for every journaled core structure: one
/// golden segment of the checkpoint ladder. Produced by
/// [`Core::take_dirty_marks`], folded back by [`Core::merge_dirty_marks`].
#[derive(Debug, Clone, Default)]
pub struct CoreDirtyMarks {
    prf: DirtyMarks,
    prf_fp: DirtyMarks,
    l1i: DirtyMarks,
    l1d: DirtyMarks,
    l2: DirtyMarks,
}

const PNONE: u16 = u16::MAX;
const QNONE: u16 = u16::MAX;

/// Load-pipeline depth between address generation and the cache access
/// made through the buffered LQ request bits.
const REQUEST_DELAY: u64 = 4;

/// What happened during a [`Core::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    None,
    /// A `Halt` committed: the program ended normally.
    Halted,
    /// A trap reached the commit stage (the run is a Crash).
    Trapped(Trap),
    /// A `Checkpoint` marker committed.
    CheckpointHit,
    /// A `SwitchCpu` marker committed.
    SwitchCpuHit,
}

/// One entry of the commit trace (the HVF comparison stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitRecord {
    pub pc: u64,
    pub kind: u8,
    pub result: u64,
    pub addr: u64,
}

/// One committed micro-op's full architectural effect, captured by the
/// opt-in commit-effect log ([`Core::enable_commit_effects`]). This is
/// the stream the `marvel-ref` lockstep oracle replays: everything an
/// architectural interpreter can reproduce, nothing microarchitectural.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitEffect {
    /// PC of the macro instruction this micro-op belongs to.
    pub pc: u64,
    pub uop: MicroOp,
    /// Encoded length of the macro instruction (0 for fetch-trap stubs).
    pub macro_len: u8,
    pub last_of_macro: bool,
    /// Destination architectural register, when one was renamed (`None`
    /// for zero-register and no-destination micro-ops).
    pub rd: Option<u8>,
    /// Value written to `rd`, or the store data for stores.
    pub value: u64,
    /// Architectural next-PC after this micro-op's macro instruction.
    pub next_pc: u64,
    /// Effective address for loads/stores, 0 otherwise.
    pub mem_addr: u64,
    /// The trap that ended the run, if this commit trapped.
    pub trap: Option<Trap>,
}

/// Commit-trace mode.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TraceMode {
    #[default]
    Off,
    /// Record the trace (golden run).
    Record,
    /// Compare online against a golden trace, noting the first divergence.
    Check(Arc<Vec<CommitRecord>>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EState {
    Waiting,
    Executing,
    Done,
}

#[derive(Debug, Clone, PartialEq)]
struct RobEntry {
    seq: u64,
    uop: MicroOp,
    pc: u64,
    macro_len: u8,
    first_of_macro: bool,
    last_of_macro: bool,
    predicted_next: u64,
    actual_next: u64,
    taken: bool,
    pdst: u16,
    prev_pdst: u16,
    psrc: [u16; 3],
    state: EState,
    trap: Option<Trap>,
    lq: u16,
    sq: u16,
    result: u64,
    mem_addr: u64,
    /// An older store detected a memory-ordering violation: re-execute
    /// this load from fetch when it reaches the commit head.
    replay: bool,
    /// marvel-taint: shadow mask of `result` (always present, defaults 0).
    result_taint: u64,
    /// marvel-taint: the uop itself is suspect (tainted fetch bytes or a
    /// corrupted rename mapping), so every output is fully tainted.
    ctl_taint: bool,
}

#[derive(Debug, Clone, Copy)]
struct FetchedUop {
    uop: MicroOp,
    pc: u64,
    macro_len: u8,
    first_of_macro: bool,
    last_of_macro: bool,
    predicted_next: u64,
    trap: Option<Trap>,
    /// marvel-taint: decoded from tainted L1I bytes.
    tainted: bool,
    /// Cycle the uop was fetched (pipeline trace only).
    fetched_at: u64,
}

/// Functional-unit class of an issue-queue entry, fixed at dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IqClass {
    Alu,
    /// Multiply/divide: holds the unpipelined unit for this many cycles.
    MulDiv(u32),
    /// Load or store: address generation borrows an ALU.
    Mem,
}

impl IqClass {
    fn of(op: Op) -> IqClass {
        match op {
            Op::Load { .. } | Op::Store { .. } => IqClass::Mem,
            Op::Alu(o) | Op::AluImm(o) if o.needs_muldiv_unit() => IqClass::MulDiv(o.latency()),
            _ => IqClass::Alu,
        }
    }
}

/// One issue-queue entry: everything the select loop needs to decide
/// that an entry cannot issue this cycle without touching the ROB.
#[derive(Debug, Clone, Copy)]
struct IqEntry {
    seq: u64,
    psrc: [u16; 3],
    class: IqClass,
    /// Issue epoch in which this load last failed the memory-dependence
    /// gate (0 = never). While it equals [`Core::park_epoch`] nothing that
    /// could change the outcome has happened, so the select loop skips
    /// the load (DESIGN.md, "issue-stage parking").
    parked: u64,
}

/// Why a parked load was re-attempted. `RegRewrite` and `External` bump
/// the issue epoch, releasing every parked load; the others re-attempt
/// one load whose gate reopened or whose re-attempt has side effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unpark {
    /// Every store older than the load has resolved its address (or left
    /// the SQ).
    StoreAddr,
    /// A register feeding a parked load was written or reallocated.
    RegRewrite,
    /// A fault or lane was armed from outside the pipeline.
    External,
    /// The armed PRF fault is still pending on one of the load's sources.
    PrfGuard,
    /// A live lane carries a diff or a pending fate monitor on a source.
    LaneGuard,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    at: u64,
    seq: u64,
    result: u64,
    /// For loads: deliver the value from this LQ entry's data field at
    /// writeback time (so LQ faults during the access window propagate).
    from_lq: u16,
    /// marvel-taint: shadow mask of `result` (ALU results; loads re-read
    /// the live LQ taint at writeback).
    taint: u64,
}

/// Execution statistics.
#[derive(Debug, Clone, Default)]
pub struct CoreStats {
    pub cycles: u64,
    pub committed_uops: u64,
    pub committed_macros: u64,
    pub loads: u64,
    pub stores: u64,
    pub branches: u64,
    pub mispredicts: u64,
    pub lq_occ_accum: u64,
    pub sq_occ_accum: u64,
    pub rob_occ_accum: u64,
    pub iq_occ_accum: u64,
    pub freelist_free_accum: u64,
    pub flushes: u64,
    pub replays: u64,
    /// Select-loop visits skipped because the load was parked behind the
    /// memory-dependence gate and nothing it depends on had changed.
    pub park_skips: u64,
    /// Parked loads re-attempted, by cause: an epoch bump (store address
    /// resolved, source register rewritten, external mutation) or a
    /// side-effect guard (armed PRF fault still pending on a source, lane
    /// diff or fate monitor on a source).
    pub unpark_store_addr: u64,
    pub unpark_reg_rewrite: u64,
    pub unpark_external: u64,
    pub unpark_prf_guard: u64,
    pub unpark_lane_guard: u64,
}

impl CoreStats {
    /// Instructions (macro) per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_macros as f64 / self.cycles as f64
        }
    }
}

/// The out-of-order core.
#[derive(Debug, Clone)]
pub struct Core {
    pub cfg: CoreConfig,
    isa: Isa,
    cycle: u64,
    next_seq: u64,

    // front end
    fetch_pc: u64,
    fetch_halted: bool,
    fetch_stall_until: u64,
    fq: Vec<FetchedUop>,
    bp: BranchPredictor,

    // rename
    rename: RenameMap,
    retire: RenameMap,
    freelist: FreeList,

    // backend
    rob: std::collections::VecDeque<RobEntry>,
    iq: Vec<IqEntry>,
    events: Vec<Event>,
    /// Loads whose AGU has fired but whose cache access (through the
    /// buffered LQ request bits) is still in the load pipeline.
    pending_loads: Vec<(u64, u64)>,
    muldiv_free_at: u64,

    // issue-stage parking (derived state, see DESIGN.md)
    park_epoch: u64,
    park_cause: Unpark,
    /// Cached [`StoreQueue::oldest_unresolved`]; `None` = stale, recomputed
    /// on the next memory-dependence query.
    oldest_unresolved: Option<Option<u64>>,

    // scratch buffers reused across ticks (never state)
    due_loads: Vec<u64>,
    /// Three cache lines: the fill data and two victim write-backs.
    line_buf: Vec<u8>,

    // memory system
    pub prf: PhysRegFile,
    pub prf_fp: PhysRegFile,
    pub l1i: Cache,
    pub l1d: Cache,
    pub l2: Cache,
    pub lq: LoadQueue,
    pub sq: StoreQueue,

    // interrupts
    irq_pending: bool,
    in_irq: bool,
    iret_pc: u64,

    /// Memory-dependence predictor: loads whose PC hashes into a set bit
    /// have violated before and now wait for older store addresses
    /// (store-set style, as in the Alpha 21264 / gem5 O3).
    mdp: Vec<bool>,

    // ROB-result injection
    rob_armed: Option<(u64, FaultFate)>,
    rob_flip: Option<(u64, u64)>, // (entry index within capacity, bit)

    // trace
    pub trace_mode: TraceMode,
    pub trace: Vec<CommitRecord>,
    trace_pos: usize,
    pub divergence: Option<u64>,

    /// Commit-effect log for the lockstep oracle (`None` = off: the hook
    /// is one pointer test per committed uop).
    commit_log: Option<Vec<CommitEffect>>,

    /// marvel-taint plane (`None` = off: every hook is one pointer test).
    taint: Option<Box<TaintPlane>>,
    /// Konata pipeline tracer (`None` = off).
    pipe: Option<Box<PipeTracer>>,
    /// Lane-packed campaign overlay (`None` = scalar run: every hook is
    /// one pointer test). Never survives a reset.
    lanes: Option<Box<LaneEngine>>,

    pub stats: CoreStats,
}

/// Map an ALU op onto its taint-transfer class.
fn taint_kind(op: AluOp) -> TaintAluKind {
    match op {
        AluOp::And | AluOp::Or | AluOp::Xor => TaintAluKind::Bitwise,
        AluOp::Add | AluOp::Sub => TaintAluKind::Arith,
        AluOp::Sll => TaintAluKind::ShiftLeft,
        AluOp::Srl | AluOp::Sra => TaintAluKind::ShiftRight,
        AluOp::Mul | AluOp::Div | AluOp::Rem | AluOp::Slt | AluOp::Sltu => TaintAluKind::Wide,
    }
}

/// Taint mask of an ALU-class result given its operand taints (`b` is
/// the runtime second operand, needed for shift transfer).
fn alu_result_taint(u: &MicroOp, ta: u64, tb: u64, b: u64) -> u64 {
    match u.op {
        Op::Alu(op) => alu_taint(taint_kind(op), ta, tb, b),
        Op::AluImm(op) => alu_taint(taint_kind(op), ta, 0, u.imm as u64),
        Op::MovK(sh) => ta & !(0xFFFFu64 << sh),
        // Link values / immediates derive from the (untainted) PC.
        Op::LoadImm | Op::Auipc | Op::LinkAddr | Op::Jal => 0,
        // A tainted jump target or branch decision poisons the control
        // flow; the result field carries the poison to commit.
        Op::Jalr if ta != 0 => !0,
        Op::Branch(_) if (ta | tb) != 0 => !0,
        _ => 0,
    }
}

/// Append `ent`'s architectural effect to the commit-effect log, if on.
fn log_effect(log: &mut Option<Vec<CommitEffect>>, ent: &RobEntry, trap: Option<Trap>) {
    if let Some(log) = log {
        log.push(CommitEffect {
            pc: ent.pc,
            uop: ent.uop,
            macro_len: ent.macro_len,
            last_of_macro: ent.last_of_macro,
            rd: if ent.pdst != PNONE { Some(ent.uop.rd) } else { None },
            value: ent.result,
            next_pc: ent.actual_next,
            mem_addr: ent.mem_addr,
            trap,
        });
    }
}

fn op_tag(op: Op) -> u8 {
    match op {
        Op::Alu(_) | Op::AluImm(_) | Op::LoadImm | Op::MovK(_) | Op::Auipc | Op::LinkAddr => 1,
        Op::Load { .. } => 2,
        Op::Store { .. } => 3,
        Op::Branch(_) | Op::Jal | Op::Jalr | Op::Iret => 4,
        Op::Halt | Op::Checkpoint | Op::SwitchCpu | Op::Nop => 5,
    }
}

impl Core {
    /// # Panics
    /// If the L1I, L1D and L2 line sizes differ: fills move whole lines
    /// between the levels through one line-sized buffer.
    pub fn new(cfg: CoreConfig) -> Self {
        assert!(
            cfg.l1i.line == cfg.l1d.line && cfg.l1d.line == cfg.l2.line,
            "cache line sizes must match across the hierarchy (L1I {} B, L1D {} B, L2 {} B)",
            cfg.l1i.line,
            cfg.l1d.line,
            cfg.l2.line
        );
        let spec = cfg.isa.reg_spec();
        let prf = PhysRegFile::new(cfg.int_prf);
        let rename = RenameMap::new(spec.total_regs as usize, cfg.int_prf as u16);
        let retire = RenameMap::new(spec.total_regs as usize, cfg.int_prf as u16);
        let freelist = FreeList::new(cfg.int_prf as u16, &[0]);
        Core {
            isa: cfg.isa,
            cycle: 0,
            next_seq: 1,
            fetch_pc: 0,
            fetch_halted: true,
            fetch_stall_until: 0,
            fq: Vec::new(),
            bp: BranchPredictor::new(cfg.bp_entries, cfg.ras_entries),
            rename,
            retire,
            freelist,
            rob: std::collections::VecDeque::with_capacity(cfg.rob_entries),
            iq: Vec::new(),
            events: Vec::new(),
            pending_loads: Vec::new(),
            muldiv_free_at: 0,
            park_epoch: 1,
            park_cause: Unpark::External,
            oldest_unresolved: None,
            due_loads: Vec::new(),
            line_buf: vec![0; 3 * cfg.l1d.line],
            prf,
            prf_fp: PhysRegFile::new(cfg.fp_prf),
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            lq: LoadQueue::new(cfg.lq_entries),
            sq: StoreQueue::new(cfg.sq_entries),
            irq_pending: false,
            in_irq: false,
            iret_pc: 0,
            mdp: vec![false; 1024],
            rob_armed: None,
            rob_flip: None,
            trace_mode: TraceMode::Off,
            trace: Vec::new(),
            trace_pos: 0,
            divergence: None,
            commit_log: None,
            taint: None,
            pipe: None,
            lanes: None,
            stats: CoreStats::default(),
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // marvel-taint / pipeline trace control
    // ------------------------------------------------------------------

    /// Enable the taint plane (before fault arming). Allocates the PRF
    /// and cache shadows and the propagation tracer; `seed` labels the
    /// injection site in the report.
    pub fn enable_taint(&mut self, seed: &str) {
        self.prf.enable_taint();
        self.prf_fp.enable_taint();
        self.l1i.enable_taint();
        self.l1d.enable_taint();
        self.l2.enable_taint();
        let arch = self.isa.reg_spec().total_regs as usize;
        self.taint =
            Some(Box::new(TaintPlane { tracer: TaintTracer::new(seed), rename: vec![false; arch] }));
    }

    pub fn taint_enabled(&self) -> bool {
        self.taint.is_some()
    }

    /// Mark the architectural register whose speculative rename mapping
    /// holds the injected bit (called by the SoC after a rename-map flip).
    pub fn seed_rename_taint(&mut self, bit: u64) {
        let bpe = self.rename.bits_per_entry();
        let a = (bit / bpe) as usize;
        if let Some(tp) = self.taint.as_deref_mut() {
            if let Some(t) = tp.rename.get_mut(a) {
                *t = true;
            }
        }
    }

    /// Taint everything an already-armed ROB fault will touch (called by
    /// the SoC when the taint plane is enabled after `rob_flip_bit`).
    pub fn seed_rob_taint(&mut self) {
        if let Some((bit, _)) = self.rob_armed {
            let slot = bit / 64;
            let cap = self.cfg.rob_entries as u64;
            for e in &mut self.rob {
                if e.seq % cap == slot {
                    e.result_taint |= 1 << (bit % 64);
                }
            }
        }
    }

    /// The per-run propagation tracer, when taint is enabled.
    pub fn taint_tracer(&self) -> Option<&TaintTracer> {
        self.taint.as_deref().map(|tp| &tp.tracer)
    }

    /// Start recording a Konata pipeline trace.
    pub fn enable_pipe_trace(&mut self) {
        self.pipe = Some(Box::new(PipeTracer::default()));
    }

    pub fn pipe_tracer(&self) -> Option<&PipeTracer> {
        self.pipe.as_deref()
    }

    /// Reset the pipeline and start fetching at `pc`. Cache contents are
    /// preserved (checkpoints capture warm caches).
    pub fn reset_to(&mut self, pc: u64) {
        self.fetch_pc = pc;
        self.fetch_halted = false;
        self.fetch_stall_until = 0;
        self.fq.clear();
        self.rob.clear();
        self.iq.clear();
        self.events.clear();
        self.pending_loads.clear();
        self.lq.clear();
        self.sq = StoreQueue::new(self.cfg.sq_entries);
        self.oldest_unresolved = None;
        let spec = self.isa.reg_spec();
        self.rename = RenameMap::new(spec.total_regs as usize, self.cfg.int_prf as u16);
        self.retire = RenameMap::new(spec.total_regs as usize, self.cfg.int_prf as u16);
        self.freelist = FreeList::new(self.cfg.int_prf as u16, &[0]);
        self.prf.set_all_ready();
    }

    /// Turn on dirty-journaling in the journaled structures (PRFs and
    /// caches) so [`reset_from`](Self::reset_from) restores only what a
    /// run actually touched. Call once on the per-worker reusable core.
    pub fn enable_dirty_tracking(&mut self) {
        self.prf.enable_dirty_tracking();
        self.prf_fp.enable_dirty_tracking();
        self.l1i.enable_dirty_tracking();
        self.l1d.enable_dirty_tracking();
        self.l2.enable_dirty_tracking();
    }

    /// Restore this core to the pristine checkpoint it was cloned from,
    /// undoing journaled state where possible and copying the small
    /// unjournaled structures wholesale (reusing their allocations).
    /// Returns state bytes copied — the perf-guard's cost measure.
    pub fn reset_from(&mut self, pristine: &Core) -> u64 {
        let mut bytes = self.prf.reset_from(&pristine.prf);
        bytes += self.prf_fp.reset_from(&pristine.prf_fp);
        bytes += self.l1i.reset_from(&pristine.l1i);
        bytes += self.l1d.reset_from(&pristine.l1d);
        bytes += self.l2.reset_from(&pristine.l2);
        bytes += self.bp.reset_from(&pristine.bp);

        self.cycle = pristine.cycle;
        self.next_seq = pristine.next_seq;
        self.fetch_pc = pristine.fetch_pc;
        self.fetch_halted = pristine.fetch_halted;
        self.fetch_stall_until = pristine.fetch_stall_until;
        self.fq.clone_from(&pristine.fq);
        self.rename.copy_from(&pristine.rename);
        self.retire.copy_from(&pristine.retire);
        self.freelist.copy_from(&pristine.freelist);
        self.rob.clone_from(&pristine.rob);
        self.iq.clone_from(&pristine.iq);
        self.events.clone_from(&pristine.events);
        self.pending_loads.clone_from(&pristine.pending_loads);
        self.muldiv_free_at = pristine.muldiv_free_at;
        self.park_epoch = pristine.park_epoch;
        self.park_cause = pristine.park_cause;
        self.oldest_unresolved = None;
        self.lq.entries.clone_from(&pristine.lq.entries);
        self.sq.entries.clone_from(&pristine.sq.entries);
        self.irq_pending = pristine.irq_pending;
        self.in_irq = pristine.in_irq;
        self.iret_pc = pristine.iret_pc;
        self.mdp.copy_from_slice(&pristine.mdp);
        self.rob_armed = pristine.rob_armed;
        self.rob_flip = pristine.rob_flip;
        self.trace_mode = pristine.trace_mode.clone();
        self.trace.clone_from(&pristine.trace);
        self.trace_pos = pristine.trace_pos;
        self.divergence = pristine.divergence;
        // Per-run observers: the pristine checkpoint never carries them,
        // so these normally just drop the run's planes.
        self.commit_log.clone_from(&pristine.commit_log);
        self.taint.clone_from(&pristine.taint);
        self.pipe.clone_from(&pristine.pipe);
        self.lanes = None;
        self.stats = pristine.stats.clone();

        use std::mem::size_of;
        bytes += (self.fq.len() * size_of::<FetchedUop>()
            + self.rob.len() * size_of::<RobEntry>()
            + self.iq.len() * size_of::<IqEntry>()
            + self.events.len() * size_of::<Event>()
            + self.pending_loads.len() * 16
            + self.lq.entries.len() * size_of::<crate::lsq::LqEntry>()
            + self.sq.entries.len() * size_of::<crate::lsq::SqEntry>()
            + self.rename.entries().len() * 2 * 2
            + self.freelist.len() * 2
            + self.mdp.len()
            + size_of::<CoreStats>()
            + 96) as u64; // scalar pipeline state
        bytes
    }

    /// Drain every structure journal into a detached capture: one golden
    /// segment of the checkpoint ladder (the registers/sets the fault-free
    /// run dirtied between two consecutive rungs).
    pub fn take_dirty_marks(&mut self) -> CoreDirtyMarks {
        CoreDirtyMarks {
            prf: self.prf.take_marks(),
            prf_fp: self.prf_fp.take_marks(),
            l1i: self.l1i.take_marks(),
            l1d: self.l1d.take_marks(),
            l2: self.l2.take_marks(),
        }
    }

    /// Fold a golden-segment capture into the live journals at a ladder-rung
    /// crossing, so the convergence compare also covers locations only the
    /// golden run wrote (a fault can suppress a golden write).
    pub fn merge_dirty_marks(&mut self, m: &CoreDirtyMarks) {
        self.prf.merge_marks(&m.prf);
        self.prf_fp.merge_marks(&m.prf_fp);
        self.l1i.merge_marks(&m.l1i);
        self.l1d.merge_marks(&m.l1d);
        self.l2.merge_marks(&m.l2);
    }

    /// Functional-state equality against a ladder rung at the same cycle:
    /// true means every future tick of `self` behaves exactly like the
    /// golden run's, so the fault is masked. Journaled structures compare
    /// only their dirty indices; small pipeline structures compare
    /// wholesale. Observational state (stats, armed fates, trace contents,
    /// taint shadows, tracers) is excluded — it cannot steer the data
    /// plane — and so is derived issue-stage parking state. `fq` entries
    /// ignore their `fetched_at` pipeline-trace stamp; invalid LSQ entries
    /// are wildcards (stale payload).
    pub fn state_converged(&self, pristine: &Core) -> bool {
        let fuop_eq = |a: &FetchedUop, b: &FetchedUop| {
            a.uop == b.uop
                && a.pc == b.pc
                && a.macro_len == b.macro_len
                && a.first_of_macro == b.first_of_macro
                && a.last_of_macro == b.last_of_macro
                && a.predicted_next == b.predicted_next
                && a.trap == b.trap
                && a.tainted == b.tainted
        };
        self.cycle == pristine.cycle
            && self.next_seq == pristine.next_seq
            && self.fetch_pc == pristine.fetch_pc
            && self.fetch_halted == pristine.fetch_halted
            && self.fetch_stall_until == pristine.fetch_stall_until
            && self.muldiv_free_at == pristine.muldiv_free_at
            && self.irq_pending == pristine.irq_pending
            && self.in_irq == pristine.in_irq
            && self.iret_pc == pristine.iret_pc
            && self.trace_pos == pristine.trace_pos
            && self.divergence == pristine.divergence
            // A still-pending ROB flip would fire later: never converged.
            && self.rob_flip == pristine.rob_flip
            && self.fq.len() == pristine.fq.len()
            && self.fq.iter().zip(&pristine.fq).all(|(a, b)| fuop_eq(a, b))
            && self.rob == pristine.rob
            // Park stamps are derived state: only the queued uops count.
            && self.iq.len() == pristine.iq.len()
            && self
                .iq
                .iter()
                .zip(&pristine.iq)
                .all(|(a, b)| a.seq == b.seq && a.psrc == b.psrc && a.class == b.class)
            && self.events == pristine.events
            && self.pending_loads == pristine.pending_loads
            && self.mdp == pristine.mdp
            && self.rename == pristine.rename
            && self.retire == pristine.retire
            && self.freelist == pristine.freelist
            && self.lq.converged_with(&pristine.lq)
            && self.sq.converged_with(&pristine.sq)
            && self.bp.converged_with(&pristine.bp)
            && self.prf.converged_with(&pristine.prf)
            && self.prf_fp.converged_with(&pristine.prf_fp)
            && self.l1i.converged_with(&pristine.l1i)
            && self.l1d.converged_with(&pristine.l1d)
            && self.l2.converged_with(&pristine.l2)
    }

    /// True when no core-side taint shadow carries a set bit, so the
    /// propagation report is frozen (live ROB/LSQ entry taints are covered
    /// by [`state_converged`](Self::state_converged) against a zero-taint
    /// rung).
    pub fn taint_quiescent(&self) -> bool {
        self.taint.as_deref().is_none_or(|tp| tp.rename.iter().all(|&b| !b))
            && self.prf.taint_quiescent()
            && self.prf_fp.taint_quiescent()
            && self.l1i.taint_quiescent()
            && self.l1d.taint_quiescent()
            && self.l2.taint_quiescent()
    }

    pub fn isa(&self) -> Isa {
        self.isa
    }

    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Raise/clear the external interrupt line.
    pub fn set_irq(&mut self, level: bool) {
        self.irq_pending = level;
    }

    pub fn in_irq(&self) -> bool {
        self.in_irq
    }

    /// Advance one cycle.
    pub fn tick(&mut self, bus: &mut dyn Bus) -> StepEvent {
        self.cycle += 1;
        self.stats.cycles += 1;
        self.stats.lq_occ_accum += self.lq.occupancy() as u64;
        self.stats.sq_occ_accum += self.sq.occupancy() as u64;
        self.stats.rob_occ_accum += self.rob.len() as u64;
        self.stats.iq_occ_accum += self.iq.len() as u64;
        self.stats.freelist_free_accum += self.freelist.len() as u64;

        // 1. writeback: deliver due completion events.
        self.writeback();
        // 2. commit.
        let ev = self.commit();
        if matches!(ev, StepEvent::Halted) {
            // Drain every committed store (console output included) before
            // declaring the program finished.
            while self.sq.oldest_senior().is_some() {
                if let Some(t) = self.drain_stores(bus) {
                    return StepEvent::Trapped(t);
                }
            }
            return ev;
        }
        if !matches!(ev, StepEvent::None) {
            return ev;
        }
        // 3. drain senior stores.
        if let Some(t) = self.drain_stores(bus) {
            return StepEvent::Trapped(t);
        }
        // 4. issue/execute.
        self.issue(bus);
        // 5. rename/dispatch.
        self.dispatch();
        // 6. fetch.
        self.fetch(bus);
        StepEvent::None
    }

    // ------------------------------------------------------------------
    // writeback
    // ------------------------------------------------------------------

    fn rob_index_of(&self, seq: u64) -> Option<usize> {
        let front = self.rob.front()?.seq;
        if seq < front {
            return None;
        }
        let idx = (seq - front) as usize;
        if idx < self.rob.len() && self.rob[idx].seq == seq {
            Some(idx)
        } else {
            None
        }
    }

    fn writeback(&mut self) {
        let now = self.cycle;
        let mut i = 0;
        while i < self.events.len() {
            if self.events[i].at <= now {
                let e = self.events.swap_remove(i);
                if let Some(idx) = self.rob_index_of(e.seq) {
                    // Loads deliver from the (injectable) LQ data field.
                    let mut from_lq_taint = false;
                    let (value, vtaint) = if e.from_lq != QNONE {
                        let lqe = &self.lq.entries[e.from_lq as usize];
                        if lqe.valid && lqe.seq == e.seq {
                            from_lq_taint = lqe.data_taint != 0;
                            (lqe.data, lqe.data_taint)
                        } else {
                            (e.result, e.taint)
                        }
                    } else {
                        (e.result, e.taint)
                    };
                    let (pdst, rob_base) = {
                        let ent = &mut self.rob[idx];
                        ent.state = EState::Done;
                        ent.result = value;
                        ent.result_taint |= vtaint | if ent.ctl_taint { !0 } else { 0 };
                        (ent.pdst, idx)
                    };
                    // Apply a pending ROB-result fault the moment the value
                    // lands in the entry.
                    self.apply_rob_flip(rob_base);
                    if self.lanes.is_some() {
                        let slot = (e.seq % self.cfg.rob_entries as u64) as u16;
                        let pd = if pdst == PNONE { None } else { Some(pdst) };
                        let le = self.lanes.as_deref_mut().unwrap();
                        le.writeback(e.seq, slot, pd, false);
                        if let Some(p) = pd {
                            le.note_reg_write(false, p);
                        }
                    }
                    let result = self.rob[rob_base].result;
                    let rtaint = self.rob[rob_base].result_taint;
                    if pdst != PNONE {
                        self.prf.write(pdst, result);
                        self.prf.set_ready(pdst, true);
                        self.prf.set_taint(pdst, rtaint);
                    }
                    if let Some(tp) = self.taint.as_deref_mut() {
                        if from_lq_taint {
                            tp.tracer.hop(now, T_LQ, T_ROB);
                        }
                        if rtaint != 0 && pdst != PNONE {
                            tp.tracer.hop(now, T_ROB, T_PRF);
                        }
                    }
                    if let Some(p) = self.pipe.as_deref_mut() {
                        p.complete(e.seq, now);
                    }
                }
            } else {
                i += 1;
            }
        }
    }

    fn apply_rob_flip(&mut self, idx: usize) {
        if let Some((slot, bit)) = self.rob_flip {
            let cap = self.cfg.rob_entries as u64;
            let ent_seq = self.rob[idx].seq;
            if ent_seq % cap == slot {
                self.rob[idx].result ^= 1 << bit;
                self.rob[idx].result_taint |= 1 << bit;
                self.rob_flip = None;
                if let Some((_, f)) = &mut self.rob_armed {
                    *f = FaultFate::Read;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // commit
    // ------------------------------------------------------------------

    fn commit(&mut self) -> StepEvent {
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.rob.front() else { return StepEvent::None };
            if head.state != EState::Done {
                return StepEvent::None;
            }
            // External interrupt: accept at macro boundaries.
            if self.irq_pending && !self.in_irq && head.first_of_macro && head.trap.is_none() {
                let resume = head.pc;
                self.in_irq = true;
                self.iret_pc = resume;
                self.flush_to(marvel_ir::memmap::IRQ_VECTOR);
                return StepEvent::None;
            }
            if let Some(t) = head.trap {
                log_effect(&mut self.commit_log, head, Some(t));
                return StepEvent::Trapped(t);
            }
            // Memory-ordering replay: squash from this load (inclusive)
            // and refetch it; the conflicting older store has retired.
            if head.replay {
                self.stats.replays += 1;
                let pc = head.pc;
                self.mdp[(pc >> 2) as usize & 1023] = true;
                self.flush_to(pc);
                return StepEvent::None;
            }
            // Everything below retires the head; flushes further down
            // squash only younger entries, so it can leave the ROB now.
            let ent = self.rob.pop_front().unwrap();

            // marvel-taint: a tainted value retiring into architectural
            // state (register write or control-flow decision). Stores are
            // attributed at drain time instead, where the bytes land.
            let tainted_commit = ent.result_taint != 0 || ent.ctl_taint;
            if tainted_commit {
                let arch = ent.pdst != PNONE || op_tag(ent.uop.op) == 4;
                if let Some(tp) = self.taint.as_deref_mut() {
                    if arch {
                        tp.tracer.arch_reach(self.cycle, T_ROB);
                    }
                }
            }
            if let Some(p) = self.pipe.as_deref_mut() {
                p.commit(ent.seq, self.cycle, tainted_commit);
            }

            // Architectural effects.
            if ent.pdst != PNONE {
                let prev = ent.prev_pdst;
                self.retire.set(ent.uop.rd, ent.pdst);
                if prev != PNONE && prev != 0 {
                    self.freelist.release(prev);
                }
            }
            if ent.uop.op.is_store() && ent.sq != QNONE {
                self.sq.entries[ent.sq as usize].senior = true;
                self.stats.stores += 1;
            }
            if ent.uop.op.is_load() && ent.lq != QNONE {
                self.lq.free(ent.lq as usize);
                self.stats.loads += 1;
            }

            // Commit trace (HVF stream).
            let tag = op_tag(ent.uop.op);
            if tag <= 4 && !matches!(ent.uop.op, Op::Nop) {
                let rec = CommitRecord {
                    pc: ent.pc,
                    kind: tag,
                    result: if tag == 4 { ent.actual_next } else { ent.result },
                    addr: ent.mem_addr,
                };
                match &self.trace_mode {
                    TraceMode::Off => {}
                    TraceMode::Record => self.trace.push(rec),
                    TraceMode::Check(golden) => {
                        if self.divergence.is_none() {
                            let ok = golden.get(self.trace_pos) == Some(&rec);
                            if !ok {
                                self.divergence = Some(self.trace_pos as u64);
                            }
                        }
                        self.trace_pos += 1;
                    }
                }
            }

            if let Some(le) = self.lanes.as_deref_mut() {
                // Only tags 1-3 put the result field into the commit
                // record (tag 4 records `actual_next`, which carries no
                // diff for live lanes); a nonzero entry diff on one of
                // those is a committed-stream divergence.
                le.commit(ent.seq, (1..=3).contains(&tag) && !matches!(ent.uop.op, Op::Nop));
            }

            log_effect(&mut self.commit_log, &ent, None);

            self.stats.committed_uops += 1;
            if ent.last_of_macro {
                self.stats.committed_macros += 1;
            }

            // Simulation markers.
            match ent.uop.op {
                Op::Halt => return StepEvent::Halted,
                Op::Checkpoint => return StepEvent::CheckpointHit,
                Op::SwitchCpu => return StepEvent::SwitchCpuHit,
                Op::Iret => {
                    let target = self.iret_pc;
                    self.in_irq = false;
                    self.flush_to(target);
                    return StepEvent::None;
                }
                _ => {}
            }

            // Control-flow validation (commit-time squash).
            if ent.uop.op.is_control() && ent.last_of_macro {
                self.stats.branches += 1;
                let mispredicted = ent.actual_next != ent.predicted_next;
                if let Op::Branch(_) = ent.uop.op {
                    self.bp.train(ent.pc, ent.taken, mispredicted);
                }
                if mispredicted {
                    self.stats.mispredicts += 1;
                    let t = ent.actual_next;
                    self.flush_to(t);
                    return StepEvent::None;
                }
            }
        }
        StepEvent::None
    }

    /// Full pipeline flush; resume fetching at `pc`.
    fn flush_to(&mut self, pc: u64) {
        self.stats.flushes += 1;
        if let Some(le) = self.lanes.as_deref_mut() {
            // Every in-flight diff is squashed with the pipeline; register
            // diffs and deferred ROB arms survive, like scalar state.
            le.flush();
        }
        // In-flight destination registers read ready again; the free-list
        // rebuild below returns them.
        for e in &self.rob {
            if e.pdst != PNONE && e.pdst != 0 {
                self.prf.set_ready(e.pdst, true);
            }
        }
        self.rob.clear();
        self.iq.clear();
        self.events.clear();
        self.pending_loads.clear();
        self.lq.clear();
        self.sq.squash_after(0);
        self.oldest_unresolved = None;
        self.rename.copy_from(&self.retire);
        // Rebuild the free list from the retirement map to stay consistent
        // even after rename-map fault injection.
        self.freelist.rebuild(self.cfg.int_prf as u16, self.retire.entries());
        // Speculative rename corruption is wiped by the copy above.
        if let Some(tp) = self.taint.as_deref_mut() {
            tp.rename.iter_mut().for_each(|t| *t = false);
        }
        self.fq.clear();
        self.fetch_pc = pc;
        self.fetch_halted = false;
        self.fetch_stall_until = 0;
    }

    // ------------------------------------------------------------------
    // store drain
    // ------------------------------------------------------------------

    fn drain_stores(&mut self, bus: &mut dyn Bus) -> Option<Trap> {
        for _ in 0..self.isa.store_drain_per_cycle() {
            let idx = self.sq.oldest_senior()?;
            let mut e = self.sq.entries[idx];
            // A fault-corrupted width field saturates at the bus width.
            e.size = e.size.clamp(1, 8);
            // A store with tainted data or a tainted address commits the
            // corruption to architectural memory (or a device).
            let drain_taint = e.data_taint | if e.addr_taint != 0 { !0 } else { 0 };
            if e.device || bus.is_device(e.addr) {
                if bus.device_write(e.addr, e.size, e.data).is_none() {
                    return Some(Trap::MemFault { pc: 0, addr: e.addr });
                }
                if drain_taint != 0 {
                    if let Some(tp) = self.taint.as_deref_mut() {
                        tp.tracer.hop(self.cycle, T_SQ, T_CONSOLE);
                        tp.tracer.arch_reach(self.cycle, T_SQ);
                    }
                }
            } else if bus.is_cacheable(e.addr)
                && bus.is_cacheable(e.addr + e.size.saturating_sub(1) as u64)
            {
                self.data_write(bus, e.addr, e.size, e.data);
                if self.l1d.taint_on() {
                    self.data_write_taint(e.addr, e.size, drain_taint);
                    if drain_taint != 0 {
                        if let Some(tp) = self.taint.as_deref_mut() {
                            tp.tracer.hop(self.cycle, T_SQ, T_L1D);
                            tp.tracer.arch_reach(self.cycle, T_SQ);
                        }
                    }
                }
            } else {
                // A fault-corrupted committed store aimed outside every
                // mapped range: machine-check-style crash.
                return Some(Trap::MemFault { pc: 0, addr: e.addr });
            }
            self.sq.free(idx);
            if !e.addr_ready {
                // Only a corrupted entry retires unresolved; leaving the
                // SQ, it stops blocking younger loads.
                self.oldest_unresolved = None;
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // cache plumbing
    // ------------------------------------------------------------------

    /// Ensure the line holding `addr` is resident in L1 (`icache` selects
    /// L1I/L1D); returns total access latency.
    fn ensure_line(&mut self, bus: &mut dyn Bus, addr: u64, icache: bool) -> Option<u32> {
        let line = self.cfg.l1d.line as u64;
        let laddr = addr & !(line - 1);
        let (l1, l1_lat) = if icache {
            (&mut self.l1i, self.cfg.l1i.latency)
        } else {
            (&mut self.l1d, self.cfg.l1d.latency)
        };
        if l1.lookup(laddr).is_some() {
            l1.hits += 1;
            return Some(l1_lat);
        }
        l1.misses += 1;
        let mut scratch = std::mem::take(&mut self.line_buf);
        let lat = self.fill_line(bus, laddr, icache, l1_lat, &mut scratch);
        self.line_buf = scratch;
        lat
    }

    /// The miss path of [`ensure_line`](Self::ensure_line): bring the line
    /// at `laddr` into L1 through L2, writing dirty victims back. `scratch`
    /// holds three lines: the fill data and the two possible victims.
    fn fill_line(
        &mut self,
        bus: &mut dyn Bus,
        laddr: u64,
        icache: bool,
        l1_lat: u32,
        scratch: &mut [u8],
    ) -> Option<u32> {
        let line = self.cfg.l1d.line as u64;
        let (buf, victims) = scratch.split_at_mut(line as usize);
        let (edata, d2) = victims.split_at_mut(line as usize);
        let taint_on = self.l2.taint_on();
        let l1_name = if icache { T_L1I } else { T_L1D };
        // L2 lookup.
        let mut lat = l1_lat + self.cfg.l2.latency;
        // Shadow bytes travelling with `buf` into the L1 (marvel-taint).
        let mut shadow_in: Vec<u8> = Vec::new();
        if let Some(way) = self.l2.lookup(laddr) {
            self.l2.hits += 1;
            let bytes = self.l2.line_bytes(laddr, way, 0, line as usize);
            buf.copy_from_slice(bytes);
            if taint_on {
                shadow_in = self.l2.taint_line(laddr, way).map(|s| s.to_vec()).unwrap_or_default();
            }
        } else {
            self.l2.misses += 1;
            lat += self.cfg.mem_latency;
            if !bus.read_line(laddr, buf) {
                return None;
            }
            let evict_shadow = if taint_on { self.l2.taint_prepare_fill(laddr) } else { None };
            if let Some(eaddr) = self.l2.fill(laddr, buf, edata) {
                let _ = bus.write_line(eaddr, edata);
                if let Some(es) = &evict_shadow {
                    bus.taint_write_line(eaddr, es);
                    if es.iter().any(|&b| b != 0) {
                        self.taint_hop(T_L2, T_RAM);
                    }
                }
            }
            if taint_on {
                shadow_in = vec![0u8; line as usize];
                bus.taint_read_line(laddr, &mut shadow_in);
                if shadow_in.iter().any(|&b| b != 0) {
                    self.taint_hop(T_RAM, T_L2);
                }
                if let Some(way) = self.l2.probe(laddr) {
                    self.l2.set_taint_line(laddr, way, &shadow_in);
                    // Re-read so L2 stuck-at taint rides along into L1.
                    if let Some(s) = self.l2.taint_line(laddr, way) {
                        shadow_in = s.to_vec();
                    }
                }
            }
        }
        let evict1_shadow = if taint_on {
            let l1 = if icache { &self.l1i } else { &self.l1d };
            l1.taint_prepare_fill(laddr)
        } else {
            None
        };
        let l1 = if icache { &mut self.l1i } else { &mut self.l1d };
        if let Some(eaddr) = l1.fill(laddr, buf, edata) {
            // Write back dirty L1 victim into L2 (allocate on writeback).
            if let Some(way) = self.l2.lookup(eaddr) {
                for (i, chunk) in edata.chunks(8).enumerate() {
                    let mut v = [0u8; 8];
                    v[..chunk.len()].copy_from_slice(chunk);
                    self.l2.write(eaddr + (i * 8) as u64, chunk.len(), u64::from_le_bytes(v), way);
                }
                if let Some(es) = &evict1_shadow {
                    for (i, chunk) in es.chunks(8).enumerate() {
                        let mut v = [0u8; 8];
                        v[..chunk.len()].copy_from_slice(chunk);
                        self.l2.taint_write(
                            eaddr + (i * 8) as u64,
                            chunk.len(),
                            u64::from_le_bytes(v),
                            way,
                        );
                    }
                    if es.iter().any(|&b| b != 0) {
                        self.taint_hop(l1_name, T_L2);
                    }
                }
            } else {
                let evict2_shadow = if taint_on { self.l2.taint_prepare_fill(eaddr) } else { None };
                if let Some(e2) = self.l2.fill(eaddr, edata, d2) {
                    let _ = bus.write_line(e2, d2);
                    if let Some(es2) = &evict2_shadow {
                        bus.taint_write_line(e2, es2);
                        if es2.iter().any(|&b| b != 0) {
                            self.taint_hop(T_L2, T_RAM);
                        }
                    }
                }
                if taint_on {
                    if let Some(way) = self.l2.probe(eaddr) {
                        let zeros;
                        let es: &[u8] = match &evict1_shadow {
                            Some(es) => es,
                            None => {
                                zeros = vec![0u8; line as usize];
                                &zeros
                            }
                        };
                        self.l2.set_taint_line(eaddr, way, es);
                    }
                    if evict1_shadow.as_ref().is_some_and(|es| es.iter().any(|&b| b != 0)) {
                        self.taint_hop(l1_name, T_L2);
                    }
                }
            }
        }
        if taint_on {
            let l1 = if icache { &self.l1i } else { &self.l1d };
            if let Some(way) = l1.probe(laddr) {
                let l1 = if icache { &mut self.l1i } else { &mut self.l1d };
                l1.set_taint_line(laddr, way, &shadow_in);
                if shadow_in.iter().any(|&b| b != 0) {
                    self.taint_hop(T_L2, l1_name);
                }
            }
        }
        Some(lat)
    }

    fn taint_hop(&mut self, from: &'static str, to: &'static str) {
        if let Some(tp) = self.taint.as_deref_mut() {
            tp.tracer.hop(self.cycle, from, to);
        }
    }

    /// Shadow counterpart of [`data_read`](Self::data_read): gather the
    /// taint mask of `size` resident bytes. Purely observational (uses
    /// `probe`, never touches replacement or fault state).
    fn data_read_taint(&self, addr: u64, size: u8) -> u64 {
        if !self.l1d.taint_on() {
            return 0;
        }
        let line = self.cfg.l1d.line as u64;
        let end = addr + size as u64;
        let mut out: u64 = 0;
        let mut shift = 0;
        let mut a = addr;
        while a < end {
            let seg_end = ((a & !(line - 1)) + line).min(end);
            let n = (seg_end - a) as usize;
            if let Some(way) = self.l1d.probe(a & !(line - 1)) {
                out |= self.l1d.taint_read(a, n, way) << shift;
            }
            shift += 8 * n;
            a = seg_end;
        }
        out
    }

    /// Shadow counterpart of [`data_write`](Self::data_write) (lines are
    /// resident after the data write; a rare cross-line eviction between
    /// the two passes loses taint conservatively).
    fn data_write_taint(&mut self, addr: u64, size: u8, mask: u64) {
        if !self.l1d.taint_on() {
            return;
        }
        let line = self.cfg.l1d.line as u64;
        let end = addr + size as u64;
        let mut a = addr;
        let mut m = mask;
        while a < end {
            let seg_end = ((a & !(line - 1)) + line).min(end);
            let n = (seg_end - a) as usize;
            if let Some(way) = self.l1d.probe(a & !(line - 1)) {
                self.l1d.taint_write(a, n, m, way);
            }
            m = if n < 8 { m >> (8 * n) } else { 0 };
            a = seg_end;
        }
    }

    /// Read `size` bytes from the (resident) L1D, splitting across lines
    /// for misaligned x86 accesses.
    fn data_read(&mut self, bus: &mut dyn Bus, addr: u64, size: u8) -> Option<(u64, u32)> {
        let line = self.cfg.l1d.line as u64;
        let mut lat = 0;
        let end = addr + size as u64;
        let mut out: u64 = 0;
        let mut shift = 0;
        let mut a = addr;
        while a < end {
            let seg_end = ((a & !(line - 1)) + line).min(end);
            let n = (seg_end - a) as usize;
            lat = lat.max(self.ensure_line(bus, a, false)?);
            let way = self.l1d.lookup(a & !(line - 1))?;
            let v = self.l1d.read(a, n, way);
            out |= v << shift;
            shift += 8 * n;
            a = seg_end;
        }
        Some((out, lat))
    }

    fn data_write(&mut self, bus: &mut dyn Bus, addr: u64, size: u8, val: u64) -> Option<u32> {
        let line = self.cfg.l1d.line as u64;
        let mut lat = 0;
        let end = addr + size as u64;
        let mut a = addr;
        let mut v = val;
        while a < end {
            let seg_end = ((a & !(line - 1)) + line).min(end);
            let n = (seg_end - a) as usize;
            lat = lat.max(self.ensure_line(bus, a, false)?);
            let way = self.l1d.lookup(a & !(line - 1))?;
            self.l1d.write(a, n, v, way);
            v = if n < 8 { v >> (8 * n) } else { 0 };
            a = seg_end;
        }
        Some(lat)
    }

    // ------------------------------------------------------------------
    // issue/execute
    // ------------------------------------------------------------------

    fn operand(&mut self, p: u16) -> u64 {
        if p == PNONE {
            0
        } else {
            if let Some(le) = self.lanes.as_deref_mut() {
                le.note_reg_read(false, p);
            }
            self.prf.read(p)
        }
    }

    fn operand_taint(&self, p: u16) -> u64 {
        if p == PNONE {
            0
        } else {
            self.prf.taint_of(p)
        }
    }

    fn issue(&mut self, bus: &mut dyn Bus) {
        let mut alu_left = self.cfg.n_alu;
        let mut mem_left = self.cfg.n_mem_ports;

        // Deferred load accesses first (they own the L1D ports this cycle).
        let now = self.cycle;
        let mut due = std::mem::take(&mut self.due_loads);
        self.pending_loads.retain(|&(at, seq)| {
            if at <= now {
                due.push(seq);
            }
            at > now
        });
        for &seq in &due {
            if mem_left == 0 {
                self.pending_loads.push((self.cycle + 1, seq));
                continue;
            }
            if self.finish_load_access(bus, seq) {
                mem_left -= 1;
            } else {
                self.pending_loads.push((self.cycle + REQUEST_DELAY, seq));
            }
        }
        due.clear();
        self.due_loads = due;

        debug_assert!(
            self.oldest_unresolved.is_none_or(|o| o == self.sq.oldest_unresolved()),
            "the SQ changed without invalidating its oldest-unresolved cache"
        );
        // A register feeding a parked load changed since the last select.
        if self.prf.take_watch_hit() {
            self.unpark_all(Unpark::RegRewrite);
        }
        let mut issued = 0usize;
        let mut i = 0;
        // IQ is kept in ascending seq order (oldest first).
        while i < self.iq.len() && issued < self.cfg.issue_width {
            if alu_left == 0 && self.muldiv_free_at > self.cycle {
                break; // no unit left for anything further down the queue
            }
            let q = self.iq[i];
            let mut counter = None;
            if q.parked == self.park_epoch {
                // Same epoch: operands and readiness are as they were, so
                // only the store queue can have reopened the gate.
                counter = if self.older_unresolved_store(q.seq) {
                    self.park_guard(&q.psrc)
                } else {
                    Some(Unpark::StoreAddr)
                };
                if counter.is_none() {
                    debug_assert!(
                        self.park_still_holds(&*bus, &q),
                        "parked load {} skipped, but a re-attempt would not block",
                        q.seq
                    );
                    self.stats.park_skips += 1;
                    i += 1;
                    continue;
                }
            } else if q.parked != 0 {
                counter = Some(self.park_cause);
            }
            if !q.psrc.iter().all(|&p| p == PNONE || self.prf.is_ready(p)) {
                i += 1;
                continue;
            }
            let blocked = match q.class {
                IqClass::MulDiv(_) => self.muldiv_free_at > self.cycle,
                IqClass::Alu | IqClass::Mem => alu_left == 0,
            };
            if blocked {
                i += 1;
                continue;
            }
            let Some(idx) = self.rob_index_of(q.seq) else {
                self.iq.remove(i);
                continue;
            };
            if let Some(c) = counter {
                *self.unpark_counter(c) += 1;
            }
            match q.class {
                IqClass::Mem => {
                    if !self.issue_mem(bus, idx) {
                        // Blocked behind an older unresolved store: park
                        // until something the gate reads changes.
                        self.iq[i].parked = self.park_epoch;
                        for p in q.psrc {
                            if p != PNONE {
                                self.prf.watch(p);
                            }
                        }
                        i += 1;
                        continue;
                    }
                    alu_left -= 1;
                }
                IqClass::MulDiv(lat) => {
                    self.muldiv_free_at = self.cycle + lat as u64;
                    self.issue_alu(idx);
                }
                IqClass::Alu => {
                    alu_left -= 1;
                    self.issue_alu(idx);
                }
            }
            self.iq.remove(i);
            issued += 1;
        }
    }

    /// Release every parked load: something their memory-dependence gate
    /// reads may have changed.
    fn unpark_all(&mut self, cause: Unpark) {
        self.park_epoch += 1;
        self.park_cause = cause;
        self.prf.clear_watch();
    }

    /// Hook for state changes made from outside the pipeline (fault and
    /// lane arming, stuck bits): every parked load is re-attempted. The
    /// SoC's injection entry points (`flip`, `set_stuck`, `lane_arm`)
    /// call it after each mutation.
    pub fn note_external_mutation(&mut self) {
        self.oldest_unresolved = None;
        self.unpark_all(Unpark::External);
    }

    /// A parked load whose re-attempt would still have side effects must
    /// be re-attempted even though its outcome cannot change: the operand
    /// reads latch an armed fault's fate (scalar runs) or a lane's fate
    /// monitor, and a lane diff on an address source forks the lane.
    /// Returns the guard the re-attempt is charged to.
    fn park_guard(&self, psrc: &[u16; 3]) -> Option<Unpark> {
        for &p in &psrc[..2] {
            if p == PNONE {
                continue;
            }
            if self.prf.armed_pending(p) {
                return Some(Unpark::PrfGuard);
            }
            if self.lanes.as_deref().is_some_and(|le| le.reg_watched(false, p)) {
                return Some(Unpark::LaneGuard);
            }
        }
        None
    }

    fn unpark_counter(&mut self, c: Unpark) -> &mut u64 {
        let s = &mut self.stats;
        match c {
            Unpark::StoreAddr => &mut s.unpark_store_addr,
            Unpark::RegRewrite => &mut s.unpark_reg_rewrite,
            Unpark::External => &mut s.unpark_external,
            Unpark::PrfGuard => &mut s.unpark_prf_guard,
            Unpark::LaneGuard => &mut s.unpark_lane_guard,
        }
    }

    /// Test-build cross-check of a parked-load skip, recomputed from
    /// scratch without side effects: a re-attempt now would pass the trap
    /// checks and meet a set MDP bit (or, unready, not happen at all). The
    /// store-queue half of the gate comes from the cache, which the select
    /// loop checks against a full scan every cycle.
    fn park_still_holds(&self, bus: &dyn Bus, q: &IqEntry) -> bool {
        if !q.psrc.iter().all(|&p| p == PNONE || self.prf.is_ready(p)) {
            return true;
        }
        let Some(idx) = self.rob_index_of(q.seq) else { return false };
        let e = &self.rob[idx];
        let Op::Load { w, .. } = e.uop.op else { return false };
        let peek = |p: u16| if p == PNONE { 0 } else { self.prf.peek(p) };
        let offset = if e.uop.reg_offset { peek(e.psrc[1]) } else { e.uop.imm as u64 };
        let addr = peek(e.psrc[0]).wrapping_add(offset);
        let size = w.bytes();
        let traps = (addr % size != 0 && self.isa.traps_on_misaligned())
            || !(bus.is_device(addr)
                || (bus.is_cacheable(addr) && bus.is_cacheable(addr.wrapping_add(size - 1))));
        !traps && self.mdp[(e.pc >> 2) as usize & 1023]
    }

    /// Is any store older than `seq` still waiting for its address?
    fn older_unresolved_store(&mut self, seq: u64) -> bool {
        let oldest = match self.oldest_unresolved {
            Some(o) => o,
            None => {
                let o = self.sq.oldest_unresolved();
                self.oldest_unresolved = Some(o);
                o
            }
        };
        oldest.is_some_and(|o| o < seq)
    }

    fn issue_alu(&mut self, idx: usize) {
        let (psrc, uop, pc, macro_len) = {
            let e = &self.rob[idx];
            (e.psrc, e.uop, e.pc, e.macro_len)
        };
        let a = self.operand(psrc[0]);
        let b = self.operand(psrc[1]);
        let (result, next, taken, trap, lat) = self.exec_alu(&uop, pc, macro_len, a, b);
        if self.lanes.is_some() {
            self.lane_issue_alu(&psrc, &uop, self.rob[idx].seq, a, b, result, trap);
        }
        let taint = if self.taint.is_some() {
            let ta = self.operand_taint(psrc[0]);
            let tb = self.operand_taint(psrc[1]);
            let t = alu_result_taint(&uop, ta, tb, b);
            if (ta | tb) != 0 {
                self.taint_hop(T_PRF, T_ROB);
            }
            t
        } else {
            0
        };
        let e = &mut self.rob[idx];
        e.state = EState::Executing;
        e.actual_next = next;
        e.taken = taken;
        e.trap = e.trap.or(trap);
        let seq = e.seq;
        self.events.push(Event { at: self.cycle + lat as u64, seq, result, from_lq: QNONE, taint });
        if let Some(p) = self.pipe.as_deref_mut() {
            p.issue(seq, self.cycle);
        }
    }

    /// Lane overlay for [`issue_alu`](Self::issue_alu): propagate operand
    /// diffs into a result diff attached to the execute event, or fork
    /// lanes whose divergence reaches control flow or a trap decision.
    #[allow(clippy::too_many_arguments)]
    fn lane_issue_alu(
        &mut self,
        psrc: &[u16; 3],
        uop: &MicroOp,
        seq: u64,
        a: u64,
        b: u64,
        golden: u64,
        trap: Option<Trap>,
    ) {
        let le = self.lanes.as_deref_mut().unwrap();
        let src = |p: u16| if p == PNONE { None } else { Some(p) };
        let (da, dam) = le.operand_diffs(false, src(psrc[0]));
        let (db, dbm) = le.operand_diffs(false, src(psrc[1]));
        if (dam | dbm) & le.live == 0 {
            return;
        }
        match uop.op {
            Op::Alu(op) | Op::AluImm(op) => {
                if trap.is_some() {
                    // Golden divided by zero here: an operand diff could
                    // turn the trap into a value (or vice versa) — the
                    // data-flow overlay cannot express that.
                    le.fork(dam | dbm);
                    return;
                }
                let (diff, nz) = if matches!(uop.op, Op::Alu(_)) {
                    le.alu(op, a, b, golden, &da, dam, &db, dbm)
                } else {
                    le.alu(op, a, uop.imm as u64, golden, &da, dam, &[0; 64], 0)
                };
                le.push_event(seq, diff, nz);
            }
            Op::MovK(sh) => {
                let keep = !(0xFFFFu64 << sh);
                let mut diff = [0u64; 64];
                let mut nz = 0u64;
                let mut m = dam & le.live;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    diff[l] = da[l] & keep;
                    if diff[l] != 0 {
                        nz |= 1 << l;
                    }
                }
                le.push_event(seq, diff, nz);
            }
            // Result and next-PC derive from the PC alone: no register
            // diff can flow in.
            Op::LoadImm | Op::Auipc | Op::LinkAddr | Op::Jal => {}
            // Any diff on the target register moves the jump target.
            Op::Jalr => le.fork(dam),
            Op::Branch(c) => {
                // Fork exactly the lanes whose branch outcome flips; a
                // diff that leaves the decision unchanged never escapes
                // (branches produce no result).
                let golden_taken = c.eval(a, b);
                let mut forkm = 0u64;
                let mut m = (dam | dbm) & le.live;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    if c.eval(a ^ da[l], b ^ db[l]) != golden_taken {
                        forkm |= 1 << l;
                    }
                }
                le.fork(forkm);
            }
            // Nothing else reaches issue_alu with register operands.
            _ => {}
        }
    }

    fn exec_alu(
        &self,
        u: &MicroOp,
        pc: u64,
        macro_len: u8,
        a: u64,
        b: u64,
    ) -> (u64, u64, bool, Option<Trap>, u32) {
        let fallthrough = pc.wrapping_add(macro_len as u64);
        match u.op {
            Op::Alu(op) => match op.eval(a, b, self.isa) {
                Some(v) => (v, fallthrough, false, None, op.latency()),
                None => (0, fallthrough, false, Some(Trap::DivideByZero { pc }), 1),
            },
            Op::AluImm(op) => match op.eval(a, u.imm as u64, self.isa) {
                Some(v) => (v, fallthrough, false, None, op.latency()),
                None => (0, fallthrough, false, Some(Trap::DivideByZero { pc }), 1),
            },
            Op::LoadImm => (u.imm as u64, fallthrough, false, None, 1),
            Op::MovK(sh) => {
                let mask = 0xFFFFu64 << sh;
                ((a & !mask) | (((u.imm as u64) & 0xFFFF) << sh), fallthrough, false, None, 1)
            }
            Op::Auipc => (pc.wrapping_add(u.imm as u64), fallthrough, false, None, 1),
            Op::LinkAddr => (fallthrough, fallthrough, false, None, 1),
            Op::Jal => (fallthrough, pc.wrapping_add(u.imm as u64), true, None, 1),
            Op::Jalr => (fallthrough, a.wrapping_add(u.imm as u64), true, None, 1),
            Op::Branch(c) => {
                let taken = c.eval(a, b);
                let next = if taken { pc.wrapping_add(u.imm as u64) } else { fallthrough };
                (0, next, taken, None, 1)
            }
            _ => (0, fallthrough, false, None, 1),
        }
    }

    /// Try to issue a memory micro-op; returns `false` to retry later.
    fn issue_mem(&mut self, bus: &mut dyn Bus, idx: usize) -> bool {
        let (psrc, uop, pc, seq, lqi, ctl_taint) = {
            let e = &self.rob[idx];
            (e.psrc, e.uop, e.pc, e.seq, e.lq, e.ctl_taint)
        };
        let base = self.operand(psrc[0]);
        let index = self.operand(psrc[1]);
        let addr =
            if uop.reg_offset { base.wrapping_add(index) } else { base.wrapping_add(uop.imm as u64) };
        // Tainted base/index bits can move the effective address anywhere
        // above the lowest tainted bit: conservative arithmetic spread.
        let addr_taint = if self.taint.is_some() {
            let t = self.operand_taint(psrc[0])
                | if uop.reg_offset { self.operand_taint(psrc[1]) } else { 0 };
            alu_taint(TaintAluKind::Arith, t, 0, 0) | if ctl_taint { !0 } else { 0 }
        } else {
            0
        };
        if let Some(le) = self.lanes.as_deref_mut() {
            // A diff feeding the effective address moves the access: the
            // overlay cannot follow a lane to a different location.
            let mut m = if psrc[0] == PNONE { 0 } else { le.reg_mask(false, psrc[0]) };
            if uop.reg_offset && psrc[1] != PNONE {
                m |= le.reg_mask(false, psrc[1]);
            }
            le.fork(m);
        }

        let (w, is_load) = match uop.op {
            Op::Load { w, .. } => (w, true),
            Op::Store { w } => (w, false),
            _ => unreachable!("issue_mem on non-memory uop"),
        };
        let size = w.bytes() as u8;

        // Alignment / mapping checks produce precise traps.
        let misaligned = addr % size as u64 != 0;
        let device = bus.is_device(addr);
        let mapped = device || (bus.is_cacheable(addr) && bus.is_cacheable(addr + size as u64 - 1));
        let mut trap = None;
        if misaligned && self.isa.traps_on_misaligned() {
            trap = Some(Trap::Misaligned { pc, addr });
        } else if !mapped {
            trap = Some(Trap::MemFault { pc, addr });
        }
        if let Some(t) = trap {
            let e = &mut self.rob[idx];
            e.trap = Some(t);
            e.state = EState::Done;
            e.mem_addr = addr;
            if is_load && e.lq != QNONE {
                let lqe = &mut self.lq.entries[e.lq as usize];
                lqe.addr = addr;
                lqe.addr_ready = true;
                lqe.size = size;
                lqe.done = true;
            }
            if !is_load && e.sq != QNONE {
                let sqe = &mut self.sq.entries[e.sq as usize];
                sqe.addr = addr;
                sqe.addr_ready = true;
                sqe.size = size;
                sqe.data_ready = true;
            }
            if !is_load {
                self.oldest_unresolved = None;
            }
            return true;
        }

        if is_load {
            // AGU phase: buffer the request in the LQ (LSQ request
            // buffering). The cache access happens REQUEST_DELAY cycles
            // later *through the buffered — injectable — bits*, so the
            // request stays architecturally live in the queue, as in
            // gem5's LSQ.
            // Loads issue speculatively past older stores with unknown
            // addresses and rely on store-snoop replay, unless the
            // memory-dependence predictor has seen this PC violate.
            if self.mdp[(pc >> 2) as usize & 1023] && self.older_unresolved_store(seq) {
                return false;
            }
            if lqi != QNONE {
                let lqe = &mut self.lq.entries[lqi as usize];
                lqe.addr = addr;
                lqe.addr_ready = true;
                lqe.size = size;
                lqe.addr_taint |= addr_taint;
            }
            if addr_taint != 0 {
                self.taint_hop(T_PRF, T_LQ);
            }
            {
                let e = &mut self.rob[idx];
                e.state = EState::Executing;
                e.mem_addr = addr;
            }
            self.pending_loads.push((self.cycle + REQUEST_DELAY, seq));
            if let Some(p) = self.pipe.as_deref_mut() {
                p.issue(seq, self.cycle);
            }
            true
        } else {
            // Store: snoop the LQ for younger loads that already executed
            // to an overlapping address — a memory-ordering violation;
            // they must replay (gem5 O3's LSQ violation check).
            let lo = addr;
            let hi = addr + size as u64;
            let violators: Vec<u64> = self
                .lq
                .entries
                .iter()
                .filter(|l| {
                    l.valid && l.seq > seq && l.addr_ready && l.done && {
                        let llo = l.addr;
                        let lhi = l.addr + l.size.clamp(1, 8) as u64;
                        llo < hi && lo < lhi
                    }
                })
                .map(|l| l.seq)
                .collect();
            for vseq in violators {
                if let Some(vidx) = self.rob_index_of(vseq) {
                    self.rob[vidx].replay = true;
                }
            }
            // Capture address and data into the SQ.
            let data = self.operand(psrc[2]);
            if let Some(le) = self.lanes.as_deref_mut() {
                // Diverged store data would land in golden memory.
                if psrc[2] != PNONE {
                    let m = le.reg_mask(false, psrc[2]);
                    le.fork(m);
                }
            }
            let data_taint = if self.taint.is_some() {
                self.operand_taint(psrc[2]) | if ctl_taint { !0 } else { 0 }
            } else {
                0
            };
            let e = &mut self.rob[idx];
            e.mem_addr = addr;
            e.state = EState::Done;
            e.result = data;
            e.result_taint |= data_taint;
            if e.sq != QNONE {
                let sqe = &mut self.sq.entries[e.sq as usize];
                sqe.addr = addr;
                sqe.addr_ready = true;
                sqe.size = size;
                sqe.data = data;
                sqe.data_ready = true;
                sqe.device = device;
                sqe.addr_taint |= addr_taint;
                sqe.data_taint |= data_taint;
            }
            self.oldest_unresolved = None;
            if addr_taint != 0 || data_taint != 0 {
                self.taint_hop(T_PRF, T_SQ);
            }
            if let Some(p) = self.pipe.as_deref_mut() {
                p.issue(seq, self.cycle);
            }
            true
        }
    }

    /// Perform the deferred cache access of a load through its buffered
    /// LQ request bits. Returns `false` when the access must be retried
    /// (store-forwarding conflict not yet drained).
    fn finish_load_access(&mut self, bus: &mut dyn Bus, seq: u64) -> bool {
        let Some(idx) = self.rob_index_of(seq) else { return true }; // squashed
        let (state, pc, op, lqi, mem_addr, ctl_taint) = {
            let e = &self.rob[idx];
            (e.state, e.pc, e.uop.op, e.lq, e.mem_addr, e.ctl_taint)
        };
        if state != EState::Executing {
            return true;
        }
        let (eff_addr, eff_size) = if lqi != QNONE {
            let lqe = self.lq.entries[lqi as usize];
            if !lqe.valid || lqe.seq != seq {
                return true; // entry lost to a fault: writeback never comes
            }
            (lqe.addr, lqe.size.clamp(1, 8))
        } else {
            (mem_addr, 8)
        };
        // Re-validate: the buffered request may have been corrupted.
        if eff_addr % eff_size.max(1) as u64 != 0 && self.isa.traps_on_misaligned() {
            let e = &mut self.rob[idx];
            e.trap = Some(Trap::Misaligned { pc, addr: eff_addr });
            e.state = EState::Done;
            return true;
        }
        let device = bus.is_device(eff_addr);
        let (raw, raw_taint, lat) = match self.sq.forwarding_candidate(seq, eff_addr, eff_size) {
            Some((sidx, covers)) => {
                let se = self.sq.entries[sidx];
                if !covers || !se.data_ready {
                    return false; // partial overlap: wait for drain
                }
                let shift = (eff_addr - se.addr) * 8;
                let t = (se.data_taint >> shift) | if se.addr_taint != 0 { !0 } else { 0 };
                if t != 0 {
                    self.taint_hop(T_SQ, T_LQ);
                }
                (se.data >> shift, t, 1u32)
            }
            None => {
                if device {
                    match bus.device_read(eff_addr, eff_size) {
                        Some(v) => (v, 0, 10),
                        None => {
                            let e = &mut self.rob[idx];
                            e.trap = Some(Trap::MemFault { pc, addr: eff_addr });
                            e.state = EState::Done;
                            return true;
                        }
                    }
                } else if !bus.is_cacheable(eff_addr)
                    || !bus.is_cacheable(eff_addr + eff_size as u64 - 1)
                {
                    let e = &mut self.rob[idx];
                    e.trap = Some(Trap::MemFault { pc, addr: eff_addr });
                    e.state = EState::Done;
                    return true;
                } else {
                    match self.data_read(bus, eff_addr, eff_size) {
                        Some((v, lat)) => {
                            let t = self.data_read_taint(eff_addr, eff_size);
                            if t != 0 {
                                self.taint_hop(T_L1D, T_LQ);
                            }
                            (v, t, lat)
                        }
                        None => {
                            let e = &mut self.rob[idx];
                            e.trap = Some(Trap::MemFault { pc, addr: eff_addr });
                            e.state = EState::Done;
                            return true;
                        }
                    }
                }
            }
        };
        let value = match op {
            Op::Load { w, signed } => {
                let mut raw_masked = raw;
                if eff_size as u64 != w.bytes() {
                    let bits = (eff_size as u32 * 8).min(63);
                    raw_masked &= (1u64 << bits) - 1;
                }
                w.extend(raw_masked, signed)
            }
            _ => raw,
        };
        // marvel-taint: mask the shadow like the value, then account for
        // sign-extension (a tainted sign bit taints every upper bit) and
        // a tainted request address (any byte could have been fetched).
        let value_taint = if self.taint.is_some() {
            let mut t = raw_taint;
            if let Op::Load { signed, .. } = op {
                if eff_size < 8 {
                    let bits = eff_size as u32 * 8;
                    t &= (1u64 << bits) - 1;
                    if signed && t & (1u64 << (bits - 1)) != 0 {
                        t |= !0u64 << (bits - 1);
                    }
                }
            }
            let addr_t = if lqi != QNONE { self.lq.entries[lqi as usize].addr_taint } else { 0 };
            t | if addr_t != 0 || ctl_taint { !0 } else { 0 }
        } else {
            0
        };
        let e = &mut self.rob[idx];
        e.mem_addr = eff_addr;
        let from_lq = e.lq;
        if e.lq != QNONE {
            let lqe = &mut self.lq.entries[e.lq as usize];
            lqe.done = true;
            lqe.data = value;
            // The access overwrites the buffered data field, taint included
            // (an earlier flip into it is masked by the fresh value).
            lqe.data_taint = value_taint;
        }
        self.events.push(Event {
            at: self.cycle + lat as u64,
            seq,
            result: value,
            from_lq,
            taint: value_taint,
        });
        true
    }

    // ------------------------------------------------------------------
    // rename / dispatch
    // ------------------------------------------------------------------

    fn dispatch(&mut self) {
        let spec = self.isa.reg_spec();
        let zero = spec.zero;
        let mut width = self.cfg.issue_width;
        while width > 0 && !self.fq.is_empty() {
            if self.rob.len() >= self.cfg.rob_entries || self.iq.len() >= self.cfg.iq_entries {
                return;
            }
            let fu = self.fq[0];

            // Resource checks before consuming.
            let is_load = fu.uop.op.is_load();
            let is_store = fu.uop.op.is_store();
            let needs_dst = fu.uop.rd != REG_NONE && Some(fu.uop.rd) != zero && fu.trap.is_none();
            if needs_dst && self.freelist.is_empty() {
                return;
            }
            let lq_idx = if is_load && fu.trap.is_none() {
                match self.lq.alloc(self.next_seq) {
                    Some(i) => i as u16,
                    None => return,
                }
            } else {
                QNONE
            };
            let sq_idx = if is_store && fu.trap.is_none() {
                match self.sq.alloc(self.next_seq) {
                    Some(i) => {
                        // The youngest store only becomes the oldest
                        // unresolved one when there is no other.
                        if self.oldest_unresolved == Some(None) {
                            self.oldest_unresolved = Some(Some(self.next_seq));
                        }
                        i as u16
                    }
                    None => {
                        if lq_idx != QNONE {
                            self.lq.free(lq_idx as usize);
                        }
                        return;
                    }
                }
            } else {
                QNONE
            };

            self.fq.remove(0);
            let seq = self.next_seq;
            self.next_seq += 1;

            let mut psrc = [PNONE; 3];
            for (k, rs) in [fu.uop.rs1, fu.uop.rs2, fu.uop.rs3].into_iter().enumerate() {
                if rs != REG_NONE {
                    psrc[k] = if Some(rs) == zero { 0 } else { self.rename.get(rs) };
                }
            }
            let (pdst, prev_pdst) = if needs_dst {
                let p = self.freelist.alloc().expect("checked non-empty");
                let prev = self.rename.get(fu.uop.rd);
                self.rename.set(fu.uop.rd, p);
                self.prf.set_ready(p, false);
                (p, prev)
            } else {
                (PNONE, PNONE)
            };

            // marvel-taint: a uop decoded from tainted bytes, or one whose
            // source mapping was corrupted, is suspect end to end.
            let mut ctl_taint = fu.tainted;
            let cyc = self.cycle;
            if let Some(tp) = self.taint.as_deref_mut() {
                if fu.tainted {
                    tp.tracer.hop(cyc, T_DECODE, T_ROB);
                }
                for rs in [fu.uop.rs1, fu.uop.rs2, fu.uop.rs3] {
                    if rs != REG_NONE
                        && Some(rs) != zero
                        && tp.rename.get(rs as usize).copied().unwrap_or(false)
                    {
                        ctl_taint = true;
                        tp.tracer.hop(cyc, T_RENAME, T_ROB);
                    }
                }
                if needs_dst {
                    // A fresh mapping overwrites (masks) a corrupted one.
                    if let Some(t) = tp.rename.get_mut(fu.uop.rd as usize) {
                        *t = false;
                    }
                }
            }

            let needs_exec = fu.trap.is_none()
                && !matches!(fu.uop.op, Op::Halt | Op::Checkpoint | Op::SwitchCpu | Op::Nop | Op::Iret);

            let ent = RobEntry {
                seq,
                uop: fu.uop,
                pc: fu.pc,
                macro_len: fu.macro_len,
                first_of_macro: fu.first_of_macro,
                last_of_macro: fu.last_of_macro,
                predicted_next: fu.predicted_next,
                actual_next: fu.pc.wrapping_add(fu.macro_len as u64),
                taken: false,
                pdst,
                prev_pdst,
                psrc,
                state: if needs_exec { EState::Waiting } else { EState::Done },
                trap: fu.trap,
                lq: lq_idx,
                sq: sq_idx,
                result: 0,
                mem_addr: 0,
                replay: false,
                result_taint: 0,
                ctl_taint,
            };
            self.rob.push_back(ent);
            if let Some(p) = self.pipe.as_deref_mut() {
                p.dispatch(seq, fu.pc, format!("{:?}", fu.uop.op), fu.fetched_at, cyc);
                if !needs_exec {
                    // Markers/traps never issue: close their stages now.
                    p.issue(seq, cyc);
                    p.complete(seq, cyc);
                }
            }
            if needs_exec {
                self.iq.push(IqEntry { seq, psrc, class: IqClass::of(fu.uop.op), parked: 0 });
            }
            width -= 1;
        }
    }

    // ------------------------------------------------------------------
    // fetch
    // ------------------------------------------------------------------

    fn fetch(&mut self, bus: &mut dyn Bus) {
        if self.fetch_halted || self.cycle < self.fetch_stall_until {
            return;
        }
        let mut budget = self.cfg.fetch_width;
        while budget > 0 {
            if self.fq.len() + 4 > self.cfg.fetch_queue {
                return;
            }
            let pc = self.fetch_pc;
            // Gather up to max_inst_len bytes across at most two lines.
            let max_len = self.isa.max_inst_len();
            let mut window = [0u8; 16];
            let line = self.cfg.l1i.line as u64;
            let off = (pc % line) as usize;
            let avail0 = (line as usize - off).min(max_len);

            if !bus.is_cacheable(pc) {
                self.push_trap_uop(pc, Trap::FetchFault { pc });
                return;
            }
            match self.ensure_line(bus, pc, true) {
                Some(lat) if lat > self.cfg.l1i.latency => {
                    self.fetch_stall_until = self.cycle + lat as u64;
                    return;
                }
                Some(_) => {}
                None => {
                    self.push_trap_uop(pc, Trap::FetchFault { pc });
                    return;
                }
            }
            let mut win_tainted = false;
            {
                let way = self.l1i.lookup(pc & !(line - 1)).expect("resident");
                let bytes = self.l1i.line_bytes(pc & !(line - 1), way, off, avail0);
                window[..avail0].copy_from_slice(&bytes[off..off + avail0]);
                win_tainted |= self.l1i.taint_range_any(pc & !(line - 1), way, off, avail0);
            }
            let mut avail = avail0;
            let mut decoded = self.isa.decode(&window[..avail]);
            if matches!(decoded, Err(marvel_isa::trap::DecodeError::Truncated)) && avail < max_len {
                // Need bytes from the next line.
                let npc = (pc & !(line - 1)) + line;
                if !bus.is_cacheable(npc) {
                    self.push_trap_uop(pc, Trap::FetchFault { pc: npc });
                    return;
                }
                match self.ensure_line(bus, npc, true) {
                    Some(lat) if lat > self.cfg.l1i.latency => {
                        self.fetch_stall_until = self.cycle + lat as u64;
                        return;
                    }
                    Some(_) => {}
                    None => {
                        self.push_trap_uop(pc, Trap::FetchFault { pc: npc });
                        return;
                    }
                }
                let need = max_len - avail;
                {
                    let way = self.l1i.lookup(npc).expect("resident");
                    let bytes = self.l1i.line_bytes(npc, way, 0, need);
                    window[avail..avail + need].copy_from_slice(&bytes[..need]);
                    win_tainted |= self.l1i.taint_range_any(npc, way, 0, need);
                }
                avail += need;
                decoded = self.isa.decode(&window[..avail]);
            }

            let d = match decoded {
                Ok(d) => d,
                Err(_) => {
                    self.push_trap_uop(pc, Trap::IllegalInstruction { pc });
                    return;
                }
            };

            // Predict the next fetch address.
            let len = d.len as u64;
            let fallthrough = pc.wrapping_add(len);
            let last = d.uops.as_slice().last().copied().unwrap_or(MicroOp::bare(Op::Nop));
            let predicted_next = match last.op {
                Op::Jal => {
                    if d.call {
                        self.bp.ras_push(fallthrough);
                    }
                    pc.wrapping_add(last.imm as u64)
                }
                Op::Jalr => {
                    if d.ret {
                        self.bp.ras_pop().unwrap_or(fallthrough)
                    } else {
                        if d.call {
                            self.bp.ras_push(fallthrough);
                        }
                        fallthrough
                    }
                }
                Op::Branch(_) => {
                    if self.bp.predict(pc) {
                        pc.wrapping_add(last.imm as u64)
                    } else {
                        fallthrough
                    }
                }
                _ => fallthrough,
            };

            if win_tainted {
                self.taint_hop(T_L1I, T_DECODE);
            }
            let n = d.uops.len();
            for (k, &u) in d.uops.as_slice().iter().enumerate() {
                self.fq.push(FetchedUop {
                    uop: u,
                    pc,
                    macro_len: d.len,
                    first_of_macro: k == 0,
                    last_of_macro: k == n - 1,
                    predicted_next: if k == n - 1 { predicted_next } else { fallthrough },
                    trap: None,
                    tainted: win_tainted,
                    fetched_at: self.cycle,
                });
            }
            budget = budget.saturating_sub(n);
            self.fetch_pc = predicted_next;
            // Stop fetching past a Halt marker.
            if matches!(last.op, Op::Halt) {
                self.fetch_halted = true;
                return;
            }
        }
    }

    fn push_trap_uop(&mut self, pc: u64, trap: Trap) {
        self.fq.push(FetchedUop {
            uop: MicroOp::bare(Op::Nop),
            pc,
            macro_len: 0,
            first_of_macro: true,
            last_of_macro: true,
            predicted_next: pc,
            trap: Some(trap),
            tainted: false,
            fetched_at: self.cycle,
        });
        self.fetch_halted = true;
    }

    // ------------------------------------------------------------------
    // commit-effect log (lockstep oracle) & architectural state transfer
    // ------------------------------------------------------------------

    /// Start logging every committed micro-op's architectural effects
    /// (drained by the SoC into the lockstep oracle).
    pub fn enable_commit_effects(&mut self) {
        self.commit_log = Some(Vec::new());
    }

    pub fn commit_effects_enabled(&self) -> bool {
        self.commit_log.is_some()
    }

    /// Take the effects committed since the previous drain.
    pub fn drain_commit_effects(&mut self) -> Vec<CommitEffect> {
        self.commit_log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// The architectural PC. Only meaningful when the pipeline is empty
    /// (right after [`reset_to`](Self::reset_to) or a committed marker).
    pub fn arch_pc(&self) -> u64 {
        self.fetch_pc
    }

    /// Snapshot the architectural register file through the retirement
    /// rename map (observational: no fault monitoring side effects).
    pub fn arch_regs(&self) -> Vec<u64> {
        let n = self.isa.reg_spec().total_regs;
        (0..n).map(|a| self.prf.peek(self.retire.get(a))).collect()
    }

    /// Adopt an externally computed architectural state: reset the
    /// pipeline to `pc` and install `regs` as the committed register
    /// values. Used by the reference-model fast-forward to skip the
    /// cycle-level warmup. The zero register (where the ISA has one)
    /// keeps its hardwired phys-0 mapping.
    pub fn transplant_arch_state(&mut self, pc: u64, regs: &[u64]) {
        self.reset_to(pc);
        let spec = self.isa.reg_spec();
        let mut in_use: Vec<u16> = vec![0];
        for (a, &v) in regs.iter().enumerate().take(spec.total_regs as usize) {
            if Some(a as u8) == spec.zero {
                continue;
            }
            // Deterministic dense mapping: arch reg a → phys a+1.
            let p = (a + 1) as u16;
            self.prf.write(p, v);
            self.rename.set(a as u8, p);
            self.retire.set(a as u8, p);
            in_use.push(p);
        }
        self.freelist = FreeList::new(self.cfg.int_prf as u16, &in_use);
        self.prf.set_all_ready();
    }

    /// Replay a recorded `(line_addr, icache)` access trace through the
    /// cache hierarchy — ordered oldest-last-touch first, so recently
    /// used lines win the replacement race — then zero the hit/miss
    /// counters so the warmup itself is not counted.
    pub fn warm_caches(&mut self, bus: &mut dyn Bus, lines: &[(u64, bool)]) {
        for &(addr, icache) in lines {
            let _ = self.ensure_line(bus, addr, icache);
        }
        for c in [&mut self.l1i, &mut self.l1d, &mut self.l2] {
            c.hits = 0;
            c.misses = 0;
        }
    }

    // ------------------------------------------------------------------
    // ROB fault injection
    // ------------------------------------------------------------------

    /// Injectable ROB bit space: 64 result bits per entry slot.
    pub fn rob_bit_len(&self) -> u64 {
        self.cfg.rob_entries as u64 * 64
    }

    /// Arm a flip of a result bit in ROB slot `bit/64`; it fires when the
    /// next result lands in that slot (or corrupts a live result at once).
    pub fn rob_flip_bit(&mut self, bit: u64) -> FaultFate {
        let slot = bit / 64;
        let b = bit % 64;
        // If the slot currently holds a done entry, corrupt it in place.
        let cap = self.cfg.rob_entries as u64;
        for e in &mut self.rob {
            if e.seq % cap == slot && e.state == EState::Done {
                e.result ^= 1 << b;
                e.result_taint |= 1 << b;
                self.rob_armed = Some((bit, FaultFate::Read));
                return FaultFate::Pending;
            }
        }
        self.rob_flip = Some((slot, b));
        self.rob_armed = Some((bit, FaultFate::Pending));
        FaultFate::Pending
    }

    /// Fate of the armed ROB fault.
    pub fn rob_fate(&self) -> Option<FaultFate> {
        self.rob_armed.map(|(_, f)| f)
    }

    // ------------------------------------------------------------------
    // lane-packed campaign passes
    // ------------------------------------------------------------------

    /// Attach the lane overlay engine: the next run is a lane pass.
    pub fn lane_begin(&mut self) {
        self.lanes = Some(Box::new(LaneEngine::new(self.prf.len(), self.prf_fp.len(), self.isa)));
    }

    /// Tear the overlay down and drop every cache-side lane monitor.
    pub fn lane_end(&mut self) {
        self.lanes = None;
        self.l1i.lane_clear();
        self.l1d.lane_clear();
        self.l2.lane_clear();
    }

    /// The live overlay, for the pass driver's retirement arithmetic.
    pub fn lane_engine(&self) -> Option<&LaneEngine> {
        self.lanes.as_deref()
    }

    /// Arm lane `lane` on a PRF bit (`fp` selects the FP file): the diff
    /// overlay and fate monitor are seeded; golden values stay untouched.
    /// Mirrors [`PhysRegFile::flip_bit`]'s initial `Pending` fate.
    pub fn lane_arm_prf(&mut self, lane: u8, fp: bool, bit: u64) -> FaultFate {
        let le = self.lanes.as_deref_mut().expect("lane_begin before lane_arm_prf");
        le.arm_prf(lane, fp, (bit / 64) as u16, (bit % 64) as u8);
        FaultFate::Pending
    }

    /// Arm lane `lane` on a ROB result bit, with the same in-place /
    /// deferred split as [`rob_flip_bit`](Self::rob_flip_bit): a `Done`
    /// entry in the slot is corrupted at once (fate `Read`), otherwise
    /// the flip fires at the next writeback into the slot.
    pub fn lane_arm_rob(&mut self, lane: u8, bit: u64) -> FaultFate {
        let slot = bit / 64;
        let b = (bit % 64) as u8;
        let cap = self.cfg.rob_entries as u64;
        let inplace =
            self.rob.iter().find(|e| e.seq % cap == slot && e.state == EState::Done).map(|e| e.seq);
        let le = self.lanes.as_deref_mut().expect("lane_begin before lane_arm_rob");
        match inplace {
            Some(seq) => le.arm_rob_inplace(lane, seq, b),
            None => le.arm_rob_deferred(lane, slot as u16, b),
        }
        FaultFate::Pending
    }

    /// Register a cache-armed lane with the overlay (the cache's own
    /// monitor was armed via [`Cache::lane_arm`], which returned `fate`).
    pub fn lane_note_cache_arm(&mut self, lane: u8, fate: FaultFate) {
        let le = self.lanes.as_deref_mut().expect("lane_begin before cache arming");
        le.arm_cache(lane);
        if fate != FaultFate::Pending {
            le.note_fate(lane, fate);
        }
    }

    /// Drain lane events from the overlay and every cache monitor into
    /// `out` (cleared first; reuse it across ticks to avoid allocating).
    pub fn lane_drain_events(&mut self, out: &mut Vec<LaneEvent>) {
        out.clear();
        let Some(le) = self.lanes.as_deref_mut() else { return };
        for c in [&mut self.l1i, &mut self.l1d, &mut self.l2] {
            for ev in c.drain_lane_events() {
                match ev {
                    CacheLaneEvent::Fork(l) => le.fork(1u64 << l),
                    CacheLaneEvent::Fate(l, f) => le.note_fate(l, f),
                }
            }
        }
        // `append` leaves the queue's allocation for the next tick.
        out.append(&mut le.events);
    }

    /// Access the speculative rename map (fault-injection target).
    pub fn rename_map_mut(&mut self) -> &mut RenameMap {
        &mut self.rename
    }

    pub fn rename_map(&self) -> &RenameMap {
        &self.rename
    }

    /// Export per-structure counters into a telemetry registry under
    /// `scope` (e.g. `cpu.l1d.miss`, `cpu.rob.occ_avg_x100`). Purely
    /// observational: reads stats, never touches simulation state.
    pub fn publish_metrics(&self, reg: &marvel_telemetry::Registry, scope: &marvel_telemetry::Scope) {
        if !reg.is_enabled() {
            return;
        }
        let s = &self.stats;
        reg.publish_scoped(scope, "cycles", s.cycles);
        reg.publish_scoped(scope, "committed_uops", s.committed_uops);
        reg.publish_scoped(scope, "committed_macros", s.committed_macros);
        reg.publish_scoped(scope, "loads", s.loads);
        reg.publish_scoped(scope, "stores", s.stores);
        reg.publish_scoped(scope, "branches", s.branches);
        reg.publish_scoped(scope, "mispredicts", s.mispredicts);
        reg.publish_scoped(scope, "flushes", s.flushes);
        reg.publish_scoped(scope, "replays", s.replays);
        let issue = scope.child("issue");
        reg.publish_scoped(&issue, "park_skips", s.park_skips);
        reg.publish_scoped(&issue, "unpark_store_addr", s.unpark_store_addr);
        reg.publish_scoped(&issue, "unpark_reg_rewrite", s.unpark_reg_rewrite);
        reg.publish_scoped(&issue, "unpark_external", s.unpark_external);
        reg.publish_scoped(&issue, "unpark_prf_guard", s.unpark_prf_guard);
        reg.publish_scoped(&issue, "unpark_lane_guard", s.unpark_lane_guard);
        for (name, c) in [("l1i", &self.l1i), ("l1d", &self.l1d), ("l2", &self.l2)] {
            let sc = scope.child(name);
            reg.publish_scoped(&sc, "hit", c.hits);
            reg.publish_scoped(&sc, "miss", c.misses);
            reg.publish_scoped(&sc, "valid_lines", c.valid_lines());
        }
        // Time-averaged occupancies, scaled x100 to keep two decimals in
        // integer counters.
        let avg = |accum: u64| (accum * 100).checked_div(s.cycles).unwrap_or(0);
        reg.publish_scoped(&scope.child("rob"), "occ_avg_x100", avg(s.rob_occ_accum));
        reg.publish_scoped(&scope.child("iq"), "occ_avg_x100", avg(s.iq_occ_accum));
        reg.publish_scoped(&scope.child("lq"), "occ_avg_x100", avg(s.lq_occ_accum));
        reg.publish_scoped(&scope.child("sq"), "occ_avg_x100", avg(s.sq_occ_accum));
        let prf = scope.child("prf");
        reg.publish_scoped(&prf, "int_regs", self.prf.len() as u64);
        reg.publish_scoped(&prf, "fp_regs", self.prf_fp.len() as u64);
        reg.publish_scoped(&prf, "freelist_free", self.freelist.len() as u64);
        reg.publish_scoped(&prf, "freelist_free_avg_x100", avg(s.freelist_free_accum));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marvel_isa::AluOp;

    #[test]
    fn op_tags_cover_classes() {
        assert_eq!(op_tag(Op::Alu(AluOp::Add)), 1);
        assert_eq!(op_tag(Op::Load { w: marvel_isa::MemWidth::D, signed: false }), 2);
        assert_eq!(op_tag(Op::Store { w: marvel_isa::MemWidth::B }), 3);
        assert_eq!(op_tag(Op::Jal), 4);
        assert_eq!(op_tag(Op::Halt), 5);
    }

    /// A loop of stores to late-resolving addresses, each read straight
    /// back: after the first ordering replay trains the memory-dependence
    /// predictor, the read-backs park.
    fn parking_core() -> (Core, crate::testbus::TestBus) {
        use marvel_ir::{assemble, FuncBuilder, Module};
        use marvel_isa::{Cond, MemWidth};
        let mut m = Module::new();
        let buf = m.global_zeroed("buf", 512, 8);
        let idx = m.global_u64("idx", &(0..64u64).map(|i| (i * 17) % 64).collect::<Vec<_>>());
        let f = m.declare("main", 0);
        let mut b = FuncBuilder::new(0);
        let base = b.addr_of(buf);
        let idxs = b.addr_of(idx);
        let i = b.li(0);
        let top = b.new_label();
        b.bind(top);
        // The store's slot comes out of the slow mul/div unit, the read-back's
        // (the same slot) out of a table: the load is ready first.
        let slow = b.bin(AluOp::Mul, i, 17);
        let slow = b.bin(AluOp::Rem, slow, 64);
        b.store_idx(MemWidth::D, i, base, slow);
        let slot = b.load_idx(MemWidth::D, false, idxs, i);
        let v = b.load_idx(MemWidth::D, false, base, slot);
        b.out_byte(v);
        let i2 = b.bin(AluOp::Add, i, 1);
        b.assign(i, i2);
        b.br(Cond::Lt, i, 64, top);
        b.halt();
        m.define(f, b.build());
        let bin = assemble(&m, Isa::RiscV).unwrap();
        let mut bus = crate::testbus::TestBus::new();
        bus.load(bin.entry, &bin.image);
        // Wide enough that an unparked load always finds an ALU.
        let mut cfg = CoreConfig::table2(Isa::RiscV);
        cfg.issue_width = 64;
        cfg.n_alu = 64;
        let mut core = Core::new(cfg);
        core.reset_to(bin.entry);
        (core, bus)
    }

    /// Rewriting a register a parked load reads must release the load at
    /// the next select, even while the store queue still blocks it: here
    /// the new address is unmapped, so the re-attempt takes the trap that
    /// a full select loop would take.
    #[test]
    fn rewriting_a_parked_loads_source_releases_it() {
        let (mut core, mut bus) = parking_core();
        for _ in 0..200_000 {
            assert_eq!(core.tick(&mut bus), StepEvent::None, "program ended before a usable park");
            let epoch = core.park_epoch;
            let Some(q) = core.iq.iter().find(|q| q.parked == epoch && q.psrc[0] != PNONE).copied()
            else {
                continue;
            };
            // Control: left alone, the next select keeps the load parked.
            let (mut control, mut cbus) = (core.clone(), bus.clone());
            control.issue(&mut cbus);
            if !control.iq.iter().any(|c| c.seq == q.seq && c.parked == control.park_epoch) {
                continue;
            }
            core.prf.write(q.psrc[0], 0x10);
            core.issue(&mut bus);
            assert!(core.iq.iter().all(|c| c.seq != q.seq), "load {} stayed parked", q.seq);
            let idx = core.rob_index_of(q.seq).expect("load still in flight");
            assert!(
                matches!(core.rob[idx].trap, Some(Trap::MemFault { .. } | Trap::Misaligned { .. })),
                "re-attempt did not take the address trap: {:?}",
                core.rob[idx].trap
            );
            assert_eq!(core.stats.unpark_reg_rewrite, 1);
            return;
        }
        panic!("no load parked");
    }

    #[test]
    #[should_panic(expected = "cache line sizes must match across the hierarchy")]
    fn mismatched_cache_line_sizes_are_rejected() {
        let mut cfg = CoreConfig::table2(Isa::RiscV);
        cfg.l2.line = 2 * cfg.l1d.line;
        let _ = Core::new(cfg);
    }

    #[test]
    fn core_constructs_for_all_isas() {
        for isa in Isa::ALL {
            let c = Core::new(CoreConfig::table2(isa));
            assert_eq!(c.prf.len(), 128);
            assert_eq!(c.lq.entries.len(), 32);
            assert_eq!(c.rob_bit_len(), 128 * 64);
        }
    }
}
