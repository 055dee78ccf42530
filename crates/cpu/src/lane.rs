//! Bit-plane lane execution: pack up to 64 single-bit transient faults
//! into one golden pass.
//!
//! A lane pass executes the shared golden control flow once. Each packed
//! fault ("lane") is represented purely as an XOR *diff* against the
//! golden data flow: a 64-bit value whose set bits are where the lane's
//! value differs from golden. Diffs live in three tables — physical
//! registers, in-flight execute events (keyed by sequence number) and ROB
//! result fields — and are propagated through ALU operations either
//! lane-by-lane (sparse) or via bit-plane arithmetic over [`LanePlane`]
//! lane words (dense): plane `i` holds bit `i` of all 64 lanes, so one
//! ripple-carry pass adds all lanes at once.
//!
//! The pass stays byte-identical to scalar runs by construction:
//!
//! * **Golden state is never mutated.** Lane faults are armed as diffs
//!   plus per-lane fate monitors; memory, caches, the store queue and the
//!   fetch stream all remain golden.
//! * **Fork on divergence.** The moment a lane's diff would reach control
//!   flow (branch condition, jump target), a memory address, store data,
//!   or a trap decision — or a cache lane's armed byte is read at all —
//!   the lane is forked: dropped from the pass and re-run as an ordinary
//!   scalar injection. Forking is always safe; packing is only an
//!   optimisation for lanes whose divergence never escapes the data flow.
//! * **Fate bits force forks or retirement.** A cache fault that is read
//!   returns genuinely corrupt bytes the pass does not model — fork. A
//!   fault that is overwritten clean, or armed into an invalid line, can
//!   never diverge again — the lane retires in-pass with the exact record
//!   arithmetic the scalar engine would produce.

use crate::cache::FaultFate;
use marvel_isa::{AluOp, Isa};

/// Hard upper bound on lanes per pass: one bit of a `u64` lane word each.
pub const MAX_LANES: usize = 64;

/// Lane-count threshold at which ALU diff propagation switches from
/// per-lane scalar evaluation to transposed bit-plane arithmetic.
const PLANE_THRESHOLD: u32 = 8;

// ---------------------------------------------------------------------
// Bit-plane primitives
// ---------------------------------------------------------------------

/// 64 lanes of 64-bit values in bit-plane (bit-sliced) form:
/// `planes[i]` bit `l` is bit `i` of lane `l`'s value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LanePlane {
    pub planes: [u64; 64],
}

impl LanePlane {
    pub const ZERO: LanePlane = LanePlane { planes: [0; 64] };

    /// Every lane holds the same value `v`.
    #[inline]
    pub fn broadcast(v: u64) -> Self {
        let mut planes = [0u64; 64];
        for (i, p) in planes.iter_mut().enumerate() {
            if (v >> i) & 1 != 0 {
                *p = !0;
            }
        }
        LanePlane { planes }
    }

    /// Pack lane-major values (`vals[l]` = lane `l`) into planes.
    pub fn from_lanes(vals: &[u64; 64]) -> Self {
        let mut planes = *vals;
        transpose64(&mut planes);
        LanePlane { planes }
    }

    /// Unpack back to lane-major values.
    pub fn to_lanes(&self) -> [u64; 64] {
        let mut vals = self.planes;
        transpose64(&mut vals);
        vals
    }

    /// Extract a single lane's value.
    pub fn lane(&self, l: usize) -> u64 {
        let mut v = 0u64;
        for (i, p) in self.planes.iter().enumerate() {
            v |= ((p >> l) & 1) << i;
        }
        v
    }

    #[inline]
    pub fn xor(&self, o: &Self) -> Self {
        let mut planes = [0u64; 64];
        for (i, p) in planes.iter_mut().enumerate() {
            *p = self.planes[i] ^ o.planes[i];
        }
        LanePlane { planes }
    }

    #[inline]
    pub fn and(&self, o: &Self) -> Self {
        let mut planes = [0u64; 64];
        for (i, p) in planes.iter_mut().enumerate() {
            *p = self.planes[i] & o.planes[i];
        }
        LanePlane { planes }
    }

    #[inline]
    pub fn or(&self, o: &Self) -> Self {
        let mut planes = [0u64; 64];
        for (i, p) in planes.iter_mut().enumerate() {
            *p = self.planes[i] | o.planes[i];
        }
        LanePlane { planes }
    }

    /// Lane-packed wrapping addition: one ripple-carry pass over the
    /// planes adds all 64 lanes simultaneously.
    pub fn add(&self, o: &Self) -> Self {
        let mut planes = [0u64; 64];
        let mut carry = 0u64;
        for (i, p) in planes.iter_mut().enumerate() {
            let (a, b) = (self.planes[i], o.planes[i]);
            *p = a ^ b ^ carry;
            carry = (a & b) | (carry & (a ^ b));
        }
        LanePlane { planes }
    }

    /// Lane-packed wrapping subtraction (`self - o`).
    pub fn sub(&self, o: &Self) -> Self {
        let mut planes = [0u64; 64];
        let mut borrow = 0u64;
        for (i, p) in planes.iter_mut().enumerate() {
            let (a, b) = (self.planes[i], o.planes[i]);
            *p = a ^ b ^ borrow;
            borrow = (!a & (b | borrow)) | (b & borrow);
        }
        LanePlane { planes }
    }

    /// Logical shift left by a constant amount (all lanes): a plane
    /// permutation, no arithmetic at all.
    pub fn shl_const(&self, k: u32) -> Self {
        let k = (k & 63) as usize;
        let mut planes = [0u64; 64];
        planes[k..].copy_from_slice(&self.planes[..64 - k]);
        LanePlane { planes }
    }

    /// Logical shift right by a constant amount (all lanes).
    pub fn shr_const(&self, k: u32) -> Self {
        let k = (k & 63) as usize;
        let mut planes = [0u64; 64];
        planes[..64 - k].copy_from_slice(&self.planes[k..]);
        LanePlane { planes }
    }

    /// Arithmetic shift right by a constant amount (all lanes): vacated
    /// planes replicate the sign plane.
    pub fn sar_const(&self, k: u32) -> Self {
        let k = (k & 63) as usize;
        let mut planes = [0u64; 64];
        planes[..64 - k].copy_from_slice(&self.planes[k..]);
        for p in planes.iter_mut().skip(64 - k).take(k) {
            *p = self.planes[63];
        }
        LanePlane { planes }
    }

    /// Per-lane equality mask: bit `l` set iff lane `l` of `self` equals
    /// lane `l` of `o`.
    pub fn eq_mask(&self, o: &Self) -> u64 {
        let mut ne = 0u64;
        for i in 0..64 {
            ne |= self.planes[i] ^ o.planes[i];
        }
        !ne
    }

    /// Per-lane unsigned less-than mask (`self < o`): the final borrow of
    /// a lane-packed subtraction.
    pub fn lt_u_mask(&self, o: &Self) -> u64 {
        let mut borrow = 0u64;
        for i in 0..64 {
            let (a, b) = (self.planes[i], o.planes[i]);
            borrow = (!a & (b | borrow)) | (b & borrow);
        }
        borrow
    }

    /// Per-lane signed less-than mask: unsigned compare with the sign
    /// plane inverted on both sides.
    pub fn lt_s_mask(&self, o: &Self) -> u64 {
        let mut a = self.clone();
        let mut b = o.clone();
        a.planes[63] = !a.planes[63];
        b.planes[63] = !b.planes[63];
        a.lt_u_mask(&b)
    }
}

/// In-place transpose of a 64×64 bit matrix (`a[row]` bit `col` ↔
/// `a[col]` bit `row`), Hacker's Delight 7-3. Involution: applying it
/// twice is the identity, so the same routine packs lane-major values
/// into planes and unpacks them back.
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k] ^= t << j;
            a[k | j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Result of lane-packed ALU diff propagation: per-lane result diffs plus
/// a mask of lanes whose evaluation diverged in a way data flow cannot
/// express (an ISA that traps on divide-by-zero, where a lane's divisor
/// diff turns a well-defined golden division into a trap).
pub struct AluDiff {
    pub diff: [u64; 64],
    pub fork: u64,
}

/// Propagate lane diffs through one ALU operation.
///
/// `a`/`b` are the golden operands, `golden` the golden result, `da`/`db`
/// the per-lane operand diffs and `mask` the lanes that carry any operand
/// diff (lanes outside `mask` keep a zero result diff by construction:
/// golden operands produce the golden result). Dense masks go through the
/// bit-plane path — one ripple-carry or plane permutation covers every
/// lane — sparse masks evaluate lane-by-lane.
#[allow(clippy::too_many_arguments)]
pub fn alu_diff(
    op: AluOp,
    isa: Isa,
    a: u64,
    b: u64,
    golden: u64,
    da: &[u64; 64],
    db: &[u64; 64],
    mask: u64,
) -> AluDiff {
    let mut out = AluDiff { diff: [0; 64], fork: 0 };
    if mask == 0 {
        return out;
    }
    let plane_ok = match op {
        AluOp::Add | AluOp::Sub | AluOp::And | AluOp::Or | AluOp::Xor | AluOp::Slt | AluOp::Sltu => true,
        // Shifts stay in plane form only when every lane agrees on the
        // shift amount (no diff on `b`): the shift is then a constant
        // plane permutation.
        AluOp::Sll | AluOp::Srl | AluOp::Sra => (0..64).all(|l| mask & (1 << l) == 0 || db[l] == 0),
        // Multiplication and division mix bits non-locally; per-lane
        // scalar evaluation is both simpler and faster at any density.
        AluOp::Mul | AluOp::Div | AluOp::Rem => false,
    };
    if plane_ok && mask.count_ones() >= PLANE_THRESHOLD {
        let pa = LanePlane::broadcast(a).xor(&LanePlane::from_lanes(da));
        let pb = LanePlane::broadcast(b).xor(&LanePlane::from_lanes(db));
        let res = match op {
            AluOp::Add => pa.add(&pb),
            AluOp::Sub => pa.sub(&pb),
            AluOp::And => pa.and(&pb),
            AluOp::Or => pa.or(&pb),
            AluOp::Xor => pa.xor(&pb),
            AluOp::Sll => pa.shl_const((b & 63) as u32),
            AluOp::Srl => pa.shr_const((b & 63) as u32),
            AluOp::Sra => pa.sar_const((b & 63) as u32),
            AluOp::Slt => {
                let lt = pa.lt_s_mask(&pb);
                mask_to_diff(lt, golden, mask, &mut out.diff);
                return out;
            }
            AluOp::Sltu => {
                let lt = pa.lt_u_mask(&pb);
                mask_to_diff(lt, golden, mask, &mut out.diff);
                return out;
            }
            _ => unreachable!("plane_ok excludes the rest"),
        };
        let dr = res.xor(&LanePlane::broadcast(golden)).to_lanes();
        let mut m = mask;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            out.diff[l] = dr[l];
        }
        return out;
    }
    let mut m = mask;
    while m != 0 {
        let l = m.trailing_zeros() as usize;
        m &= m - 1;
        match op.eval(a ^ da[l], b ^ db[l], isa) {
            Some(r) => out.diff[l] = r ^ golden,
            None => out.fork |= 1 << l,
        }
    }
    out
}

/// Turn a per-lane 0/1 compare mask into result diffs against the golden
/// 0/1 result, restricted to `mask`.
fn mask_to_diff(bits: u64, golden: u64, mask: u64, diff: &mut [u64; 64]) {
    let mut m = mask;
    while m != 0 {
        let l = m.trailing_zeros() as usize;
        m &= m - 1;
        diff[l] = ((bits >> l) & 1) ^ golden;
    }
}

// ---------------------------------------------------------------------
// Lane engine state
// ---------------------------------------------------------------------

/// What a lane is armed on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneArm {
    /// A PRF bit: `(fp, reg, bit-in-reg)`.
    Prf { fp: bool, reg: u16, bit: u8 },
    /// A ROB result-field bit: `(slot, bit)` — fires at the next
    /// writeback into the slot, exactly like the scalar deferred flip.
    Rob { slot: u16, bit: u8 },
    /// A cache data bit, resolved to `(set, way, byte, bit)` by the
    /// owning cache; the cache-side monitor tracks it.
    Cache,
}

/// A lane-visible event drained by the pass driver after each tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneEvent {
    /// The lane's fault fate latched (first transition only).
    Fate(u8, FaultFate),
    /// The lane must leave the pass and re-run scalar: its divergence
    /// reached control flow, a memory address, store data, a trap
    /// decision, or a corrupt cache byte was actually read.
    Fork(u8),
    /// The lane's committed result stream diverged from the golden trace
    /// (a recorded commit carried a nonzero diff).
    Diverged(u8),
}

/// Per-pass diff and fate state for the packed lanes. Owned by the core;
/// the caches carry their own thin fate monitors and feed
/// [`LaneEvent`]s into the shared drain queue.
#[derive(Debug, Clone)]
pub struct LaneEngine {
    /// Bit `l` set: lane `l` is still live in the pass (not forked).
    pub live: u64,
    /// Lanes whose fate has latched (no longer `Pending`).
    pub fates: [FaultFate; MAX_LANES],
    fate_latched: u64,
    /// Per-physical-register lane diffs, flattened: `reg * 64 + lane`.
    /// `reg_nz[reg]` masks the lanes with a nonzero diff on that reg.
    reg_diffs: Vec<u64>,
    reg_nz: Vec<u64>,
    /// Per-register mask of lanes whose PRF fate monitor is still armed
    /// (Pending): the next read latches `Read`, the next write latches
    /// `Overwritten`, mirroring the scalar `PhysRegFile` armed monitor.
    prf_fate_mask: Vec<u64>,
    fp_base: usize,
    /// In-flight execute-event diffs, keyed by sequence number.
    event_diffs: Vec<(u64, Box<[u64; 64]>, u64)>,
    /// ROB result-field diffs, keyed by sequence number (alive from
    /// writeback — or in-place arm — until commit or flush).
    rob_diffs: Vec<(u64, Box<[u64; 64]>, u64)>,
    /// Pending deferred ROB flips: `(lane, slot, bit)`.
    rob_armed: Vec<(u8, u16, u8)>,
    /// Event drain queue, collected by the pass driver.
    pub events: Vec<LaneEvent>,
    isa: Isa,
}

impl LaneEngine {
    pub fn new(int_regs: usize, fp_regs: usize, isa: Isa) -> Self {
        let n = int_regs + fp_regs;
        LaneEngine {
            live: 0,
            fates: [FaultFate::Pending; MAX_LANES],
            fate_latched: 0,
            reg_diffs: vec![0; n * 64],
            reg_nz: vec![0; n],
            prf_fate_mask: vec![0; n],
            fp_base: int_regs,
            event_diffs: Vec::new(),
            rob_diffs: Vec::new(),
            rob_armed: Vec::new(),
            events: Vec::new(),
            isa,
        }
    }

    #[inline]
    fn reg_index(&self, fp: bool, reg: u16) -> usize {
        reg as usize + if fp { self.fp_base } else { 0 }
    }

    /// Arm a PRF lane: seed the diff bit and the per-register fate
    /// monitor.
    pub fn arm_prf(&mut self, lane: u8, fp: bool, reg: u16, bit: u8) {
        self.live |= 1 << lane;
        let ri = self.reg_index(fp, reg);
        self.reg_diffs[ri * 64 + lane as usize] = 1u64 << bit;
        self.reg_nz[ri] |= 1 << lane;
        self.prf_fate_mask[ri] |= 1 << lane;
    }

    /// A physical register was read through the operand path: lanes with
    /// an armed fate monitor on it latch `Read` (the scalar run consumed
    /// the flipped value here).
    pub fn note_reg_read(&mut self, fp: bool, reg: u16) {
        let ri = self.reg_index(fp, reg);
        let mut m = self.prf_fate_mask[ri];
        if m != 0 {
            self.prf_fate_mask[ri] = 0;
            while m != 0 {
                let l = m.trailing_zeros() as u8;
                m &= m - 1;
                self.note_fate(l, FaultFate::Read);
            }
        }
    }

    /// A physical register was written (writeback): still-armed fate
    /// monitors on it latch `Overwritten` (the flip died unobserved).
    pub fn note_reg_write(&mut self, fp: bool, reg: u16) {
        let ri = self.reg_index(fp, reg);
        let mut m = self.prf_fate_mask[ri];
        if m != 0 {
            self.prf_fate_mask[ri] = 0;
            while m != 0 {
                let l = m.trailing_zeros() as u8;
                m &= m - 1;
                self.note_fate(l, FaultFate::Overwritten);
            }
        }
    }

    /// Arm a cache lane (diffs never enter the data flow — the cache-side
    /// monitor forks the lane if the byte is ever read).
    pub fn arm_cache(&mut self, lane: u8) {
        self.live |= 1 << lane;
    }

    /// Arm a deferred ROB flip for a lane.
    pub fn arm_rob_deferred(&mut self, lane: u8, slot: u16, bit: u8) {
        self.live |= 1 << lane;
        self.rob_armed.push((lane, slot, bit));
    }

    /// Arm an in-place ROB corruption: the slot held a `Done` entry with
    /// sequence number `seq`; the lane's fate latches `Read` immediately
    /// (the flip acted on live state) and the entry's result now carries
    /// the diff until commit.
    pub fn arm_rob_inplace(&mut self, lane: u8, seq: u64, bit: u8) {
        self.live |= 1 << lane;
        self.note_fate(lane, FaultFate::Read);
        let d = self.rob_entry(seq);
        d.1[lane as usize] ^= 1u64 << bit;
        d.2 |= 1 << lane;
    }

    /// Latch a lane's fate (first transition wins, mirroring the scalar
    /// armed-fate monitors) and queue the event.
    pub fn note_fate(&mut self, lane: u8, fate: FaultFate) {
        if self.fate_latched & (1 << lane) != 0 {
            return;
        }
        self.fate_latched |= 1 << lane;
        self.fates[lane as usize] = fate;
        self.events.push(LaneEvent::Fate(lane, fate));
    }

    /// Fork lanes out of the pass: clear them from the live mask and
    /// queue fork events. Their residual diffs are ignored via `live`.
    pub fn fork(&mut self, lanes: u64) {
        let mut m = lanes & self.live;
        self.live &= !lanes;
        while m != 0 {
            let l = m.trailing_zeros() as u8;
            m &= m - 1;
            self.events.push(LaneEvent::Fork(l));
        }
    }

    /// Lanes (within `live`) carrying a nonzero diff on a register.
    #[inline]
    pub fn reg_mask(&self, fp: bool, reg: u16) -> u64 {
        self.reg_nz[self.reg_index(fp, reg)] & self.live
    }

    /// A read of `reg` through the operand path would act on some lane:
    /// a live lane carries a diff on it, or a lane's PRF fate monitor on
    /// it is still armed.
    #[inline]
    pub fn reg_watched(&self, fp: bool, reg: u16) -> bool {
        let ri = self.reg_index(fp, reg);
        self.reg_nz[ri] & self.live != 0 || self.prf_fate_mask[ri] != 0
    }

    #[inline]
    pub fn reg_lane_diffs(&self, fp: bool, reg: u16) -> &[u64] {
        let ri = self.reg_index(fp, reg);
        &self.reg_diffs[ri * 64..ri * 64 + 64]
    }

    fn copy_reg_diffs(&self, fp: bool, reg: u16) -> [u64; 64] {
        let ri = self.reg_index(fp, reg);
        self.reg_diffs[ri * 64..ri * 64 + 64].try_into().unwrap()
    }

    /// Read a register's diffs for use as an ALU operand. `PNONE`-style
    /// absent operands should pass `None`.
    pub fn operand_diffs(&self, fp: bool, reg: Option<u16>) -> ([u64; 64], u64) {
        match reg {
            Some(r) => (self.copy_reg_diffs(fp, r), self.reg_mask(fp, r)),
            None => ([0; 64], 0),
        }
    }

    /// Record an execute event's result diffs (nonzero lanes only).
    pub fn push_event(&mut self, seq: u64, diff: [u64; 64], mask: u64) {
        let m = mask & self.live;
        if m != 0 {
            self.event_diffs.push((seq, Box::new(diff), m));
        }
    }

    /// Take an event's diffs at writeback (removed — the diff moves into
    /// the ROB entry and the destination register).
    pub fn take_event(&mut self, seq: u64) -> Option<(Box<[u64; 64]>, u64)> {
        let i = self.event_diffs.iter().position(|e| e.0 == seq)?;
        let (_, d, m) = self.event_diffs.swap_remove(i);
        Some((d, m))
    }

    fn rob_entry(&mut self, seq: u64) -> &mut (u64, Box<[u64; 64]>, u64) {
        if let Some(i) = self.rob_diffs.iter().position(|e| e.0 == seq) {
            &mut self.rob_diffs[i]
        } else {
            self.rob_diffs.push((seq, Box::new([0; 64]), 0));
            self.rob_diffs.last_mut().unwrap()
        }
    }

    /// Writeback of `seq` into ROB slot `slot` with destination `pdst`:
    /// moves the event diff into the ROB entry, fires any deferred ROB
    /// flips armed on the slot, and replaces the destination register's
    /// diffs (a diff-free writeback washes stale diffs away, exactly like
    /// the scalar overwrite). `pdst == None` models `PNONE`.
    pub fn writeback(&mut self, seq: u64, slot: u16, pdst: Option<u16>, fp: bool) {
        let (mut diff, mut mask) = match self.take_event(seq) {
            Some((d, m)) => (*d, m & self.live),
            None => ([0; 64], 0),
        };
        // Deferred ROB flips on this slot fire now, after the event's
        // value lands and before the PRF write — scalar order.
        let mut fired = false;
        let mut i = 0;
        while i < self.rob_armed.len() {
            let (lane, s, bit) = self.rob_armed[i];
            if s == slot {
                self.rob_armed.swap_remove(i);
                if self.live & (1 << lane) != 0 {
                    diff[lane as usize] ^= 1u64 << bit;
                    mask |= 1 << lane;
                    self.note_fate(lane, FaultFate::Read);
                    fired = true;
                }
            } else {
                i += 1;
            }
        }
        mask &= self.live;
        let _ = fired;
        if mask != 0 {
            let e = self.rob_entry(seq);
            *e.1 = diff;
            e.2 = mask;
        }
        if let Some(p) = pdst {
            let ri = self.reg_index(fp, p);
            let old = self.reg_nz[ri];
            if old != 0 || mask != 0 {
                let base = ri * 64;
                for (l, d) in diff.iter().enumerate() {
                    self.reg_diffs[base + l] = if mask & (1 << l) != 0 { *d } else { 0 };
                }
                self.reg_nz[ri] = mask;
            }
        }
    }

    /// Commit of `seq`: the ROB entry dies. If the commit was recorded in
    /// the golden trace with a result field (`records_result`), any lane
    /// diff on the entry is a committed-stream divergence.
    pub fn commit(&mut self, seq: u64, records_result: bool) {
        if let Some(i) = self.rob_diffs.iter().position(|e| e.0 == seq) {
            let (_, _, mask) = self.rob_diffs.swap_remove(i);
            if records_result {
                let mut m = mask & self.live;
                while m != 0 {
                    let l = m.trailing_zeros() as u8;
                    m &= m - 1;
                    self.events.push(LaneEvent::Diverged(l));
                }
            }
        }
    }

    /// Pipeline flush: every in-flight diff dies (events and ROB
    /// entries); register diffs and deferred ROB arms persist, exactly
    /// like the scalar state under `flush_to`.
    pub fn flush(&mut self) {
        self.event_diffs.clear();
        self.rob_diffs.clear();
    }

    /// Propagate diffs through one ALU op; returns the result diffs.
    #[allow(clippy::too_many_arguments)]
    pub fn alu(
        &mut self,
        op: AluOp,
        a: u64,
        b: u64,
        golden: u64,
        da: &[u64; 64],
        dam: u64,
        db: &[u64; 64],
        dbm: u64,
    ) -> ([u64; 64], u64) {
        let mask = (dam | dbm) & self.live;
        if mask == 0 {
            return ([0; 64], 0);
        }
        let r = alu_diff(op, self.isa, a, b, golden, da, db, mask);
        if r.fork != 0 {
            self.fork(r.fork);
        }
        let mut nz = 0u64;
        let mut m = mask & self.live;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            if r.diff[l] != 0 {
                nz |= 1 << l;
            }
        }
        (r.diff, nz)
    }

    /// Mask of live lanes that still hold any diff or un-fired arm
    /// anywhere (registers, in-flight events, ROB entries, deferred ROB
    /// flips). A lane absent from this mask has fully re-converged with
    /// golden data flow.
    pub fn diffs_live(&self) -> u64 {
        let mut m = 0u64;
        for &nz in &self.reg_nz {
            m |= nz;
        }
        for &(_, _, em) in &self.event_diffs {
            m |= em;
        }
        for &(_, _, rm) in &self.rob_diffs {
            m |= rm;
        }
        for &(lane, _, _) in &self.rob_armed {
            m |= 1 << lane;
        }
        m & self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_is_involutive_and_matches_naive() {
        let mut vals = [0u64; 64];
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        for v in vals.iter_mut() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *v = x;
        }
        let p = LanePlane::from_lanes(&vals);
        // Naive definition: planes[i] bit l == bit i of vals[l].
        for i in 0..64 {
            for (l, v) in vals.iter().enumerate() {
                assert_eq!((p.planes[i] >> l) & 1, (v >> i) & 1, "plane {i} lane {l}");
            }
        }
        assert_eq!(p.to_lanes(), vals);
        for (l, v) in vals.iter().enumerate() {
            assert_eq!(p.lane(l), *v);
        }
    }

    #[test]
    fn broadcast_matches_from_lanes() {
        let v = 0xDEAD_BEEF_0BAD_F00Du64;
        assert_eq!(LanePlane::broadcast(v), LanePlane::from_lanes(&[v; 64]));
    }

    #[test]
    fn plane_add_sub_match_scalar() {
        let mut a = [0u64; 64];
        let mut b = [0u64; 64];
        let mut x = 7u64;
        for i in 0..64 {
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64);
            a[i] = x;
            x = x.rotate_left(17) ^ i as u64;
            b[i] = x;
        }
        let pa = LanePlane::from_lanes(&a);
        let pb = LanePlane::from_lanes(&b);
        let sum = pa.add(&pb).to_lanes();
        let dif = pa.sub(&pb).to_lanes();
        let ltu = pa.lt_u_mask(&pb);
        let lts = pa.lt_s_mask(&pb);
        let eq = pa.eq_mask(&pb);
        for l in 0..64 {
            assert_eq!(sum[l], a[l].wrapping_add(b[l]), "add lane {l}");
            assert_eq!(dif[l], a[l].wrapping_sub(b[l]), "sub lane {l}");
            assert_eq!((ltu >> l) & 1 != 0, a[l] < b[l], "ltu lane {l}");
            assert_eq!((lts >> l) & 1 != 0, (a[l] as i64) < (b[l] as i64), "lts lane {l}");
            assert_eq!((eq >> l) & 1 != 0, a[l] == b[l], "eq lane {l}");
        }
    }

    #[test]
    fn plane_shifts_match_scalar() {
        let mut a = [0u64; 64];
        for (i, v) in a.iter_mut().enumerate() {
            *v = (i as u64).wrapping_mul(0xABCD_EF01_2345_6789) ^ (1u64 << 63);
        }
        let pa = LanePlane::from_lanes(&a);
        for k in [0u32, 1, 7, 31, 63] {
            let shl = pa.shl_const(k).to_lanes();
            let shr = pa.shr_const(k).to_lanes();
            let sar = pa.sar_const(k).to_lanes();
            for l in 0..64 {
                assert_eq!(shl[l], a[l] << k, "shl {k} lane {l}");
                assert_eq!(shr[l], a[l] >> k, "shr {k} lane {l}");
                assert_eq!(sar[l], ((a[l] as i64) >> k) as u64, "sar {k} lane {l}");
            }
        }
    }
}
