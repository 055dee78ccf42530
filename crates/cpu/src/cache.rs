//! Write-back, write-allocate caches with tree-PLRU replacement and
//! bit-accurate line contents.
//!
//! Cache lines hold the **actual program bytes**, so a flipped bit in the
//! L1I data array really changes what the decoder sees, and a flipped bit
//! in the L1D really changes loaded values — the property the whole
//! fault-injection methodology rests on.

use crate::config::CacheConfig;
use crate::dirty::{DirtyMap, DirtyMarks};

/// Monitoring state for the single armed (injected) bit, used for the
/// paper's early-termination optimisation and fault-propagation reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultFate {
    /// Not yet read or overwritten.
    #[default]
    Pending,
    /// The faulty storage was read before being overwritten (the fault was
    /// activated; the run must complete to classify it).
    Read,
    /// The faulty storage was overwritten/refilled before any read: the
    /// fault is definitively masked.
    Overwritten,
    /// The fault targeted an invalid/unused entry: masked immediately.
    InvalidAtInjection,
}

impl FaultFate {
    /// True when the outcome is already known to be Masked.
    pub fn is_masked_early(self) -> bool {
        matches!(self, FaultFate::Overwritten | FaultFate::InvalidAtInjection)
    }
}

#[derive(Debug, Clone)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    data: Box<[u8]>,
}

#[derive(Debug, Clone, Copy)]
struct Armed {
    set: usize,
    way: usize,
    byte: usize,
    fate: FaultFate,
}

/// One lane-packed armed bit: like [`Armed`] but the data plane is NOT
/// mutated — the pass runs pure golden execution and this entry only
/// watches for the access that would make the scalar run diverge.
#[derive(Debug, Clone, Copy)]
struct LaneArmed {
    lane: u8,
    set: usize,
    way: usize,
    byte: usize,
    fate: FaultFate,
}

/// Events the lane monitor reports to the campaign pass driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLaneEvent {
    /// The armed byte was consumed while the flip was still live: a
    /// scalar run would have seen corrupt data here (read overlap), or
    /// would have written the flipped byte downstream (dirty eviction).
    /// The lane can no longer ride the golden pass and must fork.
    Fork(u8),
    /// Fate transition that keeps the lane packed (the flip died without
    /// ever being observed: clean overwrite or clean refill).
    Fate(u8, FaultFate),
}

/// One cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: usize,
    lines: Vec<Line>,
    /// Tree-PLRU state bits, one word per set (supports assoc ≤ 8).
    plru: Vec<u8>,
    /// Permanent stuck-at faults on data bits: (bit index, value).
    stuck: Vec<(u64, bool)>,
    armed: Option<Armed>,
    /// Lane-packed armed bits (campaign lane passes). Empty in scalar
    /// runs, so the hot-path hook is a single `is_empty` test.
    lane_armed: Vec<LaneArmed>,
    lane_events: Vec<CacheLaneEvent>,
    pub hits: u64,
    pub misses: u64,
    /// marvel-taint shadow plane: one shadow byte array per line
    /// (bit-for-bit with `data`). Empty = taint tracking off. Shadow
    /// accessors never touch PLRU, fate monitoring or hit counters, so
    /// enabling taint cannot perturb the simulation.
    shadow: Vec<Box<[u8]>>,
    /// Per-set dirty journal for the zero-copy campaign reset (`None` =
    /// tracking off). A set is marked whenever its lines or PLRU bits
    /// change; armed-fate and shadow updates are not journaled because
    /// `reset_from` restores them wholesale from the pristine checkpoint.
    journal: Option<Box<DirtyMap>>,
}

impl Cache {
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets.is_power_of_two() && cfg.line.is_power_of_two());
        assert!(cfg.assoc <= 8, "tree-PLRU model supports up to 8 ways");
        let lines = (0..sets * cfg.assoc)
            .map(|_| Line {
                tag: 0,
                valid: false,
                dirty: false,
                data: vec![0u8; cfg.line].into_boxed_slice(),
            })
            .collect();
        Cache {
            cfg,
            sets,
            lines,
            plru: vec![0; sets],
            stuck: Vec::new(),
            armed: None,
            lane_armed: Vec::new(),
            lane_events: Vec::new(),
            hits: 0,
            misses: 0,
            shadow: Vec::new(),
            journal: None,
        }
    }

    #[inline]
    fn mark_set(&mut self, set: usize) {
        if let Some(j) = &mut self.journal {
            j.mark(set);
        }
    }

    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    #[inline]
    fn set_of(&self, addr: u64) -> usize {
        ((addr / self.cfg.line as u64) as usize) & (self.sets - 1)
    }

    #[inline]
    fn tag_of(&self, addr: u64) -> u64 {
        addr / (self.cfg.line as u64 * self.sets as u64)
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.cfg.assoc + way
    }

    /// Look up `addr`; returns the way on a hit (and updates PLRU).
    pub fn lookup(&mut self, addr: u64) -> Option<usize> {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        for way in 0..self.cfg.assoc {
            let l = &self.lines[self.idx(set, way)];
            if l.valid && l.tag == tag {
                self.touch(set, way);
                return Some(way);
            }
        }
        None
    }

    /// Tree-PLRU touch: flip tree bits towards `way`.
    fn touch(&mut self, set: usize, way: usize) {
        self.mark_set(set);
        // For associativity w (power of two ≤ 8) the tree has w-1 internal
        // nodes stored breadth-first in a byte.
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.cfg.assoc;
        let mut bits = self.plru[set];
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if way < mid {
                bits |= 1 << node; // next victim search goes right
                node = 2 * node + 1;
                hi = mid;
            } else {
                bits &= !(1 << node);
                node = 2 * node + 2;
                lo = mid;
            }
        }
        self.plru[set] = bits;
    }

    /// Tree-PLRU victim selection (prefers invalid ways first).
    pub fn victim(&self, set: usize) -> usize {
        for way in 0..self.cfg.assoc {
            if !self.lines[self.idx(set, way)].valid {
                return way;
            }
        }
        let bits = self.plru[set];
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.cfg.assoc;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if bits & (1 << node) != 0 {
                node = 2 * node + 2;
                lo = mid;
            } else {
                node = 2 * node + 1;
                hi = mid;
            }
        }
        lo
    }

    /// Read `n` bytes at `addr` from a resident line. Caller must have hit.
    pub fn read(&mut self, addr: u64, n: usize, way: usize) -> u64 {
        let set = self.set_of(addr);
        let off = (addr as usize) & (self.cfg.line - 1);
        debug_assert!(off + n <= self.cfg.line);
        self.note_access(set, way, off, n, false);
        let l = &self.lines[self.idx(set, way)];
        let mut out = [0u8; 8];
        out[..n].copy_from_slice(&l.data[off..off + n]);
        u64::from_le_bytes(out)
    }

    /// Borrow the raw bytes of a resident line (instruction fetch path).
    /// `note_range` marks the byte range as read for fault monitoring.
    pub fn line_bytes(&mut self, addr: u64, way: usize, note_from: usize, note_len: usize) -> &[u8] {
        let set = self.set_of(addr);
        self.note_access(set, way, note_from, note_len, false);
        &self.lines[self.idx(set, way)].data
    }

    /// Write `n` bytes at `addr` into a resident line, marking it dirty.
    pub fn write(&mut self, addr: u64, n: usize, val: u64, way: usize) {
        let set = self.set_of(addr);
        let off = (addr as usize) & (self.cfg.line - 1);
        debug_assert!(off + n <= self.cfg.line);
        self.mark_set(set);
        self.note_access(set, way, off, n, true);
        let idx = self.idx(set, way);
        let l = &mut self.lines[idx];
        l.data[off..off + n].copy_from_slice(&val.to_le_bytes()[..n]);
        l.dirty = true;
        self.apply_stuck_to_line(set, way);
    }

    /// Install a line. When the victim is dirty its bytes are copied into
    /// `victim` (one line long) and its address returned: the caller owes
    /// the level below a write-back.
    pub fn fill(&mut self, addr: u64, data: &[u8], victim: &mut [u8]) -> Option<u64> {
        let set = self.set_of(addr);
        let way = self.victim(set);
        self.mark_set(set);
        // Filling over the armed line without it having been read masks it.
        if let Some(a) = &mut self.armed {
            if a.set == set && a.way == way && a.fate == FaultFate::Pending {
                a.fate = FaultFate::Overwritten;
            }
        }
        if !self.lane_armed.is_empty() {
            // A clean victim discards the flip with the line (the pass's
            // golden fill data is the scalar run's fill data — addresses
            // and PLRU are identical for live lanes). A dirty victim is
            // written back, carrying the flipped byte downstream where the
            // overlay cannot follow it: the lane forks.
            let dirty_escape = {
                let l = &self.lines[self.idx(set, way)];
                l.valid && l.dirty
            };
            for a in &mut self.lane_armed {
                if a.fate == FaultFate::Pending && a.set == set && a.way == way {
                    if dirty_escape {
                        a.fate = FaultFate::Read;
                        self.lane_events.push(CacheLaneEvent::Fork(a.lane));
                    } else {
                        a.fate = FaultFate::Overwritten;
                        self.lane_events.push(CacheLaneEvent::Fate(a.lane, FaultFate::Overwritten));
                    }
                }
            }
        }
        let line_size = self.cfg.line as u64;
        let sets = self.sets as u64;
        let new_tag = self.tag_of(addr);
        let idx = self.idx(set, way);
        let l = &mut self.lines[idx];
        let evicted = if l.valid && l.dirty {
            victim.copy_from_slice(&l.data);
            Some((l.tag * sets + set as u64) * line_size)
        } else {
            None
        };
        l.tag = new_tag;
        l.valid = true;
        l.dirty = false;
        l.data.copy_from_slice(data);
        if !self.shadow.is_empty() {
            // The incoming line starts untainted (the caller re-taints it
            // from the source level's shadow); stale victim taint dies.
            self.shadow[idx].fill(0);
            self.reapply_stuck_taint(set, way);
        }
        self.apply_stuck_to_line(set, way);
        self.touch(set, way);
        evicted
    }

    /// Number of currently valid lines (occupancy gauge).
    pub fn valid_lines(&self) -> u64 {
        self.lines.iter().filter(|l| l.valid).count() as u64
    }

    /// Invalidate every line, writing back nothing (test/reset helper).
    pub fn invalidate_all(&mut self) {
        if let Some(j) = &mut self.journal {
            j.mark_all();
        }
        for l in &mut self.lines {
            l.valid = false;
            l.dirty = false;
        }
    }

    fn note_access(&mut self, set: usize, way: usize, off: usize, n: usize, is_write: bool) {
        if let Some(a) = &mut self.armed {
            if a.set == set
                && a.way == way
                && a.fate == FaultFate::Pending
                && a.byte >= off
                && a.byte < off + n
            {
                a.fate = if is_write { FaultFate::Overwritten } else { FaultFate::Read };
            }
        }
        if !self.lane_armed.is_empty() {
            self.note_lane_access(set, way, off, n, is_write);
        }
    }

    /// Lane-pass mirror of the armed-byte transitions. A write of golden
    /// store data restores the byte exactly (live lanes never diverge
    /// store data — they fork first), so a write overlap kills the flip in
    /// place and the lane stays packed. A read overlap is the moment the
    /// scalar run would have consumed the corrupt byte: the lane forks.
    fn note_lane_access(&mut self, set: usize, way: usize, off: usize, n: usize, is_write: bool) {
        for a in &mut self.lane_armed {
            if a.fate == FaultFate::Pending
                && a.set == set
                && a.way == way
                && a.byte >= off
                && a.byte < off + n
            {
                if is_write {
                    a.fate = FaultFate::Overwritten;
                    self.lane_events.push(CacheLaneEvent::Fate(a.lane, FaultFate::Overwritten));
                } else {
                    a.fate = FaultFate::Read;
                    self.lane_events.push(CacheLaneEvent::Fork(a.lane));
                }
            }
        }
    }

    // ---- fault injection ----

    /// Total injectable data-array bits.
    pub fn bit_len(&self) -> u64 {
        (self.lines.len() * self.cfg.line * 8) as u64
    }

    /// Flip one data-array bit (transient fault). Arms fate monitoring.
    pub fn flip_bit(&mut self, bit: u64) -> FaultFate {
        let (set, way, byte, mask) = self.locate(bit);
        self.mark_set(set);
        let idx = self.idx(set, way);
        let valid = self.lines[idx].valid;
        self.lines[idx].data[byte] ^= mask;
        let fate = if valid { FaultFate::Pending } else { FaultFate::InvalidAtInjection };
        self.armed = Some(Armed { set, way, byte, fate });
        if let Some(s) = self.shadow.get_mut(idx) {
            s[byte] |= mask;
        }
        fate
    }

    /// Install a permanent stuck-at fault on a data-array bit.
    pub fn set_stuck(&mut self, bit: u64, value: bool) {
        self.stuck.push((bit, value));
        let (set, way, byte, mask) = self.locate(bit);
        self.mark_set(set);
        let idx = self.idx(set, way);
        if value {
            self.lines[idx].data[byte] |= mask;
        } else {
            self.lines[idx].data[byte] &= !mask;
        }
        let valid = self.lines[idx].valid;
        self.armed = Some(Armed {
            set,
            way,
            byte,
            fate: if valid { FaultFate::Pending } else { FaultFate::InvalidAtInjection },
        });
        if let Some(s) = self.shadow.get_mut(idx) {
            s[byte] |= mask;
        }
    }

    /// Current fate of the armed fault (if any).
    pub fn fate(&self) -> Option<FaultFate> {
        self.armed.map(|a| a.fate)
    }

    // ---- lane-packed arming (campaign lane passes) ----

    /// Arm lane `lane`'s transient flip at data-array bit `bit` WITHOUT
    /// touching the data plane: the pass executes golden data and this
    /// monitor reports the first access that would make the scalar run
    /// observable. Returns the initial fate (`InvalidAtInjection` when
    /// the bit lands in an invalid line, exactly like
    /// [`flip_bit`](Self::flip_bit)).
    pub fn lane_arm(&mut self, lane: u8, bit: u64) -> FaultFate {
        let (set, way, byte, _) = self.locate(bit);
        let valid = self.lines[self.idx(set, way)].valid;
        let fate = if valid { FaultFate::Pending } else { FaultFate::InvalidAtInjection };
        self.lane_armed.push(LaneArmed { lane, set, way, byte, fate });
        fate
    }

    /// Drop all lane monitors and queued events (pass teardown).
    pub fn lane_clear(&mut self) {
        self.lane_armed.clear();
        self.lane_events.clear();
    }

    /// Drain events queued since the last call (the queue keeps its
    /// allocation for the next tick).
    pub fn drain_lane_events(&mut self) -> std::vec::Drain<'_, CacheLaneEvent> {
        self.lane_events.drain(..)
    }

    fn locate(&self, bit: u64) -> (usize, usize, usize, u8) {
        let line_bits = (self.cfg.line * 8) as u64;
        let line_idx = (bit / line_bits) as usize;
        let set = line_idx / self.cfg.assoc;
        let way = line_idx % self.cfg.assoc;
        let bit_in_line = bit % line_bits;
        let byte = (bit_in_line / 8) as usize;
        let mask = 1u8 << (bit_in_line % 8);
        (set, way, byte, mask)
    }

    fn apply_stuck_to_line(&mut self, set: usize, way: usize) {
        if self.stuck.is_empty() {
            return;
        }
        for k in 0..self.stuck.len() {
            let (bit, value) = self.stuck[k];
            let (s, w, byte, mask) = self.locate(bit);
            if s == set && w == way {
                let idx = self.idx(set, way);
                if value {
                    self.lines[idx].data[byte] |= mask;
                } else {
                    self.lines[idx].data[byte] &= !mask;
                }
            }
        }
    }

    /// Whether the line holding `bit` is currently valid (used to report
    /// immediate masking for faults into invalid entries).
    pub fn bit_in_valid_line(&self, bit: u64) -> bool {
        let (set, way, _, _) = self.locate(bit);
        self.lines[self.idx(set, way)].valid
    }

    // ---- marvel-taint shadow plane ----
    //
    // Every accessor below is observational: no PLRU touches, no fate
    // transitions, no hit/miss counting. The taint plane rides along
    // with the data plane but can never change what the simulation does.

    /// Allocate the shadow plane; later `flip_bit`/`set_stuck` calls
    /// self-seed it at the injected bit.
    pub fn enable_taint(&mut self) {
        if self.shadow.is_empty() {
            self.shadow =
                self.lines.iter().map(|_| vec![0u8; self.cfg.line].into_boxed_slice()).collect();
        }
        // Enabled after arming: re-seed what we can still see.
        if let Some(a) = self.armed {
            let idx = self.idx(a.set, a.way);
            self.shadow[idx][a.byte] = 0xFF;
        }
        let stuck = self.stuck.clone();
        for (bit, _) in stuck {
            let (set, way, byte, mask) = self.locate(bit);
            let idx = self.idx(set, way);
            self.shadow[idx][byte] |= mask;
        }
    }

    #[inline]
    pub fn taint_on(&self) -> bool {
        !self.shadow.is_empty()
    }

    /// Way holding `addr`, with no PLRU side effect (taint paths only —
    /// the data path must keep using [`lookup`](Self::lookup)).
    pub fn probe(&self, addr: u64) -> Option<usize> {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        (0..self.cfg.assoc).find(|&way| {
            let l = &self.lines[self.idx(set, way)];
            l.valid && l.tag == tag
        })
    }

    /// Taint mask (LE bit order, like [`read`](Self::read)) of `n` bytes
    /// at `addr` in a resident line.
    pub fn taint_read(&self, addr: u64, n: usize, way: usize) -> u64 {
        if self.shadow.is_empty() {
            return 0;
        }
        let set = self.set_of(addr);
        let off = (addr as usize) & (self.cfg.line - 1);
        let s = &self.shadow[self.idx(set, way)];
        let mut out = [0u8; 8];
        out[..n].copy_from_slice(&s[off..off + n]);
        u64::from_le_bytes(out)
    }

    /// Overwrite the taint of `n` bytes at `addr` (mirrors
    /// [`write`](Self::write): stored data replaces the bytes' taint).
    pub fn taint_write(&mut self, addr: u64, n: usize, mask: u64, way: usize) {
        if self.shadow.is_empty() {
            return;
        }
        let set = self.set_of(addr);
        let off = (addr as usize) & (self.cfg.line - 1);
        let idx = self.idx(set, way);
        self.shadow[idx][off..off + n].copy_from_slice(&mask.to_le_bytes()[..n]);
        self.reapply_stuck_taint(set, way);
    }

    /// Any tainted bit in `[off, off+n)` of the resident line holding
    /// `addr`? (Instruction-fetch window check.)
    pub fn taint_range_any(&self, addr: u64, way: usize, off: usize, n: usize) -> bool {
        if self.shadow.is_empty() {
            return false;
        }
        let set = self.set_of(addr);
        let s = &self.shadow[self.idx(set, way)];
        s[off..(off + n).min(self.cfg.line)].iter().any(|&b| b != 0)
    }

    /// Whole-line shadow of a resident line (level-to-level transfers).
    pub fn taint_line(&self, addr: u64, way: usize) -> Option<&[u8]> {
        if self.shadow.is_empty() {
            return None;
        }
        let set = self.set_of(addr);
        Some(&self.shadow[self.idx(set, way)])
    }

    /// Replace a resident line's shadow (after a fill from a source
    /// level whose shadow was `src`).
    pub fn set_taint_line(&mut self, addr: u64, way: usize, src: &[u8]) {
        if self.shadow.is_empty() {
            return;
        }
        let set = self.set_of(addr);
        let idx = self.idx(set, way);
        self.shadow[idx].copy_from_slice(src);
        self.reapply_stuck_taint(set, way);
    }

    /// Shadow of the line [`fill`](Self::fill) would write back, captured
    /// *before* the fill (mirrors fill's dirty-eviction condition).
    /// Returns `None` when taint is off or no write-back would happen.
    pub fn taint_prepare_fill(&self, addr: u64) -> Option<Vec<u8>> {
        if self.shadow.is_empty() {
            return None;
        }
        let set = self.set_of(addr);
        let way = self.victim(set);
        let idx = self.idx(set, way);
        let l = &self.lines[idx];
        if l.valid && l.dirty {
            Some(self.shadow[idx].to_vec())
        } else {
            None
        }
    }

    // ---- zero-copy campaign reset ----

    /// Start journaling per-set mutations so [`reset_from`](Self::reset_from)
    /// can restore only the dirtied sets.
    pub fn enable_dirty_tracking(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(Box::new(DirtyMap::new(self.sets)));
        }
    }

    /// Restore this cache to `pristine` by undoing only the journaled sets
    /// (full sweep when tracking is off). Returns the number of state bytes
    /// copied, the currency of the campaign perf-guard.
    ///
    /// `pristine` must be the checkpoint this cache was cloned from (same
    /// geometry); per-run fault state (armed fate, stuck list, taint shadow)
    /// is restored wholesale since the pristine checkpoint never carries it.
    pub fn reset_from(&mut self, pristine: &Cache) -> u64 {
        debug_assert_eq!(self.lines.len(), pristine.lines.len());
        let assoc = self.cfg.assoc;
        let line_bytes = self.cfg.line as u64;
        // tag + valid + dirty bookkeeping ≈ 10 bytes per line, 1 PLRU byte
        // per set — counted so the perf-guard sees metadata traffic too.
        let per_line = line_bytes + 10;
        let mut bytes = 0u64;
        if let Some(mut j) = self.journal.take() {
            j.drain(|set| {
                for way in 0..assoc {
                    let idx = set * assoc + way;
                    let src = &pristine.lines[idx];
                    let dst = &mut self.lines[idx];
                    dst.tag = src.tag;
                    dst.valid = src.valid;
                    dst.dirty = src.dirty;
                    dst.data.copy_from_slice(&src.data);
                }
                self.plru[set] = pristine.plru[set];
                bytes += assoc as u64 * per_line + 1;
            });
            self.journal = Some(j);
        } else {
            for (dst, src) in self.lines.iter_mut().zip(&pristine.lines) {
                dst.tag = src.tag;
                dst.valid = src.valid;
                dst.dirty = src.dirty;
                dst.data.copy_from_slice(&src.data);
            }
            self.plru.copy_from_slice(&pristine.plru);
            bytes += self.lines.len() as u64 * per_line + self.plru.len() as u64;
        }
        self.hits = pristine.hits;
        self.misses = pristine.misses;
        self.stuck.clone_from(&pristine.stuck);
        self.armed = pristine.armed;
        self.lane_armed.clear();
        self.lane_events.clear();
        if pristine.shadow.is_empty() {
            self.shadow.clear();
        } else {
            self.shadow.clone_from(&pristine.shadow);
        }
        bytes
    }

    /// Drain the set journal into a detached capture (ladder construction).
    pub fn take_marks(&mut self) -> DirtyMarks {
        self.journal.as_mut().map(|j| j.take_marks()).unwrap_or_default()
    }

    /// Fold a captured golden-segment mark set into the live journal.
    pub fn merge_marks(&mut self, m: &DirtyMarks) {
        if let Some(j) = &mut self.journal {
            j.merge(m);
        }
    }

    /// Functional-state equality against the rung snapshot `pristine`,
    /// restricted to the journaled dirty sets (clean sets are equal by the
    /// journal's soundness contract; full sweep when tracking is off).
    ///
    /// Deliberately ignores observational state — hit/miss counters, armed
    /// fate, the stuck list and the taint shadow — none of which can change
    /// future data-plane behaviour for a transient fault (the taint plane is
    /// checked separately via [`taint_quiescent`](Self::taint_quiescent)).
    pub fn converged_with(&self, pristine: &Cache) -> bool {
        debug_assert_eq!(self.lines.len(), pristine.lines.len());
        let assoc = self.cfg.assoc;
        let set_eq = |set: usize| {
            if self.plru[set] != pristine.plru[set] {
                return false;
            }
            (0..assoc).all(|way| {
                let a = &self.lines[set * assoc + way];
                let b = &pristine.lines[set * assoc + way];
                a.valid == b.valid
                    && (!a.valid || (a.tag == b.tag && a.dirty == b.dirty && a.data == b.data))
            })
        };
        match &self.journal {
            Some(j) => {
                let mut ok = true;
                j.peek(|set| ok = ok && set_eq(set));
                ok
            }
            None => (0..self.sets).all(set_eq),
        }
    }

    /// True when the taint shadow plane carries no set bit (or is off):
    /// the propagation report can no longer change.
    pub fn taint_quiescent(&self) -> bool {
        self.shadow.iter().all(|l| l.iter().all(|&b| b == 0))
    }

    fn reapply_stuck_taint(&mut self, set: usize, way: usize) {
        if self.stuck.is_empty() {
            return;
        }
        let stuck = self.stuck.clone();
        for (bit, _) in stuck {
            let (s, w, byte, mask) = self.locate(bit);
            if s == set && w == way {
                let idx = self.idx(set, way);
                self.shadow[idx][byte] |= mask;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 1 KiB, 4-way, 64 B lines → 4 sets.
        Cache::new(CacheConfig { size: 1024, assoc: 4, line: 64, latency: 1 })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(c.lookup(0x4000_0000).is_none());
        c.fill(0x4000_0000, &[7u8; 64], &mut [0u8; 64]);
        let way = c.lookup(0x4000_0000).expect("hit after fill");
        assert_eq!(c.read(0x4000_0008, 8, way), 0x0707_0707_0707_0707);
    }

    #[test]
    fn write_sets_dirty_and_evicts() {
        let mut c = small();
        c.fill(0x4000_0000, &[0u8; 64], &mut [0u8; 64]);
        let way = c.lookup(0x4000_0000).unwrap();
        c.write(0x4000_0000, 8, 0xDEAD_BEEF, way);
        // Fill 4 more lines mapping to set 0 (set stride = 4 * 64 = 256).
        let mut evicted = None;
        let mut data = [0u8; 64];
        for i in 1..=4u64 {
            if let Some(e) = c.fill(0x4000_0000 + i * 256, &[0u8; 64], &mut data) {
                evicted = Some(e);
            }
        }
        assert_eq!(evicted, Some(0x4000_0000), "dirty line written back");
        assert_eq!(&data[..4], &0xDEAD_BEEFu32.to_le_bytes());
    }

    #[test]
    fn plru_victim_changes_with_touches() {
        let mut c = small();
        for i in 0..4u64 {
            c.fill(0x4000_0000 + i * 256, &[0u8; 64], &mut [0u8; 64]);
        }
        // Touch ways 0..3 in order; victim should not be the most recent.
        for i in 0..4u64 {
            c.lookup(0x4000_0000 + i * 256);
        }
        let v = c.victim(0);
        assert_ne!(v, 3, "most recently used way must not be the victim");
    }

    #[test]
    fn flip_changes_data_and_tracks_fate() {
        let mut c = small();
        c.fill(0x4000_0000, &[0u8; 64], &mut [0u8; 64]);
        // bit 3 of set 0 way 0 byte 0
        let fate = c.flip_bit(3);
        assert_eq!(fate, FaultFate::Pending);
        let way = c.lookup(0x4000_0000).unwrap();
        let v = c.read(0x4000_0000, 1, way);
        assert_eq!(v, 0b1000);
        assert_eq!(c.fate(), Some(FaultFate::Read));
    }

    #[test]
    fn flip_invalid_line_masked_immediately() {
        let mut c = small();
        let fate = c.flip_bit(0);
        assert_eq!(fate, FaultFate::InvalidAtInjection);
        assert!(fate.is_masked_early());
    }

    #[test]
    fn overwrite_before_read_is_masked() {
        let mut c = small();
        c.fill(0x4000_0000, &[0u8; 64], &mut [0u8; 64]);
        c.flip_bit(0);
        let way = c.lookup(0x4000_0000).unwrap();
        c.write(0x4000_0000, 1, 0xFF, way);
        assert_eq!(c.fate(), Some(FaultFate::Overwritten));
    }

    #[test]
    fn stuck_at_survives_writes() {
        let mut c = small();
        c.fill(0x4000_0000, &[0u8; 64], &mut [0u8; 64]);
        c.set_stuck(0, true); // bit 0 of byte 0 stuck at 1
        let way = c.lookup(0x4000_0000).unwrap();
        c.write(0x4000_0000, 1, 0x00, way);
        let v = c.read(0x4000_0000, 1, way);
        assert_eq!(v & 1, 1, "stuck-at-1 must survive the write of 0");
    }

    #[test]
    fn stuck_at_survives_refill() {
        let mut c = small();
        c.set_stuck(7, true); // byte 0 bit 7 of set0/way0
        c.fill(0x4000_0000, &[0u8; 64], &mut [0u8; 64]);
        let way = c.lookup(0x4000_0000).unwrap();
        assert_eq!(c.read(0x4000_0000, 1, way) & 0x80, 0x80);
    }

    #[test]
    fn taint_follows_flip_write_and_fill() {
        let mut c = small();
        c.fill(0x4000_0000, &[0u8; 64], &mut [0u8; 64]);
        c.enable_taint();
        c.flip_bit(3);
        let way = c.probe(0x4000_0000).unwrap();
        assert_eq!(c.taint_read(0x4000_0000, 1, way), 0b1000);
        assert!(c.taint_range_any(0x4000_0000, way, 0, 8));
        assert!(!c.taint_range_any(0x4000_0000, way, 8, 8));
        // A store of clean data over the byte washes the taint out.
        c.taint_write(0x4000_0000, 1, 0, way);
        assert_eq!(c.taint_read(0x4000_0000, 1, way), 0);
        // A tainted store marks exactly its bits.
        c.taint_write(0x4000_0008, 8, 0xFF00, way);
        assert_eq!(c.taint_read(0x4000_0008, 8, way), 0xFF00);
        // Refill clears the line's shadow until the caller re-taints it.
        c.invalidate_all();
        c.fill(0x4000_0000, &[0u8; 64], &mut [0u8; 64]);
        let way = c.probe(0x4000_0000).unwrap();
        assert_eq!(c.taint_read(0x4000_0008, 8, way), 0);
        c.set_taint_line(0x4000_0000, way, &[0xAA; 64]);
        assert_eq!(c.taint_line(0x4000_0000, way).unwrap()[5], 0xAA);
    }

    #[test]
    fn probe_does_not_touch_plru() {
        let mut c = small();
        for i in 0..4u64 {
            c.fill(0x4000_0000 + i * 256, &[0u8; 64], &mut [0u8; 64]);
        }
        let before = c.victim(0);
        // Probing the would-be victim must not promote it.
        c.probe(0x4000_0000 + before as u64 * 256).unwrap();
        assert_eq!(c.victim(0), before);
    }

    #[test]
    fn taint_prepare_fill_matches_eviction() {
        let mut c = small();
        c.enable_taint();
        c.fill(0x4000_0000, &[0u8; 64], &mut [0u8; 64]);
        let way = c.probe(0x4000_0000).unwrap();
        c.write(0x4000_0000, 8, 0xBEEF, way); // dirty the line
        c.taint_write(0x4000_0000, 8, 0xF0, way);
        // Fill 4 more lines into set 0: way 0 eventually evicts.
        for i in 1..=4u64 {
            let a = 0x4000_0000 + i * 256;
            let shadow = c.taint_prepare_fill(a);
            let evicted = c.fill(a, &[0u8; 64], &mut [0u8; 64]);
            assert_eq!(shadow.is_some(), evicted.is_some(), "shadow/evict mismatch");
            if let (Some(s), Some(eaddr)) = (shadow, evicted) {
                assert_eq!(eaddr, 0x4000_0000);
                assert_eq!(s[0], 0xF0);
            }
        }
    }

    #[test]
    fn stuck_taint_reasserts_like_stuck_bits() {
        let mut c = small();
        c.fill(0x4000_0000, &[0u8; 64], &mut [0u8; 64]);
        c.enable_taint();
        c.set_stuck(0, true);
        let way = c.probe(0x4000_0000).unwrap();
        c.taint_write(0x4000_0000, 1, 0, way);
        assert_eq!(c.taint_read(0x4000_0000, 1, way) & 1, 1);
        c.fill(0x4000_0000, &[0u8; 64], &mut [0u8; 64]);
        let way = c.probe(0x4000_0000).unwrap();
        assert_eq!(c.taint_read(0x4000_0000, 1, way) & 1, 1);
    }

    #[test]
    fn bit_len_matches_geometry() {
        let c = small();
        assert_eq!(c.bit_len(), 1024 * 8);
    }

    #[test]
    fn dirty_reset_matches_fresh_clone() {
        let mut pristine = small();
        pristine.fill(0x4000_0000, &[7u8; 64], &mut [0u8; 64]);
        pristine.fill(0x4000_0100, &[9u8; 64], &mut [0u8; 64]);
        let mut c = pristine.clone();
        c.enable_dirty_tracking();
        let way = c.lookup(0x4000_0000).unwrap();
        c.write(0x4000_0000, 8, 0xDEAD, way);
        c.flip_bit(3);
        c.enable_taint();
        let bytes = c.reset_from(&pristine);
        assert!(bytes > 0);
        assert_eq!(c.fate(), None);
        assert!(!c.taint_on());
        let mut fresh = pristine.clone();
        for addr in [0x4000_0000u64, 0x4000_0100] {
            let wa = c.lookup(addr).expect("line resident after reset");
            let wb = fresh.lookup(addr).unwrap();
            assert_eq!(c.read(addr, 8, wa), fresh.read(addr, 8, wb));
        }
        assert_eq!((c.hits, c.misses), (fresh.hits, fresh.misses));
    }

    #[test]
    fn dirty_reset_touches_only_dirty_sets() {
        let mut pristine = small();
        for i in 0..4u64 {
            pristine.fill(0x4000_0000 + i * 64, &[1u8; 64], &mut [0u8; 64]); // 4 distinct sets
        }
        let mut c = pristine.clone();
        c.enable_dirty_tracking();
        let _ = c.reset_from(&pristine); // flush the clone's clean journal
        let way = c.lookup(0x4000_0000).unwrap();
        c.write(0x4000_0000, 1, 0xFF, way);
        let one_set = c.reset_from(&pristine);
        c.invalidate_all();
        let all_sets = c.reset_from(&pristine);
        assert!(one_set < all_sets, "one dirty set ({one_set}B) vs full sweep ({all_sets}B)");
    }
}
