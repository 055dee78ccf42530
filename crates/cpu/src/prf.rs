//! Physical register file, rename map and free list — all fault-injectable.

use crate::cache::FaultFate;
use crate::dirty::{DirtyMap, DirtyMarks};

/// A physical register file holding explicit 64-bit values.
#[derive(Debug, Clone)]
pub struct PhysRegFile {
    vals: Vec<u64>,
    ready: Vec<bool>,
    stuck: Vec<(u64, bool)>,
    armed: Option<(u16, FaultFate)>,
    /// marvel-taint shadow plane: one taint mask per register. Empty
    /// (the default) means taint tracking is off and every taint
    /// accessor is a cheap no-op.
    taint: Vec<u64>,
    /// Per-register dirty journal for the zero-copy campaign reset
    /// (`None` = tracking off). Marked on value/ready mutation; armed
    /// fate and taint are restored wholesale by `reset_from`.
    journal: Option<Box<DirtyMap>>,
    /// Registers feeding the core's parked loads, one bit each. Any
    /// value/ready mutation of a watched register raises `watch_hit`,
    /// which the core turns into an issue-epoch bump (see DESIGN.md,
    /// "issue-stage parking"). Derived state: excluded from
    /// `converged_with`, copied by `reset_from`.
    watch: Vec<u64>,
    watch_hit: bool,
}

impl PhysRegFile {
    /// Register 0 is reserved as the constant-zero register.
    pub fn new(n: usize) -> Self {
        PhysRegFile {
            vals: vec![0; n],
            ready: vec![true; n],
            stuck: Vec::new(),
            armed: None,
            taint: Vec::new(),
            journal: None,
            watch: vec![0; n.div_ceil(64)],
            watch_hit: false,
        }
    }

    /// Every value/ready mutation of register `p` passes through here.
    #[inline]
    fn mark(&mut self, p: u16) {
        if let Some(j) = &mut self.journal {
            j.mark(p as usize);
        }
        if self.watch[p as usize / 64] & (1 << (p % 64)) != 0 {
            self.watch_hit = true;
        }
    }

    pub fn len(&self) -> usize {
        self.vals.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    #[inline]
    pub fn read(&mut self, p: u16) -> u64 {
        if let Some((ap, fate)) = &mut self.armed {
            if *ap == p && *fate == FaultFate::Pending {
                *fate = FaultFate::Read;
            }
        }
        self.vals[p as usize]
    }

    /// Peek without touching fault monitoring (trace/debug use).
    pub fn peek(&self, p: u16) -> u64 {
        self.vals[p as usize]
    }

    #[inline]
    pub fn write(&mut self, p: u16, v: u64) {
        self.mark(p);
        if let Some((ap, fate)) = &mut self.armed {
            if *ap == p && *fate == FaultFate::Pending {
                *fate = FaultFate::Overwritten;
            }
        }
        let mut v = v;
        for &(bit, value) in &self.stuck {
            if (bit / 64) as u16 == p {
                let m = 1u64 << (bit % 64);
                if value {
                    v |= m;
                } else {
                    v &= !m;
                }
            }
        }
        self.vals[p as usize] = v;
    }

    #[inline]
    pub fn is_ready(&self, p: u16) -> bool {
        self.ready[p as usize]
    }

    pub fn set_ready(&mut self, p: u16, r: bool) {
        self.mark(p);
        self.ready[p as usize] = r;
    }

    /// Mark every register ready (used at reset).
    pub fn set_all_ready(&mut self) {
        if let Some(j) = &mut self.journal {
            j.mark_all();
        }
        if self.watch.iter().any(|&w| w != 0) {
            self.watch_hit = true;
        }
        self.ready.iter_mut().for_each(|r| *r = true);
    }

    // ---- fault injection ----

    pub fn bit_len(&self) -> u64 {
        self.vals.len() as u64 * 64
    }

    pub fn flip_bit(&mut self, bit: u64) -> FaultFate {
        let p = (bit / 64) as u16;
        self.mark(p);
        self.vals[p as usize] ^= 1 << (bit % 64);
        self.armed = Some((p, FaultFate::Pending));
        self.seed_taint_bit(bit);
        FaultFate::Pending
    }

    pub fn set_stuck(&mut self, bit: u64, value: bool) {
        self.stuck.push((bit, value));
        self.mark((bit / 64) as u16);
        let p = (bit / 64) as usize;
        let m = 1u64 << (bit % 64);
        if value {
            self.vals[p] |= m;
        } else {
            self.vals[p] &= !m;
        }
        self.armed = Some((p as u16, FaultFate::Pending));
        self.seed_taint_bit(bit);
    }

    pub fn fate(&self) -> Option<FaultFate> {
        self.armed.map(|(_, f)| f)
    }

    /// The armed fault sits in `p` and has not been read or overwritten
    /// yet: the next [`read`](Self::read) of `p` latches its fate.
    #[inline]
    pub fn armed_pending(&self, p: u16) -> bool {
        self.armed == Some((p, FaultFate::Pending))
    }

    // ---- issue-stage parking watch ----

    /// Watch register `p` on behalf of a parked load.
    #[inline]
    pub fn watch(&mut self, p: u16) {
        self.watch[p as usize / 64] |= 1 << (p % 64);
    }

    /// Drop every watch (the core released all parked loads).
    pub fn clear_watch(&mut self) {
        self.watch.iter_mut().for_each(|w| *w = 0);
        self.watch_hit = false;
    }

    /// Whether a watched register was mutated since the last call.
    #[inline]
    pub fn take_watch_hit(&mut self) -> bool {
        std::mem::take(&mut self.watch_hit)
    }

    // ---- zero-copy campaign reset ----

    /// Start journaling per-register mutations so
    /// [`reset_from`](Self::reset_from) restores only the dirtied ones.
    pub fn enable_dirty_tracking(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(Box::new(DirtyMap::new(self.vals.len())));
        }
    }

    /// Restore this register file to `pristine` by undoing only journaled
    /// registers (full sweep when tracking is off). Returns state bytes
    /// copied. Fault state (stuck list, armed fate, taint) is per-run and
    /// restored wholesale.
    pub fn reset_from(&mut self, pristine: &PhysRegFile) -> u64 {
        debug_assert_eq!(self.vals.len(), pristine.vals.len());
        let mut bytes = 0u64;
        if let Some(mut j) = self.journal.take() {
            j.drain(|p| {
                self.vals[p] = pristine.vals[p];
                self.ready[p] = pristine.ready[p];
                bytes += 9; // 8 value bytes + 1 ready byte
            });
            self.journal = Some(j);
        } else {
            self.vals.copy_from_slice(&pristine.vals);
            self.ready.copy_from_slice(&pristine.ready);
            bytes += self.vals.len() as u64 * 9;
        }
        self.stuck.clone_from(&pristine.stuck);
        self.armed = pristine.armed;
        self.watch.copy_from_slice(&pristine.watch);
        self.watch_hit = pristine.watch_hit;
        if pristine.taint.is_empty() {
            self.taint.clear();
        } else {
            self.taint.clone_from(&pristine.taint);
        }
        bytes
    }

    /// Drain the register journal into a detached capture (ladder
    /// construction).
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
    /// restricted to journaled dirty registers (full sweep when tracking is
    /// off). Armed fate, the parking watch and the taint plane are
    /// observational or derived and excluded;
    /// taint is checked separately via [`taint_quiescent`](Self::taint_quiescent).
    pub fn converged_with(&self, pristine: &PhysRegFile) -> bool {
        debug_assert_eq!(self.vals.len(), pristine.vals.len());
        let reg_eq = |p: usize| self.vals[p] == pristine.vals[p] && self.ready[p] == pristine.ready[p];
        match &self.journal {
            Some(j) => {
                let mut ok = true;
                j.peek(|p| ok = ok && reg_eq(p));
                ok
            }
            None => (0..self.vals.len()).all(reg_eq),
        }
    }

    /// True when no register carries taint (or the plane is off).
    pub fn taint_quiescent(&self) -> bool {
        self.taint.iter().all(|&t| t == 0)
    }

    // ---- marvel-taint shadow plane ----

    /// Allocate the shadow taint plane. Fault arming calls
    /// ([`flip_bit`](Self::flip_bit)/[`set_stuck`](Self::set_stuck))
    /// after this self-seed the shadow at the injected bit.
    pub fn enable_taint(&mut self) {
        if self.taint.is_empty() {
            self.taint = vec![0; self.vals.len()];
        }
        if let Some((p, _)) = self.armed {
            // Enabled after arming: conservatively taint the whole reg.
            self.taint[p as usize] = !0;
        }
        for &(bit, _) in &self.stuck {
            let p = (bit / 64) as usize;
            self.taint[p] |= 1 << (bit % 64);
        }
    }

    #[inline]
    pub fn taint_on(&self) -> bool {
        !self.taint.is_empty()
    }

    #[inline]
    pub fn taint_of(&self, p: u16) -> u64 {
        if self.taint.is_empty() {
            0
        } else {
            self.taint[p as usize]
        }
    }

    /// Replace a register's taint (called alongside every `write`, so a
    /// clean result clears stale taint from reallocated registers).
    #[inline]
    pub fn set_taint(&mut self, p: u16, mask: u64) {
        if self.taint.is_empty() {
            return;
        }
        let mut m = mask;
        // Stuck-at bits keep re-asserting the faulty value on every
        // write, so their taint never washes out.
        for &(bit, _) in &self.stuck {
            if (bit / 64) as u16 == p {
                m |= 1 << (bit % 64);
            }
        }
        self.taint[p as usize] = m;
    }

    fn seed_taint_bit(&mut self, bit: u64) {
        if let Some(t) = self.taint.get_mut((bit / 64) as usize) {
            *t |= 1 << (bit % 64);
        }
    }
}

/// Rename map: architectural register → physical register. Injectable: a
/// flipped mapping bit silently redirects reads/writes of an architectural
/// register to the wrong physical register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenameMap {
    map: Vec<u16>,
    prf_size: u16,
}

impl RenameMap {
    pub fn new(arch_regs: usize, prf_size: u16) -> Self {
        RenameMap { map: vec![0; arch_regs], prf_size }
    }

    #[inline]
    pub fn get(&self, a: u8) -> u16 {
        self.map[a as usize]
    }

    pub fn set(&mut self, a: u8, p: u16) {
        self.map[a as usize] = p;
    }

    pub fn copy_from(&mut self, other: &RenameMap) {
        self.map.copy_from_slice(&other.map);
    }

    pub fn entries(&self) -> &[u16] {
        &self.map
    }

    /// Bits per entry (⌈log2(prf)⌉).
    pub fn bits_per_entry(&self) -> u64 {
        (16 - (self.prf_size.max(2) - 1).leading_zeros()) as u64
    }

    pub fn bit_len(&self) -> u64 {
        self.map.len() as u64 * self.bits_per_entry()
    }

    /// Flip a mapping bit; the result is clamped into the PRF range by
    /// wrapping (matching a physical array whose decoder ignores the
    /// overflow bit).
    pub fn flip_bit(&mut self, bit: u64) {
        let bpe = self.bits_per_entry();
        let a = (bit / bpe) as usize;
        let b = bit % bpe;
        self.map[a] = (self.map[a] ^ (1 << b)) % self.prf_size;
    }
}

/// Free list of physical registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreeList {
    free: Vec<u16>,
}

impl FreeList {
    /// All registers except 0 (constant zero) and those in `in_use`.
    pub fn new(prf_size: u16, in_use: &[u16]) -> Self {
        let mut fl = FreeList { free: Vec::with_capacity(prf_size as usize) };
        fl.rebuild(prf_size, in_use);
        fl
    }

    /// Refill as [`new`](Self::new) would, reusing this list's allocation.
    pub fn rebuild(&mut self, prf_size: u16, in_use: &[u16]) {
        self.free.clear();
        // Descending, so `alloc` pops from the low end first.
        self.free.extend((1..prf_size).rev().filter(|p| !in_use.contains(p)));
    }

    pub fn alloc(&mut self) -> Option<u16> {
        self.free.pop()
    }

    pub fn release(&mut self, p: u16) {
        debug_assert_ne!(p, 0, "the zero register is never freed");
        self.free.push(p);
    }

    /// Restore from `other`, reusing this list's allocation.
    pub fn copy_from(&mut self, other: &FreeList) {
        self.free.clone_from(&other.free);
    }

    pub fn len(&self) -> usize {
        self.free.len()
    }

    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_and_fate() {
        let mut prf = PhysRegFile::new(8);
        prf.write(3, 42);
        assert_eq!(prf.read(3), 42);
        prf.flip_bit(3 * 64 + 1); // flip bit 1 of reg 3
        assert_eq!(prf.peek(3), 40);
        assert_eq!(prf.fate(), Some(FaultFate::Pending));
        let _ = prf.read(3);
        assert_eq!(prf.fate(), Some(FaultFate::Read));
    }

    #[test]
    fn overwrite_masks() {
        let mut prf = PhysRegFile::new(8);
        prf.flip_bit(2 * 64);
        prf.write(2, 0);
        assert_eq!(prf.fate(), Some(FaultFate::Overwritten));
    }

    #[test]
    fn stuck_bits_apply_on_write() {
        let mut prf = PhysRegFile::new(8);
        prf.set_stuck(64 + 4, true); // reg 1 bit 4 stuck at 1
        prf.write(1, 0);
        assert_eq!(prf.peek(1), 16);
        prf.set_stuck(64 + 5, false);
        prf.write(1, 0xFF);
        assert_eq!(prf.peek(1) & 0b11_0000, 0b01_0000);
    }

    #[test]
    fn taint_plane_tracks_flips_and_washes_out_on_write() {
        let mut prf = PhysRegFile::new(8);
        assert!(!prf.taint_on());
        prf.set_taint(3, !0); // no-op while disabled
        assert_eq!(prf.taint_of(3), 0);

        prf.enable_taint();
        prf.flip_bit(3 * 64 + 5);
        assert_eq!(prf.taint_of(3), 1 << 5);
        prf.set_taint(3, 0); // clean writeback clears the taint
        assert_eq!(prf.taint_of(3), 0);

        // Stuck-at taint re-asserts across writes.
        prf.set_stuck(64 + 4, true);
        prf.set_taint(1, 0);
        assert_eq!(prf.taint_of(1), 1 << 4);
    }

    #[test]
    fn enable_after_arming_taints_whole_register() {
        let mut prf = PhysRegFile::new(8);
        prf.flip_bit(2 * 64 + 9);
        prf.enable_taint();
        assert_eq!(prf.taint_of(2), !0);
    }

    #[test]
    fn rename_map_bits() {
        let m = RenameMap::new(32, 128);
        assert_eq!(m.bits_per_entry(), 7);
        assert_eq!(m.bit_len(), 32 * 7);
        let m = RenameMap::new(32, 96);
        assert_eq!(m.bits_per_entry(), 7);
    }

    #[test]
    fn rename_flip_stays_in_range() {
        let mut m = RenameMap::new(4, 96);
        m.set(2, 95);
        m.flip_bit(2 * 7 + 6); // flip the top bit of entry 2
        assert!(m.get(2) < 96);
    }

    #[test]
    fn dirty_reset_restores_only_touched_regs() {
        let mut pristine = PhysRegFile::new(8);
        pristine.write(3, 42);
        let mut prf = pristine.clone();
        prf.enable_dirty_tracking();
        let _ = prf.reset_from(&pristine); // flush the clone-time journal
        prf.write(3, 7);
        prf.set_ready(5, false);
        prf.flip_bit(2 * 64 + 1);
        prf.enable_taint();
        let bytes = prf.reset_from(&pristine);
        assert_eq!(bytes, 3 * 9, "exactly regs 2, 3 and 5 journaled");
        assert_eq!(prf.peek(3), 42);
        assert_eq!(prf.peek(2), 0);
        assert!(prf.is_ready(5));
        assert_eq!(prf.fate(), None);
        assert!(!prf.taint_on());
    }

    #[test]
    fn free_list_excludes_in_use_and_zero() {
        let mut fl = FreeList::new(8, &[3, 5]);
        let mut got = Vec::new();
        while let Some(p) = fl.alloc() {
            got.push(p);
        }
        assert_eq!(got, vec![1, 2, 4, 6, 7]);
        fl.rebuild(8, &[1, 7]);
        assert_eq!(fl, FreeList::new(8, &[1, 7]));
        assert_eq!(fl.alloc(), Some(2));
    }

    #[test]
    fn watched_register_mutations_raise_the_hit() {
        let mut prf = PhysRegFile::new(130);
        prf.watch(129);
        prf.write(3, 1);
        prf.set_ready(4, false);
        assert!(!prf.take_watch_hit(), "unwatched registers stay quiet");
        prf.set_ready(129, false);
        assert!(prf.take_watch_hit());
        assert!(!prf.take_watch_hit(), "the hit is consumed");
        prf.write(129, 5);
        assert!(prf.take_watch_hit());
        prf.flip_bit(129 * 64);
        assert!(prf.armed_pending(129) && !prf.armed_pending(3));
        prf.clear_watch();
        assert!(!prf.take_watch_hit(), "clearing drops a pending hit");
        prf.write(129, 6);
        assert!(!prf.take_watch_hit(), "and every watch");
        assert!(!prf.armed_pending(129), "the write latched Overwritten");
    }
}
