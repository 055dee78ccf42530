//! Load queue and store queue with explicit, fault-injectable entry bits.
//!
//! Entry layouts (the injectable bit space):
//!
//! * LQ entry: 136 bits = address (64) + return data (64) + meta (8:
//!   size\[0..4\], valid\[4\], addr_ready\[5\], done\[6\]). The
//!   return-data field holds the loaded value between cache access and
//!   writeback, so cache misses open a long exposure window.
//! * SQ entry: 136 bits = address (64) + data (64) + meta (8:
//!   size\[0..4\], valid\[4\], addr_ready\[5\], data_ready\[6\],
//!   senior\[7\]).
//!
//! Flips into invalid entries are masked immediately (the paper's
//! early-termination optimisation); flips into live entries corrupt
//! addresses, data, widths or control state and propagate through the
//! memory system.

use crate::cache::FaultFate;

/// One load-queue entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LqEntry {
    pub valid: bool,
    pub seq: u64,
    pub addr: u64,
    /// Loaded value awaiting writeback.
    pub data: u64,
    pub size: u8,
    pub addr_ready: bool,
    pub done: bool,
    /// marvel-taint shadow masks for `addr`/`data`. Always present (they
    /// default to 0 and cost nothing); only read when the core's taint
    /// plane is enabled.
    pub addr_taint: u64,
    pub data_taint: u64,
}

/// One store-queue entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SqEntry {
    pub valid: bool,
    pub seq: u64,
    pub addr: u64,
    pub data: u64,
    pub size: u8,
    pub addr_ready: bool,
    pub data_ready: bool,
    /// Committed (retired) but not yet drained to the memory system.
    pub senior: bool,
    /// Store targets an uncached device address.
    pub device: bool,
    /// marvel-taint shadow masks for `addr`/`data` (see [`LqEntry`]).
    pub addr_taint: u64,
    pub data_taint: u64,
}

pub const LQ_ENTRY_BITS: u64 = 136;
pub const SQ_ENTRY_BITS: u64 = 136;

/// The load queue.
#[derive(Debug, Clone)]
pub struct LoadQueue {
    pub entries: Vec<LqEntry>,
}

impl LoadQueue {
    pub fn new(n: usize) -> Self {
        LoadQueue { entries: vec![LqEntry::default(); n] }
    }

    pub fn alloc(&mut self, seq: u64) -> Option<usize> {
        let i = self.entries.iter().position(|e| !e.valid)?;
        self.entries[i] = LqEntry { valid: true, seq, ..Default::default() };
        Some(i)
    }

    pub fn free(&mut self, idx: usize) {
        self.entries[idx].valid = false;
    }

    /// Drop every entry with `seq > keep_upto` (squash).
    pub fn squash_after(&mut self, keep_upto: u64) {
        for e in &mut self.entries {
            if e.valid && e.seq > keep_upto {
                e.valid = false;
            }
        }
    }

    pub fn clear(&mut self) {
        self.entries.iter_mut().for_each(|e| e.valid = false);
    }

    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }

    pub fn bit_len(&self) -> u64 {
        self.entries.len() as u64 * LQ_ENTRY_BITS
    }

    /// Functional-state equality for the convergence exit: invalid entries
    /// are wildcards — `free`/squash only clear `valid`, leaving stale
    /// payload (and stale taint) that the next `alloc` fully overwrites, so
    /// it can never influence future behaviour.
    pub fn converged_with(&self, pristine: &LoadQueue) -> bool {
        self.entries.len() == pristine.entries.len()
            && self.entries.iter().zip(&pristine.entries).all(|(a, b)| (!a.valid && !b.valid) || a == b)
    }

    /// Flip a bit of the queue's flat bit space.
    pub fn flip_bit(&mut self, bit: u64) -> FaultFate {
        let idx = (bit / LQ_ENTRY_BITS) as usize;
        let b = bit % LQ_ENTRY_BITS;
        let e = &mut self.entries[idx];
        if !e.valid {
            return FaultFate::InvalidAtInjection;
        }
        if b < 64 {
            e.addr ^= 1 << b;
            e.addr_taint |= 1 << b;
        } else if b < 128 {
            e.data ^= 1 << (b - 64);
            e.data_taint |= 1 << (b - 64);
        } else {
            match b - 128 {
                0..=3 => e.size ^= 1 << (b - 128),
                4 => e.valid = !e.valid,
                5 => e.addr_ready = !e.addr_ready,
                6 => e.done = !e.done,
                _ => {}
            }
            // Corrupted control/size state poisons the whole access.
            e.addr_taint = !0;
            e.data_taint = !0;
        }
        FaultFate::Pending
    }
}

/// The store queue.
#[derive(Debug, Clone)]
pub struct StoreQueue {
    pub entries: Vec<SqEntry>,
}

impl StoreQueue {
    pub fn new(n: usize) -> Self {
        StoreQueue { entries: vec![SqEntry::default(); n] }
    }

    pub fn alloc(&mut self, seq: u64) -> Option<usize> {
        let i = self.entries.iter().position(|e| !e.valid)?;
        self.entries[i] = SqEntry { valid: true, seq, ..Default::default() };
        Some(i)
    }

    pub fn free(&mut self, idx: usize) {
        self.entries[idx].valid = false;
    }

    /// Drop non-senior entries with `seq > keep_upto`; senior (committed)
    /// stores always survive squashes.
    pub fn squash_after(&mut self, keep_upto: u64) {
        for e in &mut self.entries {
            if e.valid && !e.senior && e.seq > keep_upto {
                e.valid = false;
            }
        }
    }

    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }

    /// Oldest senior store (next to drain).
    pub fn oldest_senior(&self) -> Option<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.valid && e.senior)
            .min_by_key(|(_, e)| e.seq)
            .map(|(i, _)| i)
    }

    /// Sequence number of the oldest valid store whose address is still
    /// unresolved: a load with a higher sequence number has an older
    /// store with an unknown address. One scan answers that for every
    /// load until the queue next changes.
    pub fn oldest_unresolved(&self) -> Option<u64> {
        self.entries.iter().filter(|e| e.valid && !e.addr_ready).map(|e| e.seq).min()
    }

    /// Youngest older store overlapping `[addr, addr+size)`. Returns
    /// `(index, covers)` where `covers` means the store fully covers the
    /// load's bytes.
    pub fn forwarding_candidate(&self, seq: u64, addr: u64, size: u8) -> Option<(usize, bool)> {
        let lo = addr;
        let hi = addr + size as u64;
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                e.valid && e.seq < seq && e.addr_ready && {
                    let slo = e.addr;
                    let shi = e.addr + e.size as u64;
                    slo < hi && lo < shi
                }
            })
            .max_by_key(|(_, e)| e.seq)
            .map(|(i, e)| {
                let covers = e.addr <= lo && (e.addr + e.size as u64) >= hi;
                (i, covers)
            })
    }

    pub fn bit_len(&self) -> u64 {
        self.entries.len() as u64 * SQ_ENTRY_BITS
    }

    /// Functional-state equality for the convergence exit (see
    /// [`LoadQueue::converged_with`] for the invalid-entry wildcard rule).
    pub fn converged_with(&self, pristine: &StoreQueue) -> bool {
        self.entries.len() == pristine.entries.len()
            && self.entries.iter().zip(&pristine.entries).all(|(a, b)| (!a.valid && !b.valid) || a == b)
    }

    pub fn flip_bit(&mut self, bit: u64) -> FaultFate {
        let idx = (bit / SQ_ENTRY_BITS) as usize;
        let b = bit % SQ_ENTRY_BITS;
        let e = &mut self.entries[idx];
        if !e.valid {
            return FaultFate::InvalidAtInjection;
        }
        if b < 64 {
            e.addr ^= 1 << b;
            e.addr_taint |= 1 << b;
        } else if b < 128 {
            e.data ^= 1 << (b - 64);
            e.data_taint |= 1 << (b - 64);
        } else {
            match b - 128 {
                0..=3 => e.size ^= 1 << (b - 128),
                4 => e.valid = !e.valid,
                5 => e.addr_ready = !e.addr_ready,
                6 => e.data_ready = !e.data_ready,
                7 => e.senior = !e.senior,
                _ => {}
            }
            e.addr_taint = !0;
            e.data_taint = !0;
        }
        FaultFate::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_occupancy() {
        let mut lq = LoadQueue::new(4);
        let a = lq.alloc(1).unwrap();
        let _b = lq.alloc(2).unwrap();
        assert_eq!(lq.occupancy(), 2);
        lq.free(a);
        assert_eq!(lq.occupancy(), 1);
    }

    #[test]
    fn lq_full_returns_none() {
        let mut lq = LoadQueue::new(2);
        lq.alloc(1).unwrap();
        lq.alloc(2).unwrap();
        assert!(lq.alloc(3).is_none());
    }

    #[test]
    fn squash_preserves_senior_stores() {
        let mut sq = StoreQueue::new(4);
        let a = sq.alloc(1).unwrap();
        let b = sq.alloc(5).unwrap();
        sq.entries[a].senior = true;
        sq.squash_after(0);
        assert!(sq.entries[a].valid);
        assert!(!sq.entries[b].valid);
    }

    #[test]
    fn forwarding_picks_youngest_older_cover() {
        let mut sq = StoreQueue::new(4);
        let a = sq.alloc(1).unwrap();
        sq.entries[a].addr = 0x1000;
        sq.entries[a].size = 8;
        sq.entries[a].addr_ready = true;
        let b = sq.alloc(3).unwrap();
        sq.entries[b].addr = 0x1000;
        sq.entries[b].size = 4;
        sq.entries[b].addr_ready = true;
        // Load seq 5 of 4 bytes at 0x1000: youngest older overlapping is b.
        let (i, covers) = sq.forwarding_candidate(5, 0x1000, 4).unwrap();
        assert_eq!(i, b);
        assert!(covers);
        // 8-byte load: b overlaps but does not cover.
        let (i, covers) = sq.forwarding_candidate(5, 0x1000, 8).unwrap();
        assert_eq!(i, b);
        assert!(!covers);
        // Older load (seq 0) sees nothing.
        assert!(sq.forwarding_candidate(0, 0x1000, 4).is_none());
    }

    #[test]
    fn oldest_unresolved_store_detection() {
        let mut sq = StoreQueue::new(4);
        let a = sq.alloc(2).unwrap();
        assert_eq!(sq.oldest_unresolved(), Some(2));
        sq.entries[a].addr_ready = true;
        assert_eq!(sq.oldest_unresolved(), None);
        let b = sq.alloc(4).unwrap();
        assert_eq!(sq.oldest_unresolved(), Some(4));
        sq.entries[a].addr_ready = false;
        assert_eq!(sq.oldest_unresolved(), Some(2));
        sq.entries[a].valid = false;
        sq.entries[b].addr_ready = true;
        assert_eq!(sq.oldest_unresolved(), None);
    }

    #[test]
    fn flip_invalid_entry_masked() {
        let mut lq = LoadQueue::new(4);
        assert_eq!(lq.flip_bit(0), FaultFate::InvalidAtInjection);
        let mut sq = StoreQueue::new(4);
        assert_eq!(sq.flip_bit(200), FaultFate::InvalidAtInjection);
    }

    #[test]
    fn flip_valid_entry_fields() {
        let mut sq = StoreQueue::new(4);
        let a = sq.alloc(1).unwrap();
        sq.entries[a].addr = 0x100;
        sq.entries[a].data = 0xFF;
        assert_eq!(sq.flip_bit(4), FaultFate::Pending); // addr bit 4
        assert_eq!(sq.entries[a].addr, 0x110);
        sq.flip_bit(64); // data bit 0
        assert_eq!(sq.entries[a].data, 0xFE);
        sq.flip_bit(128 + 7); // senior flag
        assert!(sq.entries[a].senior);
    }

    #[test]
    fn flips_seed_entry_taint_masks() {
        let mut sq = StoreQueue::new(4);
        let a = sq.alloc(1).unwrap();
        sq.flip_bit(4); // addr bit 4
        assert_eq!(sq.entries[a].addr_taint, 1 << 4);
        assert_eq!(sq.entries[a].data_taint, 0);
        sq.flip_bit(64 + 9); // data bit 9
        assert_eq!(sq.entries[a].data_taint, 1 << 9);
        let mut lq = LoadQueue::new(4);
        let b = lq.alloc(1).unwrap();
        lq.flip_bit(128); // size bit: control corruption poisons all
        assert_eq!(lq.entries[b].addr_taint, !0);
        assert_eq!(lq.entries[b].data_taint, !0);
        // Reallocation resets taint with the rest of the entry.
        lq.free(b);
        let c = lq.alloc(2).unwrap();
        assert_eq!(lq.entries[c].data_taint, 0);
    }

    #[test]
    fn bit_lens() {
        assert_eq!(LoadQueue::new(32).bit_len(), 32 * 136);
        assert_eq!(StoreQueue::new(32).bit_len(), 32 * 136);
    }
}
