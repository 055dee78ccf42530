//! Property tests on the cache model: residency, write-back integrity and
//! fault-injection invariants.

use marvel_cpu::{Cache, CacheConfig};
use proptest::prelude::*;

fn small_cfg() -> CacheConfig {
    CacheConfig { size: 4096, assoc: 4, line: 64, latency: 1 }
}

proptest! {
    #[test]
    fn read_after_write_same_line(addr in 0u64..64u64, val in any::<u64>()) {
        let mut c = Cache::new(small_cfg());
        let base = 0x4000_0000u64;
        c.fill(base, &[0u8; 64], &mut [0u8; 64]);
        let way = c.lookup(base).unwrap();
        let a = base + (addr & !7);
        c.write(a, 8, val, way);
        prop_assert_eq!(c.read(a, 8, way), val);
    }

    #[test]
    fn flip_then_flip_restores(bit in 0u64..(4096 * 8)) {
        let mut c = Cache::new(small_cfg());
        // Fill every line so flips land in valid lines.
        for i in 0..64u64 {
            c.fill(0x4000_0000 + i * 64, &[0xA5u8; 64], &mut [0u8; 64]);
        }
        c.flip_bit(bit);
        c.flip_bit(bit);
        for i in 0..64u64 {
            let addr = 0x4000_0000 + i * 64;
            let way = c.lookup(addr).unwrap();
            for k in 0..8 {
                prop_assert_eq!(c.read(addr + k * 8, 8, way), 0xA5A5_A5A5_A5A5_A5A5u64);
            }
        }
    }

    #[test]
    fn eviction_preserves_dirty_data(val in any::<u64>(), set_sel in 0u64..16) {
        let mut c = Cache::new(small_cfg());
        let sets = 16u64; // 4096 / (4*64)
        let stride = sets * 64;
        let base = 0x4000_0000 + set_sel * 64;
        c.fill(base, &[0u8; 64], &mut [0u8; 64]);
        let way = c.lookup(base).unwrap();
        c.write(base, 8, val, way);
        // Force eviction by filling 4 more lines into the same set.
        let mut evicted = None;
        let mut data = [0u8; 64];
        for i in 1..=4u64 {
            if let Some(e) = c.fill(base + i * stride, &[0u8; 64], &mut data) {
                evicted = Some(e);
            }
        }
        let eaddr = evicted.expect("dirty line must be written back");
        prop_assert_eq!(eaddr, base);
        prop_assert_eq!(u64::from_le_bytes(data[..8].try_into().unwrap()), val);
    }

    #[test]
    fn stuck_bit_wins_every_write(bit in 0u64..512, v in any::<bool>(), w in any::<u64>()) {
        let mut c = Cache::new(small_cfg());
        c.fill(0x4000_0000, &[0u8; 64], &mut [0u8; 64]);
        c.set_stuck(bit, v);
        let way = c.lookup(0x4000_0000).unwrap();
        let byte_addr = 0x4000_0000 + ((bit / 8) & !7);
        c.write(byte_addr, 8, w, way);
        let got = c.read(0x4000_0000 + bit / 8, 1, way);
        let bit_in_byte = bit % 8;
        prop_assert_eq!((got >> bit_in_byte) & 1 == 1, v);
    }

    #[test]
    fn lookup_is_stable_under_touches(lines in prop::collection::vec(0u64..16, 1..40)) {
        let mut c = Cache::new(small_cfg());
        // Distinct tags per set are bounded by associativity: use 4 tags.
        for (k, &l) in lines.iter().enumerate() {
            let addr = 0x4000_0000 + (l % 4) * 16 * 64 + (k as u64 % 4) * 64;
            if c.lookup(addr).is_none() {
                c.fill(addr, &[k as u8; 64], &mut [0u8; 64]);
            }
            prop_assert!(c.lookup(addr).is_some());
        }
    }
}
