//! A simple Bloom filter over strings.
//!
//! Used by [`crate::snapshot::IndexSnapshot`] as the containment
//! prefilter the paper sketches in §1 ("hash-based techniques (e.g., bloom
//! filters) for efficient lookup based on value containment"). Double
//! hashing (Kirsch–Mitzenmacher) derives k probe positions from two
//! base hashes.

/// Bloom filter sized for a target false-positive rate.
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_bits: u64,
    k: u32,
}

impl BloomFilter {
    /// Create a filter for `expected_items` at roughly `fp_rate`
    /// (clamped to sane bounds).
    pub fn new(expected_items: usize, fp_rate: f64) -> Self {
        let n = expected_items.max(1) as f64;
        let p = fp_rate.clamp(1e-6, 0.5);
        let m = (-(n * p.ln()) / (2f64.ln().powi(2))).ceil().max(64.0) as u64;
        let k = ((m as f64 / n) * 2f64.ln()).round().clamp(1.0, 16.0) as u32;
        Self {
            bits: vec![0u64; m.div_ceil(64) as usize],
            n_bits: m,
            k,
        }
    }

    fn hashes(&self, item: &str) -> (u64, u64) {
        // FNV-1a and a splitmix-scrambled variant as the two bases.
        let mut h1: u64 = 0xcbf2_9ce4_8422_2325;
        for b in item.as_bytes() {
            h1 ^= u64::from(*b);
            h1 = h1.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut h2 = h1 ^ 0x9e37_79b9_7f4a_7c15;
        h2 = (h2 ^ (h2 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h2 = (h2 ^ (h2 >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h2 ^= h2 >> 31;
        (h1, h2 | 1) // odd step avoids degenerate cycles
    }

    /// Insert an item.
    pub fn insert(&mut self, item: &str) {
        let (h1, h2) = self.hashes(item);
        for i in 0..self.k {
            let bit = h1.wrapping_add(h2.wrapping_mul(u64::from(i))) % self.n_bits;
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    /// Membership test: false means definitely absent; true means
    /// probably present.
    pub fn may_contain(&self, item: &str) -> bool {
        let (h1, h2) = self.hashes(item);
        (0..self.k).all(|i| {
            let bit = h1.wrapping_add(h2.wrapping_mul(u64::from(i))) % self.n_bits;
            self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }

    /// Size of the bit array in bits.
    pub fn n_bits(&self) -> u64 {
        self.n_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn no_false_negatives() {
        let mut b = BloomFilter::new(100, 0.01);
        let items: Vec<String> = (0..100).map(|i| format!("item-{i}")).collect();
        for it in &items {
            b.insert(it);
        }
        for it in &items {
            assert!(b.may_contain(it));
        }
    }

    #[test]
    fn false_positive_rate_in_range() {
        let mut b = BloomFilter::new(1000, 0.01);
        for i in 0..1000 {
            b.insert(&format!("present-{i}"));
        }
        let fp = (0..10_000)
            .filter(|i| b.may_contain(&format!("absent-{i}")))
            .count();
        // 1% target; allow generous slack.
        assert!(fp < 500, "false positives: {fp}/10000");
    }

    #[test]
    fn empty_filter_rejects() {
        let b = BloomFilter::new(10, 0.01);
        assert!(!b.may_contain("anything"));
    }

    proptest! {
        #[test]
        fn prop_inserted_always_found(items in proptest::collection::vec("[a-z]{1,12}", 1..50)) {
            let mut b = BloomFilter::new(items.len(), 0.01);
            for it in &items {
                b.insert(it);
            }
            for it in &items {
                prop_assert!(b.may_contain(it));
            }
        }
    }
}
