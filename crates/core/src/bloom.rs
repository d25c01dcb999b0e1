//! Bloom filters for distributed semi-joins.
//!
//! PIER's Bloom-filter join first ships compact summaries of one relation's
//! join keys to the query site, ORs them together, and re-disseminates the
//! combined filter so that nodes only rehash the tuples of the other relation
//! that might find a partner.  The filter here is a plain bit array with `k`
//! double-hashed probes; false positives only cost extra traffic, never
//! correctness.

use crate::value::Value;
use pier_simnet::WireSize;

/// A fixed-size Bloom filter over [`Value`]s.
#[derive(Clone, Debug, PartialEq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: usize,
    k: u8,
    inserted: u64,
}

fn hash64(data: &str, seed: u64) -> u64 {
    // FNV-1a with a seed mixed in; cheap, deterministic across nodes.
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for b in data.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl BloomFilter {
    /// Create a filter with `num_bits` bits (rounded up to 64) and `k` probes.
    pub fn new(num_bits: usize, k: u8) -> Self {
        let num_bits = num_bits.max(64);
        let words = num_bits.div_ceil(64);
        BloomFilter { bits: vec![0; words], num_bits: words * 64, k: k.max(1), inserted: 0 }
    }

    fn probes(&self, value: &Value) -> Vec<usize> {
        let key = value.partition_string();
        let h1 = hash64(&key, 0x5151);
        let h2 = hash64(&key, 0xA3A3) | 1;
        (0..self.k)
            .map(|i| (h1.wrapping_add(h2.wrapping_mul(i as u64)) % self.num_bits as u64) as usize)
            .collect()
    }

    /// Insert a value.
    pub fn insert(&mut self, value: &Value) {
        for p in self.probes(value) {
            self.bits[p / 64] |= 1u64 << (p % 64);
        }
        self.inserted += 1;
    }

    /// Might the value have been inserted?  (No false negatives.)
    pub fn may_contain(&self, value: &Value) -> bool {
        self.probes(value).iter().all(|&p| self.bits[p / 64] & (1u64 << (p % 64)) != 0)
    }

    /// OR another filter into this one (they must have identical geometry).
    pub fn union(&mut self, other: &BloomFilter) {
        if other.num_bits != self.num_bits || other.k != self.k {
            // Geometry mismatch: degrade safely by saturating the filter so no
            // matches are lost (only extra traffic).
            self.bits.iter_mut().for_each(|w| *w = u64::MAX);
            return;
        }
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= *b;
        }
        self.inserted += other.inserted;
    }

    /// Number of values inserted (across unions).
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Fraction of bits set (diagnostic for false-positive estimation).
    pub fn fill_ratio(&self) -> f64 {
        let set: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        set as f64 / self.num_bits as f64
    }

    /// Raw words (for shipping over the wire).
    pub fn to_words(&self) -> (Vec<u64>, u8) {
        (self.bits.clone(), self.k)
    }

    /// Rebuild from shipped words.
    pub fn from_words(bits: Vec<u64>, k: u8) -> Self {
        let num_bits = bits.len().max(1) * 64;
        BloomFilter { bits, num_bits, k: k.max(1), inserted: 0 }
    }
}

impl WireSize for BloomFilter {
    fn wire_size(&self) -> usize {
        self.bits.len() * 8 + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(1024, 4);
        let values: Vec<Value> = (0..100).map(Value::Int).collect();
        for v in &values {
            f.insert(v);
        }
        for v in &values {
            assert!(f.may_contain(v), "false negative for {v}");
        }
        assert_eq!(f.inserted(), 100);
    }

    #[test]
    fn few_false_positives_when_sized_right() {
        // ~10 bits per key, the planner's sizing rule.
        let mut f = BloomFilter::new(8192, 4);
        for i in 0..500 {
            f.insert(&Value::Int(i));
        }
        let fp = (10_000..20_000).filter(|&i| f.may_contain(&Value::Int(i))).count();
        assert!(fp < 500, "false positive count {fp} too high");
        assert!(f.fill_ratio() < 0.6);
    }

    #[test]
    fn union_preserves_membership() {
        let mut a = BloomFilter::new(512, 3);
        let mut b = BloomFilter::new(512, 3);
        a.insert(&Value::str("left"));
        b.insert(&Value::str("right"));
        a.union(&b);
        assert!(a.may_contain(&Value::str("left")));
        assert!(a.may_contain(&Value::str("right")));
        assert_eq!(a.inserted(), 2);
    }

    #[test]
    fn union_with_mismatched_geometry_saturates() {
        let mut a = BloomFilter::new(512, 3);
        let b = BloomFilter::new(1024, 3);
        a.union(&b);
        // Saturated: everything "matches", so no join results can be lost.
        assert!(a.may_contain(&Value::Int(123456)));
    }

    #[test]
    fn round_trip_words() {
        let mut a = BloomFilter::new(256, 4);
        a.insert(&Value::str("x"));
        let (words, k) = a.to_words();
        let b = BloomFilter::from_words(words, k);
        assert!(b.may_contain(&Value::str("x")));
        assert!(!b.may_contain(&Value::str("definitely-not-here")) || b.fill_ratio() > 0.9);
    }

    #[test]
    fn distinct_values_hash_differently() {
        let f = BloomFilter::new(4096, 4);
        let p1 = f.probes(&Value::Int(1));
        let p2 = f.probes(&Value::Int(2));
        assert_ne!(p1, p2);
        assert_eq!(p1.len(), 4);
    }

    #[test]
    fn wire_size_scales_with_bits() {
        assert!(BloomFilter::new(4096, 4).wire_size() > BloomFilter::new(256, 4).wire_size());
    }
}
