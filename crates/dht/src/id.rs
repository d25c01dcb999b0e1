//! 160-bit identifiers and circular key-space arithmetic.
//!
//! Chord (and therefore PIER's DHT) places both nodes and data items on a
//! circular identifier space of size 2^160.  Node identifiers are obtained by
//! hashing the node's network address, item identifiers by hashing the item's
//! namespace and resource id.  The node *responsible* for a key is its
//! **successor**: the first node whose identifier is equal to or follows the
//! key clockwise around the ring.
//!
//! [`Id`] is a big-endian 160-bit unsigned integer with the modular arithmetic
//! the protocol needs: interval membership on the circle, `+ 2^i` for finger
//! targets, and clockwise distance.  Routing weighs dozens of candidates per
//! hop, so order and arithmetic run on two native limbs, a `u128` for bytes
//! 0–15 and a `u32` for bytes 16–19, rather than byte by byte.

use std::cmp::Ordering;
use std::fmt;

/// Number of bits in an identifier (Chord's `m`).
pub const ID_BITS: usize = 160;
/// Number of bytes in an identifier.
pub const ID_BYTES: usize = ID_BITS / 8;

/// A 160-bit identifier on the Chord ring, stored big-endian.  Ids order
/// as their bytes do.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Id(pub [u8; ID_BYTES]);

impl Id {
    /// The all-zero identifier.
    pub const ZERO: Id = Id([0; ID_BYTES]);
    /// The all-ones identifier (largest value on the ring).
    pub const MAX: Id = Id([0xFF; ID_BYTES]);

    /// Build an identifier from raw bytes.
    pub fn from_bytes(bytes: [u8; ID_BYTES]) -> Self {
        Id(bytes)
    }

    /// Build an identifier whose low 64 bits are `v` (useful in tests).
    pub fn from_u64(v: u64) -> Self {
        let mut b = [0u8; ID_BYTES];
        b[ID_BYTES - 8..].copy_from_slice(&v.to_be_bytes());
        Id(b)
    }

    /// The low 64 bits of the identifier (truncating view, for hashing into
    /// buckets and for compact debug output).
    pub fn low64(&self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.0[ID_BYTES - 8..]);
        u64::from_be_bytes(b)
    }

    /// The high 64 bits of the identifier (used for approximately uniform
    /// partitioning diagnostics).
    pub fn high64(&self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.0[..8]);
        u64::from_be_bytes(b)
    }

    /// The identifier as two big-endian limbs, bytes 0–15 and bytes 16–19.
    /// Tuples of limbs order as the bytes do.
    fn limbs(&self) -> (u128, u32) {
        let mut hi = [0u8; 16];
        let mut lo = [0u8; 4];
        hi.copy_from_slice(&self.0[..16]);
        lo.copy_from_slice(&self.0[16..]);
        (u128::from_be_bytes(hi), u32::from_be_bytes(lo))
    }

    fn from_limbs(hi: u128, lo: u32) -> Id {
        let mut b = [0u8; ID_BYTES];
        b[..16].copy_from_slice(&hi.to_be_bytes());
        b[16..].copy_from_slice(&lo.to_be_bytes());
        Id(b)
    }

    /// Modular addition: `self + other (mod 2^160)`.
    pub fn wrapping_add(&self, other: &Id) -> Id {
        let ((ah, al), (bh, bl)) = (self.limbs(), other.limbs());
        let (lo, carry) = al.overflowing_add(bl);
        Id::from_limbs(ah.wrapping_add(bh).wrapping_add(carry as u128), lo)
    }

    /// Modular subtraction: `self - other (mod 2^160)`.
    pub fn wrapping_sub(&self, other: &Id) -> Id {
        let ((ah, al), (bh, bl)) = (self.limbs(), other.limbs());
        let (lo, borrow) = al.overflowing_sub(bl);
        Id::from_limbs(ah.wrapping_sub(bh).wrapping_sub(borrow as u128), lo)
    }

    /// The identifier `2^k (mod 2^160)`; `2^160` wraps to zero.
    pub fn power_of_two(k: usize) -> Id {
        let mut b = [0u8; ID_BYTES];
        if k >= ID_BITS {
            return Id(b);
        }
        let byte = ID_BYTES - 1 - k / 8;
        b[byte] = 1u8 << (k % 8);
        Id(b)
    }

    /// Finger target `self + 2^k (mod 2^160)` — the start of Chord finger `k`.
    pub fn finger_target(&self, k: usize) -> Id {
        self.wrapping_add(&Id::power_of_two(k))
    }

    /// Clockwise distance from `self` to `other` on the ring.
    pub fn distance_to(&self, other: &Id) -> Id {
        other.wrapping_sub(self)
    }

    /// `true` if `self` lies in the open interval `(a, b)` going clockwise.
    ///
    /// When `a == b` the interval is the whole ring minus `a` itself, matching
    /// Chord's convention (a node whose successor is itself owns everything).
    pub fn in_open_interval(&self, a: &Id, b: &Id) -> bool {
        let (x, a, b) = (self.limbs(), a.limbs(), b.limbs());
        if a == b {
            return x != a;
        }
        if a < b {
            a < x && x < b
        } else {
            // Interval wraps around zero.
            x > a || x < b
        }
    }

    /// `true` if `self` lies in the half-open interval `(a, b]` clockwise.
    ///
    /// This is the ownership test: key `k` belongs to node `n` iff
    /// `k ∈ (predecessor(n), n]`.
    pub fn in_half_open_interval(&self, a: &Id, b: &Id) -> bool {
        let (x, a, b) = (self.limbs(), a.limbs(), b.limbs());
        if a == b {
            // Single-node ring: it owns every key.
            return true;
        }
        if a < b {
            a < x && x <= b
        } else {
            x > a || x <= b
        }
    }

    /// Number of leading bits shared with `other` (longest common prefix).
    pub fn common_prefix_bits(&self, other: &Id) -> usize {
        for i in 0..ID_BYTES {
            let x = self.0[i] ^ other.0[i];
            if x != 0 {
                return i * 8 + x.leading_zeros() as usize;
            }
        }
        ID_BITS
    }

    /// Short hexadecimal prefix, for logs.
    pub fn short_hex(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Full hexadecimal representation.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl Ord for Id {
    fn cmp(&self, other: &Id) -> Ordering {
        self.limbs().cmp(&other.limbs())
    }
}

impl PartialOrd for Id {
    fn partial_cmp(&self, other: &Id) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Id({}…)", self.short_hex())
    }
}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.short_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_u64_round_trip() {
        let id = Id::from_u64(0xDEAD_BEEF_1234_5678);
        assert_eq!(id.low64(), 0xDEAD_BEEF_1234_5678);
        assert_eq!(id.high64(), 0);
    }

    #[test]
    fn wrapping_add_and_sub_are_inverses() {
        let a = Id::from_u64(12345);
        let b = Id::from_u64(99999);
        assert_eq!(a.wrapping_add(&b).wrapping_sub(&b), a);
        assert_eq!(a.wrapping_sub(&b).wrapping_add(&b), a);
    }

    #[test]
    fn add_carries_across_bytes() {
        let a = Id::from_u64(u64::MAX);
        let one = Id::from_u64(1);
        let sum = a.wrapping_add(&one);
        // 2^64 has a 1 in the 9th byte from the end.
        assert_eq!(sum.low64(), 0);
        assert_eq!(sum.0[ID_BYTES - 9], 1);
    }

    #[test]
    fn sub_wraps_around_zero() {
        let zero = Id::ZERO;
        let one = Id::from_u64(1);
        assert_eq!(zero.wrapping_sub(&one), Id::MAX);
    }

    #[test]
    fn max_plus_one_is_zero() {
        assert_eq!(Id::MAX.wrapping_add(&Id::from_u64(1)), Id::ZERO);
    }

    #[test]
    fn power_of_two_values() {
        assert_eq!(Id::power_of_two(0), Id::from_u64(1));
        assert_eq!(Id::power_of_two(10), Id::from_u64(1024));
        assert_eq!(Id::power_of_two(63), Id::from_u64(1u64 << 63));
        // Bit 64 sits just above the low64 view.
        let p64 = Id::power_of_two(64);
        assert_eq!(p64.low64(), 0);
        assert_eq!(p64.0[ID_BYTES - 9], 1);
        // 2^159 is the top bit.
        assert_eq!(Id::power_of_two(159).0[0], 0x80);
        // Out of range wraps to zero.
        assert_eq!(Id::power_of_two(160), Id::ZERO);
    }

    #[test]
    fn finger_targets_increase() {
        let n = Id::from_u64(1000);
        assert_eq!(n.finger_target(0), Id::from_u64(1001));
        assert_eq!(n.finger_target(4), Id::from_u64(1016));
    }

    #[test]
    fn open_interval_basic() {
        let a = Id::from_u64(10);
        let b = Id::from_u64(20);
        assert!(Id::from_u64(15).in_open_interval(&a, &b));
        assert!(!Id::from_u64(10).in_open_interval(&a, &b));
        assert!(!Id::from_u64(20).in_open_interval(&a, &b));
        assert!(!Id::from_u64(25).in_open_interval(&a, &b));
    }

    #[test]
    fn open_interval_wrapping() {
        let a = Id::from_u64(u64::MAX - 5);
        let b = Id::from_u64(10);
        assert!(Id::from_u64(3).in_open_interval(&a, &b));
        assert!(Id::MAX.in_open_interval(&a, &b));
        assert!(!Id::from_u64(500).in_open_interval(&a, &b));
    }

    #[test]
    fn open_interval_degenerate() {
        let a = Id::from_u64(7);
        // (a, a) is everything except a.
        assert!(Id::from_u64(8).in_open_interval(&a, &a));
        assert!(!a.in_open_interval(&a, &a));
    }

    #[test]
    fn half_open_interval_ownership() {
        let pred = Id::from_u64(100);
        let node = Id::from_u64(200);
        assert!(Id::from_u64(150).in_half_open_interval(&pred, &node));
        assert!(Id::from_u64(200).in_half_open_interval(&pred, &node));
        assert!(!Id::from_u64(100).in_half_open_interval(&pred, &node));
        assert!(!Id::from_u64(201).in_half_open_interval(&pred, &node));
        // Single node ring owns everything.
        assert!(Id::from_u64(5).in_half_open_interval(&node, &node));
        assert!(node.in_half_open_interval(&node, &node));
    }

    #[test]
    fn half_open_interval_wrapping() {
        let pred = Id::MAX.wrapping_sub(&Id::from_u64(10));
        let node = Id::from_u64(10);
        assert!(Id::from_u64(0).in_half_open_interval(&pred, &node));
        assert!(Id::from_u64(10).in_half_open_interval(&pred, &node));
        assert!(Id::MAX.in_half_open_interval(&pred, &node));
        assert!(!Id::from_u64(11).in_half_open_interval(&pred, &node));
    }

    #[test]
    fn distance_is_clockwise() {
        let a = Id::from_u64(100);
        let b = Id::from_u64(300);
        assert_eq!(a.distance_to(&b), Id::from_u64(200));
        // Going the other way wraps nearly all the way round.
        let back = b.distance_to(&a);
        assert!(back > Id::from_u64(1u64 << 60));
    }

    #[test]
    fn common_prefix() {
        let a = Id::from_bytes([0xFF; ID_BYTES]);
        let mut b = [0xFF; ID_BYTES];
        b[2] = 0x7F;
        assert_eq!(a.common_prefix_bits(&Id::from_bytes(b)), 16);
        assert_eq!(a.common_prefix_bits(&a), ID_BITS);
        assert_eq!(Id::ZERO.common_prefix_bits(&Id::MAX), 0);
    }

    #[test]
    fn hex_formatting() {
        let id = Id::from_bytes([0xAB; ID_BYTES]);
        assert_eq!(id.short_hex(), "abababab");
        assert_eq!(id.to_hex().len(), 40);
        assert!(format!("{id:?}").contains("abababab"));
        assert_eq!(format!("{id}"), "abababab");
    }

    #[test]
    fn ordering_matches_big_endian() {
        assert!(Id::from_u64(5) < Id::from_u64(6));
        assert!(Id::power_of_two(100) > Id::from_u64(u64::MAX));
    }
}
