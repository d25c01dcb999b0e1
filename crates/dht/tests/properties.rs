//! Property-based tests for the DHT's identifier arithmetic, hashing, and
//! soft-state storage invariants.
//!
//! Cases are generated with the simulator's deterministic RNG (the container
//! has no third-party property-testing crate); each property is checked over a
//! few hundred random cases, so failures reproduce bit-identically.

use pier_dht::{hash_bytes, sha1, Id, ResourceKey, SoftStateStore};
use pier_simnet::{DetRng, Duration, SimTime};

const CASES: usize = 256;

fn arb_id(rng: &mut DetRng) -> Id {
    let mut bytes = [0u8; 20];
    rng.fill_bytes(&mut bytes);
    Id::from_bytes(bytes)
}

fn arb_bytes(rng: &mut DetRng, max_len: usize) -> Vec<u8> {
    let len = rng.index(max_len + 1);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// Addition and subtraction on the ring are inverses.
#[test]
fn add_sub_roundtrip() {
    let mut rng = DetRng::new(0xD417_0001);
    for _ in 0..CASES {
        let a = arb_id(&mut rng);
        let b = arb_id(&mut rng);
        assert_eq!(a.wrapping_add(&b).wrapping_sub(&b), a);
        assert_eq!(a.wrapping_sub(&b).wrapping_add(&b), a);
    }
}

/// Ring addition is commutative.
#[test]
fn add_commutative() {
    let mut rng = DetRng::new(0xD417_0002);
    for _ in 0..CASES {
        let a = arb_id(&mut rng);
        let b = arb_id(&mut rng);
        assert_eq!(a.wrapping_add(&b), b.wrapping_add(&a));
    }
}

/// Clockwise distances around the ring sum to zero (a full revolution).
#[test]
fn distances_sum_to_full_circle() {
    let mut rng = DetRng::new(0xD417_0003);
    for _ in 0..CASES {
        let a = arb_id(&mut rng);
        let b = arb_id(&mut rng);
        let d1 = a.distance_to(&b);
        let d2 = b.distance_to(&a);
        assert_eq!(d1.wrapping_add(&d2), Id::ZERO);
    }
}

/// For distinct points, exactly one of "c in (a,b)" / "c in (b,a)" /
/// "c == a" / "c == b" holds — the two arcs partition the rest of the ring.
#[test]
fn open_intervals_partition_ring() {
    let mut rng = DetRng::new(0xD417_0004);
    for _ in 0..CASES {
        let a = arb_id(&mut rng);
        let b = arb_id(&mut rng);
        if a == b {
            continue;
        }
        let c = arb_id(&mut rng);
        let in_ab = c.in_open_interval(&a, &b);
        let in_ba = c.in_open_interval(&b, &a);
        let on_endpoint = c == a || c == b;
        let count = [in_ab, in_ba, on_endpoint].iter().filter(|x| **x).count();
        assert_eq!(count, 1, "c must be in exactly one region");
    }
}

/// The half-open interval (a, b] contains b and never contains a (when a != b).
#[test]
fn half_open_interval_endpoints() {
    let mut rng = DetRng::new(0xD417_0005);
    for _ in 0..CASES {
        let a = arb_id(&mut rng);
        let b = arb_id(&mut rng);
        if a == b {
            continue;
        }
        assert!(b.in_half_open_interval(&a, &b));
        assert!(!a.in_half_open_interval(&a, &b));
    }
}

/// Byte-wise `a + b (mod 2^160)`: the definition the limb arithmetic of
/// `Id::wrapping_add` must match.
fn ref_add(a: &Id, b: &Id) -> Id {
    let mut out = [0u8; 20];
    let mut carry = 0u16;
    for i in (0..20).rev() {
        let sum = a.0[i] as u16 + b.0[i] as u16 + carry;
        out[i] = (sum & 0xFF) as u8;
        carry = sum >> 8;
    }
    Id(out)
}

/// Byte-wise `a - b (mod 2^160)`, the reference for `Id::wrapping_sub`.
fn ref_sub(a: &Id, b: &Id) -> Id {
    let mut out = [0u8; 20];
    let mut borrow = 0i16;
    for i in (0..20).rev() {
        let diff = a.0[i] as i16 - b.0[i] as i16 - borrow;
        if diff < 0 {
            out[i] = (diff + 256) as u8;
            borrow = 1;
        } else {
            out[i] = diff as u8;
            borrow = 0;
        }
    }
    Id(out)
}

/// `x ∈ (a, b)` under the byte order, the reference for `in_open_interval`.
fn ref_in_open(x: &Id, a: &Id, b: &Id) -> bool {
    let (x, a, b) = (&x.0, &a.0, &b.0);
    if a == b {
        x != a
    } else if a < b {
        a < x && x < b
    } else {
        x > a || x < b
    }
}

/// `x ∈ (a, b]` under the byte order, the reference for
/// `in_half_open_interval`.
fn ref_in_half_open(x: &Id, a: &Id, b: &Id) -> bool {
    let (x, a, b) = (&x.0, &a.0, &b.0);
    if a == b {
        true
    } else if a < b {
        a < x && x <= b
    } else {
        x > a || x <= b
    }
}

/// Ids on either side of the limb boundary between bytes 15 and 16, the
/// ends of the ring, random ids, and random pairs that share bytes 0–15.
fn limb_cases(rng: &mut DetRng) -> Vec<Id> {
    let one = Id::from_u64(1);
    let low_limb_max = Id::from_u64(u32::MAX as u64);
    let mut ids =
        vec![Id::ZERO, Id::MAX, one, low_limb_max, Id::power_of_two(32), Id::power_of_two(159)];
    for _ in 0..9 {
        let a = arb_id(rng);
        let mut b = a;
        rng.fill_bytes(&mut b.0[16..]);
        ids.extend([a, b]);
    }
    ids
}

/// Order, addition, subtraction and distance on the two limbs agree with
/// the byte-wise definitions, across the limb boundary too.
#[test]
fn limb_arithmetic_matches_the_byte_definition() {
    let one = Id::from_u64(1);
    let low_limb_max = Id::from_u64(u32::MAX as u64);
    // A carry and a borrow across bytes 15/16.
    assert_eq!(low_limb_max.wrapping_add(&one), Id::power_of_two(32));
    assert_eq!(Id::power_of_two(32).wrapping_sub(&one), low_limb_max);
    assert_eq!(Id::MAX.wrapping_add(&one), Id::ZERO);
    assert_eq!(Id::ZERO.wrapping_sub(&one), Id::MAX);

    let mut rng = DetRng::new(0xD417_000B);
    let ids = limb_cases(&mut rng);
    let check = |a: &Id, b: &Id| {
        assert_eq!(a.wrapping_add(b), ref_add(a, b), "{a:?} + {b:?}");
        assert_eq!(a.wrapping_sub(b), ref_sub(a, b), "{a:?} - {b:?}");
        assert_eq!(a.distance_to(b), ref_sub(b, a), "{a:?} -> {b:?}");
        assert_eq!(a.cmp(b), a.0.cmp(&b.0), "{a:?} cmp {b:?}");
        assert_eq!(a.partial_cmp(b), Some(a.0.cmp(&b.0)));
    };
    for a in &ids {
        for b in &ids {
            check(a, b);
        }
    }
    for _ in 0..CASES {
        check(&arb_id(&mut rng), &arb_id(&mut rng));
    }
}

/// Interval membership on the two limbs agrees with the byte-order
/// definition, endpoints and limb-boundary cases included.
#[test]
fn limb_intervals_match_the_byte_definition() {
    let mut rng = DetRng::new(0xD417_000C);
    let ids = limb_cases(&mut rng);
    let check = |x: &Id, a: &Id, b: &Id| {
        assert_eq!(x.in_open_interval(a, b), ref_in_open(x, a, b), "{x:?} in ({a:?}, {b:?})");
        assert_eq!(
            x.in_half_open_interval(a, b),
            ref_in_half_open(x, a, b),
            "{x:?} in ({a:?}, {b:?}]"
        );
    };
    for x in &ids {
        for a in &ids {
            for b in &ids {
                check(x, a, b);
            }
        }
    }
    for _ in 0..CASES {
        check(&arb_id(&mut rng), &arb_id(&mut rng), &arb_id(&mut rng));
    }
}

/// Successor ownership intervals of a set of nodes cover every key exactly once.
#[test]
fn ownership_partitions_key_space() {
    let mut rng = DetRng::new(0xD417_0006);
    for _ in 0..CASES {
        let count = 2 + rng.index(10);
        let mut set = std::collections::BTreeSet::new();
        while set.len() < count {
            set.insert(arb_id(&mut rng));
        }
        let ids: Vec<Id> = set.into_iter().collect();
        let key = arb_id(&mut rng);
        // Each node i owns (pred_i, id_i]. Count owners of `key`.
        let n = ids.len();
        let mut owners = 0;
        for i in 0..n {
            let pred = ids[(i + n - 1) % n];
            let me = ids[i];
            if key.in_half_open_interval(&pred, &me) {
                owners += 1;
            }
        }
        assert_eq!(owners, 1, "every key must have exactly one owner");
    }
}

/// SHA-1 is deterministic and spreads distinct inputs to distinct ids.
#[test]
fn sha1_deterministic() {
    let mut rng = DetRng::new(0xD417_0007);
    for _ in 0..CASES {
        let data = arb_bytes(&mut rng, 255);
        assert_eq!(sha1(&data), sha1(&data));
        assert_eq!(hash_bytes(&data), hash_bytes(&data));
    }
}

/// Appending a byte changes the digest (no trivial length-extension equality).
#[test]
fn sha1_sensitive_to_append() {
    let mut rng = DetRng::new(0xD417_0008);
    for _ in 0..CASES {
        let data = arb_bytes(&mut rng, 127);
        let extra = (rng.next_u64() & 0xFF) as u8;
        let mut longer = data.clone();
        longer.push(extra);
        assert_ne!(sha1(&data), sha1(&longer));
    }
}

/// Soft-state storage: items are visible before expiry and gone afterwards,
/// and `len()` matches the number of distinct keys inserted.
#[test]
fn storage_ttl_and_len() {
    let mut rng = DetRng::new(0xD417_0009);
    for _ in 0..64 {
        let entries: Vec<(u8, u8, u64)> = (0..1 + rng.index(39))
            .map(|_| (rng.index(20) as u8, rng.index(20) as u8, 1 + rng.range_u64(0, 49)))
            .collect();
        let ttl_secs = 1 + rng.range_u64(0, 99);
        let mut store: SoftStateStore<u64> = SoftStateStore::new();
        let ttl = Duration::from_secs(ttl_secs);
        let mut distinct = std::collections::BTreeSet::new();
        for (ns, res, inst) in &entries {
            let key = ResourceKey::new(format!("ns{ns}"), format!("r{res}"), *inst);
            distinct.insert((key.namespace.clone(), key.resource.clone(), key.instance));
            store.put(key, 1, SimTime::ZERO, ttl);
        }
        assert_eq!(store.len(), distinct.len());

        // Just before expiry everything is visible.
        let before = SimTime::from_micros(ttl_secs * 1_000_000 - 1);
        let visible: usize = store.all_items(before).len();
        assert_eq!(visible, distinct.len());

        // At/after expiry nothing is visible and sweep removes everything.
        let after = SimTime::from_secs(ttl_secs);
        assert_eq!(store.all_items(after).len(), 0);
        let removed = store.sweep(after);
        assert_eq!(removed, distinct.len());
        assert!(store.is_empty());
    }
}

/// Routing ids depend only on namespace + resource, never on instance.
#[test]
fn routing_id_instance_independent() {
    let mut rng = DetRng::new(0xD417_000A);
    for _ in 0..CASES {
        let ns: String =
            (0..1 + rng.index(8)).map(|_| (b'a' + rng.index(26) as u8) as char).collect();
        let res: String = (0..1 + rng.index(8))
            .map(|_| {
                let alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789";
                alphabet[rng.index(alphabet.len())] as char
            })
            .collect();
        let i1 = rng.next_u64();
        let i2 = rng.next_u64();
        let a = ResourceKey::new(ns.clone(), res.clone(), i1);
        let b = ResourceKey::new(ns, res, i2);
        assert_eq!(a.routing_id(), b.routing_id());
    }
}
