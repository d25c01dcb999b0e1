//! Machine-speed calibration.  A shared host's speed drifts by tens of
//! percent over minutes, whatever the code under test does.  A round
//! therefore interleaves fixed slices of reference work with the program's
//! own work, times them, and scales its host times to a reference machine
//! on which one slice takes [`REFERENCE_SLICE_NS`].
//!
//! The reference work lives here and calls nothing in the program under
//! test, so a change to the program cannot make it faster or slower.  It is
//! shaped like a simulator's inner loop: a timer heap, hash-keyed state
//! rebuilt in small heap buffers, and dependent reads over a table.  Its
//! state fits in a core's private caches, and each slice first warms it up
//! untimed, so what the program left in the caches does not change how long
//! the timed part takes.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// Words of the scattered table: 128 KiB.
const TABLE_WORDS: usize = 1 << 14;
/// Dependent reads of the table per event.
const READS: u32 = 4;
/// Distinct keys of the keyed state.
const KEYS: u64 = 1 << 10;
/// Timers pending at any time.
const TIMERS: usize = 1024;
/// Events processed per slice.
const SLICE_EVENTS: u32 = 2_500;

/// Nanoseconds one slice takes on the reference machine.  Host times are
/// reported as if measured there.
pub const REFERENCE_SLICE_NS: f64 = 1.0e6;

/// Events run untimed at the start of a slice, to warm the caches.
const WARM_EVENTS: u32 = 500;

/// The reference work and the time it has taken so far.
pub struct Calibrator {
    rng: u64,
    timers: BinaryHeap<Reverse<(u64, u64)>>,
    keyed: HashMap<u64, Vec<u8>>,
    table: Vec<u64>,
    /// Nanoseconds spent in the timed part of slices so far.
    pub ns: u64,
    /// Slices run so far.
    pub slices: u64,
    /// Folded results, so the work cannot be optimized away.
    pub checksum: u64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// Fresh state, the same every time.
    pub fn new() -> Self {
        let mut c = Calibrator {
            rng: 0x2004_5167,
            timers: BinaryHeap::with_capacity(TIMERS + 1),
            keyed: HashMap::new(),
            table: (0..TABLE_WORDS as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect(),
            ns: 0,
            slices: 0,
            checksum: 0,
        };
        for _ in 0..TIMERS {
            let at = c.next() % 10_000;
            let key = c.next() % KEYS;
            c.timers.push(Reverse((at, key)));
        }
        c
    }

    /// xorshift64*.
    fn next(&mut self) -> u64 {
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Run one fixed slice of reference work: warm the state up, then time
    /// a fixed number of events and add their time to `ns`.
    pub fn slice(&mut self) {
        let mut sum = self.table.iter().fold(0u64, |a, &v| a.wrapping_add(v));
        sum = sum.wrapping_add(self.events(WARM_EVENTS));
        let started = Instant::now();
        sum = sum.wrapping_add(self.events(SLICE_EVENTS));
        self.ns += started.elapsed().as_nanos() as u64;
        self.slices += 1;
        self.checksum = self.checksum.wrapping_add(sum);
    }

    fn events(&mut self, n: u32) -> u64 {
        let mut sum = 0u64;
        for _ in 0..n {
            let Reverse((at, key)) = self.timers.pop().expect("every event re-arms a timer");
            let r = self.next();
            let buf = self.keyed.entry(key).or_default();
            buf.clear();
            buf.extend((0..16 + r % 240).map(|i| (r >> (i % 56)) as u8));
            sum = sum.wrapping_add(buf.iter().map(|&b| b as u64).sum::<u64>());
            let mut i = r as usize % TABLE_WORDS;
            for _ in 0..READS {
                let v = self.table[i];
                self.table[i] = v.wrapping_add(at ^ key);
                sum = sum.wrapping_add(v);
                i = (v ^ r) as usize % TABLE_WORDS;
            }
            if r % 64 == 0 {
                self.keyed.remove(&((key + 1) % KEYS));
            }
            self.timers.push(Reverse((at + 1 + r % 10_000, (key + r % 97) % KEYS)));
        }
        sum
    }

    /// Mean host nanoseconds per slice so far.
    pub fn ns_per_slice(&self) -> f64 {
        crate::ratio(self.ns as f64, self.slices as f64)
    }
}
