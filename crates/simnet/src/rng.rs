//! Deterministic random number generation.
//!
//! Every source of randomness in the simulator is derived from a single
//! user-supplied seed so that whole experiments are reproducible.  Separate
//! logical streams (network latency sampling, per-node protocol decisions,
//! workload generation) are split from the root seed with a mixing function so
//! that adding a consumer of randomness in one subsystem does not perturb the
//! draws seen by another subsystem.

/// A deterministic random number generator with stream splitting.
///
/// Implemented as xoshiro256++ (public domain, Blackman & Vigna) so the
/// simulator carries no external dependencies; the state is seeded from the
/// root seed with SplitMix64 exactly as `rand`'s `SmallRng` does.
#[derive(Clone, Debug)]
pub struct DetRng {
    state: [u64; 4],
    seed: u64,
}

/// SplitMix64 finalizer — used to derive independent child seeds and to
/// expand a 64-bit seed into generator state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Create a generator from a root seed.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 sequence over the seed expands it into generator state
        // (the helper advances the counter by the golden-ratio increment).
        let mut s = [0u64; 4];
        let mut x = seed;
        for slot in &mut s {
            *slot = splitmix64(x);
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        }
        DetRng { state: s, seed }
    }

    /// One xoshiro256++ step.
    fn step(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent child stream identified by `stream`.
    ///
    /// The same `(seed, stream)` pair always yields the same child generator,
    /// regardless of how much the parent has been used.
    pub fn stream(&self, stream: u64) -> DetRng {
        let child = splitmix64(self.seed ^ splitmix64(stream.wrapping_add(0xA5A5_5A5A)));
        DetRng::new(child)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 random mantissa bits, the standard conversion.
        (self.step() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)` via Lemire's widening-multiply reduction
    /// (bias is negligible for the ranges the simulator draws).
    fn below(&mut self, n: u64) -> u64 {
        ((self.step() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`; `lo` must be `< hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        lo + self.below(hi - lo)
    }

    /// Uniform usize in `[0, n)`; `n` must be positive.
    pub fn index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        self.below(n as u64) as usize
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Exponentially distributed value with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.unit(); // in (0, 1]
        -mean * u.ln()
    }

    /// A draw from a bounded Pareto-ish heavy tailed distribution
    /// (shape `alpha`, scale `x_min`), truncated at `cap`.
    pub fn heavy_tail(&mut self, x_min: f64, alpha: f64, cap: f64) -> f64 {
        let u = 1.0 - self.unit();
        let x = x_min / u.powf(1.0 / alpha);
        x.min(cap)
    }

    /// A Zipf-distributed rank in `[0, n)` with skew `s` (s = 0 is uniform).
    ///
    /// Implemented by inverse-CDF over the normalized harmonic weights; this
    /// is `O(n)` per draw but `n` is small (ranks of intrusion-detection
    /// rules, keywords, …) in all our workloads.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        debug_assert!(n > 0);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
        }
        let mut target = self.unit() * total;
        for k in 1..=n {
            let w = 1.0 / (k as f64).powf(s);
            if target < w {
                return k - 1;
            }
            target -= w;
        }
        n - 1
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        let n = items.len();
        if n < 2 {
            return;
        }
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.step()
    }

    /// Fill a byte buffer.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.step().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn streams_are_independent_of_parent_usage() {
        let parent1 = DetRng::new(7);
        let mut parent2 = DetRng::new(7);
        // Consume from parent2 before splitting.
        for _ in 0..10 {
            parent2.next_u64();
        }
        let mut c1 = parent1.stream(3);
        let mut c2 = parent2.stream(3);
        for _ in 0..16 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    #[test]
    fn unit_in_range() {
        let mut r = DetRng::new(9);
        for _ in 0..1000 {
            let x = r.unit();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(11);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = DetRng::new(3);
        let n = 20_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let observed = sum / n as f64;
        assert!((observed - mean).abs() < 0.25, "observed mean {observed}");
    }

    #[test]
    fn zipf_is_skewed() {
        let mut r = DetRng::new(5);
        let mut counts = [0usize; 10];
        for _ in 0..20_000 {
            counts[r.zipf(10, 1.2)] += 1;
        }
        assert!(counts[0] > counts[4]);
        assert!(counts[4] > counts[9]);
    }

    #[test]
    fn zipf_zero_skew_roughly_uniform() {
        let mut r = DetRng::new(5);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[r.zipf(4, 0.0)] += 1;
        }
        for &c in &counts {
            assert!((c as i64 - 10_000).abs() < 1_000, "count {c}");
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(17);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn range_and_index_bounds() {
        let mut r = DetRng::new(23);
        for _ in 0..1000 {
            let x = r.range_u64(10, 20);
            assert!((10..20).contains(&x));
            let i = r.index(7);
            assert!(i < 7);
        }
    }

    #[test]
    fn heavy_tail_bounded() {
        let mut r = DetRng::new(29);
        for _ in 0..1000 {
            let x = r.heavy_tail(1.0, 1.5, 100.0);
            assert!((1.0..=100.0).contains(&x));
        }
    }
}
