//! Deterministic, splittable random number generation.
//!
//! Every stochastic element of the simulation (link jitter, loss, topology
//! generation, fuzzing) draws from a [`SimRng`] seeded from the simulation
//! seed. ChaCha8 guarantees the same stream on every platform and rand
//! version, which `SmallRng` does not.
//!
//! `split` derives an independent child stream; giving each node/link its own
//! split stream keeps runs reproducible even when the *order* in which
//! components consume randomness changes (e.g. after a snapshot clone).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A deterministic random stream.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha8Rng,
}

impl SimRng {
    /// Create a stream from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child stream identified by `label`.
    ///
    /// Children with distinct labels are statistically independent; the same
    /// label always yields the same child for a given parent state.
    pub fn split(&mut self, label: u64) -> SimRng {
        let base = self.inner.next_u64();
        // SplitMix64-style finalizer to decorrelate label and base.
        let mut z = base ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SimRng::seed_from_u64(z ^ (z >> 31))
    }

    /// The child the `n`-th (0-based) of a run of [`SimRng::split`] calls on
    /// the freshly seeded stream yields, whatever this stream has drawn
    /// since: a split consumes one 64-bit draw, so the stream seeks to word
    /// `2 * n` and splits there. Lets the owner of thousands of children
    /// keep one parent and build each child only if it is ever drawn from.
    pub fn nth_split(&mut self, n: u64, label: u64) -> SimRng {
        self.inner.set_word_pos(2 * u128::from(n));
        self.split(label)
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Next raw 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    /// Uniform integer in `[0, bound)`. `bound` must be nonzero.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased results.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Rejection sampling on the widening multiply.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.f64() < p
    }

    /// Exponentially distributed sample with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.f64(); // (0,1]
        -mean * u.ln()
    }

    /// A heavy-tailed "Internet-like" latency sample: base plus a
    /// log-normal-ish tail implemented as exp of a scaled normal approximation
    /// (sum of uniforms). Keeps the dependency footprint at zero.
    pub fn lognormalish(&mut self, median: f64, sigma: f64) -> f64 {
        // Irwin–Hall(12) gives an approximate standard normal.
        let mut s = 0.0;
        for _ in 0..12 {
            s += self.f64();
        }
        let z = s - 6.0;
        median * (sigma * z).exp()
    }

    /// Fill a byte slice with random data.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest);
    }

    /// Choose a uniformly random element index for a slice of length `len`.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_independent_and_stable() {
        let mut parent1 = SimRng::seed_from_u64(42);
        let mut parent2 = SimRng::seed_from_u64(42);
        let mut c1 = parent1.split(5);
        let mut c2 = parent2.split(5);
        for _ in 0..32 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    #[test]
    fn nth_split_is_the_nth_sequential_split() {
        // 20 children span three 16-word parent blocks.
        let labels: Vec<u64> = (0..20).map(|i| 0xAB00 + i * 7).collect();
        let mut eager_parent = SimRng::seed_from_u64(42);
        let mut eager: Vec<SimRng> = labels.iter().map(|&l| eager_parent.split(l)).collect();
        let mut parent = SimRng::seed_from_u64(42);
        for n in [19usize, 0, 8, 7, 7, 12, 3] {
            let mut child = parent.nth_split(n as u64, labels[n]);
            let mut want = eager[n].clone();
            for _ in 0..8 {
                assert_eq!(child.next_u64(), want.next_u64(), "child {n}");
            }
        }
        // A neighbour's label or position is a different stream.
        let mut off = parent.nth_split(4, labels[3]);
        assert_ne!(off.next_u64(), eager[3].next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn below_covers_small_range() {
        let mut r = SimRng::seed_from_u64(9);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[r.below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from_u64(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn chance_roughly_calibrated() {
        let mut r = SimRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
    }

    #[test]
    fn exponential_mean_roughly_right() {
        let mut r = SimRng::seed_from_u64(13);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exponential(10.0)).sum::<f64>() / n as f64;
        assert!((9.0..11.0).contains(&mean), "got {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::seed_from_u64(17);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
