//! Seeded randomness for deterministic simulations.
//!
//! Every stochastic component of the simulator draws from a [`SimRng`]
//! created from an explicit seed, so a run is reproducible bit-for-bit from
//! its seed. Derived streams ([`SimRng::fork`]) let independent actors
//! (each app, the input script, the meter noise) consume randomness without
//! perturbing each other.
//!
//! The generator is a self-contained xoshiro256++ seeded through a
//! SplitMix64 expansion — no external crates, so the simulator builds in
//! fully offline environments and the stream is stable across toolchains.

/// SplitMix64 step: expands a 64-bit seed into independent state words.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic random stream.
///
/// # Examples
///
/// ```
/// use ccdem_simkit::rng::SimRng;
///
/// let mut a = SimRng::seed_from_u64(7);
/// let mut b = SimRng::seed_from_u64(7);
/// assert_eq!(a.range_f64(0.0, 1.0), b.range_f64(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a stream from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent child stream identified by `salt`.
    ///
    /// Forking with distinct salts produces streams that do not interfere:
    /// drawing more values from one never changes the other.
    pub fn fork(&self, salt: u64) -> SimRng {
        // Mix the salt with fresh output-independent state: hash the salt
        // with a fixed-point golden-ratio multiply (SplitMix64 finalizer).
        let mut z = salt.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let mut clone = self.clone();
        let base = clone.next_u64();
        SimRng::seed_from_u64(base ^ z)
    }

    /// A raw 64-bit draw (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)` with 53 bits of precision.
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "range_f64 requires lo < hi");
        let v = lo + (hi - lo) * self.unit_f64();
        // Guard against the sum rounding up to the exclusive bound.
        if v < hi {
            v
        } else {
            lo
        }
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range_u64 requires lo < hi");
        let span = hi - lo;
        // Lemire's multiply-shift maps a 64-bit draw onto [0, span).
        lo + (((self.next_u64() as u128) * (span as u128)) >> 64) as u64
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit_f64() < p
        }
    }

    /// A sample from a normal distribution via the Box–Muller transform.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        // Box–Muller: two uniforms -> one Gaussian (the second is discarded
        // to keep the call stateless).
        let u1 = f64::EPSILON + (1.0 - f64::EPSILON) * self.unit_f64();
        let u2 = self.unit_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// A sample from an exponential distribution with the given mean.
    ///
    /// Used for think times between user-input bursts.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let u = f64::EPSILON + (1.0 - f64::EPSILON) * self.unit_f64();
        -mean * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_with_distinct_salts_differ() {
        let root = SimRng::seed_from_u64(1);
        let mut x = root.fork(1);
        let mut y = root.fork(2);
        let same = (0..32).all(|_| x.next_u64() == y.next_u64());
        assert!(!same, "forked streams should diverge");
    }

    #[test]
    fn fork_is_reproducible() {
        let root1 = SimRng::seed_from_u64(9);
        let root2 = SimRng::seed_from_u64(9);
        let mut a = root1.fork(17);
        let mut b = root2.fork(17);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zero_seed_produces_nonzero_state() {
        let mut rng = SimRng::seed_from_u64(0);
        let draws: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert!(draws.iter().any(|&d| d != 0));
    }

    #[test]
    fn chance_handles_extremes() {
        let mut rng = SimRng::seed_from_u64(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn normal_roughly_centered() {
        let mut rng = SimRng::seed_from_u64(5);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.normal(10.0, 2.0)).sum::<f64>() / n as f64;
        assert!(
            (mean - 10.0).abs() < 0.1,
            "sample mean {mean} too far from 10"
        );
    }

    #[test]
    fn exponential_roughly_mean() {
        let mut rng = SimRng::seed_from_u64(8);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / n as f64;
        assert!(
            (mean - 3.0).abs() < 0.15,
            "sample mean {mean} too far from 3"
        );
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = SimRng::seed_from_u64(11);
        for _ in 0..1000 {
            let v = rng.range_f64(2.0, 3.0);
            assert!((2.0..3.0).contains(&v));
            let u = rng.range_u64(5, 8);
            assert!((5..8).contains(&u));
        }
    }
}
