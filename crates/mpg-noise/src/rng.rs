//! Deterministic, splittable random-number streams.
//!
//! Every stochastic component in the workspace (simulator network model,
//! OS-noise injection, replay perturbation sampling) draws from its own
//! [`StreamRng`], derived from a root seed plus a stream label. Two
//! consequences matter for reproducibility:
//!
//! * the same root seed always reproduces the same simulation/replay,
//!   bit for bit, regardless of how many other streams were consumed, and
//! * adding a new consumer (a new rank, a new edge class) never perturbs the
//!   sequences seen by existing consumers.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Mixes a 64-bit value with the SplitMix64 finalizer.
///
/// Used to derive independent stream seeds from `(root, label)` pairs; the
/// finalizer's avalanche behaviour makes structurally close labels (rank 3 vs
/// rank 4) produce unrelated streams.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A named, deterministic random stream.
///
/// Thin wrapper over [`SmallRng`] whose seed is a hash of the root seed and a
/// caller-chosen stream label, so independent subsystems can derive
/// non-overlapping streams without coordinating.
#[derive(Debug, Clone)]
pub struct StreamRng {
    inner: SmallRng,
    seed: u64,
}

impl StreamRng {
    /// Creates a stream from a root seed and a label identifying the consumer
    /// (e.g. `(root, rank as u64)` or a hashed component name).
    pub fn new(root_seed: u64, label: u64) -> Self {
        let seed = splitmix64(root_seed ^ splitmix64(label));
        Self {
            inner: SmallRng::seed_from_u64(seed),
            seed,
        }
    }

    /// Derives a child stream; `label` distinguishes siblings.
    pub fn split(&self, label: u64) -> Self {
        Self::new(self.seed, label)
    }

    /// The mixed seed this stream was constructed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn uniform01(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform `usize` in `[0, n)`; `n` must be nonzero.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        self.inner.gen_range(0..n)
    }

    /// Standard-normal variate via Box–Muller (deterministic, no cached
    /// second value so the stream position is a pure function of call count).
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        // Avoid ln(0); uniform01 is in [0,1).
        let u1 = 1.0 - self.uniform01();
        let u2 = self.uniform01();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Exponential variate with the given mean.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.uniform01();
        -mean * u.ln()
    }
}

impl RngCore for StreamRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StreamRng::new(42, 7);
        let mut b = StreamRng::new(42, 7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_differ() {
        let mut a = StreamRng::new(42, 7);
        let mut b = StreamRng::new(42, 8);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_is_deterministic() {
        let parent = StreamRng::new(1, 2);
        let mut c1 = parent.split(5);
        let mut c2 = parent.split(5);
        assert_eq!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn splitmix_avalanches() {
        // Adjacent inputs should differ in roughly half their bits.
        let d = (splitmix64(1) ^ splitmix64(2)).count_ones();
        assert!(d > 16 && d < 48, "poor avalanche: {d} bits");
    }

    #[test]
    fn uniform01_in_range() {
        let mut r = StreamRng::new(3, 3);
        for _ in 0..10_000 {
            let x = r.uniform01();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = StreamRng::new(9, 0);
        let n = 200_000;
        let mean = 250.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let est = sum / n as f64;
        assert!((est - mean).abs() < mean * 0.02, "est={est}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = StreamRng::new(11, 0);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.standard_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }
}
