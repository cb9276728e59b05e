//! Empirical distributions built from microbenchmark samples (§5, method 2).
//!
//! "The second method for generating parameters is to use the data itself to
//! build an empirical distribution. … the resulting empirical distribution
//! approaches the actual distribution as the sample size increases, as stated
//! by the law of large numbers." Experiment E9 quantifies that convergence.

use crate::rng::StreamRng;
use crate::stats::{quantile_sorted, Summary};

/// An empirical distribution: the ECDF of a set of measured samples, sampled
/// by inverse-transform (draw `u ~ U[0,1)`, return the `u`-quantile with
/// linear interpolation between order statistics).
#[derive(Debug, Clone, PartialEq)]
pub struct Empirical {
    /// Sorted, nonnegative samples (cycles).
    sorted: Vec<f64>,
    mean: f64,
}

impl Empirical {
    /// Builds from raw samples. Negative values are clamped to zero (a
    /// perturbation sample cannot be negative); NaNs are rejected.
    ///
    /// # Panics
    /// Panics when `samples` is empty or contains NaN.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "empirical distribution needs samples");
        assert!(samples.iter().all(|x| !x.is_nan()), "NaN sample");
        let mut sorted: Vec<f64> = samples.iter().map(|&x| x.max(0.0)).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Self { sorted, mean }
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when built from zero samples (unreachable via constructors; kept
    /// for API completeness).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The `q`-quantile (with interpolation).
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_sorted(&self.sorted, q)
    }

    /// The empirical CDF evaluated at `x`: fraction of samples ≤ `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        // partition_point gives the count of samples <= x on a sorted vec.
        let n = self.sorted.partition_point(|&s| s <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// Draws one value by inverse-transform sampling.
    pub fn sample_f64(&self, rng: &mut StreamRng) -> f64 {
        self.quantile(rng.uniform01())
    }

    /// Kolmogorov–Smirnov distance to another empirical distribution:
    /// `sup_x |F(x) − G(x)|`, evaluated at both sample sets' points.
    pub fn ks_distance(&self, other: &Empirical) -> f64 {
        let mut d: f64 = 0.0;
        for &x in self.sorted.iter().chain(other.sorted.iter()) {
            d = d.max((self.cdf(x) - other.cdf(x)).abs());
            // Also check just below x to catch jumps.
            let eps = x.abs().max(1.0) * 1e-12;
            d = d.max((self.cdf(x - eps) - other.cdf(x - eps)).abs());
        }
        d
    }

    /// Summary statistics of the underlying samples.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.sorted)
    }

    /// Read-only access to the sorted samples (for histogramming/export).
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Dist, SampleDist};

    #[test]
    fn cdf_and_quantile_roundtrip() {
        let e = Empirical::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.cdf(0.5), 0.0);
        assert_eq!(e.cdf(1.0), 0.25);
        assert_eq!(e.cdf(2.5), 0.5);
        assert_eq!(e.cdf(4.0), 1.0);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(1.0), 4.0);
        assert_eq!(e.mean(), 2.5);
    }

    #[test]
    fn negatives_clamped() {
        let e = Empirical::from_samples(&[-5.0, 10.0]);
        assert_eq!(e.quantile(0.0), 0.0);
        assert_eq!(e.mean(), 5.0);
    }

    #[test]
    #[should_panic(expected = "needs samples")]
    fn empty_panics() {
        Empirical::from_samples(&[]);
    }

    #[test]
    fn sampling_preserves_bounds() {
        let e = Empirical::from_samples(&[100.0, 200.0, 300.0]);
        let mut rng = StreamRng::new(1, 0);
        for _ in 0..1000 {
            let x = e.sample_f64(&mut rng);
            assert!((100.0..=300.0).contains(&x));
        }
    }

    #[test]
    fn ks_distance_self_is_zero() {
        let e = Empirical::from_samples(&[1.0, 5.0, 9.0, 2.0]);
        assert_eq!(e.ks_distance(&e), 0.0);
    }

    #[test]
    fn ks_distance_disjoint_is_one() {
        let a = Empirical::from_samples(&[1.0, 2.0]);
        let b = Empirical::from_samples(&[10.0, 20.0]);
        assert!((a.ks_distance(&b) - 1.0).abs() < 1e-9);
        // symmetric
        assert!((b.ks_distance(&a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lln_convergence_to_parent() {
        // E9's core claim: ECDF of n samples from an exponential approaches
        // the exponential as n grows.
        let parent = Dist::Exponential { mean: 300.0 };
        let mut rng = StreamRng::new(7, 0);
        let draw = |rng: &mut StreamRng, n: usize| {
            let xs: Vec<f64> = (0..n).map(|_| parent.sample(rng) as f64).collect();
            Empirical::from_samples(&xs)
        };
        let reference = draw(&mut rng, 200_000);
        let small = draw(&mut rng, 100);
        let big = draw(&mut rng, 50_000);
        let d_small = small.ks_distance(&reference);
        let d_big = big.ks_distance(&reference);
        assert!(
            d_big < d_small,
            "expected convergence: small={d_small}, big={d_big}"
        );
        assert!(d_big < 0.02, "d_big={d_big}");
    }

    #[test]
    fn empirical_dist_via_dist_enum() {
        let e = Empirical::from_samples(&[500.0; 10]);
        let d = Dist::Empirical(e);
        let mut rng = StreamRng::new(3, 3);
        assert_eq!(d.sample(&mut rng), 500);
        assert_eq!(d.mean(), 500.0);
    }
}
