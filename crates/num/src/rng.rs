//! Gaussian sampling and seeded-RNG conveniences.
//!
//! All Monte-Carlo code in the workspace draws its noise through this module
//! so that (a) experiments are reproducible from a single `u64` seed and (b)
//! we avoid a dependency on `rand_distr` for one distribution.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A Box–Muller standard-normal sampler that caches the second variate.
///
/// ```
/// use wi_num::rng::{seeded_rng, Gaussian};
/// let mut rng = seeded_rng(42);
/// let mut gauss = Gaussian::new();
/// let x: f64 = gauss.sample(&mut rng);
/// assert!(x.is_finite());
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Gaussian {
    cached: Option<f64>,
}

impl Gaussian {
    /// Creates a sampler with an empty cache.
    pub fn new() -> Self {
        Gaussian { cached: None }
    }

    /// Draws one standard-normal variate.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(z) = self.cached.take() {
            return z;
        }
        // Box–Muller: u1 in (0,1] to avoid log(0).
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.cached = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Draws a normal variate with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    pub fn sample_with<R: Rng + ?Sized>(&mut self, rng: &mut R, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "negative standard deviation: {std_dev}");
        mean + std_dev * self.sample(rng)
    }

    /// Fills `out` with iid `N(0, std_dev²)` samples.
    pub fn fill<R: Rng + ?Sized>(&mut self, rng: &mut R, std_dev: f64, out: &mut [f64]) {
        for v in out {
            *v = self.sample_with(rng, 0.0, std_dev);
        }
    }
}

/// Creates a deterministic [`StdRng`] from a `u64` seed.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// SplitMix64's output finalizer: a bijective avalanche of `z`, so that
/// nearby inputs map to unrelated outputs. Every seed-derivation and
/// pure hash in the workspace (this module's [`derive_seed`], the NoC
/// route-choice and intermediate hashes, the DES fault hashes) mixes
/// through it.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a child seed from a base seed and a stream index using
/// SplitMix64-style mixing ([`mix64`]), so that parallel experiment arms
/// get independent streams from one master seed.
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    mix64(base.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Running;

    #[test]
    fn moments_are_standard_normal() {
        let mut rng = seeded_rng(7);
        let mut g = Gaussian::new();
        let mut acc = Running::new();
        for _ in 0..200_000 {
            acc.push(g.sample(&mut rng));
        }
        assert!(acc.mean().abs() < 0.01, "mean {}", acc.mean());
        assert!(
            (acc.sample_variance() - 1.0).abs() < 0.02,
            "var {}",
            acc.sample_variance()
        );
    }

    #[test]
    fn tail_mass_roughly_gaussian() {
        let mut rng = seeded_rng(11);
        let mut g = Gaussian::new();
        let n = 100_000;
        let beyond_2: usize = (0..n).filter(|_| g.sample(&mut rng).abs() > 2.0).count();
        let frac = beyond_2 as f64 / n as f64;
        // True value 2·Q(2) ≈ 0.0455.
        assert!((frac - 0.0455).abs() < 0.005, "frac {frac}");
    }

    #[test]
    fn seeding_is_deterministic() {
        let mut a = seeded_rng(99);
        let mut b = seeded_rng(99);
        let mut ga = Gaussian::new();
        let mut gb = Gaussian::new();
        for _ in 0..100 {
            assert_eq!(ga.sample(&mut a), gb.sample(&mut b));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(2);
        let mut g = Gaussian::new();
        let mut h = Gaussian::new();
        let xa: Vec<f64> = (0..8).map(|_| g.sample(&mut a)).collect();
        let xb: Vec<f64> = (0..8).map(|_| h.sample(&mut b)).collect();
        assert_ne!(xa, xb);
    }

    #[test]
    fn derive_seed_spreads_streams() {
        let s0 = derive_seed(42, 0);
        let s1 = derive_seed(42, 1);
        let s2 = derive_seed(43, 0);
        assert_ne!(s0, s1);
        assert_ne!(s0, s2);
        // Stable across calls.
        assert_eq!(s0, derive_seed(42, 0));
    }

    #[test]
    fn derive_seed_is_pinned() {
        // Literal values: sweep replication seeds, the BER simulation's frame
        // streams and every cached result keyed by them depend on these.
        assert_eq!(derive_seed(0, 0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(derive_seed(42, 1), 0x28ef_e333_b266_f103);
        assert_eq!(derive_seed(0xDE5, 7), 0x766d_79e5_ef54_3979);
        assert_eq!(derive_seed(u64::MAX, 12345), 0x33ae_a165_8ba2_d28a);
    }

    #[test]
    fn fill_has_requested_scale() {
        let mut rng = seeded_rng(5);
        let mut g = Gaussian::new();
        let mut buf = vec![0.0; 50_000];
        g.fill(&mut rng, 3.0, &mut buf);
        let var = crate::stats::variance(&buf);
        assert!((var - 9.0).abs() < 0.3, "var {var}");
    }

    #[test]
    #[should_panic(expected = "negative standard deviation")]
    fn negative_std_dev_panics() {
        let mut rng = seeded_rng(1);
        let mut g = Gaussian::new();
        let _ = g.sample_with(&mut rng, 0.0, -1.0);
    }
}
