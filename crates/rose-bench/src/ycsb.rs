//! YCSB workload generation.
//!
//! The overhead study (paper Table 2) drives a 3-node Redis cluster with
//! YCSB workload A: 50 % reads, 50 % updates, zipfian key popularity.

use rand::Rng;

/// YCSB workload parameters.
#[derive(Debug, Clone)]
pub struct YcsbConfig {
    /// Number of distinct keys.
    pub record_count: u64,
    /// Fraction of reads (workload A: 0.5).
    pub read_proportion: f64,
    /// Zipfian skew parameter (YCSB default: 0.99).
    pub theta: f64,
    /// Value payload size in bytes.
    pub value_size: usize,
}

impl YcsbConfig {
    /// Workload A: 50 % reads, 50 % updates.
    pub fn workload_a() -> Self {
        YcsbConfig {
            record_count: 1_000,
            read_proportion: 0.5,
            theta: 0.99,
            value_size: 100,
        }
    }
}

/// A Zipfian key sampler (the standard YCSB rejection-free method of
/// Gray et al., "Quickly generating billion-record synthetic databases").
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl ZipfSampler {
    /// Builds a sampler over `n` items with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is not in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipf over an empty domain");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1)");
        let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2: f64 = (1..=2.min(n)).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        ZipfSampler {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// Samples a key index in `[0, n)`, with index 0 the most popular.
    pub fn sample(&self, rng: &mut impl Rng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let k = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        k.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_is_skewed_towards_low_indexes() {
        let z = ZipfSampler::new(1_000, 0.99);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut head = 0u32;
        let samples = 20_000;
        for _ in 0..samples {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // With theta = 0.99 the top-10 keys draw a large share.
        let share = f64::from(head) / f64::from(samples);
        assert!(share > 0.3, "head share {share}");
        assert!(share < 0.9);
    }

    #[test]
    fn zipf_stays_in_range() {
        let z = ZipfSampler::new(50, 0.8);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..5_000 {
            assert!(z.sample(&mut rng) < 50);
        }
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn zipf_rejects_empty_domain() {
        let _ = ZipfSampler::new(0, 0.9);
    }
}
