//! The box-speed gauge.
//!
//! On the shared 2-core box this benchmark was defined on, identical
//! single-threaded work takes ±20 % more or less wall *and* CPU time from
//! one stretch of seconds to the next (README, "Noise"), far more than the
//! changes the benchmark has to resolve. The drift is machine-wide: a fixed
//! loop of std-only code slows down and speeds up with the workload
//! (correlation 0.9 over 5–15 s windows). So the runner times that loop —
//! the *calibration unit* — in short bursts between the steps of every
//! pass, and divides each step's time by the slowdown the bursts around it
//! show. Times are then reported in seconds of this box at its reference
//! speed, at which one unit takes [`REFERENCE_UNIT_S`].
//!
//! The unit shares no code with the crates under `crates/`, so no change to
//! them can move it.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::median;

/// Seconds one calibration unit takes at reference speed: about the median
/// over the hours the benchmark was defined in, on the box it was defined on
/// (8.6 ms in its calmest stretches, 14 ms in its slowest). Any constant
/// would do — it scales every time metric alike.
pub const REFERENCE_UNIT_S: f64 = 0.011;

/// One calibration unit: ordered-map churn with small allocations, the
/// kind of work the simulator does, sized to run for about ten milliseconds.
pub fn unit() -> u64 {
    let mut map: BTreeMap<u64, String> = BTreeMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut acc = 0u64;
    for i in 0..30_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % 20_000;
        if let Some(v) = map.get(&key) {
            acc += v.len() as u64;
        }
        map.insert(key, format!("value-{i}-{key}"));
        if i % 3 == 0 {
            map.remove(&(x % 20_000));
        }
    }
    acc + map.len() as u64
}

/// Bursts of timed calibration units, one burst per step boundary.
#[derive(Debug, Default)]
pub struct Gauge {
    /// Seconds per unit, burst by burst.
    bursts: Vec<Vec<f64>>,
}

impl Gauge {
    /// Times `n` units back to back as the next burst.
    pub fn burst(&mut self, n: usize) {
        let samples = (0..n.max(1))
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(unit());
                t0.elapsed().as_secs_f64()
            })
            .collect();
        self.bursts.push(samples);
    }

    fn slowdown(samples: &[f64]) -> f64 {
        if samples.is_empty() {
            1.0
        } else {
            median(samples) / REFERENCE_UNIT_S
        }
    }

    /// How much slower than reference the box ran during step `i`, judged
    /// by the bursts before and after it (bursts `i` and `i + 1`).
    pub fn slowdown_during(&self, i: usize) -> f64 {
        let around: Vec<f64> = self
            .bursts
            .iter()
            .skip(i)
            .take(2)
            .flatten()
            .copied()
            .collect();
        Gauge::slowdown(&around)
    }

    /// The slowdown over every burst taken.
    pub fn slowdown_overall(&self) -> f64 {
        let all: Vec<f64> = self.bursts.iter().flatten().copied().collect();
        Gauge::slowdown(&all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_is_deterministic() {
        assert_eq!(unit(), unit());
    }

    #[test]
    fn slowdown_uses_the_bursts_around_a_step() {
        let unit = REFERENCE_UNIT_S;
        let gauge = Gauge {
            bursts: vec![vec![unit], vec![unit * 3.0], vec![unit * 5.0]],
        };
        assert!((gauge.slowdown_during(0) - 2.0).abs() < 1e-9);
        assert!((gauge.slowdown_during(1) - 4.0).abs() < 1e-9);
        assert!((gauge.slowdown_overall() - 3.0).abs() < 1e-9);
        assert_eq!(Gauge::default().slowdown_during(0), 1.0);
    }
}
