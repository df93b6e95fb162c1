//! Order statistics and the process/machine readings the benchmark reports.

use serde::{Deserialize, Serialize};

/// SplitMix64 step. The benchmark derives every input seed with its own
/// copy, so a change to the product's hash functions cannot shift the
/// generated inputs.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), so the spread printed here is the
/// one the acceptance rule measures. A sample of one has no spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// The highest percentile that still has at least ten samples beyond it,
/// with its value; `None` below 20 samples (only the median is reported).
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 20 {
        return None;
    }
    let idx = n - 11;
    Some((100.0 * idx as f64 / n as f64, v[idx]))
}

/// Summary of one timing sample set.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// Quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// User + system CPU seconds of this process, exited threads included.
/// `/proc/self/stat` counts in `USER_HZ` ticks, 100 per second on Linux.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, i.e. the 12th and 13th after ") ".
    let Some(close) = stat.rfind(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine a result set was measured on.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Machine {
    pub nproc: usize,
    pub rustc: String,
    pub git_sha: String,
    pub loadavg_at_start: String,
    pub thp: String,
}

impl Machine {
    pub fn capture() -> Self {
        let meta = rose_obs::MetaStats::capture();
        let read = |p: &str| {
            std::fs::read_to_string(p)
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".into())
        };
        let git_sha = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
        Machine {
            nproc: meta.cores,
            rustc: meta.rustc,
            git_sha,
            loadavg_at_start: read("/proc/loadavg"),
            thp: read("/sys/kernel/mm/transparent_hugepage/enabled"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert!(tail_percentile(&[1.0; 19]).is_none());
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let (p, x) = tail_percentile(&v).unwrap();
        assert_eq!((p, x), (89.0, 89.0));
        assert_eq!(v.iter().filter(|s| **s > x).count(), 10);
    }

    #[test]
    fn process_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
