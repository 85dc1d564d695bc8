//! Numbers the benchmark computes itself: nearest-rank percentiles over
//! raw samples, fast-end (per-unit minimum) estimates, FNV-1a input
//! fingerprints, work-counter deltas and peak resident memory.
//!
//! No percentile here comes from a bucketed histogram: every one is a
//! rank in the sorted raw samples.

use std::collections::BTreeMap;

/// Nearest-rank percentile: the smallest sample with at least `q · n`
/// samples at or below it (`0 < q ≤ 1`). `sorted` must be ascending and
/// non-empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "percentile rank {q} outside (0, 1]");
    sorted[rank(sorted.len(), q) - 1]
}

/// How many of `n` samples lie beyond the nearest-rank `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The 1-based nearest rank `⌈q · n⌉` (at least 1, at most `n`). The
/// small slack keeps e.g. 0.99 · 100 (= 99.00000000000001 in f64) at
/// rank 99 instead of rounding up to 100.
fn rank(n: usize, q: f64) -> usize {
    (((q * n as f64) - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Sorts a copy of `values` ascending (all finite).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The fastest time seen so far for each of a fixed set of equal,
/// deterministic work units, across repeated passes. A unit's minimum
/// is its cost with the least interference from the host; summing the
/// minima estimates a pass from the fast end.
#[derive(Debug, Clone)]
pub struct FastEnd {
    best_ns: Vec<u64>,
}

impl FastEnd {
    /// `units` work units, none timed yet.
    pub fn new(units: usize) -> Self {
        FastEnd {
            best_ns: vec![u64::MAX; units],
        }
    }

    /// Records one timing of `unit`.
    pub fn record(&mut self, unit: usize, ns: u64) {
        let best = &mut self.best_ns[unit];
        *best = (*best).min(ns.max(1));
    }

    /// Sum of the per-unit minima, in seconds.
    pub fn total_s(&self) -> f64 {
        self.best_ns.iter().map(|&b| b as f64).sum::<f64>() / 1e9
    }

    /// Per-unit minima in milliseconds.
    pub fn unit_ms(&self) -> Vec<f64> {
        self.best_ns.iter().map(|&b| b as f64 / 1e6).collect()
    }
}

/// FNV-1a 64 over a byte stream, fed incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds `bytes`, then a 0 separator so concatenations differ.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0u8]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// splitmix64: derives well-spread per-item seeds from the workload seed.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The process-global work counters, by name.
pub fn counters() -> BTreeMap<String, u64> {
    qbss_telemetry::metrics().counter_values()
}

/// Adds `after − before` of every catalogued work counter into `acc`.
pub fn add_work_delta(
    acc: &mut BTreeMap<String, u64>,
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) {
    for name in qbss_core::work_counter_names() {
        let d = after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0);
        *acc.entry(name.to_string()).or_insert(0) += d;
    }
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one) in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_samples() {
        let one_to_hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&one_to_hundred, 0.50), 50.0);
        assert_eq!(nearest_rank(&one_to_hundred, 0.90), 90.0);
        assert_eq!(nearest_rank(&one_to_hundred, 0.99), 99.0);
        assert_eq!(nearest_rank(&one_to_hundred, 1.0), 100.0);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(1290, 0.99), 12);
        // Nearest rank picks a sample; it never interpolates.
        let five = [1.0, 2.0, 4.0, 8.0, 16.0];
        assert_eq!(nearest_rank(&five, 0.50), 4.0);
        assert_eq!(nearest_rank(&five, 0.10), 1.0);
        assert_eq!(nearest_rank(&five, 0.99), 16.0);
        assert_eq!(nearest_rank(&[7.5], 0.5), 7.5);
        let shuffled = sorted(&[3.0, 1.0, 2.0]);
        assert_eq!(shuffled, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn fast_end_keeps_each_units_minimum() {
        let mut f = FastEnd::new(2);
        f.record(0, 300);
        f.record(1, 500);
        f.record(0, 200);
        f.record(1, 900);
        assert_eq!(f.unit_ms(), vec![200.0 / 1e6, 500.0 / 1e6]);
        assert!((f.total_s() - 700e-9).abs() < 1e-15);
    }

    #[test]
    fn fnv_separates_concatenations() {
        let mut a = Fnv::default();
        a.eat(b"ab");
        a.eat(b"c");
        let mut b = Fnv::default();
        b.eat(b"a");
        b.eat(b"bc");
        assert_ne!(a.finish(), b.finish());
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
