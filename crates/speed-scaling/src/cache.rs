//! Cacheable optimal-profile handles.
//!
//! The YDS profile is the expensive substrate every ratio experiment
//! leans on: computing it is `O(n³)` in the worst case (its scan count
//! fits about `n^2.0` on the online family) while evaluating its energy
//! at one `α` is a linear scan over its segments. Ensemble sweeps ask for the
//! same instance's optimum once per *(algorithm, α)* cell, so the naive
//! [`crate::yds::optimal_energy`] path recomputes the profile dozens of
//! times per instance. [`OptCache`] computes the profile once and
//! memoizes the per-`α` energies behind it; it is `Sync`, so one handle
//! can be shared across the shards of a parallel sweep.
//!
//! Determinism contract: a memoized energy is byte-identical to the
//! value a cold [`crate::yds::optimal_energy`] call produces, because it
//! is the *same* `profile.energy(α)` evaluation over the same profile —
//! memoization only skips the profile reconstruction, never changes the
//! arithmetic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::job::Instance;
use crate::profile::SpeedProfile;
use crate::yds::yds_profile;

/// A memoized view of an instance's optimal (YDS) speed profile.
///
/// `energy(α)` results are cached keyed by the exact bit pattern of
/// `α`; `max_speed` is computed once at construction. Cache traffic is
/// counted so harnesses can report hit rates.
#[derive(Debug)]
pub struct OptCache {
    profile: SpeedProfile,
    max_speed: f64,
    /// `(α bits, energy)` pairs; sweeps use a handful of distinct α
    /// values, so a flat vec beats a hash map here.
    energies: Mutex<Vec<(u64, f64)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl OptCache {
    /// Runs YDS once on `instance` and wraps the profile.
    pub fn new(instance: &Instance) -> Self {
        let profile = yds_profile(instance);
        let max_speed = profile.max_speed();
        Self {
            profile,
            max_speed,
            energies: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The cached optimal profile.
    pub fn profile(&self) -> &SpeedProfile {
        &self.profile
    }

    /// Optimal energy at exponent `alpha`, memoized per `alpha` bit
    /// pattern. Bit-identical to `yds_profile(inst).energy(alpha)`.
    pub fn energy(&self, alpha: f64) -> f64 {
        let key = alpha.to_bits();
        let mut memo = self.energies.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(&(_, e)) = memo.iter().find(|&&(k, _)| k == key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            qbss_telemetry::counter!("cache.opt_energy.hits").inc();
            return e;
        }
        let e = self.profile.energy(alpha);
        memo.push((key, e));
        self.misses.fetch_add(1, Ordering::Relaxed);
        qbss_telemetry::counter!("cache.opt_energy.misses").inc();
        e
    }

    /// Optimal maximum speed (computed once at construction).
    pub fn max_speed(&self) -> f64 {
        self.max_speed
    }

    /// `(hits, misses)` of the per-`α` energy memo so far.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::yds::{optimal_energy, optimal_max_speed};

    fn instance() -> Instance {
        Instance::new(vec![
            Job::new(0, 0.0, 4.0, 4.0),
            Job::new(1, 1.0, 2.0, 3.0),
            Job::new(2, 3.0, 6.0, 2.0),
        ])
    }

    #[test]
    fn memoized_energy_is_bit_identical_to_cold_path() {
        let inst = instance();
        let cache = OptCache::new(&inst);
        for &alpha in &[1.5, 2.0, 2.5, 3.0] {
            let cold = optimal_energy(&inst, alpha);
            assert_eq!(cache.energy(alpha).to_bits(), cold.to_bits(), "alpha {alpha}");
            // Second read is a hit and returns the same bits.
            assert_eq!(cache.energy(alpha).to_bits(), cold.to_bits());
        }
        assert_eq!(cache.max_speed().to_bits(), optimal_max_speed(&inst).to_bits());
        let (hits, misses) = cache.counters();
        assert_eq!((hits, misses), (4, 4));
    }

    #[test]
    fn shared_across_threads() {
        let inst = instance();
        let cache = OptCache::new(&inst);
        let expect = optimal_energy(&inst, 3.0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| assert_eq!(cache.energy(3.0).to_bits(), expect.to_bits()));
            }
        });
        let (hits, misses) = cache.counters();
        assert_eq!(hits + misses, 4);
        assert!(misses >= 1);
    }

    #[test]
    fn empty_instance_is_zero() {
        let cache = OptCache::new(&Instance::default());
        assert_eq!(cache.max_speed(), 0.0);
        assert_eq!(cache.energy(3.0), 0.0);
    }
}
