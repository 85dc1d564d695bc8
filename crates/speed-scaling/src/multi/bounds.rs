//! Lower bounds on the multi-machine optimal energy.
//!
//! The exact multi-machine optimum (Albers–Antoniadis–Greiner's
//! flow-based algorithm) is outside the scope of the paper being
//! reproduced — its analysis of AVRQ(m) only ever compares against a
//! *lower bound* on OPT. We provide the two standard ones and take the
//! max; experiment ratios reported against them are conservative
//! over-estimates, so "measured ≤ proven bound" checks stay sound.
//!
//! 1. **Fluid bound**: allow work to be split across machines at will.
//!    By convexity the best fluid schedule balances every instant across
//!    all `m` machines, which is energy-equivalent to a single machine
//!    with power `m·(s/m)^α = s^α·m^{1−α}`; hence
//!    `OPT_m ≥ m^{1−α} · OPT_1`, with `OPT_1` the single-machine YDS
//!    energy of the same instance.
//! 2. **Per-job bound**: executions of distinct jobs are disjoint in
//!    (machine, time), and by convexity job `j` alone needs at least
//!    `(w_j/(d_j−r_j))^α · (d_j−r_j)`; summing over jobs is a valid
//!    lower bound.

use crate::job::Instance;
use crate::profile::SpeedProfile;
use crate::yds::yds_profile;

/// Fluid-relaxation lower bound `m^{1−α} · E_{YDS}(instance)`.
pub fn fluid_lower_bound(instance: &Instance, m: usize, alpha: f64) -> f64 {
    fluid_bound(&yds_profile(instance), m, alpha)
}

/// The fluid bound from the instance's YDS profile `opt`.
fn fluid_bound(opt: &SpeedProfile, m: usize, alpha: f64) -> f64 {
    assert!(m >= 1);
    (m as f64).powf(1.0 - alpha) * opt.energy(alpha)
}

/// Per-job convexity lower bound `Σ_j δ_j^α (d_j − r_j)`.
pub fn per_job_lower_bound(instance: &Instance, alpha: f64) -> f64 {
    instance
        .jobs
        .iter()
        .map(|j| j.density().powf(alpha) * (j.deadline - j.release))
        .sum()
}

/// The better (larger) of the two lower bounds.
pub fn opt_lower_bound(instance: &Instance, m: usize, alpha: f64) -> f64 {
    opt_lower_bound_from(instance, &yds_profile(instance), m, alpha)
}

/// [`opt_lower_bound`] for a caller that holds the instance's YDS
/// profile `opt` (a sweep's `OptCache`): the same bits, without
/// re-solving YDS.
pub fn opt_lower_bound_from(instance: &Instance, opt: &SpeedProfile, m: usize, alpha: f64) -> f64 {
    fluid_bound(opt, m, alpha).max(per_job_lower_bound(instance, alpha))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::multi::avr_m;

    #[test]
    fn fluid_bound_single_machine_is_yds() {
        let i = Instance::new(vec![Job::new(0, 0.0, 1.0, 2.0)]);
        let lb = fluid_lower_bound(&i, 1, 3.0);
        assert!((lb - 8.0).abs() < 1e-9);
    }

    #[test]
    fn per_job_bound_single_job_exact() {
        let i = Instance::new(vec![Job::new(0, 0.0, 2.0, 4.0)]);
        // δ = 2, window 2 → 2^3 · 2 = 16 = the true optimum.
        assert!((per_job_lower_bound(&i, 3.0) - 16.0).abs() < 1e-9);
    }

    #[test]
    fn bounds_never_exceed_feasible_schedules() {
        // AVR(m) is feasible, so each lower bound must sit below its
        // energy.
        let i = Instance::new(vec![
            Job::new(0, 0.0, 1.0, 2.0),
            Job::new(1, 0.0, 2.0, 2.0),
            Job::new(2, 1.0, 3.0, 3.0),
            Job::new(3, 0.5, 2.5, 1.0),
        ]);
        for &m in &[1usize, 2, 3] {
            for &alpha in &[2.0, 3.0] {
                let upper = avr_m(&i, m).energy(alpha);
                let lb = opt_lower_bound(&i, m, alpha);
                assert!(
                    lb <= upper * (1.0 + 1e-6),
                    "LB {lb} exceeds AVR(m) energy {upper} (m={m}, α={alpha})"
                );
            }
        }
    }

    #[test]
    fn per_job_beats_fluid_for_disjoint_tight_jobs() {
        // m jobs with disjoint unit windows: fluid spreads across
        // machines (m^{1-α} shrink) but per-job stays exact.
        let i = Instance::new(vec![
            Job::new(0, 0.0, 1.0, 2.0),
            Job::new(1, 1.0, 2.0, 2.0),
        ]);
        let alpha = 3.0;
        assert!(per_job_lower_bound(&i, alpha) > fluid_lower_bound(&i, 2, alpha));
    }

    #[test]
    fn fluid_beats_per_job_for_shared_window() {
        // Many jobs in one window: the single-machine optimum is
        // (Σw)^α·T while per-job only sums w_j^α.
        let i = Instance::new(vec![
            Job::new(0, 0.0, 1.0, 1.0),
            Job::new(1, 0.0, 1.0, 1.0),
            Job::new(2, 0.0, 1.0, 1.0),
            Job::new(3, 0.0, 1.0, 1.0),
        ]);
        let alpha = 3.0;
        assert!(fluid_lower_bound(&i, 2, alpha) > per_job_lower_bound(&i, alpha));
    }
}
