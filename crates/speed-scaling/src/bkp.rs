//! The BKP online algorithm (Bansal, Kimbrel, Pruhs 2007).
//!
//! At any time `t` BKP runs at speed
//! `s^{BKP}(t) = e · max_{t1 < t ≤ t2} w(t, t1, t2) / (t2 − t1)`,
//! where `w(t, t1, t2)` is the total work of jobs that have **arrived by
//! `t`**, have release `≥ t1` and deadline `≤ t2`; it executes the
//! released unfinished job with the earliest deadline. BKP is
//! `2(α/(α−1))^α e^α`-competitive for energy and `e`-competitive for
//! maximum speed (best possible for deterministic online algorithms).
//!
//! The inner maximum over real `(t1, t2)` is attained with `t1` at a
//! release time and `t2` at a deadline of an arrived job: shrinking the
//! window to the tightest one containing the same job set can only
//! increase the ratio. Between two consecutive event times the arrived
//! set — and hence the maximum — is constant, so the profile is exact on
//! the event grid.

use crate::edf::{edf_schedule, EdfInfeasible, EdfTask};
use crate::job::Instance;
use crate::profile::SpeedProfile;
use crate::schedule::Schedule;
use crate::stream::{intensity_over, release_ordered, BkpStream};
use crate::time::EPS;

/// Output of [`bkp`].
#[derive(Debug, Clone)]
pub struct BkpResult {
    /// The BKP speed profile.
    pub profile: SpeedProfile,
    /// Explicit EDF schedule under that profile.
    pub schedule: Schedule,
}

impl BkpResult {
    /// Energy consumed by BKP at exponent `alpha`.
    pub fn energy(&self, alpha: f64) -> f64 {
        self.profile.energy(alpha)
    }

    /// Maximum speed used by BKP.
    pub fn max_speed(&self) -> f64 {
        self.profile.max_speed()
    }
}

/// The *intensity seen at time `t`*:
/// `max_{t1 < t ≤ t2} w(t, t1, t2)/(t2 − t1)` — BKP's speed is `e` times
/// this. Exposed separately because the QBSS analysis (Theorem 5.4)
/// reasons about this quantity directly.
pub fn bkp_intensity_at(instance: &Instance, t: f64) -> f64 {
    // Candidate t1: release times (strictly below t); candidate t2:
    // deadlines (at or above t). Only jobs arrived by t count; the sweep
    // itself is `stream::intensity_over`, one sort and one running sum per
    // release below t, O(k log k + r·k) for k arrived jobs and r releases.
    let arrived: Vec<crate::job::Job> =
        instance.jobs.iter().copied().filter(|j| j.release <= t + EPS).collect();
    intensity_over(&arrived, t)
}

/// The BKP speed profile of `instance` (`e` times the running intensity).
pub fn bkp_profile(instance: &Instance) -> SpeedProfile {
    if instance.is_empty() {
        return SpeedProfile::zero();
    }
    qbss_telemetry::counter!("bkp.solves").inc();
    let _span = qbss_telemetry::span!("bkp.solve", { jobs = instance.jobs.len() });
    let mut stream = BkpStream::new();
    for job in release_ordered(instance) {
        stream.on_arrival(job);
    }
    stream.finish()
}

/// Runs BKP: profile plus explicit EDF schedule.
///
/// In exact arithmetic EDF cannot miss a deadline here. The profile is
/// at least Bansal, Kimbrel and Pruhs's BKP speed at every instant
/// (their window `(e·t − (e−1)·t2, t2]` is one of the windows maximised
/// over), under which every job completes, and EDF meets every deadline
/// under any profile that admits a feasible schedule. In `f64` the
/// profile and EDF's work sums round, so an `Err` reports a rounding
/// shortfall beyond EDF's tolerance: a numerical fault, not an
/// infeasible instance.
pub fn bkp(instance: &Instance) -> Result<BkpResult, EdfInfeasible> {
    let profile = bkp_profile(instance);
    let schedule = edf_schedule(&EdfTask::from_instance(instance), &profile, 0)?;
    Ok(BkpResult { profile, schedule })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::yds::yds_profile;
    use std::f64::consts::E;

    #[test]
    fn single_job_intensity() {
        let i = Instance::new(vec![Job::new(0, 0.0, 2.0, 4.0)]);
        // Inside the window the tightest interval is (0, 2] → density 2.
        assert!((bkp_intensity_at(&i, 1.0) - 2.0).abs() < 1e-9);
        let p = bkp_profile(&i);
        assert!((p.speed_at(1.0) - E * 2.0).abs() < 1e-9);
    }

    #[test]
    fn intensity_ignores_future_jobs() {
        let i = Instance::new(vec![
            Job::new(0, 0.0, 4.0, 4.0),
            Job::new(1, 2.0, 3.0, 10.0),
        ]);
        // Before the heavy job arrives, only job 0's intensity counts.
        assert!((bkp_intensity_at(&i, 1.0) - 1.0).abs() < 1e-9);
        // After its arrival the tight window (2,3] dominates.
        assert!(bkp_intensity_at(&i, 2.5) >= 10.0 - 1e-9);
    }

    #[test]
    fn bkp_schedule_valid() {
        let i = Instance::new(vec![
            Job::new(0, 0.0, 3.0, 3.0),
            Job::new(1, 1.0, 2.0, 1.0),
            Job::new(2, 1.5, 5.0, 2.0),
        ]);
        let r = bkp(&i).expect("EDF meets every deadline");
        assert!(r.schedule.check(&Schedule::requirements_of(&i)).is_ok());
    }

    #[test]
    fn bkp_dominates_intensity_hence_feasible() {
        // The profile must always be at least the critical intensity of
        // the full instance once everything has arrived.
        let i = Instance::new(vec![
            Job::new(0, 0.0, 1.0, 2.0),
            Job::new(1, 0.0, 2.0, 1.0),
        ]);
        let p = bkp_profile(&i);
        assert!(p.speed_at(0.5) >= 3.0 - 1e-9); // e·max(2, 3/2) ≥ 3
    }

    #[test]
    fn bkp_energy_within_bound() {
        let i = Instance::new(vec![
            Job::new(0, 0.0, 4.0, 2.0),
            Job::new(1, 1.0, 2.0, 2.0),
            Job::new(2, 2.5, 5.0, 3.0),
        ]);
        for &alpha in &[2.0, 3.0] {
            let opt = yds_profile(&i).energy(alpha);
            let e = bkp_profile(&i).energy(alpha);
            let bound = 2.0 * (alpha / (alpha - 1.0)).powf(alpha) * E.powf(alpha);
            assert!(e + 1e-9 >= opt);
            assert!(e <= bound * opt * (1.0 + 1e-6), "α={alpha}: {e} vs {} · {opt}", bound);
        }
    }

    #[test]
    fn bkp_max_speed_within_e_of_opt() {
        let i = Instance::new(vec![
            Job::new(0, 0.0, 2.0, 2.0),
            Job::new(1, 0.5, 1.5, 1.0),
        ]);
        let opt_speed = yds_profile(&i).max_speed();
        let s = bkp_profile(&i).max_speed();
        assert!(s <= E * opt_speed * (1.0 + 1e-6));
    }

    #[test]
    fn empty_instance() {
        assert_eq!(bkp_profile(&Instance::default()).max_speed(), 0.0);
    }
}
