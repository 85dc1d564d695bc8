//! Per-job decisions and the reduction to classical jobs.
//!
//! A QBSS algorithm's answers — query or not, and where to split — are
//! recorded as [`Decision`]s. A decision vector turns the QBSS instance
//! into a *derived* classical instance: a queried job `(r, d, c, w, w*)`
//! with splitting point `τ` becomes the two classical jobs `(r, τ, c)`
//! and `(τ, d, w*)`; an unqueried job becomes `(r, d, w)`. Derived jobs
//! keep the original job's id, which is how the generic schedule checker
//! ties slices back to windows.

use rand::Rng;
use speed_scaling::job::{Instance, Job, JobId};
use speed_scaling::schedule::WorkRequirement;
use speed_scaling::time::{Interval, EPS};

use crate::error::ValidationError;
use crate::model::QbssInstance;
use crate::policy::Strategy;

/// The two answers for one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// The job the decision applies to.
    pub job: JobId,
    /// Whether the query is executed.
    pub queried: bool,
    /// Absolute splitting point `τ ∈ (r, d)`; `None` iff not queried.
    pub split: Option<f64>,
}

impl Decision {
    /// A "query, split at `tau`" decision.
    pub fn query(job: JobId, tau: f64) -> Self {
        Self { job, queried: true, split: Some(tau) }
    }

    /// A "no query" decision.
    pub fn no_query(job: JobId) -> Self {
        Self { job, queried: false, split: None }
    }
}

/// Applies `strategy` to every job of `inst` (in job order), consuming
/// randomness only for probabilistic rules.
pub fn decide_all<R: Rng + ?Sized>(
    inst: &QbssInstance,
    strategy: Strategy,
    rng: &mut R,
) -> Vec<Decision> {
    inst.jobs
        .iter()
        .map(|j| {
            if strategy.query.decide(j, rng) {
                Decision::query(j.id, strategy.split.split(j))
            } else {
                Decision::no_query(j.id)
            }
        })
        .collect()
}

/// Builds the derived classical instance for a decision vector,
/// reporting inconsistent decisions (unknown job, missing or
/// out-of-window split) as typed errors.
pub fn try_derived_instance(
    inst: &QbssInstance,
    decisions: &[Decision],
) -> Result<Instance, ValidationError> {
    let positions = inst.positions();
    let mut jobs = Vec::with_capacity(2 * decisions.len());
    for dec in decisions {
        let Some(j) = positions.get(&dec.job).map(|&pos| &inst.jobs[pos]) else {
            return Err(ValidationError::UnknownJob { job: dec.job });
        };
        if dec.queried {
            let Some(tau) = dec.split else {
                return Err(ValidationError::MissingSplit { job: j.id });
            };
            if !(tau > j.release + EPS && tau < j.deadline - EPS) {
                return Err(ValidationError::SplitOutsideWindow {
                    job: j.id,
                    tau,
                    release: j.release,
                    deadline: j.deadline,
                });
            }
            jobs.push(Job::new(j.id, j.release, tau, j.query_load));
            jobs.push(Job::new(j.id, tau, j.deadline, j.reveal_exact()));
        } else {
            jobs.push(Job::new(j.id, j.release, j.deadline, j.upper_bound));
        }
    }
    Ok(Instance::new(jobs))
}

/// Builds the derived classical instance for a decision vector.
///
/// Panics if a decision references an unknown job or has an invalid
/// split — use [`try_derived_instance`] for untrusted decision vectors.
pub fn derived_instance(inst: &QbssInstance, decisions: &[Decision]) -> Instance {
    try_derived_instance(inst, decisions).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible version of [`derived_requirements`].
pub fn try_derived_requirements(
    inst: &QbssInstance,
    decisions: &[Decision],
) -> Result<Vec<WorkRequirement>, ValidationError> {
    Ok(try_derived_instance(inst, decisions)?
        .jobs
        .iter()
        .map(|j| WorkRequirement::new(j.id, Interval::new(j.release, j.deadline), j.work))
        .collect())
}

/// The work requirements the final schedule must satisfy under a
/// decision vector (what [`crate::outcome::QbssOutcome::validate`]
/// checks against). Identical windows/works to [`derived_instance`].
pub fn derived_requirements(inst: &QbssInstance, decisions: &[Decision]) -> Vec<WorkRequirement> {
    try_derived_requirements(inst, decisions).unwrap_or_else(|e| panic!("{e}"))
}

/// Total load `p_j` executed under the decisions
/// (`c_j + w*_j` if queried, else `w_j`).
pub fn total_load(inst: &QbssInstance, decisions: &[Decision]) -> f64 {
    decisions
        .iter()
        .map(|d| {
            let j = inst.job(d.job).expect("decision for unknown job");
            if d.queried {
                j.query_load + j.reveal_exact()
            } else {
                j.upper_bound
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QJob;
    use crate::policy::{QueryRule, SplitRule, PHI};
    use rand::rngs::mock::StepRng;

    fn inst() -> QbssInstance {
        QbssInstance::new(vec![
            QJob::new(0, 0.0, 2.0, 0.5, 2.0, 0.5), // c·φ < w → queried by golden rule
            QJob::new(1, 0.0, 2.0, 1.9, 2.0, 0.1), // c·φ > w → not queried
        ])
    }

    #[test]
    fn golden_strategy_decisions() {
        let mut rng = StepRng::new(0, 1);
        let d = decide_all(&inst(), Strategy::golden_equal(), &mut rng);
        assert!(d[0].queried);
        assert_eq!(d[0].split, Some(1.0));
        assert!(!d[1].queried);
        assert_eq!(d[1].split, None);
    }

    #[test]
    fn derived_instance_structure() {
        let mut rng = StepRng::new(0, 1);
        let d = decide_all(&inst(), Strategy::golden_equal(), &mut rng);
        let ci = derived_instance(&inst(), &d);
        // Job 0 split into (0,1,c=0.5) and (1,2,w*=0.5); job 1 intact.
        assert_eq!(ci.jobs.len(), 3);
        assert_eq!(ci.jobs[0].deadline, 1.0);
        assert_eq!(ci.jobs[0].work, 0.5);
        assert_eq!(ci.jobs[1].release, 1.0);
        assert_eq!(ci.jobs[1].work, 0.5);
        assert_eq!(ci.jobs[2].work, 2.0);
    }

    #[test]
    fn requirements_match_derived() {
        let mut rng = StepRng::new(0, 1);
        let d = decide_all(&inst(), Strategy::golden_equal(), &mut rng);
        let reqs = derived_requirements(&inst(), &d);
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[0].id, 0);
        assert_eq!(reqs[2].id, 1);
        assert!((reqs[2].work - 2.0).abs() < 1e-12);
    }

    #[test]
    fn total_load_vs_phi_times_opt() {
        // Lemma 3.1 consequence: golden-rule load ≤ φ · Σ p*.
        let i = inst();
        let mut rng = StepRng::new(0, 1);
        let d = decide_all(&i, Strategy::golden_equal(), &mut rng);
        let load = total_load(&i, &d);
        let opt_load: f64 = i.jobs.iter().map(|j| j.p_star()).sum();
        assert!(load <= PHI * opt_load + 1e-9);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bad_split_detected() {
        let i = inst();
        let d = vec![Decision::query(0, 5.0), Decision::no_query(1)];
        let _ = derived_instance(&i, &d);
    }

    #[test]
    fn try_derived_instance_reports_typed_errors() {
        let i = inst();
        let bad_split = vec![Decision::query(0, 5.0), Decision::no_query(1)];
        assert!(matches!(
            try_derived_instance(&i, &bad_split),
            Err(ValidationError::SplitOutsideWindow { job: 0, .. })
        ));
        let unknown = vec![Decision::no_query(7), Decision::no_query(1)];
        assert!(matches!(
            try_derived_instance(&i, &unknown),
            Err(ValidationError::UnknownJob { job: 7 })
        ));
        let no_split = vec![Decision { job: 0, queried: true, split: None }];
        assert!(matches!(
            try_derived_instance(&i, &no_split),
            Err(ValidationError::MissingSplit { job: 0 })
        ));
    }

    #[test]
    fn fraction_split_strategy() {
        let mut rng = StepRng::new(0, 1);
        let s = Strategy { query: QueryRule::Always, split: SplitRule::Fraction(0.25) };
        let d = decide_all(&inst(), s, &mut rng);
        assert_eq!(d[0].split, Some(0.5));
        assert_eq!(d[1].split, Some(0.5));
    }
}
