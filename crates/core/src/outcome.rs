//! Algorithm outcomes and their validation.
//!
//! Every QBSS algorithm returns a [`QbssOutcome`]: the decisions it took
//! and the explicit (possibly multi-machine) schedule it produced.
//! [`QbssOutcome::validate`] is the single trust anchor of the whole
//! workspace: it re-derives the work requirements from the decisions and
//! runs the generic schedule checker, which structurally enforces the
//! information model — a job's exact work `w*` can only be scheduled
//! inside `(τ_j, d_j]`, i.e. strictly after its query window, so no
//! algorithm can act on `w*` before having "paid" for the query.
//!
//! Validation failures are reported as typed [`ValidationError`]s in
//! the style of [`speed_scaling::schedule::ScheduleError`].

use speed_scaling::schedule::Schedule;
use speed_scaling::time::EPS;

use crate::decision::{derived_requirements, Decision};
use crate::error::ValidationError;
use crate::model::QbssInstance;

/// The result of running a QBSS algorithm on an instance.
#[derive(Debug, Clone)]
pub struct QbssOutcome {
    /// Name of the producing algorithm (for reports).
    pub algorithm: String,
    /// Per-job decisions, one per instance job.
    pub decisions: Vec<Decision>,
    /// The explicit schedule.
    pub schedule: Schedule,
}

impl QbssOutcome {
    /// Energy of the schedule at exponent `alpha`, recomputed from the
    /// slices (never self-reported).
    pub fn energy(&self, alpha: f64) -> f64 {
        self.schedule.energy(alpha)
    }

    /// Maximum speed over all machines and times.
    pub fn max_speed(&self) -> f64 {
        self.schedule.max_speed()
    }

    /// `E_ALG / E_OPT` against the clairvoyant YDS optimum.
    pub fn energy_ratio(&self, inst: &QbssInstance, alpha: f64) -> f64 {
        let opt = inst.opt_energy(alpha);
        if opt <= 0.0 {
            return 1.0;
        }
        self.energy(alpha) / opt
    }

    /// `s_ALG / s_OPT` against the clairvoyant optimal maximum speed.
    pub fn speed_ratio(&self, inst: &QbssInstance) -> f64 {
        let opt = inst.opt_max_speed();
        if opt <= 0.0 {
            return 1.0;
        }
        self.max_speed() / opt
    }

    /// Full validation: decision sanity plus the structural schedule
    /// check described in the module docs.
    ///
    /// The decision checks run *before* the work requirements are
    /// derived, so this never panics — even on outcomes whose decisions
    /// are inconsistent with the instance.
    pub fn validate(&self, inst: &QbssInstance) -> Result<(), ValidationError> {
        if self.decisions.len() != inst.len() {
            return Err(ValidationError::DecisionCount {
                got: self.decisions.len(),
                expected: inst.len(),
            });
        }
        let positions = inst.positions();
        let mut seen: Vec<bool> = vec![false; inst.len()];
        for dec in &self.decisions {
            let Some(&pos) = positions.get(&dec.job) else {
                return Err(ValidationError::UnknownJob { job: dec.job });
            };
            if seen[pos] {
                return Err(ValidationError::DuplicateDecision { job: dec.job });
            }
            seen[pos] = true;
            let j = &inst.jobs[pos];
            match (dec.queried, dec.split) {
                (true, Some(tau)) => {
                    if !(tau > j.release + EPS && tau < j.deadline - EPS) {
                        return Err(ValidationError::SplitOutsideWindow {
                            job: j.id,
                            tau,
                            release: j.release,
                            deadline: j.deadline,
                        });
                    }
                }
                (true, None) => return Err(ValidationError::MissingSplit { job: j.id }),
                (false, Some(_)) => {
                    return Err(ValidationError::UnexpectedSplit { job: j.id })
                }
                (false, None) => {}
            }
        }
        let reqs = derived_requirements(inst, &self.decisions);
        self.schedule.check(&reqs).map_err(ValidationError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QJob;
    use speed_scaling::schedule::Slice;

    fn single_job_instance() -> QbssInstance {
        QbssInstance::new(vec![QJob::new(0, 0.0, 2.0, 1.0, 3.0, 1.0)])
    }

    fn slice(job: u32, start: f64, end: f64, speed: f64) -> Slice {
        Slice { job, machine: 0, start, end, speed }
    }

    #[test]
    fn valid_queried_outcome() {
        let inst = single_job_instance();
        let mut schedule = Schedule::empty(1);
        schedule.push(slice(0, 0.0, 1.0, 1.0)); // query c = 1 in (0,1]
        schedule.push(slice(0, 1.0, 2.0, 1.0)); // w* = 1 in (1,2]
        let out = QbssOutcome {
            algorithm: "test".into(),
            decisions: vec![Decision::query(0, 1.0)],
            schedule,
        };
        assert!(out.validate(&inst).is_ok());
        assert!((out.energy(3.0) - 2.0).abs() < 1e-9);
        assert!((out.max_speed() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn exact_work_before_query_rejected() {
        // Scheduling w* inside the query window violates the
        // information model and must be caught.
        let inst = single_job_instance();
        let mut schedule = Schedule::empty(1);
        schedule.push(slice(0, 0.0, 1.0, 2.0)); // 2 units in (0,1]: c + part of w*
        let out = QbssOutcome {
            algorithm: "cheater".into(),
            decisions: vec![Decision::query(0, 1.0)],
            schedule,
        };
        assert!(matches!(out.validate(&inst), Err(ValidationError::Schedule(_))));
    }

    #[test]
    fn unqueried_outcome_must_run_upper_bound() {
        let inst = single_job_instance();
        let mut schedule = Schedule::empty(1);
        schedule.push(slice(0, 0.0, 2.0, 1.5)); // 3 units = w ✓
        let out = QbssOutcome {
            algorithm: "test".into(),
            decisions: vec![Decision::no_query(0)],
            schedule,
        };
        assert!(out.validate(&inst).is_ok());

        // Running only w* without having queried is cheating.
        let mut cheat = Schedule::empty(1);
        cheat.push(slice(0, 0.0, 2.0, 0.5)); // 1 unit = w* ✗
        let out = QbssOutcome {
            algorithm: "cheater".into(),
            decisions: vec![Decision::no_query(0)],
            schedule: cheat,
        };
        assert!(out.validate(&inst).is_err());
    }

    #[test]
    fn decision_bookkeeping_errors() {
        let inst = single_job_instance();
        let out = QbssOutcome {
            algorithm: "test".into(),
            decisions: vec![],
            schedule: Schedule::empty(1),
        };
        let err = out.validate(&inst).unwrap_err();
        assert!(err.to_string().contains("0 decisions"));
        assert!(matches!(err, ValidationError::DecisionCount { got: 0, expected: 1 }));

        let out = QbssOutcome {
            algorithm: "test".into(),
            decisions: vec![Decision { job: 0, queried: true, split: None }],
            schedule: Schedule::empty(1),
        };
        let err = out.validate(&inst).unwrap_err();
        assert!(err.to_string().contains("without split"));
        assert!(matches!(err, ValidationError::MissingSplit { job: 0 }));

        let out = QbssOutcome {
            algorithm: "test".into(),
            decisions: vec![Decision { job: 0, queried: false, split: Some(1.0) }],
            schedule: Schedule::empty(1),
        };
        let err = out.validate(&inst).unwrap_err();
        assert!(err.to_string().contains("unqueried"));
        assert!(matches!(err, ValidationError::UnexpectedSplit { job: 0 }));
    }

    #[test]
    fn inconsistent_decisions_are_errors_not_panics() {
        let inst = single_job_instance();
        // Unknown job id in the decision list.
        let out = QbssOutcome {
            algorithm: "test".into(),
            decisions: vec![Decision::no_query(42)],
            schedule: Schedule::empty(1),
        };
        assert!(matches!(
            out.validate(&inst),
            Err(ValidationError::UnknownJob { job: 42 })
        ));
        // Split outside the open window.
        let out = QbssOutcome {
            algorithm: "test".into(),
            decisions: vec![Decision::query(0, 5.0)],
            schedule: Schedule::empty(1),
        };
        assert!(matches!(
            out.validate(&inst),
            Err(ValidationError::SplitOutsideWindow { job: 0, .. })
        ));
    }

    #[test]
    fn ratios_against_clairvoyant() {
        // p* = min(3, 1+1) = 2 over (0,2] → OPT speed 1, energy 2 (α=3).
        let inst = single_job_instance();
        let mut schedule = Schedule::empty(1);
        schedule.push(slice(0, 0.0, 1.0, 1.0));
        schedule.push(slice(0, 1.0, 2.0, 1.0));
        let out = QbssOutcome {
            algorithm: "test".into(),
            decisions: vec![Decision::query(0, 1.0)],
            schedule,
        };
        // ALG executes exactly p* at the optimal constant speed: ratio 1.
        assert!((out.energy_ratio(&inst, 3.0) - 1.0).abs() < 1e-9);
        assert!((out.speed_ratio(&inst) - 1.0).abs() < 1e-9);
    }
}
