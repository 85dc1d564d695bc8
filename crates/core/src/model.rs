//! The Query-Based Speed-Scaling (QBSS) job model.
//!
//! Each job is the quintuple `(r_j, d_j, c_j, w_j, w*_j)` of the paper:
//! release, deadline, query load, upper-bound workload and *exact*
//! (compressed) workload. The exact load is information-hidden: it is
//! stored in a private field and algorithms are expected to read it only
//! through [`QJob::reveal_exact`] *after* scheduling the query — a
//! contract that [`crate::outcome::QbssOutcome::validate`] enforces
//! structurally (the exact work must be scheduled strictly after the
//! query window).
//!
//! Construction is fallible: [`QJob::try_new`] returns a typed
//! [`ModelError`] on any constraint violation; [`QJob::new`] is the
//! panicking convenience wrapper for literals in tests and examples.
//! Untrusted jobs (parsers, fault injectors) are built with
//! [`QJob::new_unchecked`] and funneled through
//! [`QbssInstance::validate`].

use std::collections::HashMap;

use speed_scaling::job::{Instance, Job, JobId};
use speed_scaling::time::{Interval, EPS};

use crate::error::{ModelError, MAX_MAGNITUDE, MIN_MAGNITUDE};

/// A QBSS job `(r, d, c, w, w*)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QJob {
    /// Stable identifier, unique within a [`QbssInstance`].
    pub id: JobId,
    /// Release time `r_j`.
    pub release: f64,
    /// Deadline `d_j`.
    pub deadline: f64,
    /// Query load `c_j ∈ (0, w_j]`.
    pub query_load: f64,
    /// Upper-bound workload `w_j` (executed in full if no query is made).
    pub upper_bound: f64,
    /// Exact workload `w*_j ≤ w_j`. Private: algorithms must not branch
    /// on it before the query completes (see module docs).
    exact: f64,
}

impl QJob {
    /// Creates a job, validating the model constraints
    /// `0 < c ≤ w`, `0 ≤ w* ≤ w`, `r < d`, all fields finite and of
    /// sane magnitude.
    pub fn try_new(
        id: JobId,
        release: f64,
        deadline: f64,
        query_load: f64,
        upper_bound: f64,
        exact: f64,
    ) -> Result<Self, ModelError> {
        let j = Self { id, release, deadline, query_load, upper_bound, exact };
        j.validate()?;
        Ok(j)
    }

    /// Panicking convenience wrapper around [`QJob::try_new`] for
    /// literals in tests, examples and adversarial constructions.
    pub fn new(
        id: JobId,
        release: f64,
        deadline: f64,
        query_load: f64,
        upper_bound: f64,
        exact: f64,
    ) -> Self {
        match Self::try_new(id, release, deadline, query_load, upper_bound, exact) {
            Ok(j) => j,
            Err(e) => panic!("malformed QBSS job: {e}"),
        }
    }

    /// Creates a job **without** validating it. For parsers and fault
    /// injectors that need to represent malformed jobs; everything built
    /// this way must pass through [`QbssInstance::validate`] (or
    /// [`QJob::validate`]) before reaching an algorithm.
    pub fn new_unchecked(
        id: JobId,
        release: f64,
        deadline: f64,
        query_load: f64,
        upper_bound: f64,
        exact: f64,
    ) -> Self {
        Self { id, release, deadline, query_load, upper_bound, exact }
    }

    /// Checks the model constraints, reporting the first violation.
    pub fn validate(&self) -> Result<(), ModelError> {
        let fields = [self.release, self.deadline, self.query_load, self.upper_bound, self.exact];
        if fields.iter().any(|v| !v.is_finite()) {
            return Err(ModelError::NonFiniteField { job: self.id });
        }
        if let Some(&v) = fields
            .iter()
            .find(|v| v.abs() != 0.0 && !(MIN_MAGNITUDE..=MAX_MAGNITUDE).contains(&v.abs()))
        {
            return Err(ModelError::MagnitudeOutOfRange { job: self.id, value: v });
        }
        if self.deadline <= self.release + EPS {
            return Err(ModelError::EmptyWindow {
                job: self.id,
                release: self.release,
                deadline: self.deadline,
            });
        }
        if !(self.query_load > 0.0 && self.query_load <= self.upper_bound + EPS) {
            return Err(ModelError::QueryLoadRange {
                job: self.id,
                query_load: self.query_load,
                upper_bound: self.upper_bound,
            });
        }
        if self.exact < 0.0 || self.exact > self.upper_bound + EPS {
            return Err(ModelError::ExactLoadRange {
                job: self.id,
                exact: self.exact,
                upper_bound: self.upper_bound,
            });
        }
        Ok(())
    }

    /// The active interval `(r_j, d_j]`.
    #[inline]
    pub fn window(&self) -> Interval {
        Interval::new(self.release, self.deadline)
    }

    /// Reveals the exact load `w*_j`.
    ///
    /// Contract: legal only once the job's query has completed (at its
    /// splitting point). Algorithms in this crate uphold it by
    /// construction — the exact load only ever parameterizes derived
    /// jobs whose release *is* the splitting point — and
    /// [`crate::outcome::QbssOutcome::validate`] re-checks every
    /// schedule structurally.
    #[inline]
    pub fn reveal_exact(&self) -> f64 {
        self.exact
    }

    /// The load an omniscient scheduler executes:
    /// `p*_j = min{w_j, c_j + w*_j}`.
    #[inline]
    pub fn p_star(&self) -> f64 {
        self.upper_bound.min(self.query_load + self.exact)
    }

    /// Whether the clairvoyant optimum queries this job
    /// (`c_j + w*_j < w_j`; ties broken toward not querying).
    #[inline]
    pub fn opt_queries(&self) -> bool {
        self.query_load + self.exact < self.upper_bound
    }

    /// The clairvoyant classical job `(r_j, d_j, p*_j)`.
    #[inline]
    pub fn clairvoyant_job(&self) -> Job {
        Job::new(self.id, self.release, self.deadline, self.p_star())
    }

    /// The *visible* part of the job — everything an online algorithm
    /// may inspect at release time.
    #[inline]
    pub fn visible(&self) -> VisibleJob {
        VisibleJob {
            id: self.id,
            release: self.release,
            deadline: self.deadline,
            query_load: self.query_load,
            upper_bound: self.upper_bound,
        }
    }
}

/// The information available about a job before its query completes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisibleJob {
    /// Stable identifier.
    pub id: JobId,
    /// Release time.
    pub release: f64,
    /// Deadline.
    pub deadline: f64,
    /// Query load `c_j`.
    pub query_load: f64,
    /// Upper-bound workload `w_j`.
    pub upper_bound: f64,
}

/// A QBSS instance: a set of [`QJob`]s with unique ids.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QbssInstance {
    /// The jobs.
    pub jobs: Vec<QJob>,
}

impl QbssInstance {
    /// Creates an instance (not validated; see [`QbssInstance::validate`]).
    pub fn new(jobs: Vec<QJob>) -> Self {
        Self { jobs }
    }

    /// Creates a validated instance.
    pub fn try_new(jobs: Vec<QJob>) -> Result<Self, ModelError> {
        let inst = Self { jobs };
        inst.validate()?;
        Ok(inst)
    }

    /// Number of jobs.
    #[inline]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether there are no jobs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Validates every job and id uniqueness.
    pub fn validate(&self) -> Result<(), ModelError> {
        let mut ids: Vec<JobId> = self.jobs.iter().map(|j| j.id).collect();
        ids.sort_unstable();
        if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(ModelError::DuplicateId { job: w[0] });
        }
        for j in &self.jobs {
            j.validate()?;
        }
        Ok(())
    }

    /// The clairvoyant classical instance `{(r_j, d_j, p*_j)}` whose YDS
    /// optimum is the offline benchmark `OPT` of every experiment.
    pub fn clairvoyant_instance(&self) -> Instance {
        self.jobs.iter().map(QJob::clairvoyant_job).collect()
    }

    /// Looks a job up by id.
    pub fn job(&self, id: JobId) -> Option<&QJob> {
        self.jobs.iter().find(|j| j.id == id)
    }

    /// Maps each job id to the position of its first job — the job
    /// [`QbssInstance::job`] finds — for callers that look up many ids.
    pub(crate) fn positions(&self) -> HashMap<JobId, usize> {
        let mut map = HashMap::with_capacity(self.jobs.len());
        for (pos, j) in self.jobs.iter().enumerate() {
            map.entry(j.id).or_insert(pos);
        }
        map
    }

    /// Whether all jobs share (numerically) the release time `r`.
    pub fn has_common_release(&self, r: f64) -> bool {
        self.jobs.iter().all(|j| (j.release - r).abs() <= EPS)
    }

    /// The common deadline if all jobs share one.
    pub fn common_deadline(&self) -> Option<f64> {
        let first = self.jobs.first()?.deadline;
        self.jobs
            .iter()
            .all(|j| (j.deadline - first).abs() <= EPS)
            .then_some(first)
    }

    /// Latest deadline (0 for an empty instance).
    pub fn max_deadline(&self) -> f64 {
        self.jobs.iter().map(|j| j.deadline).fold(0.0, f64::max)
    }

    /// Clairvoyant optimal energy (YDS on the `p*` instance).
    pub fn opt_energy(&self, alpha: f64) -> f64 {
        speed_scaling::yds::optimal_energy(&self.clairvoyant_instance(), alpha)
    }

    /// Clairvoyant optimal maximum speed.
    pub fn opt_max_speed(&self) -> f64 {
        speed_scaling::yds::optimal_max_speed(&self.clairvoyant_instance())
    }

    /// A memoized handle on the clairvoyant optimum: YDS runs once, and
    /// `energy(α)` / `max_speed()` reads are cheap thereafter —
    /// bit-identical to [`QbssInstance::opt_energy`] /
    /// [`QbssInstance::opt_max_speed`]. Use this whenever the same
    /// instance is measured against OPT more than once (the CLI's
    /// `compare`, every sweep cell sharing an instance).
    pub fn opt_cache(&self) -> speed_scaling::cache::OptCache {
        speed_scaling::cache::OptCache::new(&self.clairvoyant_instance())
    }
}

impl FromIterator<QJob> for QbssInstance {
    fn from_iter<T: IntoIterator<Item = QJob>>(iter: T) -> Self {
        Self { jobs: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ModelErrorKind;

    #[test]
    fn p_star_picks_cheaper_alternative() {
        // Querying pays off: c + w* = 1.2 < w = 3.
        let j = QJob::new(0, 0.0, 1.0, 1.0, 3.0, 0.2);
        assert!((j.p_star() - 1.2).abs() < 1e-12);
        assert!(j.opt_queries());
        // Querying does not pay off: c + w* = 3.2 > w = 3.
        let k = QJob::new(1, 0.0, 1.0, 1.0, 3.0, 2.2);
        assert!((k.p_star() - 3.0).abs() < 1e-12);
        assert!(!k.opt_queries());
    }

    #[test]
    fn clairvoyant_instance_uses_p_star() {
        let inst = QbssInstance::new(vec![
            QJob::new(0, 0.0, 2.0, 0.5, 4.0, 1.0),
            QJob::new(1, 0.0, 2.0, 2.0, 2.0, 2.0),
        ]);
        let ci = inst.clairvoyant_instance();
        assert!((ci.jobs[0].work - 1.5).abs() < 1e-12); // 0.5 + 1.0 < 4
        assert!((ci.jobs[1].work - 2.0).abs() < 1e-12); // w = 2 < c + w* = 4
    }

    #[test]
    #[should_panic(expected = "malformed QBSS job")]
    fn zero_query_load_rejected() {
        let _ = QJob::new(0, 0.0, 1.0, 0.0, 1.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "malformed QBSS job")]
    fn query_load_above_upper_bound_rejected() {
        let _ = QJob::new(0, 0.0, 1.0, 2.0, 1.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "malformed QBSS job")]
    fn exact_above_upper_bound_rejected() {
        let _ = QJob::new(0, 0.0, 1.0, 0.5, 1.0, 1.5);
    }

    #[test]
    fn try_new_reports_typed_variants() {
        let kind = |r, d, c, w, e| {
            QJob::try_new(9, r, d, c, w, e).unwrap_err().kind()
        };
        assert_eq!(kind(0.0, f64::NAN, 0.5, 1.0, 0.5), ModelErrorKind::NonFiniteField);
        assert_eq!(kind(0.0, f64::INFINITY, 0.5, 1.0, 0.5), ModelErrorKind::NonFiniteField);
        assert_eq!(kind(1.0, 1.0, 0.5, 1.0, 0.5), ModelErrorKind::EmptyWindow);
        assert_eq!(kind(2.0, 1.0, 0.5, 1.0, 0.5), ModelErrorKind::EmptyWindow);
        assert_eq!(kind(0.0, 1.0, 0.0, 1.0, 0.5), ModelErrorKind::QueryLoadRange);
        assert_eq!(kind(0.0, 1.0, -0.5, 1.0, 0.5), ModelErrorKind::QueryLoadRange);
        assert_eq!(kind(0.0, 1.0, 2.0, 1.0, 0.5), ModelErrorKind::QueryLoadRange);
        assert_eq!(kind(0.0, 1.0, 0.5, 1.0, -0.1), ModelErrorKind::ExactLoadRange);
        assert_eq!(kind(0.0, 1.0, 0.5, 1.0, 1.5), ModelErrorKind::ExactLoadRange);
        assert_eq!(
            QJob::try_new(9, 0.0, 1e300, 0.5, 1.0, 0.5).unwrap_err().kind(),
            ModelErrorKind::MagnitudeOutOfRange
        );
        assert_eq!(
            QJob::try_new(9, 0.0, 1.0, 0.5, 1.0, 5e-310).unwrap_err().kind(),
            ModelErrorKind::MagnitudeOutOfRange
        );
        assert!(QJob::try_new(9, 0.0, 1.0, 0.5, 1.0, 0.0).is_ok()); // exact zero is fine
    }

    #[test]
    fn new_unchecked_defers_validation() {
        let bad = QJob::new_unchecked(0, 0.0, 1.0, f64::NAN, 1.0, 0.5);
        assert_eq!(bad.validate().unwrap_err().kind(), ModelErrorKind::NonFiniteField);
        let inst = QbssInstance::new(vec![bad]);
        assert!(inst.validate().is_err());
    }

    #[test]
    fn duplicate_ids_detected() {
        let inst = QbssInstance::new(vec![
            QJob::new(0, 0.0, 1.0, 0.5, 1.0, 0.5),
            QJob::new(0, 0.0, 1.0, 0.5, 1.0, 0.5),
        ]);
        assert_eq!(inst.validate().unwrap_err().kind(), ModelErrorKind::DuplicateId);
        assert!(QbssInstance::try_new(inst.jobs).is_err());
    }

    #[test]
    fn common_structure_helpers() {
        let inst = QbssInstance::new(vec![
            QJob::new(0, 0.0, 4.0, 1.0, 2.0, 1.0),
            QJob::new(1, 0.0, 4.0, 1.0, 3.0, 0.0),
        ]);
        assert!(inst.has_common_release(0.0));
        assert_eq!(inst.common_deadline(), Some(4.0));
        assert_eq!(inst.max_deadline(), 4.0);
        assert!(inst.validate().is_ok());
    }

    #[test]
    fn opt_energy_single_job() {
        // One job, p* = 1, window (0,1]: optimal energy = 1^α · 1 = 1.
        let inst = QbssInstance::new(vec![QJob::new(0, 0.0, 1.0, 0.5, 2.0, 0.5)]);
        assert!((inst.opt_energy(3.0) - 1.0).abs() < 1e-9);
        assert!((inst.opt_max_speed() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn visible_strips_exact() {
        let j = QJob::new(0, 0.0, 1.0, 0.5, 2.0, 0.25);
        let v = j.visible();
        assert_eq!(v.upper_bound, 2.0);
        assert_eq!(v.query_load, 0.5);
    }
}
