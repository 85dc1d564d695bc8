//! The online engine (DESIGN.md §14): [`StreamingSolver`] runs AVRQ,
//! BKPQ and OAQ one arrival at a time.
//!
//! The online QBSS algorithms are event processors: a job arrives, the
//! algorithm decides its query and split on the spot, and the speed plan
//! reacts. A [`StreamingSolver`] consumes arrivals one at a time
//! ([`StreamingSolver::on_arrival`]), can be advanced through quiet
//! spans of time ([`StreamingSolver::advance_to`]), and produces the same
//! validated [`QbssOutcome`] as the batch entry points when finished
//! ([`StreamingSolver::finish`]). Each arrival is decided by an
//! [`OnlinePolicy`]: the paper's rules through
//! [`StreamingSolver::with_strategy`], any other through
//! [`StreamingSolver::new`].
//!
//! The batch entry points (`try_avrq`, `try_bkpq`, `try_oaq` and the
//! `_with` ablations) are thin adapters over this engine: they feed the
//! instance in canonical arrival order ([`arrival_ordered`]) and finish.
//! A session that feeds the same jobs in the same order therefore
//! produces a bit-identical outcome *by construction* — there is only one
//! code path.
//!
//! ## Event semantics
//!
//! * Arrivals must be fed in non-decreasing release order (ties in any
//!   order); the canonical order breaks release ties by job id.
//! * The policy is handed the arriving job's [`VisibleJob`] part only, so
//!   no policy can read `w*` at arrival: the argument type has no field
//!   for it.
//! * A queried job's derived *query part* `(r, τ, c)` enters the
//!   substrate immediately; its *exact part* `(τ, d, w*)` is withheld in
//!   a pending queue until the stream's clock reaches `τ` — the moment
//!   the query completes and `w*` becomes known. The substrate's speed
//!   at `t` therefore depends only on what the model reveals by `t`.
//! * [`StreamingSolver::advance_to`] releases pending exact parts and
//!   (for OA) commits the planned profile up to `t`; time never flows
//!   backwards.

use std::collections::HashSet;

use speed_scaling::edf::{edf_schedule, EdfTask};
use speed_scaling::job::{Job, JobId};
use speed_scaling::profile::SpeedProfile;
use speed_scaling::stream::{AvrStream, BkpStream, OaStream};
use speed_scaling::time::EPS;

use crate::decision::{try_derived_instance, Decision};
use crate::error::{AlgorithmError, ModelError, ValidationError};
use crate::model::{QJob, QbssInstance, VisibleJob};
use crate::outcome::QbssOutcome;
use crate::pipeline::Algorithm;
use crate::policy::{NoRandomness, OnlinePolicy, SplitRule, Strategy};

/// The speed change caused by one arrival: the substrate's live speed
/// at the arrival instant, immediately before and after the event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedDelta {
    /// The arrival time the delta is sampled at.
    pub at: f64,
    /// Live speed just before the arrival was applied.
    pub before: f64,
    /// Live speed just after the arrival was applied.
    pub after: f64,
}

impl SpeedDelta {
    /// `after − before` — positive when the arrival raised the speed.
    pub fn change(&self) -> f64 {
        self.after - self.before
    }
}

/// A streaming event was rejected; the solver state is unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// An event's time precedes the stream clock.
    OutOfOrder {
        /// Algorithm name.
        algorithm: &'static str,
        /// The stream clock (latest arrival or advance).
        last: f64,
        /// The offending event time.
        got: f64,
    },
    /// A job id was fed twice.
    DuplicateJob {
        /// Algorithm name.
        algorithm: &'static str,
        /// The repeated id.
        job: JobId,
    },
    /// `advance_to` was called with a NaN or infinite time.
    NonFiniteTime {
        /// Algorithm name.
        algorithm: &'static str,
        /// The offending time.
        t: f64,
    },
    /// The strategy's split point fell outside the job's open window.
    SplitOutsideWindow {
        /// Algorithm name.
        algorithm: &'static str,
        /// The job being split.
        job: JobId,
        /// The rejected split point.
        tau: f64,
    },
    /// The arriving job violates the QBSS model constraints.
    Model(ModelError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::OutOfOrder { algorithm, last, got } => {
                write!(f, "{algorithm}: event at {got} precedes stream clock {last}")
            }
            StreamError::DuplicateJob { algorithm, job } => {
                write!(f, "{algorithm}: job {job} already arrived")
            }
            StreamError::NonFiniteTime { algorithm, t } => {
                write!(f, "{algorithm}: advance target {t} is not finite")
            }
            StreamError::SplitOutsideWindow { algorithm, job, tau } => {
                write!(f, "{algorithm}: split {tau} of job {job} falls outside its window")
            }
            StreamError::Model(e) => write!(f, "invalid job: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for StreamError {
    fn from(e: ModelError) -> Self {
        StreamError::Model(e)
    }
}

/// An arrival that passed [`StreamingSolver::admit`], with the split
/// its policy chose (`None`: not queried).
struct Admitted {
    job: QJob,
    split: Option<f64>,
}

/// The classical substrate a [`StreamingSolver`] drives.
enum Substrate {
    Avr(AvrStream),
    Bkp(BkpStream),
    Oa(OaStream),
}

impl Substrate {
    fn on_arrival(&mut self, job: Job) {
        match self {
            Substrate::Avr(s) => s.on_arrival(job),
            Substrate::Bkp(s) => s.on_arrival(job),
            Substrate::Oa(s) => s.on_arrival(job),
        }
    }

    fn speed_after(&self, t: f64) -> f64 {
        match self {
            Substrate::Avr(s) => s.speed_after(t),
            Substrate::Bkp(s) => s.speed_after(t),
            Substrate::Oa(s) => s.planned_speed_after(t),
        }
    }

    fn advance_to(&mut self, t: f64) {
        // AVR and BKP speeds are pure functions of the arrived set; only
        // OA carries committed-execution state between events.
        if let Substrate::Oa(s) = self {
            s.advance_to(t);
        }
    }

    fn finish(&mut self) -> SpeedProfile {
        match self {
            Substrate::Avr(s) => s.finish(),
            Substrate::Bkp(s) => s.finish(),
            Substrate::Oa(s) => s.finish(),
        }
    }
}

/// A deterministic [`Strategy`] as an [`OnlinePolicy`]. Only
/// [`StreamingSolver::with_strategy`] builds one, after rejecting the
/// rules an online algorithm cannot apply.
struct RulePolicy(Strategy);

impl OnlinePolicy for RulePolicy {
    fn decide(&mut self, job: &VisibleJob) -> Option<f64> {
        let Strategy { query, split } = self.0;
        if !query.decide_visible(job.query_load, job.upper_bound, &mut NoRandomness) {
            return None;
        }
        // The oracle split, the one rule without a visible fraction, was
        // rejected at construction.
        let x = split.visible_fraction(job)?;
        Some(job.release + x * (job.deadline - job.release))
    }
}

/// The online engine behind AVRQ, BKPQ and OAQ: asks an [`OnlinePolicy`]
/// for each arrival's query and split, drives the matching classical
/// substrate incrementally, and withholds each queried job's exact part
/// until its split point passes. It is `Send`, so a serve session can
/// move between threads.
pub struct StreamingSolver {
    algorithm: Algorithm,
    policy: Box<dyn OnlinePolicy + Send>,
    substrate: Substrate,
    /// Arrived jobs, in feed order.
    jobs: Vec<QJob>,
    /// One decision per arrived job, in feed order.
    decisions: Vec<Decision>,
    /// Exact parts of queried jobs whose split point is still ahead of
    /// the clock, sorted by (release, feed order).
    pending: Vec<Job>,
    seen: HashSet<JobId>,
    clock: f64,
    events: u64,
}

impl StreamingSolver {
    /// A solver running `algorithm`'s substrate, deciding each arrival
    /// with `policy`.
    ///
    /// Only the online single-machine algorithms stream: the offline
    /// common-release family needs the whole instance up front, and the
    /// multi-machine variants assign jobs globally. Those return
    /// [`AlgorithmError::UnsupportedStructure`].
    pub fn new(
        algorithm: Algorithm,
        policy: Box<dyn OnlinePolicy + Send>,
    ) -> Result<Self, AlgorithmError> {
        let substrate = match algorithm {
            Algorithm::Avrq => Substrate::Avr(AvrStream::new()),
            Algorithm::Bkpq => Substrate::Bkp(BkpStream::new()),
            Algorithm::Oaq => Substrate::Oa(OaStream::new()),
            other => {
                return Err(AlgorithmError::UnsupportedStructure {
                    algorithm: other.name(),
                    reason: "the whole instance up front; only avrq, bkpq and oaq stream".into(),
                })
            }
        };
        Ok(Self {
            algorithm,
            policy,
            substrate,
            jobs: Vec::new(),
            decisions: Vec::new(),
            pending: Vec::new(),
            seen: HashSet::new(),
            clock: f64::NEG_INFINITY,
            events: 0,
        })
    }

    /// A solver deciding each arrival by a deterministic `strategy` —
    /// the paper's rules and the split/threshold ablations. Rejects what
    /// an online algorithm cannot apply: randomized query rules
    /// ([`AlgorithmError::RandomizedRule`]), the oracle split, which
    /// reads `w*` before the query completes, and split fractions
    /// outside `(0, 1)` ([`AlgorithmError::InvalidStrategy`]).
    pub fn with_strategy(algorithm: Algorithm, strategy: Strategy) -> Result<Self, AlgorithmError> {
        let name = algorithm.name();
        if strategy.query.is_randomized() {
            return Err(AlgorithmError::RandomizedRule { algorithm: name });
        }
        let reason = match strategy.split {
            SplitRule::Oracle => {
                Some("the oracle split reads w* before the query completes".into())
            }
            SplitRule::Fraction(x) if !(x > 0.0 && x < 1.0) => {
                Some(format!("split fraction {x} is outside (0, 1)"))
            }
            _ => None,
        };
        if let Some(reason) = reason {
            return Err(AlgorithmError::InvalidStrategy { algorithm: name, reason });
        }
        Self::new(algorithm, Box::new(RulePolicy(strategy)))
    }

    /// The algorithm this solver runs.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The stream clock: the latest arrival or advance time seen (`−∞`
    /// before the first event).
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// The substrate's live speed at the stream clock (0 before the
    /// first event).
    pub fn speed(&self) -> f64 {
        if self.clock.is_finite() {
            self.substrate.speed_after(self.clock)
        } else {
            0.0
        }
    }

    /// Number of events (arrivals and advances) processed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Releases pending exact parts whose split point has been reached.
    fn flush_pending(&mut self, t: f64) {
        let k = self.pending.partition_point(|p| p.release <= t + EPS);
        for part in self.pending.drain(..k) {
            self.substrate.on_arrival(part);
        }
    }

    /// Feeds one arriving job: the policy decides its query and split on
    /// the spot, from the visible part alone. Arrivals must be fed in
    /// non-decreasing release order. Returns the speed change at the
    /// arrival instant; a rejected arrival leaves the solver unchanged.
    pub fn on_arrival(&mut self, job: QJob) -> Result<SpeedDelta, StreamError> {
        let arrival = self.admit(job)?;
        let t = arrival.job.release;
        self.flush_pending(t);
        let before = self.substrate.speed_after(t);
        self.apply(arrival);
        let after = self.substrate.speed_after(t);
        Ok(SpeedDelta { at: t, before, after })
    }

    /// The checks and the decision of an arrival, before any state
    /// changes: the job's model constraints, its order against the
    /// clock, a repeated id, and the policy's split, which must fall
    /// inside the job's open window.
    fn admit(&mut self, job: QJob) -> Result<Admitted, StreamError> {
        let algorithm = self.algorithm.name();
        job.validate()?;
        if job.release + EPS < self.clock {
            return Err(StreamError::OutOfOrder { algorithm, last: self.clock, got: job.release });
        }
        if self.seen.contains(&job.id) {
            return Err(StreamError::DuplicateJob { algorithm, job: job.id });
        }
        let split = self.policy.decide(&job.visible());
        if let Some(tau) = split {
            if !(tau > job.release + EPS && tau < job.deadline - EPS) {
                return Err(StreamError::SplitOutsideWindow { algorithm, job: job.id, tau });
            }
        }
        Ok(Admitted { job, split })
    }

    /// Feeds an admitted arrival to the substrate and records it. The
    /// caller releases the exact parts due by its release first.
    fn apply(&mut self, Admitted { job, split }: Admitted) {
        let t = job.release;
        qbss_telemetry::counter!("solver.events").inc();
        let _span = qbss_telemetry::span!("solver.event", {
            job = job.id,
            t = t,
            queried = split.is_some(),
        });
        self.seen.insert(job.id);
        let decision = match split {
            Some(tau) => {
                self.substrate.on_arrival(Job::new(job.id, t, tau, job.query_load));
                // The exact part exists only once the query completes at
                // τ — queue it; `flush_pending` releases it in
                // (release, feed-order) sequence.
                let exact = Job::new(job.id, tau, job.deadline, job.reveal_exact());
                let at = self.pending.partition_point(|p| p.release <= exact.release);
                self.pending.insert(at, exact);
                Decision::query(job.id, tau)
            }
            None => {
                self.substrate.on_arrival(Job::new(job.id, t, job.deadline, job.upper_bound));
                Decision::no_query(job.id)
            }
        };
        self.clock = self.clock.max(t);
        self.events += 1;
        self.jobs.push(job);
        self.decisions.push(decision);
    }

    /// Advances the stream clock to `t` with no arrival: releases the
    /// exact parts of queries completing by `t` and commits the planned
    /// profile up to `t`. Time never flows backwards.
    pub fn advance_to(&mut self, t: f64) -> Result<(), StreamError> {
        let algorithm = self.algorithm.name();
        if !t.is_finite() {
            return Err(StreamError::NonFiniteTime { algorithm, t });
        }
        if t + EPS < self.clock {
            return Err(StreamError::OutOfOrder { algorithm, last: self.clock, got: t });
        }
        qbss_telemetry::counter!("solver.advances").inc();
        self.flush_pending(t);
        self.substrate.advance_to(t);
        self.clock = self.clock.max(t);
        self.events += 1;
        Ok(())
    }

    /// Finishes the stream: runs out the horizon and returns the same
    /// validated [`QbssOutcome`] the batch entry point would produce for
    /// the jobs fed so far.
    pub fn finish(mut self) -> Result<QbssOutcome, AlgorithmError> {
        let algorithm = self.algorithm.name();
        if self.jobs.is_empty() {
            return Err(AlgorithmError::EmptyInstance { algorithm });
        }
        self.flush_pending(f64::INFINITY);
        let profile = self.substrate.finish();
        self.decisions.sort_by_key(|d| d.job);
        let inst = QbssInstance::new(self.jobs);
        let derived = try_derived_instance(&inst, &self.decisions)
            .map_err(|source| AlgorithmError::Inconsistent { algorithm, source })?;
        let schedule = edf_schedule(&EdfTask::from_instance(&derived), &profile, 0)
            .map_err(|source| AlgorithmError::Infeasible { algorithm, source })?;
        Ok(QbssOutcome { algorithm: algorithm.into(), decisions: self.decisions, schedule })
    }
}

/// A streaming solver for `algorithm` with the paper's strategy: AVRQ
/// queries always, BKPQ and OAQ by the golden-ratio rule, all split at
/// the midpoint. Batch-only algorithms return
/// [`AlgorithmError::UnsupportedStructure`].
pub fn solver_for(algorithm: Algorithm) -> Result<StreamingSolver, AlgorithmError> {
    let strategy = match algorithm {
        Algorithm::Avrq => Strategy::always_equal(),
        _ => Strategy::golden_equal(),
    };
    StreamingSolver::with_strategy(algorithm, strategy)
}

/// The canonical feed order: jobs sorted by release, ties by id. The
/// batch entry points feed this order; a session replaying it gets a
/// bit-identical outcome.
pub fn arrival_ordered(inst: &QbssInstance) -> Vec<QJob> {
    let mut jobs = inst.jobs.clone();
    jobs.sort_by(|a, b| {
        a.release
            .partial_cmp(&b.release)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.id.cmp(&b.id))
    });
    jobs
}

/// Validates `inst`, feeds it in canonical arrival order and finishes —
/// the adapter the batch `try_*` entry points are built on. A split the
/// policy places outside a job's window is
/// [`AlgorithmError::Inconsistent`]. The feed skips the two speed probes
/// of [`StreamingSolver::on_arrival`]: a [`SpeedDelta`] is a session
/// answer, and the probes never change the substrate, so the outcome is
/// the same bits a session feeding this order gets.
pub(crate) fn batch_outcome(
    mut solver: StreamingSolver,
    inst: &QbssInstance,
) -> Result<QbssOutcome, AlgorithmError> {
    inst.validate()?;
    for job in arrival_ordered(inst) {
        let arrival = solver.admit(job).map_err(|e| match e {
            StreamError::SplitOutsideWindow { algorithm, job: id, tau } => {
                AlgorithmError::Inconsistent {
                    algorithm,
                    source: ValidationError::SplitOutsideWindow {
                        job: id,
                        tau,
                        release: job.release,
                        deadline: job.deadline,
                    },
                }
            }
            other => unreachable!("sorted feed of a validated instance cannot fail: {other}"),
        })?;
        solver.flush_pending(arrival.job.release);
        solver.apply(arrival);
    }
    solver.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QJob;
    use crate::online::{
        avrq_profile, bkpq_profile, try_avrq, try_avrq_with, try_bkpq, try_bkpq_with, try_oaq,
    };
    use crate::policy::QueryRule;

    fn online_instance() -> QbssInstance {
        QbssInstance::new(vec![
            QJob::new(0, 0.0, 4.0, 0.5, 2.0, 1.0),
            QJob::new(1, 1.0, 3.0, 0.9, 1.0, 0.0),
            QJob::new(2, 2.0, 6.0, 1.0, 3.0, 3.0),
        ])
    }

    fn solver(algorithm: Algorithm) -> StreamingSolver {
        solver_for(algorithm).expect("streamable")
    }

    fn stream_outcome(algorithm: Algorithm, inst: &QbssInstance) -> QbssOutcome {
        let mut solver = solver(algorithm);
        for job in arrival_ordered(inst) {
            solver.on_arrival(job).expect("in-order feed");
        }
        solver.finish().expect("outcome")
    }

    /// Feeds `inst` in time order and checks the live speed after
    /// `advance_to(t)` against `analytic` at every segment midpoint `t`.
    fn assert_stepped_matches(algorithm: Algorithm, inst: &QbssInstance, analytic: &SpeedProfile) {
        let mut solver = solver(algorithm);
        let mut arrivals = arrival_ordered(inst).into_iter().peekable();
        for w in analytic.breakpoints().windows(2) {
            let t = 0.5 * (w[0] + w[1]);
            while let Some(job) = arrivals.next_if(|j| j.release <= t) {
                solver.on_arrival(job).expect("in-order feed");
            }
            solver.advance_to(t).expect("forward in time");
            let (live, expected) = (solver.speed(), analytic.speed_at(t));
            let close = (live - expected).abs() <= 1e-9 * expected.abs() + 1e-12;
            assert!(close, "{algorithm} at t = {t}: live {live} vs analytic {expected}");
        }
    }

    #[test]
    fn streaming_is_bit_identical_to_batch() {
        let inst = online_instance();
        for (algorithm, batch) in [
            (Algorithm::Avrq, try_avrq(&inst)),
            (Algorithm::Bkpq, try_bkpq(&inst)),
            (Algorithm::Oaq, try_oaq(&inst)),
        ] {
            let batch = batch.expect("batch outcome");
            let streamed = stream_outcome(algorithm, &inst);
            assert_eq!(format!("{batch:?}"), format!("{streamed:?}"), "{algorithm}");
        }
    }

    #[test]
    fn delta_reports_the_arrival_speed_change() {
        let mut s = solver(Algorithm::Oaq);
        let d = s.on_arrival(QJob::new(0, 0.0, 2.0, 0.5, 2.0, 1.0)).expect("feed");
        assert_eq!(d.at, 0.0);
        assert_eq!(d.before, 0.0);
        assert!(d.after > 0.0, "an arrival into an idle stream must raise the speed");
        assert!((d.change() - d.after).abs() < 1e-12);
    }

    #[test]
    fn exact_part_is_released_at_the_split_point() {
        // AVRQ on (0, 2], c = 0.5, w* = 1: density 0.5 on (0, 1] from
        // the query part, then 1.0 on (1, 2] once the query completes.
        let mut s = solver(Algorithm::Avrq);
        s.on_arrival(QJob::new(0, 0.0, 2.0, 0.5, 2.0, 1.0)).expect("feed");
        assert!((s.speed() - 0.5).abs() < 1e-12);
        s.advance_to(1.5).expect("advance");
        assert!((s.speed() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stepped_avrq_equals_analytic_profile() {
        let inst = online_instance();
        assert_stepped_matches(Algorithm::Avrq, &inst, &avrq_profile(&inst));
    }

    #[test]
    fn stepped_bkpq_equals_analytic_profile() {
        let inst = online_instance();
        assert_stepped_matches(Algorithm::Bkpq, &inst, &bkpq_profile(&inst));
    }

    #[test]
    fn exact_load_invisible_before_split() {
        // Two jobs alike but for w* (0 vs 2): before the split at τ = 1
        // the live speed must be identical, because the policy and the
        // substrate cannot see w* yet; after it, the speeds must differ.
        let speeds = |w_star: f64| {
            let mut s = solver(Algorithm::Avrq);
            s.on_arrival(QJob::new(0, 0.0, 2.0, 0.5, 2.0, w_star)).expect("feed");
            [0.25, 0.5, 0.75, 0.99, 1.5].map(|t| {
                s.advance_to(t).expect("advance");
                s.speed()
            })
        };
        let (a, b) = (speeds(0.0), speeds(2.0));
        assert_eq!(a[..4], b[..4], "pre-split speed leaked w*");
        assert!((a[4] - b[4]).abs() > 0.5);
    }

    #[test]
    fn oracle_split_rejected_online() {
        // At release the visible job (r = 0, d = 2, c = 0.5, w = 2) is
        // the same whatever w* is; the oracle split would pick a τ that
        // depends on w* (1.667 for w* = 0.1, 0.417 for w* = 1.9).
        let oracle = Strategy { query: QueryRule::Always, split: SplitRule::Oracle };
        for w_star in [0.1, 1.9] {
            let inst = QbssInstance::new(vec![QJob::new(0, 0.0, 2.0, 0.5, 2.0, w_star)]);
            for result in [try_avrq_with(&inst, oracle), try_bkpq_with(&inst, oracle)] {
                assert!(
                    matches!(result, Err(AlgorithmError::InvalidStrategy { .. })),
                    "w* = {w_star}: {result:?}"
                );
            }
        }
        assert!(matches!(
            StreamingSolver::with_strategy(Algorithm::Oaq, oracle),
            Err(AlgorithmError::InvalidStrategy { algorithm: "OAQ", .. })
        ));
    }

    #[test]
    fn split_fraction_outside_the_unit_interval_is_a_typed_error() {
        let inst = online_instance();
        for x in [1.5, f64::NAN, 0.0, 1.0, -0.5] {
            let strategy = Strategy { query: QueryRule::Always, split: SplitRule::Fraction(x) };
            assert!(
                matches!(
                    try_avrq_with(&inst, strategy),
                    Err(AlgorithmError::InvalidStrategy { .. })
                ),
                "Fraction({x})"
            );
            assert!(
                matches!(
                    try_bkpq_with(&inst, strategy),
                    Err(AlgorithmError::InvalidStrategy { .. })
                ),
                "Fraction({x})"
            );
        }
    }

    #[test]
    fn split_fraction_too_close_to_the_release_is_inconsistent() {
        // x = 1e-12 lies in (0, 1), but τ = r + x(d − r) lands within
        // EPS of the release.
        let strategy = Strategy { query: QueryRule::Always, split: SplitRule::Fraction(1e-12) };
        let err = try_avrq_with(&online_instance(), strategy).expect_err("split in the EPS band");
        assert!(
            matches!(
                err,
                AlgorithmError::Inconsistent {
                    algorithm: "AVRQ",
                    source: ValidationError::SplitOutsideWindow { job: 0, .. },
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn custom_policy_can_be_plugged_in() {
        // A policy that queries only jobs with even ids.
        struct EvenOnly;
        impl OnlinePolicy for EvenOnly {
            fn decide(&mut self, job: &VisibleJob) -> Option<f64> {
                job.id.is_multiple_of(2).then_some(0.5 * (job.release + job.deadline))
            }
        }
        let inst = online_instance();
        let mut s =
            StreamingSolver::new(Algorithm::Avrq, Box::new(EvenOnly)).expect("avrq streams");
        for job in arrival_ordered(&inst) {
            s.on_arrival(job).expect("feed");
        }
        let outcome = s.finish().expect("outcome");
        outcome.validate(&inst).expect("valid");
        let queried: Vec<bool> = outcome.decisions.iter().map(|d| d.queried).collect();
        assert_eq!(queried, vec![true, false, true]);
        assert!(outcome.energy(3.0) > 0.0);
    }

    #[test]
    fn custom_policy_split_outside_the_window_is_rejected() {
        // Answers NaN, then a τ past the deadline, then the midpoint.
        struct Scripted(Vec<f64>);
        impl OnlinePolicy for Scripted {
            fn decide(&mut self, _job: &VisibleJob) -> Option<f64> {
                self.0.pop()
            }
        }
        let policy = Scripted(vec![1.0, 5.0, f64::NAN]);
        let mut s = StreamingSolver::new(Algorithm::Bkpq, Box::new(policy)).expect("bkpq streams");
        let job = QJob::new(0, 0.0, 2.0, 0.5, 2.0, 1.0);
        for _ in 0..2 {
            let err = s.on_arrival(job).expect_err("split outside (0, 2)");
            assert!(matches!(err, StreamError::SplitOutsideWindow { job: 0, .. }), "{err:?}");
            assert_eq!((s.events(), s.speed(), s.now()), (0, 0.0, f64::NEG_INFINITY));
        }
        s.on_arrival(job).expect("the next valid arrival is accepted");
        assert_eq!(s.events(), 1);
        let outcome = s.finish().expect("outcome");
        assert_eq!(outcome.decisions, vec![Decision::query(0, 1.0)]);
    }

    #[test]
    fn advance_to_between_arrivals_preserves_the_outcome() {
        let inst = online_instance();
        for algorithm in [Algorithm::Avrq, Algorithm::Bkpq, Algorithm::Oaq] {
            let batch = crate::pipeline::run_evaluated(&inst, 3.0, algorithm).expect("batch");
            let mut solver = solver(algorithm);
            for job in arrival_ordered(&inst) {
                solver.advance_to(job.release).expect("advance");
                solver.on_arrival(job).expect("feed");
            }
            solver.advance_to(7.0).expect("advance past horizon");
            let streamed = solver.finish().expect("outcome");
            let e = streamed.energy(3.0);
            assert!(
                (e - batch.energy).abs() <= 1e-6 * batch.energy.max(1.0),
                "{algorithm}: streamed {e} vs batch {}",
                batch.energy
            );
        }
    }

    #[test]
    fn out_of_order_arrivals_are_rejected() {
        let mut s = solver(Algorithm::Avrq);
        s.on_arrival(QJob::new(0, 2.0, 4.0, 0.5, 1.0, 0.5)).expect("feed");
        let err = s.on_arrival(QJob::new(1, 0.5, 4.0, 0.5, 1.0, 0.5)).expect_err("must reject");
        assert!(matches!(err, StreamError::OutOfOrder { .. }));
        assert_eq!(s.events(), 1, "rejected events must not count");
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let mut s = solver(Algorithm::Bkpq);
        s.on_arrival(QJob::new(7, 0.0, 2.0, 0.5, 1.0, 0.5)).expect("feed");
        let err = s.on_arrival(QJob::new(7, 1.0, 3.0, 0.5, 1.0, 0.5)).expect_err("must reject");
        assert!(matches!(err, StreamError::DuplicateJob { job: 7, .. }));
    }

    #[test]
    fn malformed_jobs_are_rejected() {
        let mut s = solver(Algorithm::Bkpq);
        let bad = QJob::new_unchecked(0, 0.0, 2.0, 0.5, 2.0, f64::NAN);
        assert!(matches!(s.on_arrival(bad), Err(StreamError::Model(_))));
    }

    #[test]
    fn time_cannot_flow_backwards() {
        let mut s = solver(Algorithm::Oaq);
        s.on_arrival(QJob::new(0, 1.0, 3.0, 0.5, 2.0, 1.0)).expect("feed");
        s.advance_to(2.0).expect("advance");
        assert!(matches!(s.advance_to(1.0), Err(StreamError::OutOfOrder { .. })));
        assert!(matches!(s.advance_to(f64::NAN), Err(StreamError::NonFiniteTime { .. })));
    }

    #[test]
    fn empty_finish_reports_empty_instance() {
        let err = solver(Algorithm::Oaq).finish().expect_err("empty stream has no outcome");
        assert!(matches!(err, AlgorithmError::EmptyInstance { algorithm: "OAQ" }));
    }

    #[test]
    fn solver_for_rejects_batch_only_algorithms() {
        for algorithm in [
            Algorithm::Crcd,
            Algorithm::Crp2d,
            Algorithm::Crad,
            Algorithm::AvrqM { m: 2 },
        ] {
            assert!(
                matches!(solver_for(algorithm), Err(AlgorithmError::UnsupportedStructure { .. })),
                "{algorithm} must not stream"
            );
        }
    }

    #[test]
    fn randomized_strategies_cannot_stream() {
        let s = Strategy { query: QueryRule::Probabilistic(0.5), split: SplitRule::EqualWindow };
        assert!(matches!(
            StreamingSolver::with_strategy(Algorithm::Bkpq, s),
            Err(AlgorithmError::RandomizedRule { algorithm: "BKPQ" })
        ));
    }
}
