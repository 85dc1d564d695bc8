//! Typed errors for the whole QBSS pipeline.
//!
//! The hierarchy mirrors the pipeline stages:
//!
//! * [`ModelError`] — a job or instance violates the QBSS model
//!   (produced by [`crate::model::QJob::try_new`] and
//!   [`crate::model::QbssInstance::validate`]);
//! * [`AlgorithmError`] — an algorithm cannot run on a (model-valid)
//!   instance: wrong structure for its scope, empty instance, or an
//!   infeasible derived schedule;
//! * [`ValidationError`] — an outcome failed the structural trust-anchor
//!   check of [`crate::outcome::QbssOutcome::validate`];
//! * [`QbssError`] — the umbrella returned by
//!   [`crate::pipeline::run_checked`], which also rejects non-finite
//!   energies.
//!
//! All enums are hand-rolled `std::error::Error` implementations in the
//! style of [`speed_scaling::schedule::ScheduleError`] — no external
//! error crates, no panics on untrusted input.

use std::fmt;

use speed_scaling::edf::EdfInfeasible;
use speed_scaling::job::JobId;
use speed_scaling::schedule::ScheduleError;

/// Largest magnitude any (non-zero) job field may have. Beyond this,
/// densities, α-th powers and load sums overflow `f64` and the numeric
/// guarantees of the algorithms are meaningless.
pub const MAX_MAGNITUDE: f64 = 1e100;

/// Smallest magnitude any non-zero job field may have. Denormal and
/// near-denormal inputs lose precision in every division and are
/// rejected up front.
pub const MIN_MAGNITUDE: f64 = 1e-100;

/// A job or instance violates the QBSS model `(r, d, c, w, w*)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelError {
    /// A field is NaN or ±∞.
    NonFiniteField {
        /// Offending job.
        job: JobId,
    },
    /// A non-zero field lies outside `[MIN_MAGNITUDE, MAX_MAGNITUDE]`.
    MagnitudeOutOfRange {
        /// Offending job.
        job: JobId,
        /// The out-of-range value.
        value: f64,
    },
    /// `d ≤ r` (up to the workspace time tolerance).
    EmptyWindow {
        /// Offending job.
        job: JobId,
        /// Release time.
        release: f64,
        /// Deadline.
        deadline: f64,
    },
    /// The query load is outside `(0, w]`.
    QueryLoadRange {
        /// Offending job.
        job: JobId,
        /// Query load `c`.
        query_load: f64,
        /// Upper-bound workload `w`.
        upper_bound: f64,
    },
    /// The exact load is outside `[0, w]`.
    ExactLoadRange {
        /// Offending job.
        job: JobId,
        /// Exact load `w*`.
        exact: f64,
        /// Upper-bound workload `w`.
        upper_bound: f64,
    },
    /// Two jobs share an id.
    DuplicateId {
        /// The repeated id.
        job: JobId,
    },
}

impl ModelError {
    /// The job the error refers to.
    pub fn job(&self) -> JobId {
        match *self {
            ModelError::NonFiniteField { job }
            | ModelError::MagnitudeOutOfRange { job, .. }
            | ModelError::EmptyWindow { job, .. }
            | ModelError::QueryLoadRange { job, .. }
            | ModelError::ExactLoadRange { job, .. }
            | ModelError::DuplicateId { job } => job,
        }
    }

    /// The fieldless discriminant — what fault-injection catalogs tag
    /// mutations with.
    pub fn kind(&self) -> ModelErrorKind {
        match self {
            ModelError::NonFiniteField { .. } => ModelErrorKind::NonFiniteField,
            ModelError::MagnitudeOutOfRange { .. } => ModelErrorKind::MagnitudeOutOfRange,
            ModelError::EmptyWindow { .. } => ModelErrorKind::EmptyWindow,
            ModelError::QueryLoadRange { .. } => ModelErrorKind::QueryLoadRange,
            ModelError::ExactLoadRange { .. } => ModelErrorKind::ExactLoadRange,
            ModelError::DuplicateId { .. } => ModelErrorKind::DuplicateId,
        }
    }
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ModelError::NonFiniteField { job } => {
                write!(f, "job {job}: non-finite field")
            }
            ModelError::MagnitudeOutOfRange { job, value } => {
                write!(
                    f,
                    "job {job}: magnitude out of range (|{value}| outside \
                     [{MIN_MAGNITUDE:e}, {MAX_MAGNITUDE:e}])"
                )
            }
            ModelError::EmptyWindow { job, release, deadline } => {
                write!(f, "job {job}: empty window ({release}, {deadline}]")
            }
            ModelError::QueryLoadRange { job, query_load, upper_bound } => {
                write!(
                    f,
                    "job {job}: query load must be in (0, w] (c={query_load}, w={upper_bound})"
                )
            }
            ModelError::ExactLoadRange { job, exact, upper_bound } => {
                write!(
                    f,
                    "job {job}: exact load must be in [0, w] (w*={exact}, w={upper_bound})"
                )
            }
            ModelError::DuplicateId { job } => {
                write!(f, "job {job}: duplicate job id")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Fieldless discriminant of [`ModelError`] — the tag a fault-injection
/// mutation carries to say which variant it must trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelErrorKind {
    /// NaN / ±∞ field.
    NonFiniteField,
    /// Finite but absurdly large or small field.
    MagnitudeOutOfRange,
    /// `d ≤ r`.
    EmptyWindow,
    /// `c` outside `(0, w]`.
    QueryLoadRange,
    /// `w*` outside `[0, w]`.
    ExactLoadRange,
    /// Repeated job id.
    DuplicateId,
}

/// An outcome failed [`crate::outcome::QbssOutcome::validate`] — the
/// structural trust-anchor check tying decisions and schedule to the
/// instance.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// Number of decisions differs from the number of jobs.
    DecisionCount {
        /// Decisions present.
        got: usize,
        /// Jobs in the instance.
        expected: usize,
    },
    /// A decision references a job id not in the instance.
    UnknownJob {
        /// The unknown id.
        job: JobId,
    },
    /// Two decisions reference the same job.
    DuplicateDecision {
        /// The repeated id.
        job: JobId,
    },
    /// A queried decision carries no splitting point.
    MissingSplit {
        /// Offending job.
        job: JobId,
    },
    /// An unqueried decision carries a splitting point.
    UnexpectedSplit {
        /// Offending job.
        job: JobId,
    },
    /// The splitting point is outside the open window `(r, d)`.
    SplitOutsideWindow {
        /// Offending job.
        job: JobId,
        /// The split.
        tau: f64,
        /// Window start.
        release: f64,
        /// Window end.
        deadline: f64,
    },
    /// The schedule failed the generic checker.
    Schedule(ScheduleError),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::DecisionCount { got, expected } => {
                write!(f, "{got} decisions for {expected} jobs")
            }
            ValidationError::UnknownJob { job } => {
                write!(f, "decision for unknown job {job}")
            }
            ValidationError::DuplicateDecision { job } => {
                write!(f, "duplicate decision for job {job}")
            }
            ValidationError::MissingSplit { job } => {
                write!(f, "queried job {job} without split")
            }
            ValidationError::UnexpectedSplit { job } => {
                write!(f, "split recorded for unqueried job {job}")
            }
            ValidationError::SplitOutsideWindow { job, tau, release, deadline } => {
                write!(f, "split {tau} outside ({release}, {deadline}) for job {job}")
            }
            ValidationError::Schedule(e) => {
                write!(f, "schedule check failed: {e}")
            }
        }
    }
}

impl std::error::Error for ValidationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ValidationError::Schedule(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScheduleError> for ValidationError {
    fn from(e: ScheduleError) -> Self {
        ValidationError::Schedule(e)
    }
}

/// An algorithm cannot produce an outcome for the given instance.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgorithmError {
    /// The instance itself violates the model (algorithms validate
    /// before touching any arithmetic).
    InvalidInstance(ModelError),
    /// The algorithm needs at least one job.
    EmptyInstance {
        /// Algorithm name.
        algorithm: &'static str,
    },
    /// The instance is outside the algorithm's stated scope (e.g. CRCD
    /// without a common deadline).
    UnsupportedStructure {
        /// Algorithm name.
        algorithm: &'static str,
        /// Human-readable scope violation.
        reason: String,
    },
    /// A randomized rule was passed to a deterministic entry point.
    RandomizedRule {
        /// Algorithm name.
        algorithm: &'static str,
    },
    /// The strategy cannot run online: its split reads `w*` before the
    /// query completes, or its split fraction lies outside `(0, 1)`.
    InvalidStrategy {
        /// Algorithm name.
        algorithm: &'static str,
        /// Human-readable reason.
        reason: String,
    },
    /// The derived speed profile could not carry the derived jobs — a
    /// numerical breakdown, since the construction is feasible on paper.
    Infeasible {
        /// Algorithm name.
        algorithm: &'static str,
        /// The EDF deadline miss.
        source: EdfInfeasible,
    },
    /// A computed decision or derived job is inconsistent (machine-made
    /// decisions failing their own sanity check — numerical breakdown).
    Inconsistent {
        /// Algorithm name.
        algorithm: &'static str,
        /// The underlying consistency failure.
        source: ValidationError,
    },
}

impl fmt::Display for AlgorithmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgorithmError::InvalidInstance(e) => write!(f, "invalid instance: {e}"),
            AlgorithmError::EmptyInstance { algorithm } => {
                write!(f, "{algorithm} needs at least one job")
            }
            AlgorithmError::UnsupportedStructure { algorithm, reason } => {
                write!(f, "{algorithm} requires {reason}")
            }
            AlgorithmError::RandomizedRule { algorithm } => {
                write!(f, "{algorithm} is a deterministic algorithm")
            }
            AlgorithmError::InvalidStrategy { algorithm, reason } => {
                write!(f, "{algorithm} cannot run this strategy online: {reason}")
            }
            AlgorithmError::Infeasible { algorithm, source } => {
                write!(f, "{algorithm}: derived schedule infeasible: {source}")
            }
            AlgorithmError::Inconsistent { algorithm, source } => {
                write!(f, "{algorithm}: inconsistent decisions: {source}")
            }
        }
    }
}

impl std::error::Error for AlgorithmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AlgorithmError::InvalidInstance(e) => Some(e),
            AlgorithmError::Infeasible { source, .. } => Some(source),
            AlgorithmError::Inconsistent { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<ModelError> for AlgorithmError {
    fn from(e: ModelError) -> Self {
        AlgorithmError::InvalidInstance(e)
    }
}

/// Umbrella error of the checked pipeline
/// ([`crate::pipeline::run_checked`]): validate → run → validate
/// outcome → check finiteness.
#[derive(Debug, Clone, PartialEq)]
pub enum QbssError {
    /// The input instance violates the model.
    Model(ModelError),
    /// The algorithm rejected the (model-valid) instance.
    Algorithm(AlgorithmError),
    /// The produced outcome failed structural validation.
    Validation(ValidationError),
    /// The outcome's energy or peak speed is NaN or ±∞.
    NonFiniteCost {
        /// Algorithm name (from the outcome).
        algorithm: String,
    },
    /// The requested power exponent is outside the model (`α > 1`,
    /// finite).
    InvalidAlpha {
        /// The offending exponent.
        alpha: f64,
    },
}

impl fmt::Display for QbssError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QbssError::Model(e) => write!(f, "model error: {e}"),
            QbssError::Algorithm(e) => write!(f, "algorithm error: {e}"),
            QbssError::Validation(e) => write!(f, "outcome validation failed: {e}"),
            QbssError::NonFiniteCost { algorithm } => {
                write!(f, "{algorithm}: non-finite energy or peak speed")
            }
            QbssError::InvalidAlpha { alpha } => {
                write!(f, "the power exponent must be finite and > 1, got {alpha}")
            }
        }
    }
}

impl std::error::Error for QbssError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QbssError::Model(e) => Some(e),
            QbssError::Algorithm(e) => Some(e),
            QbssError::Validation(e) => Some(e),
            QbssError::NonFiniteCost { .. } | QbssError::InvalidAlpha { .. } => None,
        }
    }
}

impl From<ModelError> for QbssError {
    fn from(e: ModelError) -> Self {
        QbssError::Model(e)
    }
}

impl From<AlgorithmError> for QbssError {
    fn from(e: AlgorithmError) -> Self {
        QbssError::Algorithm(e)
    }
}

impl From<ValidationError> for QbssError {
    fn from(e: ValidationError) -> Self {
        QbssError::Validation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_keep_legacy_substrings() {
        // Downstream code greps these fragments; keep them stable.
        let e = ModelError::NonFiniteField { job: 3 };
        assert!(e.to_string().contains("non-finite field"));
        let e = ModelError::EmptyWindow { job: 0, release: 1.0, deadline: 1.0 };
        assert!(e.to_string().contains("empty window"));
        let e = ModelError::QueryLoadRange { job: 0, query_load: 0.0, upper_bound: 1.0 };
        assert!(e.to_string().contains("query load must be in (0, w]"));
        let e = ModelError::ExactLoadRange { job: 0, exact: 2.0, upper_bound: 1.0 };
        assert!(e.to_string().contains("exact load must be in [0, w]"));
        let e = ValidationError::DecisionCount { got: 0, expected: 1 };
        assert!(e.to_string().contains("0 decisions"));
        let e = ValidationError::MissingSplit { job: 7 };
        assert!(e.to_string().contains("without split"));
        let e = ValidationError::UnexpectedSplit { job: 7 };
        assert!(e.to_string().contains("unqueried"));
        let e = ValidationError::SplitOutsideWindow {
            job: 1,
            tau: 5.0,
            release: 0.0,
            deadline: 2.0,
        };
        assert!(e.to_string().contains("outside"));
    }

    #[test]
    fn kinds_match_variants() {
        assert_eq!(
            ModelError::DuplicateId { job: 1 }.kind(),
            ModelErrorKind::DuplicateId
        );
        assert_eq!(
            ModelError::MagnitudeOutOfRange { job: 1, value: 1e300 }.kind(),
            ModelErrorKind::MagnitudeOutOfRange
        );
    }

    #[test]
    fn error_sources_chain() {
        use std::error::Error as _;
        let slice = speed_scaling::Slice { job: 0, machine: 3, start: 0.0, end: 1.0, speed: 1.0 };
        let v = ValidationError::Schedule(ScheduleError::BadMachine(slice));
        assert!(v.source().is_some());
        let q = QbssError::Validation(v);
        assert!(q.source().is_some());
    }
}
