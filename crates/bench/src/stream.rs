//! Streaming sessions — the bench/serve-facing wrapper over
//! [`qbss_core::stream::StreamingSolver`] (DESIGN.md §14).
//!
//! A [`StreamSession`] owns a streaming solver plus the arrivals
//! fed so far, and finishes with the same guard chain as the batch
//! pipeline ([`qbss_core::pipeline::run_evaluated`]): outcome
//! validation against the accumulated instance, then the energy and
//! peak-speed finiteness gate at the session's `α`. A session fed the
//! canonical arrival order therefore yields an [`Evaluated`]
//! bit-identical to the batch run of the same jobs.

use qbss_core::error::QbssError;
use qbss_core::model::{QJob, QbssInstance};
use qbss_core::pipeline::{Algorithm, Evaluated};
use qbss_core::stream::{solver_for, SpeedDelta, StreamError, StreamingSolver};

/// One live streaming run: arrivals in, an [`Evaluated`] out.
pub struct StreamSession {
    solver: StreamingSolver,
    alpha: f64,
    jobs: Vec<QJob>,
}

impl StreamSession {
    /// Opens a session for `algorithm` at power exponent `alpha`.
    ///
    /// Rejects non-streamable algorithms
    /// ([`qbss_core::error::AlgorithmError::UnsupportedStructure`]) and
    /// invalid exponents with the same typed errors as the batch
    /// pipeline.
    pub fn new(algorithm: Algorithm, alpha: f64) -> Result<Self, QbssError> {
        if !alpha.is_finite() || alpha <= 1.0 {
            return Err(QbssError::InvalidAlpha { alpha });
        }
        let solver = solver_for(algorithm)?;
        Ok(Self { solver, alpha, jobs: Vec::new() })
    }

    /// The algorithm this session runs.
    pub fn algorithm(&self) -> Algorithm {
        self.solver.algorithm()
    }

    /// The power exponent the session will be evaluated at.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The stream clock (`−∞` before the first event).
    pub fn now(&self) -> f64 {
        self.solver.now()
    }

    /// The live speed at the stream clock.
    pub fn speed(&self) -> f64 {
        self.solver.speed()
    }

    /// Events (arrivals and advances) processed so far.
    pub fn events(&self) -> u64 {
        self.solver.events()
    }

    /// Jobs fed so far.
    pub fn jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Feeds one arriving job; on success returns the speed change at
    /// the arrival instant. Rejected arrivals leave the session
    /// unchanged.
    pub fn arrive(&mut self, job: QJob) -> Result<SpeedDelta, StreamError> {
        let delta = self.solver.on_arrival(job)?;
        self.jobs.push(job);
        Ok(delta)
    }

    /// Advances the stream clock with no arrival (releases completed
    /// queries' exact parts, commits planned speed).
    pub fn advance_to(&mut self, t: f64) -> Result<(), StreamError> {
        self.solver.advance_to(t)
    }

    /// Finishes the session: the solver runs out its horizon and the
    /// outcome passes the batch pipeline's guards (validation against
    /// the fed arrivals, finiteness at `α`).
    pub fn finish(self) -> Result<Evaluated, QbssError> {
        let Self { solver, alpha, jobs } = self;
        let inst = QbssInstance::new(jobs);
        let outcome = solver.finish()?;
        outcome.validate(&inst)?;
        let ev = Evaluated::cost(outcome, alpha);
        ev.gate()?;
        Ok(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbss_core::pipeline::run_evaluated;
    use qbss_core::stream::arrival_ordered;

    fn inst() -> QbssInstance {
        QbssInstance::new(vec![
            QJob::new(0, 0.0, 4.0, 0.5, 2.0, 1.0),
            QJob::new(1, 1.0, 3.0, 0.9, 1.0, 0.0),
            QJob::new(2, 2.0, 6.0, 1.0, 3.0, 3.0),
        ])
    }

    #[test]
    fn session_matches_batch_pipeline_bitwise() {
        let inst = inst();
        for algorithm in [Algorithm::Avrq, Algorithm::Bkpq, Algorithm::Oaq] {
            let batch = run_evaluated(&inst, 3.0, algorithm).expect("batch");
            let mut session = StreamSession::new(algorithm, 3.0).expect("session");
            for job in arrival_ordered(&inst) {
                session.arrive(job).expect("arrive");
            }
            let streamed = session.finish().expect("finish");
            assert_eq!(
                format!("{:?}", batch.outcome),
                format!("{:?}", streamed.outcome),
                "{algorithm}"
            );
            assert_eq!(batch.energy.to_bits(), streamed.energy.to_bits());
            assert_eq!(batch.max_speed.to_bits(), streamed.max_speed.to_bits());
        }
    }

    #[test]
    fn invalid_alpha_is_rejected_at_open() {
        assert!(matches!(
            StreamSession::new(Algorithm::Oaq, 1.0),
            Err(QbssError::InvalidAlpha { .. })
        ));
    }

    #[test]
    fn batch_only_algorithms_are_rejected_at_open() {
        assert!(StreamSession::new(Algorithm::Crcd, 3.0).is_err());
    }

    #[test]
    fn live_state_tracks_the_stream() {
        let mut s = StreamSession::new(Algorithm::Avrq, 3.0).expect("session");
        assert_eq!(s.events(), 0);
        assert_eq!(s.speed(), 0.0);
        s.arrive(QJob::new(0, 0.0, 2.0, 0.5, 2.0, 1.0)).expect("arrive");
        assert_eq!(s.jobs(), 1);
        assert!(s.speed() > 0.0);
        assert_eq!(s.now(), 0.0);
    }
}
