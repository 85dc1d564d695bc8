//! AVRQ — AVR with queries (§5.1).
//!
//! AVRQ queries *every* job at its midpoint: job `(r, d, c, w, w*)`
//! becomes the derived classical jobs `(r, (r+d)/2, c)` (created at `r`)
//! and `((r+d)/2, d, w*)` (created at the midpoint, when the query
//! completes), and AVR runs on the derived set.
//!
//! Theorem 5.2: `s^{AVRQ}(t) ≤ 2 s^{AVR*}(t)` pointwise, where AVR* is
//! AVR on the clairvoyant instance `{(r_j, d_j, p*_j)}`; hence AVRQ is
//! `2^α · 2^{α−1} α^α`-competitive for energy (Corollary 5.3). Lemma
//! 5.1 gives the `(2α)^α` lower bound.

use speed_scaling::avr::avr_profile;
use speed_scaling::profile::SpeedProfile;

use crate::error::AlgorithmError;
use crate::model::QbssInstance;
use crate::outcome::QbssOutcome;
use crate::pipeline::Algorithm;
use crate::policy::{NoRandomness, Strategy};
use crate::stream::{batch_outcome, StreamingSolver};

use super::online_derive;

/// The AVRQ speed profile (AVR on the derived always-query instance).
pub fn avrq_profile(inst: &QbssInstance) -> SpeedProfile {
    let (_, derived) = online_derive(inst, Strategy::always_equal(), &mut NoRandomness);
    avr_profile(&derived)
}

/// The benchmark profile AVR* — AVR run on the clairvoyant instance.
/// This is the right-hand side of Theorem 5.2.
pub fn avr_star_profile(inst: &QbssInstance) -> SpeedProfile {
    avr_profile(&inst.clairvoyant_instance())
}

/// Runs AVRQ and returns the validated outcome.
pub fn avrq(inst: &QbssInstance) -> QbssOutcome {
    avrq_with(inst, Strategy::always_equal())
}

/// Fallible version of [`avrq`].
pub fn try_avrq(inst: &QbssInstance) -> Result<QbssOutcome, AlgorithmError> {
    try_avrq_with(inst, Strategy::always_equal())
}

/// AVRQ with an arbitrary deterministic strategy — the entry point of
/// the split-point and query-threshold ablations (E10). The paper's
/// AVRQ is `avrq_with(inst, Strategy::always_equal())`. Panicking
/// wrapper around [`try_avrq_with`].
pub fn avrq_with(inst: &QbssInstance, strategy: Strategy) -> QbssOutcome {
    try_avrq_with(inst, strategy).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible version of [`avrq_with`]: validates the instance and
/// rejects empty input and strategies that cannot run online
/// (randomized rules, the oracle split, fractions outside `(0, 1)`) with
/// typed errors. A thin adapter over the streaming engine
/// ([`StreamingSolver::with_strategy`]): jobs are fed in canonical
/// arrival order and the stream is finished.
pub fn try_avrq_with(
    inst: &QbssInstance,
    strategy: Strategy,
) -> Result<QbssOutcome, AlgorithmError> {
    batch_outcome(StreamingSolver::with_strategy(Algorithm::Avrq, strategy)?, inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QJob;

    fn online_instance() -> QbssInstance {
        QbssInstance::new(vec![
            QJob::new(0, 0.0, 4.0, 0.5, 2.0, 1.0),
            QJob::new(1, 1.0, 3.0, 0.4, 1.0, 0.0),
            QJob::new(2, 2.0, 6.0, 1.0, 3.0, 3.0),
        ])
    }

    #[test]
    fn outcome_validates() {
        let inst = online_instance();
        let out = avrq(&inst);
        out.validate(&inst).expect("AVRQ outcome must validate");
        assert!(out.decisions.iter().all(|d| d.queried), "AVRQ queries everything");
    }

    #[test]
    fn splits_are_midpoints() {
        let inst = online_instance();
        let out = avrq(&inst);
        let mids = [2.0, 2.0, 4.0];
        for (dec, &mid) in out.decisions.iter().zip(&mids) {
            assert!((dec.split.unwrap() - mid).abs() < 1e-12);
        }
    }

    #[test]
    fn theorem_5_2_pointwise_domination() {
        let inst = online_instance();
        let avrq_p = avrq_profile(&inst);
        let star = avr_star_profile(&inst);
        avrq_p
            .dominated_by(&star, 2.0)
            .expect("s^AVRQ(t) ≤ 2 s^AVR*(t) must hold pointwise");
    }

    #[test]
    fn corollary_5_3_energy_bound() {
        let inst = online_instance();
        let out = avrq(&inst);
        for &alpha in &[2.0, 3.0] {
            let bound = 2.0f64.powf(2.0 * alpha - 1.0) * alpha.powf(alpha);
            let ratio = out.energy_ratio(&inst, alpha);
            assert!(ratio <= bound + 1e-9, "AVRQ ratio {ratio} > bound at α={alpha}");
        }
    }

    #[test]
    fn profile_speed_is_derived_density_sum() {
        // Single job (0,2], c=0.5, w*=1: density 0.5 on (0,1],
        // 1.0 on (1,2].
        let inst = QbssInstance::new(vec![QJob::new(0, 0.0, 2.0, 0.5, 2.0, 1.0)]);
        let p = avrq_profile(&inst);
        assert!((p.speed_at(0.5) - 0.5).abs() < 1e-12);
        assert!((p.speed_at(1.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn incompressible_job_still_queried() {
        // AVRQ pays the query even when w* = w; the derived second job
        // carries the full w in half the window (density doubles).
        let inst = QbssInstance::new(vec![QJob::new(0, 0.0, 2.0, 1.0, 1.0, 1.0)]);
        let p = avrq_profile(&inst);
        assert!((p.speed_at(1.5) - 1.0).abs() < 1e-12); // w*/(d-mid) = 1/1
        let out = avrq(&inst);
        out.validate(&inst).expect("valid");
    }
}
