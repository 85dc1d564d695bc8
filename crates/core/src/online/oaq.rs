//! OAQ — Optimal Available with queries (the paper's open question, §7).
//!
//! The paper closes by asking whether OA extends to the QBSS model. OAQ
//! is the natural candidate: decide queries with the golden-ratio rule,
//! split at the midpoint, and run OA on the derived jobs. No competitive
//! bound is claimed here — OAQ exists as the **extension/ablation**
//! implementation, compared empirically against AVRQ and BKPQ by the
//! `exp_ablation_threshold` experiment (E10 in DESIGN.md). Its derived
//! profile is `α^α`-competitive against the optimum *of the derived
//! instance*, which the experiments confirm is usually far below AVRQ's
//! energy in practice.

use speed_scaling::oa::oa_profile;
use speed_scaling::profile::SpeedProfile;

use crate::error::AlgorithmError;
use crate::model::QbssInstance;
use crate::outcome::QbssOutcome;
use crate::pipeline::Algorithm;
use crate::policy::{NoRandomness, Strategy};
use crate::stream::{batch_outcome, solver_for};

use super::online_derive;

/// The OAQ speed profile (OA on the golden-rule derived instance).
pub fn oaq_profile(inst: &QbssInstance) -> SpeedProfile {
    let (_, derived) = online_derive(inst, Strategy::golden_equal(), &mut NoRandomness);
    oa_profile(&derived)
}

/// Runs OAQ and returns the validated outcome.
pub fn oaq(inst: &QbssInstance) -> QbssOutcome {
    try_oaq(inst).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible version of [`oaq`]: validates the instance and rejects
/// empty input with typed errors. A thin adapter over the streaming
/// engine ([`solver_for`]): jobs are fed in canonical arrival order and
/// the stream is finished.
pub fn try_oaq(inst: &QbssInstance) -> Result<QbssOutcome, AlgorithmError> {
    batch_outcome(solver_for(Algorithm::Oaq)?, inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QJob;

    fn online_instance() -> QbssInstance {
        QbssInstance::new(vec![
            QJob::new(0, 0.0, 4.0, 0.5, 2.0, 1.0),
            QJob::new(1, 1.0, 3.0, 0.9, 1.0, 0.0),
            QJob::new(2, 2.0, 6.0, 1.0, 3.0, 3.0),
        ])
    }

    #[test]
    fn outcome_validates() {
        let inst = online_instance();
        let out = oaq(&inst);
        out.validate(&inst).expect("OAQ outcome must validate");
    }

    #[test]
    fn oaq_never_beats_clairvoyant_opt() {
        let inst = online_instance();
        let out = oaq(&inst);
        for &alpha in &[2.0, 3.0] {
            assert!(out.energy_ratio(&inst, alpha) + 1e-9 >= 1.0);
        }
    }

    #[test]
    fn oaq_uses_golden_rule() {
        let inst = online_instance();
        let out = oaq(&inst);
        let queried: Vec<bool> = out.decisions.iter().map(|d| d.queried).collect();
        assert_eq!(queried, vec![true, false, true]);
    }

    #[test]
    fn oaq_competitive_with_avrq_on_common_release() {
        // With common releases OA plans once with YDS, which flattens
        // speeds — OAQ should not be worse than AVRQ here.
        let inst = QbssInstance::new(vec![
            QJob::new(0, 0.0, 2.0, 0.3, 1.0, 0.2),
            QJob::new(1, 0.0, 4.0, 0.5, 2.0, 0.4),
            QJob::new(2, 0.0, 8.0, 0.2, 3.0, 0.1),
        ]);
        let alpha = 3.0;
        let oaq_e = oaq(&inst).energy(alpha);
        let avrq_e = super::super::avrq::avrq(&inst).energy(alpha);
        assert!(oaq_e <= avrq_e * (1.0 + 1e-9), "OAQ {oaq_e} vs AVRQ {avrq_e}");
    }
}
