//! BKPQ — BKP with queries (§5.2).
//!
//! BKPQ decides the query with the golden-ratio rule (`c_j ≤ w_j/φ`)
//! and splits queried jobs at the midpoint; BKP runs on the derived job
//! set.
//!
//! Theorem 5.4: `s^{BKPQ}(t) ≤ (2+φ) s^{BKP*}(t)` pointwise, where BKP*
//! is BKP on the clairvoyant instance; hence (Corollary 5.5) BKPQ is
//! `(2+φ)^α · 2(α/(α−1))^α e^α`-competitive for energy and `(2+φ)e`-
//! competitive for maximum speed.

use speed_scaling::bkp::bkp_profile;
use speed_scaling::edf::{edf_schedule, EdfTask};
use speed_scaling::profile::SpeedProfile;

use crate::error::AlgorithmError;
use crate::model::QbssInstance;
use crate::outcome::QbssOutcome;
use crate::pipeline::Algorithm;
use crate::policy::{NoRandomness, Strategy};
use crate::stream::{batch_outcome, StreamingSolver};

use super::online_derive;

/// The BKPQ speed profile (BKP on the golden-rule derived instance).
pub fn bkpq_profile(inst: &QbssInstance) -> SpeedProfile {
    let (_, derived) = online_derive(inst, Strategy::golden_equal(), &mut NoRandomness);
    bkp_profile(&derived)
}

/// The benchmark profile BKP* — BKP on the clairvoyant instance (the
/// right-hand side of Theorem 5.4).
pub fn bkp_star_profile(inst: &QbssInstance) -> SpeedProfile {
    bkp_profile(&inst.clairvoyant_instance())
}

/// Runs BKPQ and returns the validated outcome.
pub fn bkpq(inst: &QbssInstance) -> QbssOutcome {
    bkpq_with(inst, Strategy::golden_equal())
}

/// Fallible version of [`bkpq`].
pub fn try_bkpq(inst: &QbssInstance) -> Result<QbssOutcome, AlgorithmError> {
    try_bkpq_with(inst, Strategy::golden_equal())
}

/// BKPQ with an arbitrary deterministic strategy — the entry point of
/// the split-point and query-threshold ablations (E10). The paper's
/// BKPQ is `bkpq_with(inst, Strategy::golden_equal())`. Panicking
/// wrapper around [`try_bkpq_with`].
pub fn bkpq_with(inst: &QbssInstance, strategy: Strategy) -> QbssOutcome {
    try_bkpq_with(inst, strategy).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible version of [`bkpq_with`]: validates the instance and
/// rejects empty input and strategies that cannot run online
/// (randomized rules, the oracle split, fractions outside `(0, 1)`) with
/// typed errors. A thin adapter over the streaming engine
/// ([`StreamingSolver::with_strategy`]): jobs are fed in canonical
/// arrival order and the stream is finished.
pub fn try_bkpq_with(
    inst: &QbssInstance,
    strategy: Strategy,
) -> Result<QbssOutcome, AlgorithmError> {
    batch_outcome(StreamingSolver::with_strategy(Algorithm::Bkpq, strategy)?, inst)
}

/// The *randomized* BKPQ of the Lemma 4.4 experiments: each job is
/// queried independently with probability `p` (equal-window split).
/// Expected ratios are estimated by averaging over coin seeds; the
/// single-job minimax value of this family is `(1 + φ^α)/2` for energy
/// and `4/3` for maximum speed (Lemma 4.4).
pub fn bkpq_randomized<R: rand::Rng + ?Sized>(
    inst: &QbssInstance,
    p_query: f64,
    rng: &mut R,
) -> QbssOutcome {
    try_bkpq_randomized(inst, p_query, rng).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible version of [`bkpq_randomized`].
pub fn try_bkpq_randomized<R: rand::Rng + ?Sized>(
    inst: &QbssInstance,
    p_query: f64,
    rng: &mut R,
) -> Result<QbssOutcome, AlgorithmError> {
    const ALG: &str = "BKPQ-rand";
    inst.validate()?;
    if inst.is_empty() {
        return Err(AlgorithmError::EmptyInstance { algorithm: ALG });
    }
    let strategy = Strategy {
        query: crate::policy::QueryRule::Probabilistic(p_query.clamp(0.0, 1.0)),
        split: crate::policy::SplitRule::EqualWindow,
    };
    let (decisions, derived) = online_derive(inst, strategy, rng);
    let profile = bkp_profile(&derived);
    let schedule = edf_schedule(&EdfTask::from_instance(&derived), &profile, 0)
        .map_err(|source| AlgorithmError::Infeasible { algorithm: ALG, source })?;
    Ok(QbssOutcome { algorithm: ALG.into(), decisions, schedule })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QJob;
    use crate::policy::PHI;
    use std::f64::consts::E;

    fn online_instance() -> QbssInstance {
        QbssInstance::new(vec![
            QJob::new(0, 0.0, 4.0, 0.5, 2.0, 1.0),  // queried
            QJob::new(1, 1.0, 3.0, 0.9, 1.0, 0.0),  // not queried (0.9φ > 1)
            QJob::new(2, 2.0, 6.0, 1.0, 3.0, 3.0),  // queried, incompressible
        ])
    }

    #[test]
    fn outcome_validates() {
        let inst = online_instance();
        let out = bkpq(&inst);
        out.validate(&inst).expect("BKPQ outcome must validate");
        let queried: Vec<bool> = out.decisions.iter().map(|d| d.queried).collect();
        assert_eq!(queried, vec![true, false, true]);
    }

    #[test]
    fn theorem_5_4_pointwise_domination() {
        let inst = online_instance();
        bkpq_profile(&inst)
            .dominated_by(&bkp_star_profile(&inst), 2.0 + PHI)
            .expect("s^BKPQ(t) ≤ (2+φ) s^BKP*(t) must hold pointwise");
    }

    #[test]
    fn corollary_5_5_energy_and_speed_bounds() {
        let inst = online_instance();
        let out = bkpq(&inst);
        for &alpha in &[2.0, 3.0] {
            let bound = (2.0 + PHI).powf(alpha)
                * 2.0
                * (alpha / (alpha - 1.0)).powf(alpha)
                * E.powf(alpha);
            let ratio = out.energy_ratio(&inst, alpha);
            assert!(ratio <= bound + 1e-9, "BKPQ energy ratio {ratio} > bound at α={alpha}");
        }
        let sbound = (2.0 + PHI) * E;
        assert!(out.speed_ratio(&inst) <= sbound + 1e-9);
    }

    #[test]
    fn golden_rule_saves_on_expensive_queries() {
        // A job with a near-w query: the golden rule skips the query and
        // runs w = 1, while always-querying executes c + w* = 1.8 —
        // Lemma 3.1's point.
        let inst = QbssInstance::new(vec![QJob::new(0, 0.0, 2.0, 0.9, 1.0, 0.9)]);
        let out = bkpq(&inst);
        assert!(!out.decisions[0].queried);
        let golden_load = crate::decision::total_load(&inst, &out.decisions);
        let always = super::super::avrq::avrq(&inst);
        let always_load = crate::decision::total_load(&inst, &always.decisions);
        assert!((golden_load - 1.0).abs() < 1e-12);
        assert!((always_load - 1.8).abs() < 1e-12);
    }

    #[test]
    fn randomized_bkpq_validates_and_interpolates() {
        use rand::SeedableRng;
        let inst = online_instance();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        // p = 0 behaves like Never, p = 1 like Always.
        let none = bkpq_randomized(&inst, 0.0, &mut rng);
        assert!(none.decisions.iter().all(|d| !d.queried));
        none.validate(&inst).expect("valid");
        let all = bkpq_randomized(&inst, 1.0, &mut rng);
        assert!(all.decisions.iter().all(|d| d.queried));
        all.validate(&inst).expect("valid");
        // Intermediate p yields a mix over enough coins.
        let mut saw_query = false;
        let mut saw_skip = false;
        for seed in 0..20 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let out = bkpq_randomized(&inst, 0.5, &mut rng);
            out.validate(&inst).expect("valid");
            saw_query |= out.decisions.iter().any(|d| d.queried);
            saw_skip |= out.decisions.iter().any(|d| !d.queried);
        }
        assert!(saw_query && saw_skip);
    }

    #[test]
    fn single_compressible_job_profile() {
        // Queried job (0,2], c=0.5, w*=0: only the query runs, in the
        // first half. The BKP *profile* stays positive afterwards (BKP
        // does not discount executed work) but the machine idles: no
        // slice may exist after the query completes.
        let inst = QbssInstance::new(vec![QJob::new(0, 0.0, 2.0, 0.5, 2.0, 0.0)]);
        let p = bkpq_profile(&inst);
        assert!(p.speed_at(0.5) >= 0.5 - 1e-9);
        let out = bkpq(&inst);
        out.validate(&inst).expect("valid");
        assert!(
            out.schedule.slices.iter().all(|s| s.end <= 1.0 + 1e-9),
            "nothing to run after a zero w*"
        );
    }
}
