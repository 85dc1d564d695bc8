//! Online QBSS algorithms (§5–§6 of the paper).
//!
//! Jobs arrive at their release times; nothing about a job (including
//! its existence) is known earlier, and `w*_j` is known only after the
//! query completes at the splitting point. Each algorithm fixes a
//! per-job strategy at arrival and feeds the resulting derived classical
//! jobs to a classical online substrate:
//!
//! | algorithm | query rule | split | substrate | energy ratio |
//! |-----------|-----------|-------|-----------|--------------|
//! | [`avrq::avrq`] | always | midpoint | AVR | `2^{2α−1}α^α` |
//! | [`bkpq::bkpq`] | golden ratio | midpoint | BKP | `(2+φ)^α·2(α/(α−1))^α e^α` |
//! | [`oaq::oaq`] | golden ratio | midpoint | OA | open question (§7) |
//! | [`avrq_m::avrq_m`] | always | midpoint | AVR(m) | `2^α(2^{α−1}α^α+1)` |
//! | [`oaq_m::oaq_m`] | golden ratio | midpoint | OA(m) | open (extension) |
//!
//! AVRQ, BKPQ and OAQ run on the streaming engine
//! ([`crate::stream::StreamingSolver`]), which learns each job at its
//! release and its `w*` only at its splitting point. The `*_profile`
//! functions instead compute the derived profiles in one offline pass.
//! That is faithful to the online process because every substrate's
//! speed at time `t` depends only on derived jobs with release `≤ t`,
//! and a derived exact-work job is *released* exactly when the
//! information that defines it (`w*`) becomes available — at the
//! splitting point. `tests/properties.rs::stepped_simulation_matches_analytic`
//! checks it: on random instances, the engine's live speed after
//! `advance_to(t)` equals [`avrq_profile`] and [`bkpq_profile`] at
//! every segment midpoint.

pub mod avrq;
pub mod avrq_m;
pub mod bkpq;
pub mod oaq;
pub mod oaq_m;

use rand::Rng;
use speed_scaling::job::Instance;

use crate::decision::{decide_all, derived_instance, Decision};
use crate::model::QbssInstance;
use crate::policy::Strategy;

pub use avrq::{avr_star_profile, avrq, avrq_profile, avrq_with, try_avrq, try_avrq_with};
pub use avrq_m::{
    avr_star_m, avrq_m, avrq_m_nonmig, try_avrq_m, try_avrq_m_nonmig, AvrqMResult,
};
pub use bkpq::{
    bkp_star_profile, bkpq, bkpq_profile, bkpq_randomized, bkpq_with, try_bkpq,
    try_bkpq_randomized, try_bkpq_with,
};
pub use oaq::{oaq, oaq_profile, try_oaq};
pub use oaq_m::{oa_star_m, oaq_m, try_oaq_m};

/// Applies `strategy` at each arrival and materializes the derived
/// classical instance — the shared first phase of every online
/// algorithm. Returned decisions are in instance job order.
pub fn online_derive<R: Rng + ?Sized>(
    inst: &QbssInstance,
    strategy: Strategy,
    rng: &mut R,
) -> (Vec<Decision>, Instance) {
    let decisions = decide_all(inst, strategy, rng);
    let derived = derived_instance(inst, &decisions);
    (decisions, derived)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QJob;
    use crate::policy::NoRandomness;

    #[test]
    fn derive_respects_release_order_information() {
        // The derived exact-work job of a queried job is released at the
        // midpoint — i.e. when its query completes — never earlier.
        let inst = QbssInstance::new(vec![QJob::new(0, 1.0, 3.0, 0.5, 2.0, 1.0)]);
        let (dec, derived) = online_derive(&inst, Strategy::golden_equal(), &mut NoRandomness);
        assert!(dec[0].queried);
        assert_eq!(derived.jobs[1].release, 2.0);
        assert_eq!(derived.jobs[1].work, 1.0);
    }
}
