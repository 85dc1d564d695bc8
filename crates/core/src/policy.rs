//! Query and splitting policies.
//!
//! Every QBSS algorithm answers two questions per job (§1 of the paper):
//!
//! 1. **Query or not?** — a [`QueryRule`]. The paper's workhorse is the
//!    *golden-ratio rule*: query iff `c_j ≤ w_j/φ`, which guarantees
//!    `p_j ≤ φ p*_j` (Lemma 3.1). `Never` is unboundedly bad
//!    (Lemma 4.1); `Always` costs a factor ≤ 2 in load.
//! 2. **Where to split the window?** — a [`SplitRule`] choosing
//!    `τ_j = r_j + x(d_j − r_j)`. The paper's algorithms are
//!    *equal-window* (`x = 1/2`); the `Oracle` rule (only legal in the
//!    oracle model of §4.1) splits so the post-query speed is constant.
//!
//! An online algorithm answers both at a job's release, from its
//! visible part alone: that is the [`OnlinePolicy`] hook the streaming
//! engine ([`crate::stream::StreamingSolver`]) consults per arrival.

use rand::Rng;
use speed_scaling::time::EPS;

use crate::model::{QJob, VisibleJob};

/// The golden ratio `φ = (1 + √5)/2 ≈ 1.618`.
pub const PHI: f64 = 1.618_033_988_749_895;

/// `1/φ = φ − 1 ≈ 0.618`.
pub const INV_PHI: f64 = PHI - 1.0;

/// Decides whether to query a job, given its visible data.
///
/// ```
/// use qbss_core::policy::{NoRandomness, QueryRule};
///
/// // Query iff c ≤ w/φ: 0.6 ≤ 1/1.618 ≈ 0.618 → query; 0.63 → skip.
/// let rule = QueryRule::GoldenRatio;
/// assert!(rule.decide_visible(0.60, 1.0, &mut NoRandomness));
/// assert!(!rule.decide_visible(0.63, 1.0, &mut NoRandomness));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryRule {
    /// Never query (executes `w_j`; unboundedly bad — Lemma 4.1).
    Never,
    /// Always query (AVRQ's choice).
    Always,
    /// Query iff `c_j ≤ w_j/φ` (Lemma 3.1; used by CRCD/CRP2D/CRAD/BKPQ).
    GoldenRatio,
    /// Query iff `c_j ≤ θ·w_j` — the threshold-sweep ablation
    /// (`θ = 1/φ` recovers [`QueryRule::GoldenRatio`]).
    Threshold(f64),
    /// Query independently with probability `p` (Lemma 4.4 experiments).
    Probabilistic(f64),
}

impl QueryRule {
    /// Applies the rule. `rng` is consulted only by
    /// [`QueryRule::Probabilistic`].
    pub fn decide<R: Rng + ?Sized>(&self, job: &QJob, rng: &mut R) -> bool {
        self.decide_visible(job.query_load, job.upper_bound, rng)
    }

    /// Rule application on raw `(c, w)` (what an online algorithm sees).
    pub fn decide_visible<R: Rng + ?Sized>(&self, c: f64, w: f64, rng: &mut R) -> bool {
        match *self {
            QueryRule::Never => false,
            QueryRule::Always => true,
            // Compare multiplicatively to avoid a division.
            QueryRule::GoldenRatio => c * PHI <= w + EPS,
            QueryRule::Threshold(theta) => c <= theta * w + EPS,
            // NaN-proof clamp: a NaN probability degrades to "never".
            QueryRule::Probabilistic(p) => rng.gen_bool(if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) }),
        }
    }

    /// Whether the rule needs randomness.
    pub fn is_randomized(&self) -> bool {
        matches!(self, QueryRule::Probabilistic(_))
    }
}

/// Chooses the splitting point `τ ∈ (r, d)` of a queried job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SplitRule {
    /// `τ = (r + d)/2` — the paper's equal-window split.
    EqualWindow,
    /// `τ = r + x(d − r)` for a fixed `x ∈ (0, 1)` — the split-sweep
    /// ablation.
    Fraction(f64),
    /// The oracle split `x = c/(c + w*)`, which equalizes the query and
    /// exact-work speeds. **Reads the hidden `w*`** — only legal in the
    /// oracle model of §4.1 (lower-bound experiments).
    Oracle,
    /// The *expected-oracle* heuristic `x = c/(c + w/2)`: the oracle
    /// split under the prior `E[w*] = w/2`. Uses only visible data, so
    /// it is online-legal — an ablation candidate against the paper's
    /// equal window (see `exp_ablation_split`).
    ExpectedOracle,
}

impl SplitRule {
    /// The splitting point for `job`.
    pub fn split(&self, job: &QJob) -> f64 {
        let x = self
            .visible_fraction(&job.visible())
            .unwrap_or_else(|| oracle_fraction(job.query_load, job.reveal_exact()));
        job.release + x * (job.deadline - job.release)
    }

    /// The split fraction `x` from the job's visible part alone, or
    /// `None` for [`SplitRule::Oracle`], which needs the hidden `w*`.
    pub(crate) fn visible_fraction(&self, job: &VisibleJob) -> Option<f64> {
        match *self {
            SplitRule::EqualWindow => Some(0.5),
            SplitRule::Fraction(x) => {
                assert!(x > 0.0 && x < 1.0, "split fraction must be in (0,1), got {x}");
                Some(x)
            }
            SplitRule::Oracle => None,
            SplitRule::ExpectedOracle => {
                Some(oracle_fraction(job.query_load, 0.5 * job.upper_bound))
            }
        }
    }
}

/// The oracle split fraction `x = c/(c + w*)`, clamped away from the
/// window endpoints (a query has positive load, so `x > 0` always; `w* = 0`
/// pushes `x → 1`, which we cap so the exact-work window stays non-empty
/// for the schedule representation — with `w* = 0` no work runs there
/// anyway).
pub fn oracle_fraction(c: f64, w_star: f64) -> f64 {
    debug_assert!(c > 0.0);
    let x = c / (c + w_star);
    x.clamp(1e-6, 1.0 - 1e-6)
}

/// An RNG for contexts that must be deterministic: panics if any
/// randomness is consumed. Pass it to [`QueryRule::decide`] when the
/// rule is known to be deterministic (the deterministic algorithms of
/// the paper assert this).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoRandomness;

impl rand::RngCore for NoRandomness {
    fn next_u32(&mut self) -> u32 {
        unreachable!("deterministic rule must not consume randomness")
    }
    fn next_u64(&mut self) -> u64 {
        unreachable!("deterministic rule must not consume randomness")
    }
    fn fill_bytes(&mut self, _dest: &mut [u8]) {
        unreachable!("deterministic rule must not consume randomness")
    }
    fn try_fill_bytes(&mut self, _dest: &mut [u8]) -> Result<(), rand::Error> {
        unreachable!("deterministic rule must not consume randomness")
    }
}

/// The online decision hook: called once per job, at its release, by
/// [`crate::stream::StreamingSolver`]. It is handed only the job's
/// [`VisibleJob`] part — `w*` is not in its argument — and answers
/// `Some(τ)` for "query, and split the window at `τ`" or `None` for
/// "run the upper bound `w` unqueried". The solver rejects a `τ`
/// outside the open window `(r, d)` (NaN included) and leaves its state
/// unchanged.
///
/// ```
/// use qbss_core::{Algorithm, OnlinePolicy, QJob, StreamingSolver, VisibleJob};
///
/// /// Queries every job and splits its window at the midpoint.
/// struct Midpoint;
///
/// impl OnlinePolicy for Midpoint {
///     fn decide(&mut self, job: &VisibleJob) -> Option<f64> {
///         Some(0.5 * (job.release + job.deadline))
///     }
/// }
///
/// let mut solver = StreamingSolver::new(Algorithm::Avrq, Box::new(Midpoint)).unwrap();
/// solver.on_arrival(QJob::new(0, 0.0, 2.0, 0.5, 2.0, 1.0)).unwrap();
/// assert_eq!(solver.speed(), 0.5); // the query part: c = 0.5 on (0, 1]
/// solver.advance_to(1.5).unwrap(); // the query completed at τ = 1: w* = 1 on (1, 2]
/// assert_eq!(solver.speed(), 1.0);
/// let outcome = solver.finish().unwrap();
/// assert_eq!(outcome.decisions[0].split, Some(1.0));
/// ```
pub trait OnlinePolicy {
    /// Decides for a newly released job: `Some(τ)` queries it and
    /// splits at `τ`, `None` does not query it.
    fn decide(&mut self, job: &VisibleJob) -> Option<f64>;
}

/// A complete per-job strategy: a query rule plus a splitting rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Strategy {
    /// Query decision rule.
    pub query: QueryRule,
    /// Splitting-point rule for queried jobs.
    pub split: SplitRule,
}

impl Strategy {
    /// The paper's default: golden-ratio rule with equal windows.
    pub fn golden_equal() -> Self {
        Self { query: QueryRule::GoldenRatio, split: SplitRule::EqualWindow }
    }

    /// AVRQ's strategy: always query, equal windows.
    pub fn always_equal() -> Self {
        Self { query: QueryRule::Always, split: SplitRule::EqualWindow }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::mock::StepRng;
    use rand::SeedableRng;

    fn job(c: f64, w: f64, exact: f64) -> QJob {
        QJob::new(0, 0.0, 1.0, c, w, exact)
    }

    fn rng() -> StepRng {
        StepRng::new(0, 1)
    }

    #[test]
    fn golden_ratio_threshold() {
        let mut r = rng();
        // c = 0.6, w = 1: 0.6·φ ≈ 0.97 ≤ 1 → query.
        assert!(QueryRule::GoldenRatio.decide(&job(0.6, 1.0, 0.0), &mut r));
        // c = 0.63, w = 1: 0.63·φ ≈ 1.019 > 1 → no query.
        assert!(!QueryRule::GoldenRatio.decide(&job(0.63, 1.0, 0.0), &mut r));
        // Exactly w/φ: query (the rule is ≤).
        assert!(QueryRule::GoldenRatio.decide(&job(INV_PHI, 1.0, 0.0), &mut r));
    }

    #[test]
    fn golden_ratio_equals_threshold_inv_phi() {
        let mut r = rng();
        for &(c, w) in &[(0.1, 1.0), (0.5, 1.0), (0.618, 1.0), (0.7, 1.0), (1.0, 1.0)] {
            assert_eq!(
                QueryRule::GoldenRatio.decide_visible(c, w, &mut r),
                QueryRule::Threshold(INV_PHI).decide_visible(c, w, &mut r),
                "c={c}"
            );
        }
    }

    #[test]
    fn never_and_always() {
        let mut r = rng();
        assert!(!QueryRule::Never.decide(&job(0.01, 1.0, 0.0), &mut r));
        assert!(QueryRule::Always.decide(&job(1.0, 1.0, 1.0), &mut r));
    }

    #[test]
    fn probabilistic_extremes() {
        let mut r = rand::rngs::StdRng::seed_from_u64(7);
        assert!(!QueryRule::Probabilistic(0.0).decide(&job(0.5, 1.0, 0.0), &mut r));
        assert!(QueryRule::Probabilistic(1.0).decide(&job(0.5, 1.0, 0.0), &mut r));
        let hits = (0..10_000)
            .filter(|_| QueryRule::Probabilistic(0.3).decide(&job(0.5, 1.0, 0.0), &mut r))
            .count();
        assert!((2_700..3_300).contains(&hits), "got {hits} / 10000");
    }

    #[test]
    fn equal_window_split_is_midpoint() {
        let j = QJob::new(0, 2.0, 6.0, 1.0, 2.0, 1.0);
        assert!((SplitRule::EqualWindow.split(&j) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_split() {
        let j = QJob::new(0, 0.0, 10.0, 1.0, 2.0, 1.0);
        assert!((SplitRule::Fraction(0.25).split(&j) - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "split fraction")]
    fn fraction_out_of_range_panics() {
        let j = QJob::new(0, 0.0, 1.0, 1.0, 2.0, 1.0);
        let _ = SplitRule::Fraction(1.0).split(&j);
    }

    #[test]
    fn oracle_split_equalizes_speeds() {
        // c = 1, w* = 3 on a unit window: x = 1/4; query speed =
        // 1/(1/4) = 4, work speed = 3/(3/4) = 4.
        let j = QJob::new(0, 0.0, 1.0, 1.0, 4.0, 3.0);
        let tau = SplitRule::Oracle.split(&j);
        assert!((tau - 0.25).abs() < 1e-9);
        let s1 = j.query_load / tau;
        let s2 = j.reveal_exact() / (1.0 - tau);
        assert!((s1 - s2).abs() < 1e-9);
    }

    #[test]
    fn expected_oracle_split_uses_visible_data_only() {
        // x = c/(c + w/2): c = 1, w = 4 → x = 1/3, independent of w*.
        let a = QJob::new(0, 0.0, 3.0, 1.0, 4.0, 0.0);
        let b = QJob::new(0, 0.0, 3.0, 1.0, 4.0, 4.0);
        let (ta, tb) = (SplitRule::ExpectedOracle.split(&a), SplitRule::ExpectedOracle.split(&b));
        assert!((ta - 1.0).abs() < 1e-12);
        assert_eq!(ta, tb, "must not depend on the hidden w*");
    }

    #[test]
    fn oracle_split_zero_exact_caps_near_one() {
        let x = oracle_fraction(1.0, 0.0);
        assert!(x < 1.0 && x > 0.99);
    }

    #[test]
    fn phi_identity() {
        // φ² = φ + 1 — the identity the paper's bounds lean on.
        assert!((PHI * PHI - (PHI + 1.0)).abs() < 1e-12);
        assert!((1.0 / PHI - INV_PHI).abs() < 1e-12);
    }
}
