//! The checked pipeline: validate → run → validate outcome → check
//! finiteness.
//!
//! [`run_checked`] / [`run_evaluated`] are the no-panic entry points the
//! CLI, the batch engine and the chaos harness drive: any malformed
//! instance, out-of-scope structure, numerical breakdown, or invalid
//! outcome comes back as a typed [`QbssError`] instead of a panic. The
//! produced outcome is re-validated against the instance and non-finite
//! costs are rejected, so a caller that gets `Ok` holds a structurally
//! sound, finite-cost schedule. The batch engine drives the two steps
//! separately, [`solve`] and [`Evaluated::gate`], so it can cost one
//! solve at every `α` of a sweep.
//!
//! [`Algorithm`] is the single dispatch point of the workspace: every
//! runnable configuration is one enum value, the full set is enumerable
//! via [`Algorithm::all`], and values round-trip through strings
//! (`Display` / `FromStr`) so command lines, sweep specs and reports all
//! speak the same names.

use std::fmt;
use std::str::FromStr;

use crate::error::QbssError;
use crate::model::QbssInstance;
use crate::offline::{try_crad, try_crcd, try_crp2d};
use crate::online::{try_avrq, try_avrq_m, try_avrq_m_nonmig, try_bkpq, try_oaq, try_oaq_m};
use crate::outcome::QbssOutcome;

/// Which QBSS algorithm [`run_checked`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Offline, common release + common deadline.
    Crcd,
    /// Offline, common release + power-of-two deadlines.
    Crp2d,
    /// Offline, common release + arbitrary deadlines.
    Crad,
    /// Online, AVR substrate, always query.
    Avrq,
    /// Online, BKP substrate, golden-ratio rule.
    Bkpq,
    /// Online, OA substrate, golden-ratio rule.
    Oaq,
    /// Online, AVR(m) substrate on `m` machines.
    AvrqM {
        /// Number of machines.
        m: usize,
    },
    /// Online, non-migratory AVR(m) variant on `m` machines.
    AvrqMNonmig {
        /// Number of machines.
        m: usize,
    },
    /// Online, OA(m) substrate on `m` machines.
    OaqM {
        /// Number of machines.
        m: usize,
        /// Frank–Wolfe planning iterations per arrival.
        fw_iters: usize,
    },
}

/// Default machine count for multi-machine algorithms parsed from a
/// bare name (`"avrq-m"`), matching the CLI's historical default.
pub const DEFAULT_MACHINES: usize = 2;
/// Default Frank–Wolfe planning iterations for `"oaq-m"` parsed without
/// an explicit iteration count.
pub const DEFAULT_FW_ITERS: usize = 10;

impl Algorithm {
    /// Display name, matching `QbssOutcome::algorithm`.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Crcd => "CRCD",
            Algorithm::Crp2d => "CRP2D",
            Algorithm::Crad => "CRAD",
            Algorithm::Avrq => "AVRQ",
            Algorithm::Bkpq => "BKPQ",
            Algorithm::Oaq => "OAQ",
            Algorithm::AvrqM { .. } => "AVRQ(m)",
            Algorithm::AvrqMNonmig { .. } => "AVRQ(m)-nonmig",
            Algorithm::OaqM { .. } => "OAQ(m)",
        }
    }

    /// The canonical machine-readable family name (the [`fmt::Display`]
    /// form without parameters). Bound tables key on this.
    pub fn family(&self) -> &'static str {
        match self {
            Algorithm::Crcd => "crcd",
            Algorithm::Crp2d => "crp2d",
            Algorithm::Crad => "crad",
            Algorithm::Avrq => "avrq",
            Algorithm::Bkpq => "bkpq",
            Algorithm::Oaq => "oaq",
            Algorithm::AvrqM { .. } => "avrq-m",
            Algorithm::AvrqMNonmig { .. } => "avrq-m-nonmig",
            Algorithm::OaqM { .. } => "oaq-m",
        }
    }

    /// Number of machines this configuration schedules on (1 for the
    /// single-machine families).
    pub fn machines(&self) -> usize {
        match *self {
            Algorithm::AvrqM { m }
            | Algorithm::AvrqMNonmig { m }
            | Algorithm::OaqM { m, .. } => m,
            _ => 1,
        }
    }

    /// Binds a bare multi-machine family to `m` machines (OAQ(m) keeps
    /// its planning iterations); single-machine configurations pass
    /// through unchanged. Callers validate `m ≥ 1` — the CLI and the
    /// serve-mode request parser both map `m = 0` to their own typed
    /// input errors before getting here.
    pub fn with_machines(self, m: usize) -> Algorithm {
        match self {
            Algorithm::AvrqM { .. } => Algorithm::AvrqM { m },
            Algorithm::AvrqMNonmig { .. } => Algorithm::AvrqMNonmig { m },
            Algorithm::OaqM { fw_iters, .. } => Algorithm::OaqM { m, fw_iters },
            other => other,
        }
    }

    /// Whether the schedule depends on the power exponent: only OAQ(m)
    /// plans with `α`. Every other configuration's outcome is the same
    /// at any `α`, so it is solved once and costed at each.
    pub fn plans_with_alpha(&self) -> bool {
        matches!(self, Algorithm::OaqM { .. })
    }

    /// Every runnable configuration: the six single-machine algorithms
    /// plus the three multi-machine ones at machine count `m` (OAQ(m)
    /// with `fw_iters` planning iterations). This is the one algorithm
    /// list of the workspace — the CLI, the chaos gate and the sweep
    /// engine all enumerate through it.
    pub fn all(m: usize, fw_iters: usize) -> Vec<Algorithm> {
        vec![
            Algorithm::Crcd,
            Algorithm::Crp2d,
            Algorithm::Crad,
            Algorithm::Avrq,
            Algorithm::Bkpq,
            Algorithm::Oaq,
            Algorithm::AvrqM { m },
            Algorithm::AvrqMNonmig { m },
            Algorithm::OaqM { m, fw_iters },
        ]
    }
}

impl fmt::Display for Algorithm {
    /// Canonical parseable form: the family name, with parameters
    /// appended as `:<m>` (and `:<fw_iters>` for OAQ(m)). Round-trips
    /// through [`FromStr`] exactly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Algorithm::AvrqM { m } => write!(f, "avrq-m:{m}"),
            Algorithm::AvrqMNonmig { m } => write!(f, "avrq-m-nonmig:{m}"),
            Algorithm::OaqM { m, fw_iters } => write!(f, "oaq-m:{m}:{fw_iters}"),
            _ => f.write_str(self.family()),
        }
    }
}

/// Failure to parse an [`Algorithm`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAlgorithmError {
    /// The offending input.
    pub input: String,
}

impl fmt::Display for ParseAlgorithmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown algorithm `{}` (expected crcd | crp2d | crad | avrq | bkpq | oaq | \
             avrq-m[:M] | avrq-m-nonmig[:M] | oaq-m[:M[:ITERS]])",
            self.input
        )
    }
}

impl std::error::Error for ParseAlgorithmError {}

impl FromStr for Algorithm {
    type Err = ParseAlgorithmError;

    /// Parses the canonical [`fmt::Display`] form, case-insensitively.
    /// Multi-machine families accept omitted parameters
    /// (`"avrq-m"` ≡ `"avrq-m:2"`, `"oaq-m:4"` ≡ `"oaq-m:4:10"`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseAlgorithmError { input: s.to_string() };
        let lower = s.trim().to_ascii_lowercase();
        let mut parts = lower.split(':');
        let family = parts.next().unwrap_or_default();
        let p1 = parts.next();
        let p2 = parts.next();
        if parts.next().is_some() {
            return Err(err());
        }
        let parse_m = |p: Option<&str>| -> Result<usize, ParseAlgorithmError> {
            match p {
                None => Ok(DEFAULT_MACHINES),
                Some(v) => v.parse::<usize>().ok().filter(|&m| m >= 1).ok_or_else(err),
            }
        };
        let simple = |alg: Algorithm| -> Result<Algorithm, ParseAlgorithmError> {
            if p1.is_some() {
                Err(err())
            } else {
                Ok(alg)
            }
        };
        match family {
            "crcd" => simple(Algorithm::Crcd),
            "crp2d" => simple(Algorithm::Crp2d),
            "crad" => simple(Algorithm::Crad),
            "avrq" => simple(Algorithm::Avrq),
            "bkpq" => simple(Algorithm::Bkpq),
            "oaq" => simple(Algorithm::Oaq),
            "avrq-m" if p2.is_none() => Ok(Algorithm::AvrqM { m: parse_m(p1)? }),
            "avrq-m-nonmig" if p2.is_none() => {
                Ok(Algorithm::AvrqMNonmig { m: parse_m(p1)? })
            }
            "oaq-m" => Ok(Algorithm::OaqM {
                m: parse_m(p1)?,
                fw_iters: match p2 {
                    None => DEFAULT_FW_ITERS,
                    Some(v) => v.parse::<usize>().ok().filter(|&i| i >= 1).ok_or_else(err)?,
                },
            }),
            _ => Err(err()),
        }
    }
}

/// An outcome bundled with its costs at one `α`.
///
/// The checked pipeline runs in two steps: [`solve`] validates the
/// input, runs the algorithm, validates the outcome and costs it at the
/// `α` it was given; [`Evaluated::gate`] then rejects non-finite costs.
/// [`run_evaluated`] is the two in sequence. Only the energy depends on
/// `α`, so a caller that needs one outcome at several exponents re-costs
/// it in place ([`Evaluated::recost`]) and gates each, instead of
/// solving again: the sweep engine does so for every algorithm that does
/// not [plan with `α`](Algorithm::plans_with_alpha).
#[derive(Debug, Clone)]
pub struct Evaluated {
    /// The validated outcome.
    pub outcome: QbssOutcome,
    /// `outcome.energy(alpha)` for the `alpha` it was last costed at.
    pub energy: f64,
    /// `outcome.max_speed()`.
    pub max_speed: f64,
}

impl Evaluated {
    /// Costs `outcome` at `alpha`: its energy there and its peak speed.
    /// The costs are not gated yet; see [`Evaluated::gate`].
    pub fn cost(outcome: QbssOutcome, alpha: f64) -> Self {
        let energy = outcome.energy(alpha);
        let max_speed = outcome.max_speed();
        Self { outcome, energy, max_speed }
    }

    /// Re-costs the held outcome at `alpha` in place. The peak speed does
    /// not depend on `α` and is kept.
    pub fn recost(&mut self, alpha: f64) {
        self.energy = self.outcome.energy(alpha);
    }

    /// The finiteness gate: a non-finite energy or peak speed is
    /// [`QbssError::NonFiniteCost`].
    pub fn gate(&self) -> Result<(), QbssError> {
        if self.energy.is_finite() && self.max_speed.is_finite() {
            Ok(())
        } else {
            Err(QbssError::NonFiniteCost { algorithm: self.outcome.algorithm.clone() })
        }
    }
}

/// The solve step of the checked pipeline (see module docs): checks
/// `alpha` and `inst`, runs `algorithm` under a `pipeline.run` span and
/// validates the outcome, which comes back costed at `alpha` but not yet
/// gated. `alpha` reaches the run only for algorithms that
/// [plan with it](Algorithm::plans_with_alpha).
pub fn solve(
    inst: &QbssInstance,
    alpha: f64,
    algorithm: Algorithm,
) -> Result<Evaluated, QbssError> {
    if !alpha.is_finite() || alpha <= 1.0 {
        return Err(QbssError::InvalidAlpha { alpha });
    }
    inst.validate()?;
    let mut span = qbss_telemetry::span!("pipeline.run", {
        algorithm = algorithm.to_string(),
        alpha = alpha,
        jobs = inst.jobs.len(),
    });
    let outcome = match algorithm {
        Algorithm::Crcd => try_crcd(inst)?,
        Algorithm::Crp2d => try_crp2d(inst)?,
        Algorithm::Crad => try_crad(inst)?,
        Algorithm::Avrq => try_avrq(inst)?,
        Algorithm::Bkpq => try_bkpq(inst)?,
        Algorithm::Oaq => try_oaq(inst)?,
        Algorithm::AvrqM { m } => try_avrq_m(inst, m)?.outcome,
        Algorithm::AvrqMNonmig { m } => try_avrq_m_nonmig(inst, m)?.outcome,
        Algorithm::OaqM { m, fw_iters } => try_oaq_m(inst, m, alpha, fw_iters)?.outcome,
    };
    outcome.validate(inst)?;
    // Per-job query decisions: which jobs paid the query cost, the
    // chosen threshold τ_j, and the exact work w*_j the query revealed.
    if qbss_telemetry::enabled(qbss_telemetry::Level::Debug) {
        for d in &outcome.decisions {
            let revealed = inst
                .jobs
                .iter()
                .find(|j| j.id == d.job)
                .map_or(f64::NAN, |j| if d.queried { j.reveal_exact() } else { f64::NAN });
            qbss_telemetry::debug!(
                "qbss.decision",
                {
                    job = d.job,
                    queried = d.queried,
                    tau = d.split.unwrap_or(f64::NAN),
                    revealed = revealed,
                },
                "query decision for job {}",
                d.job
            );
        }
    }
    let ev = Evaluated::cost(outcome, alpha);
    span.record("queried", ev.outcome.decisions.iter().filter(|d| d.queried).count());
    span.record("energy", ev.energy);
    Ok(ev)
}

/// Runs `algorithm` on `inst` with every guard engaged (see module
/// docs): [`solve`], then [`Evaluated::gate`]. `alpha` is the power
/// exponent used both by planning algorithms that need it (OA(m)) and by
/// the final finiteness check.
///
/// Returns the outcome together with the energy and peak speed the
/// finiteness gate already computed, so callers never pay a second
/// schedule integration for numbers this function has in hand.
pub fn run_evaluated(
    inst: &QbssInstance,
    alpha: f64,
    algorithm: Algorithm,
) -> Result<Evaluated, QbssError> {
    let ev = solve(inst, alpha, algorithm)?;
    ev.gate()?;
    Ok(ev)
}

/// [`run_evaluated`] with the runtime invariant auditor engaged: after
/// the checked run succeeds, `auditor` re-checks the paper's guarantees
/// against the memoized clairvoyant optimum in `opt` (see
/// [`crate::audit`]). Audit findings are side-band — they surface as
/// telemetry events and the auditor's tallies, never as errors — so the
/// returned [`Evaluated`] is bit-identical to an unaudited run.
pub fn run_audited(
    inst: &QbssInstance,
    alpha: f64,
    algorithm: Algorithm,
    opt: &speed_scaling::cache::OptCache,
    auditor: &crate::audit::Auditor,
) -> Result<Evaluated, QbssError> {
    let ev = run_evaluated(inst, alpha, algorithm)?;
    auditor.audit(inst, alpha, algorithm, &ev, opt);
    Ok(ev)
}

/// [`run_evaluated`] scoped to one serve-mode request: the run nests
/// under a `pipeline.request` span carrying the request id (and an
/// explicit `parent` for cross-thread stitching, the same contract the
/// sweep engine's `par.shard` spans follow), so a `/tracez` or exported
/// trace ties solver work back to the HTTP request that caused it. The
/// result is bit-identical to a bare [`run_evaluated`] — the span is
/// pure telemetry.
pub fn run_for_request(
    request_id: &str,
    parent: Option<u64>,
    inst: &QbssInstance,
    alpha: f64,
    algorithm: Algorithm,
) -> Result<Evaluated, QbssError> {
    let mut span = qbss_telemetry::span!(parent: parent, "pipeline.request", {
        request = request_id,
        algorithm = algorithm.to_string(),
    });
    let result = run_evaluated(inst, alpha, algorithm);
    span.record("ok", result.is_ok());
    result
}

/// [`run_evaluated`] for callers that only need the outcome.
pub fn run_checked(
    inst: &QbssInstance,
    alpha: f64,
    algorithm: Algorithm,
) -> Result<QbssOutcome, QbssError> {
    run_evaluated(inst, alpha, algorithm).map(|e| e.outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{AlgorithmError, ModelError};
    use crate::model::QJob;

    fn online_instance() -> QbssInstance {
        QbssInstance::new(vec![
            QJob::new(0, 0.0, 4.0, 0.5, 2.0, 1.0),
            QJob::new(1, 1.0, 3.0, 0.4, 1.0, 0.0),
        ])
    }

    #[test]
    fn checked_run_succeeds_on_valid_input() {
        let inst = online_instance();
        for alg in [Algorithm::Avrq, Algorithm::Bkpq, Algorithm::Oaq] {
            let out = run_checked(&inst, 3.0, alg).expect("valid instance must run");
            assert!(out.energy(3.0).is_finite());
        }
        let out = run_checked(&inst, 3.0, Algorithm::AvrqM { m: 2 }).expect("multi");
        assert_eq!(out.algorithm, "AVRQ(m)");
    }

    #[test]
    fn invalid_instance_is_a_model_error() {
        let inst = QbssInstance::new(vec![QJob::new_unchecked(0, 0.0, 1.0, f64::NAN, 1.0, 0.5)]);
        let err = run_checked(&inst, 3.0, Algorithm::Avrq).unwrap_err();
        assert!(matches!(err, QbssError::Model(ModelError::NonFiniteField { job: 0 })));
    }

    #[test]
    fn out_of_scope_is_an_algorithm_error() {
        // Released at 1, so the offline family rejects it.
        let inst = QbssInstance::new(vec![QJob::new(0, 1.0, 2.0, 0.5, 1.0, 0.5)]);
        let err = run_checked(&inst, 3.0, Algorithm::Crad).unwrap_err();
        assert!(matches!(
            err,
            QbssError::Algorithm(AlgorithmError::UnsupportedStructure { .. })
        ));
    }

    #[test]
    fn bad_alpha_is_a_typed_error_not_a_panic() {
        let inst = online_instance();
        for alpha in [0.5, 1.0, f64::NAN, f64::INFINITY, -3.0] {
            let err = run_checked(&inst, alpha, Algorithm::Avrq).unwrap_err();
            assert!(matches!(err, QbssError::InvalidAlpha { .. }), "alpha {alpha}: {err}");
        }
    }

    #[test]
    fn display_from_str_round_trips_every_configuration() {
        for alg in Algorithm::all(5, 17) {
            let s = alg.to_string();
            let back: Algorithm = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(back, alg, "round trip through `{s}`");
        }
        // Defaults and case-insensitivity.
        assert_eq!("AVRQ".parse::<Algorithm>().unwrap(), Algorithm::Avrq);
        assert_eq!(
            "avrq-m".parse::<Algorithm>().unwrap(),
            Algorithm::AvrqM { m: DEFAULT_MACHINES }
        );
        assert_eq!(
            "oaq-m:4".parse::<Algorithm>().unwrap(),
            Algorithm::OaqM { m: 4, fw_iters: DEFAULT_FW_ITERS }
        );
        assert_eq!(
            " oaq-m:3:6 ".parse::<Algorithm>().unwrap(),
            Algorithm::OaqM { m: 3, fw_iters: 6 }
        );
    }

    #[test]
    fn bad_algorithm_strings_are_typed_errors() {
        for bad in [
            "", "yds", "avrq:2", "avrq-m:0", "avrq-m:x", "avrq-m:2:3", "oaq-m:2:0",
            "oaq-m:2:3:4", "crcd:1",
        ] {
            let err = bad.parse::<Algorithm>().unwrap_err();
            assert!(err.to_string().contains("unknown algorithm"), "{bad}: {err}");
        }
    }

    #[test]
    fn all_enumerates_nine_distinct_configurations() {
        let all = Algorithm::all(3, 6);
        assert_eq!(all.len(), 9);
        let names: std::collections::HashSet<String> =
            all.iter().map(Algorithm::to_string).collect();
        assert_eq!(names.len(), 9, "canonical names must be distinct");
        assert!(all.contains(&Algorithm::OaqM { m: 3, fw_iters: 6 }));
        assert_eq!(all.iter().filter(|a| a.machines() > 1).count(), 3);
    }

    #[test]
    fn run_evaluated_reports_the_gate_costs() {
        let inst = online_instance();
        let ev = run_evaluated(&inst, 3.0, Algorithm::Bkpq).expect("valid instance");
        assert_eq!(ev.energy.to_bits(), ev.outcome.energy(3.0).to_bits());
        assert_eq!(ev.max_speed.to_bits(), ev.outcome.max_speed().to_bits());
    }

    #[test]
    fn recosting_one_solve_equals_a_run_at_each_alpha() {
        let inst = online_instance();
        for alg in Algorithm::all(2, 4).into_iter().filter(|a| !a.plans_with_alpha()) {
            let Ok(mut held) = solve(&inst, 2.0, alg) else { continue };
            for alpha in [2.0, 2.5, 3.0] {
                held.recost(alpha);
                held.gate().expect("finite costs");
                let cold = run_evaluated(&inst, alpha, alg).expect("cold run");
                assert_eq!(held.energy.to_bits(), cold.energy.to_bits(), "{alg} α={alpha}");
                assert_eq!(held.max_speed.to_bits(), cold.max_speed.to_bits(), "{alg}");
            }
        }
        let planned: Vec<Algorithm> =
            Algorithm::all(2, 4).into_iter().filter(Algorithm::plans_with_alpha).collect();
        assert_eq!(planned, vec![Algorithm::OaqM { m: 2, fw_iters: 4 }]);
    }

    #[test]
    fn the_gate_rejects_an_energy_that_overflows_at_one_alpha_only() {
        // Work 1e100 (the model's largest magnitude) in a 1e-6 window:
        // density 2e106 after the midpoint split, so the energy is about
        // 2e206 at α = 2 and overflows at α = 3.
        let inst = QbssInstance::new(vec![QJob::new(0, 0.0, 1e-6, 1.0, 1e100, 1e100)]);
        let mut held = solve(&inst, 2.0, Algorithm::Avrq).expect("solves");
        held.gate().expect("finite at α = 2");
        held.recost(3.0);
        assert!(matches!(held.gate(), Err(QbssError::NonFiniteCost { .. })));
        assert!(matches!(
            run_evaluated(&inst, 3.0, Algorithm::Avrq),
            Err(QbssError::NonFiniteCost { .. })
        ));
        held.recost(2.0);
        held.gate().expect("the outcome survives a failed gate");
    }

    #[test]
    fn empty_instance_is_an_algorithm_error() {
        let inst = QbssInstance::default();
        for alg in [Algorithm::Crcd, Algorithm::Avrq, Algorithm::OaqM { m: 2, fw_iters: 10 }] {
            let err = run_checked(&inst, 3.0, alg).unwrap_err();
            assert!(
                matches!(err, QbssError::Algorithm(AlgorithmError::EmptyInstance { .. })),
                "{alg:?}: {err}"
            );
        }
    }
}
