//! # qbss-core — Speed Scaling with Explorable Uncertainty
//!
//! A complete implementation of the **Query-Based Speed-Scaling (QBSS)**
//! model and algorithms of Bampis, Dogeas, Kononov, Lucarelli and
//! Pascual, *Speed Scaling with Explorable Uncertainty*, SPAA 2021.
//!
//! Each job is a quintuple `(r_j, d_j, c_j, w_j, w*_j)`: executing the
//! optional *query* of load `c_j` reveals the exact workload
//! `w*_j ≤ w_j`; without it the full upper bound `w_j` must run. All
//! work happens inside `(r_j, d_j]` on speed-scalable machines with
//! power `s^α`, minimizing energy or maximum speed.
//!
//! ## Algorithms
//!
//! Offline (common release; [`offline`]):
//! * [`offline::crcd()`](offline::crcd()) — common deadline; 2-approx (speed),
//!   `min{2^{α−1}φ^α, 2^α}` (energy).
//! * [`offline::crp2d()`](offline::crp2d()) — power-of-two deadlines; `(4φ)^α` (energy).
//! * [`offline::crad()`](offline::crad()) — arbitrary deadlines; `(8φ)^α` (energy).
//!
//! Online ([`online`]):
//! * [`online::avrq()`](online::avrq()) — query always; `2^{2α−1}α^α` (energy).
//! * [`online::bkpq()`](online::bkpq()) — golden-ratio rule;
//!   `(2+φ)^α·2(α/(α−1))^α e^α` (energy), `(2+φ)e` (max speed).
//! * [`online::oaq()`](online::oaq()) — OA-based extension (the paper's open question).
//! * [`online::avrq_m()`](online::avrq_m()) — `m` machines; `2^α(2^{α−1}α^α+1)` (energy).
//!
//! ## Information hiding
//!
//! The exact load is a private field read through
//! [`model::QJob::reveal_exact`]. The online algorithms run on one
//! engine, [`stream::StreamingSolver`], which asks an [`OnlinePolicy`]
//! for each arrival's query and split and hands it only the job's
//! [`VisibleJob`] part, so no online policy can read `w*` at arrival:
//! its argument type has no field for it. A strategy becomes a policy
//! only through [`StreamingSolver::with_strategy`], which rejects the
//! oracle split. Outcome validation
//! ([`outcome::QbssOutcome::validate`]) structurally enforces that a
//! job's exact work is scheduled only after its query window.
//!
//! ## Quick example
//!
//! ```
//! use qbss_core::model::{QJob, QbssInstance};
//! use qbss_core::online::bkpq;
//!
//! // A compressible job: querying (c = 0.2) reveals w* = 0.3 ≪ w = 2.
//! let inst = QbssInstance::new(vec![QJob::new(0, 0.0, 2.0, 0.2, 2.0, 0.3)]);
//! let out = bkpq(&inst);
//! out.validate(&inst).unwrap();
//! let alpha = 3.0;
//! assert!(out.energy_ratio(&inst, alpha) >= 1.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod attribution;
pub mod audit;
pub mod decision;
pub mod error;
pub mod model;
pub mod offline;
pub mod online;
pub mod oracle;
pub mod outcome;
pub mod pipeline;
pub mod policy;
pub mod stream;
pub mod work;

pub use attribution::{attribute, attribute_with_opt, Attribution, AttributionError, JobRow};
pub use audit::{AuditReport, AuditViolation, Auditor, AUDIT_SLACK};
pub use decision::Decision;
pub use error::{AlgorithmError, ModelError, ModelErrorKind, QbssError, ValidationError};
pub use model::{QJob, QbssInstance, VisibleJob};
pub use outcome::QbssOutcome;
pub use pipeline::{
    run_audited, run_checked, run_evaluated, run_for_request, solve, Algorithm, Evaluated,
    ParseAlgorithmError,
};
pub use policy::{OnlinePolicy, QueryRule, SplitRule, Strategy, INV_PHI, PHI};
pub use stream::{arrival_ordered, solver_for, SpeedDelta, StreamError, StreamingSolver};
pub use work::{is_work_counter, work_counter_names, WorkCounter, WORK_COUNTERS};
