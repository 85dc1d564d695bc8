//! Multi-machine speed scaling with free migration (Albers,
//! Antoniadis, Greiner 2015).
//!
//! * [`mod@avr_m`] — the online AVR(m) algorithm: per elementary interval,
//!   *big* jobs (density above the fair share of the remaining machines)
//!   get a dedicated machine; *small* jobs share the remaining machines
//!   at a common speed.
//! * [`assign`] — McNaughton's wrap-around rule, turning per-interval
//!   (job → work) demands into an explicit migratory schedule without
//!   intra-job parallelism.
//! * [`bounds`] — lower bounds on the multi-machine optimum used as
//!   conservative baselines by the ratio experiments (see DESIGN.md §5
//!   for why a lower bound is the right substitute here).
//! * [`nonmig`] — the preemptive non-migratory variant (greedy
//!   dispatch + per-machine AVR), the §7 remark of the QBSS paper.
//! * [`opt`] — a near-optimal migratory baseline by Frank–Wolfe on the
//!   event-grid convex program, with a certified duality gap whose
//!   `energy − gap` is a true lower bound on OPT.
//! * [`mod@oa_m`] — OA(m), multi-machine Optimal Available: replan the
//!   remaining work (near-)optimally at every arrival.

pub mod assign;
pub mod avr_m;
pub mod bounds;
pub mod nonmig;
pub mod oa_m;
pub mod opt;

pub use assign::mcnaughton;
pub use avr_m::{avr_m, machine_speeds_for_densities, AvrMResult};
pub use bounds::{fluid_lower_bound, opt_lower_bound, opt_lower_bound_from, per_job_lower_bound};
pub use nonmig::{avr_m_nonmig, NonMigResult};
pub use oa_m::{oa_m, OaMResult};
pub use opt::{multi_opt_frank_wolfe, FwSolution};
