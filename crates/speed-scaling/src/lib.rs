//! # speed-scaling — the classical dynamic speed scaling substrate
//!
//! This crate implements the *classical* (certain-workload) speed
//! scaling model of Yao, Demers and Shenker: jobs `(r_j, d_j, w_j)` run
//! preemptively on one or `m` speed-scalable machines, the power at
//! speed `s` is `s^α` (`α > 1`), and the goal is to minimize energy
//! `∫ s(t)^α dt` or the maximum speed.
//!
//! It is the substrate on which the `qbss-core` crate builds the
//! SPAA 2021 algorithms for *Speed Scaling with Explorable Uncertainty*:
//! every QBSS algorithm reduces its decisions to a set of classical jobs
//! and invokes one of the algorithms here.
//!
//! ## Contents
//!
//! | module | what |
//! |--------|------|
//! | [`time`] | tolerant comparisons, `(a, b]` intervals, event grids |
//! | [`job`] | jobs, instances, densities |
//! | [`profile`] | piecewise-constant speed profiles, energy integration |
//! | [`schedule`] | explicit schedules + the feasibility checker |
//! | [`edf`] | Earliest-Deadline-First execution under a given profile |
//! | [`yds`] | the YDS offline optimum (clairvoyant baseline) |
//! | [`cache`] | memoized optimal-profile handles for batch sweeps |
//! | [`avr`] | Average Rate online heuristic (`2^{α−1}α^α`-competitive) |
//! | [`oa`] | Optimal Available online heuristic (`α^α`-competitive) |
//! | [`bkp`] | BKP online algorithm (`2(α/(α−1))^α e^α`, max-speed `e`) |
//! | [`stream`] | incremental event-at-a-time drivers for AVR/OA/BKP |
//! | [`multi`] | AVR(m), OA(m), McNaughton assignment, Frank–Wolfe OPT baseline, non-migratory variant |
//! | [`render`] | ASCII Gantt charts and speed sparklines |
//!
//! ## Quick example
//!
//! ```
//! use speed_scaling::job::{Instance, Job};
//! use speed_scaling::{avr::avr_profile, yds::yds_profile};
//!
//! let inst = Instance::new(vec![
//!     Job::new(0, 0.0, 4.0, 4.0),
//!     Job::new(1, 1.0, 2.0, 3.0),
//! ]);
//! let alpha = 3.0;
//! let opt = yds_profile(&inst).energy(alpha);
//! let online = avr_profile(&inst).energy(alpha);
//! assert!(online >= opt);
//! ```

#![warn(missing_docs)]

pub mod avr;
pub mod bkp;
pub mod cache;
#[cfg(test)]
mod differential;
pub mod edf;
pub mod job;
pub mod multi;
pub mod oa;
pub mod profile;
pub mod render;
pub mod schedule;
pub mod stream;
pub mod time;
pub mod yds;

pub use cache::OptCache;
pub use job::{Instance, Job, JobId};
pub use profile::SpeedProfile;
pub use schedule::{Schedule, ScheduleError, Slice, WorkRequirement};
