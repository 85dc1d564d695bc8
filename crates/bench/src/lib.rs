//! # qbss-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §4):
//!
//! | binary | experiment | paper artifact |
//! |--------|------------|----------------|
//! | `exp_lower_bounds` | E1 | Table 1 lower bounds; Lemmas 4.1–4.5 |
//! | `exp_table1_offline` | E2–E4 | Table 1, CRCD/CRP2D/CRAD rows |
//! | `exp_rho_table` | E5 | §4.2 ρ-comparison table |
//! | `exp_table1_online` | E6–E7 | Table 1, AVRQ/BKPQ rows; Thms 5.2/5.4 |
//! | `exp_multimachine` | E8 | Table 1, AVRQ(m) row; Thm 6.3 |
//! | `exp_fig1_transform` | E9 | Figure 1 + the Lemma 4.9/4.10 chain |
//! | `exp_ablation_split` | E10 | splitting-point sweep |
//! | `exp_ablation_threshold` | E10 | query-threshold sweep + OAQ |
//!
//! Run all of them with `cargo run --release -p qbss-bench --bin <name>`;
//! each prints the paper's rows next to the measured values and exits
//! non-zero if a *proven* bound is violated by a measurement (so the
//! harness doubles as an acceptance test).
//!
//! This crate also hosts the three regression observatories behind
//! `qbss perf|quality|complexity` — [`perf`] (wall clock),
//! [`quality`] (competitive ratios) and [`complexity`] (op counts) —
//! and the [`gate`] core they share.

#![warn(missing_docs)]

pub mod complexity;
pub mod engine;
pub mod ensemble;
pub mod gate;
pub mod par;
pub mod perf;
pub mod quality;
pub mod request;
pub mod search;
pub mod stream;
pub mod table;

pub use engine::{
    run_sweep, run_sweep_audited, CellMetrics, CellRecord, Digest, EngineError, EngineReport,
    GroupAggregate, InstanceSource, Instrumentation, StreamAgg, SweepSpec,
};
pub use engine::WorstCell;
pub use complexity::ComplexityBaseline;
pub use ensemble::{measure_ensemble, EnsembleReport};
pub use gate::{BuildInfo, GateError};
pub use quality::QualityBaseline;
pub use par::{par_map, par_map_seeds, par_map_stealing};
pub use request::{RequestError, SweepRequest};
pub use search::coordinate_ascent;
pub use stream::StreamSession;
pub use table::Table;
