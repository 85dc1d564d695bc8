//! Canonical catalog of deterministic *work counters*.
//!
//! Every solver hot path increments a small set of counters through
//! `qbss_telemetry::counter!`, each counting one unit of algorithmic
//! progress (an interval scanned, a hull push, a gradient evaluation).
//! Because the increments depend only on the input instance — never on
//! wall clock, shard count, or log level — the counts are
//! byte-identical across runs, which is what makes the exact
//! complexity gate (`qbss complexity gate`) possible.
//!
//! This module is the single source of truth for the counter names:
//! the complexity runner (`qbss_bench::complexity`), the exposition
//! tests, and the docs all enumerate [`WORK_COUNTERS`] rather than
//! hand-rolling name lists (same lesson as the [`crate::pipeline::Algorithm`]
//! dispatch: one canonical enumeration, many consumers).
//!
//! Adding a counter: increment it in the solver with the
//! local-accumulator idiom (accumulate in a `u64`, one `add` per call
//! so the hot loop stays atomics-free), then append a row here — the
//! complexity baseline will flag it as new coverage on the next
//! `record`, and `QBSS_BLESS=1` locks it in.

/// One catalogued work counter: `(name, what one increment means)`.
pub type WorkCounter = (&'static str, &'static str);

/// The canonical work-counter catalog, sorted by name.
///
/// Names use the registry's dotted convention; the Prometheus
/// exposition maps dots to underscores (`yds.intervals_scanned` →
/// `qbss_yds_intervals_scanned_total`).
pub const WORK_COUNTERS: &[WorkCounter] = &[
    (
        "avr.delta_events",
        "density delta (start or end event) added to the AVR event list",
    ),
    (
        "avr.grid_segments",
        "elementary grid segment materialized when an AVR profile is built",
    ),
    (
        "bkp.deadline_steps",
        "deadline-sorted entry passed by a BKP running work sum: in a live query or its prefix upkeep, or in finish's intensity table (a row's sum written, or an entry summed into a new row's start)",
    ),
    (
        "bkp.intensity_queries",
        "max-intensity query e(t) answered for one probe time",
    ),
    (
        "bkp.window_slides",
        "candidate (t1, t2] window evaluated: a step of a live intensity query, or a value finish's intensity table recomputes",
    ),
    (
        "cache.opt_energy.hits",
        "OPT-energy memo hit (YDS solve avoided)",
    ),
    (
        "cache.opt_energy.misses",
        "OPT-energy memo miss (YDS solve performed and cached)",
    ),
    (
        "check.live_visits",
        "live slice visited at a grid midpoint by the schedule checker's overlap sweep",
    ),
    (
        "check.segments",
        "elementary grid segment swept by the schedule checker",
    ),
    (
        "edf.heap_pops",
        "finished or expired task dropped from the EDF ready heap",
    ),
    (
        "edf.heap_pushes",
        "released task pushed onto the EDF ready heap",
    ),
    (
        "fw.gradient_evals",
        "per-interval gradient evaluation inside one Frank-Wolfe iteration",
    ),
    (
        "fw.iterations",
        "completed Frank-Wolfe iteration (LMO + line search)",
    ),
    (
        "fw.line_evals",
        "per-interval energy or slope evaluation inside one Frank-Wolfe line search",
    ),
    (
        "oa.hull_pops",
        "dominated point popped from the OA monotone hull stack",
    ),
    (
        "oa.hull_updates",
        "deadline group pushed onto the OA hull during a replan",
    ),
    (
        "solver.advances",
        "StreamingSolver::advance_to call processed by the streaming core",
    ),
    (
        "solver.events",
        "StreamingSolver::on_arrival event processed by the streaming core",
    ),
    (
        "yds.density_evals",
        "interval density g(I) computed during a critical-interval search",
    ),
    (
        "yds.intervals_scanned",
        "candidate interval visited during a YDS critical-interval search",
    ),
];

/// The catalogued counter names, in canonical (sorted) order.
pub fn work_counter_names() -> impl Iterator<Item = &'static str> {
    WORK_COUNTERS.iter().map(|&(name, _)| name)
}

/// Whether `name` is a catalogued work counter.
pub fn is_work_counter(name: &str) -> bool {
    WORK_COUNTERS.binary_search_by(|&(n, _)| n.cmp(name)).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_sorted_and_unique() {
        for pair in WORK_COUNTERS.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "catalog must stay sorted/unique: {} vs {}",
                pair[0].0,
                pair[1].0
            );
        }
    }

    #[test]
    fn lookup_finds_catalogued_names_only() {
        assert!(is_work_counter("yds.intervals_scanned"));
        assert!(is_work_counter("oa.hull_pops"));
        assert!(!is_work_counter("yds.solves"));
        assert!(!is_work_counter("serve.requests"));
    }

    #[test]
    fn every_module_has_at_least_two_counters() {
        use std::collections::BTreeMap;
        let mut per_module: BTreeMap<&str, usize> = BTreeMap::new();
        for (name, _) in WORK_COUNTERS {
            let module = name.split('.').next().unwrap();
            *per_module.entry(module).or_default() += 1;
        }
        for (module, count) in per_module {
            assert!(count >= 2, "module {module} has {count} work counter(s), need >= 2");
        }
    }
}
