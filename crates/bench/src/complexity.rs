//! The algorithmic work observatory: pinned scaling scenarios,
//! empirical complexity curves, and an **exact** asymptotic gate.
//!
//! Wall time on a noisy CI box needs the perf gate's 25% slack — far too
//! coarse to lock in (or even detect) asymptotic wins. The solvers,
//! however, have crisp *work* profiles: YDS is interval scans, OA is hull
//! pushes and pops, BKP is window slides, Frank–Wolfe is gradient
//! evaluations. Every hot path increments a deterministic counter from
//! the [`qbss_core::work::WORK_COUNTERS`] catalog, counting algorithmic
//! progress only — never wall clock, shard layout, or log level — so two
//! runs of the same code produce *byte-identical* counts and the gate
//! can be exact.
//!
//! `qbss complexity record` sweeps each pinned scenario over its n-grid,
//! brackets every grid cell with a [`WorkMark`], fits a log-log
//! least-squares slope per counter (the empirical exponent, with R²),
//! and stores the series in the shared [`gate::Baseline`] envelope
//! (`BENCH_complexity.json`). The rule: **any** increased op count at
//! any grid point, any fitted-exponent increase beyond
//! [`EXPONENT_TOL`], a dropped counter or a changed grid regresses; the
//! record/compare/gate protocol itself lives in [`crate::gate`].

use std::collections::BTreeMap;

use qbss_core::pipeline::Algorithm;
use qbss_instances::gen::{generate, GenConfig};
use qbss_telemetry::{json_escape, json_f64, JsonValue};
use speed_scaling::job::{Instance, Job};
use speed_scaling::multi::multi_opt_frank_wolfe;
use speed_scaling::stream::{release_ordered, AvrStream, BkpStream, OaStream};
use speed_scaling::yds::yds_profile;

use crate::engine::{run_sweep, EngineError, InstanceSource, SweepSpec};
use crate::gate::{self, Baseline, Exact, Finding, GateError, Scenario, WorkMark};

/// The on-disk schema tag; bump on incompatible baseline changes.
pub const COMPLEXITY_SCHEMA: &str = "qbss-complexity-baseline/1";

/// Exact tolerance on fitted-exponent increases. Counts gate exactly;
/// the exponent is a *fit* over exact counts, so tiny grid-local wiggle
/// (a different constant term, not a different asymptotic class) is
/// allowed this much slack before it counts as a regression.
pub const EXPONENT_TOL: f64 = 0.05;

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// A pinned scaling workload: executed once at each size of its n-grid.
/// Everything (generator seeds, algorithm parameters, grid) is pinned,
/// so the counter deltas are a pure function of the code under test.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    /// The n-grid this scenario sweeps.
    pub grid: &'static [usize],
    run: fn(usize) -> Result<(), EngineError>,
}

impl Sweep {
    /// Executes the pinned workload at size `n` (counter side effects
    /// land in the global registry; callers bracket with a [`WorkMark`]).
    pub fn run(&self, n: usize) -> Result<(), EngineError> {
        (self.run)(n)
    }
}

/// A named scaling scenario.
pub type ComplexityScenario = Scenario<Sweep>;

/// The shared instance family: the `online_default` generator keeps the
/// job *density* roughly constant as `n` grows (horizon scales with n,
/// window lengths don't), so the active set stays O(1) and per-arrival
/// asymptotics are visible instead of being drowned by a growing
/// frontier.
fn classical_online(n: usize, seed: u64) -> Instance {
    let q = generate(&GenConfig::online_default(n, seed));
    Instance::new(
        q.jobs
            .iter()
            .map(|j| Job::new(j.id, j.release, j.deadline, j.upper_bound))
            .collect(),
    )
}

fn run_yds(n: usize) -> Result<(), EngineError> {
    let _ = yds_profile(&classical_online(n, 0));
    Ok(())
}

fn run_avr(n: usize) -> Result<(), EngineError> {
    let mut s = AvrStream::new();
    for job in release_ordered(&classical_online(n, 0)) {
        s.on_arrival(job);
    }
    let _ = s.finish();
    Ok(())
}

fn run_oa(n: usize) -> Result<(), EngineError> {
    let mut s = OaStream::new();
    for job in release_ordered(&classical_online(n, 0)) {
        s.on_arrival(job);
    }
    let _ = s.finish();
    Ok(())
}

fn run_bkp(n: usize) -> Result<(), EngineError> {
    let mut s = BkpStream::new();
    for job in release_ordered(&classical_online(n, 0)) {
        s.on_arrival(job);
    }
    let _ = s.finish();
    Ok(())
}

fn run_fw(n: usize) -> Result<(), EngineError> {
    let _ = multi_opt_frank_wolfe(&classical_online(n, 0), 3, 3.0, 12);
    Ok(())
}

fn run_engine(n: usize) -> Result<(), EngineError> {
    // End-to-end through the engine: exercises the streaming core
    // (`solver.*`) and the OPT-energy memo (`cache.*`) on top of the
    // solver counters. Shards are pinned to 1 — counter *totals* are
    // shard-independent (see `work_counters.rs`), but the record path
    // stays maximally boring on purpose.
    let spec = SweepSpec {
        source: InstanceSource::Generated {
            base: GenConfig::online_default(n, 0),
            seeds: 0..3,
        },
        algorithms: vec![Algorithm::Avrq, Algorithm::Oaq],
        alphas: vec![3.0],
        opt_fw_iters: 0,
    };
    run_sweep(&spec, 1).map(|_| ())
}

/// Every named complexity scenario, in canonical order.
pub fn scenarios() -> &'static [ComplexityScenario] {
    const TABLE: &[ComplexityScenario] = &[
        Scenario {
            name: "yds-offline",
            description: "one YDS solve per n, online family (critical-interval scans)",
            work: Sweep { grid: &[50, 100, 200, 400, 800], run: run_yds },
        },
        Scenario {
            name: "avr-stream",
            description: "AVR stream fed release-ordered, one finish per n",
            work: Sweep { grid: &[500, 1000, 2000, 4000], run: run_avr },
        },
        Scenario {
            name: "oa-stream",
            description: "OA stream fed release-ordered (hull maintenance per arrival)",
            work: Sweep { grid: &[200, 400, 800, 1600], run: run_oa },
        },
        Scenario {
            name: "bkp-stream",
            description: "BKP stream fed release-ordered, intensity queries at finish",
            work: Sweep { grid: &[50, 100, 200, 400], run: run_bkp },
        },
        Scenario {
            name: "fw-multi",
            description: "Frank-Wolfe OPT(m=3) at 12 iterations per n",
            work: Sweep { grid: &[8, 16, 32, 64], run: run_fw },
        },
        Scenario {
            name: "engine-online",
            description: "avrq+oaq x 3 seeds through the engine (streaming core + OPT memo)",
            work: Sweep { grid: &[40, 80, 160, 320], run: run_engine },
        },
    ];
    TABLE
}

/// Looks up a complexity scenario by name.
pub fn scenario(name: &str) -> Option<ComplexityScenario> {
    gate::find(scenarios(), name)
}

// ---------------------------------------------------------------------
// Exponent fit
// ---------------------------------------------------------------------

/// A log-log least-squares fit over a counter's grid series: if
/// `count ≈ C·n^e`, the slope of `ln count` against `ln n` is the
/// empirical exponent `e` and R² says how well a pure power law
/// explains the series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerFit {
    /// Fitted exponent (log-log slope).
    pub exponent: f64,
    /// Coefficient of determination of the fit, in `[0, 1]`.
    pub r2: f64,
}

/// Fits `counts[i] ≈ C·grid[i]^e` by least squares in log-log space.
/// Zero counts carry no slope information (`ln 0` is undefined) and are
/// skipped; fewer than two positive points means no fit.
pub fn fit_loglog(grid: &[usize], counts: &[u64]) -> Option<PowerFit> {
    let pts: Vec<(f64, f64)> = grid
        .iter()
        .zip(counts)
        .filter(|&(_, &c)| c > 0)
        .map(|(&n, &c)| ((n as f64).ln(), (c as f64).ln()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let k = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = k * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None; // all points at the same n
    }
    let slope = (k * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / k;
    let mean_y = sy / k;
    let ss_tot: f64 = pts.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 =
        pts.iter().map(|p| (p.1 - (intercept + slope * p.0)).powi(2)).sum();
    let r2 = if ss_tot <= 1e-12 { 1.0 } else { (1.0 - ss_res / ss_tot).max(0.0) };
    Some(PowerFit { exponent: slope, r2 })
}

// ---------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------

/// One counter's exact grid series inside a scenario, plus its fit.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSeries {
    /// Catalogued counter name (see [`qbss_core::work::WORK_COUNTERS`]).
    pub counter: String,
    /// Exact op count at each grid point, aligned with the scenario
    /// grid.
    pub counts: Vec<u64>,
    /// Log-log fit over the positive grid points, if ≥ 2 exist.
    pub fit: Option<PowerFit>,
}

/// One recorded scenario: its grid and the per-counter series (sorted
/// by counter name).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioComplexity {
    /// The n-grid the scenario swept.
    pub grid: Vec<usize>,
    /// Per-counter series, sorted by counter name.
    pub counters: Vec<CounterSeries>,
}

/// A recorded complexity baseline (`BENCH_complexity.json`).
pub type ComplexityBaseline = Baseline<ScenarioComplexity>;

/// Sweeps `names` (all scenarios when empty) over their n-grids and
/// returns the recorded baseline. Each grid cell is bracketed by a
/// [`WorkMark`]; cells run serially in one process, so the deltas
/// attribute cleanly. A counter the scenario never moves is someone
/// else's coverage and gets no series.
pub fn record(names: &[String]) -> Result<ComplexityBaseline, GateError> {
    let mut out = BTreeMap::new();
    for sc in gate::pick(scenarios(), names)? {
        let grid = sc.work.grid;
        let mut series: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for (i, &n) in grid.iter().enumerate() {
            let mark = WorkMark::now();
            sc.work.run(n)?;
            for (name, delta) in mark.delta() {
                series.entry(name).or_insert_with(|| vec![0; grid.len()])[i] = delta;
            }
        }
        let counters = series
            .into_iter()
            .map(|(counter, counts)| {
                let fit = fit_loglog(grid, &counts);
                CounterSeries { counter, counts, fit }
            })
            .collect();
        out.insert(sc.name.to_string(), ScenarioComplexity { grid: grid.to_vec(), counters });
    }
    Ok(Baseline { build: gate::BuildInfo::capture(), scenarios: out })
}

// ---------------------------------------------------------------------
// Serialization and the exact rule
// ---------------------------------------------------------------------

fn join<T: ToString>(xs: &[T]) -> String {
    xs.iter().map(T::to_string).collect::<Vec<_>>().join(", ")
}

fn parse_series(c: &JsonValue, grid_len: usize) -> Result<CounterSeries, String> {
    let counter = gate::text(c, "counter")?.to_string();
    let counts = gate::uints(c, "counts").map_err(|e| format!("`{counter}`: {e}"))?;
    if counts.len() != grid_len {
        return Err(format!(
            "`{counter}` has {} counts for {grid_len} grid points",
            counts.len()
        ));
    }
    let fit = match (gate::num(c, "exponent"), gate::num(c, "r2")) {
        (Ok(exponent), Ok(r2)) => Some(PowerFit { exponent, r2 }),
        _ => None,
    };
    Ok(CounterSeries { counter, counts, fit })
}

impl ComplexityBaseline {
    /// The `(scenario, n, counter, count)` grid as CSV, for offline
    /// plotting (`qbss complexity record --format csv`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("scenario,n,counter,count\n");
        for (name, s) in &self.scenarios {
            for c in &s.counters {
                for (&n, &count) in s.grid.iter().zip(&c.counts) {
                    out.push_str(&format!("{name},{n},{},{count}\n", c.counter));
                }
            }
        }
        out
    }
}

impl Exact for ScenarioComplexity {
    const SCHEMA: &'static str = COMPLEXITY_SCHEMA;
    const KIND: &'static str = "complexity";
    const UNIT: &'static str = "counter series";
    const RECORD_FLAGS: &'static [&'static str] = &["format"];

    fn record(names: &[String]) -> Result<ComplexityBaseline, GateError> {
        record(names)
    }

    fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .counters
            .iter()
            .map(|c| {
                let (exponent, r2) = match c.fit {
                    None => ("null".to_string(), "null".to_string()),
                    Some(f) => (json_f64(f.exponent), json_f64(f.r2)),
                };
                format!(
                    "{{\"counter\": \"{}\", \"counts\": [{}], \"exponent\": {exponent}, \
                     \"r2\": {r2}}}",
                    json_escape(&c.counter),
                    join(&c.counts)
                )
            })
            .collect();
        gate::json_rows(&format!("\"grid\": [{}]", join(&self.grid)), "counters", &rows)
    }

    fn parse(v: &JsonValue) -> Result<Self, String> {
        let grid: Vec<usize> = gate::uints(v, "grid")?.into_iter().map(|g| g as usize).collect();
        let counters = gate::arr(v, "counters")?
            .iter()
            .map(|c| parse_series(c, grid.len()))
            .collect::<Result<_, _>>()?;
        Ok(ScenarioComplexity { grid, counters })
    }

    /// Counters are deterministic, so **any** increased op count at any
    /// grid point regresses — no noise threshold. Fitted exponents get
    /// [`EXPONENT_TOL`] slack (the fit is derived, not measured). A
    /// dropped counter or a changed grid regresses too; series only
    /// present in `new` are informational.
    fn compare(name: &str, base: &Self, new: &Self, out: &mut Vec<Finding>) -> usize {
        if base.grid != new.grid {
            // Counts at different sizes don't compare.
            out.push(Finding::new(name, "", "grid changed"));
            return 0;
        }
        let mut checked = 0;
        for bc in &base.counters {
            let key = format!("counter `{}`", bc.counter);
            let Some(nc) = new.counters.iter().find(|c| c.counter == bc.counter) else {
                out.push(Finding::new(name, &key, "counter removed"));
                continue;
            };
            checked += 1;
            for ((&n, &bv), &nv) in base.grid.iter().zip(&bc.counts).zip(&nc.counts) {
                if nv > bv {
                    let rule = format!("op count at n={n}");
                    out.push(Finding::new(name, &key, &rule).values(bv as f64, nv as f64));
                }
            }
            if let (Some(bf), Some(nf)) = (bc.fit, nc.fit) {
                if nf.exponent > bf.exponent + EXPONENT_TOL {
                    let finding = Finding::new(name, &key, "fitted exponent");
                    out.push(Finding {
                        detail: Some(format!("tolerance +{EXPONENT_TOL}")),
                        ..finding.values(bf.exponent, nf.exponent)
                    });
                }
            }
        }
        checked
    }

    fn to_csv(baseline: &ComplexityBaseline) -> Option<String> {
        Some(baseline.to_csv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{BuildInfo, Gate, Verdict};

    fn series(counter: &str, grid: &[usize], counts: &[u64]) -> CounterSeries {
        CounterSeries {
            counter: counter.to_string(),
            counts: counts.to_vec(),
            fit: fit_loglog(grid, counts),
        }
    }

    fn baseline(entries: &[(&str, Vec<usize>, Vec<CounterSeries>)]) -> ComplexityBaseline {
        ComplexityBaseline {
            build: BuildInfo { version: "0.0.0-test".into(), git: "deadbeef".into() },
            scenarios: entries
                .iter()
                .map(|(name, grid, counters)| {
                    (
                        name.to_string(),
                        ScenarioComplexity { grid: grid.clone(), counters: counters.clone() },
                    )
                })
                .collect(),
        }
    }

    fn rules(report: &gate::Findings) -> Vec<&str> {
        report.findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn scenario_table_is_well_formed() {
        let all = scenarios();
        assert!(all.len() >= 6);
        assert!(scenario("yds-offline").is_some());
        assert!(scenario("nope").is_none());
        for s in all {
            let grid = s.work.grid;
            assert!(grid.len() >= 2, "{}: need >= 2 grid points for a fit", s.name);
            assert!(grid.windows(2).all(|w| w[0] < w[1]), "{}: grid must grow", s.name);
        }
    }

    #[test]
    fn fit_recovers_exact_power_laws() {
        let grid = [100usize, 200, 400, 800];
        // counts = n^2 exactly.
        let quad: Vec<u64> = grid.iter().map(|&n| (n * n) as u64).collect();
        let f = fit_loglog(&grid, &quad).expect("fit");
        assert!((f.exponent - 2.0).abs() < 1e-9, "{f:?}");
        assert!(f.r2 > 0.999999, "{f:?}");
        // counts = 7n exactly.
        let lin: Vec<u64> = grid.iter().map(|&n| 7 * n as u64).collect();
        let f = fit_loglog(&grid, &lin).expect("fit");
        assert!((f.exponent - 1.0).abs() < 1e-9, "{f:?}");
        // A constant series fits slope 0 perfectly.
        let f = fit_loglog(&grid, &[5, 5, 5, 5]).expect("fit");
        assert!(f.exponent.abs() < 1e-9 && (f.r2 - 1.0).abs() < 1e-9, "{f:?}");
    }

    #[test]
    fn fit_skips_zeros_and_degenerate_series() {
        let grid = [100usize, 200, 400, 800];
        // Zeros are skipped, not treated as ln(0).
        let f = fit_loglog(&grid, &[0, 200, 400, 800]).expect("fit");
        assert!((f.exponent - 1.0).abs() < 1e-9, "{f:?}");
        // Fewer than two positive points: no fit.
        assert!(fit_loglog(&grid, &[0, 0, 0, 7]).is_none());
        assert!(fit_loglog(&grid, &[0, 0, 0, 0]).is_none());
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let grid = vec![100usize, 200, 400];
        let b = baseline(&[
            (
                "a",
                grid.clone(),
                vec![
                    series("yds.intervals_scanned", &grid, &[100, 800, 6400]),
                    series("yds.density_evals", &grid, &[0, 0, 7]), // no fit
                ],
            ),
            ("b", vec![10, 20], vec![series("oa.hull_updates", &[10, 20], &[10, 20])]),
        ]);
        let json = b.to_json();
        let back = ComplexityBaseline::parse(&json).expect("round trip");
        assert_eq!(back, b);
        assert_eq!(back.to_json(), json, "canonical form is stable");
    }

    #[test]
    fn parse_rejects_foreign_or_broken_documents() {
        assert!(matches!(ComplexityBaseline::parse("{}"), Err(GateError::Parse { .. })));
        assert!(matches!(ComplexityBaseline::parse("not json"), Err(GateError::Parse { .. })));
        let wrong = "{\"schema\": \"qbss-complexity-baseline/999\", \"scenarios\": {}}";
        let err = ComplexityBaseline::parse(wrong).expect_err("wrong schema");
        assert!(err.to_string().contains("schema"), "{err}");
    }

    #[test]
    fn csv_lists_every_grid_cell() {
        let grid = vec![10usize, 20];
        let b = baseline(&[("a", grid.clone(), vec![series("oa.hull_updates", &grid, &[11, 21])])]);
        let csv = b.to_csv();
        assert!(csv.starts_with("scenario,n,counter,count\n"), "{csv}");
        assert!(csv.contains("a,10,oa.hull_updates,11\n"), "{csv}");
        assert!(csv.contains("a,20,oa.hull_updates,21\n"), "{csv}");
    }

    #[test]
    fn identical_baselines_are_clean() {
        let grid = vec![100usize, 200];
        let b = baseline(&[("a", grid.clone(), vec![series("x.ops", &grid, &[5, 10])])]);
        let report = ComplexityBaseline::compare(&b, &b.clone());
        assert!(report.is_clean());
        assert_eq!(report.checked, 1);
        assert!(report.render().contains("no complexity regression"));
    }

    #[test]
    fn any_count_increase_is_a_regression() {
        let grid = vec![100usize, 200];
        let base = baseline(&[("a", grid.clone(), vec![series("x.ops", &grid, &[100, 200])])]);
        let new = baseline(&[("a", grid.clone(), vec![series("x.ops", &grid, &[100, 201])])]);
        let report = ComplexityBaseline::compare(&base, &new);
        assert_eq!(rules(&report), ["op count at n=200"], "{report:?}");
        let out = report.render_explain();
        assert!(out.contains("counter `x.ops`"), "{out}");
        assert!(out.contains("n=200"), "{out}");
        assert!(out.contains("200 -> 201"), "{out}");
        // A decrease is an improvement, not a regression.
        let better = baseline(&[("a", grid.clone(), vec![series("x.ops", &grid, &[90, 180])])]);
        assert!(ComplexityBaseline::compare(&base, &better).is_clean());
    }

    #[test]
    fn exponent_increase_beyond_tolerance_regresses() {
        let grid = vec![100usize, 200, 400];
        // Base is linear; new is quadratic — the exponent jumps by ~1,
        // and every count at every grid point also worsens.
        let base = baseline(&[("a", grid.clone(), vec![series("x.ops", &grid, &[100, 200, 400])])]);
        let new = baseline(&[(
            "a",
            grid.clone(),
            vec![series("x.ops", &grid, &[10000, 40000, 160000])],
        )]);
        let report = ComplexityBaseline::compare(&base, &new);
        assert!(rules(&report).contains(&"fitted exponent"), "{report:?}");
        assert!(report.render_explain().contains("tolerance +0.05"), "{report:?}");
        // Within tolerance: counts identical, exponent equal — clean.
        assert!(ComplexityBaseline::compare(&base, &base).is_clean());
    }

    #[test]
    fn lost_coverage_is_a_regression() {
        let grid = vec![100usize, 200];
        let base = baseline(&[
            (
                "a",
                grid.clone(),
                vec![series("x.ops", &grid, &[1, 2]), series("y.ops", &grid, &[3, 4])],
            ),
            ("gone", grid.clone(), vec![series("z.ops", &grid, &[5, 6])]),
        ]);
        let new = baseline(&[("a", grid.clone(), vec![series("x.ops", &grid, &[1, 2])])]);
        let report = ComplexityBaseline::compare(&base, &new);
        assert!(rules(&report).contains(&"scenario removed"), "{report:?}");
        assert!(rules(&report).contains(&"counter removed"), "{report:?}");
        // A changed grid makes counts incomparable — also a regression.
        let regridded = baseline(&[
            ("a", vec![100, 300], vec![series("x.ops", &[100, 300], &[1, 2])]),
            ("gone", grid.clone(), vec![series("z.ops", &grid, &[5, 6])]),
        ]);
        let report = ComplexityBaseline::compare(&base, &regridded);
        assert!(rules(&report).contains(&"grid changed"), "{report:?}");
        // New-only series are informational, never regressions.
        let extra = baseline(&[
            (
                "a",
                grid.clone(),
                vec![
                    series("x.ops", &grid, &[1, 2]),
                    series("y.ops", &grid, &[3, 4]),
                    series("w.ops", &grid, &[9, 9]),
                ],
            ),
            ("gone", grid.clone(), vec![series("z.ops", &grid, &[5, 6])]),
        ]);
        assert!(ComplexityBaseline::compare(&base, &extra).is_clean());
    }

    #[test]
    fn unknown_scenario_is_rejected() {
        let err = record(&["bogus".to_string()]).expect_err("unknown scenario");
        assert!(matches!(err, GateError::UnknownScenario { .. }));
        assert!(err.to_string().contains("yds-offline"), "{err}");
    }
}
