//! Statistical perf baselines: named sweep scenarios, warmup + repeat
//! measurement, and a noise-aware regression gate.
//!
//! `qbss perf record` runs every requested scenario through the sharded
//! engine with `warmup` discarded runs followed by `repeats` timed ones,
//! and serializes median / MAD / min wall times plus an environment
//! fingerprint into a canonical baseline JSON (`BENCH_baseline.json` in
//! the repo root), optionally with per-scenario span profiles and work
//! counters. The record/compare/gate protocol itself lives in
//! [`crate::gate`]; this module keeps the measurement, the document and
//! the rule.
//!
//! The rule is deliberately noise-aware: a scenario regresses only when
//! the new median exceeds the old one by more than
//! `max(MAD_FACTOR · MAD, MIN_REL · median)` — MAD (median absolute
//! deviation) is a robust spread estimate, and the relative floor keeps
//! 1-core CI hosts with near-zero MAD from flaking. A regressed scenario
//! is blamed on the call paths whose self time moved past the same
//! slack, and cross-checked against its exact work counters.

use std::collections::BTreeMap;
use std::time::Instant;

use qbss_core::model::QbssInstance;
use qbss_core::pipeline::{run_evaluated, Algorithm};
use qbss_instances::gen::{generate, Compressibility, GenConfig, QueryModel, TimeModel};
use qbss_telemetry::profile::{PathDelta, Profile, PROFILE_SCHEMA};
use qbss_telemetry::{json_escape, json_f64, json_parse, JsonValue, RingSink};

use crate::engine::{run_sweep, InstanceSource, SweepSpec};
use crate::gate::{self, Gate, GateError, Scenario, Verdict, WorkMark};

/// The on-disk schema tag; bump on incompatible baseline changes.
pub const BASELINE_SCHEMA: &str = "qbss-perf-baseline/1";

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// What a scenario runs when timed. Everything about it is
/// deterministic (seeded generators, fixed grids); only wall time varies
/// between runs.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// A sweep through the sharded engine (OPT substrate, caches,
    /// aggregation — the end-to-end cost a `qbss sweep` user pays).
    Sweep(fn() -> SweepSpec),
    /// Direct `run_evaluated` calls on pre-generated instances, with no
    /// engine OPT substrate: the solver's own arrival path dominates
    /// the wall time, so solver-level wins and regressions are not
    /// diluted by the (identical-on-both-sides) clairvoyant YDS cost.
    Eval(fn() -> EvalSpec),
}

/// A pinned direct-evaluation workload (see [`Kind::Eval`]).
pub struct EvalSpec {
    /// Pre-generated instances; generation happens at build time and is
    /// excluded from the timed region.
    pub instances: Vec<QbssInstance>,
    /// The configuration under measurement.
    pub alg: Algorithm,
    /// Energy exponent.
    pub alpha: f64,
}

/// A scenario's built workload, constructed once before warmup.
enum Prepared {
    Sweep(SweepSpec),
    Eval(EvalSpec),
}

impl Prepared {
    /// Grid size recorded in the baseline (`cells` in the JSON): sweep
    /// cells, or instances × 1 algorithm × 1 α for eval scenarios.
    fn cells(&self) -> usize {
        match self {
            Prepared::Sweep(spec) => spec.n_cells(),
            Prepared::Eval(spec) => spec.instances.len(),
        }
    }

    /// Runs the workload once (one timed or warmup repetition).
    fn run_once(&self, shards: usize) -> Result<(), GateError> {
        match self {
            Prepared::Sweep(spec) => {
                run_sweep(spec, shards)?;
            }
            Prepared::Eval(spec) => {
                for inst in &spec.instances {
                    run_evaluated(inst, spec.alpha, spec.alg)
                        .map_err(|e| GateError::Cells(e.to_string()))?;
                }
            }
        }
        Ok(())
    }
}

impl Kind {
    /// The pinned sweep spec this scenario measures, or `None` for
    /// direct-evaluation scenarios that bypass the engine.
    pub fn spec(&self) -> Option<SweepSpec> {
        match self {
            Kind::Sweep(build) => Some(build()),
            Kind::Eval(_) => None,
        }
    }

    /// Builds the workload (generating instances for eval scenarios).
    fn prepare(&self) -> Prepared {
        match self {
            Kind::Sweep(build) => Prepared::Sweep(build()),
            Kind::Eval(build) => Prepared::Eval(build()),
        }
    }
}

// Sized so one run takes tens of milliseconds even on a slow 1-core
// host: long enough that scheduler noise amortizes below the gate's
// 25% floor, short enough that warmup + 5 repeats stays under a second.
fn ci_small() -> SweepSpec {
    SweepSpec {
        source: InstanceSource::Generated {
            base: GenConfig::common_deadline(10, 8.0, 0),
            seeds: 0..400,
        },
        algorithms: vec![Algorithm::Avrq, Algorithm::Bkpq, Algorithm::Oaq],
        alphas: vec![2.0, 3.0],
        opt_fw_iters: 0,
    }
}

fn engine_all() -> SweepSpec {
    SweepSpec {
        source: InstanceSource::Generated {
            base: GenConfig::common_deadline(8, 8.0, 0),
            seeds: 0..8,
        },
        algorithms: Algorithm::all(2, 6),
        alphas: vec![2.0, 3.0],
        opt_fw_iters: 4,
    }
}

fn online_large() -> SweepSpec {
    SweepSpec {
        source: InstanceSource::Generated {
            base: GenConfig::online_default(40, 0),
            seeds: 0..16,
        },
        algorithms: vec![Algorithm::Avrq, Algorithm::Bkpq, Algorithm::Oaq],
        alphas: vec![3.0],
        opt_fw_iters: 0,
    }
}

fn multi_machine() -> SweepSpec {
    SweepSpec {
        source: InstanceSource::Generated {
            base: GenConfig::online_default(16, 0),
            seeds: 0..8,
        },
        algorithms: vec![
            Algorithm::AvrqM { m: 3 },
            Algorithm::AvrqMNonmig { m: 3 },
            Algorithm::OaqM { m: 3, fw_iters: 10 },
        ],
        alphas: vec![3.0],
        opt_fw_iters: 4,
    }
}

/// The exact sweep shape `qbss loadgen` POSTs to `/sweep` (count 3,
/// avrq+bkpq, α ∈ {2, 3}), so the serve plane's per-request work has a
/// pinned offline twin the perf gate can hold: if this cell gets
/// slower, serve-mode p99 moves with it.
fn serve_sweep() -> SweepSpec {
    SweepSpec {
        source: InstanceSource::Generated {
            base: GenConfig {
                n: 8,
                seed: 0,
                time: TimeModel::from_name("common", 8).expect("known family"),
                min_w: 0.5,
                max_w: 4.0,
                query: QueryModel::UniformFraction { lo: 0.1, hi: 0.6 },
                compress: Compressibility::Uniform,
            },
            seeds: 0..3,
        },
        algorithms: vec![Algorithm::Avrq, Algorithm::Bkpq],
        alphas: vec![2.0, 3.0],
        opt_fw_iters: 8,
    }
}

/// The OA arrival path at session scale: two dense online instances of
/// 1200 jobs each (≈ 60 jobs active at any time), evaluated directly so
/// the per-arrival solver cost *is* the measurement. This is the
/// scenario that holds the incremental (streaming) OA win: a regression
/// back to per-event re-solves blows far past the gate limit.
fn stream_large() -> EvalSpec {
    let base = GenConfig {
        n: 1200,
        seed: 0,
        time: TimeModel::Online { horizon: 100.0, min_len: 2.0, max_len: 8.0 },
        min_w: 0.5,
        max_w: 4.0,
        query: QueryModel::UniformFraction { lo: 0.1, hi: 0.6 },
        compress: Compressibility::Uniform,
    };
    EvalSpec {
        instances: (0..2).map(|seed| generate(&GenConfig { seed, ..base })).collect(),
        alg: Algorithm::Oaq,
        alpha: 3.0,
    }
}

/// A named, fully pinned perf workload.
pub type PerfScenario = Scenario<Kind>;

/// Every named scenario, in canonical order.
pub fn scenarios() -> &'static [PerfScenario] {
    const TABLE: &[PerfScenario] = &[
        Scenario {
            name: "ci-small",
            description: "3 online algorithms × 2 α × 400 common-deadline instances (n=10)",
            work: Kind::Sweep(ci_small),
        },
        Scenario {
            name: "engine-all",
            description: "all 9 configurations × 2 α × 8 common-deadline instances (n=8)",
            work: Kind::Sweep(engine_all),
        },
        Scenario {
            name: "online-large",
            description: "3 online algorithms × 16 online instances (n=40)",
            work: Kind::Sweep(online_large),
        },
        Scenario {
            name: "multi-machine",
            description: "3 multi-machine configurations (m=3) × 8 online instances (n=16)",
            work: Kind::Sweep(multi_machine),
        },
        Scenario {
            name: "serve-sweep",
            description: "the loadgen /sweep payload: avrq+bkpq × 2 α × 3 instances (n=8)",
            work: Kind::Sweep(serve_sweep),
        },
        Scenario {
            name: "stream-large",
            description: "the OA arrival path: oaq × 2 dense online instances (n=1200)",
            work: Kind::Eval(stream_large),
        },
    ];
    TABLE
}

/// Looks up a scenario by name.
pub fn scenario(name: &str) -> Option<PerfScenario> {
    gate::find(scenarios(), name)
}

// ---------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------

/// How a recording run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfConfig {
    /// Discarded warmup runs per scenario.
    pub warmup: usize,
    /// Timed runs per scenario (the sample set).
    pub repeats: usize,
    /// Engine shard count (0 = available cores).
    pub shards: usize,
}

impl Default for PerfConfig {
    fn default() -> Self {
        Self { warmup: 1, repeats: 5, shards: 1 }
    }
}

/// Robust statistics of one scenario's timed runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioStats {
    /// Grid size of the measured sweep (`spec.n_cells()`).
    pub cells: usize,
    /// Every timed sample, ms, in run order.
    pub samples_ms: Vec<f64>,
    /// Median of the samples, ms.
    pub median_ms: f64,
    /// Median absolute deviation of the samples, ms.
    pub mad_ms: f64,
    /// Fastest sample, ms.
    pub min_ms: f64,
}

/// Where and how a baseline was recorded. Compared baselines from
/// different environments are still diffable — the fingerprint is
/// informational, surfaced in reports so cross-host noise is explicable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvFingerprint {
    /// Hostname (best effort; `"unknown"` when undiscoverable).
    pub host: String,
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Available cores at record time.
    pub cores: usize,
    /// `rustc --version` output (best effort).
    pub rustc: String,
}

impl EnvFingerprint {
    /// Captures the current environment.
    pub fn capture() -> Self {
        let host = std::env::var("HOSTNAME")
            .ok()
            .filter(|h| !h.is_empty())
            .or_else(|| {
                std::fs::read_to_string("/proc/sys/kernel/hostname")
                    .ok()
                    .map(|h| h.trim().to_string())
                    .filter(|h| !h.is_empty())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            host,
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            rustc,
        }
    }
}

/// A recorded perf baseline: fingerprint, recording config, and one
/// [`ScenarioStats`] per scenario. Serializes canonically (sorted
/// scenario keys, fixed field order) so re-recording an identical
/// machine state diffs cleanly.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Environment the baseline was recorded on.
    pub env: EnvFingerprint,
    /// The recording configuration.
    pub config: PerfConfig,
    /// Stats by scenario name (sorted).
    pub scenarios: BTreeMap<String, ScenarioStats>,
    /// Per-scenario span profiles folded over the timed repeats —
    /// present only when recorded with profiling (`qbss perf record
    /// --profile`); the schema-versioned `profiles` section of the
    /// JSON. Gate attribution needs both sides to carry one.
    pub profiles: BTreeMap<String, Profile>,
    /// Per-scenario deterministic work-counter snapshot — one run's
    /// exact op counts (see [`qbss_core::work::WORK_COUNTERS`]),
    /// captured beside the timings. The gate cross-references them:
    /// a wall-clock regression with byte-identical counters is timer
    /// noise, one with moved counters is real extra work. Optional
    /// schema-versioned section; pre-observatory baselines omit it.
    pub work_counters: BTreeMap<String, BTreeMap<String, u64>>,
}

/// Schema tag of the optional `work_counters` baseline section.
pub const WORK_SCHEMA: &str = "qbss-perf-work/1";

/// Median of `xs` (0 when empty). Robust location estimate: the average
/// of the two middle order statistics for even lengths.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median absolute deviation of `xs` around `center` (0 for fewer than
/// two samples).
pub fn mad(xs: &[f64], center: f64) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let devs: Vec<f64> = xs.iter().map(|&x| (x - center).abs()).collect();
    median(&devs)
}

/// Runs `names` (all scenarios when empty) under `config` and returns
/// the recorded baseline (no profiles — see [`record_profiled`]).
pub fn record(names: &[String], config: PerfConfig) -> Result<Baseline, GateError> {
    record_profiled(names, config, None)
}

/// [`record`], optionally folding a span profile per scenario.
///
/// `profile_ring` is the live ring sink the caller installed as the
/// telemetry pipeline (spans on): the recorder drains it after warmup
/// — discarding warmup spans — and once per timed repeat, so each
/// scenario's [`Profile`] folds exactly the spans of its own
/// `repeats` timed runs. Pass `None` to record timings only.
pub fn record_profiled(
    names: &[String],
    config: PerfConfig,
    profile_ring: Option<&RingSink>,
) -> Result<Baseline, GateError> {
    let mut stats = BTreeMap::new();
    let mut profiles = BTreeMap::new();
    let mut work_counters = BTreeMap::new();
    for sc in gate::pick(scenarios(), names)? {
        let prepared = sc.work.prepare();
        let cells = prepared.cells();
        let _span = qbss_telemetry::span!("perf.scenario", {
            scenario = sc.name,
            cells = cells,
            repeats = config.repeats,
        });
        for _ in 0..config.warmup {
            prepared.run_once(config.shards)?;
        }
        // Warmup (and any previous scenario's tail) is not profiled.
        if let Some(ring) = profile_ring {
            ring.drain_contents();
        }
        let mut samples_ms = Vec::with_capacity(config.repeats);
        let mut span_records = Vec::new();
        for rep in 0..config.repeats.max(1) {
            // Work counters are deterministic per run, so bracketing
            // the first timed repeat captures the scenario's exact
            // per-run op counts with no extra execution.
            let mark = (rep == 0).then(WorkMark::now);
            let t0 = Instant::now();
            prepared.run_once(config.shards)?;
            samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if let Some(mark) = mark {
                work_counters.insert(sc.name.to_string(), mark.delta());
            }
            if let Some(ring) = profile_ring {
                let records = qbss_telemetry::trace::parse_trace(&ring.drain_contents())
                    .map_err(|e| GateError::Parse {
                        kind: "perf",
                        reason: format!("profile ring: {e}"),
                    })?;
                span_records.extend(records);
            }
        }
        let median_ms = median(&samples_ms);
        let mad_ms = mad(&samples_ms, median_ms);
        let min_ms = samples_ms.iter().copied().fold(f64::INFINITY, f64::min);
        qbss_telemetry::info!(
            "perf.scenario",
            { scenario = sc.name, median_ms = median_ms, mad_ms = mad_ms },
            "{}: median {median_ms:.1} ms over {} runs",
            sc.name,
            samples_ms.len()
        );
        if profile_ring.is_some() {
            profiles.insert(sc.name.to_string(), Profile::from_records(&span_records));
        }
        stats.insert(
            sc.name.to_string(),
            ScenarioStats { cells, samples_ms, median_ms, mad_ms, min_ms },
        );
    }
    Ok(Baseline {
        env: EnvFingerprint::capture(),
        config,
        scenarios: stats,
        profiles,
        work_counters,
    })
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

/// An optional schema-tagged section (`profiles`, `work_counters`):
/// `,\n  "key": {schema, scenarios}`.
fn section_json<'a>(
    key: &str,
    schema: &str,
    entries: impl IntoIterator<Item = (&'a String, String)>,
) -> String {
    format!(
        ",\n  \"{key}\": {{\n    \"schema\": \"{}\",\n    \"scenarios\": {}\n  }}",
        json_escape(schema),
        gate::json_object("    ", entries)
    )
}

/// The `scenarios` entries of an optional schema-tagged section; none
/// when the section is absent.
fn section<'a>(
    v: &'a JsonValue,
    key: &str,
    schema: &str,
) -> Result<&'a [(String, JsonValue)], String> {
    let Some(s) = v.get(key) else { return Ok(&[]) };
    gate::check_schema(s, schema).map_err(|e| format!("{key} {e}"))?;
    gate::obj(s, "scenarios").map_err(|e| format!("`{key}`: {e}"))
}

fn parse_stats(s: &JsonValue) -> Result<ScenarioStats, String> {
    let samples_ms = gate::arr(s, "samples_ms")?
        .iter()
        .map(|x| x.as_f64().ok_or("non-numeric sample"))
        .collect::<Result<_, _>>()?;
    Ok(ScenarioStats {
        cells: s.get("cells").and_then(JsonValue::as_u64).unwrap_or(0) as usize,
        samples_ms,
        median_ms: gate::num(s, "median_ms")?,
        mad_ms: gate::num(s, "mad_ms")?,
        min_ms: gate::num(s, "min_ms")?,
    })
}

impl Gate for Baseline {
    const KIND: &'static str = "perf";
    type Report = CompareReport;

    fn to_json(&self) -> String {
        let scenarios = gate::json_object(
            "  ",
            self.scenarios.iter().map(|(name, s)| {
                let samples: Vec<String> = s.samples_ms.iter().map(|&x| json_f64(x)).collect();
                let body = format!(
                    "{{\"cells\": {}, \"median_ms\": {}, \"mad_ms\": {}, \"min_ms\": {}, \
                     \"samples_ms\": [{}]}}",
                    s.cells,
                    json_f64(s.median_ms),
                    json_f64(s.mad_ms),
                    json_f64(s.min_ms),
                    samples.join(", ")
                );
                (name, body)
            }),
        );
        let mut out = format!(
            "{{\n  \"schema\": \"{}\",\n  \"env\": {{\"host\": \"{}\", \"os\": \"{}\", \
             \"arch\": \"{}\", \"cores\": {}, \"rustc\": \"{}\"}},\n  \"config\": \
             {{\"warmup\": {}, \"repeats\": {}, \"shards\": {}}},\n  \"scenarios\": {scenarios}",
            json_escape(BASELINE_SCHEMA),
            json_escape(&self.env.host),
            json_escape(&self.env.os),
            json_escape(&self.env.arch),
            self.env.cores,
            json_escape(&self.env.rustc),
            self.config.warmup,
            self.config.repeats,
            self.config.shards,
        );
        // Optional sections: baselines recorded without them (and
        // every older baseline) omit them and still parse.
        if !self.profiles.is_empty() {
            let entries = self.profiles.iter().map(|(name, p)| (name, p.to_json()));
            out.push_str(&section_json("profiles", PROFILE_SCHEMA, entries));
        }
        if !self.work_counters.is_empty() {
            let entries = self.work_counters.iter().map(|(name, counters)| {
                let body: Vec<String> =
                    counters.iter().map(|(c, v)| format!("\"{}\": {v}", json_escape(c))).collect();
                (name, format!("{{{}}}", body.join(", ")))
            });
            out.push_str(&section_json("work_counters", WORK_SCHEMA, entries));
        }
        out + "\n}\n"
    }

    fn parse(input: &str) -> Result<Baseline, GateError> {
        let bad = |reason: String| GateError::Parse { kind: "perf", reason };
        let v = json_parse(input).map_err(bad)?;
        gate::check_schema(&v, BASELINE_SCHEMA).map_err(bad)?;
        let env = v.get("env").ok_or_else(|| bad("missing `env`".into()))?;
        let field = |key: &str| {
            env.get(key).and_then(JsonValue::as_str).unwrap_or("unknown").to_string()
        };
        let env = EnvFingerprint {
            host: field("host"),
            os: field("os"),
            arch: field("arch"),
            cores: env.get("cores").and_then(JsonValue::as_u64).unwrap_or(1) as usize,
            rustc: field("rustc"),
        };
        let cfg = v.get("config").ok_or_else(|| bad("missing `config`".into()))?;
        let knob = |key: &str, default: u64| {
            cfg.get(key).and_then(JsonValue::as_u64).unwrap_or(default) as usize
        };
        let config = PerfConfig {
            warmup: knob("warmup", 0),
            repeats: knob("repeats", 0),
            shards: knob("shards", 1),
        };
        let mut scenarios = BTreeMap::new();
        for (name, s) in gate::obj(&v, "scenarios").map_err(bad)? {
            let stats = parse_stats(s).map_err(|e| bad(format!("scenario `{name}`: {e}")))?;
            scenarios.insert(name.clone(), stats);
        }
        let mut profiles = BTreeMap::new();
        for (name, p) in section(&v, "profiles", PROFILE_SCHEMA).map_err(bad)? {
            let profile = Profile::from_json(p)
                .map_err(|e| bad(format!("profile for scenario `{name}`: {e}")))?;
            profiles.insert(name.clone(), profile);
        }
        let mut work_counters = BTreeMap::new();
        for (name, c) in section(&v, "work_counters", WORK_SCHEMA).map_err(bad)? {
            let JsonValue::Obj(counters) = c else {
                return Err(bad(format!("work counters for scenario `{name}` must be an object")));
            };
            let counts = counters
                .iter()
                .map(|(counter, value)| {
                    let count = value.as_u64().ok_or_else(|| {
                        bad(format!("scenario `{name}` counter `{counter}`: non-integer count"))
                    })?;
                    Ok((counter.clone(), count))
                })
                .collect::<Result<_, GateError>>()?;
            work_counters.insert(name.clone(), counts);
        }
        Ok(Baseline { env, config, scenarios, profiles, work_counters })
    }

    fn scenario_names(&self) -> Vec<String> {
        self.scenarios.keys().cloned().collect()
    }

    /// Diffs `new` against `base` under the noise-aware rule. A scenario
    /// present in `base` but missing from `new` counts as regressed
    /// (coverage must not silently shrink); a scenario only in `new` is
    /// informational.
    fn compare(base: &Baseline, new: &Baseline) -> CompareReport {
        let mut names: Vec<&String> = base.scenarios.keys().chain(new.scenarios.keys()).collect();
        names.sort();
        names.dedup();
        let deltas = names
            .into_iter()
            .map(|name| {
                let (b, n) = (base.scenarios.get(name), new.scenarios.get(name));
                let (base_prof, new_prof) = (base.profiles.get(name), new.profiles.get(name));
                let limit = b.filter(|_| n.is_some()).map(|b| limit_ms(b.median_ms, b.mad_ms));
                let regressed = match (b, n, limit) {
                    (Some(_), None, _) => true,
                    (_, Some(n), Some(limit)) => n.median_ms > limit,
                    _ => false,
                };
                // Blame and the counter cross-reference explain a
                // measured regression, so both sides must be present.
                let measured = regressed && limit.is_some();
                let blame = match (measured, b, base_prof, new_prof) {
                    (true, Some(b), Some(bp), Some(np)) => {
                        blame_paths(bp, base.config.repeats, b.mad_ms, np, new.config.repeats)
                    }
                    _ => Vec::new(),
                };
                let counter_moves = match (
                    measured,
                    base.work_counters.get(name),
                    new.work_counters.get(name),
                ) {
                    (true, Some(bc), Some(nc)) => Some(counter_moves(bc, nc)),
                    _ => None,
                };
                ScenarioDelta {
                    name: name.clone(),
                    base_ms: b.map(|b| b.median_ms),
                    base_mad_ms: b.map(|b| b.mad_ms),
                    new_ms: n.map(|n| n.median_ms),
                    limit_ms: limit,
                    regressed,
                    has_profiles: base_prof.is_some() && new_prof.is_some(),
                    base_has_profile: base_prof.is_some(),
                    blame,
                    counter_moves,
                }
            })
            .collect();
        CompareReport { deltas }
    }
}

// ---------------------------------------------------------------------
// The noise-aware rule
// ---------------------------------------------------------------------

/// How many base MADs of slack a scenario (or call path) gets.
pub const MAD_FACTOR: f64 = 3.0;

/// Relative floor on the slack, as a fraction of the base median.
pub const MIN_REL: f64 = 0.25;

/// The slowest acceptable new median for a scenario with base
/// statistics `(median, mad)`.
pub fn limit_ms(base_median_ms: f64, base_mad_ms: f64) -> f64 {
    base_median_ms + (MAD_FACTOR * base_mad_ms).max(MIN_REL * base_median_ms)
}

/// How many call paths a regression is attributed to at most.
pub const BLAME_TOP_K: usize = 5;

/// One call path blamed for a scenario regression: its per-run self
/// time moved by more than the scenario's own noise threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct PathBlame {
    /// The call path in folded spelling (`a;b;c`).
    pub path: String,
    /// Base self time per timed run, ms.
    pub base_self_ms: f64,
    /// New self time per timed run, ms.
    pub new_self_ms: f64,
    /// Call count in the base profile (all repeats).
    pub base_count: u64,
    /// Call count in the new profile (all repeats).
    pub new_count: u64,
}

impl PathBlame {
    /// Per-run self-time change, ms (positive = slower).
    pub fn delta_ms(&self) -> f64 {
        self.new_self_ms - self.base_self_ms
    }
}

/// One scenario's diff between two baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDelta {
    /// Scenario name.
    pub name: String,
    /// Base median, ms (`None` when the scenario is new).
    pub base_ms: Option<f64>,
    /// Base MAD, ms (`None` when the scenario is new).
    pub base_mad_ms: Option<f64>,
    /// New median, ms (`None` when the scenario disappeared).
    pub new_ms: Option<f64>,
    /// The threshold the new median had to stay under, ms.
    pub limit_ms: Option<f64>,
    /// Whether this scenario regressed.
    pub regressed: bool,
    /// Both baselines carried a profile for this scenario.
    pub has_profiles: bool,
    /// The *base* baseline carried a profile for this scenario —
    /// distinguishes a pre-profiling committed baseline ("no profile
    /// data in baseline") from a new run recorded without `--profile`.
    pub base_has_profile: bool,
    /// For a regressed, profiled scenario: the top call paths (at
    /// most [`BLAME_TOP_K`]) whose per-run self time grew past the
    /// noise threshold, largest delta first.
    pub blame: Vec<PathBlame>,
    /// Work-counter cross-reference, for a regressed scenario where
    /// both baselines carry a counter snapshot: the counters whose
    /// per-run op counts differ. `Some(vec![])` means every counter is
    /// byte-identical — the wall-clock regression is timer noise, not
    /// extra work. `None` when either side lacks a snapshot.
    pub counter_moves: Option<Vec<CounterMove>>,
}

/// One work counter whose per-run count changed between two baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterMove {
    /// Catalogued counter name.
    pub counter: String,
    /// Count in the base snapshot (0 when absent).
    pub base: u64,
    /// Count in the new snapshot (0 when absent).
    pub new: u64,
}

impl CounterMove {
    /// Relative change in percent, when the base count is positive.
    pub fn percent(&self) -> Option<f64> {
        (self.base > 0)
            .then(|| (self.new as f64 - self.base as f64) / self.base as f64 * 100.0)
    }
}

/// The counters whose counts differ between two snapshots, name order.
fn counter_moves(
    base: &BTreeMap<String, u64>,
    new: &BTreeMap<String, u64>,
) -> Vec<CounterMove> {
    let mut names: Vec<&String> = base.keys().chain(new.keys()).collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .filter_map(|name| {
            let b = base.get(name).copied().unwrap_or(0);
            let n = new.get(name).copied().unwrap_or(0);
            (b != n).then(|| CounterMove { counter: name.clone(), base: b, new: n })
        })
        .collect()
}

/// Everything `qbss perf compare` / `gate` reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompareReport {
    /// Per-scenario deltas, in name order.
    pub deltas: Vec<ScenarioDelta>,
}

impl ScenarioDelta {
    fn verdict(&self) -> &'static str {
        match (self.regressed, self.new_ms, self.base_ms) {
            (true, _, _) => "REGRESSED",
            (false, None, _) => "removed",
            (false, _, None) => "new",
            (false, _, _) => "ok",
        }
    }
}

impl CompareReport {
    /// The regressed scenarios.
    pub fn regressions(&self) -> Vec<&ScenarioDelta> {
        self.deltas.iter().filter(|d| d.regressed).collect()
    }
}

impl Verdict for CompareReport {
    fn is_clean(&self) -> bool {
        self.regressions().is_empty()
    }

    /// One line per scenario plus the verdict.
    fn render(&self) -> String {
        let fmt = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.1}"));
        let mut out = String::new();
        for d in &self.deltas {
            out.push_str(&format!(
                "{}  base {} ms  new {} ms  limit {} ms  {}\n",
                d.name,
                fmt(d.base_ms),
                fmt(d.new_ms),
                fmt(d.limit_ms),
                d.verdict()
            ));
        }
        out + &self.summary() + "\n"
    }

    /// Diagnostic table: every number that feeds the gate decision, so
    /// a CI failure can be understood from the log alone. Columns are
    /// the base median/MAD, the new median, the computed limit and the
    /// delta of the new median against the base; each regression then
    /// gets its call-path blame and work-counter cross-check.
    fn render_explain(&self) -> String {
        let fmt = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.2}"));
        let mut rows: Vec<[String; 7]> = vec![[
            "scenario".into(),
            "base ms".into(),
            "mad ms".into(),
            "new ms".into(),
            "limit ms".into(),
            "delta ms".into(),
            "verdict".into(),
        ]];
        for d in &self.deltas {
            let delta = match (d.base_ms, d.new_ms) {
                (Some(b), Some(n)) => format!("{:+.2}", n - b),
                _ => "-".to_string(),
            };
            rows.push([
                d.name.clone(),
                fmt(d.base_ms),
                fmt(d.base_mad_ms),
                fmt(d.new_ms),
                fmt(d.limit_ms),
                delta,
                d.verdict().to_string(),
            ]);
        }
        let mut widths = [0usize; 7];
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        for row in &rows {
            let line: Vec<String> =
                row.iter().zip(&widths).map(|(cell, w)| format!("{cell:<w$}")).collect();
            out.push_str(line.join("  ").trim_end());
            out.push('\n');
        }
        out.push_str(&format!("limit = base + max({MAD_FACTOR}×mad, {MIN_REL}×base)\n"));
        for d in self.regressions() {
            if d.base_ms.is_none() || d.new_ms.is_none() {
                continue; // appeared/disappeared — nothing to attribute
            }
            if !d.blame.is_empty() {
                out.push_str(&format!(
                    "{}: self-time attribution (per-run, movers past the noise threshold):\n",
                    d.name
                ));
                for b in &d.blame {
                    out.push_str(&format!(
                        "  {}  {:+.2} ms self ({:.2} → {:.2})  count {} → {}\n",
                        b.path, b.delta_ms(), b.base_self_ms, b.new_self_ms,
                        b.base_count, b.new_count
                    ));
                }
            } else if d.has_profiles {
                out.push_str(&format!(
                    "{}: no single call path moved past the noise threshold\n",
                    d.name
                ));
            } else if !d.base_has_profile {
                out.push_str(&format!(
                    "{}: no profile data in baseline (it predates profiling; \
                     re-record it with --profile to enable blame)\n",
                    d.name
                ));
            } else {
                out.push_str(&format!(
                    "{}: no profile attribution (record both baselines with --profile)\n",
                    d.name
                ));
            }
            // The deterministic cross-check: op counts either moved
            // (real extra work) or didn't (timer noise).
            match &d.counter_moves {
                Some(moves) if moves.is_empty() => {
                    out.push_str(&format!(
                        "{}: work counters unchanged — likely timer noise, not extra work\n",
                        d.name
                    ));
                }
                Some(moves) => {
                    out.push_str(&format!("{}: real work change — op counts moved:\n", d.name));
                    for m in moves {
                        let rel = m
                            .percent()
                            .map_or_else(String::new, |p| format!(" ({p:+.0}%)"));
                        out.push_str(&format!(
                            "  {}  {} → {}{rel}\n",
                            m.counter, m.base, m.new
                        ));
                    }
                }
                None => {} // no snapshots on one side; nothing to say
            }
        }
        out + &self.summary() + "\n"
    }

    fn summary(&self) -> String {
        match self.regressions().len() {
            0 => "no perf regression".to_string(),
            n => format!("{n} scenario(s) regressed"),
        }
    }
}

/// Attributes a regressed scenario to call paths: per-run self-time
/// deltas larger than the scenario's own noise scale.
///
/// Profiles fold *all* timed repeats, so self times are normalized by
/// each side's `repeats` before comparing. A path is blamed when its
/// per-run self time grew by more than
/// `max(MAD_FACTOR × base MAD, MIN_REL × base per-run self)` — the same
/// slack shape the gate grants the scenario median, applied per path.
/// Top [`BLAME_TOP_K`] by delta, largest first.
fn blame_paths(
    base: &Profile,
    base_repeats: usize,
    base_mad_ms: f64,
    new: &Profile,
    new_repeats: usize,
) -> Vec<PathBlame> {
    let base_runs = base_repeats.max(1) as f64;
    let new_runs = new_repeats.max(1) as f64;
    let mut blamed: Vec<PathBlame> = Profile::diff(base, new)
        .into_iter()
        .filter_map(|d: PathDelta| {
            let base_self_ms = d.base_self_us as f64 / 1e3 / base_runs;
            let new_self_ms = d.new_self_us as f64 / 1e3 / new_runs;
            let slack_ms = (MAD_FACTOR * base_mad_ms).max(MIN_REL * base_self_ms);
            if new_self_ms - base_self_ms <= slack_ms {
                return None;
            }
            Some(PathBlame {
                path: d.path_str(),
                base_self_ms,
                new_self_ms,
                base_count: d.base_count,
                new_count: d.new_count,
            })
        })
        .collect();
    blamed.sort_by(|a, b| b.delta_ms().total_cmp(&a.delta_ms()));
    blamed.truncate(BLAME_TOP_K);
    blamed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(samples: &[f64]) -> ScenarioStats {
        let median_ms = median(samples);
        ScenarioStats {
            cells: 10,
            samples_ms: samples.to_vec(),
            median_ms,
            mad_ms: mad(samples, median_ms),
            min_ms: samples.iter().copied().fold(f64::INFINITY, f64::min),
        }
    }

    fn baseline(entries: &[(&str, &[f64])]) -> Baseline {
        Baseline {
            env: EnvFingerprint {
                host: "h".into(),
                os: "linux".into(),
                arch: "x86_64".into(),
                cores: 1,
                rustc: "rustc test".into(),
            },
            config: PerfConfig::default(),
            scenarios: entries
                .iter()
                .map(|(name, s)| (name.to_string(), stats(s)))
                .collect(),
            profiles: BTreeMap::new(),
            work_counters: BTreeMap::new(),
        }
    }

    /// Attaches a work-counter snapshot to one scenario.
    fn with_counters(mut b: Baseline, name: &str, counters: &[(&str, u64)]) -> Baseline {
        b.work_counters.insert(
            name.to_string(),
            counters.iter().map(|&(c, v)| (c.to_string(), v)).collect(),
        );
        b
    }

    /// Attaches a profile parsed from folded text to one scenario.
    fn with_profile(mut b: Baseline, name: &str, folded: &str) -> Baseline {
        b.profiles.insert(
            name.to_string(),
            Profile::parse_folded(folded).expect("valid folded text"),
        );
        b
    }

    #[test]
    fn median_and_mad_basics() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(mad(&[7.0], 7.0), 0.0, "single sample has MAD 0");
        assert_eq!(mad(&[1.0, 3.0, 5.0], 3.0), 2.0);
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let b = baseline(&[("ci-small", &[10.0, 11.0, 10.5]), ("engine-all", &[100.0, 98.0])]);
        let json = b.to_json();
        let back = Baseline::parse(&json).expect("round trip");
        assert_eq!(back, b);
        // Canonical form is stable: serialize → parse → serialize.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn parse_rejects_foreign_or_broken_documents() {
        assert!(matches!(Baseline::parse("{}"), Err(GateError::Parse { .. })));
        assert!(matches!(Baseline::parse("not json"), Err(GateError::Parse { .. })));
        let wrong = "{\"schema\": \"qbss-perf-baseline/999\", \"env\": {}, \
                     \"config\": {}, \"scenarios\": {}}";
        let err = Baseline::parse(wrong).expect_err("wrong schema");
        assert!(err.to_string().contains("schema"), "{err}");
    }

    #[test]
    fn compare_flags_only_real_regressions() {
        let base = baseline(&[("a", &[100.0, 102.0, 98.0])]);
        // Within the 25% floor: not a regression.
        let ok = baseline(&[("a", &[110.0, 112.0, 108.0])]);
        let report = Baseline::compare(&base, &ok);
        assert!(report.regressions().is_empty(), "{}", report.render());
        // 2× slowdown: regression.
        let slow = baseline(&[("a", &[200.0, 202.0, 198.0])]);
        let report = Baseline::compare(&base, &slow);
        assert_eq!(report.regressions().len(), 1);
        assert!(report.render().contains("REGRESSED"), "{}", report.render());
    }

    #[test]
    fn identical_baselines_never_regress() {
        let b = baseline(&[("a", &[50.0, 51.0]), ("b", &[7.0, 7.0, 7.0])]);
        let report = Baseline::compare(&b, &b.clone());
        assert!(report.regressions().is_empty());
        assert!(report.render().contains("no perf regression"));
    }

    #[test]
    fn missing_scenario_is_a_regression_new_scenario_is_not() {
        let base = baseline(&[("a", &[50.0]), ("b", &[60.0])]);
        let new = baseline(&[("a", &[50.0]), ("c", &[10.0])]);
        let report = Baseline::compare(&base, &new);
        let regressed: Vec<&str> =
            report.regressions().iter().map(|d| d.name.as_str()).collect();
        assert_eq!(regressed, ["b"], "dropped coverage must fail the gate");
        let c = report.deltas.iter().find(|d| d.name == "c").expect("new scenario listed");
        assert!(!c.regressed);
    }

    #[test]
    fn explain_table_carries_every_gate_input() {
        let base = baseline(&[("a", &[100.0, 102.0, 98.0]), ("gone", &[5.0])]);
        let new = baseline(&[("a", &[200.0, 202.0, 198.0]), ("fresh", &[1.0])]);
        let out = Baseline::compare(&base, &new).render_explain();
        // Header plus the three scenarios, then the limit formula.
        for needle in [
            "scenario", "base ms", "mad ms", "new ms", "limit ms", "delta ms", "verdict",
            "REGRESSED", "new", "+100.00",
            "limit = base + max(3×mad, 0.25×base)",
            "2 scenario(s) regressed",
        ] {
            assert!(out.contains(needle), "missing `{needle}` in:\n{out}");
        }
        // The MAD column carries the base MAD: mad([100,102,98]) = 2.
        let a_row = out.lines().find(|l| l.starts_with("a ")).expect("row for a");
        assert!(a_row.contains("2.00"), "{a_row}");
    }

    #[test]
    fn profiled_baseline_round_trips_and_plain_format_is_unchanged() {
        let plain = baseline(&[("a", &[10.0, 11.0])]);
        assert!(!plain.to_json().contains("profiles"), "no empty section");
        let profiled = with_profile(plain.clone(), "a", "root 30 1\nroot;x 50 2\n");
        let json = profiled.to_json();
        assert!(json.contains("\"profiles\""), "{json}");
        assert!(json.contains(PROFILE_SCHEMA), "{json}");
        let back = Baseline::parse(&json).expect("round trip");
        assert_eq!(back, profiled);
        assert_eq!(back.to_json(), json, "canonical form is stable");
        // Pre-profiling baselines still parse (back-compat).
        assert_eq!(Baseline::parse(&plain.to_json()).expect("old format"), plain);
    }

    #[test]
    fn work_counter_baseline_round_trips_and_plain_format_is_unchanged() {
        let plain = baseline(&[("a", &[10.0, 11.0])]);
        assert!(!plain.to_json().contains("work_counters"), "no empty section");
        let counted = with_counters(
            plain.clone(),
            "a",
            &[("yds.intervals_scanned", 1234), ("oa.hull_updates", 56)],
        );
        let json = counted.to_json();
        assert!(json.contains("\"work_counters\""), "{json}");
        assert!(json.contains(WORK_SCHEMA), "{json}");
        let back = Baseline::parse(&json).expect("round trip");
        assert_eq!(back, counted);
        assert_eq!(back.to_json(), json, "canonical form is stable");
        // Pre-observatory baselines still parse (back-compat), and the
        // sections compose: profiles + work_counters together.
        assert_eq!(Baseline::parse(&plain.to_json()).expect("old format"), plain);
        let both = with_profile(counted, "a", "root 30 1\n");
        let json = both.to_json();
        assert_eq!(Baseline::parse(&json).expect("both sections"), both);
        let err = Baseline::parse(&json.replace(WORK_SCHEMA, "qbss-perf-work/999"))
            .expect_err("wrong work schema");
        assert!(err.to_string().contains("work_counters schema"), "{err}");
    }

    #[test]
    fn gate_cross_references_work_counters() {
        // A 3× wall regression with byte-identical counters: explain
        // must call it timer noise.
        let base = with_counters(
            baseline(&[("a", &[100.0, 100.0])]),
            "a",
            &[("yds.intervals_scanned", 1000)],
        );
        let noisy = with_counters(
            baseline(&[("a", &[300.0, 300.0])]),
            "a",
            &[("yds.intervals_scanned", 1000)],
        );
        let report = Baseline::compare(&base, &noisy);
        assert_eq!(report.deltas[0].counter_moves, Some(vec![]));
        let out = report.render_explain();
        assert!(out.contains("work counters unchanged — likely timer noise"), "{out}");
        // Same regression with moved counts: explain must name the
        // counter with old → new and the relative change.
        let real = with_counters(
            baseline(&[("a", &[300.0, 300.0])]),
            "a",
            &[("yds.intervals_scanned", 1380)],
        );
        let report = Baseline::compare(&base, &real);
        let moves = report.deltas[0].counter_moves.as_ref().expect("both sides snapshot");
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].counter, "yds.intervals_scanned");
        let out = report.render_explain();
        assert!(out.contains("real work change"), "{out}");
        assert!(out.contains("yds.intervals_scanned  1000 → 1380 (+38%)"), "{out}");
        // No snapshot on one side: neither note appears.
        let bare = baseline(&[("a", &[300.0, 300.0])]);
        let out = Baseline::compare(&base, &bare).render_explain();
        assert!(!out.contains("timer noise") && !out.contains("real work change"), "{out}");
        // Non-regressed scenarios never carry the cross-reference.
        let fine = with_counters(
            baseline(&[("a", &[101.0, 101.0])]),
            "a",
            &[("yds.intervals_scanned", 1380)],
        );
        assert_eq!(Baseline::compare(&base, &fine).deltas[0].counter_moves, None);
    }

    #[test]
    fn record_snapshots_work_counters_beside_timings() {
        let cfg = PerfConfig { warmup: 0, repeats: 2, shards: 1 };
        let b = record(&["ci-small".to_string()], cfg).expect("scenario runs");
        let counters = b.work_counters.get("ci-small").expect("snapshot captured");
        assert!(
            counters.keys().all(|k| qbss_core::work::is_work_counter(k)),
            "only catalogued work counters belong in the snapshot: {counters:?}"
        );
        assert!(
            counters.values().all(|&v| v > 0),
            "zero-delta counters are omitted: {counters:?}"
        );
        // ci-small runs YDS (via the OPT cache) on common-deadline
        // instances, so the YDS scan counters must be present.
        assert!(counters.contains_key("yds.intervals_scanned"), "{counters:?}");
    }

    #[test]
    fn parse_rejects_unknown_profile_schema() {
        let profiled = with_profile(baseline(&[("a", &[10.0])]), "a", "r 1 1\n");
        let json = profiled.to_json().replace(PROFILE_SCHEMA, "qbss-prof/999");
        let err = Baseline::parse(&json).expect_err("wrong profile schema");
        assert!(err.to_string().contains("profiles schema"), "{err}");
    }

    #[test]
    fn gate_blame_names_the_regressed_call_path() {
        // Scenario regresses 100 → 200 ms; the profile says all of it
        // is `root;hot` (per-run self 90 → 190 ms), while `root;cold`
        // stays flat and must not be blamed.
        // PerfConfig::default() repeats = 5, so self times are ÷5.
        let base = with_profile(
            baseline(&[("a", &[100.0, 100.0, 100.0])]),
            "a",
            "root 0 5\nroot;hot 450000 50\nroot;cold 50000 50\n",
        );
        let new = with_profile(
            baseline(&[("a", &[200.0, 200.0, 200.0])]),
            "a",
            "root 0 5\nroot;hot 950000 50\nroot;cold 50000 50\n",
        );
        let report = Baseline::compare(&base, &new);
        let d = &report.deltas[0];
        assert!(d.regressed && d.has_profiles);
        assert_eq!(d.blame.len(), 1, "{:?}", d.blame);
        assert_eq!(d.blame[0].path, "root;hot");
        assert!((d.blame[0].delta_ms() - 100.0).abs() < 1e-9);
        let out = report.render_explain();
        assert!(out.contains("self-time attribution"), "{out}");
        assert!(out.contains("root;hot  +100.00 ms self (90.00 → 190.00)  count 50 → 50"), "{out}");
        assert!(!out.contains("root;cold"), "flat path must not be blamed:\n{out}");
    }

    #[test]
    fn gate_blame_notes_missing_profiles() {
        // The committed baseline predates the profiles section: the
        // explain output must say so, not just ask for --profile.
        let base = baseline(&[("a", &[100.0, 100.0])]);
        let new = baseline(&[("a", &[300.0, 300.0])]);
        let out = Baseline::compare(&base, &new).render_explain();
        assert!(out.contains("no profile data in baseline"), "{out}");
        // The base carries a profile, only the new run lacks one: the
        // fix lives on the recording side, and the note says which.
        let base = with_profile(base, "a", "root;hot 300000 3\n");
        let out = Baseline::compare(&base, &new).render_explain();
        assert!(out.contains("record both baselines with --profile"), "{out}");
        assert!(!out.contains("no profile data in baseline"), "{out}");
    }

    #[test]
    fn gate_blame_respects_the_noise_threshold() {
        // Regressed scenario, but every path's movement stays inside
        // max(3×MAD, 25%×self): attribution reports no single culprit.
        let base = with_profile(
            baseline(&[("a", &[100.0, 90.0, 110.0])]),  // MAD 10
            "a",
            "root;hot 300000 3\n",
        );
        let new = with_profile(
            baseline(&[("a", &[200.0, 190.0, 210.0])]),
            "a",
            "root;hot 360000 3\n",  // +20 ms/run < 3×MAD = 30 ms
        );
        let report = Baseline::compare(&base, &new);
        assert!(report.deltas[0].regressed);
        assert!(report.deltas[0].blame.is_empty());
        let out = report.render_explain();
        assert!(out.contains("no single call path moved past the noise threshold"), "{out}");
    }

    #[test]
    fn threshold_uses_the_larger_of_mad_and_relative_floor() {
        // MAD-dominated: 3×10 = 30 > 25% of 100.
        assert_eq!(limit_ms(100.0, 10.0), 130.0);
        // Floor-dominated: MAD 0 (quiet host) still gets 25%.
        assert_eq!(limit_ms(100.0, 0.0), 125.0);
    }

    #[test]
    fn scenario_table_is_well_formed() {
        let all = scenarios();
        assert!(all.len() >= 4);
        assert!(scenario("ci-small").is_some());
        assert!(scenario("stream-large").is_some());
        assert!(scenario("nope").is_none());
        for s in all {
            match s.work.spec() {
                Some(spec) => {
                    assert!(spec.n_cells() > 0, "{}: empty grid", s.name);
                    spec.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
                }
                None => match s.work.prepare() {
                    Prepared::Eval(spec) => {
                        assert!(!spec.instances.is_empty(), "{}: no instances", s.name);
                        for inst in &spec.instances {
                            inst.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
                        }
                    }
                    Prepared::Sweep(_) => panic!("{}: spec() disagrees with prepare()", s.name),
                },
            }
        }
    }

    #[test]
    fn stream_large_is_session_scale() {
        // The acceptance bar for the streaming engine: the blessed
        // scenario must exercise ≥ 1k-job instances through OA.
        let Prepared::Eval(spec) = scenario("stream-large").expect("known").work.prepare() else {
            panic!("stream-large must be a direct-evaluation scenario");
        };
        assert!(matches!(spec.alg, Algorithm::Oaq));
        for inst in &spec.instances {
            assert!(inst.len() >= 1000, "stream-large instances must be >= 1k jobs");
        }
    }

    #[test]
    fn record_measures_a_tiny_scenario() {
        // One repeat, no warmup, on the smallest scenario: checks the
        // wiring, not the numbers.
        let cfg = PerfConfig { warmup: 0, repeats: 1, shards: 1 };
        let b = record(&["ci-small".to_string()], cfg).expect("scenario runs");
        let s = b.scenarios.get("ci-small").expect("recorded");
        assert_eq!(s.samples_ms.len(), 1);
        assert_eq!(s.mad_ms, 0.0, "single sample has MAD 0");
        assert!(s.median_ms > 0.0 && s.min_ms == s.median_ms);
        assert!(b.env.cores >= 1);
        let err = record(&["bogus".to_string()], cfg).expect_err("unknown scenario");
        assert!(matches!(err, GateError::UnknownScenario { .. }));
    }
}
