//! Implementation of the `qbss` subcommands.
//!
//! Every subcommand returns a [`CliError`], which the `main` wrapper
//! maps onto the process exit-code contract:
//!
//! | code | meaning                                              |
//! |------|------------------------------------------------------|
//! | 0    | success                                              |
//! | 1    | the algorithm pipeline failed ([`CliError::Algorithm`]) |
//! | 2    | bad input: flags, instance data ([`CliError::Input`]) |
//! | 3    | file-system failure ([`CliError::Io`]) or a gate regression ([`CliError::Gate`]) |
//!
//! Flags are uniform across subcommands — `--alg`, `--alpha`, `--m`,
//! `--seed`, `--format table|json|csv` — parsed by the typed [`Flags`]
//! helper: each command declares its known flags and unknown ones are
//! errors. The pre-redesign spellings (`--algorithm`, `--machines`)
//! were removed after a deprecation period; they are unknown flags now.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

use qbss_bench::engine::{run_sweep_audited, EngineReport, InstanceSource, SweepSpec};
use qbss_bench::gate::{self, Exact, Gate, GateError, Verdict};
use qbss_bench::perf::{self, Baseline as PerfBaseline, PerfConfig};
use qbss_bench::{BuildInfo, ComplexityBaseline, QualityBaseline, StreamSession};
use qbss_telemetry::profile::Profile;
use qbss_telemetry::{Config, Filter, InitError, JsonValue, RingSink, SinkTarget};
use qbss_core::error::{AlgorithmError, QbssError};
use qbss_core::model::{QJob, QbssInstance};
use qbss_core::offline::is_power_of_two_deadline;
use qbss_core::pipeline::{run_evaluated, Algorithm, DEFAULT_FW_ITERS, DEFAULT_MACHINES};
use qbss_instances::gen::{self, Compressibility, GenConfig, QueryModel, TimeModel};
use qbss_instances::io::{self, IoError};
use speed_scaling::render::{timeline_html, TimelineBand};
use speed_scaling::OptCache;

/// Top-level usage text.
pub const USAGE: &str = "\
qbss — speed scaling with explorable uncertainty (SPAA 2021)

USAGE:
  qbss generate [--n N] [--seed S] [--family online|poisson|common|p2|arbitrary]
                [--compress uniform|bimodal|heavytail|incompressible|full]
                [--events] [--out FILE] [--trace FILE]
                  (--events emits the JSONL arrival stream for `qbss stream`)
  qbss run      --alg ALG --in FILE [--alpha A] [--m M] [--format table|json|csv]
                [--gantt true] [--save-outcome FILE] [--trace FILE]
                  ALG: avrq | bkpq | oaq | crcd | crp2d | crad
                     | avrq-m[:M] | avrq-m-nonmig[:M] | oaq-m[:M[:ITERS]]
  qbss stream   --alg avrq|bkpq|oaq [--alpha A] [--in FILE] [--format table|json|csv]
                [--trace FILE]
                  (JSONL events from --in FILE or stdin: {\"type\": \"arrive\", ...},
                   {\"type\": \"advance\", \"t\": T}, {\"type\": \"finish\"}; EOF finishes)
  qbss compare  --in FILE [--alpha A] [--format table|json|csv] [--trace FILE]
  qbss explain  --alg ALG (--in FILE | [--n N] [--seed S] [--family F] [--compress C])
                [--alpha A] [--format table|json] [--html FILE] [--trace FILE]
                  (factor the cell's ratio into query × split × sched losses,
                   print per-job decision rows, render an ALG-vs-OPT timeline)
  qbss sweep    [--count K] [--n N] [--seed S] [--family F] [--compress C]
                [--alg LIST|all] [--alpha LIST] [--m M] [--fw-iters I]
                [--shards S] [--opt-fw-iters I] [--format json|csv] [--out FILE]
                [--audit] [--trace FILE]
  qbss serve    [--addr HOST:PORT] [--workers N] [--ring-capacity N]
                [--slow-ms MS] [--budget CELLS] [--request-timeout-ms MS]
                [--io-timeout-ms MS] [--accept-tick-ms MS]
  qbss loadgen  [--addr HOST:PORT | --spawn] [--rps R] [--duration-s S]
                [--seed S] [--mix evaluate|sweep|mixed] [--adversarial]
                [--connections N] [--n N] [--budget CELLS]
                [--request-timeout-ms MS] [--out FILE] [--plan-only]
  qbss bounds   [--alpha A]
  qbss rho
  qbss trace    summarize FILE [--top K] [--format text|json]
  qbss trace    report FILE [--out FILE]
                  (trace FILE may be `-` to read stdin)
  qbss perf     record  [--out FILE] [--scenarios LIST] [--repeats N]
                        [--warmup N] [--shards S] [--profile] [--trace FILE]
  qbss perf     compare BASE NEW
  qbss perf     gate    --base FILE [--new FILE] [--explain]
  qbss quality  record  [--out FILE] [--scenarios LIST] [--trace FILE]
  qbss quality  compare BASE NEW
  qbss quality  gate    --base FILE [--new FILE] [--explain]
                  (pinned competitive-ratio scenarios; the gate is exact —
                   any worsened max ratio or bound headroom exits 3)
  qbss complexity record  [--out FILE] [--scenarios LIST] [--format json|csv]
                          [--trace FILE]
  qbss complexity compare BASE NEW
  qbss complexity gate    --base FILE [--new FILE] [--explain]
                  (deterministic op counters swept over n-grids; the gate
                   is exact — any increased count at any grid point or a
                   fitted-exponent increase beyond +0.05 exits 3)
                  (every kind: `gate` re-measures the base's own scenarios
                   unless --new is given, and exits 3 on a regression)
  qbss prof     record  (--trace FILE | --scenario NAME [--repeats N] [--warmup N]
                        [--shards S]) [--collapse LIST] [--counts-only] [--out FILE]
  qbss prof     diff    BASE NEW [--top K]
  qbss prof     flame   (--trace FILE | --folded FILE) [--title T] [--out FILE]
  qbss --version
  qbss help

OBSERVABILITY:
  --trace FILE   record a JSONL trace (spans + events + metrics records)
  --audit        validate every sweep schedule against the paper's
                 invariants (feasibility, query rule, Lemma 3.1 loads,
                 proven energy/speed bounds); breaches raise `error!`
                 events and the `audit.violations` counter
  QBSS_LOG       event filter: `level` or `target=level`, comma-separated
                 (off|error|warn|info|debug|trace); a bad spec is bad input
  QBSS_BLESS=1   a failing `perf|quality|complexity gate` re-records its
                 --base file with the new measurements instead of exiting 3

EXIT CODES:
  0 success | 1 algorithm failure | 2 bad input
  3 I/O failure or a perf/quality/complexity-gate regression
  (`qbss serve` exits 0 on SIGTERM/ctrl-c after draining in-flight requests)";

/// A subcommand failure, carrying its exit code.
#[derive(Debug)]
pub enum CliError {
    /// Malformed command line or instance data (exit code 2).
    Input(String),
    /// The algorithm pipeline rejected or failed the run (exit code 1).
    Algorithm(QbssError),
    /// The file system failed (exit code 3).
    Io(String),
    /// `qbss perf|quality|complexity gate` found a regression (exit
    /// code 3, like a CI infrastructure failure: the build is not
    /// acceptable as-is).
    Gate(String),
}

impl CliError {
    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Algorithm(_) => 1,
            CliError::Input(_) => 2,
            CliError::Io(_) | CliError::Gate(_) => 3,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Input(m) | CliError::Io(m) | CliError::Gate(m) => f.write_str(m),
            CliError::Algorithm(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Algorithm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QbssError> for CliError {
    fn from(e: QbssError) -> Self {
        CliError::Algorithm(e)
    }
}

impl From<IoError> for CliError {
    fn from(e: IoError) -> Self {
        match e {
            IoError::File { .. } => CliError::Io(e.to_string()),
            // Syntax and model errors in an instance file are bad
            // *input*, not an I/O failure.
            _ => CliError::Input(e.to_string()),
        }
    }
}

/// Gate-layer failures (unknown scenario, malformed baseline, a broken
/// scenario table) are bad input.
impl From<GateError> for CliError {
    fn from(e: GateError) -> Self {
        CliError::Input(e.to_string())
    }
}

fn input(msg: impl Into<String>) -> CliError {
    CliError::Input(msg.into())
}

// ---------------------------------------------------------------------
// Telemetry plumbing
// ---------------------------------------------------------------------

/// RAII handle for one command's telemetry pipeline: shuts it down
/// (flushing file sinks) when the command returns on any path.
struct Telemetry;

impl Drop for Telemetry {
    fn drop(&mut self) {
        qbss_telemetry::shutdown();
    }
}

/// The event filter for a command: the `QBSS_LOG` spec when set (a
/// malformed spec is bad *input*, exit 2), else `info` when tracing to
/// a file, else everything off.
fn filter_from_spec(spec: Option<&str>, tracing: bool) -> Result<Filter, CliError> {
    match spec {
        Some(s) => Filter::parse(s).map_err(|e| input(e.to_string())),
        None if tracing => Ok(Filter::default()),
        None => Ok(Filter::off()),
    }
}

/// Installs telemetry for one command from `--trace` and `QBSS_LOG`.
///
/// With neither present this is a no-op and every probe in the library
/// crates stays on its one-atomic-load disabled path. `--trace FILE`
/// routes spans, events and metrics records to `FILE` as JSONL; a bare
/// `QBSS_LOG` streams events to stderr (one JSONL record per line).
fn init_telemetry(flags: &Flags) -> Result<Telemetry, CliError> {
    let trace_path = flags.get("trace");
    let spec = std::env::var("QBSS_LOG").ok();
    let filter = filter_from_spec(spec.as_deref(), trace_path.is_some())?;
    if trace_path.is_none() && filter.max_level().is_none() {
        return Ok(Telemetry);
    }
    let sink = match trace_path {
        Some(p) => SinkTarget::File(PathBuf::from(p)),
        None => SinkTarget::Stderr,
    };
    match qbss_telemetry::init(Config { filter, sink, spans: trace_path.is_some() }) {
        Ok(()) => Ok(Telemetry),
        // In-process callers (tests) may already hold a pipeline; the
        // command then logs into it instead of failing.
        Err(InitError::AlreadyInitialized) => Ok(Telemetry),
        Err(e @ InitError::Io(_)) => Err(CliError::Io(e.to_string())),
    }
}

/// Profile-capture ring capacity: large enough to hold every span of
/// one timed repeat of the heaviest built-in scenario (the profiler
/// drains between repeats, so one repeat is the high-water mark).
const PROFILE_RING_CAPACITY: usize = 1 << 18;

/// Installs the span-capture pipeline for profiled runs: spans into a
/// fresh private ring, leveled events off. Returns the ring read
/// handle plus the RAII shutdown guard. A pipeline that is already
/// live (an in-process caller holding a sink) cannot be rerouted into
/// the profile ring, so that is bad input rather than silent
/// mis-capture.
fn init_profile_ring() -> Result<(RingSink, Telemetry), CliError> {
    let ring = RingSink::new(PROFILE_RING_CAPACITY);
    let config =
        Config { filter: Filter::off(), sink: SinkTarget::Ring(ring.clone()), spans: true };
    match qbss_telemetry::init(config) {
        Ok(()) => Ok((ring, Telemetry)),
        Err(InitError::AlreadyInitialized) => {
            Err(input("cannot profile: a telemetry pipeline is already active in this process"))
        }
        Err(e @ InitError::Io(_)) => Err(CliError::Io(e.to_string())),
    }
}

/// Routes a cautionary user-facing note: a `warn` event when the
/// telemetry pipeline is live (so a JSONL stderr stream stays
/// machine-parsable), a plain stderr note otherwise.
fn warn_user(msg: &str) {
    if qbss_telemetry::active() {
        qbss_telemetry::warn!("cli", "{msg}");
    } else {
        eprintln!("note: {msg}");
    }
}

/// Routes a human status line ("wrote N jobs to F") the same way, at
/// `info` level.
fn status_user(msg: &str) {
    if qbss_telemetry::active() {
        qbss_telemetry::info!("cli", "{msg}");
    } else {
        eprintln!("{msg}");
    }
}

// ---------------------------------------------------------------------
// Flag parsing
// ---------------------------------------------------------------------

/// Typed `--key value` flags with a per-command vocabulary.
#[derive(Debug)]
struct Flags {
    values: HashMap<String, String>,
}

impl Flags {
    /// Parses `--key value` pairs. `known` is the command's canonical
    /// vocabulary: unknown flags are bad input.
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, CliError> {
        Self::parse_with_switches(args, known, &[])
    }

    /// Like [`Flags::parse`], but flags named in `switches` may appear
    /// bare (`--audit`) and then read as `"true"`; an explicit value
    /// (`--audit false`) still works.
    fn parse_with_switches(
        args: &[String],
        known: &[&str],
        switches: &[&str],
    ) -> Result<Flags, CliError> {
        let mut values = HashMap::new();
        let mut it = args.iter().peekable();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(input(format!("expected --flag, got `{key}`")));
            };
            if !known.contains(&name) {
                return Err(input(format!(
                    "unknown flag --{name} (expected one of: {})",
                    known.iter().map(|k| format!("--{k}")).collect::<Vec<_>>().join(", ")
                )));
            }
            let value = if switches.contains(&name) {
                match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        it.next().cloned().unwrap_or_else(|| "true".to_string())
                    }
                    _ => "true".to_string(),
                }
            } else {
                let Some(value) = it.next() else {
                    return Err(input(format!("--{name} needs a value")));
                };
                value.clone()
            };
            values.insert(name.to_string(), value);
        }
        Ok(Flags { values })
    }

    /// Reads a boolean switch set via [`Flags::parse_with_switches`].
    fn switch(&self, name: &str) -> Result<bool, CliError> {
        match self.get(name) {
            None => Ok(false),
            Some("true") => Ok(true),
            Some("false") => Ok(false),
            Some(v) => Err(input(format!("--{name}: expected true or false, got `{v}`"))),
        }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn f64(&self, name: &str, default: f64) -> Result<f64, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| input(format!("--{name}: not a number: `{v}`"))),
        }
    }

    fn usize(&self, name: &str, default: usize) -> Result<usize, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| input(format!("--{name}: not an integer: `{v}`"))),
        }
    }

    fn u64(&self, name: &str, default: u64) -> Result<u64, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| input(format!("--{name}: not an integer: `{v}`"))),
        }
    }

    /// Parses `--alpha` and enforces the model's `α > 1` (finite)
    /// contract up front, so a bad exponent is a bad-input error
    /// (exit 2), not an algorithm failure.
    fn alpha(&self) -> Result<f64, CliError> {
        let a = self.f64("alpha", 3.0)?;
        if !a.is_finite() || a <= 1.0 {
            return Err(input("alpha must be finite and exceed 1"));
        }
        Ok(a)
    }

    /// `--format` with a per-command default and allowed set.
    fn format(&self, default: &'static str, allowed: &[&str]) -> Result<String, CliError> {
        let f = self.get("format").unwrap_or(default);
        if !allowed.contains(&f) {
            return Err(input(format!(
                "--format: unknown format `{f}` (expected {})",
                allowed.join("|")
            )));
        }
        Ok(f.to_string())
    }

    /// `--alg`, through the canonical [`Algorithm`] parser; an explicit
    /// `--m` overrides the machine count of bare multi-machine names.
    fn algorithm(&self) -> Result<Algorithm, CliError> {
        let name = self.get("alg").ok_or_else(|| input("--alg ALG is required"))?;
        let alg: Algorithm = name.parse().map_err(|e: qbss_core::pipeline::ParseAlgorithmError| {
            input(e.to_string())
        })?;
        match self.get("m") {
            None => Ok(alg),
            Some(_) => Ok(with_machines(alg, self.usize("m", DEFAULT_MACHINES)?)?),
        }
    }
}

/// Rebinds a multi-machine algorithm to `m` machines (no-op on
/// single-machine algorithms).
fn with_machines(alg: Algorithm, m: usize) -> Result<Algorithm, CliError> {
    if m == 0 {
        return Err(input("--m: machine count must be at least 1"));
    }
    Ok(alg.with_machines(m))
}

fn load_instance(flags: &Flags) -> Result<QbssInstance, CliError> {
    let path = flags.get("in").ok_or_else(|| input("--in FILE is required"))?;
    Ok(io::read_file(Path::new(path))?)
}

fn time_model_for(name: &str, n: usize) -> Result<TimeModel, CliError> {
    TimeModel::from_name(name, n).ok_or_else(|| {
        input(format!("unknown family `{name}` (one of: {})", TimeModel::NAMES.join(", ")))
    })
}

fn compress_for(name: &str) -> Result<Compressibility, CliError> {
    Compressibility::from_name(name).ok_or_else(|| {
        input(format!(
            "unknown compressibility `{name}` (one of: {})",
            Compressibility::NAMES.join(", ")
        ))
    })
}

// ---------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------

/// Renders an instance as the JSONL arrival-event stream `qbss stream`
/// consumes, in canonical arrival order (release, then id).
fn events_jsonl(inst: &QbssInstance) -> String {
    let mut s = String::new();
    for j in qbss_core::stream::arrival_ordered(inst) {
        s.push_str(&format!(
            "{{\"type\": \"arrive\", \"id\": {}, \"release\": {}, \"deadline\": {}, \
             \"query_load\": {}, \"upper_bound\": {}, \"exact\": {}}}\n",
            j.id,
            j.release,
            j.deadline,
            j.query_load,
            j.upper_bound,
            j.reveal_exact()
        ));
    }
    s
}

/// `qbss generate`.
pub fn generate(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse_with_switches(
        args,
        &["n", "seed", "family", "compress", "out", "events", "trace"],
        &["events"],
    )?;
    let _telemetry = init_telemetry(&flags)?;
    let _span = qbss_telemetry::span!("cli.generate");
    let n = flags.usize("n", 50)?;
    let seed = flags.u64("seed", 0)?;
    let time = time_model_for(flags.get("family").unwrap_or("online"), n)?;
    let compress = compress_for(flags.get("compress").unwrap_or("uniform"))?;
    let cfg = GenConfig {
        n,
        seed,
        time,
        min_w: 0.5,
        max_w: 4.0,
        query: QueryModel::UniformFraction { lo: 0.1, hi: 0.6 },
        compress,
    };
    let inst = gen::generate(&cfg);
    // `--events` emits the JSONL arrival stream `qbss stream` consumes
    // instead of an instance document.
    if flags.switch("events")? {
        let body = events_jsonl(&inst);
        match flags.get("out") {
            Some(path) => {
                std::fs::write(path, &body)
                    .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
                status_user(&format!("wrote {n} arrival events to {path}"));
            }
            None => print!("{body}"),
        }
        return Ok(());
    }
    match flags.get("out") {
        Some(path) => {
            io::write_file(&inst, Path::new(path))?;
            status_user(&format!("wrote {n} jobs to {path}"));
        }
        None => println!("{}", io::to_json(&inst)?),
    }
    Ok(())
}

/// One evaluated row of `run`/`compare` output: the pipeline's gate
/// costs next to the cached clairvoyant baseline — nothing is
/// re-integrated for printing.
struct CostRow {
    algorithm: String,
    energy: f64,
    energy_ratio: f64,
    max_speed: f64,
    speed_ratio: f64,
    queried: usize,
}

fn cost_row(
    inst: &QbssInstance,
    alpha: f64,
    algorithm: Algorithm,
    opt: &OptCache,
) -> Result<(CostRow, qbss_core::QbssOutcome), CliError> {
    let ev = run_evaluated(inst, alpha, algorithm)?;
    let queried = ev.outcome.decisions.iter().filter(|d| d.queried).count();
    let row = CostRow {
        algorithm: ev.outcome.algorithm.clone(),
        energy: ev.energy,
        energy_ratio: ev.energy / opt.energy(alpha),
        max_speed: ev.max_speed,
        speed_ratio: ev.max_speed / opt.max_speed(),
        queried,
    };
    Ok((row, ev.outcome))
}

const ROW_CSV_HEADER: &str = "algorithm,energy,energy_ratio,max_speed,speed_ratio,queried";

fn row_csv(r: &CostRow) -> String {
    format!(
        "{},{},{},{},{},{}",
        r.algorithm, r.energy, r.energy_ratio, r.max_speed, r.speed_ratio, r.queried
    )
}

fn row_json(r: &CostRow) -> String {
    format!(
        "{{\"algorithm\": \"{}\", \"energy\": {}, \"energy_ratio\": {}, \"max_speed\": {}, \
         \"speed_ratio\": {}, \"queried\": {}}}",
        r.algorithm, r.energy, r.energy_ratio, r.max_speed, r.speed_ratio, r.queried
    )
}

/// `qbss run`.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(
        args,
        &["alg", "in", "alpha", "m", "format", "gantt", "save-outcome", "trace"],
    )?;
    let _telemetry = init_telemetry(&flags)?;
    let mut span = qbss_telemetry::span!("cli.run");
    let inst = load_instance(&flags)?;
    let alpha = flags.alpha()?;
    let algorithm = flags.algorithm()?;
    span.record("algorithm", algorithm.to_string());
    span.record("alpha", alpha);
    span.record("jobs", inst.len());
    let format = flags.format("table", &["table", "json", "csv"])?;
    // The YDS baseline is computed once and shared by every line below.
    let opt = inst.opt_cache();
    let (row, outcome) = cost_row(&inst, alpha, algorithm, &opt)?;
    match format.as_str() {
        "json" => println!("{}", row_json(&row)),
        "csv" => println!("{ROW_CSV_HEADER}\n{}", row_csv(&row)),
        _ => {
            println!("algorithm:     {}", row.algorithm);
            println!("jobs:          {} ({} queried)", inst.len(), row.queried);
            println!("energy:        {:.4} (alpha = {alpha})", row.energy);
            println!("opt energy:    {:.4}", opt.energy(alpha));
            println!("energy ratio:  {:.4}", row.energy_ratio);
            println!("max speed:     {:.4}", row.max_speed);
            println!("opt max speed: {:.4}", opt.max_speed());
            println!("speed ratio:   {:.4}", row.speed_ratio);
            println!("slices:        {}", outcome.schedule.slices.len());
        }
    }
    if flags.get("gantt") == Some("true") {
        println!("\n{}", speed_scaling::render::schedule_report(&outcome.schedule));
    }
    if let Some(path) = flags.get("save-outcome") {
        let json = io::outcome_to_json(&outcome);
        std::fs::write(path, json)
            .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
        status_user(&format!("wrote outcome (decisions + schedule) to {path}"));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// `qbss stream` — incremental arrivals through the streaming engine
// ---------------------------------------------------------------------

/// One parsed JSONL stream event (DESIGN.md §14).
enum StreamEvent {
    /// A job arrives at its release time.
    Arrive(QJob),
    /// The stream clock moves forward with no arrival.
    Advance(f64),
    /// End of stream (EOF implies it).
    Finish,
}

/// Parses one JSONL event line: `{"type": "arrive", "id": …,
/// "release": …, "deadline": …, "query_load": …, "upper_bound": …,
/// "exact": …}`, `{"type": "advance", "t": …}` or `{"type": "finish"}`.
/// An `arrive` event's job is decoded by [`io::job_from_value`], the
/// rules instance files follow; it is *not* model-validated here — the
/// streaming engine rejects malformed jobs with its typed errors.
fn parse_event(line: &str) -> Result<StreamEvent, String> {
    let v = qbss_telemetry::json_parse(line).map_err(|e| format!("not a JSON event: {e}"))?;
    let ty = v
        .get("type")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "event needs a string `type` field".to_string())?;
    match ty {
        "arrive" => io::job_from_value(&v).map(StreamEvent::Arrive),
        "advance" => v
            .get("t")
            .and_then(JsonValue::as_f64)
            .map(StreamEvent::Advance)
            .ok_or_else(|| "`advance` event needs a number field `t`".to_string()),
        "finish" => Ok(StreamEvent::Finish),
        other => Err(format!("unknown event type `{other}` (arrive|advance|finish)")),
    }
}

/// `qbss stream` — feeds JSONL arrival events from a file or stdin
/// through the incremental [`StreamSession`] engine and prints the
/// evaluated summary. A malformed or rejected event is bad input with
/// its line number (exit 2); a failure at finish (infeasible schedule,
/// empty stream) is an algorithm failure (exit 1).
pub fn stream(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(args, &["alg", "alpha", "in", "format", "trace"])?;
    let _telemetry = init_telemetry(&flags)?;
    let mut span = qbss_telemetry::span!("cli.stream");
    let alpha = flags.alpha()?;
    let algorithm = flags.algorithm()?;
    let format = flags.format("table", &["table", "json", "csv"])?;
    let file = flags.get("in").unwrap_or("-");
    let text = if file == "-" {
        std::io::read_to_string(std::io::stdin())
            .map_err(|e| CliError::Io(format!("cannot read stdin: {e}")))?
    } else {
        std::fs::read_to_string(file)
            .map_err(|e| CliError::Io(format!("cannot read {file}: {e}")))?
    };
    let label = if file == "-" { "stdin" } else { file };
    span.record("algorithm", algorithm.to_string());
    span.record("alpha", alpha);

    // A batch-only `--alg` is a flag error, knowable before any event.
    let mut session = StreamSession::new(algorithm, alpha).map_err(|e| match e {
        QbssError::Algorithm(inner @ AlgorithmError::UnsupportedStructure { .. }) => {
            input(format!("--alg: {inner}"))
        }
        other => CliError::Algorithm(other),
    })?;
    let (mut arrivals, mut advances) = (0u64, 0u64);
    let mut finished = false;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if finished {
            return Err(input(format!("{label} line {lineno}: event after `finish`")));
        }
        let event = parse_event(line).map_err(|e| input(format!("{label} line {lineno}: {e}")))?;
        match event {
            StreamEvent::Arrive(job) => {
                session.arrive(job).map_err(|e| input(format!("{label} line {lineno}: {e}")))?;
                arrivals += 1;
            }
            StreamEvent::Advance(t) => {
                session
                    .advance_to(t)
                    .map_err(|e| input(format!("{label} line {lineno}: {e}")))?;
                advances += 1;
            }
            StreamEvent::Finish => finished = true,
        }
    }
    // EOF implies `finish`: the solver runs out its horizon either way.
    let jobs = session.jobs();
    span.record("jobs", jobs);
    let ev = session.finish()?;
    let queried = ev.outcome.decisions.iter().filter(|d| d.queried).count();
    match format.as_str() {
        "json" => println!(
            "{{\"algorithm\": \"{}\", \"arrivals\": {arrivals}, \"advances\": {advances}, \
             \"jobs\": {jobs}, \"queried\": {queried}, \"energy\": {}, \"max_speed\": {}}}",
            ev.outcome.algorithm, ev.energy, ev.max_speed
        ),
        "csv" => println!(
            "algorithm,arrivals,advances,jobs,queried,energy,max_speed\n\
             {},{arrivals},{advances},{jobs},{queried},{},{}",
            ev.outcome.algorithm, ev.energy, ev.max_speed
        ),
        _ => {
            println!("algorithm: {}", ev.outcome.algorithm);
            println!(
                "events:    {} ({arrivals} arrivals, {advances} advances)",
                arrivals + advances
            );
            println!("jobs:      {jobs} ({queried} queried)");
            println!("energy:    {:.4} (alpha = {alpha})", ev.energy);
            println!("max speed: {:.4}", ev.max_speed);
            println!("slices:    {}", ev.outcome.schedule.slices.len());
        }
    }
    Ok(())
}

/// The algorithms applicable to an instance's structure (every online
/// algorithm, plus the offline family where the instance is in scope).
fn applicable(inst: &QbssInstance) -> Vec<Algorithm> {
    let mut candidates = vec![Algorithm::Avrq, Algorithm::Bkpq, Algorithm::Oaq];
    if inst.has_common_release(0.0) {
        candidates.push(Algorithm::Crad);
        if inst.jobs.iter().all(|j| is_power_of_two_deadline(j.deadline)) {
            candidates.push(Algorithm::Crp2d);
        }
        if inst.common_deadline().is_some() {
            candidates.push(Algorithm::Crcd);
        }
    }
    candidates
}

/// `qbss compare`.
pub fn compare(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(args, &["in", "alpha", "format", "trace"])?;
    let _telemetry = init_telemetry(&flags)?;
    let mut span = qbss_telemetry::span!("cli.compare");
    let inst = load_instance(&flags)?;
    let alpha = flags.alpha()?;
    span.record("alpha", alpha);
    span.record("jobs", inst.len());
    let format = flags.format("table", &["table", "json", "csv"])?;
    // One clairvoyant solve serves every candidate row.
    let opt = inst.opt_cache();
    let rows: Vec<CostRow> = applicable(&inst)
        .into_iter()
        .map(|alg| cost_row(&inst, alpha, alg, &opt).map(|(row, _)| row))
        .collect::<Result<_, _>>()?;
    match format.as_str() {
        "json" => {
            let body: Vec<String> = rows.iter().map(row_json).collect();
            println!("[{}]", body.join(", "));
        }
        "csv" => {
            println!("{ROW_CSV_HEADER}");
            for r in &rows {
                println!("{}", row_csv(r));
            }
        }
        _ => {
            println!(
                "{:<8} {:>12} {:>10} {:>12} {:>10} {:>9}",
                "alg", "energy", "E-ratio", "max speed", "s-ratio", "queries"
            );
            for r in &rows {
                println!(
                    "{:<8} {:>12.4} {:>10.4} {:>12.4} {:>10.4} {:>6}/{}",
                    r.algorithm,
                    r.energy,
                    r.energy_ratio,
                    r.max_speed,
                    r.speed_ratio,
                    r.queried,
                    inst.len()
                );
            }
            println!(
                "{:<8} {:>12.4} {:>10} {:>12.4}",
                "OPT",
                opt.energy(alpha),
                "1.0000",
                opt.max_speed()
            );
        }
    }
    Ok(())
}

/// Parses the sweep's `--alg` list: `all` expands to every
/// configuration at `(m, fw_iters)`; otherwise a comma-separated list
/// of canonical names, with bare multi-machine names bound to `--m`.
fn parse_alg_list(list: &str, m: usize, fw_iters: usize) -> Result<Vec<Algorithm>, CliError> {
    if list.trim() == "all" {
        return Ok(Algorithm::all(m, fw_iters));
    }
    list.split(',')
        .map(|token| {
            let alg: Algorithm = token
                .parse()
                .map_err(|e: qbss_core::pipeline::ParseAlgorithmError| input(e.to_string()))?;
            // A bare family name takes the sweep-level machine count.
            if !token.contains(':') {
                with_machines(alg, m)
            } else {
                Ok(alg)
            }
        })
        .collect()
}

fn parse_alpha_list(list: &str) -> Result<Vec<f64>, CliError> {
    list.split(',')
        .map(|tok| {
            let a: f64 =
                tok.parse().map_err(|_| input(format!("--alpha: not a number: `{tok}`")))?;
            if !a.is_finite() || a <= 1.0 {
                return Err(input(format!("--alpha: {tok} must be finite and exceed 1")));
            }
            Ok(a)
        })
        .collect()
}

/// Flattens an [`EngineReport`] aggregate into CSV (one row per
/// algorithm × α group).
fn sweep_csv(report: &EngineReport) -> String {
    let mut s = String::from(
        "algorithm,alpha,ok,errors,energy_ratio_mean,energy_ratio_p50,energy_ratio_p99,\
         energy_ratio_max,peak_speed_max,speed_ratio_max,energy_bound,energy_violations,\
         speed_bound,speed_violations\n",
    );
    let opt = |v: Option<f64>| v.map_or(String::new(), |x| format!("{x}"));
    for g in &report.groups {
        s.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            g.algorithm,
            g.alpha,
            g.ok,
            g.errors,
            opt(g.energy_ratio.map(|d| d.mean)),
            opt(g.energy_ratio.map(|d| d.p50)),
            opt(g.energy_ratio.map(|d| d.p99)),
            opt(g.energy_ratio.map(|d| d.max)),
            opt(g.peak_speed.map(|d| d.max)),
            opt(g.speed_ratio.map(|d| d.max)),
            opt(g.energy_bound),
            g.energy_violations,
            opt(g.speed_bound),
            g.speed_violations,
        ));
    }
    s
}

/// `qbss sweep` — a declarative batch run on the sharded engine.
pub fn sweep(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse_with_switches(
        args,
        &[
            "count", "n", "seed", "family", "compress", "alg", "alpha", "m", "fw-iters",
            "shards", "opt-fw-iters", "format", "out", "audit", "trace",
        ],
        &["audit"],
    )?;
    let _telemetry = init_telemetry(&flags)?;
    let mut span = qbss_telemetry::span!("cli.sweep");
    let count = flags.u64("count", 100)?;
    let n = flags.usize("n", 20)?;
    let seed = flags.u64("seed", 0)?;
    // Default family `common`: the one structure every algorithm —
    // offline and online — is in scope for, so `--alg all` yields no
    // per-cell errors out of the box.
    let time = time_model_for(flags.get("family").unwrap_or("common"), n)?;
    let compress = compress_for(flags.get("compress").unwrap_or("uniform"))?;
    let m = flags.usize("m", DEFAULT_MACHINES)?;
    let fw_iters = flags.usize("fw-iters", DEFAULT_FW_ITERS)?;
    let algorithms = parse_alg_list(flags.get("alg").unwrap_or("all"), m, fw_iters)?;
    let alphas = parse_alpha_list(flags.get("alpha").unwrap_or("3"))?;
    let shards = flags.usize("shards", 0)?;
    let opt_fw_iters = flags.usize("opt-fw-iters", 8)?;
    let format = flags.format("json", &["json", "csv"])?;

    let spec = SweepSpec {
        source: InstanceSource::Generated {
            base: GenConfig {
                n,
                seed: 0,
                time,
                min_w: 0.5,
                max_w: 4.0,
                query: QueryModel::UniformFraction { lo: 0.1, hi: 0.6 },
                compress,
            },
            seeds: seed..seed.saturating_add(count),
        },
        algorithms,
        alphas,
        opt_fw_iters,
    };
    span.record("count", count);
    span.record("algorithms", spec.algorithms.len());
    span.record("alphas", spec.alphas.len());
    // The auditor is strictly side-band: it reads each evaluated cell
    // and writes only telemetry, so audited aggregates stay
    // byte-identical to unaudited ones.
    let auditor = if flags.switch("audit")? { Some(qbss_core::Auditor::new()) } else { None };
    let report =
        run_sweep_audited(&spec, shards, auditor.as_ref()).map_err(|e| input(e.to_string()))?;

    let body = match format.as_str() {
        "csv" => sweep_csv(&report),
        _ => report.aggregate_json(),
    };
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &body)
                .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
            // Wall-clock instrumentation goes *next to* the results, so
            // recorded aggregates stay byte-reproducible.
            let instr_path = format!("{path}.instr.json");
            std::fs::write(&instr_path, report.instrumentation_json())
                .map_err(|e| CliError::Io(format!("cannot write {instr_path}: {e}")))?;
            status_user(&format!("wrote aggregate to {path}, instrumentation to {instr_path}"));
        }
        None => {
            // Results own stdout unconditionally (a piped `--format
            // csv` stays pure); instrumentation is side-band output on
            // stderr — except when a JSONL stream owns stderr, where
            // the trace already carries the same numbers as an
            // `engine`-scoped metrics record.
            print!("{body}");
            if !qbss_telemetry::stderr_sink_active() {
                eprint!("{}", report.instrumentation_json());
            }
        }
    }
    let i = &report.instrumentation;
    status_user(&format!(
        "swept {} cells on {} shard(s) in {:.2}s ({:.0} cells/s, cache hit rate {:.1}%)",
        i.cells,
        i.shards,
        i.wall.as_secs_f64(),
        i.cells_per_sec,
        100.0 * i.cache_hit_rate()
    ));
    for v in report.violations() {
        if qbss_telemetry::active() {
            qbss_telemetry::warn!("cli.sweep", "{v}");
        } else {
            eprintln!("warning: {v}");
        }
    }
    if let Some(a) = &auditor {
        status_user(&format!(
            "audit: checked {} schedule(s), {} violation(s)",
            a.checked(),
            a.violations()
        ));
        if a.violations() > 0 {
            warn_user(&format!(
                "audit found {} invariant violation(s); see `error!` events on `qbss.audit`",
                a.violations()
            ));
        }
    }
    Ok(())
}

/// `qbss serve` — the long-lived observability/evaluation server (see
/// `crate::serve`). Parses flags, installs a ring-sink telemetry
/// pipeline (so `/tracez` always has records and an event stream never
/// competes with stderr), binds, and hands the listener to the server
/// loop. A clean SIGTERM/ctrl-c drain returns `Ok` — exit 0.
pub fn serve_cmd(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(
        args,
        &[
            "addr",
            "workers",
            "ring-capacity",
            "slow-ms",
            "budget",
            "request-timeout-ms",
            "io-timeout-ms",
            "accept-tick-ms",
        ],
    )?;
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7878");
    let workers = flags.usize("workers", 4)?;
    if workers == 0 {
        return Err(input("--workers: need at least 1 worker"));
    }
    let ring_capacity = flags.usize("ring-capacity", qbss_telemetry::RING_DEFAULT_CAPACITY)?;
    let slow_ms = flags.u64("slow-ms", 1_000)?;
    // Overload knobs: the admission budget in sweep cells (0 = no
    // admission control), the per-request wall-clock deadline, the
    // socket inactivity timeout, and the accept-loop tick.
    let budget = flags.u64("budget", crate::serve::DEFAULT_BUDGET)?;
    let request_timeout_ms =
        flags.u64("request-timeout-ms", crate::serve::DEFAULT_REQUEST_TIMEOUT_MS)?;
    let io_timeout_ms = flags.u64("io-timeout-ms", crate::serve::DEFAULT_IO_TIMEOUT_MS)?;
    let accept_tick_ms = flags.u64("accept-tick-ms", crate::serve::DEFAULT_ACCEPT_TICK_MS)?;
    if request_timeout_ms == 0 || io_timeout_ms == 0 || accept_tick_ms == 0 {
        return Err(input("--request-timeout-ms/--io-timeout-ms/--accept-tick-ms: must be >= 1"));
    }

    // Serve mode always records into a bounded ring: spans on (they
    // back `/tracez`), events per QBSS_LOG (default `info`).
    let spec = std::env::var("QBSS_LOG").ok();
    let filter = filter_from_spec(spec.as_deref(), true)?;
    let ring = qbss_telemetry::RingSink::new(ring_capacity);
    match qbss_telemetry::init(Config {
        filter,
        sink: SinkTarget::Ring(ring.clone()),
        spans: true,
    }) {
        // In-process callers (tests) may already hold a pipeline; the
        // server then records into it, and `/tracez` serves whatever
        // landed in this (unused) ring.
        Ok(()) | Err(InitError::AlreadyInitialized) => {}
        Err(e @ InitError::Io(_)) => return Err(CliError::Io(e.to_string())),
    }
    let _telemetry = Telemetry;
    let listener = std::net::TcpListener::bind(addr)
        .map_err(|e| CliError::Io(format!("cannot bind {addr}: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| CliError::Io(format!("cannot read the bound address: {e}")))?;
    // The ring owns the telemetry stream, so stderr is free for the one
    // human-facing line scripts and the smoke test key on.
    eprintln!("qbss serve: listening on {local} ({workers} workers)");
    crate::serve::run(
        listener,
        crate::serve::ServeConfig {
            workers,
            slow_ms,
            ring,
            budget,
            request_timeout_ms,
            io_timeout_ms,
            accept_tick_ms,
        },
    )
    .map_err(CliError::Io)
}

/// `qbss loadgen` — the seeded open-loop load generator (see
/// `crate::loadgen`). Builds a deterministic request schedule from the
/// seed, fires it over real TCP against `--addr` (or an in-process
/// server with `--spawn`), and prints the canonical JSON report to
/// stdout (`--out FILE` also writes it to a file). `--plan-only`
/// prints the wall-clock-free schedule summary instead of running —
/// the determinism tests diff that output byte for byte.
pub fn loadgen(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse_with_switches(
        args,
        &[
            "addr",
            "spawn",
            "rps",
            "duration-s",
            "seed",
            "mix",
            "adversarial",
            "connections",
            "n",
            "budget",
            "request-timeout-ms",
            "out",
            "plan-only",
        ],
        &["spawn", "adversarial", "plan-only"],
    )?;
    let mix_name = flags.get("mix").unwrap_or("mixed");
    let mix = crate::loadgen::Mix::from_name(mix_name)
        .ok_or_else(|| input(format!("--mix: unknown mix `{mix_name}` (evaluate|sweep|mixed)")))?;
    let cfg = crate::loadgen::LoadgenConfig {
        rps: flags.f64("rps", 50.0)?,
        duration_s: flags.f64("duration-s", 2.0)?,
        seed: flags.u64("seed", 0)?,
        mix,
        adversarial: flags.switch("adversarial")?,
        connections: flags.usize("connections", 4)?,
        n: flags.usize("n", 8)?,
    };
    if cfg.connections == 0 {
        return Err(input("--connections: need at least 1 sender"));
    }
    let schedule = crate::loadgen::build_schedule(&cfg).map_err(input)?;
    if flags.switch("plan-only")? {
        println!("{}", crate::loadgen::plan_json(&cfg, &schedule));
        return Ok(());
    }

    let budget = flags.u64("budget", crate::serve::DEFAULT_BUDGET)?;
    let request_timeout_ms =
        flags.u64("request-timeout-ms", crate::serve::DEFAULT_REQUEST_TIMEOUT_MS)?;
    let spawn = flags.switch("spawn")?;
    let external = flags.get("addr").map(String::from);
    if spawn && external.is_some() {
        return Err(input("--spawn and --addr are mutually exclusive"));
    }
    if !spawn && external.is_none() {
        return Err(input("need a target: --addr HOST:PORT or --spawn"));
    }
    if !spawn && flags.get("budget").is_some() {
        warn_user("--budget only shapes a --spawn server; the external server keeps its own");
    }
    // The sender's socket timeout must outlast the server's own request
    // deadline, so a slow-but-alive response is recorded, not dropped.
    let io_timeout = std::time::Duration::from_millis(request_timeout_ms.saturating_add(2_000));
    let spawned = if spawn {
        Some(crate::loadgen::SpawnedServer::start(budget, request_timeout_ms)
            .map_err(CliError::Io)?)
    } else {
        None
    };
    let addr = spawned
        .as_ref()
        .map(|s| s.addr().to_string())
        .or(external)
        .expect("checked above");
    eprintln!(
        "qbss loadgen: {} requests over {}s at {} rps -> {addr}",
        schedule.len(),
        cfg.duration_s,
        cfg.rps
    );
    let outcome = crate::loadgen::run_schedule(&addr, &cfg, &schedule, io_timeout);
    if let Some(server) = spawned {
        server.stop().map_err(CliError::Io)?;
    }
    if let Some(path) = flags.get("out") {
        std::fs::write(path, format!("{}\n", outcome.report))
            .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
    }
    println!("{}", outcome.report);
    if outcome.sent > 0 && outcome.completed == 0 {
        return Err(CliError::Io(format!(
            "none of the {} requests got a response — is {addr} a qbss server?",
            outcome.sent
        )));
    }
    Ok(())
}

const TRACE_USAGE: &str = "usage: qbss trace summarize FILE [--top K] [--format text|json]\n       \
                           qbss trace report FILE [--out FILE]\n       \
                           (FILE may be `-` to read the trace from stdin)";

/// Loads and parses a JSONL trace: `-` reads stdin (so a running
/// server's `/tracez?format=jsonl` pipes straight in), otherwise a
/// missing file is an I/O failure; a schema violation is bad input
/// (with the line number).
fn load_trace(file: &str) -> Result<Vec<qbss_telemetry::trace::TraceRecord>, CliError> {
    let text = if file == "-" {
        std::io::read_to_string(std::io::stdin())
            .map_err(|e| CliError::Io(format!("cannot read stdin: {e}")))?
    } else {
        std::fs::read_to_string(file)
            .map_err(|e| CliError::Io(format!("cannot read {file}: {e}")))?
    };
    let label = if file == "-" { "stdin" } else { file };
    qbss_telemetry::trace::parse_trace(&text).map_err(|e| input(format!("{label}: {e}")))
}

/// `qbss trace` — operations on recorded JSONL traces.
pub fn trace(args: &[String]) -> Result<(), CliError> {
    let Some((action, rest)) = args.split_first() else {
        return Err(input(TRACE_USAGE));
    };
    match action.as_str() {
        "summarize" | "report" => {}
        other => return Err(input(format!("unknown trace action `{other}`\n{TRACE_USAGE}"))),
    }
    let Some((file, flag_args)) = rest.split_first() else {
        return Err(input(format!("trace {action} needs a FILE\n{TRACE_USAGE}")));
    };
    match action.as_str() {
        "summarize" => {
            let flags = Flags::parse(flag_args, &["top", "format"])?;
            let top = flags.usize("top", 5)?;
            let format = flags.format("text", &["text", "json"])?;
            let summary = qbss_telemetry::trace::summarize(&load_trace(file)?);
            match format.as_str() {
                "json" => println!("{}", summary.to_json()),
                _ => print!("{}", summary.render(top)),
            }
        }
        _ => {
            let flags = Flags::parse(flag_args, &["out"])?;
            let html = qbss_telemetry::trace::render_html(&load_trace(file)?);
            match flags.get("out") {
                Some(path) => {
                    std::fs::write(path, &html)
                        .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
                    status_user(&format!("wrote HTML report to {path}"));
                }
                None => print!("{html}"),
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// `qbss perf|quality|complexity` — one record/compare/gate path
// ---------------------------------------------------------------------

/// One gate kind as `qbss <kind> record|compare|gate` drives it: the
/// [`Gate`] document plus how the CLI measures it.
trait GateKind: Gate {
    /// `record` flags beyond the shared `--out`, `--scenarios` and
    /// `--trace`.
    const RECORD_FLAGS: &'static [&'static str];
    /// Records `names` (the whole table when empty) under the record
    /// flags.
    fn record(names: &[String], flags: &Flags) -> Result<Self, CliError>;
    /// Re-measures a committed baseline's own scenarios (`gate` without
    /// `--new`).
    fn remeasure(&self) -> Result<Self, CliError>;
    /// The `record --format csv` view, for kinds that take `--format`.
    fn to_csv(&self) -> Option<String> {
        None
    }
}

/// Every exact kind (quality, complexity) through its shared envelope:
/// seeds and counters are pinned, so a re-measure is a plain record.
impl<S: Exact> GateKind for gate::Baseline<S> {
    const RECORD_FLAGS: &'static [&'static str] = S::RECORD_FLAGS;

    fn record(names: &[String], flags: &Flags) -> Result<Self, CliError> {
        let _telemetry = init_telemetry(flags)?;
        let _span = qbss_telemetry::span!("cli.gate.record", { kind = S::KIND });
        Ok(S::record(names)?)
    }

    fn remeasure(&self) -> Result<Self, CliError> {
        Ok(S::record(&self.scenario_names())?)
    }

    fn to_csv(&self) -> Option<String> {
        S::to_csv(self)
    }
}

impl GateKind for PerfBaseline {
    const RECORD_FLAGS: &'static [&'static str] = &["repeats", "warmup", "shards", "profile"];

    fn record(names: &[String], flags: &Flags) -> Result<Self, CliError> {
        let d = PerfConfig::default();
        let config = PerfConfig {
            warmup: flags.usize("warmup", d.warmup)?,
            repeats: flags.usize("repeats", d.repeats)?,
            shards: flags.usize("shards", d.shards)?,
        };
        if config.repeats == 0 {
            return Err(input("--repeats must be at least 1"));
        }
        if !flags.switch("profile")? {
            let _telemetry = init_telemetry(flags)?;
            let _span = qbss_telemetry::span!("cli.gate.record", { kind = "perf" });
            return Ok(perf::record(names, config)?);
        }
        if flags.get("trace").is_some() {
            return Err(input(
                "--profile and --trace are mutually exclusive (the profiler owns the span \
                 sink; fold an existing trace with `qbss prof record --trace FILE`)",
            ));
        }
        if std::env::var("QBSS_LOG").is_ok() {
            warn_user("QBSS_LOG is ignored under --profile: spans go to the profile ring");
        }
        record_profiled(names, config)
    }

    /// Re-measures with the baseline's own recording config; a profiled
    /// base gets a profiled re-measure, so `--explain` can attribute a
    /// regression to the call paths that moved.
    fn remeasure(&self) -> Result<Self, CliError> {
        let names = self.scenario_names();
        if self.profiles.is_empty() {
            Ok(perf::record(&names, self.config)?)
        } else {
            record_profiled(&names, self.config)
        }
    }
}

/// Records `names` with one folded span profile per scenario, captured
/// through a private profile ring.
fn record_profiled(names: &[String], config: PerfConfig) -> Result<PerfBaseline, CliError> {
    let (baseline, dropped) = {
        let (ring, _telemetry) = init_profile_ring()?;
        let b = perf::record_profiled(names, config, Some(&ring))?;
        (b, ring.dropped())
    };
    if dropped > 0 {
        warn_user(&format!(
            "profile ring dropped {dropped} span record(s); the folded profiles are truncated"
        ));
    }
    Ok(baseline)
}

fn gate_usage(kind: &str) -> String {
    format!(
        "usage: qbss {kind} record  [--out FILE] [--scenarios LIST] [--trace FILE]\n                         \
         [KIND FLAGS]\n       \
         qbss {kind} compare BASE NEW\n       \
         qbss {kind} gate    --base FILE [--new FILE] [--explain]\n       \
         (`qbss help` lists each kind's record flags)"
    )
}

/// Loads a baseline: a missing file is an I/O failure, a schema
/// violation is bad input.
fn load<G: Gate>(path: &str) -> Result<G, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
    G::parse(&text).map_err(|e| input(format!("{path}: {e}")))
}

fn gate_record<G: GateKind>(args: &[String]) -> Result<(), CliError> {
    let known = [&["out", "scenarios", "trace"][..], G::RECORD_FLAGS].concat();
    let flags = Flags::parse_with_switches(args, &known, &["profile"])?;
    let names: Vec<String> = flags.get("scenarios").map_or_else(Vec::new, |s| {
        s.split(',').map(str::trim).filter(|t| !t.is_empty()).map(String::from).collect()
    });
    let baseline = G::record(&names, &flags)?;
    let body = match flags.format("json", &["json", "csv"])?.as_str() {
        "csv" => baseline.to_csv().ok_or_else(|| input("--format csv is not available"))?,
        _ => baseline.to_json(),
    };
    let what = format!("{} baseline ({} scenario(s))", G::KIND, baseline.scenario_names().len());
    write_text_out(&flags, &body, &what)
}

fn gate_compare<G: GateKind>(args: &[String]) -> Result<(), CliError> {
    let [base, new] = args else {
        return Err(input(format!(
            "{} compare needs BASE and NEW files\n{}",
            G::KIND,
            gate_usage(G::KIND)
        )));
    };
    print!("{}", G::compare(&load(base)?, &load(new)?).render());
    Ok(())
}

/// Gates a new record against a committed baseline: exit 0 when clean,
/// exit 3 ([`CliError::Gate`]) on any regression, unless `QBSS_BLESS=1`
/// re-blesses the baseline with the new record instead.
fn gate_check<G: GateKind>(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse_with_switches(args, &["base", "new", "explain"], &["explain"])?;
    let base_path = flags.get("base").ok_or_else(|| input("--base FILE is required"))?;
    let base: G = load(base_path)?;
    let new = match flags.get("new") {
        Some(path) => load(path)?,
        None => base.remeasure()?,
    };
    let report = G::compare(&base, &new);
    // `--explain` names everything behind the verdict, so a CI failure
    // is readable from the log without a local rerun.
    if flags.switch("explain")? {
        print!("{}", report.render_explain());
    } else {
        print!("{}", report.render());
    }
    if report.is_clean() {
        return Ok(());
    }
    // An intentional change is accepted by re-recording the baseline,
    // never by loosening the comparison.
    if std::env::var("QBSS_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(base_path, new.to_json())
            .map_err(|e| CliError::Io(format!("cannot write {base_path}: {e}")))?;
        status_user(&format!("QBSS_BLESS=1: re-blessed {base_path} with the new measurements"));
        return Ok(());
    }
    Err(CliError::Gate(format!(
        "{} against {base_path} (rerun with QBSS_BLESS=1 to re-bless)",
        report.summary()
    )))
}

fn gate_cmd<G: GateKind>(args: &[String]) -> Result<(), CliError> {
    let Some((action, rest)) = args.split_first() else {
        return Err(input(gate_usage(G::KIND)));
    };
    match action.as_str() {
        "record" => gate_record::<G>(rest),
        "compare" => gate_compare::<G>(rest),
        "gate" => gate_check::<G>(rest),
        other => {
            Err(input(format!("unknown {} action `{other}`\n{}", G::KIND, gate_usage(G::KIND))))
        }
    }
}

/// `qbss perf|quality|complexity` — record a kind's pinned scenarios,
/// diff two baselines, gate CI on regressions.
pub fn observatory(kind: &str, args: &[String]) -> Result<(), CliError> {
    match kind {
        "perf" => gate_cmd::<PerfBaseline>(args),
        "quality" => gate_cmd::<QualityBaseline>(args),
        "complexity" => gate_cmd::<ComplexityBaseline>(args),
        other => Err(input(format!("unknown gate kind `{other}`"))),
    }
}

// ---------------------------------------------------------------------
// `qbss explain` — per-job decision attribution for one cell
// ---------------------------------------------------------------------

/// `qbss explain` — factors one `(instance, algorithm, α)` cell's
/// energy ratio into query-decision × splitting-point × scheduling
/// losses, prints the per-job decision rows with the blame job, and
/// optionally renders the ALG-vs-OPT speed timeline as self-contained
/// HTML.
pub fn explain(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(
        args,
        &["alg", "in", "n", "seed", "family", "compress", "alpha", "m", "format", "html", "trace"],
    )?;
    let _telemetry = init_telemetry(&flags)?;
    let mut span = qbss_telemetry::span!("cli.explain");
    let alpha = flags.alpha()?;
    let algorithm = flags.algorithm()?;
    let inst = if flags.get("in").is_some() {
        for flag in ["n", "seed", "family", "compress"] {
            if flags.get(flag).is_some() {
                return Err(input(format!("--in and --{flag} are mutually exclusive")));
            }
        }
        load_instance(&flags)?
    } else {
        let n = flags.usize("n", 12)?;
        if n == 0 {
            return Err(input("--n must be at least 1"));
        }
        let time = time_model_for(flags.get("family").unwrap_or("online"), n)?;
        let compress = compress_for(flags.get("compress").unwrap_or("uniform"))?;
        gen::generate(&GenConfig {
            n,
            seed: flags.u64("seed", 0)?,
            time,
            min_w: 0.5,
            max_w: 4.0,
            query: QueryModel::UniformFraction { lo: 0.1, hi: 0.6 },
            compress,
        })
    };
    span.record("algorithm", algorithm.to_string());
    span.record("alpha", alpha);
    span.record("jobs", inst.len());
    let format = flags.format("table", &["table", "json"])?;
    let opt = inst.opt_cache();
    let ev = run_evaluated(&inst, alpha, algorithm)?;
    let att = qbss_core::attribute_with_opt(&inst, alpha, algorithm, &ev, Some(opt.energy(alpha)))
        .map_err(|e| input(e.to_string()))?;
    if let Err(err) = att.check_identity() {
        warn_user(&format!("attribution identity reconstruction error {err:.3e}"));
    }
    match format.as_str() {
        "json" => println!("{}", att.to_json()),
        _ => {
            println!("algorithm:    {} (alpha = {alpha})", att.algorithm);
            println!(
                "energy ratio: {:.6} = query {:.6} × split {:.6} × sched {:.6}",
                att.ratio(),
                att.query_loss,
                att.split_loss,
                att.sched_loss
            );
            println!();
            println!(
                "{:>4}  {:>7}  {:>8}  {:>8}  {:>8}  {:>8}  {:>11}",
                "job", "queried", "tau", "p", "p*", "p/p*", "lemma slack"
            );
            let opt_num = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.4}"));
            for r in &att.jobs {
                let blame = if att.blame == Some(r.job) { "  <- blame" } else { "" };
                println!(
                    "{:>4}  {:>7}  {:>8}  {:>8.4}  {:>8.4}  {:>8.4}  {:>11}{blame}",
                    r.job,
                    if r.queried { "yes" } else { "no" },
                    opt_num(r.tau),
                    r.load,
                    r.p_star,
                    r.load_ratio(),
                    opt_num(r.lemma_slack),
                );
            }
        }
    }
    if let Some(path) = flags.get("html") {
        let alg_profile = ev.outcome.schedule.machine_profile(0);
        let mut bands = Vec::new();
        for r in &att.jobs {
            let Some(j) = inst.job(r.job) else { continue };
            // A queried job's query window: release up to the splitting
            // point where the test result lands.
            if let Some(tau) = r.tau {
                bands.push(TimelineBand {
                    label: format!("q{}", r.job),
                    start: j.release,
                    end: tau,
                    highlight: false,
                });
            }
            if att.blame == Some(r.job) {
                bands.push(TimelineBand {
                    label: format!("blame job {}", r.job),
                    start: j.release,
                    end: j.deadline,
                    highlight: true,
                });
            }
        }
        let title = format!(
            "qbss explain — {} @ alpha = {} (ratio {:.4})",
            att.algorithm,
            alpha,
            att.ratio()
        );
        let html = timeline_html(&title, &[("ALG", &alg_profile), ("OPT", opt.profile())], &bands);
        std::fs::write(path, &html)
            .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
        status_user(&format!("wrote schedule timeline to {path}"));
    }
    Ok(())
}

/// `qbss --version` — crate version plus the git state of the build
/// tree, for pinning baselines and reports to a build.
pub fn version() -> Result<(), CliError> {
    println!("{}", BuildInfo::capture().render());
    Ok(())
}

// ---------------------------------------------------------------------
// `qbss prof` — folded profiles and flamegraphs from span traces
// ---------------------------------------------------------------------

const PROF_USAGE: &str = "usage: qbss prof record (--trace FILE | --scenario NAME [--repeats N] [--warmup N]\n                        \
                          [--shards S]) [--collapse LIST] [--counts-only] [--out FILE]\n       \
                          qbss prof diff   BASE NEW [--top K]\n       \
                          qbss prof flame  (--trace FILE | --folded FILE) [--title T] [--out FILE]\n       \
                          (trace FILE may be `-` to read stdin; folded files hold\n                        \
                          `path;to;frame self_us count` lines, as written by prof record)";

/// Loads a folded-stack profile file (`a;b;c self_us count` lines): a
/// missing file is an I/O failure, a malformed line is bad input.
fn load_folded(path: &str) -> Result<Profile, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
    Profile::parse_folded(&text).map_err(|e| input(format!("{path}: {e}")))
}

/// `--collapse LIST`: comma-separated frame names removed from every
/// call path, their self time accruing to the surviving parent frame.
/// The canonical use is `--collapse par.shard`, which removes the
/// scheduling fan-out layer so folded output is shard-count
/// independent.
fn apply_collapse(profile: Profile, flags: &Flags) -> Profile {
    match flags.get("collapse") {
        None => profile,
        Some(list) => {
            let frames: Vec<&str> =
                list.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
            profile.collapse(&frames)
        }
    }
}

/// Writes `text` to `--out` (with a status note) or stdout.
fn write_text_out(flags: &Flags, text: &str, what: &str) -> Result<(), CliError> {
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, text)
                .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
            status_user(&format!("wrote {what} to {path}"));
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn prof_record(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse_with_switches(
        args,
        &["trace", "scenario", "repeats", "warmup", "shards", "collapse", "counts-only", "out"],
        &["counts-only"],
    )?;
    let profile = match (flags.get("trace"), flags.get("scenario")) {
        (Some(_), Some(_)) => {
            return Err(input("choose one of --trace FILE or --scenario NAME, not both"));
        }
        (Some(file), None) => Profile::from_records(&load_trace(file)?),
        (None, Some(name)) => {
            let config = PerfConfig {
                // One warm-up, one measured pass: a deterministic
                // single-run profile, not a statistical baseline.
                warmup: flags.usize("warmup", 1)?,
                repeats: flags.usize("repeats", 1)?,
                shards: flags.usize("shards", PerfConfig::default().shards)?,
            };
            if config.repeats == 0 {
                return Err(input("--repeats must be at least 1"));
            }
            let name = name.to_string();
            let mut baseline = record_profiled(std::slice::from_ref(&name), config)?;
            baseline
                .profiles
                .remove(&name)
                .ok_or_else(|| CliError::Io(format!("scenario {name} produced no profile")))?
        }
        (None, None) => {
            return Err(input(format!(
                "prof record needs --trace FILE or --scenario NAME\n{PROF_USAGE}"
            )));
        }
    };
    let profile = apply_collapse(profile, &flags);
    // `--counts-only` drops the wall-clock column: call-path shape and
    // counts are deterministic for a seeded scenario, timings are
    // measurement. CI byte-compares the counts-only form.
    let folded =
        if flags.switch("counts-only")? { profile.fold_counts() } else { profile.fold() };
    write_text_out(&flags, &folded, "folded profile")
}

fn prof_diff(args: &[String]) -> Result<(), CliError> {
    let Some((base_path, rest)) = args.split_first() else {
        return Err(input(format!("prof diff needs BASE and NEW folded files\n{PROF_USAGE}")));
    };
    let Some((new_path, flag_args)) = rest.split_first() else {
        return Err(input(format!("prof diff needs a NEW folded file\n{PROF_USAGE}")));
    };
    let flags = Flags::parse(flag_args, &["top"])?;
    let top = flags.usize("top", 20)?;
    let base = load_folded(base_path)?;
    let new = load_folded(new_path)?;
    let deltas = Profile::diff(&base, &new);
    if deltas.is_empty() {
        println!("no call paths in either profile");
        return Ok(());
    }
    println!("{:>12} {:>12} {:>12}  {:>9}  path", "base self", "new self", "delta", "count");
    for d in deltas.iter().take(top) {
        println!(
            "{:>10}us {:>10}us {:>+10}us  {:>4}>{:<4}  {}",
            d.base_self_us,
            d.new_self_us,
            d.delta_us(),
            d.base_count,
            d.new_count,
            d.path_str()
        );
    }
    if deltas.len() > top {
        println!("... {} more call path(s) (raise --top)", deltas.len() - top);
    }
    Ok(())
}

fn prof_flame(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(args, &["trace", "folded", "title", "out"])?;
    let profile = match (flags.get("trace"), flags.get("folded")) {
        (Some(_), Some(_)) => {
            return Err(input("choose one of --trace FILE or --folded FILE, not both"));
        }
        (Some(file), None) => Profile::from_records(&load_trace(file)?),
        (None, Some(path)) => load_folded(path)?,
        (None, None) => {
            return Err(input(format!(
                "prof flame needs --trace FILE or --folded FILE\n{PROF_USAGE}"
            )));
        }
    };
    let html = profile.render_flamegraph_html(flags.get("title").unwrap_or("qbss profile"));
    write_text_out(&flags, &html, "flamegraph")
}

/// `qbss prof` — fold span traces into canonical profiles, diff two
/// folded profiles, render flamegraphs.
pub fn prof(args: &[String]) -> Result<(), CliError> {
    let Some((action, rest)) = args.split_first() else {
        return Err(input(PROF_USAGE));
    };
    match action.as_str() {
        "record" => prof_record(rest),
        "diff" => prof_diff(rest),
        "flame" => prof_flame(rest),
        other => Err(input(format!("unknown prof action `{other}`\n{PROF_USAGE}"))),
    }
}

/// `qbss bounds`.
pub fn bounds(args: &[String]) -> Result<(), CliError> {
    use qbss_analysis::bounds as b;
    let flags = Flags::parse(args, &["alpha"])?;
    let a = flags.alpha()?;
    println!("Table 1 of the paper at alpha = {a}\n");
    println!("offline (energy):");
    println!("  oracle LB            {:.4}", b::oracle_energy_lb(a));
    println!("  deterministic LB     {:.4}", b::offline_energy_lb(a));
    println!("  randomized LB        {:.4}", b::randomized_energy_lb(a));
    println!("  equal-window LB      {:.4}", b::equal_window_energy_lb(a));
    println!("  CRCD UB              {:.4}", b::crcd_energy_ub(a));
    println!("  CRP2D UB             {:.4}", b::crp2d_energy_ub(a));
    println!("  CRAD UB              {:.4}", b::crad_energy_ub(a));
    println!("online (energy):");
    println!("  AVRQ   LB / UB       {:.4} / {:.4}", b::avrq_energy_lb(a), b::avrq_energy_ub(a));
    println!("  BKPQ   LB / UB       {:.4} / {:.4}", b::bkpq_energy_lb(a), b::bkpq_energy_ub(a));
    println!("  AVRQ(m) LB / UB      {:.4} / {:.4}", b::avrq_m_energy_lb(a), b::avrq_m_energy_ub(a));
    println!("max speed:");
    println!("  oracle LB {:.4} | det LB {:.4} | rand LB {:.4} | CRCD UB {:.4} | BKPQ UB {:.4}",
        b::oracle_speed_lb(), b::offline_speed_lb(), b::randomized_speed_lb(),
        b::crcd_speed_ub(), b::bkpq_speed_ub());
    Ok(())
}

/// `qbss rho`.
pub fn rho(args: &[String]) -> Result<(), CliError> {
    let _ = Flags::parse(args, &[])?;
    println!("alpha   rho1     rho2     rho3");
    for row in qbss_analysis::rho::rho_table() {
        let r3 = if row.rho3 == 0.0 { "   -".to_string() } else { format!("{:.3}", row.rho3) };
        println!("{:<5} {:>7.3} {:>8.3} {:>8}", row.alpha, row.rho1, row.rho2, r3);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbss_core::model::QJob;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    const RUN_FLAGS: &[&str] = &["alg", "in", "alpha", "m", "format", "gantt", "save-outcome"];

    #[test]
    fn parse_flags_pairs() {
        let f = Flags::parse(&args(&["--n", "10", "--seed", "3"]), &["n", "seed"]).unwrap();
        assert_eq!(f.get("n"), Some("10"));
        assert_eq!(f.get("seed"), Some("3"));
    }

    #[test]
    fn parse_flags_rejects_bare_values() {
        assert!(Flags::parse(&args(&["n", "10"]), &["n"]).is_err());
    }

    #[test]
    fn parse_flags_rejects_missing_value() {
        let err = Flags::parse(&args(&["--n"]), &["n"]).unwrap_err();
        assert!(err.to_string().contains("needs a value"));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn parse_flags_rejects_unknown_flag() {
        let err = Flags::parse(&args(&["--bogus", "1"]), &["n", "seed"]).unwrap_err();
        assert!(err.to_string().contains("--bogus"), "{err}");
        assert!(err.to_string().contains("--seed"), "lists the vocabulary: {err}");
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn removed_aliases_are_unknown_flags() {
        // The deprecation period for --algorithm/--machines is over:
        // both are plain unknown flags now (exit 2).
        for alias in [&["--algorithm", "avrq"], &["--machines", "4"]] {
            let err = Flags::parse(&args(alias), RUN_FLAGS).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{err}");
            assert!(err.to_string().contains("unknown flag"), "{err}");
        }
    }

    #[test]
    fn flag_parsers_defaults_and_errors() {
        let f = Flags::parse(&args(&["--alpha", "2.5", "--m", "x"]), &["alpha", "m"]).unwrap();
        assert_eq!(f.f64("alpha", 3.0).unwrap(), 2.5);
        assert_eq!(f.f64("missing", 3.0).unwrap(), 3.0);
        assert!(f.usize("m", 1).is_err());
    }

    #[test]
    fn algorithm_flag_honours_m_override() {
        let f = Flags::parse(&args(&["--alg", "avrq-m", "--m", "4"]), RUN_FLAGS).unwrap();
        assert_eq!(f.algorithm().unwrap(), Algorithm::AvrqM { m: 4 });
        // Explicit parameters win when --m is absent.
        let f = Flags::parse(&args(&["--alg", "oaq-m:8:5"]), RUN_FLAGS).unwrap();
        assert_eq!(f.algorithm().unwrap(), Algorithm::OaqM { m: 8, fw_iters: 5 });
        // --m rebinds machine count, keeps fw_iters.
        let f = Flags::parse(&args(&["--alg", "oaq-m:8:5", "--m", "3"]), RUN_FLAGS).unwrap();
        assert_eq!(f.algorithm().unwrap(), Algorithm::OaqM { m: 3, fw_iters: 5 });
        let f = Flags::parse(&args(&["--alg", "nope"]), RUN_FLAGS).unwrap();
        assert_eq!(f.algorithm().unwrap_err().exit_code(), 2);
    }

    #[test]
    fn run_algorithm_dispatch() {
        let inst = qbss_core::QbssInstance::new(vec![QJob::new(0, 0.0, 2.0, 0.5, 2.0, 0.5)]);
        let opt = inst.opt_cache();
        for alg in ["avrq", "bkpq", "oaq", "crcd", "crp2d", "crad", "avrq-m"] {
            let algorithm: Algorithm = alg.parse().unwrap();
            let (_, out) = cost_row(&inst, 3.0, algorithm, &opt)
                .unwrap_or_else(|e| panic!("{alg}: {e}"));
            out.validate(&inst).unwrap_or_else(|e| panic!("{alg}: {e}"));
        }
        assert!("nope".parse::<Algorithm>().is_err());
    }

    #[test]
    fn run_algorithm_scope_checks() {
        // Non-zero release: crp2d/crad must refuse with a typed
        // algorithm error (exit code 1); crcd supports any common
        // window `(r0, D]`.
        let inst = qbss_core::QbssInstance::new(vec![QJob::new(0, 1.0, 2.0, 0.5, 2.0, 0.5)]);
        let opt = inst.opt_cache();
        for alg in [Algorithm::Crp2d, Algorithm::Crad] {
            let err = cost_row(&inst, 3.0, alg, &opt).map(|_| ()).expect_err(alg.name());
            assert!(matches!(err, CliError::Algorithm(_)), "{alg}: {err}");
            assert_eq!(err.exit_code(), 1, "{alg}");
        }
        assert!(cost_row(&inst, 3.0, Algorithm::Crcd, &opt).is_ok());
        // Non-power-of-two deadline: crp2d refuses, crad rounds.
        let inst = qbss_core::QbssInstance::new(vec![QJob::new(0, 0.0, 3.0, 0.5, 2.0, 0.5)]);
        let opt = inst.opt_cache();
        assert!(cost_row(&inst, 3.0, Algorithm::Crp2d, &opt).is_err());
        assert!(cost_row(&inst, 3.0, Algorithm::Crad, &opt).is_ok());
    }

    #[test]
    fn malformed_instances_never_panic_the_cli() {
        // A NaN smuggled past the constructors must surface as a typed
        // model error through the pipeline, not a panic.
        let inst = qbss_core::QbssInstance::new(vec![QJob::new_unchecked(
            0,
            0.0,
            2.0,
            f64::NAN,
            2.0,
            0.5,
        )]);
        let opt = inst.opt_cache();
        for alg in ["avrq", "bkpq", "oaq", "crcd", "crp2d", "crad", "avrq-m"] {
            let algorithm: Algorithm = alg.parse().unwrap();
            let err = cost_row(&inst, 3.0, algorithm, &opt).map(|_| ()).expect_err(alg);
            assert_eq!(err.exit_code(), 1, "{alg}: {err}");
        }
    }

    #[test]
    fn generate_and_reload_via_tempfile() {
        let dir = std::env::temp_dir().join("qbss-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gen.json");
        generate(&args(&[
            "--n", "12", "--seed", "9", "--family", "p2", "--out",
            path.to_str().unwrap(),
        ]))
        .expect("generate");
        let inst = io::read_file(&path).expect("reload");
        assert_eq!(inst.len(), 12);
        assert!(inst
            .jobs
            .iter()
            .all(|j| qbss_core::offline::is_power_of_two_deadline(j.deadline)));
    }

    #[test]
    fn stream_consumes_generated_jsonl_events() {
        let dir = std::env::temp_dir().join("qbss-cli-stream-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let p = path.to_str().unwrap();
        generate(&args(&["--n", "10", "--seed", "4", "--events", "--out", p]))
            .expect("generate --events");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 10);
        assert!(text.lines().all(|l| l.contains("\"type\": \"arrive\"")), "{text}");
        for alg in ["avrq", "bkpq", "oaq"] {
            stream(&args(&["--alg", alg, "--in", p])).expect(alg);
        }
        // An explicit finish (and advances) work too.
        let mut with_advance = String::from("{\"type\": \"advance\", \"t\": 0.0}\n");
        with_advance.push_str(&text);
        with_advance.push_str("{\"type\": \"finish\"}\n");
        let path2 = dir.join("events2.jsonl");
        std::fs::write(&path2, &with_advance).unwrap();
        stream(&args(&["--alg", "oaq", "--in", path2.to_str().unwrap()])).expect("finish event");
    }

    #[test]
    fn stream_rejects_bad_events_with_line_numbers() {
        let dir = std::env::temp_dir().join("qbss-cli-stream-bad-test");
        std::fs::create_dir_all(&dir).unwrap();
        let run = |body: &str| {
            let path = dir.join("bad.jsonl");
            std::fs::write(&path, body).unwrap();
            stream(&args(&["--alg", "oaq", "--in", path.to_str().unwrap()]))
        };
        let arrive = "{\"type\": \"arrive\", \"id\": 0, \"release\": 1, \"deadline\": 3, \
                      \"query_load\": 0.5, \"upper_bound\": 2, \"exact\": 1}\n";
        // Unknown event type, non-JSON line, missing field: bad input
        // with the (comment-inclusive) line number.
        for body in ["{\"type\": \"bogus\"}\n", "not json\n", "{\"type\": \"advance\"}\n"] {
            let err = run(&format!("# comment\n{body}")).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{err}");
            assert!(err.to_string().contains("line 2"), "{err}");
        }
        // An out-of-order arrival is rejected by the engine, same code.
        let past = "{\"type\": \"arrive\", \"id\": 1, \"release\": 0, \"deadline\": 3, \
                    \"query_load\": 0.5, \"upper_bound\": 2, \"exact\": 1}\n";
        let err = run(&format!("{arrive}{past}")).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");
        // Events after `finish` are rejected.
        let err = run(&format!("{arrive}{{\"type\": \"finish\"}}\n{arrive}")).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        // A batch-only algorithm is a flag error; an empty stream is an
        // algorithm failure; a missing file is I/O.
        let err = run(arrive).map(|()| {
            stream(&args(&["--alg", "crcd", "--in", dir.join("bad.jsonl").to_str().unwrap()]))
                .unwrap_err()
        });
        assert_eq!(err.expect("stream ok").exit_code(), 2);
        assert_eq!(run("").unwrap_err().exit_code(), 1);
        assert_eq!(
            stream(&args(&["--alg", "oaq", "--in", "/no/such/file"])).unwrap_err().exit_code(),
            3
        );
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let f = Flags::parse(&args(&["--in", "/definitely/not/a/file.json"]), &["in"]).unwrap();
        let err = load_instance(&f).unwrap_err();
        assert!(matches!(err, CliError::Io(_)), "{err}");
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn bounds_rejects_bad_alpha() {
        assert!(bounds(&args(&["--alpha", "1.0"])).is_err());
        assert!(bounds(&args(&["--alpha", "2.0"])).is_ok());
    }

    #[test]
    fn bad_alpha_is_bad_input_everywhere() {
        for a in ["0.5", "1.0", "NaN", "inf", "-2"] {
            let f = Flags::parse(&args(&["--alpha", a]), &["alpha"]).unwrap();
            let err = f.alpha().unwrap_err();
            assert_eq!(err.exit_code(), 2, "alpha {a}: {err}");
        }
    }

    #[test]
    fn alg_and_alpha_lists_parse() {
        let algs = parse_alg_list("avrq,bkpq,avrq-m", 4, 7).unwrap();
        assert_eq!(
            algs,
            vec![Algorithm::Avrq, Algorithm::Bkpq, Algorithm::AvrqM { m: 4 }]
        );
        assert_eq!(parse_alg_list("all", 3, 6).unwrap(), Algorithm::all(3, 6));
        // Explicit parameters override the sweep-level --m.
        assert_eq!(parse_alg_list("avrq-m:8", 2, 6).unwrap(), vec![Algorithm::AvrqM { m: 8 }]);
        assert!(parse_alg_list("nope", 2, 6).is_err());
        assert_eq!(parse_alpha_list("2,2.5,3").unwrap(), vec![2.0, 2.5, 3.0]);
        assert!(parse_alpha_list("1.0").is_err());
        assert!(parse_alpha_list("x").is_err());
    }

    #[test]
    fn switch_flags_parse_bare_and_explicit() {
        let known = &["audit", "n"];
        let f = Flags::parse_with_switches(&args(&["--audit"]), known, &["audit"]).unwrap();
        assert!(f.switch("audit").unwrap());
        // A bare switch followed by another flag still binds to "true".
        let f = Flags::parse_with_switches(&args(&["--audit", "--n", "3"]), known, &["audit"])
            .unwrap();
        assert!(f.switch("audit").unwrap());
        assert_eq!(f.get("n"), Some("3"));
        // An explicit value is honoured…
        let f = Flags::parse_with_switches(&args(&["--audit", "false"]), known, &["audit"])
            .unwrap();
        assert!(!f.switch("audit").unwrap());
        // …and a nonsense one is bad input.
        let f = Flags::parse_with_switches(&args(&["--audit", "maybe"]), known, &["audit"])
            .unwrap();
        assert_eq!(f.switch("audit").unwrap_err().exit_code(), 2);
        // Unset reads false.
        let f = Flags::parse_with_switches(&args(&[]), known, &["audit"]).unwrap();
        assert!(!f.switch("audit").unwrap());
    }

    fn toy_baseline(median: f64) -> PerfBaseline {
        use qbss_bench::perf::{EnvFingerprint, ScenarioStats};
        let samples = vec![median, median * 1.01, median * 0.99];
        let med = perf::median(&samples);
        PerfBaseline {
            env: EnvFingerprint {
                host: "test".into(),
                os: "linux".into(),
                arch: "x86_64".into(),
                cores: 1,
                rustc: "rustc test".into(),
            },
            config: PerfConfig::default(),
            scenarios: std::iter::once((
                "toy".to_string(),
                ScenarioStats {
                    cells: 4,
                    mad_ms: perf::mad(&samples, med),
                    min_ms: samples.iter().copied().fold(f64::INFINITY, f64::min),
                    median_ms: med,
                    samples_ms: samples,
                },
            ))
            .collect(),
            profiles: Default::default(),
            work_counters: Default::default(),
        }
    }

    #[test]
    fn perf_gate_passes_identical_and_fails_slowed_baselines() {
        let dir = std::env::temp_dir().join("qbss-cli-perf-test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let slow = dir.join("slow.json");
        std::fs::write(&base, toy_baseline(100.0).to_json()).unwrap();
        std::fs::write(&slow, toy_baseline(200.0).to_json()).unwrap();
        let b = base.to_str().unwrap();
        let s = slow.to_str().unwrap();
        // Identical baselines gate clean.
        observatory("perf", &args(&["gate", "--base", b, "--new", b])).expect("identical baselines pass");
        // A 2× slowdown fails the gate with the I/O-class exit code.
        let err = observatory("perf", &args(&["gate", "--base", b, "--new", s])).unwrap_err();
        assert!(matches!(err, CliError::Gate(_)), "{err}");
        assert_eq!(err.exit_code(), 3);
        // …but `compare` only reports, never gates.
        observatory("perf", &args(&["compare", b, s])).expect("compare reports without failing");
        // Missing file → I/O; broken schema → bad input; bad action → bad input.
        assert_eq!(observatory("perf", &args(&["gate", "--base", "/no/file"])).unwrap_err().exit_code(), 3);
        let junk = dir.join("junk.json");
        std::fs::write(&junk, "{}").unwrap();
        let err =
            observatory("perf", &args(&["gate", "--base", b, "--new", junk.to_str().unwrap()])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert_eq!(observatory("perf", &args(&["explode"])).unwrap_err().exit_code(), 2);
        assert_eq!(observatory("perf", &args(&["record", "--repeats", "0"])).unwrap_err().exit_code(), 2);
    }

    #[test]
    fn prof_record_folds_a_trace_file() {
        let dir = std::env::temp_dir().join("qbss-cli-prof-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("p.jsonl");
        // Child closes (and is written) before its parent — file order
        // is close order; the folder rebuilds the tree from ids.
        std::fs::write(
            &trace_path,
            "{\"t\": \"span\", \"id\": 2, \"parent\": 1, \"name\": \"cell\", \
             \"start_us\": 10, \"dur_us\": 40, \"fields\": {}}\n\
             {\"t\": \"span\", \"id\": 1, \"parent\": null, \"name\": \"sweep\", \
             \"start_us\": 0, \"dur_us\": 100, \"fields\": {}}\n",
        )
        .unwrap();
        let t = trace_path.to_str().unwrap();
        let folded_path = dir.join("p.folded");
        prof(&args(&["record", "--trace", t, "--out", folded_path.to_str().unwrap()]))
            .expect("prof record");
        let folded = std::fs::read_to_string(&folded_path).unwrap();
        assert_eq!(folded, "sweep 60 1\nsweep;cell 40 1\n");
        // Collapsing a frame folds its self time into the parent.
        let collapsed = dir.join("c.folded");
        prof(&args(&[
            "record", "--trace", t, "--collapse", "cell", "--counts-only",
            "--out", collapsed.to_str().unwrap(),
        ]))
        .expect("prof record --collapse");
        assert_eq!(std::fs::read_to_string(&collapsed).unwrap(), "sweep 1\n");
        // diff of a profile against itself runs clean; flame renders
        // self-contained HTML from the folded file.
        prof(&args(&["diff", folded_path.to_str().unwrap(), folded_path.to_str().unwrap()]))
            .expect("prof diff");
        let html_path = dir.join("p.html");
        prof(&args(&[
            "flame", "--folded", folded_path.to_str().unwrap(),
            "--out", html_path.to_str().unwrap(),
        ]))
        .expect("prof flame");
        let html = std::fs::read_to_string(&html_path).unwrap();
        assert!(html.starts_with("<!DOCTYPE html>"), "{}", &html[..60]);
        assert!(html.contains("sweep"), "{html}");
        assert!(!html.contains("http://") && !html.contains("https://"), "self-contained");
    }

    #[test]
    fn prof_errors_map_onto_the_exit_codes() {
        let dir = std::env::temp_dir().join("qbss-cli-prof-err-test");
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(prof(&args(&["explode"])).unwrap_err().exit_code(), 2);
        assert_eq!(prof(&args(&["record"])).unwrap_err().exit_code(), 2);
        assert_eq!(
            prof(&args(&["record", "--trace", "a", "--scenario", "b"])).unwrap_err().exit_code(),
            2
        );
        assert_eq!(
            prof(&args(&["record", "--trace", "/no/such/file"])).unwrap_err().exit_code(),
            3
        );
        assert_eq!(prof(&args(&["diff", "/no/file"])).unwrap_err().exit_code(), 2);
        assert_eq!(prof(&args(&["diff", "/no/file", "/no/file"])).unwrap_err().exit_code(), 3);
        let bad = dir.join("bad.folded");
        std::fs::write(&bad, "just-a-path-no-count\n").unwrap();
        let b = bad.to_str().unwrap();
        let err = prof(&args(&["diff", b, b])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert_eq!(prof(&args(&["flame"])).unwrap_err().exit_code(), 2);
        // perf record refuses the --profile/--trace combination.
        let err = observatory("perf", &args(&[
            "record", "--profile", "--trace", "/tmp/t.jsonl", "--scenarios", "ci-small",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn trace_report_writes_self_contained_html() {
        let dir = std::env::temp_dir().join("qbss-cli-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        std::fs::write(
            &path,
            "{\"t\": \"span\", \"id\": 1, \"parent\": null, \"name\": \"cli.sweep\", \
             \"start_us\": 0, \"dur_us\": 50, \"fields\": {}}\n",
        )
        .unwrap();
        let out = dir.join("t.html");
        trace(&args(&["report", path.to_str().unwrap(), "--out", out.to_str().unwrap()]))
            .expect("report");
        let html = std::fs::read_to_string(&out).unwrap();
        assert!(html.starts_with("<!DOCTYPE html>"), "{}", &html[..60]);
        assert!(html.contains("cli.sweep"));
        assert!(!html.contains("http://") && !html.contains("https://"), "self-contained");
        assert_eq!(trace(&args(&["report", "/no/such/file"])).unwrap_err().exit_code(), 3);
    }

    #[test]
    fn qbss_log_specs_parse_or_exit_2() {
        assert!(filter_from_spec(None, false).unwrap().max_level().is_none());
        assert!(filter_from_spec(None, true).unwrap().max_level().is_some());
        assert!(filter_from_spec(Some("debug,engine=trace"), false).is_ok());
        let err = filter_from_spec(Some("engine=loud"), false).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
    }

    #[test]
    fn trace_summarize_round_trips_a_trace_file() {
        let dir = std::env::temp_dir().join("qbss-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        std::fs::write(
            &path,
            "{\"t\": \"span\", \"id\": 1, \"parent\": null, \"name\": \"cli.sweep\", \
             \"start_us\": 0, \"dur_us\": 50, \"fields\": {}}\n",
        )
        .unwrap();
        trace(&args(&["summarize", path.to_str().unwrap()])).expect("summarize");
        // Bad action / missing file / bad schema map onto the exit codes.
        assert_eq!(trace(&args(&["explode"])).unwrap_err().exit_code(), 2);
        assert_eq!(trace(&args(&["summarize", "/no/such/file"])).unwrap_err().exit_code(), 3);
        std::fs::write(&path, "{\"t\": \"bogus\"}\n").unwrap();
        let err = trace(&args(&["summarize", path.to_str().unwrap()])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn sweep_runs_end_to_end() {
        let dir = std::env::temp_dir().join("qbss-cli-sweep-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("agg.json");
        sweep(&args(&[
            "--count", "6", "--n", "8", "--alg", "avrq,bkpq", "--alpha", "2,3",
            "--shards", "2", "--format", "json", "--out",
            path.to_str().unwrap(),
        ]))
        .expect("sweep");
        let agg = std::fs::read_to_string(&path).unwrap();
        assert!(agg.contains("\"algorithm\": \"avrq\""), "{agg}");
        let instr =
            std::fs::read_to_string(format!("{}.instr.json", path.display())).unwrap();
        assert!(instr.contains("\"cache_hit_rate\""), "{instr}");
        assert!(sweep(&args(&["--alg", "nope"])).is_err());
    }
}
