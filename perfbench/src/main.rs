//! `perfbench` — the repository benchmark of `qbss`.
//!
//! One command runs one workload against the release build, checks
//! every answer outside the timed region, and prints a human-readable
//! table followed by one JSON line (the last line of stdout):
//!
//! ```text
//! perfbench --workload table1-sweep --seed 1 --seconds 30 --trace 0 [--qbss PATH]
//! ```
//!
//! * `--trace 0` reports the end-to-end metrics ([`END_TO_END`]).
//! * `--trace 1` reports the per-layer ledger ([`PER_LAYER`]): self
//!   times from benchmark-owned spans around calls into each layer,
//!   exact work-counter deltas, each layer's share, and the tracing
//!   overhead against an untraced run of the same work.
//!
//! Workloads (inputs are a pure function of `--seed`):
//!
//! * `table1-sweep` — the paper's Table 1 grid through
//!   `qbss_bench::engine::run_sweep`, cut into many short equal sweeps;
//! * `stream-replay` — long online traces fed one arrival at a time
//!   through `qbss_bench::StreamSession`, finished and scored;
//! * `serve-traffic` — open-loop `/evaluate` + `/sweep` traffic and
//!   closed-loop session clients against a `qbss serve` process.

mod serve;
mod stats;
mod stream;
mod table1;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use qbss_core::pipeline::Algorithm;

use crate::stats::FastEnd;
use crate::trace::Tracer;

/// The power exponent of every single-α session and request.
pub const ALPHA: f64 = 3.0;
/// Energy ratios below 1 − this would beat the optimum: a wrong answer.
pub const RATIO_SLACK: f64 = 1e-9;

/// End-to-end metrics: `(name, unit)`, printed by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics: `(name, unit)`, printed by every workload with
/// `--trace 1` (0 where the workload bypasses the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.self_ms", "ms"),
    ("engine.cache_hit_ratio", "ratio"),
    ("bkp.arrive_ms", "ms"),
    ("bkp.finish_ms", "ms"),
    ("bkp.window_slides", "count"),
    ("bkp.intensity_queries", "count"),
    ("multi.solve_ms", "ms"),
    ("multi.fw_ms", "ms"),
    ("fw.iterations", "count"),
    ("fw.gradient_evals", "count"),
    ("offline.solve_ms", "ms"),
    ("avr.arrive_ms", "ms"),
    ("oa.arrive_ms", "ms"),
    ("avr.finish_ms", "ms"),
    ("oa.finish_ms", "ms"),
    ("avr.delta_events", "count"),
    ("oa.hull_updates", "count"),
    ("oa.hull_pops", "count"),
    ("solver.events", "count"),
    ("yds.solve_ms", "ms"),
    ("yds.intervals_scanned", "count"),
    ("yds.density_evals", "count"),
    ("outcome.validate_ms", "ms"),
    ("outcome.energy_ms", "ms"),
    ("io.decode_ms", "ms"),
    ("io.encode_ms", "ms"),
    ("request.decode_ms", "ms"),
    ("io.bytes_in", "bytes"),
    ("io.bytes_out", "bytes"),
    ("serve.handler_ms.evaluate", "ms"),
    ("serve.handler_ms.sweep", "ms"),
    ("serve.handler_ms.session", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.evaluate.p50_ms", "ms"),
    ("serve.evaluate.p90_ms", "ms"),
    ("serve.sweep.p50_ms", "ms"),
    ("serve.sweep.p90_ms", "ms"),
    ("serve.session.p50_ms", "ms"),
    ("serve.session.p90_ms", "ms"),
    ("serve.shed", "count"),
    ("generator.late_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("share.engine", "ratio"),
    ("share.bkp", "ratio"),
    ("share.multi", "ratio"),
    ("share.offline", "ratio"),
    ("share.avr", "ratio"),
    ("share.oa", "ratio"),
    ("share.yds", "ratio"),
    ("share.outcome", "ratio"),
    ("share.io", "ratio"),
    ("share.request", "ratio"),
    ("share.serve.wait", "ratio"),
    ("share.serve.handler", "ratio"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Traced run (per-layer ledger) instead of the end-to-end run.
    pub trace: bool,
    /// The `qbss` binary `serve-traffic` spawns.
    pub qbss: Option<PathBuf>,
    /// Where the traced run writes its spans.
    pub trace_dir: Option<PathBuf>,
    /// Tiny inputs, for the benchmark's own determinism test.
    pub tiny: bool,
}

/// What a workload hands back: its answers' tally, the measured
/// metrics, and the deterministic evidence (fingerprint, counters).
#[derive(Debug, Default)]
pub struct Outcome {
    /// FNV-1a over the generated inputs and request schedule.
    pub fingerprint: u64,
    /// Exact work-counter deltas over one fixed unit of work.
    pub counters: BTreeMap<String, u64>,
    /// Operations attempted and failed (errors or wrong answers).
    pub attempted: u64,
    /// Failed operations.
    pub failed: u64,
    /// Metric values by name (units come from the tables above).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed above the JSON result.
    pub notes: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 20.0,
        trace: false,
        qbss: None,
        trace_dir: None,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--qbss" => args.qbss = Some(PathBuf::from(value()?)),
            "--trace-dir" => args.trace_dir = Some(PathBuf::from(value()?)),
            "--tiny" => args.tiny = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required (table1-sweep | stream-replay | serve-traffic)".into());
    }
    Ok(args)
}

/// Nanoseconds since `t0`.
pub fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The `(arrive, finish)` span names of a streamable single-machine
/// algorithm's substrate: AVR under AVRQ, BKP under BKPQ, OA under OAQ.
pub fn substrate_spans(alg: Algorithm) -> (&'static str, &'static str) {
    match alg {
        Algorithm::Avrq => ("avr.arrive", "avr.finish"),
        Algorithm::Bkpq => ("bkp.arrive", "bkp.finish"),
        _ => ("oa.arrive", "oa.finish"),
    }
}

/// What [`run_passes`] measured.
pub struct Passes {
    /// Each unit's fastest untraced time.
    pub untraced: FastEnd,
    /// Each unit's fastest traced time (traced runs only).
    pub traced: FastEnd,
    /// Span self times summed over the traced passes.
    self_ns: BTreeMap<&'static str, u64>,
    traced_passes: u64,
    /// The first traced pass's spans, written out when the run ends.
    first_trace: Option<Tracer>,
    /// Passes run.
    pub passes: usize,
    /// The fastest set-up of any pass, in seconds.
    pub setup_s: f64,
    /// Work-counter deltas over the first pass (always untraced).
    pub counters: BTreeMap<String, u64>,
}

/// Runs the same `units` deterministic work units in repeated passes
/// until `args.seconds` have gone by. Each pass first calls `setup`,
/// timed, then `unit(state, i, tracer)` for every unit; `unit` returns
/// the unit's measured time in ns. With `--trace 1` odd passes hand
/// `unit` a tracer and even passes none, and at least two passes run,
/// so every unit is timed both ways.
pub fn run_passes<S>(
    args: &Args,
    units: usize,
    mut setup: impl FnMut() -> Result<S, String>,
    mut unit: impl FnMut(&mut S, usize, Option<&mut Tracer>) -> Result<u64, String>,
) -> Result<Passes, String> {
    let mut p = Passes {
        untraced: FastEnd::new(units),
        traced: FastEnd::new(units),
        self_ns: BTreeMap::new(),
        traced_passes: 0,
        first_trace: None,
        passes: 0,
        setup_s: f64::INFINITY,
        counters: BTreeMap::new(),
    };
    let min_passes = if args.trace { 2 } else { 1 };
    let started = Instant::now();
    while p.passes < min_passes || started.elapsed().as_secs_f64() < args.seconds {
        let tracing = args.trace && p.passes % 2 == 1;
        let t0 = Instant::now();
        let mut state = setup()?;
        p.setup_s = p.setup_s.min(t0.elapsed().as_secs_f64());
        let before = (p.passes == 0).then(stats::counters);
        let mut tracer = Tracer::new(started);
        for i in 0..units {
            if tracing {
                let ns = unit(&mut state, i, Some(&mut tracer))?;
                p.traced.record(i, ns);
            } else {
                let ns = unit(&mut state, i, None)?;
                p.untraced.record(i, ns);
            }
        }
        if let Some(before) = before {
            stats::add_work_delta(&mut p.counters, &before, &stats::counters());
        }
        if tracing {
            p.traced_passes += 1;
            for (name, ns) in tracer.self_ns_by_name() {
                *p.self_ns.entry(name).or_insert(0) += ns;
            }
            p.first_trace.get_or_insert(tracer);
        }
        p.passes += 1;
    }
    Ok(p)
}

impl Passes {
    /// The traced run's ledger; `trace.overhead_ratio` compares the
    /// traced and untraced passes' fast ends. The first traced pass's
    /// spans go to `<trace dir>/<workload>.jsonl`.
    pub fn report_ledger(
        &self,
        out: &mut Outcome,
        args: &Args,
        prediction: Prediction,
    ) -> Result<(), String> {
        let overhead = self.traced.total_s() / self.untraced.total_s() - 1.0;
        ledger(out, &self.self_ns, self.traced_passes, overhead, prediction);
        match (&args.trace_dir, &self.first_trace) {
            (Some(dir), Some(t)) => write_trace(dir, &args.workload, t),
            _ => Ok(()),
        }
    }
}

/// The dominant-layer prediction a workload's ledger is checked against
/// (fixed before anyone optimises).
#[derive(Debug, Clone, Copy)]
pub enum Prediction {
    /// BKP and Frank–Wolfe dominate `table1-sweep`.
    Table1,
    /// Validation, substrate finish and YDS dominate `stream-replay`.
    Stream,
    /// The wait outside the handler dominates `serve-traffic`.
    Serve,
}

/// Turns per-span self times (summed over `passes` traced passes) into
/// the ledger: `<span>_ms` per pass, `share.<layer>`, the tracing
/// overhead, and whether the predicted layers dominate.
pub fn ledger(
    out: &mut Outcome,
    self_ns: &BTreeMap<&'static str, u64>,
    passes: u64,
    overhead: f64,
    prediction: Prediction,
) {
    let passes = passes.max(1) as f64;
    let total = self_ns.values().sum::<u64>().max(1) as f64;
    let shares: BTreeMap<&str, f64> = self_ns
        .iter()
        .map(|(name, ns)| (*name, *ns as f64 / total))
        .collect();
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    out.notes
        .push("ledger: span self time per traced pass, share of traced time".into());
    for (name, ns) in self_ns {
        let metric = if *name == "engine.run_sweep" {
            "engine.self_ms".to_string()
        } else {
            format!("{name}_ms")
        };
        let ms = *ns as f64 / 1e6 / passes;
        if let Some(&(key, _)) = PER_LAYER.iter().find(|(n, _)| *n == metric) {
            out.metrics.insert(key, ms);
        }
        *by_layer.entry(trace::layer_of(name)).or_insert(0.0) += shares[name];
        out.notes.push(format!(
            "  {name:<20} {ms:>12.3} ms {:>6.1}%",
            shares[name] * 100.0
        ));
    }
    // `share.<layer>` for layers, and `share.<span>` where the ledger
    // names a single span (the serve wait and handler).
    for (part, share) in by_layer.iter().chain(shares.iter()) {
        let key = format!("share.{part}");
        if let Some(&(key, _)) = PER_LAYER.iter().find(|(n, _)| *n == key) {
            out.metrics.insert(key, *share);
        }
    }
    out.metrics.insert("trace.overhead_ratio", overhead);
    out.notes
        .push(format!("trace.overhead_ratio {overhead:.4}"));
    let verdict = |holds: bool| if holds { "holds" } else { "does NOT hold" };
    let share = |name: &str| shares.get(name).copied().unwrap_or(0.0);
    let line = match prediction {
        Prediction::Table1 => {
            let bkp = share("bkp.arrive") + share("bkp.finish");
            let fw = share("multi.fw");
            // Every other layer, with the multi-machine solve counted
            // apart from its Frank-Wolfe certificate.
            let others = by_layer
                .iter()
                .filter(|(layer, _)| !matches!(**layer, "bkp" | "multi"))
                .map(|(_, s)| *s)
                .fold(share("multi.solve"), f64::max);
            format!(
                "prediction BKP + Frank-Wolfe dominate: {} (bkp {:.1}%, fw {:.1}%, largest other {:.1}%)",
                verdict(bkp + fw >= 0.5 && bkp.min(fw) >= others),
                bkp * 100.0,
                fw * 100.0,
                others * 100.0
            )
        }
        Prediction::Stream => {
            let validate = share("outcome.validate");
            let finish = share("avr.finish") + share("oa.finish");
            let yds = share("yds.solve");
            let arrive = share("avr.arrive") + share("oa.arrive");
            let others = arrive
                .max(share("outcome.energy"))
                .max(share("stream.trace"));
            format!(
                "prediction validation + finish + YDS dominate: {} (validate {:.1}%, finish {:.1}%, \
                 yds {:.1}%, largest other {:.1}%)",
                verdict(validate.min(finish).min(yds) >= others),
                validate * 100.0,
                finish * 100.0,
                yds * 100.0,
                others * 100.0
            )
        }
        Prediction::Serve => {
            let wait = share("serve.wait");
            format!(
                "prediction serve.wait_ms dominates: {} (wait {:.1}% of client latency)",
                verdict(wait >= 0.5),
                wait * 100.0
            )
        }
    };
    out.notes.push(line);
}

/// Writes a traced run's spans to `<dir>/<workload>.jsonl`.
pub fn write_trace(dir: &std::path::Path, workload: &str, t: &trace::Tracer) -> Result<(), String> {
    use std::io::Write;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}.jsonl"));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    t.write_jsonl(&mut w)
        .and_then(|()| w.flush())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "table1-sweep" => table1::run(&args),
        "stream-replay" => stream::run(&args),
        "serve-traffic" => serve::run(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let ok_share = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    out.metrics.insert("ok_share", ok_share);
    for &(name, unit) in PER_LAYER {
        if let (true, Some(&count)) = (unit == "count", out.counters.get(name)) {
            out.metrics.insert(name, count as f64);
        }
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("fingerprint {:016x}", out.fingerprint);
    let counters: Vec<String> = out
        .counters
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("counters {}", counters.join(" "));
    for note in &out.notes {
        println!("{note}");
    }
    let mut finite = true;
    let mut json = Vec::new();
    for &(name, unit) in table {
        let v = out.metrics.get(name).copied().unwrap_or(0.0);
        finite &= v.is_finite();
        let v = if v.is_finite() { v } else { 0.0 };
        println!("metric {name:<28} {v:>16} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = finite && out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        json.join(", ")
    );
}
