//! `qbss loadgen` — a seeded open-loop load generator that proves the
//! serve plane degrades instead of dying.
//!
//! The harness is **open-loop**: arrivals follow a Poisson process at
//! `--rps` (exponential interarrival times from a seeded `StdRng`), so
//! a slow server does not slow the offered load down — exactly the
//! regime where closed-loop harnesses flatter the system under test.
//! The whole schedule (arrival times, targets, payload bodies) is built
//! up front from the seed, making runs reproducible: same seed, same
//! `--rps`/`--duration-s` → byte-identical schedule, summarized by an
//! FNV-1a hash the determinism tests compare.
//!
//! Payloads come from the workspace's own generators: `/evaluate`
//! bodies are `GenConfig::online_default` instances, `/sweep` bodies
//! are small fixed-shape grids. `--adversarial` adds burst trains —
//! clusters of simultaneous arrivals carrying the Lemma 4.x lower-bound
//! constructions from `qbss_instances::adversary` — on top of the
//! Poisson background, the Dürr-et-al.-style adversary pointed at the
//! serving edge instead of the query rule.
//!
//! Execution is real TCP: `--connections` sender threads walk the
//! shared schedule, each request on a fresh `Connection: close` stream.
//! Latencies feed a [`Histogram`] over [`DURATION_US_BOUNDS`] (the same
//! percentile machinery `/metrics` uses), statuses are tallied per
//! code, and `429`s are checked for `Retry-After`. The report is
//! canonical JSON (`qbss-loadgen-report/1`) so blessed runs can be
//! committed as `BENCH_serve.json` and diffed across PRs.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use qbss_instances::adversary;
use qbss_instances::gen::{self, GenConfig};
use qbss_instances::io;
use qbss_telemetry::{json_f64, Registry, DURATION_US_BOUNDS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which work endpoints the generated traffic exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Only `POST /evaluate` (cost 1 each).
    Evaluate,
    /// Only `POST /sweep` (cost = cells of the fixed small grid).
    Sweep,
    /// Mostly evaluates with sweeps mixed in (the default).
    Mixed,
}

impl Mix {
    /// Parses the `--mix` flag value.
    pub fn from_name(name: &str) -> Option<Mix> {
        match name {
            "evaluate" => Some(Mix::Evaluate),
            "sweep" => Some(Mix::Sweep),
            "mixed" => Some(Mix::Mixed),
            _ => None,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Mix::Evaluate => "evaluate",
            Mix::Sweep => "sweep",
            Mix::Mixed => "mixed",
        }
    }
}

/// Everything that determines the schedule (and therefore its hash).
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Offered load in requests per second.
    pub rps: f64,
    /// Length of the arrival window in seconds.
    pub duration_s: f64,
    /// Seed for the arrival process and payload generators.
    pub seed: u64,
    /// Endpoint mix.
    pub mix: Mix,
    /// Add Lemma 4.x burst trains on top of the Poisson background.
    pub adversarial: bool,
    /// Sender threads.
    pub connections: usize,
    /// Jobs per generated `/evaluate` instance.
    pub n: usize,
}

/// One planned request: fire at `at_us` (relative to the run start),
/// POST `body` to `target`.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Scheduled send time, microseconds after the run starts.
    pub at_us: u64,
    /// Path + query, e.g. `/evaluate?alg=avrq&alpha=3`.
    pub target: String,
    /// Request body (JSON).
    pub body: String,
}

/// Requests per adversarial burst: enough simultaneous arrivals to
/// overrun a small worker pool in one tick.
const BURST_SIZE: usize = 8;
/// Seconds between adversarial bursts.
const BURST_PERIOD_S: f64 = 0.5;

/// A seed split: decorrelates per-request payload seeds from the
/// arrival process (splitmix64's odd multiplier).
fn derive_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

fn evaluate_planned(at_us: u64, n: usize, payload_seed: u64) -> Result<Planned, String> {
    let inst = gen::generate(&GenConfig::online_default(n.max(2), payload_seed));
    let body = io::to_json(&inst)
        .map_err(|e| format!("generated instance failed validation: {e}"))?;
    Ok(Planned { at_us, target: "/evaluate?alg=avrq&alpha=3".to_string(), body })
}

fn sweep_planned(at_us: u64, n: usize, payload_seed: u64) -> Planned {
    // A fixed small grid (3 × 2 × 2 = 12 cells): heavy enough to make
    // cost-aware admission meaningful, light enough to finish fast.
    let body = format!(
        "{{\"count\": 3, \"n\": {}, \"seed\": {}, \"alg\": \"avrq,bkpq\", \"alpha\": [2, 3]}}",
        n.max(2),
        // Keep the seed in the sweep engine's comfortable range.
        payload_seed % 100_000
    );
    Planned { at_us, target: "/sweep".to_string(), body }
}

/// The Lemma 4.x lower-bound constructions, cycled through burst
/// trains. Each is a hand-built worst case from the paper's §4 proofs —
/// the instances designed to make an algorithm look as bad as possible.
fn adversarial_body(index: usize) -> Result<String, String> {
    let inst = match index % 7 {
        0 => adversary::lemma_4_1_instance(0.2),
        1 => adversary::lemma_4_1_instance(0.35),
        2 => adversary::lemma_4_2_instance(true),
        3 => adversary::lemma_4_2_instance(false),
        4 => adversary::lemma_4_3_instance(None),
        5 => adversary::lemma_4_3_instance(Some(0.3)),
        _ => adversary::lemma_4_3_instance(Some(0.7)),
    };
    io::to_json(&inst).map_err(|e| format!("lemma instance failed validation: {e}"))
}

/// Builds the full deterministic request schedule: Poisson arrivals
/// over `[0, duration)`, plus (with `adversarial`) burst trains every
/// [`BURST_PERIOD_S`]. Sorted by arrival time, stable.
pub fn build_schedule(cfg: &LoadgenConfig) -> Result<Vec<Planned>, String> {
    if !(cfg.rps.is_finite() && cfg.rps > 0.0) {
        return Err("rps must be a positive number".to_string());
    }
    if !(cfg.duration_s.is_finite() && cfg.duration_s > 0.0) {
        return Err("duration must be a positive number".to_string());
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut schedule = Vec::new();
    let mut t = 0.0_f64;
    let mut index: u64 = 0;
    loop {
        // Exponential interarrival: -ln(1-U)/λ, the Poisson process.
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / cfg.rps;
        if t >= cfg.duration_s {
            break;
        }
        let at_us = (t * 1e6) as u64;
        let payload_seed = derive_seed(cfg.seed, index);
        let use_sweep = match cfg.mix {
            Mix::Evaluate => false,
            Mix::Sweep => true,
            Mix::Mixed => rng.gen_bool(0.25),
        };
        schedule.push(if use_sweep {
            sweep_planned(at_us, cfg.n, payload_seed)
        } else {
            evaluate_planned(at_us, cfg.n, payload_seed)?
        });
        index += 1;
    }
    if cfg.adversarial {
        // Burst trains: BURST_SIZE simultaneous arrivals every
        // BURST_PERIOD_S, carrying the paper's lower-bound instances.
        let mut burst_t = BURST_PERIOD_S.min(cfg.duration_s / 2.0);
        let mut k = 0usize;
        while burst_t < cfg.duration_s {
            let at_us = (burst_t * 1e6) as u64;
            for _ in 0..BURST_SIZE {
                schedule.push(Planned {
                    at_us,
                    target: "/evaluate?alg=avrq&alpha=3".to_string(),
                    body: adversarial_body(k)?,
                });
                k += 1;
            }
            burst_t += BURST_PERIOD_S;
        }
    }
    schedule.sort_by_key(|p| p.at_us);
    Ok(schedule)
}

/// FNV-1a 64 over the schedule's `(at_us, target, body)` triples — the
/// fingerprint the determinism tests compare across runs.
pub fn schedule_hash(schedule: &[Planned]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for p in schedule {
        eat(&p.at_us.to_le_bytes());
        eat(p.target.as_bytes());
        eat(&[0]);
        eat(p.body.as_bytes());
        eat(&[0]);
    }
    h
}

/// The deterministic plan summary printed by `--plan-only`: everything
/// about the schedule, nothing about the wall clock.
pub fn plan_json(cfg: &LoadgenConfig, schedule: &[Planned]) -> String {
    let evaluates = schedule.iter().filter(|p| p.target.starts_with("/evaluate")).count();
    let sweeps = schedule.len() - evaluates;
    format!(
        "{{\"schema\": \"qbss-loadgen-plan/1\", \"requests\": {}, \
         \"hash\": \"{:016x}\", \"evaluate\": {}, \"sweep\": {}, \
         \"first_at_us\": {}, \"last_at_us\": {}, {}}}",
        schedule.len(),
        schedule_hash(schedule),
        evaluates,
        sweeps,
        schedule.first().map_or(0, |p| p.at_us),
        schedule.last().map_or(0, |p| p.at_us),
        config_json_fields(cfg),
    )
}

fn config_json_fields(cfg: &LoadgenConfig) -> String {
    format!(
        "\"config\": {{\"rps\": {}, \"duration_s\": {}, \"seed\": {}, \"mix\": \"{}\", \
         \"adversarial\": {}, \"connections\": {}, \"n\": {}}}",
        json_f64(cfg.rps),
        json_f64(cfg.duration_s),
        cfg.seed,
        cfg.mix.as_str(),
        cfg.adversarial,
        cfg.connections,
        cfg.n,
    )
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// The outcome of one planned request.
struct Sample {
    /// HTTP status, or `None` on a transport-level failure (refused,
    /// reset, unparseable response) — the "connection-level 5xx" class
    /// the acceptance criteria require to be zero.
    status: Option<u16>,
    latency_us: u64,
    /// How far behind schedule the send actually started.
    slip_us: u64,
    /// Whether a `Retry-After` header accompanied the response.
    retry_after: bool,
}

fn fire(addr: &str, planned: &Planned, io_timeout: Duration) -> (Option<u16>, bool, u64) {
    let started = Instant::now();
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return (None, false, started.elapsed().as_micros() as u64);
    };
    let _ = stream.set_read_timeout(Some(io_timeout));
    let _ = stream.set_write_timeout(Some(io_timeout));
    let req = format!(
        "POST {} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        planned.target,
        planned.body.len(),
        planned.body
    );
    if stream.write_all(req.as_bytes()).is_err() {
        return (None, false, started.elapsed().as_micros() as u64);
    }
    let mut raw = String::new();
    if stream.read_to_string(&mut raw).is_err() || raw.is_empty() {
        return (None, false, started.elapsed().as_micros() as u64);
    }
    let latency_us = started.elapsed().as_micros() as u64;
    let status = raw
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|tok| tok.parse::<u16>().ok());
    let head = raw.split("\r\n\r\n").next().unwrap_or("");
    let retry_after = head
        .lines()
        .any(|l| l.to_ascii_lowercase().starts_with("retry-after:"));
    (status, retry_after, latency_us)
}

/// What a load run produced: the canonical report plus the headline
/// numbers callers branch on.
pub struct RunOutcome {
    /// The canonical `qbss-loadgen-report/1` JSON.
    pub report: String,
    /// Requests fired.
    pub sent: u64,
    /// Requests that got *any* HTTP response back.
    pub completed: u64,
}

/// Runs the schedule against `addr` with `connections` open-loop sender
/// threads and returns the canonical JSON report.
pub fn run_schedule(
    addr: &str,
    cfg: &LoadgenConfig,
    schedule: &[Planned],
    io_timeout: Duration,
) -> RunOutcome {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let threads = cfg.connections.max(1).min(schedule.len().max(1));
    let mut samples: Vec<Sample> = Vec::with_capacity(schedule.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let next = &next;
            handles.push(scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(planned) = schedule.get(i) else { break };
                    let due = Duration::from_micros(planned.at_us);
                    let now = start.elapsed();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let slip_us =
                        (start.elapsed().as_micros() as u64).saturating_sub(planned.at_us);
                    let (status, retry_after, latency_us) = fire(addr, planned, io_timeout);
                    local.push(Sample { status, latency_us, slip_us, retry_after });
                }
                local
            }));
        }
        for handle in handles {
            if let Ok(local) = handle.join() {
                samples.extend(local);
            }
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let sent = samples.len() as u64;
    let completed = samples.iter().filter(|s| s.status.is_some()).count() as u64;
    RunOutcome { report: report_json(cfg, schedule, &samples, wall_s), sent, completed }
}

fn report_json(
    cfg: &LoadgenConfig,
    schedule: &[Planned],
    samples: &[Sample],
    wall_s: f64,
) -> String {
    // A run-local registry (not the process-global one): the latency
    // histogram belongs to this report, not to /metrics.
    let registry = Registry::new();
    let latency = registry.histogram("loadgen.latency_us", &DURATION_US_BOUNDS);
    let mut status_counts: BTreeMap<u16, u64> = BTreeMap::new();
    let mut transport_errors = 0u64;
    let mut status_5xx = 0u64;
    let mut shed = 0u64;
    let mut retry_after_429 = 0u64;
    let mut max_slip_us = 0u64;
    for s in samples {
        max_slip_us = max_slip_us.max(s.slip_us);
        match s.status {
            None => transport_errors += 1,
            Some(code) => {
                *status_counts.entry(code).or_insert(0) += 1;
                latency.record(s.latency_us as f64);
                if code >= 500 {
                    status_5xx += 1;
                }
                if code == 429 {
                    shed += 1;
                    if s.retry_after {
                        retry_after_429 += 1;
                    }
                }
            }
        }
    }
    let completed = samples.len() as u64 - transport_errors;
    let status_json = status_counts
        .iter()
        .map(|(code, n)| format!("\"{code}\": {n}"))
        .collect::<Vec<_>>()
        .join(", ");
    let sent = samples.len() as u64;
    let shed_rate = if sent == 0 { 0.0 } else { shed as f64 / sent as f64 };
    let q = |p: f64| latency.quantile(p) / 1e3;
    // The build fingerprint pins blessed reports to the binary that
    // produced them (informational: comparisons ignore it).
    let build = qbss_bench::BuildInfo::capture();
    format!(
        "{{\"schema\": \"qbss-loadgen-report/1\", \
         \"build\": {{\"version\": \"{}\", \"git\": \"{}\"}}, {}, \
         \"schedule\": {{\"requests\": {}, \"hash\": \"{:016x}\"}}, \
         \"results\": {{\"sent\": {sent}, \"completed\": {completed}, \
         \"transport_errors\": {transport_errors}, \"wall_s\": {}, \
         \"throughput_rps\": {}, \"status\": {{{status_json}}}, \
         \"status_5xx\": {status_5xx}, \"shed\": {shed}, \"shed_rate\": {}, \
         \"retry_after_on_429\": {}, \
         \"latency_ms\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"mean\": {}, \"max\": {}}}, \
         \"max_start_slip_ms\": {}}}}}",
        qbss_telemetry::json_escape(&build.version),
        qbss_telemetry::json_escape(&build.git),
        config_json_fields(cfg),
        schedule.len(),
        schedule_hash(schedule),
        json_f64(wall_s),
        json_f64(if wall_s > 0.0 { completed as f64 / wall_s } else { 0.0 }),
        json_f64(shed_rate),
        shed == retry_after_429,
        json_f64(q(0.50)),
        json_f64(q(0.95)),
        json_f64(q(0.99)),
        json_f64(latency.mean() / 1e3),
        json_f64(latency.max() / 1e3),
        json_f64(max_slip_us as f64 / 1e3),
    )
}

// ---------------------------------------------------------------------
// Spawned in-process server (for `--spawn`)
// ---------------------------------------------------------------------

/// A server spawned in-process for self-contained loadgen runs: bound
/// on an ephemeral loopback port, drained and joined on drop.
pub struct SpawnedServer {
    addr: String,
    handle: Option<std::thread::JoinHandle<Result<(), String>>>,
}

impl SpawnedServer {
    /// Binds `127.0.0.1:0` and runs `serve::run` on a background thread
    /// with `qbss serve`'s defaults apart from `budget` and
    /// `request_timeout_ms`, so a run measures the server as it ships.
    pub fn start(budget: u64, request_timeout_ms: u64) -> Result<SpawnedServer, String> {
        let listener = std::net::TcpListener::bind("127.0.0.1:0")
            .map_err(|e| format!("cannot bind a loopback port: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("cannot read the bound address: {e}"))?
            .to_string();
        crate::serve::reset_shutdown();
        let cfg = crate::serve::ServeConfig {
            budget,
            request_timeout_ms,
            ..crate::serve::ServeConfig::new(qbss_telemetry::RingSink::default())
        };
        let handle = std::thread::spawn(move || crate::serve::run(listener, cfg));
        // The listener is bound before the thread starts, so connects
        // succeed immediately; no readiness poll needed.
        Ok(SpawnedServer { addr, handle: Some(handle) })
    }

    /// The server's `host:port`.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Requests a drain and joins the server thread.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        crate::serve::request_shutdown();
        match self.handle.take() {
            None => Ok(()),
            Some(h) => h.join().map_err(|_| "server thread panicked".to_string())?,
        }
    }
}

impl Drop for SpawnedServer {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> LoadgenConfig {
        LoadgenConfig {
            rps: 200.0,
            duration_s: 0.5,
            seed,
            mix: Mix::Mixed,
            adversarial: false,
            connections: 4,
            n: 6,
        }
    }

    #[test]
    fn schedules_are_deterministic_in_the_seed() {
        let a = build_schedule(&cfg(7)).expect("builds");
        let b = build_schedule(&cfg(7)).expect("builds");
        assert_eq!(schedule_hash(&a), schedule_hash(&b));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.at_us, &x.target, &x.body), (y.at_us, &y.target, &y.body));
        }
        let c = build_schedule(&cfg(8)).expect("builds");
        assert_ne!(schedule_hash(&a), schedule_hash(&c), "different seeds differ");
    }

    #[test]
    fn schedule_is_sorted_and_inside_the_window() {
        let s = build_schedule(&cfg(3)).expect("builds");
        assert!(!s.is_empty(), "200 rps over 0.5 s yields arrivals");
        assert!(s.windows(2).all(|w| w[0].at_us <= w[1].at_us), "sorted by arrival");
        assert!(s.iter().all(|p| p.at_us < 500_000), "inside the window");
    }

    #[test]
    fn mix_controls_the_targets() {
        let mut only_eval = cfg(1);
        only_eval.mix = Mix::Evaluate;
        let s = build_schedule(&only_eval).expect("builds");
        assert!(s.iter().all(|p| p.target.starts_with("/evaluate")));
        let mut only_sweep = cfg(1);
        only_sweep.mix = Mix::Sweep;
        let s = build_schedule(&only_sweep).expect("builds");
        assert!(s.iter().all(|p| p.target == "/sweep"));
    }

    #[test]
    fn adversarial_mode_adds_burst_trains() {
        let mut adv = cfg(5);
        adv.adversarial = true;
        let plain = build_schedule(&cfg(5)).expect("builds");
        let bursty = build_schedule(&adv).expect("builds");
        assert!(bursty.len() > plain.len(), "bursts add arrivals");
        // Bursts are simultaneous: some timestamp repeats BURST_SIZE times.
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        for p in &bursty {
            *counts.entry(p.at_us).or_insert(0) += 1;
        }
        assert!(
            counts.values().any(|&c| c >= BURST_SIZE),
            "a burst of {BURST_SIZE} simultaneous arrivals exists"
        );
        // Lemma payloads are valid instance JSON.
        for k in 0..7 {
            let body = adversarial_body(k).expect("valid lemma instance");
            io::from_json(&body).expect("round-trips");
        }
    }

    #[test]
    fn plan_json_is_wall_clock_free() {
        let c = cfg(11);
        let s = build_schedule(&c).expect("builds");
        let p1 = plan_json(&c, &s);
        let p2 = plan_json(&c, &build_schedule(&c).expect("builds"));
        assert_eq!(p1, p2, "plans are byte-identical across runs");
        assert!(p1.contains("\"schema\": \"qbss-loadgen-plan/1\""), "{p1}");
        assert!(p1.contains("\"hash\": \""), "{p1}");
    }

    #[test]
    fn bad_configs_are_rejected() {
        let mut c = cfg(0);
        c.rps = 0.0;
        assert!(build_schedule(&c).is_err());
        let mut c = cfg(0);
        c.duration_s = -1.0;
        assert!(build_schedule(&c).is_err());
    }

    #[test]
    fn fnv_hash_is_order_sensitive() {
        let a = Planned { at_us: 1, target: "/a".into(), body: "x".into() };
        let b = Planned { at_us: 2, target: "/b".into(), body: "y".into() };
        assert_ne!(
            schedule_hash(&[a.clone(), b.clone()]),
            schedule_hash(&[b, a]),
            "hash must see ordering"
        );
    }

    #[test]
    fn empty_report_is_well_formed() {
        let c = cfg(0);
        let json = report_json(&c, &[], &[], 0.0);
        assert!(json.contains("\"sent\": 0"), "{json}");
        assert!(json.contains("\"shed_rate\": 0"), "{json}");
        qbss_telemetry::json_parse(&json).expect("canonical JSON parses");
    }
}
