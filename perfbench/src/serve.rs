//! `serve-traffic`: HTTP traffic against a `qbss serve` process.
//!
//! The server runs with its default flags except `--addr 127.0.0.1:0`.
//! The load comes from two clients, one connection each (the reference
//! host's `nproc`), every request on a fresh connection as the server
//! closes them:
//!
//! * an open-loop client sends Poisson `/evaluate` and `/sweep`
//!   requests, each timed from its due time, so a request that waits
//!   for the previous one shows up as latency and as
//!   `generator.late_p99_ms`;
//! * a closed-loop session client runs sessions back to back
//!   (`POST /session`, `arrive` × k, `finish`), each event sent when the
//!   previous reply lands.
//!
//! Throughput is the session client's: its completed requests over the
//! time from the start of the traffic to its last reply. A closed loop
//! sends as fast as the server answers, so this moves with the server;
//! the open-loop client's completions are fixed by its schedule.
//!
//! Set-up is spawn → first `200` from `/readyz`, the fastest of
//! [`SPAWNS`] spawns: whether the first probe beats the accept loop's
//! first idle sleep decides between a fast and a slow mode, and the
//! fast mode is a few milliseconds of process start-up that the host's
//! load moves.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qbss_bench::engine::run_sweep;
use qbss_bench::SweepRequest;
use qbss_core::model::{QJob, QbssInstance};
use qbss_core::pipeline::{run_evaluated, Algorithm};
use qbss_core::stream::arrival_ordered;
use qbss_instances::gen::{generate, GenConfig};
use qbss_instances::io;
use qbss_telemetry::{json_parse, JsonValue};

use crate::stats::{self, Fnv};
use crate::trace::Tracer;
use crate::{Args, Outcome, Prediction, ALPHA};

/// Open-loop `/evaluate` + `/sweep` arrivals per second. Measured on a
/// 2-vCPU host against the default server, a client with two
/// connections kept pace with 20 requests/s (p50 ≈ 14 ms: half an
/// accept tick plus the handler) and became the queue at 60/s. At a
/// 13.5 ms mean service time, 20/s finds both connections busy about
/// 3.2% of the time (Erlang C); one connection is busy as often at
/// 0.032 / 13.5 ms ≈ 2.4/s, and the open-loop client has one.
const OPEN_RPS: f64 = 2.4;
/// One open-loop arrival in four is a `/sweep`, the rest `/evaluate`:
/// the split of `qbss loadgen --mix mixed`.
const SWEEP_EVERY: u64 = 4;
/// Jobs per `/evaluate` and per `/sweep` instance, as `qbss loadgen`
/// sends by default.
const PAYLOAD_N: usize = 8;
/// Sessions per second of run time, run back to back by the session
/// client. A statistical convenience, not a measured mix: each event
/// waits about one 25 ms accept tick today, so the session client stays
/// busy for about the run and puts far more than ten latency samples
/// beyond p99.
const SESSIONS_PER_S: f64 = 4.0;
/// Arrivals per session (a session is `2 + SESSION_JOBS` requests).
const SESSION_JOBS: usize = 8;
/// Server spawns per run for the set-up time.
const SPAWNS: usize = 20;
const IO_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    Evaluate,
    Sweep,
    Session,
}

/// How a reply is checked.
enum Expect {
    /// `energy` equals an in-process `run_evaluated` bit for bit.
    Energy(u64),
    /// The body equals an in-process `run_sweep(..).aggregate_json()`.
    Body(String),
    /// A `2xx` carrying the new session's id.
    SessionId,
    /// Any `2xx`.
    Success,
}

/// One HTTP request of the traffic.
struct Request {
    endpoint: Endpoint,
    /// Planned send time, in µs after the traffic starts.
    due_us: u64,
    /// Path and query; `{id}` stands for the request's session id.
    target: String,
    body: String,
    expect: Expect,
    /// Sent by the session client (else by the open-loop client).
    in_session: bool,
}

/// One answered (or failed) request.
struct Sample {
    request: usize,
    endpoint: Endpoint,
    due_ns: u64,
    sent_ns: u64,
    done_ns: u64,
    ok: bool,
    bytes_in: u64,
    bytes_out: u64,
}

/// Deterministic uniform in `[0, 1)`.
fn uniform(seed: u64, k: u64) -> f64 {
    (stats::mix(seed, k) >> 11) as f64 / (1u64 << 53) as f64
}

fn job_json(j: &QJob) -> String {
    format!(
        "{{\"id\": {}, \"release\": {}, \"deadline\": {}, \"query_load\": {}, \
         \"upper_bound\": {}, \"exact\": {}}}",
        j.id,
        j.release,
        j.deadline,
        j.query_load,
        j.upper_bound,
        j.reveal_exact()
    )
}

/// The traffic for `duration_s` seconds, with the expected answer of
/// every request computed in-process. Counts are fixed by the duration;
/// open-loop due times are uniform order statistics, i.e. a Poisson
/// process conditioned on its count.
fn plan(seed: u64, duration_s: f64) -> Result<(Vec<Request>, usize), String> {
    let n_open = (OPEN_RPS * duration_s).round().max(1.0) as u64;
    let n_sessions = (SESSIONS_PER_S * duration_s).round().max(1.0) as u64;
    let at = |salt: u64, k: u64| (uniform(seed ^ salt, k) * duration_s * 1e6) as u64;
    let mut requests = Vec::new();
    for k in 0..n_open {
        let payload = stats::mix(seed ^ 0x5eed, k);
        requests.push(if payload.is_multiple_of(SWEEP_EVERY) {
            let body = format!(
                "{{\"count\": 3, \"n\": {PAYLOAD_N}, \"seed\": {}, \"alg\": \"avrq,bkpq\", \
                 \"alpha\": [2, 3]}}",
                payload % 100_000
            );
            let req = SweepRequest::from_json(&body).map_err(|e| e.to_string())?;
            let expected = run_sweep(&req.spec, 1)
                .map_err(|e| e.to_string())?
                .aggregate_json();
            Request {
                endpoint: Endpoint::Sweep,
                due_us: at(0xa11, k),
                target: "/sweep".into(),
                body,
                expect: Expect::Body(expected),
                in_session: false,
            }
        } else {
            let inst = generate(&GenConfig::online_default(PAYLOAD_N, payload));
            let body = io::to_json(&inst).map_err(|e| e.to_string())?;
            let ev = run_evaluated(&inst, ALPHA, Algorithm::Avrq).map_err(|e| e.to_string())?;
            Request {
                endpoint: Endpoint::Evaluate,
                due_us: at(0xa11, k),
                target: format!("/evaluate?alg=avrq&alpha={ALPHA}"),
                body,
                expect: Expect::Energy(ev.energy.to_bits()),
                in_session: false,
            }
        });
    }
    for s in 0..n_sessions {
        let payload = stats::mix(seed ^ 0x5e55, s);
        let algorithm = if s % 2 == 0 {
            Algorithm::Avrq
        } else {
            Algorithm::Oaq
        };
        let jobs = arrival_ordered(&generate(&GenConfig::online_default(SESSION_JOBS, payload)));
        let ev = run_evaluated(&QbssInstance::new(jobs.clone()), ALPHA, algorithm)
            .map_err(|e| e.to_string())?;
        let mut events = vec![(
            format!("/session?alg={algorithm}&alpha={ALPHA}"),
            String::new(),
            Expect::SessionId,
        )];
        events.extend(jobs.iter().map(|j| {
            (
                "/session/{id}/arrive".to_string(),
                job_json(j),
                Expect::Success,
            )
        }));
        events.push((
            "/session/{id}/finish".into(),
            String::new(),
            Expect::Energy(ev.energy.to_bits()),
        ));
        for (target, body, expect) in events {
            requests.push(Request {
                endpoint: Endpoint::Session,
                due_us: 0,
                target,
                body,
                expect,
                in_session: true,
            });
        }
    }
    requests.sort_by_key(|r| (r.in_session, r.due_us));
    Ok((requests, n_sessions as usize))
}

fn fingerprint(requests: &[Request]) -> u64 {
    let mut h = Fnv::default();
    for r in requests {
        h.eat(&r.due_us.to_le_bytes());
        h.eat(r.target.as_bytes());
        h.eat(r.body.as_bytes());
    }
    h.finish()
}

/// One HTTP/1.1 exchange on a fresh connection (the server closes
/// every connection after its response). Returns status and body.
fn http(addr: SocketAddr, method: &str, target: &str, body: &str) -> Result<(u16, String), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = s.set_nodelay(true);
    s.set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let length = if method == "POST" {
        format!("Content-Length: {}\r\n", body.len())
    } else {
        String::new()
    };
    let request = format!(
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\n{length}Connection: close\r\n\r\n{body}"
    );
    s.write_all(request.as_bytes())
        .map_err(|e| format!("send {target}: {e}"))?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)
        .map_err(|e| format!("receive {target}: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| format!("{target}: response is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{target}: no header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("{target}: malformed status line"))?;
    Ok((status, body.to_string()))
}

fn json_field(body: &str, key: &str) -> Option<JsonValue> {
    json_parse(body).ok()?.get(key).cloned()
}

/// A `qbss serve` child process; stopped and reaped on drop.
struct Server {
    child: Child,
    addr: Option<SocketAddr>,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns the server and waits for its first `200` from `/readyz`.
    /// Returns the server and the seconds that took.
    fn spawn(qbss: &Path) -> Result<(Server, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(qbss)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", qbss.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Drains stderr to its end so the server never blocks on a full
        // pipe; the first `listening on ADDR` line carries the address.
        let drain = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                let addr = line
                    .split("listening on ")
                    .nth(1)
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|a| a.parse::<SocketAddr>().ok());
                if let (Some(addr), Some(tx)) = (addr, tx.take()) {
                    let _ = tx.send(addr);
                }
            }
        });
        let mut server = Server {
            child,
            addr: None,
            drain: Some(drain),
        };
        let addr = rx
            .recv_timeout(Duration::from_secs(10))
            .map_err(|_| "server never reported its address".to_string())?;
        server.addr = Some(addr);
        loop {
            if let Ok((200, _)) = http(addr, "GET", "/readyz", "") {
                break;
            }
            if t0.elapsed() > Duration::from_secs(10) {
                return Err("server never became ready".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok((server, t0.elapsed().as_secs_f64()))
    }

    /// Spawns `count` throwaway servers one after another; returns each
    /// one's spawn → first `/readyz` 200 seconds.
    fn spawn_times(qbss: &Path, count: usize) -> Result<Vec<f64>, String> {
        (0..count)
            .map(|_| {
                warm_cpu();
                Server::spawn(qbss).map(|(_, secs)| secs)
            })
            .collect()
    }

    fn addr(&self) -> SocketAddr {
        self.addr.expect("address known once spawned")
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Busy-waits a few milliseconds so a spawn starts on a running CPU.
/// On a 2-vCPU VM a spawn that started on an idle CPU (say, after a
/// slow-mode spawn idled it for most of an accept tick) took up to
/// 1.5 ms longer in the fast mode and fell into the slow mode more
/// often, so the fastest of a run depended on the order of the modes.
fn warm_cpu() {
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(3) {
        std::hint::spin_loop();
    }
}

/// `/metrics` as `name → value` (comment lines skipped).
fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let (status, body) = http(addr, "GET", "/metrics", "")?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    Ok(body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// Sends one request and checks its reply. Returns the sample and, for
/// a session opener, the new session's id.
fn send(
    addr: SocketAddr,
    index: usize,
    r: &Request,
    id: Option<u64>,
    due_ns: u64,
    t0: Instant,
) -> (Sample, Option<u64>) {
    let now_ns = || u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let target = match id {
        Some(id) => r.target.replace("{id}", &id.to_string()),
        None => r.target.clone(),
    };
    let sent_ns = now_ns();
    let reply = http(addr, "POST", &target, &r.body);
    let done_ns = now_ns();
    let (ok, bytes_out, new_id) = match reply {
        Ok((status, text)) if (200..300).contains(&status) => {
            let (ok, new_id) = match &r.expect {
                Expect::Energy(bits) => (
                    json_field(&text, "energy")
                        .and_then(|v| v.as_f64())
                        .map(f64::to_bits)
                        == Some(*bits),
                    None,
                ),
                Expect::Body(expected) => (text == *expected, None),
                Expect::SessionId => {
                    let id = json_field(&text, "session").and_then(|v| v.as_u64());
                    (id.is_some(), id)
                }
                Expect::Success => (true, None),
            };
            (ok, text.len() as u64, new_id)
        }
        Ok((_, text)) => (false, text.len() as u64, None),
        Err(_) => (false, 0, None),
    };
    let sample = Sample {
        request: index,
        endpoint: r.endpoint,
        due_ns,
        sent_ns,
        done_ns,
        ok,
        bytes_in: r.body.len() as u64,
        bytes_out,
    };
    (sample, new_id)
}

/// Plays the traffic against `addr` with two clients, one connection
/// each: the open-loop client sends every request at its due time, or
/// as soon as its previous request is answered; the session client runs
/// its sessions back to back, each event due when the previous reply
/// lands. Returns the samples in request order and the clock origin.
fn play(addr: SocketAddr, requests: &[Request]) -> (Vec<Sample>, Instant) {
    let t0 = Instant::now();
    let now_ns = || u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let open = scope.spawn(|| {
            let mut out = Vec::new();
            for (i, r) in requests.iter().enumerate().filter(|(_, r)| !r.in_session) {
                if let Some(wait) = Duration::from_micros(r.due_us).checked_sub(t0.elapsed()) {
                    std::thread::sleep(wait);
                }
                out.push(send(addr, i, r, None, r.due_us * 1000, t0).0);
            }
            out
        });
        let sessions = scope.spawn(|| {
            let mut out = Vec::new();
            let mut id = None;
            for (i, r) in requests.iter().enumerate().filter(|(_, r)| r.in_session) {
                let opener = matches!(r.expect, Expect::SessionId);
                if !opener && id.is_none() {
                    // The session never opened: its events fail unsent.
                    let now = now_ns();
                    out.push(Sample {
                        request: i,
                        endpoint: r.endpoint,
                        due_ns: now,
                        sent_ns: now,
                        done_ns: now,
                        ok: false,
                        bytes_in: 0,
                        bytes_out: 0,
                    });
                    continue;
                }
                let (sample, new_id) = send(addr, i, r, id, now_ns(), t0);
                if opener {
                    id = new_id.filter(|_| sample.ok);
                }
                out.push(sample);
            }
            out
        });
        [open, sessions]
            .into_iter()
            .flat_map(|client| client.join().expect("client thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.request);
    (samples, t0)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn latency_ms(s: &Sample) -> f64 {
    ms(s.done_ns.saturating_sub(s.due_ns))
}

/// Client-side nearest-rank percentile of one endpoint's latencies.
fn endpoint_pct(samples: &[Sample], endpoint: Endpoint, q: f64) -> f64 {
    let lat: Vec<f64> = samples
        .iter()
        .filter(|s| s.endpoint == endpoint)
        .map(latency_ms)
        .collect();
    if lat.is_empty() {
        return 0.0;
    }
    stats::nearest_rank(&stats::sorted(&lat), q)
}

/// Replays the open-loop request bodies in-process through the decode,
/// evaluate and encode functions the handlers call, each under a span.
fn replay(t: &mut Tracer, requests: &[Request]) -> Result<(), String> {
    for (i, r) in requests.iter().enumerate() {
        let root = t.enter_under(None, "replay.request", Some(i as u64));
        match r.endpoint {
            Endpoint::Evaluate => {
                let inst = t
                    .time("io.decode", || io::from_json(&r.body))
                    .map_err(|e| e.to_string())?;
                let ev = t
                    .time("pipeline.run", || {
                        run_evaluated(&inst, ALPHA, Algorithm::Avrq)
                    })
                    .map_err(|e| e.to_string())?;
                std::hint::black_box(t.time("io.encode", || io::outcome_to_json(&ev.outcome)));
            }
            Endpoint::Sweep => {
                t.time("request.decode", || SweepRequest::from_json(&r.body))
                    .map_err(|e| e.to_string())?;
            }
            Endpoint::Session => {}
        }
        t.exit(root);
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let qbss = args
        .qbss
        .as_deref()
        .ok_or("serve-traffic needs --qbss PATH")?;
    let (requests, sessions) = plan(args.seed, args.seconds)?;
    let mut out = Outcome {
        fingerprint: fingerprint(&requests),
        ..Outcome::default()
    };

    // Half the set-up samples come before the play and half after it,
    // so a slow spell of the host at one end of the run does not decide
    // the fastest. The traffic's own server is one of them.
    let mut spawn_s = Server::spawn_times(qbss, SPAWNS / 2)?;
    warm_cpu();
    let (server, secs) = Server::spawn(qbss)?;
    spawn_s.push(secs);
    let addr = server.addr();

    // `/metrics` is a probe: scraping it leaves the registry untouched,
    // so the two scrapes bracket exactly the play's work.
    let before = scrape(addr)?;
    let (samples, epoch) = play(addr, &requests);
    let after = scrape(addr)?;
    let peak_rss = stats::peak_rss_mb(&server.pid())?;
    drop(server);
    spawn_s.extend(Server::spawn_times(qbss, SPAWNS - spawn_s.len())?);
    let setup_s = spawn_s.iter().copied().fold(f64::INFINITY, f64::min);

    out.counters = qbss_core::work_counter_names()
        .map(|n| {
            (
                n.to_string(),
                delta(&before, &after, &n.replace('.', "_")) as u64,
            )
        })
        .collect();
    out.counters
        .insert("serve.requests".into(), samples.len() as u64);

    out.attempted = samples.len() as u64;
    out.failed = samples.iter().filter(|s| !s.ok).count() as u64;
    let session_done: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.endpoint == Endpoint::Session && s.ok)
        .collect();
    let session_s = session_done.iter().map(|s| s.done_ns).max().unwrap_or(0) as f64 / 1e9;
    let lat = stats::sorted(&samples.iter().map(latency_ms).collect::<Vec<_>>());
    // Generator lateness: how far behind its schedule the open-loop
    // client sent (session events are due when they are sent).
    let late: Vec<f64> = samples
        .iter()
        .filter(|s| s.endpoint != Endpoint::Session)
        .map(|s| ms(s.sent_ns.saturating_sub(s.due_ns)))
        .collect();
    let late_p99 = stats::nearest_rank(&stats::sorted(&late), 0.99);
    let m = &mut out.metrics;
    m.insert("setup_s", setup_s);
    m.insert("throughput_per_s", session_done.len() as f64 / session_s);
    m.insert("latency_p50_ms", stats::nearest_rank(&lat, 0.50));
    m.insert("latency_p99_ms", stats::nearest_rank(&lat, 0.99));
    m.insert("peak_rss_mb", peak_rss);
    m.insert("generator.late_p99_ms", late_p99);
    out.notes.push(format!(
        "requests {} ({sessions} sessions, {} session requests in {session_s:.3} s), \
         latency samples {} ({} beyond p99), generator.late_p99_ms {late_p99:.3}",
        requests.len(),
        session_done.len(),
        lat.len(),
        stats::beyond(lat.len(), 0.99)
    ));
    let spawn_ms: Vec<String> = spawn_s.iter().map(|s| format!("{:.2}", s * 1e3)).collect();
    out.notes
        .push(format!("set-up spawns ms {}", spawn_ms.join(" ")));

    if args.trace {
        let n = samples.len().max(1) as f64;
        let client_ns: u64 = samples
            .iter()
            .map(|s| s.done_ns.saturating_sub(s.due_ns))
            .sum();
        let mut handler_ns = 0u64;
        for (endpoint, key, handler, p50, p90) in [
            (
                Endpoint::Evaluate,
                "evaluate",
                "serve.handler_ms.evaluate",
                "serve.evaluate.p50_ms",
                "serve.evaluate.p90_ms",
            ),
            (
                Endpoint::Sweep,
                "sweep",
                "serve.handler_ms.sweep",
                "serve.sweep.p50_ms",
                "serve.sweep.p90_ms",
            ),
            (
                Endpoint::Session,
                "session",
                "serve.handler_ms.session",
                "serve.session.p50_ms",
                "serve.session.p90_ms",
            ),
        ] {
            // Handler time is the server's own mean (`_sum / _count`);
            // the percentiles are the client's, from raw samples.
            let sum_us = delta(&before, &after, &format!("serve_request_dur_us_{key}_sum"));
            let count = delta(
                &before,
                &after,
                &format!("serve_request_dur_us_{key}_count"),
            );
            handler_ns += (sum_us * 1e3) as u64;
            let m = &mut out.metrics;
            m.insert(
                handler,
                if count > 0.0 {
                    sum_us / count / 1e3
                } else {
                    0.0
                },
            );
            m.insert(p50, endpoint_pct(&samples, endpoint, 0.50));
            m.insert(p90, endpoint_pct(&samples, endpoint, 0.90));
        }
        // Spans: one per client request (with its request id), built
        // from the timestamps every play takes, so tracing adds no work
        // to the play; its overhead is the time spent recording them
        // over the play's time. Then the in-process replay of the same
        // bodies.
        let recording = Instant::now();
        let mut t = Tracer::new(epoch);
        for s in &samples {
            t.record(
                "serve.request",
                s.sent_ns,
                s.done_ns,
                Some(s.request as u64),
            );
        }
        let play_ns = samples.iter().map(|s| s.done_ns).max().unwrap_or(0);
        let overhead = crate::elapsed_ns(recording) as f64 / play_ns.max(1) as f64;
        replay(&mut t, &requests)?;
        let replayed = t.self_ns_by_name();
        let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut replay_ns = 0;
        for name in ["io.decode", "io.encode", "request.decode", "pipeline.run"] {
            let ns = replayed.get(name).copied().unwrap_or(0);
            replay_ns += ns;
            self_ns.insert(name, ns);
        }
        // Client latency splits into the wait outside the handler
        // (accept sleep, queue, socket) and the handler, whose replayed
        // layers are broken out above.
        self_ns.insert("serve.wait", client_ns.saturating_sub(handler_ns));
        self_ns.insert("serve.handler", handler_ns.saturating_sub(replay_ns));
        crate::ledger(&mut out, &self_ns, 1, overhead, Prediction::Serve);
        let m = &mut out.metrics;
        // The ledger reports the total wait; the metric is per request.
        m.insert(
            "serve.wait_ms",
            ms(client_ns.saturating_sub(handler_ns)) / n,
        );
        m.insert("serve.shed", delta(&before, &after, "serve_shed"));
        m.insert(
            "io.bytes_in",
            samples.iter().map(|s| s.bytes_in).sum::<u64>() as f64,
        );
        m.insert(
            "io.bytes_out",
            samples.iter().map(|s| s.bytes_out).sum::<u64>() as f64,
        );
        if let Some(dir) = &args.trace_dir {
            crate::write_trace(dir, &args.workload, &t)?;
        }
    }
    Ok(out)
}
