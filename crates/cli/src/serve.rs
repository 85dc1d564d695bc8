//! `qbss serve` — a zero-dependency HTTP/1.1 observability and
//! evaluation plane over `std::net`, hardened against overload.
//!
//! The first long-lived process in the workspace: a hand-rolled server
//! with a bounded accept queue feeding a fixed scoped-thread worker
//! pool (the same `std::thread::scope` discipline the `par` fan-out
//! uses — no detached threads, the accept thread joins every worker
//! before returning). Endpoints:
//!
//! | endpoint | contract |
//! |----------|----------|
//! | `GET /metrics` | process registry in Prometheus text exposition format; read-only, byte-stable across scrapes of an idle registry |
//! | `GET /healthz` | liveness: build fingerprint (version + git describe), uptime, in-flight, served, queue depth, shed totals, admission budget |
//! | `GET /readyz` | readiness: `200` while accepting, `503` once draining |
//! | `GET /tracez` | most recent spans/events from the ring sink as HTML (`?format=jsonl` for the raw records; `?target=PREFIX` filters by dot-prefix, `?min_us=N` keeps spans at least that long) |
//! | `GET /profilez` | ring spans folded into a call-path profile, rendered as a flamegraph (`?format=folded` for raw `path self_us count` text, `?collapse=a,b` removes frames) |
//! | `POST /evaluate` | instance JSON in, evaluated outcome out (`?alg=`, `?alpha=`, `?m=`; `?explain=1` adds per-job decision attribution at 3× the admission cost) |
//! | `POST /sweep` | sweep-spec JSON in, deterministic aggregate out |
//! | `POST /session` | open a streaming session (`?alg=`, `?alpha=`); returns the session id |
//! | `POST /session/{id}/arrive` | one job object in, the arrival's speed delta out |
//! | `POST /session/{id}/advance` | move the session clock (`?t=`) with no arrival |
//! | `POST /session/{id}/finish` | run out the horizon, return the evaluated outcome, close the session |
//!
//! **Streaming sessions.** A session wraps the incremental
//! [`StreamSession`] engine (DESIGN.md §14): each `arrive`/`advance`
//! event is cost-accounted against the admission budget like any other
//! work request (cost 1 per event), and a session left idle past the
//! request deadline is reaped by the accept loop, once per tick — the
//! same machinery that reaps stale queue entries. A drain
//! (SIGTERM/ctrl-c) answers in-flight events, then discards open
//! sessions with the process.
//!
//! **Admission control.** Work requests carry an estimated cost — `1`
//! for `/evaluate` (one cell), `instances × algorithms × alphas` for
//! `/sweep` (the engine's cell count, computed from the parsed spec
//! before any work runs). A token-style budget ([`Admission`]) bounds
//! the total cost in flight: over budget, the request is *shed* with a
//! typed `429` carrying `Retry-After`, counted in `serve.shed`, and
//! surfaced by `/healthz` and `/metrics`. A lone oversized request on
//! an idle server is always admitted so a big sweep can never starve
//! forever — the budget bounds *concurrent* cost, exactly the paper's
//! mindset of committing to a budget before the adversary reveals the
//! load.
//!
//! **Deadlines.** Every socket carries read/write timeouts
//! (`--io-timeout-ms`); every request a wall-clock deadline
//! (`--request-timeout-ms`). A client trickling headers or body
//! (slowloris) is evicted with a typed `408` the moment either the
//! inactivity timeout or the deadline fires — a slow client can park a
//! worker for at most the request timeout. Connections that age out in
//! the accept queue are reaped with a typed `503` (by the accept loop
//! once per tick, and again at pop), and a handler that overruns the
//! deadline has its response converted to a typed `503` so callers
//! never consume stale results.
//!
//! **Probe endpoints never touch the metrics registry** — only the
//! work endpoints (`/evaluate`, `/sweep`, `/session*`) bump
//! `serve.requests`, the `serve.request.dur_us` histogram (plus its
//! per-endpoint `serve.request.dur_us.{evaluate,sweep,session}`
//! companions), and the shed/queue series, so two consecutive
//! `/metrics` scrapes of an otherwise idle server are byte-identical.
//! Probe traffic is tracked in plain process stats surfaced by
//! `/healthz`.
//!
//! Malformed requests map the typed error taxonomy onto status codes —
//! syntax errors (bad HTTP, bad JSON) are `400`, a POST without a
//! `Content-Length` is `411`, a body over the cap is `413` (rejected
//! before the body is read), well-formed input the model or algorithms
//! reject is `422`, handler panics are caught and answered `500` — the
//! process never dies on bad input.
//!
//! **The accept loop** waits in `poll(2)` on the listener (a plain
//! sleep off unix) and wakes the moment a connection arrives. The tick
//! (`--accept-tick-ms`) is only the wait's timeout: it sets the reap
//! cadence and bounds how long a drain request can go unnoticed. Every
//! response is `Connection: close`, so every request is a fresh
//! connection, which a fixed sleep would hold for up to a tick.
//!
//! Shutdown: SIGTERM or ctrl-c flips one atomic flag (and interrupts
//! the accept loop's `poll` when the signal lands on its thread); the
//! accept loop **closes the listener first** (no connection can slip in
//! during the drain window), then marks the server draining, queued and
//! in-flight requests drain, sinks flush, and the process exits 0 (the
//! exit-code contract treats a signalled drain as success).

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use qbss_bench::engine::run_sweep;
use qbss_bench::request::{RequestError, SweepRequest, EVALUATE_COST};
use qbss_bench::{BuildInfo, StreamSession};
use qbss_core::model::QJob;
use qbss_core::pipeline::{run_for_request, Algorithm};
use qbss_instances::io::{self, IoError};
use qbss_telemetry::profile::Profile;
use qbss_telemetry::{
    expo, json_escape, json_f64, target_matches, trace, RingSink, DURATION_US_BOUNDS,
};

/// Largest accepted request body (instances and sweep specs are small;
/// anything bigger is a client error, answered `413` before the body
/// is read).
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
/// Largest accepted header block.
const MAX_HEADER_BYTES: usize = 64 * 1024;

/// Set by the signal handler; checked by the accept loop on every wake.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);
/// Process-unique request ids (`r-1`, `r-2`, …).
static REQUEST_SEQ: AtomicU64 = AtomicU64::new(0);

/// Requests a drain exactly like SIGTERM would (used by the in-process
/// server `qbss loadgen --spawn` drives).
pub(crate) fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Clears a previous drain request so an in-process server can start
/// fresh (the flag is process-global).
pub(crate) fn reset_shutdown() {
    SHUTDOWN.store(false, Ordering::SeqCst);
}

/// Serve-mode configuration, parsed from flags by `commands::serve`.
pub struct ServeConfig {
    /// Worker threads handling requests.
    pub workers: usize,
    /// Requests at least this slow raise a `warn!` on `serve.slow`.
    pub slow_ms: u64,
    /// The ring sink backing `/tracez` (also the process telemetry
    /// sink, installed by the caller).
    pub ring: RingSink,
    /// Admission budget in cost units (cells) concurrently in flight;
    /// `0` disables admission control.
    pub budget: u64,
    /// Per-request wall-clock deadline: header/body reads abort, queue
    /// entries are reaped, and handler overruns answer `503` past it.
    pub request_timeout_ms: u64,
    /// Socket-level read/write inactivity timeout (slowloris eviction).
    pub io_timeout_ms: u64,
    /// Longest the accept loop waits for a connection before it looks
    /// at the shutdown flag again; also the queue- and session-reaping
    /// cadence. A connection wakes the loop at once.
    pub accept_tick_ms: u64,
}

impl ServeConfig {
    /// The defaults `qbss serve` runs with when no flags are given.
    pub fn new(ring: RingSink) -> Self {
        ServeConfig {
            workers: 4,
            slow_ms: 1_000,
            ring,
            budget: DEFAULT_BUDGET,
            request_timeout_ms: DEFAULT_REQUEST_TIMEOUT_MS,
            io_timeout_ms: DEFAULT_IO_TIMEOUT_MS,
            accept_tick_ms: DEFAULT_ACCEPT_TICK_MS,
        }
    }
}

/// Default admission budget: generous enough for the full default
/// sweep (`{}` → 100 instances × 9 configurations × 1 α = 900 cells)
/// with headroom for concurrent evaluates.
pub const DEFAULT_BUDGET: u64 = 10_000;
/// Default per-request wall-clock deadline (deliberately generous: a
/// full-grid sweep is tens of milliseconds).
pub const DEFAULT_REQUEST_TIMEOUT_MS: u64 = 30_000;
/// Default socket inactivity timeout.
pub const DEFAULT_IO_TIMEOUT_MS: u64 = 10_000;
/// Default accept-loop tick.
pub const DEFAULT_ACCEPT_TICK_MS: u64 = 25;

// ---------------------------------------------------------------------
// Signals
// ---------------------------------------------------------------------

#[cfg(unix)]
fn install_signal_handlers() {
    // std-only signal hookup: libc's `signal(2)` via a raw extern. The
    // handler only flips one atomic (async-signal-safe); all real work
    // happens on the accept thread, whose `poll` the signal interrupts
    // when it lands there (else the thread sees the flag within a tick).
    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {
    // No signal plumbing off unix; the server stops when killed.
}

// ---------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------

/// One request's time budget: an absolute wall-clock deadline plus the
/// socket inactivity timeout. Each blocking read runs under
/// `min(io_timeout, time left)`, so a slow client is evicted by
/// whichever fires first and can never hold a worker past the deadline.
#[derive(Clone, Copy)]
struct Deadline {
    at: Instant,
    io_timeout: Duration,
}

impl Deadline {
    fn new(request_timeout: Duration, io_timeout: Duration) -> Self {
        Deadline { at: Instant::now() + request_timeout, io_timeout }
    }

    fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Timeout for the next blocking read: `None` once the deadline has
    /// passed (abort instead of reading).
    fn read_slice(&self) -> Option<Duration> {
        let left = self.at.checked_duration_since(Instant::now())?;
        if left.is_zero() {
            return None;
        }
        Some(left.min(self.io_timeout))
    }
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

/// A token-style cost budget bounding the work concurrently in flight.
///
/// `try_admit(cost)` succeeds when the new total fits the budget — or
/// unconditionally when nothing is in flight, so one request costlier
/// than the whole budget still makes progress on an idle server
/// (admission bounds *concurrency*, it is not a hard per-request cap).
/// The returned [`Permit`] releases the cost on drop, panic-safe via
/// RAII: a panicking handler cannot leak budget.
struct Admission {
    /// Capacity in cost units; `0` = unlimited.
    budget: u64,
    in_flight_cost: AtomicU64,
    shed: AtomicU64,
    reaped: AtomicU64,
}

impl Admission {
    fn new(budget: u64) -> Self {
        Admission {
            budget,
            in_flight_cost: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            reaped: AtomicU64::new(0),
        }
    }

    fn try_admit(&self, cost: u64) -> Option<Permit<'_>> {
        if self.budget == 0 {
            return Some(Permit { admission: self, cost: 0 });
        }
        let mut cur = self.in_flight_cost.load(Ordering::Relaxed);
        loop {
            if cur != 0 && cur.saturating_add(cost) > self.budget {
                return None;
            }
            match self.in_flight_cost.compare_exchange_weak(
                cur,
                cur.saturating_add(cost),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(Permit { admission: self, cost }),
                Err(actual) => cur = actual,
            }
        }
    }

    fn in_flight_cost(&self) -> u64 {
        self.in_flight_cost.load(Ordering::Relaxed)
    }

    /// The `Retry-After` hint for a shed response: one second is a
    /// sensible floor given cells run in microseconds — by then the
    /// budget has almost certainly turned over.
    fn retry_after_s(&self) -> u64 {
        1
    }
}

/// RAII admission token; releases its cost on drop.
struct Permit<'a> {
    admission: &'a Admission,
    cost: u64,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.admission.in_flight_cost.fetch_sub(self.cost, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Streaming sessions
// ---------------------------------------------------------------------

/// Most streaming sessions concurrently open; beyond this, opens are
/// shed with a typed `429` like any other overload.
const MAX_OPEN_SESSIONS: usize = 1024;

/// One open streaming session, stamped with its last event time so the
/// accept loop can reap sessions whose client went away.
struct SessionEntry {
    session: StreamSession,
    touched: Instant,
}

/// The live streaming sessions: id → engine state. Every operation runs
/// under one mutex — per-event work is incremental (that is the point
/// of the streaming engine), so the critical sections are short.
struct Sessions {
    inner: Mutex<SessionMap>,
    reaped: AtomicU64,
}

struct SessionMap {
    next_id: u64,
    open: HashMap<u64, SessionEntry>,
}

impl Sessions {
    fn new() -> Self {
        Sessions {
            inner: Mutex::new(SessionMap { next_id: 0, open: HashMap::new() }),
            reaped: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SessionMap> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a session; `None` when the open-session cap is hit.
    fn open(&self, session: StreamSession) -> Option<u64> {
        let mut map = self.lock();
        if map.open.len() >= MAX_OPEN_SESSIONS {
            return None;
        }
        map.next_id += 1;
        let id = map.next_id;
        map.open.insert(id, SessionEntry { session, touched: Instant::now() });
        Some(id)
    }

    /// Runs `f` on an open session and re-stamps its last touch.
    fn with<T>(&self, id: u64, f: impl FnOnce(&mut StreamSession) -> T) -> Option<T> {
        let mut map = self.lock();
        let entry = map.open.get_mut(&id)?;
        entry.touched = Instant::now();
        Some(f(&mut entry.session))
    }

    /// Removes a session (for `finish`, which consumes the engine).
    fn take(&self, id: u64) -> Option<StreamSession> {
        self.lock().open.remove(&id).map(|e| e.session)
    }

    /// Drops every session idle longer than `max_idle` and returns how
    /// many were reaped (the accept loop calls this once per tick with
    /// the request deadline, the same age bound queued connections get).
    fn reap(&self, max_idle: Duration) -> usize {
        let mut map = self.lock();
        let before = map.open.len();
        map.open.retain(|_, e| e.touched.elapsed() <= max_idle);
        let reaped = before - map.open.len();
        if reaped > 0 {
            self.reaped.fetch_add(reaped as u64, Ordering::Relaxed);
        }
        reaped
    }

    fn open_count(&self) -> usize {
        self.lock().open.len()
    }
}

// ---------------------------------------------------------------------
// Server stats (deliberately *not* registry metrics: probe endpoints
// must leave /metrics byte-stable)
// ---------------------------------------------------------------------

struct ServerStats {
    started: Instant,
    in_flight: AtomicU64,
    served: AtomicU64,
    draining: AtomicBool,
}

impl ServerStats {
    fn new() -> Self {
        ServerStats {
            started: Instant::now(),
            in_flight: AtomicU64::new(0),
            served: AtomicU64::new(0),
            draining: AtomicBool::new(false),
        }
    }
}

// ---------------------------------------------------------------------
// Bounded connection queue
// ---------------------------------------------------------------------

/// A queued connection stamped with its accept time, so stale entries
/// can be reaped instead of served long after the client gave up.
struct QueueItem {
    stream: TcpStream,
    queued_at: Instant,
}

struct Queue {
    inner: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
}

struct QueueState {
    items: VecDeque<QueueItem>,
    closed: bool,
}

impl Queue {
    fn new(capacity: usize) -> Self {
        Queue {
            inner: Mutex::new(QueueState { items: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues a connection, or hands it back when the queue is full
    /// (the accept loop then answers `503` without blocking).
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut state = self.lock();
        if state.items.len() >= self.capacity {
            return Err(stream);
        }
        state.items.push_back(QueueItem { stream, queued_at: Instant::now() });
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next connection; `None` once closed **and**
    /// drained, so workers finish everything accepted before shutdown.
    fn pop(&self) -> Option<QueueItem> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Removes every entry older than `max_age` (front-of-queue first —
    /// the queue is FIFO, so age decreases back-to-front) and returns
    /// the reaped connections for a `503` answer.
    fn reap(&self, max_age: Duration) -> Vec<TcpStream> {
        let mut state = self.lock();
        let mut reaped = Vec::new();
        while let Some(front) = state.items.front() {
            if front.queued_at.elapsed() <= max_age {
                break;
            }
            if let Some(item) = state.items.pop_front() {
                reaped.push(item.stream);
            }
        }
        reaped
    }

    fn depth(&self) -> usize {
        self.lock().items.len()
    }

    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

// ---------------------------------------------------------------------
// HTTP plumbing
// ---------------------------------------------------------------------

struct HttpRequest {
    method: String,
    path: String,
    query: String,
    body: Vec<u8>,
}

#[derive(Debug)]
struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
    /// Extra header lines (`Retry-After: 1`), CRLF-joined by the writer.
    extra_headers: Vec<String>,
}

impl Response {
    fn json(status: u16, body: String) -> Response {
        Response { status, content_type: "application/json", body, extra_headers: Vec::new() }
    }

    fn error(status: u16, kind: &str, message: &str) -> Response {
        Response::json(
            status,
            format!(
                "{{\"error\": {{\"kind\": \"{}\", \"message\": \"{}\"}}}}",
                json_escape(kind),
                json_escape(message)
            ),
        )
    }

    /// The typed load-shed rejection: `429` with a `Retry-After` hint.
    fn shed(retry_after_s: u64, message: &str) -> Response {
        let mut resp = Response::error(429, "overloaded", message);
        resp.extra_headers.push(format!("Retry-After: {retry_after_s}"));
        resp
    }
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn write_response(stream: &mut TcpStream, resp: &Response) {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        resp.status,
        status_reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    for line in &resp.extra_headers {
        head.push_str(line);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // A peer that hung up mid-response is its own problem; the worker
    // moves on either way (the write timeout bounds a stalled peer).
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(resp.body.as_bytes());
    let _ = stream.flush();
}

/// The parsed request head: everything the body-read contract needs.
#[derive(Debug)]
struct Head {
    method: String,
    target: String,
    /// `Content-Length` when present and well-formed.
    content_length: Option<usize>,
}

/// Parses the header block (request line + headers). `Err` carries the
/// ready-to-send `400`.
fn parse_head(head: &str) -> Result<Head, Response> {
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_ascii_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(Response::error(400, "bad_request", "malformed request line"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(Response::error(400, "bad_request", "unsupported HTTP version"));
    }
    let mut content_length: Option<usize> = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = Some(value.trim().parse().map_err(|_| {
                    Response::error(400, "bad_request", "malformed Content-Length")
                })?);
            }
        }
    }
    Ok(Head {
        method: method.to_string(),
        target: target.to_string(),
        content_length,
    })
}

/// The body contract, decided **before any body byte is read**: a POST
/// must declare its length (`411`), a declared length over the cap is
/// `413` (typed, distinct from the `400` syntax class), and bodyless
/// methods read zero bytes.
fn body_contract(method: &str, content_length: Option<usize>) -> Result<usize, Response> {
    match content_length {
        Some(n) if n > MAX_BODY_BYTES => Err(Response::error(
            413,
            "payload_too_large",
            &format!("request body of {n} bytes exceeds the {MAX_BODY_BYTES}-byte cap"),
        )),
        Some(n) => Ok(n),
        None if method == "POST" => Err(Response::error(
            411,
            "length_required",
            "POST requests must carry a Content-Length header",
        )),
        None => Ok(0),
    }
}

/// Whether a socket read error is an inactivity timeout (both spellings
/// appear across platforms for `SO_RCVTIMEO`).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

fn timeout_response(what: &str) -> Response {
    Response::error(408, "timeout", &format!("client exceeded the {what} deadline"))
}

/// Reads and parses one request under `deadline`. `Err` carries the
/// ready-to-send rejection (`400`/`408`/`411`/`413`).
fn read_request(stream: &mut TcpStream, deadline: &Deadline) -> Result<HttpRequest, Response> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return Err(Response::error(400, "bad_request", "header block too large"));
        }
        let Some(slice) = deadline.read_slice() else {
            return Err(timeout_response("header read"));
        };
        let _ = stream.set_read_timeout(Some(slice));
        match stream.read(&mut chunk) {
            Ok(0) => return Err(Response::error(400, "bad_request", "truncated request")),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => return Err(timeout_response("header read")),
            Err(e) => {
                return Err(Response::error(400, "bad_request", &format!("read failed: {e}")))
            }
        }
    };
    let head_text = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let head = parse_head(&head_text)?;
    let content_length = body_contract(&head.method, head.content_length)?;
    let mut body: Vec<u8> = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let Some(slice) = deadline.read_slice() else {
            return Err(timeout_response("body read"));
        };
        let _ = stream.set_read_timeout(Some(slice));
        match stream.read(&mut chunk) {
            Ok(0) => return Err(Response::error(400, "bad_request", "truncated body")),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => return Err(timeout_response("body read")),
            Err(e) => {
                return Err(Response::error(400, "bad_request", &format!("read failed: {e}")))
            }
        }
    }
    body.truncate(content_length);
    let (path, query) = match head.target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (head.target.clone(), String::new()),
    };
    Ok(HttpRequest { method: head.method, path, query, body })
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// First value of `key` in a query string (no percent-decoding: every
/// accepted value is a plain token like `avrq-m:4` or `2.5`).
fn query_get<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

// ---------------------------------------------------------------------
// Endpoints
// ---------------------------------------------------------------------

fn index() -> Response {
    Response {
        status: 200,
        content_type: "text/plain; charset=utf-8",
        body: "qbss serve\n\n\
               GET  /metrics    Prometheus text exposition of the process registry\n\
               GET  /healthz    liveness (build, uptime, in-flight, served, queue, shed, budget)\n\
               GET  /readyz     readiness (503 once draining)\n\
               GET  /tracez     recent spans/events as HTML (?format=jsonl for raw;\n                 \
               ?target=PREFIX and ?min_us=N filter)\n\
               GET  /profilez   ring spans folded into a flamegraph (?format=folded,\n                 \
               ?collapse=a,b)\n\
               POST /evaluate   instance JSON -> evaluated outcome (?alg=&alpha=&m=;\n                 \
               ?explain=1 adds per-job decision attribution)\n\
               POST /sweep      sweep spec JSON -> deterministic aggregate\n\
               POST /session    open a streaming session (?alg=&alpha=) -> id\n\
               POST /session/{id}/arrive   job JSON -> the arrival's speed delta\n\
               POST /session/{id}/advance  move the session clock (?t=)\n\
               POST /session/{id}/finish   evaluated outcome; closes the session\n"
            .to_string(),
        extra_headers: Vec::new(),
    }
}

fn metrics_endpoint() -> Response {
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        body: expo::render_prometheus(qbss_telemetry::metrics()),
        extra_headers: Vec::new(),
    }
}

/// The build fingerprint, captured once per process (the `git
/// describe` subprocess must not run per probe).
fn build_info() -> &'static BuildInfo {
    static BUILD: std::sync::OnceLock<BuildInfo> = std::sync::OnceLock::new();
    BUILD.get_or_init(BuildInfo::capture)
}

fn health_body(ctx: &ServerCtx<'_>) -> String {
    let stats = ctx.stats;
    let build = build_info();
    format!(
        "{{\"status\": \"{}\", \
         \"build\": {{\"version\": \"{}\", \"git\": \"{}\"}}, \
         \"uptime_s\": {}, \"in_flight\": {}, \"served\": {}, \
         \"queue_depth\": {}, \"shed\": {}, \"reaped\": {}, \
         \"sessions\": {{\"open\": {}, \"reaped\": {}}}, \
         \"budget\": {{\"capacity\": {}, \"in_flight_cost\": {}}}}}",
        if stats.draining.load(Ordering::Relaxed) { "draining" } else { "ok" },
        json_escape(&build.version),
        json_escape(&build.git),
        json_f64(stats.started.elapsed().as_secs_f64()),
        stats.in_flight.load(Ordering::Relaxed),
        stats.served.load(Ordering::Relaxed),
        ctx.queue.depth(),
        ctx.admission.shed.load(Ordering::Relaxed),
        ctx.admission.reaped.load(Ordering::Relaxed),
        ctx.sessions.open_count(),
        ctx.sessions.reaped.load(Ordering::Relaxed),
        ctx.admission.budget,
        ctx.admission.in_flight_cost(),
    )
}

fn healthz(ctx: &ServerCtx<'_>) -> Response {
    Response::json(200, health_body(ctx))
}

fn readyz(ctx: &ServerCtx<'_>) -> Response {
    let status = if ctx.stats.draining.load(Ordering::Relaxed) { 503 } else { 200 };
    Response::json(status, health_body(ctx))
}

/// Whether one `/tracez` record passes the `?target=` / `?min_us=`
/// filters. Spans filter on their dot-scoped name (the same
/// longest-dot-prefix grammar as `QBSS_LOG`) and their duration;
/// events filter on their target but carry no duration, so a `min_us`
/// bound drops them; metrics snapshots always pass — they are registry
/// state, not timed work.
fn tracez_keep(rec: &trace::TraceRecord, target: Option<&str>, min_us: Option<u64>) -> bool {
    match rec {
        trace::TraceRecord::Span(s) => {
            target.is_none_or(|p| target_matches(&s.name, p))
                && min_us.is_none_or(|m| s.dur_us >= m)
        }
        trace::TraceRecord::Event(e) => {
            target.is_none_or(|p| target_matches(&e.target, p)) && min_us.is_none()
        }
        trace::TraceRecord::Metrics(_) => true,
    }
}

fn tracez(query: &str, ring: &RingSink) -> Response {
    let target = query_get(query, "target");
    let min_us = match query_get(query, "min_us") {
        None => None,
        Some(raw) => match raw.parse::<u64>() {
            Ok(v) => Some(v),
            Err(_) => {
                return Response::error(
                    400,
                    "bad_request",
                    "min_us must be a non-negative integer",
                );
            }
        },
    };
    let contents = ring.contents();
    if query_get(query, "format") == Some("jsonl") {
        // Filter line by line but emit the original bytes, so piped
        // output stays byte-faithful to what the ring holds.
        let body = if target.is_none() && min_us.is_none() {
            contents
        } else {
            let mut kept = String::new();
            for line in contents.lines() {
                match trace::parse_trace(line) {
                    Ok(records) if records.iter().all(|r| tracez_keep(r, target, min_us)) => {
                        kept.push_str(line);
                        kept.push('\n');
                    }
                    Ok(_) => {}
                    Err(e) => {
                        return Response::error(
                            500,
                            "internal",
                            &format!("ring holds an invalid record: {e}"),
                        );
                    }
                }
            }
            kept
        };
        return Response {
            status: 200,
            content_type: "application/x-ndjson",
            body,
            extra_headers: Vec::new(),
        };
    }
    match trace::parse_trace(&contents) {
        Ok(records) => {
            let kept: Vec<trace::TraceRecord> =
                records.into_iter().filter(|r| tracez_keep(r, target, min_us)).collect();
            Response {
                status: 200,
                content_type: "text/html; charset=utf-8",
                body: trace::render_html(&kept),
                extra_headers: Vec::new(),
            }
        }
        Err(e) => Response::error(500, "internal", &format!("ring holds an invalid record: {e}")),
    }
}

/// `GET /profilez`: folds the span records currently in the ring into
/// a call-path profile rendered as a self-contained flamegraph.
/// `?format=folded` returns the raw `path self_us count` text instead;
/// `?collapse=a,b` removes the named frames (their self time accrues
/// to the surviving parent — `?collapse=par.shard` makes output
/// shard-count independent). Fed from the [`RingSink`] only, never the
/// metrics registry, so scraping it leaves `/metrics` byte-stable.
fn profilez(query: &str, ring: &RingSink) -> Response {
    let records = match trace::parse_trace(&ring.contents()) {
        Ok(r) => r,
        Err(e) => {
            return Response::error(500, "internal", &format!("ring holds an invalid record: {e}"));
        }
    };
    let mut profile = Profile::from_records(&records);
    if let Some(list) = query_get(query, "collapse") {
        let frames: Vec<&str> = list.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
        profile = profile.collapse(&frames);
    }
    match query_get(query, "format") {
        None => Response {
            status: 200,
            content_type: "text/html; charset=utf-8",
            body: profile.render_flamegraph_html("qbss /profilez"),
            extra_headers: Vec::new(),
        },
        Some("folded") => Response {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body: profile.fold(),
            extra_headers: Vec::new(),
        },
        Some(other) => Response::error(
            400,
            "bad_request",
            &format!("unknown format `{other}` (expected folded)"),
        ),
    }
}

fn evaluate(req: &HttpRequest, request_id: &str, ctx: &ServerCtx<'_>) -> Response {
    let alg_name = query_get(&req.query, "alg").unwrap_or("avrq");
    let alg: Algorithm = match alg_name.parse() {
        Ok(a) => a,
        Err(e) => return Response::error(400, "bad_request", &format!("alg: {e}")),
    };
    let alg = match query_get(&req.query, "m") {
        None => alg,
        Some(raw) => match raw.parse::<usize>() {
            Ok(m) if m >= 1 => alg.with_machines(m),
            _ => return Response::error(400, "bad_request", "m must be an integer >= 1"),
        },
    };
    let alpha: f64 = match query_get(&req.query, "alpha") {
        None => 3.0,
        Some(raw) => match raw.parse() {
            Ok(a) => a,
            Err(_) => return Response::error(400, "bad_request", "alpha: not a number"),
        },
    };
    // `?explain=1` adds per-job decision attribution to the response.
    // Attribution needs the single-machine YDS ladder, so the
    // combination with a multi-machine `alg` is rejected up front —
    // before admission, like every other flag error.
    let explain = match query_get(&req.query, "explain") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => {
            return Response::error(
                400,
                "bad_request",
                &format!("explain must be 0 or 1, got `{other}`"),
            );
        }
    };
    if explain && alg.machines() > 1 {
        return Response::error(
            400,
            "bad_request",
            "explain requires a single-machine algorithm (multi-machine baselines are lower \
             bounds, not optima)",
        );
    }
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "bad_request", "body is not UTF-8");
    };
    // The PR-1 error taxonomy drives the status split: text that is not
    // an instance at all is the client's syntax problem (400); a
    // well-formed instance the model or an algorithm rejects is
    // semantically unprocessable (422) — and never a panic.
    let inst = match io::from_json(body) {
        Ok(inst) => inst,
        Err(e @ IoError::Model { .. }) => {
            return Response::error(422, "model", &e.to_string());
        }
        Err(e) => return Response::error(400, "syntax", &e.to_string()),
    };
    // One instance, one cell: O(1) admission cost regardless of body
    // size (the size caps bound the parse itself). Attribution runs two
    // extra YDS optimizations (realized + oracle-split twins), so an
    // explained evaluate costs three cells against the same budget.
    let cost = if explain { 3 * EVALUATE_COST } else { EVALUATE_COST };
    let Some(_permit) = ctx.admission.try_admit(cost) else {
        return shed_response(ctx, cost);
    };
    match run_for_request(request_id, qbss_telemetry::current_span_id(), &inst, alpha, alg) {
        Ok(ev) => {
            let attribution = if explain {
                match qbss_core::attribute(&inst, alpha, alg, &ev) {
                    Ok(att) => att.to_json(),
                    Err(e) => return Response::error(422, "attribution", &e.to_string()),
                }
            } else {
                "null".to_string()
            };
            Response::json(
                200,
                format!(
                    "{{\"request_id\": \"{}\", \"algorithm\": \"{}\", \"alpha\": {}, \
                     \"energy\": {}, \"max_speed\": {}, \"attribution\": {attribution}, \
                     \"outcome\": {}}}",
                    json_escape(request_id),
                    alg,
                    json_f64(alpha),
                    json_f64(ev.energy),
                    json_f64(ev.max_speed),
                    io::outcome_to_json(&ev.outcome)
                ),
            )
        }
        Err(e) => Response::error(422, "algorithm", &e.to_string()),
    }
}

fn sweep(req: &HttpRequest, ctx: &ServerCtx<'_>) -> Response {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "bad_request", "body is not UTF-8");
    };
    let parsed = match SweepRequest::from_json(body) {
        Ok(p) => p,
        Err(RequestError::Syntax(msg)) => return Response::error(400, "syntax", &msg),
        Err(RequestError::Spec(msg)) => return Response::error(422, "spec", &msg),
    };
    // Cost is known from the parsed spec before any cell runs:
    // instances × algorithms × alphas.
    let cost = parsed.cost();
    let Some(_permit) = ctx.admission.try_admit(cost) else {
        return shed_response(ctx, cost);
    };
    match run_sweep(&parsed.spec, parsed.shards) {
        Ok(report) => Response::json(200, report.aggregate_json()),
        Err(e) => Response::error(422, "spec", &e.to_string()),
    }
}

/// The admission cost of one streaming event (`arrive`/`advance`):
/// incremental work on one job, the same order as one `/evaluate` cell.
const SESSION_EVENT_COST: u64 = 1;

/// Parses one arriving job from a request body: a bare job object,
/// decoded by the same [`io::job_from_value`] that reads instance
/// documents. Values are *not* model-validated here — the streaming
/// engine rejects malformed jobs with typed errors (422).
fn job_from_json(body: &[u8]) -> Result<QJob, Response> {
    let Ok(text) = std::str::from_utf8(body) else {
        return Err(Response::error(400, "bad_request", "body is not UTF-8"));
    };
    qbss_telemetry::json_parse(text)
        .map_err(|e| format!("not a JSON job object: {e}"))
        .and_then(|v| io::job_from_value(&v))
        .map_err(|e| Response::error(400, "syntax", &e))
}

/// `POST /session` — opens a streaming session (`?alg=`, `?alpha=`).
fn session_open(req: &HttpRequest, ctx: &ServerCtx<'_>) -> Response {
    let alg_name = query_get(&req.query, "alg").unwrap_or("avrq");
    let alg: Algorithm = match alg_name.parse() {
        Ok(a) => a,
        Err(e) => return Response::error(400, "bad_request", &format!("alg: {e}")),
    };
    let alpha: f64 = match query_get(&req.query, "alpha") {
        None => 3.0,
        Some(raw) => match raw.parse() {
            Ok(a) => a,
            Err(_) => return Response::error(400, "bad_request", "alpha: not a number"),
        },
    };
    // Bad α and batch-only algorithms carry the pipeline's typed errors:
    // well-formed input the model rejects is 422, like `/evaluate`.
    let session = match StreamSession::new(alg, alpha) {
        Ok(s) => s,
        Err(e) => return Response::error(422, "algorithm", &e.to_string()),
    };
    let Some(id) = ctx.sessions.open(session) else {
        return Response::shed(
            ctx.admission.retry_after_s(),
            &format!("all {MAX_OPEN_SESSIONS} session slots are open"),
        );
    };
    qbss_telemetry::counter!("serve.session.opened").inc();
    Response::json(
        200,
        format!("{{\"session\": {id}, \"algorithm\": \"{alg}\", \"alpha\": {}}}", json_f64(alpha)),
    )
}

/// The live-state body every successful session event answers with.
fn session_event_body(id: u64, session: &StreamSession) -> String {
    format!(
        "{{\"session\": {id}, \"t\": {}, \"speed\": {}, \"events\": {}, \"jobs\": {}}}",
        json_f64(session.now()),
        json_f64(session.speed()),
        session.events(),
        session.jobs()
    )
}

/// `POST /session/{id}/arrive|advance|finish` — one streaming event,
/// cost-accounted against the admission budget.
fn session_event(req: &HttpRequest, id: u64, action: &str, ctx: &ServerCtx<'_>) -> Response {
    let Some(_permit) = ctx.admission.try_admit(SESSION_EVENT_COST) else {
        return shed_response(ctx, SESSION_EVENT_COST);
    };
    qbss_telemetry::counter!("serve.session.events").inc();
    let gone = || {
        Response::error(
            404,
            "not_found",
            &format!("no open session {id} (finished, reaped as idle, or never opened)"),
        )
    };
    match action {
        "arrive" => {
            let job = match job_from_json(&req.body) {
                Ok(job) => job,
                Err(reject) => return reject,
            };
            // A rejected event (malformed job, out-of-order arrival,
            // duplicate id) leaves the session open and unchanged.
            match ctx.sessions.with(id, |s| {
                s.arrive(job).map(|delta| {
                    format!(
                        "{{\"session\": {id}, \"t\": {}, \"speed_before\": {}, \
                         \"speed_after\": {}, \"events\": {}, \"jobs\": {}}}",
                        json_f64(delta.at),
                        json_f64(delta.before),
                        json_f64(delta.after),
                        s.events(),
                        s.jobs()
                    )
                })
            }) {
                None => gone(),
                Some(Ok(body)) => Response::json(200, body),
                Some(Err(e)) => Response::error(422, "stream", &e.to_string()),
            }
        }
        "advance" => {
            let t: f64 = match query_get(&req.query, "t").map(str::parse) {
                Some(Ok(t)) => t,
                _ => return Response::error(400, "bad_request", "advance needs ?t=<number>"),
            };
            match ctx.sessions.with(id, |s| s.advance_to(t).map(|()| session_event_body(id, s))) {
                None => gone(),
                Some(Ok(body)) => Response::json(200, body),
                Some(Err(e)) => Response::error(422, "stream", &e.to_string()),
            }
        }
        "finish" => {
            // Finishing consumes the engine either way: a session whose
            // outcome fails evaluation is closed, not retryable.
            let Some(session) = ctx.sessions.take(id) else {
                return gone();
            };
            let alpha = session.alpha();
            qbss_telemetry::counter!("serve.session.finished").inc();
            match session.finish() {
                Ok(ev) => Response::json(
                    200,
                    format!(
                        "{{\"session\": {id}, \"algorithm\": \"{}\", \"alpha\": {}, \
                         \"energy\": {}, \"max_speed\": {}, \"outcome\": {}}}",
                        json_escape(&ev.outcome.algorithm),
                        json_f64(alpha),
                        json_f64(ev.energy),
                        json_f64(ev.max_speed),
                        io::outcome_to_json(&ev.outcome)
                    ),
                ),
                Err(e) => Response::error(422, "algorithm", &e.to_string()),
            }
        }
        other => Response::error(
            404,
            "not_found",
            &format!("no such session action `{other}` (arrive|advance|finish)"),
        ),
    }
}

/// Routes `/session` and `/session/{id}/{action}`.
fn session_endpoint(req: &HttpRequest, ctx: &ServerCtx<'_>) -> Response {
    let rest = req.path.trim_start_matches("/session");
    if rest.is_empty() {
        return session_open(req, ctx);
    }
    let mut parts = rest.trim_start_matches('/').splitn(2, '/');
    let (Some(id_text), Some(action)) = (parts.next(), parts.next()) else {
        return Response::error(
            404,
            "not_found",
            "session endpoints: POST /session, POST /session/{id}/arrive|advance|finish",
        );
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::error(404, "not_found", &format!("session ids are integers: `{id_text}`"));
    };
    session_event(req, id, action, ctx)
}

/// Builds the typed `429`, counts the shed in both the process stats
/// (`/healthz`) and the metrics registry (`serve.shed` — this is work
/// traffic, so registry writes are in-contract).
fn shed_response(ctx: &ServerCtx<'_>, cost: u64) -> Response {
    ctx.admission.shed.fetch_add(1, Ordering::Relaxed);
    qbss_telemetry::counter!("serve.shed").inc();
    qbss_telemetry::warn!(
        "serve.shed",
        { cost = cost, in_flight_cost = ctx.admission.in_flight_cost() },
        "shedding request of cost {} ({} of {} budget in flight)",
        cost,
        ctx.admission.in_flight_cost(),
        ctx.admission.budget
    );
    Response::shed(
        ctx.admission.retry_after_s(),
        &format!(
            "admission budget exhausted ({} of {} cost units in flight; this request needs {})",
            ctx.admission.in_flight_cost(),
            ctx.admission.budget,
            cost
        ),
    )
}

fn route(req: &HttpRequest, request_id: &str, ctx: &ServerCtx<'_>) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/") => index(),
        ("GET", "/metrics") => metrics_endpoint(),
        ("GET", "/healthz") => healthz(ctx),
        ("GET", "/readyz") => readyz(ctx),
        ("GET", "/tracez") => tracez(&req.query, &ctx.cfg.ring),
        ("GET", "/profilez") => profilez(&req.query, &ctx.cfg.ring),
        ("POST", p) if p == "/evaluate" || p == "/sweep" || p == "/session" || p.starts_with("/session/") => {
            // Work endpoints are the only registry writers, so idle
            // /metrics scrapes stay byte-stable.
            let started = Instant::now();
            let (endpoint, resp) = if req.path == "/evaluate" {
                ("evaluate", evaluate(req, request_id, ctx))
            } else if req.path == "/sweep" {
                ("sweep", sweep(req, ctx))
            } else {
                ("session", session_endpoint(req, ctx))
            };
            let dur_us = started.elapsed().as_micros() as f64;
            qbss_telemetry::counter!("serve.requests").inc();
            let metrics = qbss_telemetry::metrics();
            metrics.histogram("serve.request.dur_us", &DURATION_US_BOUNDS).record(dur_us);
            // The per-endpoint companion lets `/metrics` separate
            // /evaluate, /sweep and /session/* latency.
            metrics
                .histogram(&format!("serve.request.dur_us.{endpoint}"), &DURATION_US_BOUNDS)
                .record(dur_us);
            qbss_telemetry::gauge!("serve.queue.depth").set(ctx.queue.depth() as f64);
            qbss_telemetry::gauge!("serve.admission.in_flight_cost")
                .set(ctx.admission.in_flight_cost() as f64);
            resp
        }
        (
            _,
            "/" | "/metrics" | "/healthz" | "/readyz" | "/tracez" | "/profilez" | "/evaluate"
            | "/sweep",
        ) => Response::error(405, "method_not_allowed", "wrong method for this endpoint"),
        (_, p) if p == "/session" || p.starts_with("/session/") => {
            Response::error(405, "method_not_allowed", "session endpoints are POST-only")
        }
        (_, path) => Response::error(404, "not_found", &format!("no such endpoint: {path}")),
    }
}

// ---------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------

/// Everything a worker needs to answer one connection.
struct ServerCtx<'a> {
    stats: &'a ServerStats,
    cfg: &'a ServeConfig,
    admission: &'a Admission,
    queue: &'a Queue,
    sessions: &'a Sessions,
}

impl ServerCtx<'_> {
    fn request_timeout(&self) -> Duration {
        Duration::from_millis(self.cfg.request_timeout_ms.max(1))
    }

    fn io_timeout(&self) -> Duration {
        Duration::from_millis(self.cfg.io_timeout_ms.max(1))
    }
}

/// Answers a connection reaped from the queue (aged past the request
/// deadline before any worker could pick it up).
fn reap_connection(mut stream: TcpStream, ctx: &ServerCtx<'_>) {
    ctx.admission.reaped.fetch_add(1, Ordering::Relaxed);
    qbss_telemetry::counter!("serve.queue.reaped").inc();
    let _ = stream.set_write_timeout(Some(ctx.io_timeout()));
    write_response(
        &mut stream,
        &Response::error(
            503,
            "queue_timeout",
            "connection waited in the accept queue past the request deadline",
        ),
    );
}

fn handle_connection(mut stream: TcpStream, ctx: &ServerCtx<'_>) {
    let deadline = Deadline::new(ctx.request_timeout(), ctx.io_timeout());
    let _ = stream.set_write_timeout(Some(ctx.io_timeout()));
    let req = match read_request(&mut stream, &deadline) {
        Ok(req) => req,
        Err(reject) => {
            write_response(&mut stream, &reject);
            return;
        }
    };
    let request_id = format!("r-{}", REQUEST_SEQ.fetch_add(1, Ordering::Relaxed) + 1);
    let started = Instant::now();
    let mut span = qbss_telemetry::span!("serve.request", {
        request = request_id.clone(),
        method = req.method.clone(),
        path = req.path.clone(),
    });
    // A panicking handler answers 500 and the worker lives on — the
    // no-panic guarantee of the pipeline, extended to the serving edge.
    let resp = catch_unwind(AssertUnwindSafe(|| route(&req, &request_id, ctx)))
        .unwrap_or_else(|_| {
            qbss_telemetry::error!(
                "serve.request",
                { request = request_id.clone() },
                "handler panicked on {} {}",
                req.method,
                req.path
            );
            Response::error(500, "internal", "handler panicked; see server trace")
        });
    // A handler that overran the wall-clock deadline answers a typed
    // 503 instead of a stale result: the client has long since timed
    // out, and callers must never mistake an overrun for fresh data.
    let resp = if deadline.expired() && resp.status == 200 {
        qbss_telemetry::counter!("serve.deadline.overrun").inc();
        Response::error(
            503,
            "deadline_exceeded",
            &format!("handler overran the {} ms request deadline", ctx.cfg.request_timeout_ms),
        )
    } else {
        resp
    };
    span.record("status", u64::from(resp.status));
    drop(span);
    let elapsed = started.elapsed();
    if elapsed.as_millis() >= u128::from(ctx.cfg.slow_ms) {
        qbss_telemetry::warn!(
            "serve.slow",
            {
                request = request_id.clone(),
                path = req.path.clone(),
                ms = elapsed.as_millis() as u64,
            },
            "slow request {} {} took {} ms",
            req.method,
            req.path,
            elapsed.as_millis()
        );
    }
    write_response(&mut stream, &resp);
}

/// Blocks until the listener has a connection to accept, a signal
/// arrives, or `tick` passes, whichever comes first: `poll(2)` on the
/// listener fd for `POLLIN` via a raw extern, the same idiom as the
/// `signal(2)` hookup. Not a blocking `accept`: glibc's `signal()` sets
/// `SA_RESTART`, which restarts `accept` but never `poll` (signal(7)),
/// so SIGTERM still ends the wait.
#[cfg(unix)]
fn wait_for_connection(listener: &TcpListener, tick: Duration) {
    use std::os::unix::io::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    // `nfds_t` is `unsigned long` on Linux, `unsigned int` on macOS
    // and the BSDs.
    #[cfg(target_os = "linux")]
    type NfdsT = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NfdsT = std::os::raw::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout_ms: i32) -> i32;
    }
    const POLLIN: i16 = 0x1;
    let mut fds = PollFd { fd: listener.as_raw_fd(), events: POLLIN, revents: 0 };
    let timeout_ms = i32::try_from(tick.as_millis()).unwrap_or(i32::MAX);
    // The result is ignored: a timeout, an `EINTR` and a ready listener
    // all fall through to the shutdown check and the non-blocking
    // `accept`, and only the `accept` decides.
    // SAFETY: `fds` is one live, writable `struct pollfd` for the whole
    // call and `nfds` is 1, so `poll` touches only that struct; the fd
    // stays open because `listener` is borrowed across the call.
    unsafe {
        poll(&mut fds, 1, timeout_ms);
    }
}

#[cfg(not(unix))]
fn wait_for_connection(_listener: &TcpListener, tick: Duration) {
    std::thread::sleep(tick);
}

/// The accept loop. Wakes on a connection (or a signal), and at the
/// latest once per tick, which is also the reap cadence: reaping runs
/// at most once per tick, so a busy listener does not walk the session
/// store on every connection, and at least once per tick whether or
/// not the loop ever idles.
///
/// Owns the listener and **drops it before returning**, so by the
/// time the server is marked draining no new connection can be
/// accepted — probes during drain see `503` on `/readyz` and
/// connection-refused on fresh connects, never a half-open window.
fn accept_loop(listener: TcpListener, ctx: &ServerCtx<'_>) {
    let tick = Duration::from_millis(ctx.cfg.accept_tick_ms.max(1));
    let mut last_reap = Instant::now();
    loop {
        if SHUTDOWN.load(Ordering::SeqCst) {
            break;
        }
        if last_reap.elapsed() >= tick {
            // Reap queue entries that aged out before a worker could
            // take them, and streaming sessions whose client stopped
            // sending events.
            for victim in ctx.queue.reap(ctx.request_timeout()) {
                reap_connection(victim, ctx);
            }
            let reaped = ctx.sessions.reap(ctx.request_timeout());
            if reaped > 0 {
                qbss_telemetry::counter!("serve.session.reaped").add(reaped as u64);
                qbss_telemetry::warn!(
                    "serve.session",
                    { reaped = reaped as u64 },
                    "reaped {} idle streaming session(s)",
                    reaped
                );
            }
            last_reap = Instant::now();
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if let Err(mut rejected) = ctx.queue.push(stream) {
                    ctx.admission.shed.fetch_add(1, Ordering::Relaxed);
                    qbss_telemetry::counter!("serve.shed").inc();
                    let _ = rejected.set_write_timeout(Some(ctx.io_timeout()));
                    write_response(
                        &mut rejected,
                        &Response::shed(ctx.admission.retry_after_s(), "accept queue is full"),
                    );
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                wait_for_connection(&listener, tick);
            }
            Err(e) => {
                // Sleep, not poll: on `EMFILE` the listener stays
                // readable, so `poll` would return at once and spin.
                qbss_telemetry::warn!("serve", "accept failed: {e}");
                std::thread::sleep(tick);
            }
        }
    }
    // Close the listener *first*: draining must not race a final
    // accept that lets one more connection in.
    drop(listener);
}

/// Runs the server on an already-bound listener until SIGTERM/ctrl-c,
/// then drains and returns. `Ok` means a clean drain (exit 0); `Err`
/// carries an I/O-level failure message.
pub fn run(listener: TcpListener, cfg: ServeConfig) -> Result<(), String> {
    install_signal_handlers();
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot poll the listener: {e}"))?;
    let stats = ServerStats::new();
    let admission = Admission::new(cfg.budget);
    let queue = Queue::new(cfg.workers * 16);
    let sessions = Sessions::new();
    let ctx = ServerCtx {
        stats: &stats,
        cfg: &cfg,
        admission: &admission,
        queue: &queue,
        sessions: &sessions,
    };
    qbss_telemetry::info!(
        "serve",
        { workers = cfg.workers, budget = cfg.budget },
        "server loop starting"
    );
    std::thread::scope(|scope| {
        for _ in 0..ctx.cfg.workers {
            let ctx = &ctx;
            scope.spawn(move || {
                while let Some(item) = ctx.queue.pop() {
                    ctx.stats.in_flight.fetch_add(1, Ordering::Relaxed);
                    // Belt and braces: entries can also age out between
                    // reap ticks; check once more at pop.
                    if item.queued_at.elapsed() > ctx.request_timeout() {
                        reap_connection(item.stream, ctx);
                    } else {
                        handle_connection(item.stream, ctx);
                    }
                    ctx.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
                    ctx.stats.served.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        accept_loop(listener, &ctx);
        // Drain: the listener is already closed; workers finish queued
        // + in-flight requests, then the scope joins them all.
        ctx.stats.draining.store(true, Ordering::Relaxed);
        qbss_telemetry::info!(
            "serve",
            { served = ctx.stats.served.load(Ordering::Relaxed) },
            "shutdown signal received; draining"
        );
        ctx.queue.close();
    });
    qbss_telemetry::flush();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_parsing_takes_the_first_match() {
        assert_eq!(query_get("alg=avrq&alpha=3", "alg"), Some("avrq"));
        assert_eq!(query_get("alg=avrq&alpha=3", "alpha"), Some("3"));
        assert_eq!(query_get("alg=avrq", "m"), None);
        assert_eq!(query_get("", "alg"), None);
        assert_eq!(query_get("a=1&a=2", "a"), Some("1"));
    }

    #[test]
    fn tracez_filters_spans_and_events_but_keeps_metrics() {
        let records = trace::parse_trace(
            "{\"t\": \"span\", \"id\": 1, \"parent\": null, \"name\": \"engine.cell\", \
             \"start_us\": 0, \"dur_us\": 500, \"fields\": {}}\n\
             {\"t\": \"span\", \"id\": 2, \"parent\": null, \"name\": \"serve.request\", \
             \"start_us\": 0, \"dur_us\": 20, \"fields\": {}}\n\
             {\"t\": \"event\", \"ts_us\": 5, \"level\": \"warn\", \"target\": \"engine.cell\", \
             \"span\": null, \"msg\": \"m\", \"fields\": {}}\n\
             {\"t\": \"metrics\", \"ts_us\": 9, \"scope\": \"proc\", \"counters\": {}, \
             \"gauges\": {}, \"histograms\": {}}\n",
        )
        .expect("valid records");
        let keep = |target: Option<&str>, min_us: Option<u64>| -> Vec<bool> {
            records.iter().map(|r| tracez_keep(r, target, min_us)).collect()
        };
        // No filters: everything passes.
        assert_eq!(keep(None, None), vec![true, true, true, true]);
        // Dot-prefix target matching, same grammar as QBSS_LOG: the
        // span's name and the event's target both count; metrics always
        // pass.
        assert_eq!(keep(Some("engine"), None), vec![true, false, true, true]);
        assert_eq!(keep(Some("engine.cell"), None), vec![true, false, true, true]);
        assert_eq!(keep(Some("engin"), None), vec![false, false, false, true]);
        // min_us keeps slow spans, drops fast ones and (durationless)
        // events.
        assert_eq!(keep(None, Some(100)), vec![true, false, false, true]);
        // Filters compose.
        assert_eq!(keep(Some("serve"), Some(100)), vec![false, false, false, true]);
    }

    #[test]
    fn tracez_rejects_a_malformed_min_us() {
        let ring = RingSink::default();
        let resp = tracez("min_us=soon", &ring);
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("min_us"), "{}", resp.body);
        // Empty ring with valid filters: empty, well-typed responses.
        assert_eq!(tracez("target=engine&min_us=10", &ring).status, 200);
        assert_eq!(tracez("format=jsonl&target=engine", &ring).body, "");
    }

    #[test]
    fn profilez_renders_even_an_empty_ring() {
        let ring = RingSink::default();
        let html = profilez("", &ring);
        assert_eq!(html.status, 200);
        assert!(html.body.starts_with("<!DOCTYPE html>"), "{}", &html.body[..40]);
        let folded = profilez("format=folded&collapse=par.shard", &ring);
        assert_eq!(folded.status, 200);
        assert_eq!(folded.body, "");
        assert_eq!(profilez("format=svg", &ring).status, 400);
    }

    #[test]
    fn queue_bounds_and_drains() {
        // Stream-free bound check via capacity clamping.
        let q = Queue::new(0);
        assert_eq!(q.capacity, 1);
        assert_eq!(q.depth(), 0);
        q.close();
        assert!(q.pop().is_none());
    }

    #[test]
    fn error_responses_are_typed_json() {
        let resp = Response::error(422, "model", "job 3: deadline before release");
        assert_eq!(resp.status, 422);
        assert!(resp.body.contains("\"kind\": \"model\""), "{}", resp.body);
        assert!(resp.body.contains("\"message\": "), "{}", resp.body);
    }

    #[test]
    fn shed_responses_carry_retry_after() {
        let resp = Response::shed(1, "budget exhausted");
        assert_eq!(resp.status, 429);
        assert!(resp.body.contains("\"kind\": \"overloaded\""), "{}", resp.body);
        assert_eq!(resp.extra_headers, vec!["Retry-After: 1".to_string()]);
    }

    #[test]
    fn header_end_detection() {
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        assert_eq!(find_header_end(b"partial\r\n"), None);
    }

    #[test]
    fn admission_bounds_concurrent_cost() {
        let a = Admission::new(10);
        let p1 = a.try_admit(6).expect("fits");
        assert_eq!(a.in_flight_cost(), 6);
        // 6 + 5 > 10: shed.
        assert!(a.try_admit(5).is_none());
        let p2 = a.try_admit(4).expect("exactly fits");
        assert_eq!(a.in_flight_cost(), 10);
        assert!(a.try_admit(1).is_none());
        drop(p1);
        assert_eq!(a.in_flight_cost(), 4);
        drop(p2);
        assert_eq!(a.in_flight_cost(), 0);
    }

    #[test]
    fn admission_never_starves_an_idle_server() {
        // A request costlier than the whole budget is admitted when
        // nothing is in flight — the budget bounds concurrency, it is
        // not a per-request cap.
        let a = Admission::new(10);
        let big = a.try_admit(1_000).expect("idle server admits anything");
        assert_eq!(a.in_flight_cost(), 1_000);
        // …but while it runs, everything else is shed.
        assert!(a.try_admit(1).is_none());
        drop(big);
        assert!(a.try_admit(1).is_some());
    }

    #[test]
    fn zero_budget_disables_admission_control() {
        let a = Admission::new(0);
        let _p1 = a.try_admit(u64::MAX).expect("unlimited");
        let _p2 = a.try_admit(u64::MAX).expect("unlimited");
        assert_eq!(a.in_flight_cost(), 0, "unlimited permits carry no cost");
    }

    #[test]
    fn body_contract_is_decided_before_the_body() {
        // POST without Content-Length: 411, typed.
        let err = body_contract("POST", None).unwrap_err();
        assert_eq!(err.status, 411);
        assert!(err.body.contains("length_required"), "{}", err.body);
        // Over the cap: 413 — distinct from the 400 syntax class.
        let err = body_contract("POST", Some(MAX_BODY_BYTES + 1)).unwrap_err();
        assert_eq!(err.status, 413);
        assert!(err.body.contains("payload_too_large"), "{}", err.body);
        // In-range lengths and bodyless GETs pass.
        assert_eq!(body_contract("POST", Some(10)).unwrap(), 10);
        assert_eq!(body_contract("GET", None).unwrap(), 0);
        assert_eq!(body_contract("GET", Some(4)).unwrap(), 4);
    }

    #[test]
    fn head_parsing_rejects_garbage() {
        let ok = parse_head("POST /sweep HTTP/1.1\r\nHost: x\r\nContent-Length: 12").unwrap();
        assert_eq!(ok.method, "POST");
        assert_eq!(ok.target, "/sweep");
        assert_eq!(ok.content_length, Some(12));
        // Garbage Content-Length is a 400 before any body read.
        let err =
            parse_head("POST / HTTP/1.1\r\nContent-Length: twelve").unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.body.contains("Content-Length"), "{}", err.body);
        // Truncated request lines and alien protocol versions are 400.
        assert_eq!(parse_head("GET /\r\n").unwrap_err().status, 400);
        assert_eq!(parse_head("GET / SPDY/99\r\n").unwrap_err().status, 400);
    }

    #[test]
    fn deadline_slices_shrink_to_the_wall_clock() {
        let d = Deadline::new(Duration::from_millis(50), Duration::from_secs(10));
        // Far from the deadline, the io timeout would win; here the
        // remaining wall clock is smaller, so the slice is bounded by it.
        let slice = d.read_slice().expect("not yet expired");
        assert!(slice <= Duration::from_millis(50));
        assert!(!d.expired());
        std::thread::sleep(Duration::from_millis(60));
        assert!(d.expired());
        assert!(d.read_slice().is_none(), "expired deadlines stop reads");
    }

    #[test]
    fn session_store_opens_caps_and_reaps() {
        let sessions = Sessions::new();
        let open = |sessions: &Sessions| {
            sessions.open(StreamSession::new(Algorithm::Oaq, 3.0).expect("session"))
        };
        let a = open(&sessions).expect("first id");
        let b = open(&sessions).expect("second id");
        assert_ne!(a, b, "ids are never reused");
        assert_eq!(sessions.open_count(), 2);
        // `with` touches the session; `take` consumes it.
        assert_eq!(sessions.with(a, |s| s.jobs()), Some(0));
        assert!(sessions.take(a).is_some());
        assert!(sessions.with(a, |s| s.jobs()).is_none(), "taken sessions are gone");
        assert_eq!(sessions.open_count(), 1);
        // A generous idle window reaps nothing; a zero window reaps all.
        assert_eq!(sessions.reap(Duration::from_secs(60)), 0);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(sessions.reap(Duration::ZERO), 1);
        assert_eq!(sessions.open_count(), 0);
        assert_eq!(sessions.reaped.load(Ordering::Relaxed), 1);
        // The cap sheds further opens.
        for _ in 0..MAX_OPEN_SESSIONS {
            assert!(open(&sessions).is_some());
        }
        assert!(open(&sessions).is_none(), "cap reached");
    }

    #[test]
    fn session_jobs_parse_from_bare_json_objects() {
        let job = job_from_json(
            br#"{"id": 3, "release": 0.5, "deadline": 2.0, "query_load": 0.25,
                 "upper_bound": 1.0, "exact": 0.75}"#,
        )
        .expect("valid job");
        assert_eq!(job.id, 3);
        assert_eq!(job.release, 0.5);
        assert_eq!(job.reveal_exact(), 0.75);
        // Missing fields, non-integer ids, non-JSON, non-finite tokens
        // and repeated fields are all 400s, as in instance files: both
        // decode through `io::job_from_value`.
        for bad in [
            &b"not json"[..],
            br#"{"id": 1.5, "release": 0.0, "deadline": 1.0, "query_load": 0.1,
                 "upper_bound": 1.0, "exact": 0.5}"#,
            br#"{"id": 1, "release": 0.0}"#,
            br#"{"id": 4294967296, "release": 0.0, "deadline": 1.0, "query_load": 0.1,
                 "upper_bound": 1.0, "exact": 0.5}"#,
            br#"{"id": 1, "release": NaN, "deadline": 1.0, "query_load": 0.1,
                 "upper_bound": 1.0, "exact": 0.5}"#,
            br#"{"id": 1, "release": 0.0, "deadline": 1.0, "query_load": 0.1,
                 "upper_bound": 1.0, "exact": 0.5, "exact": 0.25}"#,
        ] {
            assert_eq!(job_from_json(bad).unwrap_err().status, 400, "{:?}", bad);
        }
    }

    #[test]
    fn queue_reaps_only_aged_entries() {
        // Reaping needs real streams; a loopback pair is cheap.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let q = Queue::new(8);
        let c1 = TcpStream::connect(addr).expect("connect");
        q.push(c1).expect("push");
        assert_eq!(q.depth(), 1);
        // Nothing is older than 10 s.
        assert!(q.reap(Duration::from_secs(10)).is_empty());
        std::thread::sleep(Duration::from_millis(20));
        // Everything is older than 1 ms.
        let reaped = q.reap(Duration::from_millis(1));
        assert_eq!(reaped.len(), 1);
        assert_eq!(q.depth(), 0);
    }
}
