//! # qbss-telemetry — in-tree observability for the QBSS workspace
//!
//! Zero-dependency spans, metrics, and structured events, built for a
//! workspace that resolves no external registries (DESIGN.md §6). Three
//! coordinated pieces:
//!
//! * **Spans** ([`span!`]) — a thread-local span stack with monotonic
//!   timestamps, process-unique `u64` ids and parent links. Guards
//!   emit one JSONL record when dropped; explicit parents stitch
//!   trees across the sweep engine's worker threads.
//! * **Metrics** ([`Registry`], [`counter!`]) — named counters, gauges
//!   and fixed-bucket histograms behind atomics, snapshotable to JSON
//!   in canonical key order (deterministic, shard-count independent).
//! * **Events** ([`event!`] and the [`error!`]/[`warn!`]/[`info!`]/
//!   [`debug!`]/[`trace!`] shorthands) — leveled, target-scoped JSONL
//!   records filtered by a `QBSS_LOG`-style [`Filter`].
//!
//! ## The disabled path is one relaxed atomic load
//!
//! Until [`init`] is called, every `event!` and `span!` expansion is a
//! single `Relaxed` load of one static atomic followed by a predicted
//! branch — no formatting, no allocation, no locks. The instrumented
//! hot loops (per-cell evaluation, YDS rounds) rely on this; the
//! overhead gate in `crates/bench/tests/telemetry_overhead.rs` enforces
//! it.
//!
//! ## Record schema (one JSON object per line)
//!
//! | `"t"` | fields |
//! |-------|--------|
//! | `span` | `id`, `parent` (id or `null`), `name`, `start_us`, `dur_us`, `fields` |
//! | `event` | `ts_us`, `level`, `target`, `span` (id or `null`), `msg`, `fields` |
//! | `metrics` | `ts_us`, `scope`, `counters`, `gauges`, `histograms` |
//!
//! Timestamps are microseconds on one process-wide monotonic clock
//! (the same clock `bench::timing` uses). [`mod@trace`] parses,
//! validates and summarizes these files; `qbss trace summarize` is its
//! CLI.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod expo;
mod filter;
mod json;
mod metrics;
pub mod profile;
mod sink;
mod span;
pub mod trace;

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use sink::Out;

pub use filter::{target_matches, Filter, FilterError, Level};
pub use json::{
    json_escape, json_f64, parse as json_parse, render as json_render, Cursor as JsonCursor,
    JsonError, JsonValue,
};
pub use metrics::{estimate_quantile, Counter, Gauge, Histogram, Registry, DURATION_US_BOUNDS};
pub use sink::{RingSink, SinkTarget, RING_DEFAULT_CAPACITY};
pub use span::{current_span_id, SpanGuard};

// ---------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------

/// Fast-path gate for events: the most verbose enabled [`Level`] as a
/// `u8`, `0` = everything off.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);
/// Fast-path gate for spans.
static SPANS_ON: AtomicBool = AtomicBool::new(false);
/// Slow-path state, present between [`init`] and [`shutdown`].
static STATE: Mutex<Option<State>> = Mutex::new(None);

struct State {
    filter: Filter,
    out: Out,
}

/// Telemetry configuration for [`init`].
#[derive(Debug, Clone)]
pub struct Config {
    /// Event filter (see [`Filter::parse`] for the `QBSS_LOG` grammar).
    pub filter: Filter,
    /// Record destination.
    pub sink: SinkTarget,
    /// Whether span records are emitted (tracing); events obey the
    /// filter independently of this.
    pub spans: bool,
}

/// Failure to [`init`] the telemetry layer.
#[derive(Debug)]
pub enum InitError {
    /// [`init`] was already called (call [`shutdown`] first).
    AlreadyInitialized,
    /// The trace file could not be created.
    Io(String),
}

impl fmt::Display for InitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InitError::AlreadyInitialized => f.write_str("telemetry already initialized"),
            InitError::Io(e) => write!(f, "cannot open trace sink: {e}"),
        }
    }
}

impl std::error::Error for InitError {}

/// Installs the global telemetry pipeline. Until this is called every
/// macro is a no-op behind one relaxed atomic load.
pub fn init(config: Config) -> Result<(), InitError> {
    let mut state = STATE.lock().unwrap_or_else(PoisonError::into_inner);
    if state.is_some() {
        return Err(InitError::AlreadyInitialized);
    }
    let out = Out::open(config.sink).map_err(InitError::Io)?;
    // Pin the clock epoch before anything can be timestamped.
    let _ = epoch();
    *state = Some(State { filter: config.filter.clone(), out });
    SPANS_ON.store(config.spans, Ordering::Relaxed);
    MAX_LEVEL.store(
        config.filter.max_level().map_or(0, |l| l as u8),
        Ordering::Relaxed,
    );
    Ok(())
}

/// Flushes and tears the pipeline down, returning to the disabled
/// state. Idempotent; open [`SpanGuard`]s on other threads degrade to
/// no-ops.
pub fn shutdown() {
    MAX_LEVEL.store(0, Ordering::Relaxed);
    SPANS_ON.store(false, Ordering::Relaxed);
    let mut state = STATE.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(State { mut out, .. }) = state.take() {
        out.flush();
    }
}

/// Flushes buffered records (file sinks) without tearing down.
pub fn flush() {
    let mut state = STATE.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(State { out, .. }) = state.as_mut() {
        out.flush();
    }
}

/// Whether any telemetry (events at any level, or spans) is live.
pub fn active() -> bool {
    MAX_LEVEL.load(Ordering::Relaxed) > 0 || SPANS_ON.load(Ordering::Relaxed)
}

/// Whether records are currently going to stderr (callers that also
/// write human-readable stderr output use this to avoid corrupting a
/// JSONL stream).
pub fn stderr_sink_active() -> bool {
    if !active() {
        return false;
    }
    let state = STATE.lock().unwrap_or_else(PoisonError::into_inner);
    matches!(state.as_ref(), Some(State { out: Out::Stderr, .. }))
}

/// The cheap event gate: `level` could pass some target's filter.
#[inline(always)]
pub fn enabled(level: Level) -> bool {
    (level as u8) <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// The cheap span gate.
#[inline(always)]
pub fn spans_enabled() -> bool {
    SPANS_ON.load(Ordering::Relaxed)
}

/// The full event gate, including the per-target filter. Call after
/// [`enabled`] (the macros do) — this one takes the state lock.
pub fn event_enabled(level: Level, target: &str) -> bool {
    if !enabled(level) {
        return false;
    }
    let state = STATE.lock().unwrap_or_else(PoisonError::into_inner);
    state.as_ref().is_some_and(|s| s.filter.enabled(level, target))
}

/// The process-global metrics registry (see [`counter!`]).
pub fn metrics() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

// ---------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process-wide monotonic epoch. Every span,
/// event and bench measurement shares this clock.
pub fn now_us() -> u64 {
    u64::try_from(epoch().elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Formats a duration with an adaptive unit (ns/µs/ms/s) — the one
/// duration formatter of the workspace.
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

// ---------------------------------------------------------------------
// Field values
// ---------------------------------------------------------------------

/// A structured field value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (`null` in JSON when non-finite).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl Value {
    fn to_json(&self) -> String {
        match self {
            Value::U64(v) => v.to_string(),
            Value::I64(v) => v.to_string(),
            Value::F64(v) => json::json_f64(*v),
            Value::Bool(v) => v.to_string(),
            Value::Str(s) => format!("\"{}\"", json::json_escape(s)),
        }
    }
}

macro_rules! impl_value_from {
    ($($ty:ty => $variant:ident as $conv:ty),* $(,)?) => {
        $(impl From<$ty> for Value {
            fn from(v: $ty) -> Value { Value::$variant(v as $conv) }
        })*
    };
}
impl_value_from!(u64 => U64 as u64, u32 => U64 as u64, usize => U64 as u64,
                 i64 => I64 as i64, i32 => I64 as i64, f64 => F64 as f64, f32 => F64 as f64);

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

fn fields_json(fields: &[(&str, Value)]) -> String {
    let mut s = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{}\": {}", json::json_escape(k), v.to_json()));
    }
    s.push('}');
    s
}

// ---------------------------------------------------------------------
// Emission (slow path, only reached when enabled)
// ---------------------------------------------------------------------

fn write_line(line: &str) {
    let mut state = STATE.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(s) = state.as_mut() {
        s.out.write_line(line);
    }
}

/// Emits one event record. Used by [`event!`] after both gates passed;
/// prefer the macros.
pub fn emit_event(level: Level, target: &str, msg: fmt::Arguments<'_>, fields: &[(&str, Value)]) {
    let span = span::current_span_id()
        .map_or_else(|| "null".to_string(), |id| id.to_string());
    write_line(&format!(
        "{{\"t\": \"event\", \"ts_us\": {}, \"level\": \"{}\", \"target\": \"{}\", \
         \"span\": {span}, \"msg\": \"{}\", \"fields\": {}}}",
        now_us(),
        level.as_str(),
        json::json_escape(target),
        json::json_escape(&msg.to_string()),
        fields_json(fields)
    ));
}

pub(crate) fn emit_span(
    id: u64,
    parent: Option<u64>,
    name: &str,
    start_us: u64,
    dur_us: u64,
    fields: &[(&str, Value)],
) {
    let parent = parent.map_or_else(|| "null".to_string(), |p| p.to_string());
    write_line(&format!(
        "{{\"t\": \"span\", \"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
         \"start_us\": {start_us}, \"dur_us\": {dur_us}, \"fields\": {}}}",
        json::json_escape(name),
        fields_json(fields)
    ));
}

/// Emits a `metrics` record: a registry snapshot tagged with `scope`,
/// inline in the trace stream. No-op when telemetry is inactive.
pub fn emit_metrics(scope: &str, registry: &Registry) {
    if !active() {
        return;
    }
    let snapshot = registry.snapshot_json();
    // Splice the snapshot object into the record envelope.
    let body = snapshot
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .unwrap_or(&snapshot);
    write_line(&format!(
        "{{\"t\": \"metrics\", \"ts_us\": {}, \"scope\": \"{}\", {body}}}",
        now_us(),
        json::json_escape(scope)
    ));
}

// ---------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------

/// Emits a leveled structured event:
///
/// ```
/// use qbss_telemetry::{event, Level};
/// event!(Level::Info, "engine.sweep", "swept {} cells", 64);
/// event!(Level::Debug, "qbss.decision", { job = 3_u64, queried = true, tau = 1.5 },
///        "job 3 queried");
/// ```
///
/// When the level is globally disabled this is one relaxed atomic
/// load; the message and fields are not evaluated.
#[macro_export]
macro_rules! event {
    ($level:expr, $target:expr, { $($k:ident = $v:expr),* $(,)? }, $($arg:tt)+) => {{
        let level = $level;
        if $crate::enabled(level) && $crate::event_enabled(level, $target) {
            $crate::emit_event(
                level,
                $target,
                ::core::format_args!($($arg)+),
                &[$((::core::stringify!($k), $crate::Value::from($v))),*],
            );
        }
    }};
    ($level:expr, $target:expr, $($arg:tt)+) => {
        $crate::event!($level, $target, {}, $($arg)+)
    };
}

/// [`event!`] at [`Level::Error`].
#[macro_export]
macro_rules! error {
    ($target:expr, $($rest:tt)+) => { $crate::event!($crate::Level::Error, $target, $($rest)+) };
}

/// [`event!`] at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($target:expr, $($rest:tt)+) => { $crate::event!($crate::Level::Warn, $target, $($rest)+) };
}

/// [`event!`] at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($target:expr, $($rest:tt)+) => { $crate::event!($crate::Level::Info, $target, $($rest)+) };
}

/// [`event!`] at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($target:expr, $($rest:tt)+) => { $crate::event!($crate::Level::Debug, $target, $($rest)+) };
}

/// [`event!`] at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    ($target:expr, $($rest:tt)+) => { $crate::event!($crate::Level::Trace, $target, $($rest)+) };
}

/// Opens a span and returns its [`SpanGuard`]; the record is emitted
/// when the guard drops. Nesting follows the thread-local span stack;
/// pass `parent:` to stitch across threads:
///
/// ```
/// use qbss_telemetry::span;
/// let sweep = span!("engine.sweep", { cells = 128_u64 });
/// let parent = sweep.id(); // forward into worker threads
/// let _shard = span!(parent: parent, "par.shard", { shard = 0_u64 });
/// ```
///
/// Disabled (no [`crate::init`] with `spans: true`): one relaxed
/// atomic load, no allocation, and the guard is inert.
#[macro_export]
macro_rules! span {
    (parent: $parent:expr, $name:expr, { $($k:ident = $v:expr),* $(,)? }) => {
        if $crate::spans_enabled() {
            $crate::SpanGuard::enter(
                $name,
                $parent,
                ::std::vec![$((::core::stringify!($k), $crate::Value::from($v))),*],
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
    (parent: $parent:expr, $name:expr) => {
        $crate::span!(parent: $parent, $name, {})
    };
    ($name:expr, { $($k:ident = $v:expr),* $(,)? }) => {
        if $crate::spans_enabled() {
            $crate::SpanGuard::enter(
                $name,
                $crate::current_span_id(),
                ::std::vec![$((::core::stringify!($k), $crate::Value::from($v))),*],
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
    ($name:expr) => {
        $crate::span!($name, {})
    };
}

/// A process-global [`Counter`] cached per call site — safe for hot
/// loops (first use registers, later uses are one `Arc` deref):
///
/// ```
/// qbss_telemetry::counter!("yds.solves").inc();
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        SITE.get_or_init(|| $crate::metrics().counter($name)).as_ref()
    }};
}

/// A process-global [`Gauge`] cached per call site, the [`counter!`]
/// idiom for last-write-wins values (queue depths, budget in flight):
///
/// ```
/// qbss_telemetry::gauge!("serve.queue.depth").set(3.0);
/// ```
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        SITE.get_or_init(|| $crate::metrics().gauge($name)).as_ref()
    }};
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// Serializes tests that touch the global pipeline.
    pub fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `init` to a fresh ring sink, returning the read handle.
    pub fn init_memory(filter: Filter, spans: bool) -> RingSink {
        shutdown();
        let sink = RingSink::default();
        init(Config { filter, sink: SinkTarget::Ring(sink.clone()), spans })
            .expect("fresh init");
        sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_macros_do_not_emit_or_evaluate() {
        let _guard = test_support::lock();
        shutdown();
        let mut evaluated = false;
        event!(Level::Error, "x", "{}", {
            evaluated = true;
            "boom"
        });
        assert!(!evaluated, "message must not be formatted when disabled");
        assert!(!active());
        let span = span!("x.y", { big = 1_u64 });
        assert_eq!(span.id(), None);
    }

    #[test]
    fn events_respect_the_target_filter() {
        let _guard = test_support::lock();
        let sink = test_support::init_memory(
            Filter::parse("warn,engine=debug").expect("valid"),
            false,
        );
        info!("yds.solve", "hidden");
        warn!("yds.solve", "shown warn");
        debug!("engine.cell", { cell = 7_u64 }, "shown debug");
        trace!("engine.cell", "hidden trace");
        shutdown();
        let out = sink.contents();
        assert!(!out.contains("hidden"), "{out}");
        assert!(out.contains("\"msg\": \"shown warn\""), "{out}");
        assert!(out.contains("\"cell\": 7"), "{out}");
        for line in out.lines() {
            trace::parse_line(line, 1).expect("schema-valid event");
        }
    }

    #[test]
    fn spans_nest_on_the_thread_stack() {
        let _guard = test_support::lock();
        let sink = test_support::init_memory(Filter::off(), true);
        let outer = span!("outer");
        let outer_id = outer.id().expect("enabled");
        {
            let inner = span!("inner", { alpha = 2.5 });
            assert_eq!(current_span_id(), inner.id());
        }
        assert_eq!(current_span_id(), Some(outer_id));
        drop(outer);
        shutdown();
        let out = sink.contents();
        let records: Vec<trace::TraceRecord> = trace::parse_trace(&out).expect("valid");
        let spans: Vec<&trace::SpanRec> = records
            .iter()
            .filter_map(|r| match r {
                trace::TraceRecord::Span(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(spans.len(), 2);
        // Inner closes first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, Some(outer_id));
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].parent, None);
    }

    #[test]
    fn explicit_parents_stitch_across_threads() {
        let _guard = test_support::lock();
        let sink = test_support::init_memory(Filter::off(), true);
        let root = span!("root");
        let root_id = root.id();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _w = span!(parent: root_id, "worker", { shard = 1_u64 });
            });
        });
        drop(root);
        shutdown();
        let out = sink.contents();
        let records = trace::parse_trace(&out).expect("valid");
        let worker = records
            .iter()
            .find_map(|r| match r {
                trace::TraceRecord::Span(s) if s.name == "worker" => Some(s),
                _ => None,
            })
            .expect("worker span");
        assert_eq!(worker.parent, root_id);
    }

    #[test]
    fn metrics_record_embeds_the_snapshot() {
        let _guard = test_support::lock();
        let sink = test_support::init_memory(Filter::at(Level::Info), false);
        let reg = Registry::new();
        reg.counter("cells").add(42);
        emit_metrics("engine", &reg);
        shutdown();
        let records = trace::parse_trace(&sink.contents()).expect("valid");
        match &records[0] {
            trace::TraceRecord::Metrics(m) => {
                assert_eq!(m.scope, "engine");
                assert_eq!(m.counters.get("cells"), Some(&42));
            }
            other => panic!("expected metrics record, got {other:?}"),
        }
    }

    #[test]
    fn counter_macro_hits_the_global_registry() {
        counter!("test.lib.counter").add(2);
        counter!("test.lib.counter").inc();
        assert!(metrics().counter("test.lib.counter").get() >= 3);
    }

    #[test]
    fn gauge_macro_hits_the_global_registry() {
        gauge!("test.lib.gauge").set(4.0);
        assert_eq!(metrics().gauge("test.lib.gauge").get(), 4.0);
        gauge!("test.lib.gauge").set(2.5);
        assert_eq!(metrics().gauge("test.lib.gauge").get(), 2.5);
    }

    #[test]
    fn init_twice_is_an_error_and_shutdown_is_idempotent() {
        let _guard = test_support::lock();
        let _sink = test_support::init_memory(Filter::default(), false);
        let again = init(Config {
            filter: Filter::default(),
            sink: SinkTarget::Stderr,
            spans: false,
        });
        assert!(matches!(again, Err(InitError::AlreadyInitialized)));
        shutdown();
        shutdown();
        assert!(!active());
    }

    #[test]
    fn fmt_duration_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
    }
}
