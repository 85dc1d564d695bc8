//! Telemetry acceptance: span parenting across the work-stealing
//! fan-out, a full traced sweep whose JSONL stream is schema-valid with
//! spans covering (essentially all of) the wall clock, and — the
//! determinism contract — aggregates that are byte-identical whether
//! telemetry is off, streaming events, or recording a full trace.
//!
//! These tests share the process-global telemetry pipeline, so they
//! serialize on one lock and tear the pipeline down before asserting.

use std::sync::{Mutex, MutexGuard, PoisonError};

use qbss_bench::engine::{run_sweep, InstanceSource, SweepSpec};
use qbss_bench::par::par_map_stealing;
use qbss_core::pipeline::Algorithm;
use qbss_instances::gen::{Compressibility, GenConfig};
use qbss_telemetry::trace::{parse_trace, summarize, SpanRec, TraceRecord};
use qbss_telemetry::{Config, Filter, RingSink, SinkTarget};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` with a fresh ring-sink pipeline and returns the JSONL it
/// recorded, with the pipeline torn down again. The default ring
/// capacity (4096) comfortably holds a small traced sweep, so nothing
/// these tests assert on is ever evicted.
fn with_memory_telemetry(filter: Filter, spans: bool, f: impl FnOnce()) -> String {
    qbss_telemetry::shutdown();
    let sink = RingSink::default();
    qbss_telemetry::init(Config { filter, sink: SinkTarget::Ring(sink.clone()), spans })
        .expect("fresh init");
    f();
    qbss_telemetry::shutdown();
    assert_eq!(sink.dropped(), 0, "test traces must fit the ring");
    sink.contents()
}

fn small_spec() -> SweepSpec {
    SweepSpec {
        source: InstanceSource::Generated {
            base: GenConfig {
                compress: Compressibility::Bimodal { p_compressible: 0.5 },
                ..GenConfig::common_deadline(8, 8.0, 0)
            },
            seeds: 0..6,
        },
        algorithms: vec![Algorithm::Avrq, Algorithm::Bkpq, Algorithm::Oaq],
        alphas: vec![2.0, 3.0],
        opt_fw_iters: 4,
    }
}

fn spans_of(records: &[TraceRecord]) -> Vec<&SpanRec> {
    records
        .iter()
        .filter_map(|r| match r {
            TraceRecord::Span(s) => Some(s),
            _ => None,
        })
        .collect()
}

#[test]
fn shard_spans_stitch_into_the_callers_tree() {
    let _guard = lock();
    let out = with_memory_telemetry(Filter::off(), true, || {
        let root = qbss_telemetry::span!("test.root");
        let _ = par_map_stealing(16, 3, |_, i| i * i);
        drop(root);
    });
    let records = parse_trace(&out).expect("schema-valid trace");
    let spans = spans_of(&records);
    let root = spans.iter().find(|s| s.name == "test.root").expect("root span recorded");
    let shards: Vec<&&SpanRec> = spans.iter().filter(|s| s.name == "par.shard").collect();
    assert_eq!(shards.len(), 3, "one span per work-stealing shard");
    let mut items = 0;
    for s in &shards {
        assert_eq!(
            s.parent,
            Some(root.id),
            "worker-thread span must parent onto the calling thread's span"
        );
        items += s
            .fields
            .get("items")
            .and_then(qbss_telemetry::JsonValue::as_u64)
            .expect("items field");
    }
    assert_eq!(items, 16, "every index claimed by exactly one shard");
}

#[test]
fn traced_sweep_is_schema_valid_and_covers_the_wall_clock() {
    let _guard = lock();
    let spec = small_spec();
    let out = with_memory_telemetry(Filter::parse("debug").expect("valid spec"), true, || {
        run_sweep(&spec, 2).expect("valid spec");
    });
    let records = parse_trace(&out).expect("every emitted line is schema-valid");
    let spans = spans_of(&records);
    let n_cells = 6 * 3 * 2;
    // No algorithm in the spec plans with α, so each (instance,
    // algorithm) pair solves once and is costed at both α.
    let n_solves = 6 * 3;

    let sweep = spans.iter().find(|s| s.name == "engine.sweep").expect("sweep root span");
    assert_eq!(sweep.parent, None);
    assert_eq!(
        spans.iter().filter(|s| s.name == "engine.cell").count(),
        n_cells,
        "one span per evaluated cell"
    );
    assert_eq!(
        spans.iter().filter(|s| s.name == "pipeline.run").count(),
        n_solves,
        "every solve runs the checked pipeline under a span"
    );

    // Per-job query-decision events at debug level, attributed to an
    // enclosing span.
    let decisions: Vec<_> = records
        .iter()
        .filter_map(|r| match r {
            TraceRecord::Event(e) if e.target == "qbss.decision" => Some(e),
            _ => None,
        })
        .collect();
    assert_eq!(decisions.len(), n_solves * 8, "one decision event per job per solve");
    assert!(decisions.iter().all(|e| e.span.is_some()));
    assert!(decisions.iter().all(|e| e.fields.get("tau").is_some()));

    // The engine's registry snapshot rides along in the stream.
    let metrics = records
        .iter()
        .find_map(|r| match r {
            TraceRecord::Metrics(m) if m.scope == "engine" => Some(m),
            _ => None,
        })
        .expect("engine metrics record");
    let hits = metrics.counters.get("engine.ctx.hits").copied().unwrap_or(0);
    let misses = metrics.counters.get("engine.ctx.misses").copied().unwrap_or(0);
    assert_eq!(hits + misses, n_solves as u64, "every solve hit or missed the context cache");

    // Acceptance: spans cover ≥95% of the trace's wall clock.
    let summary = summarize(&records);
    assert!(
        summary.coverage >= 0.95,
        "span coverage {:.3} below the 95% acceptance floor",
        summary.coverage
    );
}

#[test]
fn aggregates_are_byte_identical_with_telemetry_on_or_off() {
    let _guard = lock();
    qbss_telemetry::shutdown();
    let spec = small_spec();
    let baseline = run_sweep(&spec, 2).expect("valid spec").aggregate_json();

    // Full trace: spans on, debug events, memory sink.
    let mut traced = String::new();
    let _ = with_memory_telemetry(Filter::parse("debug").expect("valid"), true, || {
        traced = run_sweep(&spec, 2).expect("valid spec").aggregate_json();
    });
    assert_eq!(baseline, traced, "tracing must not perturb the deterministic aggregate");

    // Events-only stream (no spans), different shard count on top.
    let mut streamed = String::new();
    let _ = with_memory_telemetry(Filter::parse("trace").expect("valid"), false, || {
        streamed = run_sweep(&spec, 5).expect("valid spec").aggregate_json();
    });
    assert_eq!(baseline, streamed, "event streaming must not perturb the aggregate");
}
