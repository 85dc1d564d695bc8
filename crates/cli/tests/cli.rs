//! End-to-end tests of the `qbss` binary's observability surface: exit
//! codes for bad `QBSS_LOG` specs, stdout purity under tracing, the
//! `trace summarize` round-trip, and aggregate byte-stability with
//! telemetry on. Each test runs the real binary in a subprocess, so the
//! process-global telemetry pipeline is isolated per invocation.

use std::path::PathBuf;
use std::process::{Command, Output};

use qbss_bench::gate::Gate;

fn qbss(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_qbss"));
    cmd.args(args).env_remove("QBSS_LOG");
    cmd
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "expected success, got {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("qbss-cli-e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

const SWEEP: &[&str] = &[
    "sweep", "--count", "4", "--n", "6", "--alg", "avrq,bkpq", "--alpha", "2", "--shards", "2",
];

#[test]
fn bad_qbss_log_spec_is_exit_2_on_every_instrumented_command() {
    for args in [&["run", "--alg", "avrq", "--in", "x.json"][..], SWEEP, &["generate"][..]] {
        let out = qbss(args)
            .env("QBSS_LOG", "engine=loud")
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("QBSS_LOG"), "{args:?}: {err}");
    }
}

#[test]
fn traced_csv_sweep_keeps_stdout_pure() {
    let trace = tmp("purity.jsonl");
    let out = run_ok(qbss(SWEEP).args(["--format", "csv", "--trace"]).arg(&trace));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.starts_with("algorithm,alpha,"), "CSV header first: {stdout}");
    assert!(
        !stdout.contains('{'),
        "no JSON (instrumentation or records) may leak onto stdout:\n{stdout}"
    );
    // Everything recorded went to the trace file, schema-valid, with
    // spans from the CLI boundary down to the solver loops.
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let records = qbss_telemetry::trace::parse_trace(&text).expect("schema-valid");
    let summary = qbss_telemetry::trace::summarize(&records);
    assert!(summary.spans > 0 && summary.metrics > 0, "{summary:?}");
    assert!(summary.coverage >= 0.95, "coverage {:.3}", summary.coverage);
    assert!(
        summary.tree.iter().any(|n| n.path.first().map(String::as_str) == Some("cli.sweep")),
        "cli.sweep is the root phase: {:?}",
        summary.tree
    );
}

#[test]
fn stderr_event_stream_is_pure_jsonl() {
    // A bare QBSS_LOG (no --trace) streams events to stderr; the
    // human status lines and the instrumentation JSON must fold into
    // that stream as records, not interleave with it.
    let out = run_ok(qbss(SWEEP).env("QBSS_LOG", "info"));
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    let records =
        qbss_telemetry::trace::parse_trace(&stderr).expect("stderr is record-per-line JSONL");
    assert!(
        records.iter().any(|r| matches!(
            r,
            qbss_telemetry::trace::TraceRecord::Event(e) if e.msg.starts_with("swept")
        )),
        "status line rides in the stream:\n{stderr}"
    );
    assert!(
        records
            .iter()
            .any(|r| matches!(r, qbss_telemetry::trace::TraceRecord::Metrics(m) if m.scope == "engine")),
        "instrumentation rides as a metrics record:\n{stderr}"
    );
}

#[test]
fn trace_summarize_round_trip() {
    let trace = tmp("summarize.jsonl");
    run_ok(qbss(SWEEP).arg("--trace").arg(&trace));
    let out = run_ok(qbss(&["trace", "summarize"]).arg(&trace).args(["--top", "2"]));
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("phase tree"), "{text}");
    assert!(text.contains("cli.sweep"), "{text}");
    assert!(text.contains("engine.cell"), "{text}");
    assert!(text.contains("slowest"), "{text}");

    // Unknown action and malformed traces are bad input (exit 2);
    // missing files are I/O failures (exit 3).
    let bad = qbss(&["trace", "explode"]).output().expect("runs");
    assert_eq!(bad.status.code(), Some(2));
    let missing = qbss(&["trace", "summarize", "/no/such/trace.jsonl"]).output().expect("runs");
    assert_eq!(missing.status.code(), Some(3));
}

#[test]
fn trace_commands_read_stdin_when_file_is_dash() {
    use std::io::Write;
    use std::process::Stdio;

    let trace = tmp("stdin.jsonl");
    run_ok(qbss(SWEEP).arg("--trace").arg(&trace));
    let bytes = std::fs::read(&trace).expect("trace written");

    // `qbss trace summarize -` digests the piped trace like the file.
    let mut child = qbss(&["trace", "summarize", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns");
    child.stdin.take().expect("stdin").write_all(&bytes).expect("pipe trace");
    let out = child.wait_with_output().expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let piped = String::from_utf8(out.stdout).expect("utf8");
    let from_file = run_ok(qbss(&["trace", "summarize"]).arg(&trace));
    assert_eq!(piped, String::from_utf8(from_file.stdout).expect("utf8"));

    // `qbss trace report -` renders the same HTML, and a malformed
    // stream is bad input (exit 2) attributed to stdin.
    let mut child = qbss(&["trace", "report", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns");
    child.stdin.take().expect("stdin").write_all(&bytes).expect("pipe trace");
    let out = child.wait_with_output().expect("runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("<!DOCTYPE html>"));

    let mut child = qbss(&["trace", "summarize", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns");
    child.stdin.take().expect("stdin").write_all(b"{not jsonl\n").expect("pipe junk");
    let out = child.wait_with_output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("stdin"));
}

#[test]
fn perf_gate_explain_prints_the_full_breakdown() {
    use qbss_bench::perf::{Baseline, EnvFingerprint, PerfConfig, ScenarioStats};
    use std::collections::BTreeMap;

    let stats = |samples: &[f64]| {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        let mut dev: Vec<f64> = samples.iter().map(|x| (x - median).abs()).collect();
        dev.sort_by(f64::total_cmp);
        ScenarioStats {
            cells: 1,
            samples_ms: samples.to_vec(),
            median_ms: median,
            mad_ms: dev[dev.len() / 2],
            min_ms: sorted[0],
        }
    };
    let baseline = |entries: &[(&str, &[f64])]| Baseline {
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
            .collect::<BTreeMap<String, ScenarioStats>>(),
        profiles: BTreeMap::new(),
        work_counters: BTreeMap::new(),
    };

    let base_path = tmp("explain_base.json");
    let slow_path = tmp("explain_slow.json");
    std::fs::write(&base_path, baseline(&[("a", &[100.0, 102.0, 98.0])]).to_json())
        .expect("write base");
    std::fs::write(&slow_path, baseline(&[("a", &[200.0, 202.0, 198.0])]).to_json())
        .expect("write slow");

    let out = qbss(&["perf", "gate", "--explain", "--base"])
        .arg(&base_path)
        .arg("--new")
        .arg(&slow_path)
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(3), "regression still exits 3 with --explain");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in
        ["scenario", "base ms", "mad ms", "new ms", "limit ms", "delta ms", "REGRESSED",
         "limit = base + max(3×mad, 0.25×base)"]
    {
        assert!(stdout.contains(needle), "missing `{needle}` in:\n{stdout}");
    }
}

#[test]
fn aggregate_bytes_do_not_depend_on_telemetry() {
    let plain = tmp("agg_plain.json");
    let traced = tmp("agg_traced.json");
    let trace = tmp("agg.jsonl");
    run_ok(qbss(SWEEP).arg("--out").arg(&plain));
    run_ok(
        qbss(SWEEP)
            .arg("--out")
            .arg(&traced)
            .arg("--trace")
            .arg(&trace)
            .env("QBSS_LOG", "debug"),
    );
    let a = std::fs::read(&plain).expect("plain aggregate");
    let b = std::fs::read(&traced).expect("traced aggregate");
    assert_eq!(a, b, "aggregate must be byte-identical with telemetry on or off");
    // The side-band instrumentation file still lands next to --out.
    assert!(std::fs::metadata(format!("{}.instr.json", plain.display())).is_ok());
}

/// One gate kind as the shared end-to-end protocol check drives it.
struct GateCase {
    kind: &'static str,
    /// `record` flags that pick one small scenario.
    record: &'static [&'static str],
    scenario: &'static str,
    /// Gate the record against itself with `--new` (wall clock is not
    /// repeatable) instead of a live re-measure (pinned kinds are).
    self_gate_new: bool,
    /// Rewrites a recorded baseline to claim better numbers than the
    /// code delivers, so gating the real numbers against it regresses.
    doctor: fn(&str) -> String,
    /// What `compare DOCTORED BASE` prints for the regression.
    worse: &'static str,
    /// What `gate --explain` must print for the doctored regression.
    explain: &'static [&'static str],
    /// What the gate's exit-3 message must carry on stderr.
    stderr: &'static str,
}

fn faster_perf(text: &str) -> String {
    let mut b = qbss_bench::perf::Baseline::parse(text).expect("schema-valid perf baseline");
    for s in b.scenarios.values_mut() {
        s.median_ms /= 10.0;
        s.mad_ms /= 10.0;
        s.min_ms /= 10.0;
        for x in &mut s.samples_ms {
            *x /= 10.0;
        }
    }
    b.to_json()
}

fn better_quality(text: &str) -> String {
    let mut b = qbss_bench::QualityBaseline::parse(text).expect("schema-valid quality baseline");
    for g in b.scenarios.values_mut().flat_map(|s| &mut s.groups) {
        g.max *= 0.5;
        if let Some(h) = g.headroom.as_mut() {
            *h *= 0.5;
        }
    }
    b.to_json()
}

fn cheaper_complexity(text: &str) -> String {
    let mut b =
        qbss_bench::ComplexityBaseline::parse(text).expect("schema-valid complexity baseline");
    for c in b.scenarios.values_mut().flat_map(|s| &mut s.counters) {
        for x in &mut c.counts {
            *x /= 2;
        }
    }
    b.to_json()
}

const PERF: GateCase = GateCase {
    kind: "perf",
    record: &["--scenarios", "ci-small", "--repeats", "2", "--warmup", "0", "--shards", "1"],
    scenario: "ci-small",
    self_gate_new: true,
    doctor: faster_perf,
    worse: "REGRESSED",
    explain: &["REGRESSED", "limit = base + max(3×mad, 0.25×base)"],
    stderr: "regressed",
};

const QUALITY: GateCase = GateCase {
    kind: "quality",
    record: &["--scenarios", "multi-machine"],
    scenario: "multi-machine",
    self_gate_new: false,
    doctor: better_quality,
    worse: "WORSE",
    explain: &["scenario `multi-machine`", "worst cell: seed"],
    stderr: "quality regression",
};

const COMPLEXITY: GateCase = GateCase {
    kind: "complexity",
    record: &["--scenarios", "oa-stream"],
    scenario: "oa-stream",
    self_gate_new: false,
    doctor: cheaper_complexity,
    worse: "WORSE",
    explain: &["scenario `oa-stream` counter `oa.", "op count at n="],
    stderr: "complexity regression",
};

/// Record, self-gate (exit 0), doctored base (compare exit 0, gate
/// `--explain` exit 3), `QBSS_BLESS=1` re-bless and an unknown scenario
/// (exit 2), the same for every gate kind.
fn gate_end_to_end(case: &GateCase) {
    let kind = case.kind;
    let base = tmp(&format!("{kind}_base.json"));
    let out = run_ok(qbss(&[kind, "record"]).args(case.record).arg("--out").arg(&base));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains(&format!("wrote {kind} baseline")),
        "{kind}"
    );
    let text = std::fs::read_to_string(&base).expect("baseline written");
    assert!(text.contains(&format!("\"{}\": {{", case.scenario)), "{kind}: {text}");

    // Gating a record against itself never regresses.
    let gate_cmd = |b: &std::path::Path| {
        let mut cmd = qbss(&[kind, "gate", "--base"]);
        cmd.arg(b);
        if case.self_gate_new {
            cmd.arg("--new").arg(&base);
        }
        cmd
    };
    let out = run_ok(&mut gate_cmd(&base));
    let verdict = format!("no {kind} regression");
    assert!(String::from_utf8_lossy(&out.stdout).contains(&verdict), "{kind}");

    // A baseline doctored to claim better numbers: compare reports
    // the regression (exit 0), gate fails on it (exit 3) and
    // --explain names it.
    let doctored = tmp(&format!("{kind}_doctored.json"));
    std::fs::write(&doctored, (case.doctor)(&text)).expect("write doctored baseline");
    let out = run_ok(qbss(&[kind, "compare"]).arg(&doctored).arg(&base));
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains(case.worse), "{kind}: {report}");
    let gate = gate_cmd(&doctored).arg("--explain").output().expect("runs");
    assert_eq!(gate.status.code(), Some(3), "{kind}: regression must exit 3");
    let stdout = String::from_utf8_lossy(&gate.stdout);
    for needle in case.explain {
        assert!(stdout.contains(needle), "{kind}: missing `{needle}` in:\n{stdout}");
    }
    assert!(String::from_utf8_lossy(&gate.stderr).contains(case.stderr), "{kind}");

    // QBSS_BLESS=1 re-blesses with the new record instead of failing.
    run_ok(gate_cmd(&doctored).env("QBSS_BLESS", "1"));
    let blessed = std::fs::read_to_string(&doctored).expect("re-blessed");
    assert_eq!(blessed, text, "{kind}: bless replaces the baseline with the new record");
    let out = run_ok(qbss(&[kind, "compare"]).arg(&base).arg(&doctored));
    assert!(String::from_utf8_lossy(&out.stdout).contains(&verdict), "{kind}");

    // Unknown scenario names are bad input.
    let bad = qbss(&[kind, "record", "--scenarios", "bogus"]).output().expect("runs");
    assert_eq!(bad.status.code(), Some(2), "{kind}");
}

#[test]
fn perf_record_compare_and_gate_end_to_end() {
    gate_end_to_end(&PERF);
}

#[test]
fn quality_record_gate_and_bless_end_to_end() {
    gate_end_to_end(&QUALITY);
}

#[test]
fn complexity_record_gate_and_bless_end_to_end() {
    gate_end_to_end(&COMPLEXITY);
}

#[test]
fn explain_factors_the_ratio_and_writes_the_timeline() {
    // JSON mode: the factors multiply back to the ratio within 1e-9.
    let out = run_ok(&mut qbss(&[
        "explain", "--alg", "avrq", "--n", "8", "--seed", "5", "--alpha", "2", "--format",
        "json",
    ]));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let v = qbss_telemetry::json_parse(stdout.trim()).expect("valid JSON");
    let num = |k: &str| v.get(k).and_then(qbss_telemetry::JsonValue::as_f64).expect("number");
    let product = num("query_loss") * num("split_loss") * num("sched_loss");
    let ratio = num("ratio");
    assert!((product - ratio).abs() <= 1e-9 * ratio.max(1.0), "{product} vs {ratio}");
    assert!(v.get("blame_job").is_some() && v.get("jobs").is_some(), "{stdout}");

    // Table mode names the blame job; --html writes a self-contained
    // timeline with both profiles and no scripts.
    let html_path = tmp("explain_timeline.html");
    let out = run_ok(
        qbss(&["explain", "--alg", "bkpq", "--n", "6", "--seed", "1", "--html"]).arg(&html_path),
    );
    let table = String::from_utf8(out.stdout).expect("utf8");
    assert!(table.contains("<- blame"), "{table}");
    assert!(table.contains("energy ratio:"), "{table}");
    let html = std::fs::read_to_string(&html_path).expect("timeline written");
    assert!(html.starts_with("<!DOCTYPE html>"));
    assert!(html.contains("ALG") && html.contains("OPT"), "legend carries both series");
    assert!(!html.contains("<script"), "no-scripts discipline");

    // A multi-machine algorithm has no YDS ladder to attribute against:
    // typed bad input, not a panic.
    let out = qbss(&["explain", "--alg", "avrq-m:2", "--n", "4"]).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("single-machine"));

    // --in with generator flags is contradictory input.
    let out = qbss(&["explain", "--alg", "avrq", "--in", "x.json", "--n", "4"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn version_reports_the_build_fingerprint() {
    let out = run_ok(&mut qbss(&["--version"]));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.starts_with("qbss "), "{stdout}");
    assert!(stdout.contains('(') && stdout.contains(')'), "git state present: {stdout}");
}

#[test]
fn version_describes_the_build_checkout_not_the_working_directory() {
    // A fresh, unrelated git repository with a commit of its own: the
    // fingerprint must still describe the checkout qbss was built from.
    let dir = tmp("unrelated-repo");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp repo");
    let git = |args: &[&str]| {
        let _ = Command::new("git").args(args).current_dir(&dir).output();
    };
    git(&["init", "-q"]);
    git(&["-c", "user.name=t", "-c", "user.email=t@example.com", "commit", "-q",
        "--allow-empty", "-m", "unrelated"]);
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let from_root = run_ok(qbss(&["--version"]).current_dir(root)).stdout;
    let from_repo = run_ok(qbss(&["--version"]).current_dir(&dir)).stdout;
    assert_eq!(
        String::from_utf8_lossy(&from_repo),
        String::from_utf8_lossy(&from_root),
        "the working directory leaked into the build fingerprint"
    );
}

#[test]
fn audited_sweep_is_clean_for_every_algorithm() {
    let out = run_ok(&mut qbss(&[
        "sweep", "--count", "2", "--n", "6", "--alg", "all", "--alpha", "2", "--shards", "2",
        "--audit", "--format", "csv",
    ]));
    let stderr = String::from_utf8_lossy(&out.stderr);
    // 2 instances × 9 configurations × 1 α, all audited, none in breach.
    assert!(stderr.contains("audit: checked 18 schedule(s), 0 violation(s)"), "{stderr}");
    assert!(!stderr.contains("invariant violation"), "{stderr}");
}

#[test]
fn trace_report_and_json_summary_agree_with_the_text_digest() {
    let trace = tmp("report.jsonl");
    run_ok(qbss(SWEEP).arg("--trace").arg(&trace));

    let json_out = run_ok(qbss(&["trace", "summarize"]).arg(&trace).args(["--format", "json"]));
    let json_text = String::from_utf8(json_out.stdout).expect("utf8");
    let summary = qbss_telemetry::json_parse(&json_text).expect("canonical JSON digest");
    let spans =
        summary.get("spans").and_then(qbss_telemetry::JsonValue::as_u64).expect("spans count");
    assert!(spans > 0);
    assert!(summary.get("tree").is_some() && summary.get("histograms").is_some());

    // The digest computed in-process matches what the CLI printed.
    let text = std::fs::read_to_string(&trace).expect("trace file");
    let records = qbss_telemetry::trace::parse_trace(&text).expect("schema-valid");
    assert_eq!(json_text.trim_end(), qbss_telemetry::trace::summarize(&records).to_json());

    let html_path = tmp("report.html");
    let out = run_ok(qbss(&["trace", "report"]).arg(&trace).arg("--out").arg(&html_path));
    assert!(String::from_utf8_lossy(&out.stderr).contains("wrote HTML report"));
    let html = std::fs::read_to_string(&html_path).expect("report written");
    assert!(html.starts_with("<!DOCTYPE html>"));
    assert!(html.contains("cli.sweep") && html.contains("engine.cell"), "phase tree rendered");
    for needle in ["http://", "https://", "src=", "href=", "@import", "url("] {
        assert!(!html.contains(needle), "external asset `{needle}` in report");
    }
}

#[test]
fn removed_aliases_are_rejected_as_unknown_flags() {
    let inst = tmp("alias_inst.json");
    run_ok(qbss(&["generate", "--n", "6", "--seed", "1", "--out"]).arg(&inst));
    for alias in [["--algorithm", "avrq"], ["--machines", "2"]] {
        let out = qbss(&["run"])
            .args(alias)
            .args(["--alg", "avrq", "--in"])
            .arg(&inst)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{alias:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag"), "{alias:?}: {err}");
    }
}

#[test]
fn stream_matches_run_bitwise_over_the_binary() {
    // The same seed yields the same instance as a document and as a
    // JSONL arrival stream; the streaming path must price it
    // bit-identically to the batch path.
    let inst = tmp("stream_inst.json");
    let ev = tmp("stream_events.jsonl");
    run_ok(qbss(&["generate", "--n", "12", "--seed", "7", "--out"]).arg(&inst));
    run_ok(qbss(&["generate", "--n", "12", "--seed", "7", "--events", "--out"]).arg(&ev));
    for alg in ["avrq", "bkpq", "oaq"] {
        let run_out =
            run_ok(qbss(&["run", "--alg", alg, "--in"]).arg(&inst).args(["--format", "json"]));
        let stream_out =
            run_ok(qbss(&["stream", "--alg", alg, "--in"]).arg(&ev).args(["--format", "json"]));
        let batch = qbss_telemetry::json_parse(&String::from_utf8(run_out.stdout).expect("utf8"))
            .expect("run JSON");
        let streamed =
            qbss_telemetry::json_parse(&String::from_utf8(stream_out.stdout).expect("utf8"))
                .expect("stream JSON");
        for key in ["energy", "max_speed"] {
            let a = batch.get(key).and_then(qbss_telemetry::JsonValue::as_f64).expect(key);
            let b = streamed.get(key).and_then(qbss_telemetry::JsonValue::as_f64).expect(key);
            assert_eq!(a.to_bits(), b.to_bits(), "{alg}/{key}");
        }
    }
}

#[test]
fn stream_rejects_numbers_json_forbids_naming_the_line() {
    // `+0`, `4.`, `.5` and `03` are not JSON numbers: the event on line 2
    // is bad input (exit 2), not a job.
    let ev = tmp("forbidden_numbers.jsonl");
    let good = "{\"type\": \"arrive\", \"id\": 0, \"release\": 0, \"deadline\": 4, \
                \"query_load\": 0.5, \"upper_bound\": 3, \"exact\": 1}";
    let bad = "{\"type\": \"arrive\", \"id\": 1, \"release\": +0, \"deadline\": 4., \
               \"query_load\": .5, \"upper_bound\": 03, \"exact\": 1}";
    std::fs::write(&ev, format!("{good}\n{bad}\n")).expect("events file");
    let out = qbss(&["stream", "--alg", "oaq", "--in"]).arg(&ev).output().expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("line 2"), "{stderr}");
    assert!(stderr.contains("expected a finite number"), "{stderr}");
}

#[test]
fn stream_reads_events_from_stdin() {
    use std::io::Write;
    use std::process::Stdio;
    let ev = tmp("stdin_events.jsonl");
    run_ok(qbss(&["generate", "--n", "8", "--seed", "3", "--events", "--out"]).arg(&ev));
    let body = std::fs::read(&ev).expect("events file");
    let mut child = qbss(&["stream", "--alg", "oaq", "--format", "csv"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    child.stdin.as_mut().expect("stdin").write_all(&body).expect("pipe");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.starts_with("algorithm,arrivals,advances,"), "{stdout}");
    assert!(stdout.contains("OAQ,8,0,8,"), "{stdout}");
}
