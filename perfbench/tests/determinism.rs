//! Runs every workload twice at a tiny size, untraced and traced, and
//! requires identical input fingerprints, identical work-counter
//! deltas, a correct result, and every metric `BENCHMARK.json` names
//! printed with its unit.

use std::path::{Path, PathBuf};
use std::process::Command;

use qbss_telemetry::{json_parse, JsonValue};

const WORKLOADS: [&str; 3] = ["table1-sweep", "stream-replay", "serve-traffic"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Builds the `qbss` binary the serve workload spawns, into the same
/// target directory `run.sh` uses.
fn qbss_binary() -> PathBuf {
    let root = repo_root();
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| root.join(".bench_build"), PathBuf::from);
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "qbss-cli",
        ])
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building qbss failed");
    target.join("release").join("qbss")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let root = json_parse(&text).expect("BENCHMARK.json parses");
    let Some(JsonValue::Arr(items)) = root.get(section) else {
        panic!("no `{section}` list")
    };
    items
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(JsonValue::as_str).expect("name");
            let unit = m.get("unit").and_then(JsonValue::as_str).expect("unit");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

struct Run {
    fingerprint: String,
    counters: String,
    stdout: String,
}

fn run(qbss: &Path, workload: &str, trace: u8) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--tiny",
        ])
        .args(["--trace", &trace.to_string()])
        .arg("--qbss")
        .arg(qbss)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let line = |prefix: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(prefix))
            .unwrap_or_else(|| panic!("{workload}: no `{prefix}` line"))
            .to_string()
    };
    Run {
        fingerprint: line("fingerprint "),
        counters: line("counters "),
        stdout,
    }
}

fn check_result(workload: &str, run: &Run, metrics: &[(String, String)]) {
    let last = run.stdout.lines().last().expect("output");
    let result = json_parse(last).expect("last line is JSON");
    assert!(
        matches!(result.get("correct"), Some(JsonValue::Bool(true))),
        "{workload}: incorrect result\n{}",
        run.stdout
    );
    assert_eq!(
        result.get("failed").and_then(JsonValue::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(result
        .get("attempted")
        .and_then(JsonValue::as_u64)
        .is_some_and(|n| n > 0));
    let Some(JsonValue::Obj(printed)) = result.get("metrics") else {
        panic!("no metrics object")
    };
    assert_eq!(
        printed.len(),
        metrics.len(),
        "{workload}: exactly the declared metrics"
    );
    for (name, unit) in metrics {
        let m = result
            .get("metrics")
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing\n{}", run.stdout));
        assert_eq!(
            m.get("unit").and_then(JsonValue::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            m.get("value")
                .and_then(JsonValue::as_f64)
                .is_some_and(f64::is_finite),
            "{name}"
        );
        assert!(
            run.stdout.lines().any(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                f.len() == 4 && f[0] == "metric" && f[1] == name && f[3] == unit
            }),
            "{workload}: metric {name} not printed with its unit"
        );
    }
}

#[test]
fn every_workload_repeats_exactly_and_prints_every_metric() {
    let qbss = qbss_binary();
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        for (trace, metrics) in [(0u8, &end_to_end), (1, &per_layer)] {
            let a = run(&qbss, workload, trace);
            let b = run(&qbss, workload, trace);
            assert_eq!(
                a.fingerprint, b.fingerprint,
                "{workload} trace={trace}: inputs differ"
            );
            assert_eq!(
                a.counters, b.counters,
                "{workload} trace={trace}: work counters differ"
            );
            assert!(a.counters.contains('='), "{workload}: no counters printed");
            check_result(workload, &a, metrics);
            check_result(workload, &b, metrics);
        }
    }
}

#[test]
fn seeds_change_the_inputs() {
    let qbss = qbss_binary();
    for workload in WORKLOADS {
        let a = run(&qbss, workload, 0);
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args([
                "--workload",
                workload,
                "--seed",
                "8",
                "--seconds",
                "1",
                "--tiny",
                "--trace",
                "0",
            ])
            .arg("--qbss")
            .arg(&qbss)
            .output()
            .expect("perfbench runs");
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        let other = stdout
            .lines()
            .find_map(|l| l.strip_prefix("fingerprint "))
            .expect("fingerprint");
        assert_ne!(
            a.fingerprint, other,
            "{workload}: seed 8 must differ from seed 7"
        );
    }
}
