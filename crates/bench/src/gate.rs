//! The gate core shared by the perf, quality and complexity observatories.
//!
//! Each observatory pins a table of named scenarios, records them into a
//! schema-tagged baseline, and gates a fresh record against a committed
//! one (`qbss <kind> record|compare|gate`). This module holds everything
//! in that protocol that does not depend on what is measured:
//!
//! * [`BuildInfo`], the build fingerprint baselines and reports carry;
//! * [`Scenario`], one named table entry, with [`find`] and [`pick`];
//! * [`GateError`], the one error type of all three kinds;
//! * [`WorkMark`], the delta of catalogued work counters between two
//!   registry snapshots;
//! * [`Baseline`], the envelope the exact kinds share (schema tag,
//!   `build` block, sorted `scenarios`), with the coverage rule: a
//!   scenario of the base that the new record lacks is a regression;
//! * [`Finding`] and [`Findings`], an exact gate's regressions with
//!   their render and `--explain` text;
//! * [`Gate`] and [`Verdict`], what the CLI's one record/compare/gate
//!   path asks of a kind's baseline and of its report.
//!
//! A kind keeps only what differs: its scenario table, its measurement,
//! its per-scenario JSON body and its comparison rule. The exact kinds
//! ([`crate::quality`], [`crate::complexity`]) plug in through
//! [`Exact`]; the wall-clock kind ([`crate::perf`]) keeps its own
//! document and noise-aware report and implements [`Gate`] directly.

use std::collections::BTreeMap;
use std::fmt;

use qbss_core::work::is_work_counter;
use qbss_telemetry::{json_escape, json_parse, JsonValue};

use crate::engine::EngineError;

// ---------------------------------------------------------------------
// Build fingerprint
// ---------------------------------------------------------------------

/// The build that produced an artifact: crate version plus a best-effort
/// `git describe` string. Embedded in the exact baselines, loadgen
/// reports, and the serve plane's `/healthz` so a number on disk can be
/// traced back to the code that computed it. Informational only — the
/// gates never compare fingerprints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildInfo {
    /// Workspace crate version (`CARGO_PKG_VERSION`).
    pub version: String,
    /// `git describe --always --dirty --tags` output, or `"unknown"`
    /// when the source checkout is gone or is not a git checkout.
    pub git: String,
}

impl BuildInfo {
    /// Captures the fingerprint of the checkout this crate was built
    /// from. `git describe` runs in the crate's own source directory, so
    /// the process's working directory (another repository, `/tmp`)
    /// never leaks into the answer.
    pub fn capture() -> Self {
        let git = std::process::Command::new("git")
            .args(["describe", "--always", "--dirty", "--tags"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        Self { version: env!("CARGO_PKG_VERSION").to_string(), git }
    }

    /// One-line rendering, e.g. `qbss 0.1.0 (1fdad51)`.
    pub fn render(&self) -> String {
        format!("qbss {} ({})", self.version, self.git)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"version\": \"{}\", \"git\": \"{}\"}}",
            json_escape(&self.version),
            json_escape(&self.git)
        )
    }

    /// Reads a `build` block; missing fields read `"unknown"`.
    fn from_json(v: Option<&JsonValue>) -> Self {
        let field = |key: &str| {
            v.and_then(|b| b.get(key)).and_then(JsonValue::as_str).unwrap_or("unknown").to_string()
        };
        Self { version: field("version"), git: field("git") }
    }
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// One entry of a kind's scenario table: a stable name plus what the
/// kind runs for it (a sweep builder, an n-grid workload, …).
#[derive(Debug, Clone, Copy)]
pub struct Scenario<R> {
    /// Stable name (the baseline JSON key and the `--scenarios` token).
    pub name: &'static str,
    /// One-line description for `qbss <kind> record` output.
    pub description: &'static str,
    /// The kind's pinned workload.
    pub work: R,
}

/// The scenario called `name` in `table`.
pub fn find<R: Copy>(table: &[Scenario<R>], name: &str) -> Option<Scenario<R>> {
    table.iter().find(|s| s.name == name).copied()
}

/// The scenarios `names` selects from `table`, in `names` order, or the
/// whole table when `names` is empty.
pub fn pick<R: Copy>(
    table: &[Scenario<R>],
    names: &[String],
) -> Result<Vec<Scenario<R>>, GateError> {
    if names.is_empty() {
        return Ok(table.to_vec());
    }
    names
        .iter()
        .map(|n| {
            find(table, n).ok_or_else(|| GateError::UnknownScenario {
                name: n.clone(),
                known: table.iter().map(|s| s.name).collect(),
            })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Failures of every gate kind.
#[derive(Debug)]
pub enum GateError {
    /// `--scenarios` named something outside the kind's table.
    UnknownScenario {
        /// The name asked for.
        name: String,
        /// The kind's scenario names, in table order.
        known: Vec<&'static str>,
    },
    /// A baseline document did not match its kind's schema.
    Parse {
        /// The gate kind (`perf`, `quality`, `complexity`).
        kind: &'static str,
        /// What was wrong, with the scenario when one is to blame.
        reason: String,
    },
    /// The engine rejected a scenario spec (a bug in the scenario table).
    Engine(EngineError),
    /// Cells of a scenario failed to run (a bug in the scenario table);
    /// statistics over a partly failed grid would silently shrink
    /// coverage.
    Cells(String),
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::UnknownScenario { name, known } => {
                write!(f, "unknown scenario `{name}` (expected one of: {})", known.join(", "))
            }
            GateError::Parse { kind, reason } => write!(f, "invalid {kind} baseline: {reason}"),
            GateError::Engine(e) => write!(f, "scenario failed to run: {e}"),
            GateError::Cells(reason) => write!(f, "scenario cell failed to run: {reason}"),
        }
    }
}

impl std::error::Error for GateError {}

impl From<EngineError> for GateError {
    fn from(e: EngineError) -> Self {
        GateError::Engine(e)
    }
}

// ---------------------------------------------------------------------
// Work counters
// ---------------------------------------------------------------------

/// A snapshot of the global registry's counters. [`WorkMark::delta`]
/// is the work done since: counters count algorithmic progress only, so
/// bracketing a serial run with a mark gives its exact op counts.
pub struct WorkMark(BTreeMap<String, u64>);

impl WorkMark {
    /// Snapshots the global registry now.
    pub fn now() -> Self {
        Self(qbss_telemetry::metrics().counter_values())
    }

    /// The catalogued work counters (see
    /// [`qbss_core::work::WORK_COUNTERS`]) that moved since the mark,
    /// with their deltas; counters that did not move are omitted.
    pub fn delta(&self) -> BTreeMap<String, u64> {
        qbss_telemetry::metrics()
            .counter_values()
            .into_iter()
            .filter(|(name, _)| is_work_counter(name))
            .map(|(name, v)| {
                let d = v - self.0.get(&name).copied().unwrap_or(0);
                (name, d)
            })
            .filter(|&(_, d)| d > 0)
            .collect()
    }
}

// ---------------------------------------------------------------------
// JSON helpers
// ---------------------------------------------------------------------

/// A JSON object with one `"key": value` entry per line, entries indented
/// two spaces past `indent` and the closing brace at `indent`.
pub fn json_object<'a>(
    indent: &str,
    entries: impl IntoIterator<Item = (&'a String, String)>,
) -> String {
    let rows: Vec<String> = entries
        .into_iter()
        .map(|(k, v)| format!("{indent}  \"{}\": {v}", json_escape(k)))
        .collect();
    let sep = if rows.is_empty() { "" } else { "\n" };
    format!("{{\n{}{sep}{indent}}}", rows.join(",\n"))
}

/// The per-scenario body shape of the exact kinds: `{head, "key": [`,
/// one row per line, `]}`.
pub fn json_rows(head: &str, key: &str, rows: &[String]) -> String {
    let body: Vec<String> = rows.iter().map(|r| format!("      {r}")).collect();
    let sep = if body.is_empty() { "" } else { "\n" };
    format!("{{{head}, \"{key}\": [\n{}{sep}    ]}}", body.join(",\n"))
}

/// Checks a document's `schema` tag.
pub fn check_schema(v: &JsonValue, expected: &str) -> Result<(), String> {
    let schema = v.get("schema").and_then(JsonValue::as_str).unwrap_or_default();
    if schema == expected {
        Ok(())
    } else {
        Err(format!("schema `{schema}` (expected `{expected}`)"))
    }
}

/// A required number field.
pub fn num(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key).and_then(JsonValue::as_f64).ok_or_else(|| format!("missing number `{key}`"))
}

/// A required string field.
pub fn text<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    v.get(key).and_then(JsonValue::as_str).ok_or_else(|| format!("missing string `{key}`"))
}

/// A required array field.
pub fn arr<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    match v.get(key) {
        Some(JsonValue::Arr(items)) => Ok(items),
        Some(_) => Err(format!("`{key}` must be an array")),
        None => Err(format!("missing `{key}`")),
    }
}

/// A required object field, as its entries.
pub fn obj<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [(String, JsonValue)], String> {
    match v.get(key) {
        Some(JsonValue::Obj(entries)) => Ok(entries),
        Some(_) => Err(format!("`{key}` must be an object")),
        None => Err(format!("missing `{key}`")),
    }
}

/// Every item of a required array field as a non-negative integer.
pub fn uints(v: &JsonValue, key: &str) -> Result<Vec<u64>, String> {
    arr(v, key)?
        .iter()
        .map(|x| x.as_u64().ok_or_else(|| format!("`{key}` holds a non-integer")))
        .collect()
}

// ---------------------------------------------------------------------
// The protocol
// ---------------------------------------------------------------------

/// What the CLI's one `record|compare|gate` path asks of a report.
pub trait Verdict {
    /// `true` when nothing regressed.
    fn is_clean(&self) -> bool;
    /// One line per finding (or scenario) plus the [`Verdict::summary`].
    fn render(&self) -> String;
    /// The diagnostic rendering behind `gate --explain`.
    fn render_explain(&self) -> String;
    /// The verdict line alone, e.g. `2 quality regression(s)`.
    fn summary(&self) -> String;
}

/// A recorded baseline of one gate kind: the part of the protocol that
/// needs no measuring.
pub trait Gate: Sized {
    /// The kind's name: the CLI word and the error label.
    const KIND: &'static str;
    /// What [`Gate::compare`] reports.
    type Report: Verdict;
    /// Parses a document produced by [`Gate::to_json`].
    fn parse(input: &str) -> Result<Self, GateError>;
    /// Canonical, human-diffable JSON (trailing newline included).
    fn to_json(&self) -> String;
    /// The recorded scenario names, sorted.
    fn scenario_names(&self) -> Vec<String>;
    /// Diffs `new` against `base` under the kind's rule.
    fn compare(base: &Self, new: &Self) -> Self::Report;
}

// ---------------------------------------------------------------------
// The exact kinds' envelope
// ---------------------------------------------------------------------

/// One scenario's record in an exact kind: everything the kind adds to
/// the shared [`Baseline`] envelope.
pub trait Exact: Sized {
    /// The document's schema tag; bump on incompatible changes.
    const SCHEMA: &'static str;
    /// The kind's name (`quality`, `complexity`).
    const KIND: &'static str;
    /// What [`Findings::checked`] counts, for the verdict line.
    const UNIT: &'static str;
    /// `qbss <kind> record` flags beyond the shared `--out`,
    /// `--scenarios` and `--trace`.
    const RECORD_FLAGS: &'static [&'static str] = &[];
    /// Records `names` (the whole table when empty).
    fn record(names: &[String]) -> Result<Baseline<Self>, GateError>;
    /// The scenario's JSON body (see [`json_rows`]).
    fn to_json(&self) -> String;
    /// Parses a body written by [`Exact::to_json`]; the envelope names
    /// the scenario in the error.
    fn parse(v: &JsonValue) -> Result<Self, String>;
    /// Appends the findings of `new` against `base` for scenario `name`
    /// and returns how many units (groups, series) were checked.
    fn compare(name: &str, base: &Self, new: &Self, out: &mut Vec<Finding>) -> usize;
    /// The CSV view behind `record --format csv`, for kinds that list
    /// `format` in [`Exact::RECORD_FLAGS`].
    fn to_csv(_baseline: &Baseline<Self>) -> Option<String> {
        None
    }
}

/// A recorded exact baseline: the build fingerprint plus one record per
/// scenario. Serializes canonically (sorted scenario keys, fixed field
/// order), and — every input being pinned — two records of the same
/// build are byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline<S> {
    /// The build that produced these numbers (informational; the gate
    /// ignores it, so re-records on another commit still compare).
    pub build: BuildInfo,
    /// Records by scenario name (sorted).
    pub scenarios: BTreeMap<String, S>,
}

impl<S: Exact> Gate for Baseline<S> {
    const KIND: &'static str = S::KIND;
    type Report = Findings;

    fn parse(input: &str) -> Result<Self, GateError> {
        let bad = |reason: String| GateError::Parse { kind: S::KIND, reason };
        let v = json_parse(input).map_err(bad)?;
        check_schema(&v, S::SCHEMA).map_err(bad)?;
        let mut scenarios = BTreeMap::new();
        for (name, s) in obj(&v, "scenarios").map_err(bad)? {
            let record = S::parse(s).map_err(|e| bad(format!("scenario `{name}`: {e}")))?;
            scenarios.insert(name.clone(), record);
        }
        Ok(Baseline { build: BuildInfo::from_json(v.get("build")), scenarios })
    }

    fn to_json(&self) -> String {
        format!(
            "{{\n  \"schema\": \"{}\",\n  \"build\": {},\n  \"scenarios\": {}\n}}\n",
            json_escape(S::SCHEMA),
            self.build.to_json(),
            json_object("  ", self.scenarios.iter().map(|(k, s)| (k, s.to_json())))
        )
    }

    fn scenario_names(&self) -> Vec<String> {
        self.scenarios.keys().cloned().collect()
    }

    /// Exact diff: the kind's rule per scenario, plus the coverage rule
    /// (a dropped scenario regresses; a new one is informational).
    fn compare(base: &Self, new: &Self) -> Findings {
        let mut report = Findings { kind: S::KIND, unit: S::UNIT, ..Findings::default() };
        for (name, b) in &base.scenarios {
            match new.scenarios.get(name) {
                Some(n) => report.checked += S::compare(name, b, n, &mut report.findings),
                None => report.findings.push(Finding::new(name, "", "scenario removed")),
            }
        }
        report
    }
}

/// One exact regression: a scenario, the thing inside it that worsened,
/// the rule that fired, and the old → new values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Finding {
    /// Scenario name.
    pub scenario: String,
    /// What inside the scenario worsened, as the kind names it (a group
    /// `avrq @ α=2`, a ``counter `yds.intervals_scanned` ``); empty for
    /// scenario-level findings.
    pub key: String,
    /// The rule that fired: `max ratio`, `op count at n=800`,
    /// `scenario removed`, ….
    pub rule: String,
    /// The committed value, when the rule compares one.
    pub old: Option<f64>,
    /// The freshly measured value, when the rule compares one.
    pub new: Option<f64>,
    /// One more `--explain` line (the reproducible worst cell, a
    /// tolerance).
    pub detail: Option<String>,
}

impl Finding {
    /// A finding with no values (lost coverage).
    pub fn new(scenario: &str, key: &str, rule: &str) -> Self {
        Self { scenario: scenario.into(), key: key.into(), rule: rule.into(), ..Self::default() }
    }

    /// The finding with `old -> new` values.
    pub fn values(self, old: f64, new: f64) -> Self {
        Self { old: Some(old), new: Some(new), ..self }
    }
}

/// An exact gate's report: how much was checked and what worsened.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Findings {
    /// The kind (`quality`, `complexity`).
    pub kind: &'static str,
    /// What `checked` counts (`group(s)`, `counter series`).
    pub unit: &'static str,
    /// Units checked (present on both sides).
    pub checked: usize,
    /// Regressions, in scenario order.
    pub findings: Vec<Finding>,
}

fn or_dash(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |x| x.to_string())
}

impl Verdict for Findings {
    fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let key = if f.key.is_empty() { "-" } else { &f.key };
            out.push_str(&format!(
                "{}  {key}  {}  {} -> {}  WORSE\n",
                f.scenario,
                f.rule,
                or_dash(f.old),
                or_dash(f.new)
            ));
        }
        out + &self.summary() + "\n"
    }

    fn render_explain(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let key = if f.key.is_empty() { String::new() } else { format!(" {}", f.key) };
            out.push_str(&format!("scenario `{}`{key}: {}", f.scenario, f.rule));
            if let (Some(old), Some(new)) = (f.old, f.new) {
                out.push_str(&format!(" worsened {old} -> {new}"));
            }
            out.push('\n');
            if let Some(detail) = &f.detail {
                out.push_str(&format!("  {detail}\n"));
            }
        }
        out + &self.summary() + "\n"
    }

    fn summary(&self) -> String {
        if self.is_clean() {
            format!("no {} regression ({} {} checked)", self.kind, self.checked, self.unit)
        } else {
            format!("{} {} regression(s)", self.findings.len(), self.kind)
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    fn first_duplicate(names: &[&'static str]) -> Option<&'static str> {
        let mut seen = BTreeSet::new();
        names.iter().copied().find(|n| !seen.insert(*n))
    }

    fn names<R>(table: &[Scenario<R>]) -> Vec<&'static str> {
        table.iter().map(|s| s.name).collect()
    }

    #[test]
    fn scenario_names_are_unique_in_every_table() {
        // `record` keys its results by name, so a repeated name would
        // silently overwrite one scenario with another.
        assert_eq!(first_duplicate(&["a", "b", "a"]), Some("a"), "non-adjacent duplicate");
        assert_eq!(first_duplicate(&["a", "b", "c"]), None);
        assert_eq!(first_duplicate(&names(crate::perf::scenarios())), None, "perf");
        assert_eq!(first_duplicate(&names(crate::quality::scenarios())), None, "quality");
        assert_eq!(first_duplicate(&names(crate::complexity::scenarios())), None, "complexity");
    }

    #[test]
    fn pick_keeps_order_and_names_the_table_on_a_miss() {
        let table = [
            Scenario { name: "a", description: "", work: 1 },
            Scenario { name: "b", description: "", work: 2 },
        ];
        assert_eq!(pick(&table, &[]).expect("all").len(), 2);
        let picked = pick(&table, &["b".to_string(), "a".to_string()]).expect("known");
        assert_eq!(names(&picked), ["b", "a"]);
        let err = pick(&table, &["zz".to_string()]).expect_err("unknown");
        assert!(matches!(err, GateError::UnknownScenario { .. }));
        assert_eq!(err.to_string(), "unknown scenario `zz` (expected one of: a, b)");
    }

    #[test]
    fn build_info_captures_something() {
        let b = BuildInfo::capture();
        assert_eq!(b.version, env!("CARGO_PKG_VERSION"));
        assert!(!b.git.is_empty());
        assert!(b.render().starts_with("qbss "));
        assert_eq!(BuildInfo::from_json(None).git, "unknown");
    }

    #[test]
    fn json_helpers_write_the_committed_layout() {
        let empty: [(&String, String); 0] = [];
        assert_eq!(json_object("  ", empty), "{\n  }");
        let (a, b) = ("a".to_string(), "b".to_string());
        assert_eq!(
            json_object("  ", [(&a, "1".to_string()), (&b, "2".to_string())]),
            "{\n    \"a\": 1,\n    \"b\": 2\n  }"
        );
        let empty = json_rows("\"cells\": 3", "groups", &[]);
        assert_eq!(empty, "{\"cells\": 3, \"groups\": [\n    ]}");
        assert_eq!(
            json_rows("\"n\": 1", "xs", &["{}".to_string(), "{}".to_string()]),
            "{\"n\": 1, \"xs\": [\n      {},\n      {}\n    ]}"
        );
    }

    #[test]
    fn findings_render_and_explain() {
        let report = Findings {
            kind: "quality",
            unit: "group(s)",
            checked: 2,
            findings: vec![
                Finding {
                    detail: Some("worst cell: seed 3".into()),
                    ..Finding::new("s", "avrq @ α=2", "max ratio").values(2.0, 2.5)
                },
                Finding::new("gone", "", "scenario removed"),
            ],
        };
        assert!(!report.is_clean());
        let out = report.render();
        assert!(out.contains("s  avrq @ α=2  max ratio  2 -> 2.5  WORSE\n"), "{out}");
        assert!(out.contains("gone  -  scenario removed  - -> -  WORSE\n"), "{out}");
        assert!(out.ends_with("2 quality regression(s)\n"), "{out}");
        let out = report.render_explain();
        assert!(out.contains("scenario `s` avrq @ α=2: max ratio worsened 2 -> 2.5\n"), "{out}");
        assert!(out.contains("  worst cell: seed 3\n"), "{out}");
        assert!(out.contains("scenario `gone`: scenario removed\n"), "{out}");
        let clean = Findings { findings: Vec::new(), ..report };
        assert_eq!(clean.summary(), "no quality regression (2 group(s) checked)");
    }
}
