//! Instance (de)serialization with typed, located errors.
//!
//! QBSS instances — including the hidden exact loads — round-trip
//! through JSON so experiments are reproducible from recorded files and
//! the CLI can pipe instances between `generate`, `run` and `compare`
//! subcommands. A CSV interop format is provided for spreadsheets and
//! external trace tooling.
//!
//! JSON goes through the workspace's one reader, `qbss_telemetry`'s
//! [`JsonCursor`]: [`from_json`] walks `{"jobs": [...]}` and decodes
//! each job as soon as it is read through [`job_from_value`], the job
//! rule set that `qbss serve` session arrivals and `qbss stream` events
//! share. Both formats report an [`IoError`] carrying the offending
//! **line number** and, for semantically malformed jobs, the **job id**
//! and the underlying [`ModelError`]. The JSON grammar is strict:
//! `NaN`/`Infinity` are not JSON numbers, so such a token is a syntax
//! error naming its line.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use qbss_core::error::ModelError;
use qbss_core::model::{QJob, QbssInstance};
use qbss_core::outcome::QbssOutcome;
use qbss_telemetry::{json_escape, json_f64, JsonCursor, JsonError, JsonValue};

/// The CSV header emitted by [`to_csv`] and required by [`from_csv`].
pub const CSV_HEADER: &str = "id,release,deadline,query_load,upper_bound,exact";

/// A typed instance-I/O failure.
///
/// Line numbers are 1-based positions in the *original* text (comments
/// and blank lines included), so editors can jump straight to the
/// offending row.
#[derive(Debug)]
pub enum IoError {
    /// The file itself could not be read or written.
    File {
        /// Path that failed.
        path: PathBuf,
        /// Underlying OS error.
        source: std::io::Error,
    },
    /// The text is not well-formed JSON/CSV.
    Syntax {
        /// 1-based line of the offending token.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The text parsed, but a job violates the QBSS model.
    Model {
        /// 1-based line where the offending job starts.
        line: usize,
        /// The model violation (carries the job id).
        source: ModelError,
    },
    /// An in-memory instance is too malformed to serialize.
    Unserializable {
        /// The model violation (carries the job id).
        source: ModelError,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::File { path, source } => write!(f, "cannot access {}: {source}", path.display()),
            Self::Syntax { line, message } => write!(f, "line {line}: {message}"),
            Self::Model { line, source } => {
                write!(f, "line {line}: malformed job {}: {source}", source.job())
            }
            Self::Unserializable { source } => {
                write!(f, "cannot serialize malformed job {}: {source}", source.job())
            }
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::File { source, .. } => Some(source),
            Self::Syntax { .. } => None,
            Self::Model { source, .. } | Self::Unserializable { source } => Some(source),
        }
    }
}

// ---------------------------------------------------------------------------
// JSON writer
// ---------------------------------------------------------------------------

/// Serializes a **valid** instance to pretty JSON; a malformed instance
/// is rejected as [`IoError::Unserializable`] instead of producing a
/// file that cannot be read back.
pub fn to_json(inst: &QbssInstance) -> Result<String, IoError> {
    inst.validate().map_err(|source| IoError::Unserializable { source })?;
    let mut s = String::from("{\n  \"jobs\": [");
    for (i, j) in inst.jobs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\n      \"id\": {},\n      \"release\": {},\n      \"deadline\": {},\n      \
             \"query_load\": {},\n      \"upper_bound\": {},\n      \"exact\": {}\n    }}",
            j.id,
            j.release,
            j.deadline,
            j.query_load,
            j.upper_bound,
            j.reveal_exact(),
        ));
    }
    if !inst.jobs.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}");
    Ok(s)
}

/// Serializes an outcome (algorithm, decisions, schedule) to pretty
/// JSON for `run --save-outcome`. Infallible: non-finite numbers — which
/// only unvalidated outcomes can contain — are emitted as `null`.
pub fn outcome_to_json(out: &QbssOutcome) -> String {
    let mut s =
        format!("{{\n  \"algorithm\": \"{}\",\n  \"decisions\": [", json_escape(&out.algorithm));
    for (i, d) in out.decisions.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let split = d.split.map_or("null".into(), json_f64);
        s.push_str(&format!(
            "\n    {{ \"job\": {}, \"queried\": {}, \"split\": {split} }}",
            d.job, d.queried
        ));
    }
    if !out.decisions.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str(&format!(
        "],\n  \"schedule\": {{\n    \"machines\": {},\n    \"slices\": [",
        out.schedule.machines
    ));
    for (i, sl) in out.schedule.slices.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n      {{ \"job\": {}, \"machine\": {}, \"start\": {}, \"end\": {}, \"speed\": {} }}",
            sl.job,
            sl.machine,
            json_f64(sl.start),
            json_f64(sl.end),
            json_f64(sl.speed)
        ));
    }
    if !out.schedule.slices.is_empty() {
        s.push_str("\n    ");
    }
    s.push_str("]\n  }\n}");
    s
}

// ---------------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------------

/// The fields of a job object, in [`QJob::new_unchecked`]'s order.
const JOB_FIELDS: [&str; 6] = ["id", "release", "deadline", "query_load", "upper_bound", "exact"];

/// Decodes one job object: the one rule set behind instance files,
/// `qbss serve` session arrivals and `qbss stream` events. Each of
/// `id`, `release`, `deadline`, `query_load`, `upper_bound` and `exact`
/// must appear exactly once as a number, the id as an integer in `u32`
/// range; other keys are ignored. The job is not model-validated here:
/// instances validate whole, and the streaming engine rejects a
/// malformed arrival with its typed errors.
pub fn job_from_value(v: &JsonValue) -> Result<QJob, String> {
    let JsonValue::Obj(members) = v else {
        return Err("a job must be a JSON object".into());
    };
    let mut fields = [None; 6];
    for (key, value) in members {
        let Some(i) = JOB_FIELDS.iter().position(|f| f == key) else {
            continue;
        };
        if fields[i].is_some() {
            return Err(format!("job object repeats field `{key}`"));
        }
        let x = value.as_f64().ok_or_else(|| format!("job field `{key}` must be a number"))?;
        fields[i] = Some(x);
    }
    let mut x = [0.0; 6];
    for ((slot, field), name) in x.iter_mut().zip(fields).zip(JOB_FIELDS) {
        *slot = field.ok_or_else(|| format!("job object is missing field `{name}`"))?;
    }
    let id = x[0];
    if !(id >= 0.0 && id.fract() == 0.0 && id <= f64::from(u32::MAX)) {
        return Err(format!("job id must be a non-negative integer, got {id}"));
    }
    Ok(QJob::new_unchecked(id as u32, x[1], x[2], x[3], x[4], x[5]))
}

/// Walks `{"jobs": [...]}`, decoding each job as soon as it is read and
/// recording the byte offset where it starts; a job that breaks the
/// job rules is reported at that offset.
fn read_jobs(c: &mut JsonCursor<'_>, starts: &mut Vec<usize>) -> Result<Vec<QJob>, JsonError> {
    let mut jobs = None;
    c.expect(b'{')?;
    let mut open = !c.eat(b'}');
    while open {
        let key = c.string()?;
        c.expect(b':')?;
        if key != "jobs" {
            c.value()?;
        } else if jobs.is_some() {
            return Err(JsonError { pos: c.pos(), message: "duplicate `jobs` key".into() });
        } else {
            let mut list = Vec::new();
            c.expect(b'[')?;
            let mut more = !c.eat(b']');
            while more {
                let pos = c.pos();
                let job = job_from_value(&c.value()?);
                list.push(job.map_err(|message| JsonError { pos, message })?);
                starts.push(pos);
                more = c.more(b']')?;
            }
            jobs = Some(list);
        }
        open = c.more(b'}')?;
    }
    c.end()?;
    jobs.ok_or_else(|| JsonError { pos: c.pos(), message: "missing `jobs` array".into() })
}

/// The 1-based line of byte offset `pos`.
fn line_at(text: &str, pos: usize) -> usize {
    1 + text.as_bytes()[..pos.min(text.len())].iter().filter(|&&b| b == b'\n').count()
}

/// Parses an instance from JSON, then validates it. Syntax errors report
/// their line; model violations report the line where the offending job
/// starts and its id.
pub fn from_json(json: &str) -> Result<QbssInstance, IoError> {
    let mut starts = Vec::new();
    let jobs = read_jobs(&mut JsonCursor::new(json), &mut starts)
        .map_err(|e| IoError::Syntax { line: line_at(json, e.pos), message: e.message })?;
    finish(jobs, |i| line_at(json, starts[i]))
}

/// Builds the instance and maps a validation failure back to the source
/// line of the offending job (`line_of` maps a job's index to its line).
fn finish(jobs: Vec<QJob>, line_of: impl Fn(usize) -> usize) -> Result<QbssInstance, IoError> {
    let inst = QbssInstance::new(jobs);
    if let Err(source) = inst.validate() {
        let line = inst.jobs.iter().position(|j| j.id == source.job()).map_or(1, line_of);
        return Err(IoError::Model { line, source });
    }
    Ok(inst)
}

// ---------------------------------------------------------------------------
// Files
// ---------------------------------------------------------------------------

/// Writes an instance to a file as JSON.
pub fn write_file(inst: &QbssInstance, path: &Path) -> Result<(), IoError> {
    let json = to_json(inst)?;
    qbss_telemetry::debug!(
        "instances.io",
        { jobs = inst.jobs.len(), bytes = json.len(), path = path.display().to_string() },
        "writing instance to {}",
        path.display()
    );
    fs::write(path, json)
        .map_err(|source| IoError::File { path: path.to_path_buf(), source })
}

/// Reads and validates an instance from a JSON file.
pub fn read_file(path: &Path) -> Result<QbssInstance, IoError> {
    let json = fs::read_to_string(path)
        .map_err(|source| IoError::File { path: path.to_path_buf(), source })?;
    let inst = from_json(&json)?;
    qbss_telemetry::debug!(
        "instances.io",
        { jobs = inst.jobs.len(), bytes = json.len(), path = path.display().to_string() },
        "read instance from {}",
        path.display()
    );
    Ok(inst)
}

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

/// Serializes an instance to CSV with the header [`CSV_HEADER`] — the
/// interop format for spreadsheets and external trace tooling. Floats
/// are emitted with full round-trip precision.
pub fn to_csv(inst: &QbssInstance) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for j in &inst.jobs {
        out.push_str(&format!(
            "{},{},{},{},{},{}\n",
            j.id,
            j.release,
            j.deadline,
            j.query_load,
            j.upper_bound,
            j.reveal_exact()
        ));
    }
    out
}

/// Parses an instance from the CSV format of [`to_csv`] (header row
/// required; blank lines and `#` comments ignored), then validates it.
/// Line numbers in errors count *all* lines of the input, comments
/// included.
pub fn from_csv(csv: &str) -> Result<QbssInstance, IoError> {
    let mut rows = csv
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
    let (header_line, header) = rows
        .next()
        .ok_or(IoError::Syntax { line: 1, message: "empty CSV".into() })?;
    if header != CSV_HEADER {
        return Err(IoError::Syntax {
            line: header_line,
            message: format!("unexpected CSV header: `{header}`"),
        });
    }
    let mut jobs = Vec::new();
    let mut job_lines = Vec::new();
    for (lineno, line) in rows {
        let syntax =
            |message: String| IoError::Syntax { line: lineno, message };
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() != 6 {
            return Err(syntax(format!("expected 6 fields, got {}", fields.len())));
        }
        let id: u32 = fields[0].parse().map_err(|e| syntax(format!("bad id: {e}")))?;
        let mut v = [0.0f64; 5];
        for (slot, field) in v.iter_mut().zip(&fields[1..]) {
            *slot = field
                .parse::<f64>()
                .map_err(|e| syntax(format!("bad number `{field}`: {e}")))?;
        }
        // Validate per job so malformed data reports this line, and keep
        // instance-level checks (duplicate ids) for the `finish` pass.
        let job = QJob::try_new(id, v[0], v[1], v[2], v[3], v[4])
            .map_err(|source| IoError::Model { line: lineno, source })?;
        jobs.push(job);
        job_lines.push(lineno);
    }
    finish(jobs, |i| job_lines[i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};

    #[test]
    fn json_roundtrip() {
        let inst = generate(&GenConfig::online_default(25, 11));
        let back = from_json(&to_json(&inst).expect("serialize")).expect("roundtrip");
        assert_eq!(back, inst);
    }

    #[test]
    fn file_roundtrip() {
        let inst = generate(&GenConfig::common_deadline(10, 4.0, 3));
        let dir = std::env::temp_dir().join("qbss-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inst.json");
        write_file(&inst, &path).expect("write");
        let back = read_file(&path).expect("read");
        assert_eq!(back, inst);
    }

    #[test]
    fn invalid_json_rejected() {
        assert!(matches!(from_json("{"), Err(IoError::Syntax { .. })));
        assert!(matches!(from_json("{}"), Err(IoError::Syntax { .. })));
        assert!(from_json(r#"{"jobs": [{"id": 0}]}"#)
            .unwrap_err()
            .to_string()
            .contains("missing field `release`"));
        // A missing comma between the jobs on lines 3 and 4 is found at
        // the second job's `{`, on line 4.
        let job = |id| {
            format!(
                "{{\"id\": {id}, \"release\": 0, \"deadline\": 1, \"query_load\": 0.5, \
                 \"upper_bound\": 1, \"exact\": 0.5}}"
            )
        };
        let json = format!("{{\"jobs\": [\n  {},\n  {}\n  {}\n]}}", job(0), job(1), job(2));
        match from_json(&json) {
            Err(IoError::Syntax { line, message }) => {
                assert_eq!(line, 4, "{message}");
                assert!(message.contains("expected `,` or `]`"), "{message}");
            }
            other => panic!("expected a syntax error, got {other:?}"),
        }
        // A repeated field, a non-integer id and a string where a number
        // belongs each fail on the line their job starts.
        for job in [
            r#"{"id": 1, "release": 0, "release": 0, "deadline": 1, "query_load": 0.5,
                "upper_bound": 1, "exact": 0.5}"#,
            r#"{"id": 1.5, "release": 0, "deadline": 1, "query_load": 0.5,
                "upper_bound": 1, "exact": 0.5}"#,
            r#"{"id": 1, "release": "0", "deadline": 1, "query_load": 0.5,
                "upper_bound": 1, "exact": 0.5}"#,
        ] {
            let json = format!("{{\"jobs\": [\n{job}\n]}}");
            match from_json(&json) {
                Err(IoError::Syntax { line: 2, .. }) => {}
                other => panic!("expected a syntax error on line 2, got {other:?}"),
            }
        }
        // Nesting far past the reader's depth cap, under an ignored key,
        // is a syntax error rather than a stack overflow.
        let json = format!("{{\"jobs\": [], \"x\": {}}}", "[".repeat(20_000));
        let err = from_json(&json).unwrap_err();
        assert!(matches!(err, IoError::Syntax { line: 1, .. }), "{err}");
        assert!(err.to_string().contains("nesting"), "{err}");
    }

    #[test]
    fn json_model_errors_carry_line_and_id() {
        // Structurally valid JSON but a malformed job (c > w) on line 3.
        let json = "{\"jobs\":[\n  {\"id\":0,\"release\":0,\"deadline\":1,\"query_load\":0.5,\"upper_bound\":1,\"exact\":0.5},\n  {\"id\":7,\"release\":0,\"deadline\":1,\"query_load\":5.0,\"upper_bound\":1,\"exact\":0.5}\n]}";
        match from_json(json) {
            Err(IoError::Model { line, source }) => {
                assert_eq!(line, 3);
                assert_eq!(source.job(), 7);
                assert!(source.to_string().contains("query load"), "{source}");
            }
            other => panic!("expected a model error, got {other:?}"),
        }
    }

    #[test]
    fn json_rejects_nonfinite_tokens_as_syntax_errors_on_their_line() {
        for token in ["NaN", "Infinity", "-Infinity", "1e999"] {
            let json = format!(
                "{{\"jobs\":[\n{{\"id\":3,\"release\":0,\"deadline\":1,\n\"query_load\":{token},\
                 \"upper_bound\":1,\"exact\":0.5}}]}}"
            );
            match from_json(&json) {
                Err(IoError::Syntax { line, message }) => {
                    assert_eq!(line, 3, "{token}: {message}");
                    assert!(message.contains("expected a finite number"), "{token}: {message}");
                }
                other => panic!("{token}: expected a syntax error, got {other:?}"),
            }
        }
    }

    #[test]
    fn outcome_json_is_well_formed() {
        let inst = generate(&GenConfig::online_default(6, 2));
        let out = qbss_core::online::avrq(&inst);
        let json = outcome_to_json(&out);
        qbss_telemetry::json_parse(&json).expect("outcome JSON parses");
        assert!(json.contains("\"algorithm\": \"AVRQ\""));
        assert!(json.contains("\"slices\""));
    }

    #[test]
    fn csv_roundtrip() {
        let inst = generate(&GenConfig::online_default(20, 5));
        let back = from_csv(&to_csv(&inst)).expect("roundtrip");
        assert_eq!(back, inst);
    }

    #[test]
    fn csv_tolerates_comments_and_blank_lines() {
        let csv = "\
# a comment
id,release,deadline,query_load,upper_bound,exact

0,0.0,1.0,0.5,2.0,0.25
";
        let inst = from_csv(csv).expect("parse");
        assert_eq!(inst.len(), 1);
        assert_eq!(inst.jobs[0].reveal_exact(), 0.25);
    }

    #[test]
    fn csv_rejects_bad_header_and_rows() {
        assert!(from_csv("nope\n").is_err());
        let bad_arity = "id,release,deadline,query_load,upper_bound,exact\n0,1,2\n";
        assert!(from_csv(bad_arity).unwrap_err().to_string().contains("6 fields"));
        let bad_job = "id,release,deadline,query_load,upper_bound,exact\n0,0,1,5.0,1.0,0.5\n";
        assert!(from_csv(bad_job).unwrap_err().to_string().contains("malformed job"));
        let bad_num = "id,release,deadline,query_load,upper_bound,exact\n0,0,x,0.5,1.0,0.5\n";
        assert!(from_csv(bad_num).is_err());
    }

    #[test]
    fn csv_errors_carry_true_line_numbers() {
        let csv = "# leading comment\nid,release,deadline,query_load,upper_bound,exact\n\n0,0,1,5.0,1.0,0.5\n";
        match from_csv(csv) {
            // Job row is physical line 4 (comment and blank line counted).
            Err(IoError::Model { line: 4, source }) => assert_eq!(source.job(), 0),
            other => panic!("expected a model error on line 4, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_ids_rejected_at_instance_level() {
        let csv = "id,release,deadline,query_load,upper_bound,exact\n\
                   0,0,1,0.2,1.0,0.5\n0,0,2,0.2,1.0,0.5\n";
        let err = from_csv(csv).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn unserializable_instances_are_rejected() {
        use qbss_core::model::QJob;
        let inst = QbssInstance::new(vec![QJob::new_unchecked(0, 0.0, 1.0, f64::NAN, 1.0, 0.5)]);
        assert!(matches!(to_json(&inst), Err(IoError::Unserializable { .. })));
    }
}
