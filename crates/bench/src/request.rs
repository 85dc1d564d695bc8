//! Request-scoped sweep specs: the JSON body of `POST /sweep` parsed
//! into a validated [`SweepSpec`] — the serve-mode twin of the CLI's
//! `qbss sweep` flags.
//!
//! Both front ends speak the same vocabulary (family and
//! compressibility names from `qbss_instances::gen`, algorithm names
//! from `Algorithm::from_str`, the same defaults) so a sweep described
//! on the command line and one POSTed to a server are the same sweep.
//! Errors split along the serve-mode status-code boundary: a body that
//! is not JSON at all is a [`RequestError::Syntax`] (HTTP 400), while
//! well-formed JSON describing an impossible sweep is a
//! [`RequestError::Spec`] (HTTP 422).

use std::fmt;

use qbss_core::pipeline::{Algorithm, ParseAlgorithmError, DEFAULT_FW_ITERS, DEFAULT_MACHINES};
use qbss_instances::gen::{Compressibility, GenConfig, QueryModel, TimeModel};
use qbss_telemetry::{json_parse, JsonValue};

use crate::engine::{InstanceSource, SweepSpec};

/// Why a sweep request body was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The body is not valid JSON (maps to HTTP 400).
    Syntax(String),
    /// The JSON does not describe a runnable sweep (maps to HTTP 422).
    Spec(String),
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Syntax(msg) => write!(f, "invalid JSON: {msg}"),
            RequestError::Spec(msg) => write!(f, "invalid sweep spec: {msg}"),
        }
    }
}

impl std::error::Error for RequestError {}

fn spec_err(msg: impl Into<String>) -> RequestError {
    RequestError::Spec(msg.into())
}

/// A parsed `POST /sweep` body: the sweep to run plus the shard count
/// (0 = auto, as on the CLI).
#[derive(Debug, Clone)]
pub struct SweepRequest {
    /// The validated sweep.
    pub spec: SweepSpec,
    /// Worker shards (0 lets the engine pick).
    pub shards: usize,
}

/// The admission cost of one `/evaluate` request: a single cell.
pub const EVALUATE_COST: u64 = 1;

const KNOWN_KEYS: &[&str] = &[
    "count", "n", "seed", "family", "compress", "alg", "alpha", "m", "fw_iters", "shards",
    "opt_fw_iters",
];

/// At most this many characters of a request's own text are quoted
/// back in an error, so a reply stays small whatever the body holds.
const EXCERPT_CHARS: usize = 32;

/// `s`, cut after [`EXCERPT_CHARS`] characters (with its full length)
/// when longer.
fn excerpt(s: &str) -> String {
    match s.char_indices().nth(EXCERPT_CHARS) {
        None => s.to_string(),
        Some((cut, _)) => format!("{}… ({} bytes)", &s[..cut], s.len()),
    }
}

/// Names a JSON value's type for an error, quoting at most an excerpt.
fn describe(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".to_string(),
        JsonValue::Bool(b) => format!("the boolean {b}"),
        JsonValue::Num(n) => format!("the number {n}"),
        JsonValue::Str(s) => format!("the string \"{}\"", excerpt(s)),
        JsonValue::Arr(items) => format!("an array of {} items", items.len()),
        JsonValue::Obj(fields) => format!("an object of {} fields", fields.len()),
    }
}

fn get_u64(obj: &JsonValue, key: &str, default: u64) -> Result<u64, RequestError> {
    match obj.get(key) {
        None => Ok(default),
        Some(JsonValue::Num(v)) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => {
            Ok(*v as u64)
        }
        Some(other) => Err(spec_err(format!(
            "`{key}` must be a non-negative integer, got {}",
            describe(other)
        ))),
    }
}

fn get_usize(obj: &JsonValue, key: &str, default: usize) -> Result<usize, RequestError> {
    usize::try_from(get_u64(obj, key, default as u64)?)
        .map_err(|_| spec_err(format!("`{key}` is out of range")))
}

fn get_str<'a>(obj: &'a JsonValue, key: &str, default: &'a str) -> Result<&'a str, RequestError> {
    match obj.get(key) {
        None => Ok(default),
        Some(JsonValue::Str(s)) => Ok(s),
        Some(other) => Err(spec_err(format!("`{key}` must be a string, got {}", describe(other)))),
    }
}

fn alpha_of(v: &JsonValue) -> Result<f64, RequestError> {
    match v {
        JsonValue::Num(a) if a.is_finite() && *a > 1.0 => Ok(*a),
        JsonValue::Num(a) => Err(spec_err(format!("`alpha` must be finite and exceed 1, got {a}"))),
        other => Err(spec_err(format!("`alpha` entries must be numbers, got {}", describe(other)))),
    }
}

fn algorithm_of(token: &str, m: usize, fw_iters: usize) -> Result<Vec<Algorithm>, RequestError> {
    if token.trim() == "all" {
        return Ok(Algorithm::all(m, fw_iters));
    }
    let alg: Algorithm = token
        .parse()
        .map_err(|_| spec_err(ParseAlgorithmError { input: excerpt(token) }.to_string()))?;
    // A bare family name takes the request-level machine count, the
    // same binding rule the CLI's `--alg` list applies.
    Ok(vec![if token.contains(':') { alg } else { alg.with_machines(m) }])
}

impl SweepRequest {
    /// Parses a request body. Every field is optional; the defaults are
    /// the CLI's (`family: "common"`, `alg: "all"`, `alpha: [3]`,
    /// `count: 100`, `n: 20`, …). Unknown keys are rejected so typos
    /// fail loudly instead of silently running the default sweep.
    pub fn from_json(body: &str) -> Result<SweepRequest, RequestError> {
        let root = json_parse(body).map_err(RequestError::Syntax)?;
        let JsonValue::Obj(fields) = &root else {
            return Err(spec_err("the request body must be a JSON object"));
        };
        for (key, _) in fields {
            if !KNOWN_KEYS.contains(&key.as_str()) {
                return Err(spec_err(format!(
                    "unknown key `{}` (one of: {})",
                    excerpt(key),
                    KNOWN_KEYS.join(", ")
                )));
            }
        }

        let count = get_u64(&root, "count", 100)?;
        let n = get_usize(&root, "n", 20)?;
        let seed = get_u64(&root, "seed", 0)?;
        let family = get_str(&root, "family", "common")?;
        let time = TimeModel::from_name(family, n).ok_or_else(|| {
            let names = TimeModel::NAMES.join(", ");
            spec_err(format!("unknown family `{}` (one of: {names})", excerpt(family)))
        })?;
        let compress_name = get_str(&root, "compress", "uniform")?;
        let compress = Compressibility::from_name(compress_name).ok_or_else(|| {
            spec_err(format!(
                "unknown compressibility `{}` (one of: {})",
                excerpt(compress_name),
                Compressibility::NAMES.join(", ")
            ))
        })?;
        let m = get_usize(&root, "m", DEFAULT_MACHINES)?;
        if m == 0 {
            return Err(spec_err("`m` must be at least 1"));
        }
        let fw_iters = get_usize(&root, "fw_iters", DEFAULT_FW_ITERS)?;

        let algorithms = match root.get("alg") {
            None => Algorithm::all(m, fw_iters),
            Some(JsonValue::Str(s)) => {
                let mut algs = Vec::new();
                for token in s.split(',') {
                    algs.extend(algorithm_of(token, m, fw_iters)?);
                }
                algs
            }
            Some(JsonValue::Arr(items)) => {
                let mut algs = Vec::new();
                for item in items {
                    let JsonValue::Str(token) = item else {
                        return Err(spec_err("`alg` array entries must be strings"));
                    };
                    algs.extend(algorithm_of(token, m, fw_iters)?);
                }
                algs
            }
            Some(other) => {
                return Err(spec_err(format!(
                    "`alg` must be a string or array of strings, got {}",
                    describe(other)
                )))
            }
        };

        let alphas = match root.get("alpha") {
            None => vec![3.0],
            Some(v @ JsonValue::Num(_)) => vec![alpha_of(v)?],
            Some(JsonValue::Arr(items)) => {
                items.iter().map(alpha_of).collect::<Result<Vec<f64>, RequestError>>()?
            }
            Some(other) => {
                return Err(spec_err(format!(
                    "`alpha` must be a number or array of numbers, got {}",
                    describe(other)
                )))
            }
        };

        let shards = get_usize(&root, "shards", 0)?;
        let opt_fw_iters = get_usize(&root, "opt_fw_iters", 8)?;

        let spec = SweepSpec {
            source: InstanceSource::Generated {
                base: GenConfig {
                    n,
                    seed: 0,
                    time,
                    min_w: 0.5,
                    max_w: 4.0,
                    query: QueryModel::UniformFraction { lo: 0.1, hi: 0.6 },
                    compress,
                },
                seeds: seed..seed.saturating_add(count),
            },
            algorithms,
            alphas,
            opt_fw_iters,
        };
        spec.validate().map_err(|e| spec_err(e.to_string()))?;
        Ok(SweepRequest { spec, shards })
    }

    /// The admission cost of this request in cells — `instances ×
    /// algorithms × alphas`, the exact unit of work the engine will
    /// run. Known from the parsed spec *before* any cell executes, so
    /// the serve plane can shed over-budget sweeps up front.
    pub fn cost(&self) -> u64 {
        self.spec.n_cells() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_sweep;

    #[test]
    fn empty_object_is_the_default_sweep() {
        let req = SweepRequest::from_json("{}").expect("defaults");
        assert_eq!(req.spec.n_instances(), 100);
        assert_eq!(req.spec.algorithms, Algorithm::all(DEFAULT_MACHINES, DEFAULT_FW_ITERS));
        assert_eq!(req.spec.alphas, vec![3.0]);
        assert_eq!(req.shards, 0);
    }

    #[test]
    fn request_matches_the_cli_spec_byte_for_byte() {
        // The same sweep described as a request and as CLI-style
        // parameters must aggregate identically.
        let req = SweepRequest::from_json(
            r#"{"count": 4, "n": 6, "alg": "avrq,bkpq", "alpha": [2, 3], "seed": 1}"#,
        )
        .expect("valid");
        let by_hand = SweepSpec {
            source: InstanceSource::Generated {
                base: GenConfig {
                    n: 6,
                    seed: 0,
                    time: TimeModel::from_name("common", 6).expect("known"),
                    min_w: 0.5,
                    max_w: 4.0,
                    query: QueryModel::UniformFraction { lo: 0.1, hi: 0.6 },
                    compress: Compressibility::Uniform,
                },
                seeds: 1..5,
            },
            algorithms: vec![Algorithm::Avrq, Algorithm::Bkpq],
            alphas: vec![2.0, 3.0],
            opt_fw_iters: 8,
        };
        let a = run_sweep(&req.spec, 1).expect("runs").aggregate_json();
        let b = run_sweep(&by_hand, 1).expect("runs").aggregate_json();
        assert_eq!(a, b);
    }

    #[test]
    fn alg_array_and_machine_binding() {
        let req = SweepRequest::from_json(r#"{"alg": ["avrq-m", "oaq-m:4:7"], "m": 3}"#)
            .expect("valid");
        assert_eq!(
            req.spec.algorithms,
            vec![Algorithm::AvrqM { m: 3 }, Algorithm::OaqM { m: 4, fw_iters: 7 }]
        );
    }

    #[test]
    fn syntax_and_spec_errors_split() {
        assert!(matches!(
            SweepRequest::from_json("{not json").unwrap_err(),
            RequestError::Syntax(_)
        ));
        for bad in [
            r#"{"alg": "yds"}"#,
            r#"{"family": "nope"}"#,
            r#"{"compress": "nope"}"#,
            r#"{"alpha": 1.0}"#,
            r#"{"alpha": "three"}"#,
            r#"{"m": 0}"#,
            r#"{"count": -1}"#,
            r#"{"typo_key": 1}"#,
            r#"{"count": 0}"#,
            "[1, 2]",
        ] {
            assert!(
                matches!(SweepRequest::from_json(bad), Err(RequestError::Spec(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn spec_errors_quote_at_most_an_excerpt() {
        let long = "a".repeat(200_000);
        for body in [
            format!(r#"{{"n": "{long}"}}"#),
            format!(r#"{{"family": ["{long}"]}}"#),
            format!(r#"{{"family": "{long}"}}"#),
            format!(r#"{{"compress": "{long}"}}"#),
            format!(r#"{{"alg": "{long}"}}"#),
            format!(r#"{{"alg": ["{long}"]}}"#),
            format!(r#"{{"alg": {{"{long}": 1}}}}"#),
            format!(r#"{{"alpha": "{long}"}}"#),
            format!(r#"{{"alpha": [2, "{long}"]}}"#),
            format!(r#"{{"{long}": 1}}"#),
        ] {
            let Err(RequestError::Spec(msg)) = SweepRequest::from_json(&body) else {
                panic!("{}: not a spec error", &body[..20]);
            };
            assert!(msg.len() < 300, "{} bytes: {}", msg.len(), excerpt(&msg));
        }
        let body = format!(r#"{{"n": "{long}"}}"#);
        let Err(RequestError::Spec(msg)) = SweepRequest::from_json(&body) else {
            panic!("not a spec error");
        };
        let a32 = "a".repeat(32);
        let want =
            format!("`n` must be a non-negative integer, got the string \"{a32}… (200000 bytes)\"");
        assert_eq!(msg, want);
    }

    #[test]
    fn shards_pass_through() {
        let req = SweepRequest::from_json(r#"{"shards": 4, "count": 2, "n": 4}"#).expect("valid");
        assert_eq!(req.shards, 4);
    }

    #[test]
    fn cost_is_the_engine_cell_count() {
        // 4 instances × 2 algorithms × 2 alphas = 16 cells.
        let req = SweepRequest::from_json(
            r#"{"count": 4, "n": 6, "alg": "avrq,bkpq", "alpha": [2, 3]}"#,
        )
        .expect("valid");
        assert_eq!(req.cost(), 16);
        assert_eq!(req.cost(), req.spec.n_cells() as u64);
        // The default sweep: 100 instances × |all| algorithms × 1 α.
        let req = SweepRequest::from_json("{}").expect("defaults");
        let n_algs = Algorithm::all(DEFAULT_MACHINES, DEFAULT_FW_ITERS).len() as u64;
        assert_eq!(req.cost(), 100 * n_algs);
    }
}
