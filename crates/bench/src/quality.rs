//! Quality baselines: pinned competitive-ratio scenarios and an
//! **exact** regression gate.
//!
//! Every quality scenario pins its generator seeds and the engine's
//! aggregates are byte-deterministic at any shard count, so two runs of
//! the same code produce *identical* ratio statistics. The rule is
//! therefore exact: **any** increase of a group's max ALG/OPT ratio or
//! of its bound headroom (measured max ÷ the proven Table 1 bound)
//! against the committed `BENCH_quality.json` is a regression, and so is
//! a dropped group or bound. Each finding carries the new run's
//! reproducible worst cell (seed, instance), so `--explain` output can
//! be regenerated and `qbss explain`-ed offline.
//!
//! `qbss quality record` evaluates the scenario table through
//! [`run_sweep`] and stores per-group `max / mean / p95` energy ratios,
//! the proven bound, the headroom and the worst cell in the shared
//! [`gate::Baseline`] envelope; the record/compare/gate protocol itself
//! lives in [`crate::gate`].

use qbss_analysis::stats::percentile_sorted;
use qbss_core::pipeline::Algorithm;
use qbss_instances::gen::{Compressibility, GenConfig, QueryModel, TimeModel};
use qbss_telemetry::{json_escape, json_f64, JsonValue};

use crate::engine::{run_sweep, InstanceSource, SweepSpec, WorstCell};
use crate::gate::{self, Baseline, Exact, Finding, GateError, Scenario};

/// The on-disk schema tag; bump on incompatible baseline changes.
pub const QUALITY_SCHEMA: &str = "qbss-quality-baseline/1";

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// A named, fully pinned quality workload: generator family × algorithm
/// set × α grid × seed range, as a sweep-spec builder.
pub type QualityScenario = Scenario<fn() -> SweepSpec>;

fn golden_common() -> SweepSpec {
    SweepSpec {
        source: InstanceSource::Generated {
            base: GenConfig::common_deadline(10, 8.0, 0),
            seeds: 0..50,
        },
        algorithms: vec![Algorithm::Crcd, Algorithm::Avrq, Algorithm::Bkpq],
        alphas: vec![2.0, 3.0],
        opt_fw_iters: 0,
    }
}

fn golden_online() -> SweepSpec {
    SweepSpec {
        source: InstanceSource::Generated {
            base: GenConfig::online_default(24, 0),
            seeds: 0..40,
        },
        algorithms: vec![Algorithm::Avrq, Algorithm::Bkpq, Algorithm::Oaq],
        alphas: vec![2.0, 3.0],
        opt_fw_iters: 0,
    }
}

/// Heavy-tailed compressibility: most payloads compress a lot, so the
/// query decision dominates the ratio — the family most sensitive to
/// changes in the golden-ratio query rule.
fn heavytail_online() -> SweepSpec {
    SweepSpec {
        source: InstanceSource::Generated {
            base: GenConfig {
                n: 16,
                seed: 0,
                time: TimeModel::Online { horizon: 4.0, min_len: 0.5, max_len: 4.0 },
                min_w: 0.5,
                max_w: 4.0,
                query: QueryModel::UniformFraction { lo: 0.1, hi: 0.6 },
                compress: Compressibility::HeavyTail,
            },
            seeds: 0..40,
        },
        algorithms: vec![Algorithm::Avrq, Algorithm::Bkpq],
        alphas: vec![2.0, 3.0],
        opt_fw_iters: 0,
    }
}

fn multi_machine() -> SweepSpec {
    SweepSpec {
        source: InstanceSource::Generated {
            base: GenConfig::online_default(12, 0),
            seeds: 0..16,
        },
        algorithms: vec![Algorithm::AvrqM { m: 3 }, Algorithm::AvrqMNonmig { m: 3 }],
        alphas: vec![3.0],
        opt_fw_iters: 4,
    }
}

/// Every named quality scenario, in canonical order.
pub fn scenarios() -> &'static [QualityScenario] {
    const TABLE: &[QualityScenario] = &[
        Scenario {
            name: "golden-common",
            description: "crcd+avrq+bkpq × 2 α × 50 common-deadline instances (n=10)",
            work: golden_common,
        },
        Scenario {
            name: "golden-online",
            description: "avrq+bkpq+oaq × 2 α × 40 online instances (n=24)",
            work: golden_online,
        },
        Scenario {
            name: "heavytail-online",
            description: "avrq+bkpq × 2 α × 40 heavy-tail online instances (n=16)",
            work: heavytail_online,
        },
        Scenario {
            name: "multi-machine",
            description: "avrq-m:3 + avrq-m-nonmig:3 × 16 online instances (n=12)",
            work: multi_machine,
        },
    ];
    TABLE
}

/// Looks up a quality scenario by name.
pub fn scenario(name: &str) -> Option<QualityScenario> {
    gate::find(scenarios(), name)
}

// ---------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------

/// Ratio statistics of one *(algorithm, α)* group of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupQuality {
    /// Canonical algorithm string.
    pub algorithm: String,
    /// The group's power exponent.
    pub alpha: f64,
    /// Max ALG/OPT energy ratio over the pinned seeds.
    pub max: f64,
    /// Mean energy ratio (canonical cell order).
    pub mean: f64,
    /// 95th percentile of the energy ratio.
    pub p95: f64,
    /// The proven Table 1 bound for this family at this α, if any.
    pub bound: Option<f64>,
    /// `max / bound` — how much of the proven bound the measured worst
    /// case consumes. `None` when no bound is proven for the family.
    pub headroom: Option<f64>,
    /// The reproducible argmax cell behind `max`.
    pub worst: Option<WorstCell>,
}

/// One recorded scenario: grid size plus per-group statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioQuality {
    /// Total cells evaluated (`spec.n_cells()`).
    pub cells: usize,
    /// Per-group stats, in spec order (algorithms outer, alphas inner).
    pub groups: Vec<GroupQuality>,
}

/// A recorded quality baseline (`BENCH_quality.json`).
pub type QualityBaseline = Baseline<ScenarioQuality>;

/// Evaluates `names` (all scenarios when empty) through the engine and
/// returns the recorded baseline. `shards = 0` uses all cores — the
/// statistics are byte-identical either way.
pub fn record(names: &[String], shards: usize) -> Result<QualityBaseline, GateError> {
    let mut out = std::collections::BTreeMap::new();
    for sc in gate::pick(scenarios(), names)? {
        let spec = (sc.work)();
        let report = run_sweep(&spec, shards)?;
        let n_alphas = spec.alphas.len();
        let dirty = |errors: usize| {
            GateError::Cells(format!("scenario `{}` had {errors} failed cell(s)", sc.name))
        };
        let mut groups = Vec::with_capacity(report.groups.len());
        for (gi, g) in report.groups.iter().enumerate() {
            if g.errors > 0 {
                return Err(dirty(g.errors));
            }
            let (alg_idx, alpha_idx) = (gi / n_alphas, gi % n_alphas);
            // p95 is not part of the engine digest; derive it from the
            // per-cell records the same canonical way the digest is.
            let mut ratios: Vec<f64> = report
                .records
                .iter()
                .filter(|r| r.algorithm == alg_idx && r.alpha == alpha_idx)
                .filter_map(|r| r.result.as_ref().ok().map(|m| m.energy_ratio))
                .collect();
            ratios.sort_by(f64::total_cmp);
            let digest = g.energy_ratio.as_ref().ok_or_else(|| dirty(0))?;
            groups.push(GroupQuality {
                algorithm: g.algorithm.clone(),
                alpha: g.alpha,
                max: digest.max,
                mean: digest.mean,
                p95: percentile_sorted(&ratios, 0.95),
                bound: g.energy_bound,
                headroom: g.energy_bound.map(|b| digest.max / b),
                worst: g.worst_cell,
            });
        }
        out.insert(sc.name.to_string(), ScenarioQuality { cells: spec.n_cells(), groups });
    }
    Ok(Baseline { build: gate::BuildInfo::capture(), scenarios: out })
}

// ---------------------------------------------------------------------
// Serialization and the exact rule
// ---------------------------------------------------------------------

fn json_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), json_f64)
}

fn json_worst(w: Option<WorstCell>) -> String {
    match w {
        None => "null".to_string(),
        Some(w) => format!(
            "{{\"instance\": {}, \"seed\": {}, \"energy_ratio\": {}}}",
            w.instance,
            w.seed.map_or_else(|| "null".to_string(), |s| s.to_string()),
            json_f64(w.energy_ratio)
        ),
    }
}

fn parse_group(g: &JsonValue) -> Result<GroupQuality, String> {
    let worst = match g.get("worst") {
        None | Some(JsonValue::Null) => None,
        Some(w) => Some(WorstCell {
            instance: w
                .get("instance")
                .and_then(JsonValue::as_u64)
                .ok_or("worst cell missing `instance`")? as usize,
            seed: w.get("seed").and_then(JsonValue::as_u64),
            energy_ratio: w.get("energy_ratio").and_then(JsonValue::as_f64).unwrap_or(f64::NAN),
        }),
    };
    Ok(GroupQuality {
        algorithm: gate::text(g, "algorithm")?.to_string(),
        alpha: gate::num(g, "alpha")?,
        max: gate::num(g, "max")?,
        mean: gate::num(g, "mean")?,
        p95: gate::num(g, "p95")?,
        bound: g.get("bound").and_then(JsonValue::as_f64),
        headroom: g.get("headroom").and_then(JsonValue::as_f64),
        worst,
    })
}

impl Exact for ScenarioQuality {
    const SCHEMA: &'static str = QUALITY_SCHEMA;
    const KIND: &'static str = "quality";
    const UNIT: &'static str = "group(s)";

    fn record(names: &[String]) -> Result<QualityBaseline, GateError> {
        record(names, 0)
    }

    fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .groups
            .iter()
            .map(|g| {
                format!(
                    "{{\"algorithm\": \"{}\", \"alpha\": {}, \"max\": {}, \"mean\": {}, \
                     \"p95\": {}, \"bound\": {}, \"headroom\": {}, \"worst\": {}}}",
                    json_escape(&g.algorithm),
                    json_f64(g.alpha),
                    json_f64(g.max),
                    json_f64(g.mean),
                    json_f64(g.p95),
                    json_opt(g.bound),
                    json_opt(g.headroom),
                    json_worst(g.worst),
                )
            })
            .collect();
        gate::json_rows(&format!("\"cells\": {}", self.cells), "groups", &rows)
    }

    fn parse(v: &JsonValue) -> Result<Self, String> {
        Ok(ScenarioQuality {
            cells: v.get("cells").and_then(JsonValue::as_u64).unwrap_or(0) as usize,
            groups: gate::arr(v, "groups")?.iter().map(parse_group).collect::<Result<_, _>>()?,
        })
    }

    /// A group regresses on **any** increase of its max ratio or
    /// headroom — seeds are pinned and aggregates byte-deterministic, so
    /// every difference is a real behavior change. A dropped group or
    /// bound regresses too; groups only present in `new` are
    /// informational.
    fn compare(name: &str, base: &Self, new: &Self, out: &mut Vec<Finding>) -> usize {
        let mut checked = 0;
        for bg in &base.groups {
            let key = format!("{} @ α={}", bg.algorithm, bg.alpha);
            let found = new
                .groups
                .iter()
                .find(|g| g.algorithm == bg.algorithm && g.alpha.to_bits() == bg.alpha.to_bits());
            let Some(ng) = found else {
                out.push(Finding::new(name, &key, "group removed"));
                continue;
            };
            checked += 1;
            // The new run's argmax cell exhibits the regression.
            let worst = ng.worst.map(|w| {
                let seed = w.seed.map_or("-".to_string(), |s| s.to_string());
                let (instance, ratio) = (w.instance, w.energy_ratio);
                format!("worst cell: seed {seed}, instance {instance}, ratio {ratio}")
            });
            let finding =
                |rule: &str| Finding { detail: worst.clone(), ..Finding::new(name, &key, rule) };
            if ng.max > bg.max {
                out.push(finding("max ratio").values(bg.max, ng.max));
            }
            match (bg.headroom, ng.headroom) {
                (Some(bh), Some(nh)) if nh > bh => {
                    out.push(finding("bound headroom").values(bh, nh));
                }
                (Some(_), None) => out.push(finding("bound removed")),
                _ => {}
            }
        }
        checked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{BuildInfo, Gate, Verdict};

    fn group(algorithm: &str, alpha: f64, max: f64, bound: Option<f64>) -> GroupQuality {
        GroupQuality {
            algorithm: algorithm.to_string(),
            alpha,
            max,
            mean: max * 0.8,
            p95: max * 0.95,
            bound,
            headroom: bound.map(|b| max / b),
            worst: Some(WorstCell { instance: 3, seed: Some(3), energy_ratio: max }),
        }
    }

    fn baseline(entries: &[(&str, Vec<GroupQuality>)]) -> QualityBaseline {
        QualityBaseline {
            build: BuildInfo { version: "0.0.0-test".into(), git: "deadbeef".into() },
            scenarios: entries
                .iter()
                .map(|(name, groups)| {
                    (name.to_string(), ScenarioQuality { cells: 10, groups: groups.clone() })
                })
                .collect(),
        }
    }

    fn rules(report: &gate::Findings) -> Vec<&str> {
        report.findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn scenario_table_is_well_formed() {
        let all = scenarios();
        assert!(all.len() >= 4);
        assert!(scenario("golden-common").is_some());
        assert!(scenario("nope").is_none());
        for s in all {
            let spec = (s.work)();
            assert!(spec.n_cells() > 0, "{}: empty grid", s.name);
            spec.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
        }
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let b = baseline(&[
            ("a", vec![group("avrq", 2.0, 2.1, Some(32.0)), group("oaq", 3.0, 3.4, None)]),
            ("b", vec![group("crcd", 2.0, 1.8, Some(4.0))]),
        ]);
        let json = b.to_json();
        let back = QualityBaseline::parse(&json).expect("round trip");
        assert_eq!(back, b);
        assert_eq!(back.to_json(), json, "canonical form is stable");
    }

    #[test]
    fn parse_rejects_foreign_or_broken_documents() {
        assert!(matches!(QualityBaseline::parse("{}"), Err(GateError::Parse { .. })));
        assert!(matches!(QualityBaseline::parse("not json"), Err(GateError::Parse { .. })));
        let wrong = "{\"schema\": \"qbss-quality-baseline/999\", \"scenarios\": {}}";
        let err = QualityBaseline::parse(wrong).expect_err("wrong schema");
        assert!(err.to_string().contains("schema"), "{err}");
        let json = baseline(&[("a", vec![group("avrq", 2.0, 2.1, None)])]).to_json();
        let err = QualityBaseline::parse(&json.replace("\"max\"", "\"maximum\""))
            .expect_err("missing field");
        assert!(err.to_string().contains("scenario `a`: missing number `max`"), "{err}");
    }

    #[test]
    fn identical_baselines_are_clean() {
        let b = baseline(&[("a", vec![group("avrq", 2.0, 2.1, Some(32.0))])]);
        let report = QualityBaseline::compare(&b, &b.clone());
        assert!(report.is_clean());
        assert_eq!(report.checked, 1);
        assert!(report.render().contains("no quality regression"));
    }

    #[test]
    fn any_increase_of_the_max_is_a_regression() {
        // The gate is exact: even a 1-ulp-ish increase regresses, with
        // no noise threshold to hide behind.
        let base = baseline(&[("a", vec![group("avrq", 2.0, 2.1, Some(32.0))])]);
        let new = baseline(&[("a", vec![group("avrq", 2.0, 2.1 + 1e-12, Some(32.0))])]);
        let report = QualityBaseline::compare(&base, &new);
        // Both the max and the headroom worsen (the bound is unchanged).
        assert_eq!(rules(&report), ["max ratio", "bound headroom"], "{report:?}");
        // A *decrease* is an improvement, not a regression.
        let better = baseline(&[("a", vec![group("avrq", 2.0, 2.0, Some(32.0))])]);
        assert!(QualityBaseline::compare(&base, &better).is_clean());
    }

    #[test]
    fn lost_coverage_is_a_regression() {
        let base = baseline(&[
            ("a", vec![group("avrq", 2.0, 2.1, Some(32.0)), group("bkpq", 2.0, 3.8, None)]),
            ("gone", vec![group("oaq", 3.0, 3.4, None)]),
        ]);
        let new = baseline(&[("a", vec![group("avrq", 2.0, 2.1, Some(32.0))])]);
        let report = QualityBaseline::compare(&base, &new);
        assert!(rules(&report).contains(&"scenario removed"), "{report:?}");
        assert!(rules(&report).contains(&"group removed"), "{report:?}");
        // Losing a proven bound while keeping the group also regresses.
        let unbounded = baseline(&[
            ("a", vec![group("avrq", 2.0, 2.1, None), group("bkpq", 2.0, 3.8, None)]),
            ("gone", vec![group("oaq", 3.0, 3.4, None)]),
        ]);
        let report = QualityBaseline::compare(&base, &unbounded);
        assert!(rules(&report).contains(&"bound removed"), "{report:?}");
    }

    #[test]
    fn explain_names_the_scenario_seed_and_instance() {
        let base = baseline(&[("golden-online", vec![group("avrq", 2.0, 2.1, Some(32.0))])]);
        let new = baseline(&[("golden-online", vec![group("avrq", 2.0, 2.5, Some(32.0))])]);
        let out = QualityBaseline::compare(&base, &new).render_explain();
        for needle in ["scenario `golden-online`", "avrq @ α=2", "max ratio", "seed 3",
            "instance 3"]
        {
            assert!(out.contains(needle), "missing `{needle}` in:\n{out}");
        }
    }

    #[test]
    fn record_is_deterministic_and_within_proven_bounds() {
        // The smallest scenario, recorded twice at different shard
        // counts: statistics must be byte-identical, every bounded
        // group must sit inside its Table 1 bound (headroom ≤ 1), and
        // every group must carry a reproducible worst cell.
        let names = vec!["multi-machine".to_string()];
        let a = record(&names, 1).expect("record");
        let b = record(&names, 2).expect("record");
        assert_eq!(a.scenarios, b.scenarios, "shard count must not matter");
        let s = a.scenarios.get("multi-machine").expect("recorded");
        assert!(!s.groups.is_empty());
        for g in &s.groups {
            assert!(g.max >= 1.0 && g.max >= g.p95 && g.p95 >= 0.0, "{g:?}");
            if let Some(h) = g.headroom {
                assert!(h <= 1.0, "measured max exceeds the proven bound: {g:?}");
            }
            let w = g.worst.expect("worst cell recorded");
            assert_eq!(w.energy_ratio, g.max, "worst cell must carry the max");
            assert!(w.seed.is_some(), "generated sources pin seeds");
        }
        let err = record(&["bogus".to_string()], 1).expect_err("unknown scenario");
        assert!(matches!(err, GateError::UnknownScenario { .. }));
    }
}
