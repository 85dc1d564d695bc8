//! `table1-sweep`: the paper's Table 1 grid through the sweep engine.
//!
//! The grid is cut into many short sweeps of one instance each. Every
//! sweep is a `qbss sweep` / `POST /sweep` request body, parsed by
//! `qbss_bench::SweepRequest` and run by a real
//! `qbss_bench::engine::run_sweep` call at one shard:
//!
//! * online — AVRQ, BKPQ, OAQ on the `online` family (n = 40): six
//!   cells per OPT solve;
//! * multi-machine — AVRQ(m), non-migratory AVRQ(m) at m = 3 on the
//!   `online` family (n = 24) with the 8-iteration Frank–Wolfe OPT
//!   certificate;
//! * offline — CRCD on `common`, CRP2D on `p2`, CRAD on `arbitrary`
//!   (n = 40).
//!
//! All at α ∈ {2, 3}. Set-up is parsing and validating every request
//! body of the pass. The same sweeps run in repeated passes; each
//! sweep's fastest time is its cost with the least host interference,
//! and throughput is the grid's cells over the sum of those minima.

use std::time::Instant;

use qbss_bench::engine::{run_sweep, EngineReport, InstanceSource, SweepSpec};
use qbss_bench::SweepRequest;
use qbss_core::model::QbssInstance;
use qbss_core::offline::{try_crad, try_crcd, try_crp2d};
use qbss_core::online::{try_avrq_m, try_avrq_m_nonmig};
use qbss_core::outcome::QbssOutcome;
use qbss_core::pipeline::Algorithm;
use qbss_core::stream::{arrival_ordered, solver_for};
use qbss_instances::gen::{generate, GenConfig};
use speed_scaling::multi::{multi_opt_frank_wolfe, opt_lower_bound};

use crate::stats::{self, Fnv};
use crate::trace::Tracer;
use crate::{elapsed_ns, substrate_spans, Args, Outcome, Prediction, RATIO_SLACK};

/// Sweeps per pass of each grid row: `(online, multi-machine, each
/// offline row)`.
///
/// The offline count is a statistical convenience: every offline row
/// runs in every pass at a few percent of its time. The online and
/// multi-machine counts fill the pass to 1001 sweeps, so at least ten
/// sweep latencies lie beyond p99, in the ratio that makes a traced
/// pass split its time as a replay of this grid did before any tuning:
/// BKP 48% of the engine's time, Frank–Wolfe 31%, YDS under 1%. The
/// ratio rests on the per-sweep costs of two traced passes on a 2-vCPU
/// host (online 4.8–6.1 ms, of which BKP 3.7–4.6; multi-machine
/// 31–37 ms, of which Frank–Wolfe 30–33). A traced run at these
/// weights gave BKP 46.8%, Frank–Wolfe 28.0%, YDS 0.4%.
const WEIGHTS: (usize, usize, usize) = (627, 53, 107);

#[derive(Debug, Clone, Copy)]
enum Grid {
    Online,
    Multi,
    Crcd,
    Crp2d,
    Crad,
}

/// The request body of one short sweep: a grid row on the generated
/// instance of `seed`.
fn body(grid: Grid, seed: u64) -> String {
    let (family, n, alg, extra) = match grid {
        Grid::Online => ("online", 40, "avrq,bkpq,oaq", ""),
        Grid::Multi => (
            "online",
            24,
            "avrq-m,avrq-m-nonmig",
            ", \"m\": 3, \"opt_fw_iters\": 8",
        ),
        Grid::Crcd => ("common", 40, "crcd", ""),
        Grid::Crp2d => ("p2", 40, "crp2d", ""),
        Grid::Crad => ("arbitrary", 40, "crad", ""),
    };
    format!(
        "{{\"count\": 1, \"n\": {n}, \"seed\": {seed}, \"family\": \"{family}\", \
         \"alg\": \"{alg}\", \"alpha\": [2, 3]{extra}}}"
    )
}

/// The pass's request bodies, the grid rows interleaved.
fn plan(seed: u64, tiny: bool) -> Vec<String> {
    let (online, multi, offline) = if tiny { (2, 1, 1) } else { WEIGHTS };
    let mut bodies = Vec::new();
    for i in 0..online.max(multi).max(offline) {
        let mut grids = Vec::new();
        if i < online {
            grids.push(Grid::Online);
        }
        if i < multi {
            grids.push(Grid::Multi);
        }
        if i < offline {
            grids.extend([Grid::Crcd, Grid::Crp2d, Grid::Crad]);
        }
        for grid in grids {
            // Instance seeds stay below 2^40, inside the request's
            // integer range.
            let instance_seed = stats::mix(seed, bodies.len() as u64) >> 24;
            bodies.push(body(grid, instance_seed));
        }
    }
    bodies
}

/// Parses and validates every request body, as `POST /sweep` does.
fn parse(bodies: &[String]) -> Result<Vec<SweepSpec>, String> {
    bodies
        .iter()
        .map(|b| {
            SweepRequest::from_json(b)
                .map(|r| r.spec)
                .map_err(|e| format!("{b}: {e}"))
        })
        .collect()
}

fn instance_of(spec: &SweepSpec) -> QbssInstance {
    match &spec.source {
        InstanceSource::Generated { base, seeds } => generate(&GenConfig {
            seed: seeds.start,
            ..*base
        }),
        InstanceSource::Explicit(v) => v[0].clone(),
    }
}

fn fingerprint(bodies: &[String], specs: &[SweepSpec]) -> Result<u64, String> {
    let mut h = Fnv::default();
    for (body, spec) in bodies.iter().zip(specs) {
        h.eat(body.as_bytes());
        h.eat(
            qbss_instances::io::to_json(&instance_of(spec))
                .map_err(|e| e.to_string())?
                .as_bytes(),
        );
    }
    Ok(h.finish())
}

/// Cells of one report that errored, broke a proven bound, or beat
/// the optimum.
fn wrong_cells(report: &EngineReport) -> u64 {
    let mut bad: u64 = report
        .groups
        .iter()
        .map(|g| g.errors as u64 + g.energy_violations + g.speed_violations)
        .sum();
    bad += report
        .records
        .iter()
        .filter(|r| {
            r.result
                .as_ref()
                .is_ok_and(|m| m.energy_ratio < 1.0 - RATIO_SLACK)
        })
        .count() as u64;
    bad
}

fn replay_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("replay {what}: {e}")
}

/// Replays the cells of one sweep through the layer functions, each
/// call under its own span beneath the sweep's span. Returns the number
/// of cells whose replayed energy differs from the engine's.
fn replay(
    t: &mut Tracer,
    parent: usize,
    spec: &SweepSpec,
    report: &EngineReport,
) -> Result<u64, String> {
    let inst = instance_of(spec);
    let opt = t.time_under(parent, "yds.solve", || inst.opt_cache());
    let clair = inst.clairvoyant_instance();
    let mut lower_bounds: Vec<((usize, u64), f64)> = Vec::new();
    let mut mismatches = 0;
    for (ai, &alg) in spec.algorithms.iter().enumerate() {
        for (xi, &alpha) in spec.alphas.iter().enumerate() {
            let outcome: QbssOutcome = match alg {
                Algorithm::Avrq | Algorithm::Bkpq | Algorithm::Oaq => {
                    let (arrive, finish) = substrate_spans(alg);
                    let mut solver = solver_for(alg).map_err(|e| replay_err("open", e))?;
                    let jobs = arrival_ordered(&inst);
                    t.time_under(parent, arrive, || {
                        jobs.into_iter()
                            .try_for_each(|j| solver.on_arrival(j).map(|_| ()))
                    })
                    .map_err(|e| replay_err("arrival", e))?;
                    t.time_under(parent, finish, || solver.finish())
                        .map_err(|e| replay_err("finish", e))?
                }
                Algorithm::Crcd => t
                    .time_under(parent, "offline.solve", || try_crcd(&inst))
                    .map_err(|e| replay_err("crcd", e))?,
                Algorithm::Crp2d => t
                    .time_under(parent, "offline.solve", || try_crp2d(&inst))
                    .map_err(|e| replay_err("crp2d", e))?,
                Algorithm::Crad => t
                    .time_under(parent, "offline.solve", || try_crad(&inst))
                    .map_err(|e| replay_err("crad", e))?,
                Algorithm::AvrqM { m } => {
                    t.time_under(parent, "multi.solve", || try_avrq_m(&inst, m))
                        .map_err(|e| replay_err("avrq-m", e))?
                        .outcome
                }
                Algorithm::AvrqMNonmig { m } => {
                    t.time_under(parent, "multi.solve", || try_avrq_m_nonmig(&inst, m))
                        .map_err(|e| replay_err("avrq-m-nonmig", e))?
                        .outcome
                }
                Algorithm::OaqM { .. } => return Err("OAQ(m) is not in the Table 1 grid".into()),
            };
            t.time_under(parent, "outcome.validate", || outcome.validate(&inst))
                .map_err(|e| replay_err("validate", e))?;
            let (energy, _max_speed) = t.time_under(parent, "outcome.energy", || {
                (outcome.energy(alpha), outcome.max_speed())
            });
            let baseline = if alg.machines() > 1 {
                let key = (alg.machines(), alpha.to_bits());
                match lower_bounds.iter().find(|(k, _)| *k == key) {
                    Some(&(_, lb)) => lb,
                    None => {
                        let lb = t.time_under(parent, "multi.fw", || {
                            opt_lower_bound(&clair, alg.machines(), alpha).max(
                                multi_opt_frank_wolfe(
                                    &clair,
                                    alg.machines(),
                                    alpha,
                                    spec.opt_fw_iters,
                                )
                                .lower_bound(),
                            )
                        });
                        lower_bounds.push((key, lb));
                        lb
                    }
                }
            } else {
                opt.energy(alpha)
            };
            let cell = ai * spec.alphas.len() + xi;
            let engine = report.records[cell]
                .result
                .as_ref()
                .map_err(|e| replay_err("cell", e))?;
            let ratio: f64 = if baseline <= 0.0 {
                1.0
            } else {
                energy / baseline
            };
            if engine.energy.to_bits() != energy.to_bits()
                || engine.energy_ratio.to_bits() != ratio.to_bits()
            {
                mismatches += 1;
            }
        }
    }
    Ok(mismatches)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let bodies = plan(args.seed, args.tiny);
    let specs = parse(&bodies)?;
    let mut out = Outcome {
        fingerprint: fingerprint(&bodies, &specs)?,
        ..Outcome::default()
    };
    let cells_per_pass: usize = specs.iter().map(SweepSpec::n_cells).sum();
    let (mut cache_hits, mut cache_total) = (0u64, 0u64);
    let passes = crate::run_passes(
        args,
        bodies.len(),
        || parse(&bodies),
        |specs, i, tracer| {
            let spec = &specs[i];
            let (report, ns, span) = match tracer {
                Some(t) => {
                    let id = t.enter("engine.run_sweep");
                    let report = run_sweep(spec, 1);
                    t.exit(id);
                    let ns = t.dur_ns(id);
                    (report, ns, Some((t, id)))
                }
                None => {
                    let t0 = Instant::now();
                    let report = run_sweep(spec, 1);
                    (report, elapsed_ns(t0), None)
                }
            };
            let report = report.map_err(|e| e.to_string())?;
            out.attempted += report.records.len() as u64;
            out.failed += wrong_cells(&report);
            let ins = &report.instrumentation;
            let hits = ins.ctx_hits + ins.opt_energy_hits + ins.multi_lb_hits;
            cache_hits += hits;
            cache_total += hits + ins.ctx_misses + ins.opt_energy_misses + ins.multi_lb_misses;
            if let Some((t, id)) = span {
                out.failed += replay(t, id, spec, &report)?;
            }
            Ok(ns)
        },
    )?;

    out.counters.clone_from(&passes.counters);
    let lat = stats::sorted(&passes.untraced.unit_ms());
    let m = &mut out.metrics;
    m.insert("setup_s", passes.setup_s);
    m.insert(
        "throughput_per_s",
        cells_per_pass as f64 / passes.untraced.total_s(),
    );
    m.insert("latency_p50_ms", stats::nearest_rank(&lat, 0.50));
    m.insert("latency_p99_ms", stats::nearest_rank(&lat, 0.99));
    m.insert("peak_rss_mb", stats::peak_rss_mb("self")?);
    out.notes.push(format!(
        "sweeps {} per pass ({cells_per_pass} cells), passes {}, latency samples {} \
         ({} beyond p99)",
        bodies.len(),
        passes.passes,
        lat.len(),
        stats::beyond(lat.len(), 0.99)
    ));
    if args.trace {
        out.metrics.insert(
            "engine.cache_hit_ratio",
            cache_hits as f64 / cache_total.max(1) as f64,
        );
        passes.report_ledger(&mut out, args, Prediction::Table1)?;
    }
    Ok(out)
}
