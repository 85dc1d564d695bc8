//! `stream-replay`: long online traces fed one arrival at a time
//! through `qbss_bench::StreamSession`, each trace to an AVRQ and an
//! OAQ session. Both sessions are finished and scored against one
//! `QbssInstance::opt_cache()` solve of the trace — what `qbss stream`
//! followed by the ratio `qbss run` prints costs, with the optimum
//! shared the way the sweep engine shares it across algorithms. A
//! replay of this workload measured before any tuning split its time
//! as validation ≈ 40%, substrate finish ≈ 30%, YDS ≈ 27%; solving the
//! optimum once per session instead would put YDS at ≈ 44%.
//!
//! BKPQ is left out: one 1600-job BKPQ session takes about a minute.
//!
//! Set-up is what a client does before the first arrival: loading each
//! trace from its JSON form (`qbss_instances::io::from_json`) and
//! opening its sessions. The same traces run in repeated passes. Every
//! arrival is a deterministic event, so each event's fastest time
//! across passes is its cost with the least host interference; the
//! per-arrival percentiles are taken over those per-event minima, and
//! throughput is the jobs fed in a pass over the sum of the per-trace
//! minima.

use std::time::Instant;

use qbss_bench::StreamSession;
use qbss_core::model::{QJob, QbssInstance};
use qbss_core::pipeline::{run_evaluated, Algorithm, Evaluated};
use qbss_core::stream::{arrival_ordered, solver_for};
use qbss_instances::gen::{generate, GenConfig};
use qbss_instances::io;

use crate::stats::{self, FastEnd, Fnv};
use crate::trace::Tracer;
use crate::{elapsed_ns, substrate_spans, Args, Outcome, Prediction, ALPHA, RATIO_SLACK};

const ALGORITHMS: [Algorithm; 2] = [Algorithm::Avrq, Algorithm::Oaq];

/// One trace of a pass, and the batch answers its sessions must
/// reproduce bit for bit (one per entry of [`ALGORITHMS`]).
struct Trace {
    inst: QbssInstance,
    /// The trace as a client loads it.
    json: String,
    arrivals: Vec<QJob>,
    expected: Vec<Evaluated>,
    /// Index of this trace's first arrival in the pass's event list;
    /// each session's arrivals follow the previous session's.
    first_event: usize,
}

fn plan(seed: u64, tiny: bool) -> Result<Vec<Trace>, String> {
    let (traces, n) = if tiny { (1, 60) } else { (4, 1600) };
    let mut out = Vec::new();
    let mut first_event = 0;
    for i in 0..traces {
        let inst = generate(&GenConfig::online_default(n, stats::mix(seed, i as u64)));
        let json = io::to_json(&inst).map_err(|e| e.to_string())?;
        let expected = ALGORITHMS
            .iter()
            .map(|&alg| run_evaluated(&inst, ALPHA, alg).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let arrivals = arrival_ordered(&inst);
        let events = arrivals.len() * ALGORITHMS.len();
        out.push(Trace {
            inst,
            json,
            arrivals,
            expected,
            first_event,
        });
        first_event += events;
    }
    Ok(out)
}

fn fingerprint(traces: &[Trace]) -> u64 {
    let mut h = Fnv::default();
    for alg in ALGORITHMS {
        h.eat(alg.to_string().as_bytes());
    }
    for tr in traces {
        h.eat(tr.json.as_bytes());
    }
    h.finish()
}

/// A trace's set-up: the trace loaded, one session opened per algorithm.
fn open(tr: &Trace) -> Result<Option<(QbssInstance, Vec<StreamSession>)>, String> {
    let inst = io::from_json(&tr.json).map_err(|e| format!("load trace: {e}"))?;
    let sessions = ALGORITHMS
        .iter()
        .map(|&alg| StreamSession::new(alg, ALPHA).map_err(|e| format!("open session: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Some((inst, sessions)))
}

/// Whether a finished session reproduces the batch run bit for bit and
/// scores at least the optimum.
fn matches(expected: &Evaluated, got: &Evaluated, ratio: f64) -> bool {
    got.energy.to_bits() == expected.energy.to_bits()
        && got.max_speed.to_bits() == expected.max_speed.to_bits()
        && got.outcome.decisions == expected.outcome.decisions
        && got.outcome.schedule.slices.len() == expected.outcome.schedule.slices.len()
        && ratio >= 1.0 - RATIO_SLACK
}

/// One untraced trace through the public `StreamSession` API, from the
/// first arrival to the last score. Returns `(trace ns, wrong
/// operations)`.
fn run_trace(tr: &Trace, sessions: Vec<StreamSession>, events: &mut FastEnd) -> (u64, u64) {
    let t_start = Instant::now();
    let mut wrong = 0;
    let mut event = tr.first_event;
    let mut finished = Vec::new();
    for mut session in sessions {
        for job in &tr.arrivals {
            let t0 = Instant::now();
            let res = session.arrive(*job);
            events.record(event, elapsed_ns(t0));
            event += 1;
            wrong += u64::from(res.is_err());
        }
        finished.push(session.finish());
    }
    let opt = tr.inst.opt_cache().energy(ALPHA);
    let scored: Vec<_> = finished
        .into_iter()
        .map(|f| f.map(|ev| (ev.energy / opt, ev)))
        .collect();
    let trace_ns = elapsed_ns(t_start);
    for (got, expected) in scored.iter().zip(&tr.expected) {
        wrong += match got {
            Ok((ratio, ev)) => u64::from(!matches(expected, ev, *ratio)),
            Err(_) => 1,
        };
    }
    (trace_ns, wrong)
}

/// One traced trace: the same work through the layer functions
/// `StreamSession` wraps, each under its own span.
fn trace_trace(t: &mut Tracer, tr: &Trace) -> Result<(u64, u64), String> {
    let root = t.enter("stream.trace");
    let mut wrong = 0;
    let mut evaluated = Vec::new();
    for alg in ALGORITHMS {
        let (arrive, finish) = substrate_spans(alg);
        let mut solver = solver_for(alg).map_err(|e| e.to_string())?;
        for job in &tr.arrivals {
            wrong += u64::from(t.time(arrive, || solver.on_arrival(*job)).is_err());
        }
        let outcome = t
            .time(finish, || solver.finish())
            .map_err(|e| e.to_string())?;
        let valid = t
            .time("outcome.validate", || outcome.validate(&tr.inst))
            .is_ok();
        wrong += u64::from(!valid);
        let (energy, max_speed) = t.time("outcome.energy", || {
            (outcome.energy(ALPHA), outcome.max_speed())
        });
        evaluated.push(Evaluated {
            outcome,
            energy,
            max_speed,
        });
    }
    let opt = t.time("yds.solve", || tr.inst.opt_cache()).energy(ALPHA);
    t.exit(root);
    for (ev, expected) in evaluated.iter().zip(&tr.expected) {
        wrong += u64::from(!matches(expected, ev, ev.energy / opt));
    }
    Ok((t.dur_ns(root), wrong))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let traces = plan(args.seed, args.tiny)?;
    let mut out = Outcome {
        fingerprint: fingerprint(&traces),
        ..Outcome::default()
    };
    let n_events: usize = traces
        .iter()
        .map(|tr| tr.arrivals.len() * ALGORITHMS.len())
        .sum();
    let mut events = FastEnd::new(n_events);
    let passes = crate::run_passes(
        args,
        traces.len(),
        || traces.iter().map(open).collect::<Result<Vec<_>, _>>(),
        |opened, i, tracer| {
            let tr = &traces[i];
            let (loaded, sessions) = opened[i].take().expect("each trace runs once a pass");
            // Loading the trace, and every arrival and finish of each
            // session, are operations.
            out.attempted += 1 + (tr.arrivals.len() as u64 + 1) * ALGORITHMS.len() as u64;
            out.failed += u64::from(loaded != tr.inst);
            let (ns, wrong) = match tracer {
                Some(t) => trace_trace(t, tr)?,
                None => run_trace(tr, sessions, &mut events),
            };
            out.failed += wrong;
            Ok(ns)
        },
    )?;

    out.counters.clone_from(&passes.counters);
    let lat = stats::sorted(&events.unit_ms());
    let m = &mut out.metrics;
    m.insert("setup_s", passes.setup_s);
    m.insert(
        "throughput_per_s",
        n_events as f64 / passes.untraced.total_s(),
    );
    m.insert("latency_p50_ms", stats::nearest_rank(&lat, 0.50));
    m.insert("latency_p99_ms", stats::nearest_rank(&lat, 0.99));
    m.insert("peak_rss_mb", stats::peak_rss_mb("self")?);
    out.notes.push(format!(
        "traces {} per pass ({n_events} arrivals), passes {}, latency samples {} \
         ({} beyond p99)",
        traces.len(),
        passes.passes,
        lat.len(),
        stats::beyond(lat.len(), 0.99)
    ));
    if args.trace {
        passes.report_ledger(&mut out, args, Prediction::Stream)?;
    }
    Ok(out)
}
