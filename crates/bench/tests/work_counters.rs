//! The determinism contract of the work-counter observatory: op counts
//! are a pure function of the code under test. Same workload → same
//! counts, whatever the shard layout, log level, or batch/streaming
//! entry point. The CI gate job's complexity leg proves the byte-level
//! version of the same contract across two *cold* processes with
//! `cmp`; these tests pin the in-process invariants the gate's
//! exactness rests on.
//!
//! All tests share the process-global counter registry, so they
//! serialize on one lock and compare snapshot *deltas*, never absolute
//! counts.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use qbss_bench::complexity;
use qbss_bench::engine::{run_sweep, InstanceSource, SweepSpec};
use qbss_bench::gate::{Gate, WorkMark};
use qbss_core::online::{bkpq_profile, try_bkpq};
use qbss_core::pipeline::Algorithm;
use qbss_core::stream::{arrival_ordered, solver_for};
use qbss_instances::gen::{generate, GenConfig};
use qbss_telemetry::{Filter, RingSink, SinkTarget};
use speed_scaling::job::{Instance, Job};
use speed_scaling::multi::multi_opt_frank_wolfe;
use speed_scaling::oa::oa_profile;
use speed_scaling::stream::{release_ordered, OaStream};

/// Serializes the tests in this binary: counter deltas are only
/// meaningful when no other workload moves the global registry.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` and returns the positive work-counter deltas it caused.
fn work_delta<F: FnOnce()>(f: F) -> BTreeMap<String, u64> {
    let mark = WorkMark::now();
    f();
    mark.delta()
}

/// The classical view of the pinned online family — the same mapping
/// `complexity::record`'s scenarios use.
fn online_instance(n: usize, seed: u64) -> Instance {
    let q = generate(&GenConfig::online_default(n, seed));
    Instance::new(
        q.jobs
            .iter()
            .map(|j| Job::new(j.id, j.release, j.deadline, j.upper_bound))
            .collect(),
    )
}

#[test]
fn complexity_record_is_byte_identical_across_runs() {
    let _guard = lock();
    let names = vec!["avr-stream".to_string(), "oa-stream".to_string()];
    let first = complexity::record(&names).expect("first record");
    let second = complexity::record(&names).expect("second record");
    // Counters are cumulative process globals, but the record brackets
    // every cell with snapshots and stores deltas — so a re-record in
    // the same (now warm) process must still serialize byte-for-byte.
    assert_eq!(first.to_json(), second.to_json(), "records must be byte-identical");
}

#[test]
fn sweep_counter_totals_are_shard_independent() {
    let _guard = lock();
    let spec = || SweepSpec {
        source: InstanceSource::Generated {
            base: GenConfig::online_default(60, 0),
            seeds: 0..4,
        },
        algorithms: vec![Algorithm::Avrq, Algorithm::Oaq],
        alphas: vec![3.0],
        opt_fw_iters: 0,
    };
    let one = work_delta(|| {
        run_sweep(&spec(), 1).expect("sweep shards=1");
    });
    let two = work_delta(|| {
        run_sweep(&spec(), 2).expect("sweep shards=2");
    });
    let four = work_delta(|| {
        run_sweep(&spec(), 4).expect("sweep shards=4");
    });
    assert!(!one.is_empty(), "the sweep must move work counters");
    assert_eq!(one, two, "shards=2 must do identical work");
    assert_eq!(one, four, "shards=4 must do identical work");
}

#[test]
fn a_sweep_solves_each_alpha_independent_pair_once() {
    let _guard = lock();
    let spec = |algorithms: Vec<Algorithm>, alphas: Vec<f64>| SweepSpec {
        source: InstanceSource::Generated {
            base: GenConfig::common_deadline(12, 8.0, 0),
            seeds: 0..3,
        },
        algorithms,
        alphas,
        opt_fw_iters: 0,
    };
    let sweep = |algorithms: Vec<Algorithm>, alphas: Vec<f64>| {
        work_delta(|| {
            run_sweep(&spec(algorithms, alphas), 1).expect("valid spec");
        })
    };
    // Every single-machine algorithm: the common-deadline family keeps
    // the offline ones in scope.
    let independent = || Algorithm::all(2, 4).into_iter().filter(|a| a.machines() == 1).collect();
    let one = sweep(independent(), vec![3.0]);
    let three = sweep(independent(), vec![2.0, 2.5, 3.0]);
    let solver_work = |d: &BTreeMap<String, u64>| -> BTreeMap<String, u64> {
        d.iter()
            .filter(|(name, _)| !name.starts_with("cache.opt_energy."))
            .map(|(name, &count)| (name.clone(), count))
            .collect()
    };
    assert!(one.get("solver.events").is_some_and(|&n| n > 0), "{one:?}");
    assert!(one.get("yds.intervals_scanned").is_some_and(|&n| n > 0), "{one:?}");
    assert_eq!(solver_work(&one), solver_work(&three), "more α must not mean more solves");
    assert!(three.get("cache.opt_energy.misses") > one.get("cache.opt_energy.misses"));

    // OAQ(m) plans with α: three α are three solves. The three
    // one-α sweeps build each instance's context three times, the
    // three-α sweep once.
    let oaq_m = || vec![Algorithm::OaqM { m: 2, fw_iters: 4 }];
    let joint = sweep(oaq_m(), vec![2.0, 2.5, 3.0]);
    let mut separate = BTreeMap::new();
    for alpha in [2.0, 2.5, 3.0] {
        for (name, count) in sweep(oaq_m(), vec![alpha]) {
            *separate.entry(name).or_insert(0) += count;
        }
    }
    let contexts = work_delta(|| {
        for seed in 0..3 {
            let _ = generate(&GenConfig::common_deadline(12, 8.0, seed)).opt_cache();
        }
    });
    let mut joint_plus_contexts = joint.clone();
    for (name, count) in &contexts {
        *joint_plus_contexts.entry(name.clone()).or_insert(0) += 2 * count;
    }
    assert!(joint.get("fw.iterations").is_some_and(|&n| n > 0), "{joint:?}");
    assert_eq!(joint_plus_contexts, separate, "OAQ(m) solves once per α");
}

#[test]
fn batch_bkpq_probes_only_in_its_finish() {
    let _guard = lock();
    let n = 40;
    let inst = generate(&GenConfig::online_default(n, 3));
    let queries = |d: &BTreeMap<String, u64>| d.get("bkp.intensity_queries").copied();
    let batch = work_delta(|| {
        try_bkpq(&inst).expect("bkpq runs");
    });
    // BKP on the derived instance: a probe-free feed, then one query per
    // grid midpoint.
    let finish = work_delta(|| {
        let _ = bkpq_profile(&inst);
    });
    assert!(queries(&finish).is_some_and(|q| q > 0), "{finish:?}");
    assert_eq!(queries(&batch), queries(&finish), "the batch feed must not probe");
    // A session still answers each arrival with a speed delta: two
    // probes per arrival, bar the first arrival's probe of an empty view.
    let session = work_delta(|| {
        let mut solver = solver_for(Algorithm::Bkpq).expect("bkpq streams");
        for job in arrival_ordered(&inst) {
            solver.on_arrival(job).expect("in-order feed");
        }
        solver.finish().expect("outcome");
    });
    assert_eq!(queries(&session), queries(&batch).map(|q| q + 2 * n as u64 - 1));
}

#[test]
fn bkp_finish_computes_few_windows_per_query() {
    let _guard = lock();
    // Table 1's BKPQ row: the online family at n = 40, fed in one batch.
    let work = work_delta(|| {
        for seed in 0..4 {
            try_bkpq(&generate(&GenConfig::online_default(40, seed))).expect("bkpq runs");
        }
    });
    let count = |name: &str| work.get(name).copied().unwrap_or(0);
    assert!(count("bkp.intensity_queries") > 0, "{work:?}");
    // A sweep per query evaluated about 360 windows on these seeds; the
    // intensity table recomputes only the ones an arrival or a joining
    // release changes, about 80.
    assert!(count("bkp.window_slides") <= 150 * count("bkp.intensity_queries"), "{work:?}");
}

#[test]
fn frank_wolfe_line_searches_cost_a_few_gradient_passes() {
    let _guard = lock();
    // Table 1's multi-machine certificate: the clairvoyant online
    // instance at n = 24, m = 3, eight iterations, α ∈ {2, 3}.
    let work = work_delta(|| {
        for seed in 0..4 {
            let clair = generate(&GenConfig::online_default(24, seed)).clairvoyant_instance();
            for alpha in [2.0, 3.0] {
                let _ = multi_opt_frank_wolfe(&clair, 3, alpha, 8);
            }
        }
    });
    let count = |name: &str| work.get(name).copied().unwrap_or(0);
    assert!(count("fw.gradient_evals") > 0, "{work:?}");
    // Golden section made 51 energy evaluations per step, one interval
    // pass each; the slope search makes about ten.
    assert!(count("fw.line_evals") <= 16 * count("fw.gradient_evals"), "{work:?}");
}

#[test]
fn log_level_does_not_change_op_counts() {
    let _guard = lock();
    let workload = || {
        let inst = online_instance(250, 0);
        let mut s = OaStream::new();
        for job in release_ordered(&inst) {
            s.on_arrival(job);
        }
        let _ = s.finish();
        run_sweep(
            &SweepSpec {
                source: InstanceSource::Generated {
                    base: GenConfig::online_default(40, 0),
                    seeds: 0..2,
                },
                algorithms: vec![Algorithm::Avrq],
                alphas: vec![3.0],
                opt_fw_iters: 0,
            },
            1,
        )
        .expect("sweep");
    };
    // Telemetry disabled (the default test state) …
    qbss_telemetry::shutdown();
    let silent = work_delta(workload);
    // … versus a verbose `QBSS_LOG=debug`-equivalent pipeline with
    // spans on: counters count algorithmic progress, not log traffic.
    let ring = RingSink::default();
    qbss_telemetry::init(qbss_telemetry::Config {
        filter: Filter::parse("debug").expect("valid filter"),
        sink: SinkTarget::Ring(ring),
        spans: true,
    })
    .expect("fresh init");
    let verbose = work_delta(workload);
    qbss_telemetry::shutdown();
    assert!(!silent.is_empty(), "the workload must move work counters");
    assert_eq!(silent, verbose, "log level must not change op counts");
}

#[test]
fn streaming_and_batch_oa_do_identical_hull_work() {
    let _guard = lock();
    let inst = online_instance(300, 0);
    let batch = work_delta(|| {
        let _ = oa_profile(&inst);
    });
    let streamed = work_delta(|| {
        let mut s = OaStream::new();
        for job in release_ordered(&inst) {
            s.on_arrival(job);
        }
        let _ = s.finish();
    });
    for counter in ["oa.hull_updates", "oa.hull_pops"] {
        assert_eq!(
            batch.get(counter),
            streamed.get(counter),
            "`{counter}` must be identical batch vs streamed"
        );
    }
    assert!(batch.get("oa.hull_updates").copied().unwrap_or(0) > 0, "hull must move: {batch:?}");
}
