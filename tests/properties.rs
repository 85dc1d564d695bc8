//! Property-style tests on the core invariants of the substrate and the
//! QBSS layer.
//!
//! The workspace is dependency-free, so instead of proptest these run a
//! seeded-RNG harness: each property draws its inputs from
//! `StdRng::seed_from_u64(case)` over a few dozen cases, so every
//! failure reports the case number and replays deterministically.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qbss_core::model::{QJob, QbssInstance};
use qbss_core::offline::round_down_to_power_of_two;
use qbss_core::online::{avrq, bkpq};
use qbss_core::PHI;
use speed_scaling::job::{Instance, Job};
use speed_scaling::schedule::Schedule;
use speed_scaling::yds::{yds, yds_profile};

const CASES: u64 = 48;

/// Runs `body` over `CASES` independently-seeded cases.
fn for_cases(name: &str, mut body: impl FnMut(&mut StdRng)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x51ED_5EED ^ case);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = caught {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            panic!("{name}: case {case} failed: {msg}");
        }
    }
}

// ---------------------------------------------------------------------
// Random input generators
// ---------------------------------------------------------------------

fn arb_instance(rng: &mut StdRng, max_jobs: usize) -> Instance {
    let n = rng.gen_range(1..=max_jobs);
    (0..n)
        .map(|i| {
            let r = rng.gen_range(0.0..10.0);
            let len = rng.gen_range(0.1..10.0);
            let w = rng.gen_range(0.01..10.0);
            Job::new(i as u32, r, r + len, w)
        })
        .collect()
}

/// A valid QBSS job: window, then `c ∈ (0, w]`, `w* ∈ [0, w]`.
fn arb_qjob(rng: &mut StdRng, id: u32) -> QJob {
    let r = rng.gen_range(0.0..10.0);
    let len = rng.gen_range(0.1..10.0);
    let w = rng.gen_range(0.05..10.0);
    let cf = rng.gen_range(0.01..=1.0);
    let ef = rng.gen_range(0.0..=1.0);
    QJob::new(id, r, r + len, (cf * w).max(1e-9), w, ef * w)
}

fn arb_qinstance(rng: &mut StdRng, max_jobs: usize) -> QbssInstance {
    let n = rng.gen_range(1..=max_jobs);
    QbssInstance::new((0..n).map(|i| arb_qjob(rng, i as u32)).collect())
}

// ---------------------------------------------------------------------
// Substrate invariants
// ---------------------------------------------------------------------

/// The YDS schedule is always feasible and conserves work exactly.
#[test]
fn yds_schedule_always_feasible() {
    for_cases("yds_schedule_always_feasible", |rng| {
        let inst = arb_instance(rng, 8);
        let result = yds(&inst);
        assert!(result.schedule.check(&Schedule::requirements_of(&inst)).is_ok());
        let total: f64 = inst.total_work();
        assert!((result.profile.total_work() - total).abs() <= 1e-6 * total.max(1.0));
    });
}

/// YDS output always carries its optimality certificate (the KKT
/// condition: every job runs at the minimum speed available in its
/// window, with no padded work) — an *independent* optimality check,
/// not a comparison against other heuristics.
#[test]
fn yds_optimality_certificate() {
    for_cases("yds_optimality_certificate", |rng| {
        let inst = arb_instance(rng, 8);
        let result = yds(&inst);
        let cert = speed_scaling::yds::verify_optimality_certificate(&inst, &result);
        assert!(cert.is_ok(), "{cert:?}");
    });
}

/// YDS never consumes more energy than the AVR profile (a feasible
/// competitor) at any exponent — optimality sanity.
#[test]
fn yds_beats_feasible_competitors() {
    for_cases("yds_beats_feasible_competitors", |rng| {
        let inst = arb_instance(rng, 8);
        let alpha = rng.gen_range(1.1..4.0);
        let opt = yds_profile(&inst).energy(alpha);
        let avr = speed_scaling::avr::avr_profile(&inst).energy(alpha);
        assert!(opt <= avr * (1.0 + 1e-9));
    });
}

/// YDS is invariant under job order.
#[test]
fn yds_order_invariant() {
    for_cases("yds_order_invariant", |rng| {
        let inst = arb_instance(rng, 6);
        let alpha = rng.gen_range(1.1..4.0);
        let mut reversed = inst.clone();
        reversed.jobs.reverse();
        let (a, b) = (yds_profile(&inst).energy(alpha), yds_profile(&reversed).energy(alpha));
        assert!((a - b).abs() <= 1e-6 * a.max(1.0));
    });
}

/// Energy integration respects time scaling: stretching all windows by
/// `k` divides the optimal energy by `k^{α−1}`.
#[test]
fn yds_time_scaling_law() {
    for_cases("yds_time_scaling_law", |rng| {
        let inst = arb_instance(rng, 6);
        let k = rng.gen_range(1.1..5.0);
        let alpha = 3.0;
        let stretched: Instance = inst
            .jobs
            .iter()
            .map(|j| Job::new(j.id, k * j.release, k * j.deadline, j.work))
            .collect();
        let (e, e_k) = (yds_profile(&inst).energy(alpha), yds_profile(&stretched).energy(alpha));
        assert!((e_k - e / k.powf(alpha - 1.0)).abs() <= 1e-6 * e.max(1.0));
    });
}

/// AVR's profile is exactly the density sum at every event midpoint.
#[test]
fn avr_profile_matches_density_sum() {
    for_cases("avr_profile_matches_density_sum", |rng| {
        let inst = arb_instance(rng, 8);
        let p = speed_scaling::avr::avr_profile(&inst);
        let events = inst.event_times();
        for w in events.windows(2) {
            let t = 0.5 * (w[0] + w[1]);
            assert!((p.speed_at(t) - inst.total_density_at(t)).abs() < 1e-9);
        }
    });
}

/// Profile addition is commutative and preserves work.
#[test]
fn profile_addition_laws() {
    for_cases("profile_addition_laws", |rng| {
        let inst = arb_instance(rng, 5);
        let other = arb_instance(rng, 5);
        let p = speed_scaling::avr::avr_profile(&inst);
        let q = speed_scaling::avr::avr_profile(&other);
        let pq = p.add(&q);
        let qp = q.add(&p);
        assert!((pq.total_work() - qp.total_work()).abs() < 1e-6);
        assert!(
            (pq.total_work() - (p.total_work() + q.total_work())).abs()
                <= 1e-6 * pq.total_work().max(1.0)
        );
    });
}

/// `simplify` never changes energy, work, or pointwise values.
#[test]
fn profile_simplify_semantics() {
    for_cases("profile_simplify_semantics", |rng| {
        let inst = arb_instance(rng, 6);
        let alpha = rng.gen_range(1.1..4.0);
        let p = speed_scaling::avr::avr_profile(&inst);
        let s = p.simplify();
        assert!((p.energy(alpha) - s.energy(alpha)).abs() <= 1e-9 * p.energy(alpha).max(1.0));
        for w in p.breakpoints().windows(2) {
            let t = 0.5 * (w[0] + w[1]);
            assert!((p.speed_at(t) - s.speed_at(t)).abs() < 1e-9);
        }
    });
}

// ---------------------------------------------------------------------
// QBSS invariants
// ---------------------------------------------------------------------

/// Lemma 3.1 as a property: the golden rule's executed load is at most
/// φ times the clairvoyant load, per job.
#[test]
fn golden_rule_load_within_phi() {
    for_cases("golden_rule_load_within_phi", |rng| {
        let j = arb_qjob(rng, 0);
        let queries = j.query_load * PHI <= j.upper_bound + 1e-12;
        let p = if queries { j.query_load + j.reveal_exact() } else { j.upper_bound };
        assert!(p <= PHI * j.p_star() + 1e-9);
    });
}

/// p* is never larger than either alternative and is achievable.
#[test]
fn p_star_is_min_of_alternatives() {
    for_cases("p_star_is_min_of_alternatives", |rng| {
        let j = arb_qjob(rng, 0);
        assert!(j.p_star() <= j.upper_bound + 1e-12);
        assert!(j.p_star() <= j.query_load + j.reveal_exact() + 1e-12);
        let min = j.upper_bound.min(j.query_load + j.reveal_exact());
        assert!((j.p_star() - min).abs() < 1e-12);
    });
}

/// AVRQ and BKPQ outcomes always validate and never beat OPT.
#[test]
fn online_outcomes_validate() {
    for_cases("online_outcomes_validate", |rng| {
        let inst = arb_qinstance(rng, 6);
        let alpha = rng.gen_range(1.5..3.5);
        for out in [avrq(&inst), bkpq(&inst)] {
            assert!(out.validate(&inst).is_ok(), "{:?}", out.validate(&inst));
            assert!(out.energy_ratio(&inst, alpha) >= 1.0 - 1e-6);
            assert!(out.speed_ratio(&inst) >= 1.0 - 1e-6);
        }
    });
}

/// The AVRQ profile carries exactly the derived work.
#[test]
fn avrq_profile_work_conservation() {
    for_cases("avrq_profile_work_conservation", |rng| {
        let inst = arb_qinstance(rng, 6);
        let p = qbss_core::online::avrq_profile(&inst);
        let derived: f64 = inst.jobs.iter().map(|j| j.query_load + j.reveal_exact()).sum();
        assert!((p.total_work() - derived).abs() <= 1e-6 * derived.max(1.0));
    });
}

/// Deadline rounding: result is a power of two within (d/2, d].
#[test]
fn rounding_down_properties() {
    for_cases("rounding_down_properties", |rng| {
        let d = rng.gen_range(0.01..1e6);
        let p = round_down_to_power_of_two(d);
        assert!(p <= d * (1.0 + 1e-12));
        assert!(2.0 * p > d);
        let k = p.log2().round();
        assert!((p - k.exp2()).abs() <= 1e-12 * p);
    });
}

/// Theorem 5.2 as a property on random QBSS instances.
#[test]
fn avrq_speed_domination_property() {
    for_cases("avrq_speed_domination_property", |rng| {
        let inst = arb_qinstance(rng, 6);
        let alg = qbss_core::online::avrq_profile(&inst);
        let star = qbss_core::online::avr_star_profile(&inst);
        assert!(alg.dominated_by(&star, 2.0).is_ok());
    });
}

/// The streaming engine, stepped through time, reproduces the analytic
/// AVRQ and BKPQ profiles on random instances — the
/// "online-faithfulness" of the one-pass constructions, as a property:
/// at every segment midpoint `t`, after feeding the arrivals released by
/// `t` and `advance_to(t)`, the live speed equals the analytic speed
/// within 1e-9 relative (1e-12 absolute near zero).
#[test]
fn stepped_simulation_matches_analytic() {
    for_cases("stepped_simulation_matches_analytic", |rng| {
        use qbss_core::stream::{arrival_ordered, solver_for};
        use qbss_core::Algorithm;
        let inst = arb_qinstance(rng, 5);
        for (algorithm, analytic) in [
            (Algorithm::Avrq, qbss_core::online::avrq_profile(&inst)),
            (Algorithm::Bkpq, qbss_core::online::bkpq_profile(&inst)),
        ] {
            let mut solver = solver_for(algorithm).expect("streamable");
            let mut arrivals = arrival_ordered(&inst).into_iter().peekable();
            for w in analytic.breakpoints().windows(2) {
                let t = 0.5 * (w[0] + w[1]);
                while let Some(job) = arrivals.next_if(|j| j.release <= t) {
                    solver.on_arrival(job).expect("in-order arrival");
                }
                solver.advance_to(t).expect("forward in time");
                let (live, expected) = (solver.speed(), analytic.speed_at(t));
                assert!(
                    (live - expected).abs() <= 1e-9 * expected.abs() + 1e-12,
                    "{algorithm} at t = {t}: live {live} vs analytic {expected}"
                );
            }
        }
    });
}

// ---------------------------------------------------------------------
// Fault injection and serialization (the robustness layer)
// ---------------------------------------------------------------------

/// Every Corruptor mutation yields exactly the `ModelError` variant it
/// is tagged with, on arbitrary valid instances.
#[test]
fn corruptor_mutations_hit_their_tagged_variants() {
    use qbss_instances::corrupt::{Corruptor, Expectation, Mutation};
    for_cases("corruptor_mutations_hit_their_tagged_variants", |rng| {
        let inst = arb_qinstance(rng, 6);
        let mut corruptor = Corruptor::new(rng.gen_range(0..u64::MAX));
        for mutation in Mutation::ALL {
            let Some(case) = corruptor.apply(&inst, mutation) else {
                continue;
            };
            match case.expectation {
                Expectation::Model(kind) => {
                    let err = case
                        .instance
                        .validate()
                        .expect_err("mutation must invalidate the instance");
                    assert_eq!(err.kind(), kind, "{mutation}: got {err}");
                }
                Expectation::Empty => assert!(case.instance.is_empty(), "{mutation}"),
                Expectation::Survivable => {
                    assert!(case.instance.validate().is_ok(), "{mutation} must stay valid");
                }
            }
        }
    });
}

/// `from_csv(to_csv(inst))` round-trips arbitrary valid instances
/// bit-for-bit, and the parser is total on garbage input.
#[test]
fn csv_roundtrip_and_totality() {
    for_cases("csv_roundtrip_and_totality", |rng| {
        // Arbitrary text: must return Err or Ok, never panic.
        let pool: Vec<char> =
            "0123456789,.-#eE+ \n\tabcdefghijklnopqrstuwxyz\"{}[]NaNinf".chars().collect();
        let len = rng.gen_range(0..200usize);
        let garbage: String =
            (0..len).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
        let _ = qbss_instances::io::from_csv(&garbage);
        let _ = qbss_instances::io::from_json(&garbage);
        // Valid round trip.
        let inst = arb_qinstance(rng, 4);
        let csv = qbss_instances::io::to_csv(&inst);
        let back = qbss_instances::io::from_csv(&csv).expect("csv roundtrip");
        assert_eq!(back, inst);
    });
}

/// `from_json(to_json(inst))` round-trips arbitrary valid instances
/// bit-for-bit (Rust's `{}` float formatting is shortest-round-trip).
#[test]
fn json_roundtrip_property() {
    for_cases("json_roundtrip_property", |rng| {
        let inst = arb_qinstance(rng, 5);
        let json = qbss_instances::io::to_json(&inst).expect("valid instances serialize");
        let back = qbss_instances::io::from_json(&json).expect("json roundtrip");
        assert_eq!(back, inst);
    });
}

// ---------------------------------------------------------------------
// EDF / checker interplay
// ---------------------------------------------------------------------

/// Any profile that pointwise dominates AVR is feasible under EDF.
#[test]
fn dominating_profiles_are_edf_feasible() {
    for_cases("dominating_profiles_are_edf_feasible", |rng| {
        use speed_scaling::edf::{edf_schedule, EdfTask};
        let inst = arb_instance(rng, 6);
        let boost = rng.gen_range(1.0..3.0);
        let p = speed_scaling::avr::avr_profile(&inst).scale(boost);
        let sched = edf_schedule(&EdfTask::from_instance(&inst), &p, 0);
        assert!(sched.is_ok());
        let sched = sched.expect("checked above");
        assert!(sched.check(&Schedule::requirements_of(&inst)).is_ok());
    });
}

/// Starving the machine below the critical intensity is infeasible.
#[test]
fn undersized_profiles_are_infeasible() {
    for_cases("undersized_profiles_are_infeasible", |rng| {
        use speed_scaling::edf::{edf_schedule, EdfTask};
        let inst = arb_instance(rng, 5);
        // Half the *optimal* (YDS) speed cannot complete the work.
        let p = yds_profile(&inst).scale(0.5);
        assert!(edf_schedule(&EdfTask::from_instance(&inst), &p, 0).is_err());
    });
}

/// The checker accepts exactly the schedules EDF builds, and rejects
/// them after adversarial corruption (speed halved).
#[test]
fn checker_rejects_corrupted_schedules() {
    for_cases("checker_rejects_corrupted_schedules", |rng| {
        let inst = arb_instance(rng, 5);
        let mut sched = yds(&inst).schedule;
        if sched.slices.is_empty() {
            return;
        }
        for s in &mut sched.slices {
            s.speed *= 0.5;
        }
        assert!(sched.check(&Schedule::requirements_of(&inst)).is_err());
    });
}

/// SpeedProfile::dominated_by is reflexive and anti-symmetric in the
/// factor.
#[test]
fn domination_laws() {
    for_cases("domination_laws", |rng| {
        let inst = arb_instance(rng, 5);
        let p = speed_scaling::avr::avr_profile(&inst);
        assert!(p.dominated_by(&p, 1.0).is_ok());
        assert!(p.scale(2.0).dominated_by(&p, 2.0).is_ok());
        if p.max_speed() > 1e-6 {
            assert!(p.scale(3.0).dominated_by(&p, 2.0).is_err());
        }
    });
}

/// Decision attribution as a property: over **every** generator family
/// × compressibility model × streamable algorithm, the three loss
/// factors multiply back to the measured `E_ALG / E_OPT` within the
/// attribution layer's identity tolerance, and every provably-≥ 1
/// quantity respects `1 − FACTOR_TOL`: the query factor, the
/// scheduling factor, and the product `query × split` (the split
/// factor alone may dip below 1 — the per-job oracle split is not the
/// joint optimum).
#[test]
fn attribution_identity_property() {
    use qbss_core::attribution::FACTOR_TOL;
    use qbss_core::pipeline::{run_evaluated, Algorithm};
    use qbss_instances::gen::{self, Compressibility, GenConfig, QueryModel, TimeModel};

    let streamable = [Algorithm::Avrq, Algorithm::Bkpq, Algorithm::Oaq];
    for family in TimeModel::NAMES {
        for compress in Compressibility::NAMES {
            for seed in 0..3u64 {
                let n = 4 + seed as usize;
                let cfg = GenConfig {
                    n,
                    seed: 0xA11C ^ (seed * 131),
                    time: TimeModel::from_name(family, n).expect("family table"),
                    min_w: 0.5,
                    max_w: 4.0,
                    query: QueryModel::UniformFraction { lo: 0.1, hi: 0.6 },
                    compress: Compressibility::from_name(compress).expect("compress table"),
                };
                let inst = gen::generate(&cfg);
                for alg in streamable {
                    for alpha in [2.0, 3.0] {
                        let cell = format!("{family}/{compress} seed {seed} {alg:?} α={alpha}");
                        let ev = run_evaluated(&inst, alpha, alg)
                            .unwrap_or_else(|e| panic!("{cell}: run failed: {e}"));
                        let a = qbss_core::attribute(&inst, alpha, alg, &ev)
                            .unwrap_or_else(|e| panic!("{cell}: attribution failed: {e}"));
                        a.check_identity().unwrap_or_else(|err| {
                            panic!("{cell}: identity off by {err:.3e}")
                        });
                        for (name, f) in [
                            ("query", a.query_loss),
                            ("sched", a.sched_loss),
                            ("query × split", a.query_loss * a.split_loss),
                        ] {
                            assert!(
                                f >= 1.0 - FACTOR_TOL,
                                "{cell}: {name} loss {f} below 1 - tol"
                            );
                        }
                        assert!(
                            a.split_loss.is_finite() && a.split_loss > 0.0,
                            "{cell}: split loss {} degenerate",
                            a.split_loss
                        );
                        // The blame job exists and tops the load ratios.
                        let blame = a.blame_row().unwrap_or_else(|| panic!("{cell}: no blame"));
                        assert!(a
                            .jobs
                            .iter()
                            .all(|r| r.load_ratio() <= blame.load_ratio() + 1e-12));
                    }
                }
            }
        }
    }
}

/// A deterministic regression net: the exact YDS energies of a fixed
/// instance at several α (guards against silent algorithmic drift).
#[test]
fn yds_golden_values() {
    let inst = Instance::new(vec![
        Job::new(0, 0.0, 4.0, 4.0),
        Job::new(1, 1.0, 2.0, 3.0),
        Job::new(2, 3.0, 6.0, 2.0),
    ]);
    let p = yds_profile(&inst);
    // By hand: round 1 fixes the critical interval (1,2] at speed 3
    // (job 1). Collapsing it, round 2 fixes job 0 on (0,1] ∪ (2,4] at
    // speed 4/3, and round 3 fixes job 2 on (4,6] at speed 1.
    assert!((p.speed_at(0.5) - 4.0 / 3.0).abs() < 1e-9);
    assert!((p.speed_at(1.5) - 3.0).abs() < 1e-9);
    assert!((p.speed_at(3.0) - 4.0 / 3.0).abs() < 1e-9);
    assert!((p.speed_at(5.0) - 1.0).abs() < 1e-9);
    // E(α=3) = 3·(4/3)³ + 1·3³ + 2·1³ = 64/9 + 29.
    let expected = 64.0 / 9.0 + 29.0;
    assert!((p.energy(3.0) - expected).abs() < 1e-9);
    assert!((p.max_speed() - 3.0).abs() < 1e-9);
    assert!((p.total_work() - 9.0).abs() < 1e-9);
}
