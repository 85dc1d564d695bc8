//! Differential tests: [`edf_schedule`] and [`Schedule::check`] against
//! the quadratic versions they replaced, [`yds_profile`] against the
//! full rescan it replaced, [`BkpStream`] against a re-sort and full
//! sweep per query, [`AvrStream`]'s probes against a scan of every
//! arrival, and [`multi_opt_frank_wolfe`] against the dense solver, on
//! seeded instances shaped like each generator family. Each pair must
//! agree bit for bit: the same slices, the same deadline miss, the same
//! first violation, the same profile, the same speed, the same
//! certificate. Frank–Wolfe's slope search is also held to the golden
//! section it replaced, step by step, and its certificate to OPT.
//!
//! The tests named `*_at_scale` repeat the BKP, AVR and Frank–Wolfe
//! checks on larger instances; they are `#[ignore]`d, for a release
//! build:
//! `cargo test --release -p speed-scaling --lib differential -- --ignored`.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::avr::avr_profile;
use crate::bkp::bkp_profile;
use crate::edf::{edf_schedule, reference_edf_schedule, EdfInfeasible, EdfTask};
use crate::job::{Instance, Job};
use crate::multi::avr_m::avr_m;
use crate::multi::multi_opt_frank_wolfe;
use crate::multi::opt::{frank_wolfe, golden_min01, line_search, reference, FwSolution};
use crate::oa::oa_profile;
use crate::profile::SpeedProfile;
use crate::schedule::{Schedule, ScheduleError, Slice, WorkRequirement};
use crate::stream::{release_ordered, AvrStream, BkpStream};
use crate::time::EPS;
use crate::yds::{reference_yds_profile, verify_optimality_certificate, yds, yds_profile};

#[derive(Debug, Clone, Copy)]
enum Family {
    /// Releases uniform over a horizon growing with n.
    Online,
    /// Exponential inter-arrival times.
    Poisson,
    /// Common release 0, common deadline 8.
    CommonDeadline,
    /// Common release 0, deadlines 2^0 … 2^5.
    PowersOfTwo,
    /// Common release 0, deadlines uniform in [1, 50].
    Arbitrary,
    /// Endpoints on a unit grid, each nudged by up to 1.5·EPS, so event
    /// times nearly coincide and the EPS merges decide.
    Crowded,
    /// Integer endpoints and integer work, so intensities tie across
    /// windows and the first-maximum rule decides.
    Grid,
    /// Unit windows on an integer grid, unit work: many identical jobs
    /// share each window.
    UnitWindows,
}

const FAMILIES: [Family; 6] = [
    Family::Online,
    Family::Poisson,
    Family::CommonDeadline,
    Family::PowersOfTwo,
    Family::Arbitrary,
    Family::Crowded,
];

const SIZES: [usize; 5] = [1, 3, 8, 20, 50];
const SEEDS: u64 = 5;

/// The families above plus the tie-heavy ones, which only the YDS
/// suite runs.
const YDS_FAMILIES: [Family; 8] = [
    Family::Online,
    Family::Poisson,
    Family::CommonDeadline,
    Family::PowersOfTwo,
    Family::Arbitrary,
    Family::Crowded,
    Family::Grid,
    Family::UnitWindows,
];

/// Sizes large enough that a round rescans many start points.
const YDS_SIZES: [usize; 9] = [1, 2, 5, 12, 20, 35, 50, 80, 120];
const YDS_SEEDS: u64 = 8;

fn nudge(rng: &mut StdRng) -> f64 {
    f64::from(rng.gen_range(-3..=3i32)) * 0.5 * EPS
}

/// `n` jobs shaped like `family`. With `split`, about half are split at
/// an interior point into a query part and an exact-work part that share
/// the job id, as a queried job is.
fn instance(family: Family, n: usize, seed: u64, split: bool) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arrival = 0.0_f64;
    let mut jobs = Vec::with_capacity(2 * n);
    for id in 0..n as u32 {
        let (release, deadline) = match family {
            Family::Online => {
                let r = rng.gen_range(0.0..=n as f64 / 4.0);
                (r, r + rng.gen_range(0.5..=4.0))
            }
            Family::Poisson => {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..=1.0);
                arrival += -u.ln() / 2.0;
                (arrival, arrival + rng.gen_range(0.5..=4.0))
            }
            Family::CommonDeadline => (0.0, 8.0),
            Family::PowersOfTwo => (0.0, f64::from(rng.gen_range(0..=5i32)).exp2()),
            Family::Arbitrary => (0.0, rng.gen_range(1.0..=50.0)),
            Family::Crowded => {
                let r = f64::from(rng.gen_range(0..8u32)) + nudge(&mut rng);
                (r, r + f64::from(rng.gen_range(1..4u32)) + nudge(&mut rng))
            }
            Family::Grid => {
                let r = f64::from(rng.gen_range(0..=n as u32 / 4));
                (r, r + f64::from(rng.gen_range(1..=4u32)))
            }
            Family::UnitWindows => {
                let r = f64::from(rng.gen_range(0..=n as u32 / 8));
                (r, r + 1.0)
            }
        };
        let w = match family {
            Family::Grid => f64::from(rng.gen_range(1..=3u32)),
            Family::UnitWindows => 1.0,
            _ => rng.gen_range(0.5..=4.0),
        };
        if rng.gen_bool(0.5) && split {
            let (tau, query, exact) = match family {
                // Halves keep the tie-heavy families' quantities dyadic.
                Family::Grid | Family::UnitWindows => {
                    (0.5 * (release + deadline), 0.5 * w, 0.5 * w)
                }
                _ => {
                    let tau = match family {
                        Family::Crowded => release.round() + 0.5 + nudge(&mut rng),
                        _ => release + (deadline - release) * rng.gen_range(0.2..=0.8),
                    };
                    (tau, w * rng.gen_range(0.1..=0.9), w * rng.gen_range(0.0..=1.0))
                }
            };
            jobs.push(Job::new(id, release, tau, query));
            jobs.push(Job::new(id, tau, deadline, exact));
        } else {
            jobs.push(Job::new(id, release, deadline, w));
        }
    }
    Instance::new(jobs)
}

/// Every seeded instance of the suite, labelled.
fn instances() -> impl Iterator<Item = (Family, String, Instance)> {
    FAMILIES.into_iter().flat_map(|family| {
        SIZES.into_iter().flat_map(move |n| {
            (0..SEEDS).map(move |seed| {
                let label = format!("{family:?} n={n} seed={seed}");
                (family, label, instance(family, n, 1000 * n as u64 + seed, true))
            })
        })
    })
}

/// The profiles the single-machine algorithms hand to EDF, and each
/// one scaled by 0.5, which leaves some window short of work.
fn profiles(inst: &Instance) -> Vec<(String, SpeedProfile)> {
    let mut out = vec![
        ("avr".to_string(), avr_profile(inst)),
        ("oa".to_string(), oa_profile(inst)),
        ("yds".to_string(), yds_profile(inst)),
    ];
    if inst.len() <= 80 {
        out.push(("bkp".to_string(), bkp_profile(inst)));
    }
    let halved: Vec<_> =
        out.iter().map(|(name, p)| (format!("{name}×0.5"), p.scale(0.5))).collect();
    out.extend(halved);
    out
}

type SliceBits = (u32, usize, u64, u64, u64);

fn slice_bits(s: &Slice) -> SliceBits {
    (s.job, s.machine, s.start.to_bits(), s.end.to_bits(), s.speed.to_bits())
}

type EdfBits = Result<(usize, Vec<SliceBits>), (u32, u64, u64, u64)>;

fn edf_bits(r: &Result<Schedule, EdfInfeasible>) -> EdfBits {
    match r {
        Ok(s) => Ok((s.machines, s.slices.iter().map(slice_bits).collect())),
        Err(e) => {
            Err((e.job, e.window.start.to_bits(), e.window.end.to_bits(), e.missing.to_bits()))
        }
    }
}

#[test]
fn edf_matches_the_reference_bit_for_bit() {
    let (mut feasible, mut infeasible) = (0, 0);
    for (_, label, inst) in instances() {
        let tasks = EdfTask::from_instance(&inst);
        let machine = inst.len() % 2;
        for (name, profile) in profiles(&inst) {
            let fast = edf_schedule(&tasks, &profile, machine);
            let slow = reference_edf_schedule(&tasks, &profile, machine);
            assert_eq!(edf_bits(&fast), edf_bits(&slow), "{label}, profile {name}");
            if fast.is_ok() {
                feasible += 1;
            } else {
                infeasible += 1;
            }
        }
    }
    assert!(feasible > 100 && infeasible > 100, "{feasible} feasible, {infeasible} infeasible");
}

#[test]
fn edf_matches_the_reference_on_degenerate_tasks() {
    // Zero-length and zero-work tasks, deadlines within EPS of each
    // other and of a profile breakpoint, and identical tasks that only
    // the index tie-break tells apart.
    let w = |a: f64, b: f64| crate::time::Interval::new(a, b);
    let tasks = [
        EdfTask::new(0, w(0.0, 2.0), 1.0),
        EdfTask::new(1, w(0.0, 2.0), 1.0),
        EdfTask::new(2, w(1.0, 1.0), 0.0),
        EdfTask::new(3, w(1.0, 1.0), 0.5),
        EdfTask::new(4, w(0.5, 2.0 + 0.5 * EPS), 0.25),
        EdfTask::new(5, w(-0.0, 2.0 - 0.5 * EPS), 0.25),
        EdfTask::new(6, w(0.0, 1.0 + EPS), 0.5),
        EdfTask::new(1, w(2.0, 3.0), 0.0),
    ];
    let profiles = [
        SpeedProfile::new(vec![0.0, 1.0, 3.0], vec![2.0, 1.0]),
        SpeedProfile::new(vec![0.0, 1.0 + 0.5 * EPS, 3.0], vec![1.0, 0.0]),
        SpeedProfile::new(vec![-1.0, 4.0], vec![0.0]),
        SpeedProfile::new(vec![0.0, 2.0], vec![4.0]),
    ];
    for (k, profile) in profiles.iter().enumerate() {
        for n in 0..=tasks.len() {
            let fast = edf_schedule(&tasks[..n], profile, 0);
            let slow = reference_edf_schedule(&tasks[..n], profile, 0);
            assert_eq!(edf_bits(&fast), edf_bits(&slow), "profile {k}, first {n} tasks");
        }
    }
}

/// The checker's verdict with every float compared by its bits: `Debug`
/// prints each `f64` in its shortest round-trip form (NaN as `NaN`), so
/// equal strings mean equal values, payloads of NaN aside.
fn verdict(r: &Result<(), ScheduleError>) -> String {
    format!("{r:?}")
}

fn variant(r: &Result<(), ScheduleError>) -> &'static str {
    match r {
        Ok(()) => "ok",
        Err(ScheduleError::BadMachine(_)) => "bad machine",
        Err(ScheduleError::MalformedSlice(_)) => "malformed",
        Err(ScheduleError::OutsideWindow(..)) => "outside window",
        Err(ScheduleError::MachineOverlap(..)) => "machine overlap",
        Err(ScheduleError::JobParallelism(..)) => "job parallelism",
        Err(ScheduleError::WrongWork(..)) => "wrong work",
    }
}

/// The corruptions of a valid schedule the checker must reject (or, for
/// the sub-EPS shifts, may accept), each labelled.
fn corruptions(valid: &Schedule, rng: &mut StdRng) -> Vec<(String, Schedule)> {
    let mut out = Vec::new();
    if valid.slices.is_empty() {
        return out;
    }
    let with = |edit: &dyn Fn(&mut Schedule)| {
        let mut s = valid.clone();
        edit(&mut s);
        s
    };
    let k = rng.gen_range(0..valid.slices.len());
    let last_end = valid.slices.iter().map(|s| s.end).fold(f64::MIN, f64::max);

    out.push(("speed × 0.5".into(), with(&|s| s.slices.iter_mut().for_each(|x| x.speed *= 0.5))));
    for steps in [0.5, 1.0, 2.0, 3.0] {
        for sign in [1.0, -1.0] {
            let by = sign * steps * EPS;
            let label = format!("slice {k} shifted by {by:e}");
            out.push((label, with(&|s| {
                s.slices[k].start += by;
                s.slices[k].end += by;
            })));
        }
    }
    out.push((format!("slice {k} copied onto a second machine"), with(&|s| {
        let mut copy = s.slices[k];
        copy.machine = (copy.machine + 1) % s.machines.max(2);
        s.machines = s.machines.max(2);
        s.slices.push(copy);
    })));
    // Stretch a slice into the next one on its machine that runs
    // another job.
    let mine = |i: usize| valid.slices[i].machine == valid.slices[k].machine;
    let next = (0..valid.slices.len())
        .filter(|&i| mine(i) && valid.slices[i].job != valid.slices[k].job)
        .filter(|&i| valid.slices[i].start >= valid.slices[k].end)
        .min_by(|&a, &b| valid.slices[a].start.total_cmp(&valid.slices[b].start));
    if let Some(j) = next {
        out.push((format!("slice {k} overlapped with slice {j}"), with(&|s| {
            s.slices[k].end = 0.5 * (s.slices[j].start + s.slices[j].end);
        })));
    }
    out.push((format!("slice {k} moved outside its window"), with(&|s| {
        let len = s.slices[k].end - s.slices[k].start;
        s.slices[k].start = last_end + 1.0;
        s.slices[k].end = last_end + 1.0 + len;
    })));
    out.push((format!("slice {k} on a bad machine"), with(&|s| s.slices[k].machine = s.machines)));
    out.push((format!("slice {k} with a NaN endpoint"), with(&|s| s.slices[k].start = f64::NAN)));
    out
}

fn assert_same_verdict(
    label: &str,
    schedule: &Schedule,
    reqs: &[WorkRequirement],
    seen: &mut BTreeSet<&'static str>,
) {
    let fast = schedule.check(reqs);
    let slow = schedule.reference_check(reqs);
    assert_eq!(verdict(&fast), verdict(&slow), "{label}");
    seen.insert(variant(&slow));
}

#[test]
fn checker_matches_the_reference_on_valid_and_corrupted_schedules() {
    let mut seen = BTreeSet::new();
    for (family, label, inst) in instances() {
        let reqs = Schedule::requirements_of(&inst);
        let tasks = EdfTask::from_instance(&inst);
        let mut rng = StdRng::seed_from_u64(inst.len() as u64);
        let mut valid = Vec::new();
        if let Ok(s) = edf_schedule(&tasks, &yds_profile(&inst), 0) {
            valid.push(("yds+edf", s));
        }
        valid.push(("avr(3)", avr_m(&inst, 3).schedule));
        for (name, schedule) in valid {
            let label = format!("{label}, {name}");
            // On crowded inputs the substrates can leave an EPS-long sliver
            // just outside a window, which both checkers flag.
            if !matches!(family, Family::Crowded) {
                assert!(schedule.check(&reqs).is_ok(), "{label}: valid schedule rejected");
            }
            assert_same_verdict(&label, &schedule, &reqs, &mut seen);
            for (what, bad) in corruptions(&schedule, &mut rng) {
                assert_same_verdict(&format!("{label}, {what}"), &bad, &reqs, &mut seen);
            }
        }
    }
    let all = [
        "ok",
        "bad machine",
        "malformed",
        "outside window",
        "machine overlap",
        "job parallelism",
        "wrong work",
    ];
    for v in all {
        assert!(seen.contains(v), "no case produced `{v}`: saw {seen:?}");
    }
}

fn profile_bits(p: &SpeedProfile) -> (Vec<u64>, Vec<u64>) {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect();
    (bits(p.breakpoints()), bits(p.values()))
}

/// The lazy search against the full rescan, on `YDS_FAMILIES` with
/// split jobs (`split`) or with one job per id. Returns how many
/// instances also passed the optimality certificate.
fn yds_against_the_reference(split: bool) -> usize {
    let mut certified = 0;
    for family in YDS_FAMILIES {
        for n in YDS_SIZES {
            for seed in 0..YDS_SEEDS {
                let inst = instance(family, n, 1000 * n as u64 + seed, split);
                let label = format!("{family:?} n={n} seed={seed} split={split}");
                let lazy = yds_profile(&inst);
                let full = reference_yds_profile(&inst);
                assert_eq!(profile_bits(&lazy), profile_bits(&full), "{label}");
                // The certificate assumes one job per id, and on crowded
                // inputs EDF can leave an EPS-long sliver outside a window.
                if !split && !matches!(family, Family::Crowded) {
                    if let Err(e) = verify_optimality_certificate(&inst, &yds(&inst)) {
                        panic!("{label}: {e}");
                    }
                    certified += 1;
                }
            }
        }
    }
    certified
}

#[test]
fn yds_matches_the_reference_bit_for_bit_on_split_jobs() {
    yds_against_the_reference(true);
}

#[test]
fn yds_matches_the_reference_bit_for_bit_and_certifies_on_whole_jobs() {
    let certified = yds_against_the_reference(false);
    assert_eq!(certified, 7 * YDS_SIZES.len() * YDS_SEEDS as usize);
}

/// Feeds `inst` in arrival order into a [`BkpStream`] and holds every
/// query to the reference, bit for bit: the speed at each arrival's
/// release just before and just after it joins, at two earlier times
/// and at an arrived job's deadline, and the finished profile.
fn bkp_against_the_reference(inst: &Instance, label: &str) {
    let jobs = release_ordered(inst);
    let mut stream = BkpStream::new();
    let same = |s: &BkpStream, t: f64, what: &str| {
        let (fast, slow) = (s.speed_after(t), s.reference_speed_after(t));
        assert_eq!(fast.to_bits(), slow.to_bits(), "{label}: {what} at t = {t}");
    };
    for (i, job) in jobs.iter().enumerate() {
        same(&stream, job.release, &format!("before arrival {i}"));
        stream.on_arrival(*job);
        same(&stream, job.release, &format!("after arrival {i}"));
        let earlier = jobs[i / 2];
        same(&stream, earlier.release, &format!("arrival {}'s release after {i}", i / 2));
        same(&stream, 0.5 * (earlier.release + job.release), &format!("midway after {i}"));
        same(&stream, job.release - 1.0, &format!("before arrival {i}'s release"));
        same(&stream, earlier.deadline, &format!("arrival {}'s deadline after {i}", i / 2));
    }
    let (fast, slow) = (stream.finish(), stream.reference_finish());
    assert_eq!(profile_bits(&fast), profile_bits(&slow), "{label}: profile");
}

fn bkp_suite(sizes: &[usize], seeds: u64) {
    for family in YDS_FAMILIES {
        for &n in sizes {
            for seed in 0..seeds {
                for split in [true, false] {
                    let inst = instance(family, n, 1000 * n as u64 + seed, split);
                    let label = format!("{family:?} n={n} seed={seed} split={split}");
                    bkp_against_the_reference(&inst, &label);
                }
            }
        }
    }
}

#[test]
fn bkp_stream_matches_the_reference_bit_for_bit() {
    bkp_suite(&[1, 2, 5, 12, 30, 60], 4);
}

#[test]
#[ignore = "release-mode scale check"]
fn bkp_stream_matches_the_reference_bit_for_bit_at_scale() {
    bkp_suite(&[120, 250, 400], 2);
}

#[test]
fn bkp_stream_matches_the_reference_on_a_creeping_feed() {
    // Each release is less than EPS below the previous one, as the
    // feeding check allows, but the last lands more than 2·EPS below the
    // second: its short window ends before a deadline the stream summed
    // at the second arrival, so the sums must start over.
    let e = EPS;
    let jobs = [
        Job::new(0, 0.0, 10.0 - 1.2 * e, 1.0),
        Job::new(1, 10.0, 12.0, 2.0),
        Job::new(2, 10.0 - 0.9 * e, 11.0, 1.5),
        Job::new(3, 10.0 - 1.8 * e, 13.0, 0.5),
        Job::new(4, 10.0 - 2.7 * e, 10.0 - 1.65 * e, 0.25),
        Job::new(5, 10.0 - 2.7 * e, 14.0, 1.0),
    ];
    let mut stream = BkpStream::new();
    for job in jobs {
        stream.on_arrival(job);
        for t in [job.release, 10.0 - 1.0 * e, 10.5, 11.5] {
            assert_eq!(stream.speed_after(t).to_bits(), stream.reference_speed_after(t).to_bits());
        }
    }
    assert_eq!(profile_bits(&stream.finish()), profile_bits(&stream.reference_finish()));
}

/// Feeds `jobs` in order into a [`BkpStream`] and holds its finished
/// profile to the reference, bit for bit.
fn bkp_finish_against_the_reference(jobs: &[Job], label: &str) {
    let mut stream = BkpStream::new();
    for &job in jobs {
        stream.on_arrival(job);
    }
    let (fast, slow) = (stream.finish(), stream.reference_finish());
    assert_eq!(profile_bits(&fast), profile_bits(&slow), "{label}");
}

#[test]
fn bkp_finish_matches_the_reference_when_a_release_arrives_before_it_joins() {
    // Grid points 0 and 1.5·EPS (job 1's release merges into 0): at
    // their midpoint jobs 1 and 2 have arrived, since each release is
    // within EPS above it, but neither is a candidate t1, since t1 must
    // lie strictly below it, and job 1's release is the midpoint itself.
    let g = 1.5 * EPS;
    let jobs = [
        Job::new(0, 0.0, 4.0, 1.0),
        Job::new(1, 0.5 * g, 3.0, 2.0),
        Job::new(2, g, 5.0, 1.0),
    ];
    bkp_finish_against_the_reference(&jobs, "releases in (mid, mid + EPS]");
}

#[test]
fn bkp_finish_matches_the_reference_when_a_deadline_lands_within_eps_after_others() {
    // Job 2 arrives last with a deadline within EPS after jobs 0's and
    // 1's, so it sorts after them but their windows' sums now count its
    // work: the widest window, (0, 10], holds all 8 units.
    let e = EPS;
    let jobs = [
        Job::new(0, 0.0, 10.0, 3.0),
        Job::new(1, 1.0, 10.0 + 0.25 * e, 1.0),
        Job::new(2, 2.0, 10.0 + 0.5 * e, 4.0),
    ];
    bkp_finish_against_the_reference(&jobs, "deadlines within EPS");
}

#[test]
fn bkp_finish_matches_the_reference_on_many_arrivals_at_one_midpoint() {
    // A common release brings every job in at the first midpoint; with
    // split jobs the exact parts follow one by one. Integer releases
    // bring several jobs in at each later one.
    for family in [Family::Arbitrary, Family::Grid] {
        for n in [100, 160] {
            for seed in 0..2 {
                for split in [true, false] {
                    let inst = instance(family, n, 1000 * n as u64 + seed, split);
                    let label = format!("{family:?} n={n} seed={seed} split={split}");
                    bkp_finish_against_the_reference(&release_ordered(&inst), &label);
                }
            }
        }
    }
}

#[test]
fn bkp_finish_matches_the_reference_when_a_creeping_feed_inserts_below_the_kept_entries() {
    // Jobs 0–4 expire before 10, and by the midpoint 2.7·EPS below 10
    // the finish has dropped them all. From job 5, released at 10, the
    // feed creeps down by 0.9·EPS per arrival. The arrived count is a
    // binary search over the arrival order, which stops at job 5 until
    // a midpoint lies within EPS of 10, so job 12, released 6.3·EPS
    // below 10, arrives only with it, and its deadline sorts below job
    // 4's: it lands among the dropped entries, and every row starts over.
    let e = EPS;
    let creep = |k: u32| 10.0 - 0.9 * e * f64::from(k);
    let mut jobs = vec![
        Job::new(0, 0.0, 2.0, 1.0),
        Job::new(1, 0.0, 4.0, 1.0),
        Job::new(2, 0.0, 6.0, 1.0),
        Job::new(3, 0.0, 8.0, 1.0),
        Job::new(4, 9.0, 10.0 - 4.5 * e, 1.0),
        Job::new(5, 10.0, 12.0, 2.0),
    ];
    for k in 1..=6 {
        jobs.push(Job::new(5 + k, creep(k), 13.0, 1.0));
    }
    jobs.push(Job::new(12, creep(7), 10.0 - 5.0 * e, 1.0));
    bkp_finish_against_the_reference(&jobs, "creeping feed below the kept entries");
}

/// Feeds `inst` in arrival order into an [`AvrStream`] and holds every
/// probe to the reference scan, bit for bit: at each arrival's release
/// just before and just after it joins, at an earlier arrival's release
/// (which the stream answers by the full scan), midway between the two,
/// a unit before the release, and at both jobs' deadlines.
fn avr_against_the_reference(inst: &Instance, label: &str) {
    let jobs = release_ordered(inst);
    let mut stream = AvrStream::new();
    let same = |s: &AvrStream, t: f64, what: &str| {
        let (fast, slow) = (s.speed_after(t), s.reference_speed_after(t));
        assert_eq!(fast.to_bits(), slow.to_bits(), "{label}: {what} at t = {t}");
    };
    for (i, job) in jobs.iter().enumerate() {
        same(&stream, job.release, &format!("before arrival {i}"));
        stream.on_arrival(*job);
        same(&stream, job.release, &format!("after arrival {i}"));
        let earlier = jobs[i / 2];
        same(&stream, earlier.release, &format!("arrival {}'s release after {i}", i / 2));
        same(&stream, 0.5 * (earlier.release + job.release), &format!("midway after {i}"));
        same(&stream, job.release - 1.0, &format!("before arrival {i}'s release"));
        same(&stream, earlier.deadline, &format!("arrival {}'s deadline after {i}", i / 2));
        same(&stream, job.deadline, &format!("arrival {i}'s deadline"));
    }
}

fn avr_suite(sizes: &[usize], seeds: u64) {
    for family in YDS_FAMILIES {
        for &n in sizes {
            for seed in 0..seeds {
                for split in [true, false] {
                    let inst = instance(family, n, 1000 * n as u64 + seed, split);
                    let label = format!("{family:?} n={n} seed={seed} split={split}");
                    avr_against_the_reference(&inst, &label);
                }
            }
        }
    }
}

#[test]
fn avr_stream_matches_the_reference_bit_for_bit() {
    avr_suite(&[1, 2, 5, 12, 30, 60], 4);
}

#[test]
#[ignore = "release-mode scale check"]
fn avr_stream_matches_the_reference_bit_for_bit_at_scale() {
    avr_suite(&[400, 800], 2);
}

#[test]
fn avr_stream_matches_the_reference_on_a_creeping_feed() {
    // Each release is less than EPS below the previous one: the live
    // list stays pruned to the first, highest release, so probes at the
    // later ones scan every arrival, and job 6, whose deadline is within
    // EPS of that release, never joins the list.
    let e = EPS;
    let jobs = [
        Job::new(0, 0.0, 10.0 - 1.2 * e, 1.0),
        Job::new(1, 10.0, 12.0, 2.0),
        Job::new(2, 10.0 - 0.9 * e, 11.0, 1.5),
        Job::new(3, 10.0 - 1.8 * e, 13.0, 0.5),
        Job::new(4, 10.0 - 2.7 * e, 10.0 - 1.65 * e, 0.25),
        Job::new(5, 10.0 - 2.7 * e, 14.0, 1.0),
        Job::new(6, 10.0 - 2.7 * e, 10.0 + 0.5 * e, 1.0),
    ];
    let mut stream = AvrStream::new();
    for job in jobs {
        stream.on_arrival(job);
        for t in [job.release, job.deadline, 10.0 - 1.0 * e, 10.0, 10.0 + 0.5 * e, 10.5, 11.5] {
            assert_eq!(stream.speed_after(t).to_bits(), stream.reference_speed_after(t).to_bits());
        }
    }
}

type FwBits = (u64, u64, usize, Vec<(u64, u64)>, Vec<Vec<u64>>);

fn fw_bits(fw: &FwSolution) -> FwBits {
    (
        fw.energy.to_bits(),
        fw.gap.to_bits(),
        fw.iterations,
        fw.intervals.iter().map(|&(a, b)| (a.to_bits(), b.to_bits())).collect(),
        fw.placement.iter().map(|row| row.iter().map(|x| x.to_bits()).collect()).collect(),
    )
}

/// The sparse solver against the dense reference on the eight families,
/// split and unsplit, for every `m`, `α` and iteration budget given.
fn fw_suite(sizes: &[usize], seeds: u64, iters: &[usize]) {
    for family in YDS_FAMILIES {
        for &n in sizes {
            for seed in 0..seeds {
                for split in [true, false] {
                    let inst = instance(family, n, 1000 * n as u64 + seed, split);
                    for m in [1, 2, 3, 5] {
                        for alpha in [2.0, 2.5, 3.0] {
                            for &it in iters {
                                let fast = multi_opt_frank_wolfe(&inst, m, alpha, it);
                                let slow = reference::multi_opt_frank_wolfe(&inst, m, alpha, it);
                                let label = format!("{family:?} n={n} seed={seed} split={split}");
                                let setting = format!("m={m} α={alpha} iters={it}");
                                assert_eq!(fw_bits(&fast), fw_bits(&slow), "{label} {setting}");
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn frank_wolfe_matches_the_dense_reference_bit_for_bit() {
    fw_suite(&[1, 3, 6], 1, &[1, 8, 40]);
}

#[test]
#[ignore = "release-mode scale check"]
fn frank_wolfe_matches_the_dense_reference_bit_for_bit_at_scale() {
    fw_suite(&[24, 48], 1, &[1, 8, 40]);
}

/// Runs golden section beside the slope search on every segment FW
/// visits, on the eight families, and holds each step's energy to
/// golden section's on the same segment.
#[test]
fn the_slope_search_steps_at_least_as_low_as_golden_section() {
    for family in YDS_FAMILIES {
        // Crowded event times put EPS-wide intervals on the grid, where
        // the slope is a sum of large cancelling terms near γ = 0.
        let tolerance = if matches!(family, Family::Crowded) { 1e-9 } else { 1e-12 };
        let mut steps = 0;
        for n in [3, 6, 12] {
            for split in [true, false] {
                let inst = instance(family, n, 1000 * n as u64, split);
                for m in [1, 2, 3, 5] {
                    for alpha in [2.0, 2.5, 3.0] {
                        let label = format!("{family:?} n={n} split={split} m={m} α={alpha}");
                        frank_wolfe(&inst, m, alpha, 40, |segment, slope0| {
                            let (gamma, val) = line_search(segment, slope0);
                            let (_, golden) = golden_min01(&mut |gamma| segment.energy(gamma));
                            let excess = (val - golden) / golden;
                            assert!(
                                excess <= tolerance,
                                "{label}: {excess:e} above golden section at γ = {gamma:e}"
                            );
                            steps += 1;
                            (gamma, val)
                        });
                    }
                }
            }
        }
        // Unit windows hold each job in one interval: FW starts optimal.
        assert!(steps > 0 || matches!(family, Family::UnitWindows), "{family:?} took no step");
    }
}

#[test]
fn the_frank_wolfe_certificate_stays_below_opt() {
    for family in YDS_FAMILIES {
        for n in [3, 12] {
            for split in [true, false] {
                let inst = instance(family, n, 1000 * n as u64 + 1, split);
                let label = format!("{family:?} n={n} split={split}");
                for alpha in [2.0, 2.5, 3.0] {
                    let opt = yds_profile(&inst).energy(alpha);
                    for m in [1, 2, 3, 5] {
                        // AVR(m) is feasible, and optimal on a common
                        // deadline, where FW's first placement is AVR(m)'s
                        // and the two energies differ in rounding only.
                        let above = if m == 1 { opt } else { avr_m(&inst, m).energy(alpha) };
                        for iters in [1, 8, 40] {
                            let lb = multi_opt_frank_wolfe(&inst, m, alpha, iters).lower_bound();
                            let setting = format!("m={m} α={alpha} iters={iters}");
                            assert!(
                                lb <= above * (1.0 + 1e-9),
                                "{label} {setting}: {lb} > {above}"
                            );
                        }
                    }
                }
            }
        }
    }
}
