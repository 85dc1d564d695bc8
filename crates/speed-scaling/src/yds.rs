//! The YDS offline optimal algorithm (Yao, Demers, Shenker, FOCS 1995).
//!
//! YDS repeatedly finds the *critical interval* — the interval `I`
//! maximizing the intensity `g(I) = Σ_{j : (r_j,d_j] ⊆ I} w_j / |I|` —
//! schedules the jobs of `I` at constant speed `g(I)` inside it, removes
//! them, and *collapses* `I` out of the time axis before recursing on the
//! rest. The resulting speed profile minimizes energy `∫ s^α dt`
//! simultaneously for every `α > 1` and also minimizes the maximum speed.
//!
//! This implementation keeps the remaining jobs in collapsed ("current")
//! coordinates and maintains the set of already-assigned original-time
//! intervals, mapping each critical interval back to original time when
//! it is fixed. Slice placement is delegated to EDF, and in tests the
//! schedule is re-validated by the generic checker.
//!
//! The search for each critical interval is lazy. Removing a critical
//! interval `(a, b]` of intensity `g` and collapsing the axis never
//! raises, in real arithmetic, the best intensity from a start point
//! that keeps its place:
//!
//! * an interval that contained `(a, b]` loses work at least as dense as
//!   itself;
//! * an interval cut at `a` or at `b` is bounded by the interval
//!   `(t1, b]` or `(a, t2]` it came from;
//! * start points inside `(a, b]` merge into `a`, and no interval from
//!   `a` beats `g`.
//!
//! So the last intensity computed from a start point bounds its best one
//! in every later round, and a round rescans only the start points whose
//! bound beats the best intensity found so far. The winner is the one a
//! full rescan of every (release, deadline) pair finds, bit for bit: the
//! same scan computes it, with the same tie rule. Two margins carry the
//! argument over to `f64` and the `EPS`-tolerant tests (`BOUND_SLACK`
//! and `BAND`), and the differential suite holds every profile to the
//! full rescan, kept as a test-only reference.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::edf::{edf_schedule, EdfTask};
use crate::job::Instance;
use crate::profile::SpeedProfile;
use crate::schedule::Schedule;
use crate::time::{approx_eq, approx_ge, approx_le, time_key, Interval, EPS};

/// Output of [`yds`]: the optimal profile plus the explicit schedule.
#[derive(Debug, Clone)]
pub struct YdsResult {
    /// The energy-optimal speed profile.
    pub profile: SpeedProfile,
    /// An explicit EDF schedule realizing the profile.
    pub schedule: Schedule,
}

impl YdsResult {
    /// Energy of the optimal schedule for exponent `alpha`.
    pub fn energy(&self, alpha: f64) -> f64 {
        self.profile.energy(alpha)
    }

    /// Maximum speed of the optimal schedule.
    pub fn max_speed(&self) -> f64 {
        self.profile.max_speed()
    }
}

/// A job in the current (collapsed) coordinate system.
#[derive(Debug, Clone, Copy)]
struct WorkItem {
    release: f64,
    deadline: f64,
    work: f64,
    /// Position among the instance's jobs with work: the tie-break of
    /// both sort orders, as input order is for a stable sort.
    index: usize,
    /// Upper bound on the best intensity from the start point this
    /// job's release belongs to. Only the release order keeps it.
    bound: f64,
}

/// The jobs YDS schedules: those with positive work, in input order,
/// none of them bounded yet.
fn work_items(instance: &Instance) -> Vec<WorkItem> {
    instance
        .jobs
        .iter()
        .filter(|j| j.work > 0.0)
        .enumerate()
        .map(|(index, j)| WorkItem {
            release: j.release,
            deadline: j.deadline,
            work: j.work,
            index,
            bound: f64::INFINITY,
        })
        .collect()
}

/// Relative margin on every stored bound. A bound is an intensity
/// computed in one round's coordinates; a later round computes the same
/// real quantity from shifted coordinates, which can round a few ulps
/// higher. 1e-6 dwarfs that, and costs only the rescan of start points
/// within 1e-6 of the best.
const BOUND_SLACK: f64 = 1e-6;

/// Reach, beyond each end of a critical interval `[a, b]`, of the
/// releases whose bound becomes the round's intensity. The critical set
/// and the collapse test their endpoints up to `EPS`, and a start point
/// merges releases up to `EPS` apart, so within `2·EPS` of `a` or `b` a
/// start point can keep a job the real-arithmetic argument removes, or
/// take in releases merged into `a`. The round's intensity bounds every
/// start point there.
const BAND: f64 = 2.0 * EPS;

/// Computes the YDS-optimal speed profile for `instance`.
///
/// Each round pops start points from a max-heap keyed by an upper bound
/// on their best intensity (`+∞` at first), the lower release first on
/// ties. A point popped with an intensity computed this round is the
/// critical interval; any other is scanned and pushed back keyed by its
/// intensity. After the round, each scanned point keeps its intensity as
/// its bound, and points near the critical interval take its intensity
/// (see the module docs for why both stay bounds). The critical
/// intervals, and so the profile, are bit for bit those of a full rescan
/// of every (release, deadline) pair in every round, which the
/// differential tests check.
///
/// The worst case stays `O(n³)`: every start point rescanned in every
/// round, at `O(n)` a scan. Instances with many distinct releases and
/// many rounds rescan few points; the `yds-offline` complexity scenario
/// fits its scan count at `n^2.0`, against `n^2.8` for the full rescan.
/// Common-release instances have a single start point and gain nothing.
///
/// ```
/// use speed_scaling::job::{Instance, Job};
/// use speed_scaling::yds::yds_profile;
///
/// // A dense inner job inside a relaxed outer one.
/// let inst = Instance::new(vec![
///     Job::new(0, 0.0, 4.0, 4.0), // density 1
///     Job::new(1, 1.0, 2.0, 3.0), // density 3 — the critical interval
/// ]);
/// let p = yds_profile(&inst);
/// assert!((p.speed_at(1.5) - 3.0).abs() < 1e-9);       // critical (1,2]
/// assert!((p.speed_at(0.5) - 4.0 / 3.0).abs() < 1e-9); // outer job spread
/// ```
pub fn yds_profile(instance: &Instance) -> SpeedProfile {
    let jobs = work_items(instance);
    qbss_telemetry::counter!("yds.solves").inc();
    let mut span = qbss_telemetry::span!("yds.solve", { jobs = jobs.len() });
    let mut rounds = 0_u64;
    let mut search = LazySearch::new(jobs);

    // Original-time intervals already assigned a speed, kept sorted and
    // disjoint, together with their speeds.
    let mut fixed: Vec<(Interval, f64)> = Vec::new();
    // Sorted original-time intervals removed from the axis so far.
    let mut removed: Vec<Interval> = Vec::new();

    while !search.by_release.is_empty() {
        rounds += 1;
        let Some((a, b, intensity)) = search.critical_interval() else {
            break;
        };
        if intensity <= EPS {
            break;
        }
        fix_interval(&mut fixed, &mut removed, a, b, intensity);
        search.collapse(a, b, intensity);
    }

    qbss_telemetry::counter!("yds.intervals_scanned").add(search.intervals_scanned);
    qbss_telemetry::counter!("yds.density_evals").add(search.density_evals);
    span.record("rounds", rounds);
    qbss_telemetry::trace!("yds.solve", { rounds = rounds }, "critical-interval loop done");
    profile_from_fixed(instance, fixed)
}

/// Maps the critical interval `(a, b]` from current to original
/// coordinates, fixes the pieces not yet removed at `intensity`, and
/// adds them to the removed set.
fn fix_interval(
    fixed: &mut Vec<(Interval, f64)>,
    removed: &mut Vec<Interval>,
    a: f64,
    b: f64,
    intensity: f64,
) {
    let orig_a = to_original(removed, a);
    let orig_b = to_original(removed, b);
    let pieces = subtract_removed(removed, orig_a, orig_b);
    debug_assert!(
        ((b - a) - pieces.iter().map(Interval::len).sum::<f64>()).abs() < 1e-6 * (1.0 + (b - a)),
        "collapse bookkeeping lost time"
    );
    for piece in &pieces {
        fixed.push((*piece, intensity));
    }
    insert_removed(removed, pieces);
}

/// Drops the jobs of the critical set `(a, b]` and collapses the axis
/// for the survivors.
fn remove_critical(jobs: &mut Vec<WorkItem>, a: f64, b: f64) {
    jobs.retain(|j| !(approx_ge(j.release, a) && approx_le(j.deadline, b)));
    for j in jobs.iter_mut() {
        j.release = collapse_point(j.release, a, b);
        j.deadline = collapse_point(j.deadline, a, b);
        debug_assert!(j.deadline > j.release + EPS, "surviving job window collapsed to zero");
    }
}

/// The (release, index) order. `time_key` makes `-0.0` tie with `0.0`,
/// as the two do under `partial_cmp`; so does the deadline order below.
fn release_order(x: &WorkItem, y: &WorkItem) -> Ordering {
    time_key(x.release).total_cmp(&time_key(y.release)).then(x.index.cmp(&y.index))
}

fn deadline_order(x: &WorkItem, y: &WorkItem) -> Ordering {
    time_key(x.deadline).total_cmp(&time_key(y.deadline)).then(x.index.cmp(&y.index))
}

/// A start point: the releases `by_release[start..end]`, merged into
/// the first, `t1`, as [`crate::time::dedup_times`] merges event times.
#[derive(Debug, Clone, Copy)]
struct StartPoint {
    t1: f64,
    start: usize,
    end: usize,
}

/// A start point in the heap, keyed by a bound on its best intensity,
/// or by that intensity once scanned this round, when `t2` is the
/// deadline that reaches it.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    key: f64,
    point: usize,
    t2: Option<f64>,
}

impl Ord for Candidate {
    /// The higher key first, and on ties the lower release, so the first
    /// maximum of a scan in release order wins.
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.total_cmp(&other.key).then(other.point.cmp(&self.point))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Candidate {}

/// The surviving jobs, in the two orders the lazy search reads, and the
/// buffers it reuses from round to round.
struct LazySearch {
    /// By (deadline, index): the order of every scan.
    by_deadline: Vec<WorkItem>,
    /// By (release, index): start points are runs of it, and each job
    /// carries its start point's bound.
    by_release: Vec<WorkItem>,
    /// This round's start points, in release order.
    points: Vec<StartPoint>,
    /// The start points scanned this round, each with its best
    /// intensity (`+∞` when no interval starts there).
    scanned: Vec<(usize, f64)>,
    heap: BinaryHeap<Candidate>,
    intervals_scanned: u64,
    density_evals: u64,
}

impl LazySearch {
    fn new(jobs: Vec<WorkItem>) -> Self {
        let n = jobs.len();
        let mut by_deadline = jobs.clone();
        by_deadline.sort_by(deadline_order);
        let mut by_release = jobs;
        by_release.sort_by(release_order);
        Self {
            by_deadline,
            by_release,
            points: Vec::with_capacity(n),
            scanned: Vec::with_capacity(n),
            heap: BinaryHeap::with_capacity(n),
            intervals_scanned: 0,
            density_evals: 0,
        }
    }

    /// The interval `(t1, t2]` (endpoints among releases/deadlines)
    /// maximizing the intensity, returned as `(t1, t2, g)`: the first
    /// maximum in (release, deadline) order.
    fn critical_interval(&mut self) -> Option<(f64, f64, f64)> {
        self.points.clear();
        self.scanned.clear();
        let mut keys = std::mem::take(&mut self.heap).into_vec();
        keys.clear();
        for (i, j) in self.by_release.iter().enumerate() {
            if !j.release.is_finite() {
                continue;
            }
            match (self.points.last_mut(), keys.last_mut()) {
                (Some(p), Some(c)) if approx_eq(p.t1, j.release) => {
                    p.end = i + 1;
                    c.key = c.key.max(j.bound);
                }
                _ => {
                    keys.push(Candidate { key: j.bound, point: self.points.len(), t2: None });
                    self.points.push(StartPoint { t1: j.release, start: i, end: i + 1 });
                }
            }
        }

        let mut heap = BinaryHeap::from(keys);
        let best = loop {
            let Some(top) = heap.pop() else {
                break None;
            };
            let t1 = self.points[top.point].t1;
            if let Some(t2) = top.t2 {
                break Some((t1, t2, top.key));
            }
            let found = self.scan(t1);
            self.scanned.push((top.point, found.map_or(f64::INFINITY, |(_, g)| g)));
            if let Some((t2, g)) = found {
                heap.push(Candidate { key: g, point: top.point, t2: Some(t2) });
            }
        };
        self.heap = heap;
        best
    }

    /// The first maximum `(t2, g)` of the intensities of the intervals
    /// `(t1, t2]`, in deadline order.
    fn scan(&mut self, t1: f64) -> Option<(f64, f64)> {
        // Deadlines at or before t1 + EPS end no interval from t1.
        let from = self.by_deadline.partition_point(|j| j.deadline <= t1 + EPS);
        // Work accumulates in locals and lands in the totals once per
        // scan, keeping the loop free of stores through `self`.
        let mut intervals_scanned = 0_u64;
        let mut density_evals = 0_u64;
        let mut acc = 0.0;
        let mut best: Option<(f64, f64)> = None;
        for j in &self.by_deadline[from..] {
            intervals_scanned += 1;
            if j.release + EPS < t1 {
                continue;
            }
            let t2 = j.deadline;
            acc += j.work;
            // Intensity using all jobs with r >= t1 and d <= t2. Jobs
            // sharing this deadline appear consecutively; evaluating at
            // each of them is harmless (earlier ones see a partial sum
            // that is dominated by the final one).
            density_evals += 1;
            let g = acc / (t2 - t1);
            if best.is_none_or(|(_, gb)| g > gb) {
                best = Some((t2, g));
            }
        }
        self.intervals_scanned += intervals_scanned;
        self.density_evals += density_evals;
        best
    }

    /// Stores this round's bounds on the jobs, then drops the critical
    /// set `(a, b]` of intensity `g`, collapses the axis and restores
    /// both orders.
    fn collapse(&mut self, a: f64, b: f64, g: f64) {
        for &(point, value) in &self.scanned {
            let p = self.points[point];
            for j in &mut self.by_release[p.start..p.end] {
                j.bound = value * (1.0 + BOUND_SLACK);
            }
        }
        let near = self.by_release.partition_point(|j| j.release < a - BAND);
        for j in self.by_release[near..].iter_mut().take_while(|j| j.release <= b + BAND) {
            j.bound = g * (1.0 + BOUND_SLACK);
        }
        remove_critical(&mut self.by_deadline, a, b);
        remove_critical(&mut self.by_release, a, b);
        // Collapse is monotone up to EPS, so both orders are nearly
        // sorted already, which the stable sort's run detection exploits.
        self.by_deadline.sort_by(deadline_order);
        self.by_release.sort_by(release_order);
    }
}

/// Runs YDS and realizes the profile with EDF.
pub fn yds(instance: &Instance) -> YdsResult {
    let profile = yds_profile(instance);
    let tasks = EdfTask::from_instance(instance);
    let schedule = edf_schedule(&tasks, &profile, 0)
        .expect("YDS profile is feasible by construction");
    YdsResult { profile, schedule }
}

/// Optimal energy for `instance` at exponent `alpha` — shorthand used by
/// every ratio experiment.
pub fn optimal_energy(instance: &Instance, alpha: f64) -> f64 {
    yds_profile(instance).energy(alpha)
}

/// Optimal maximum speed for `instance`.
pub fn optimal_max_speed(instance: &Instance) -> f64 {
    yds_profile(instance).max_speed()
}

/// Verifies the *optimality certificate* of a profile/schedule pair for
/// `instance`:
///
/// 1. the schedule is feasible (delegated to the generic checker);
/// 2. every job runs at a single speed equal to the **minimum** profile
///    speed inside its window — the KKT condition of the convex program
///    `min ∫ s^α` (if some job ran at a speed above the minimum
///    available in its window, shifting an ε of its work to the slower
///    region would strictly reduce energy by convexity);
/// 3. the machine is never faster than the executed work requires (no
///    padding: profile work equals total job work).
///
/// Together with convexity these conditions are sufficient for
/// optimality, so this is an independent check of the YDS
/// implementation — used by the property tests rather than trusting
/// YDS's own construction.
pub fn verify_optimality_certificate(
    instance: &Instance,
    result: &YdsResult,
) -> Result<(), String> {
    use crate::time::rel_eq;

    result
        .schedule
        .check(&Schedule::requirements_of(instance))
        .map_err(|e| format!("schedule infeasible: {e}"))?;

    // No padding.
    let total = instance.total_work();
    if !rel_eq(result.profile.total_work(), total) {
        return Err(format!(
            "profile carries {} work for {} of jobs",
            result.profile.total_work(),
            total
        ));
    }

    for job in &instance.jobs {
        if job.work <= 0.0 {
            continue;
        }
        let slices: Vec<&crate::schedule::Slice> =
            result.schedule.slices.iter().filter(|s| s.job == job.id).collect();
        if slices.is_empty() {
            return Err(format!("job {} has work but no slices", job.id));
        }
        // Speed at which the bulk of the job runs (slices carrying less
        // than 1e-6 of the job's work are EDF boundary dust and carry no
        // energy-relevant information).
        let run_speed = slices
            .iter()
            .filter(|s| s.work() > 1e-6 * job.work)
            .map(|s| s.speed)
            .fold(0.0, f64::max);
        // Minimum profile speed over the job's window, idle segments
        // included: moving an ε of the job's work into any slower (or
        // idle) stretch of its window would strictly reduce energy by
        // convexity, so optimality requires run_speed ≤ window minimum
        // (and hence the job runs at a single speed level).
        let mut window_min = f64::INFINITY;
        for (iv, v) in result.profile.segments() {
            if iv.overlap_len(&job.window()) > EPS {
                window_min = window_min.min(v);
            }
        }
        if run_speed > window_min * (1.0 + 1e-6) + EPS {
            return Err(format!(
                "job {} runs at {run_speed} while its window has speed {window_min} available",
                job.id
            ));
        }
    }
    Ok(())
}

/// Maps a point from current (collapsed) coordinates back to original
/// time, given the sorted disjoint removed intervals.
fn to_original(removed: &[Interval], point: f64) -> f64 {
    let mut x = point;
    for r in removed {
        if r.start <= x + EPS {
            x += r.len();
        } else {
            break;
        }
    }
    x
}

/// The original-time pieces of `[a, b]` not covered by `removed`.
fn subtract_removed(removed: &[Interval], a: f64, b: f64) -> Vec<Interval> {
    let mut pieces = Vec::new();
    let mut cursor = a;
    for r in removed {
        if r.end <= cursor + EPS {
            continue;
        }
        if r.start >= b - EPS {
            break;
        }
        if r.start > cursor + EPS {
            pieces.push(Interval::new(cursor, r.start.min(b)));
        }
        cursor = cursor.max(r.end);
        if cursor >= b - EPS {
            break;
        }
    }
    if cursor < b - EPS {
        pieces.push(Interval::new(cursor, b));
    }
    pieces
}

/// Inserts new (disjoint-from-existing) pieces into the sorted removed
/// set, merging adjacency.
fn insert_removed(removed: &mut Vec<Interval>, pieces: Vec<Interval>) {
    removed.extend(pieces);
    removed.sort_by(|x, y| time_key(x.start).total_cmp(&time_key(y.start)));
    let mut merged: Vec<Interval> = Vec::with_capacity(removed.len());
    for iv in removed.drain(..) {
        match merged.last_mut() {
            Some(last) if iv.start <= last.end + EPS => {
                last.end = last.end.max(iv.end);
            }
            _ => merged.push(iv),
        }
    }
    *removed = merged;
}

/// Collapses a point after removing `[a, b]` from the axis.
fn collapse_point(x: f64, a: f64, b: f64) -> f64 {
    if x <= a + EPS {
        x
    } else if x <= b + EPS {
        a
    } else {
        x - (b - a)
    }
}

/// Builds the final profile: the fixed pieces at their speeds, zero on
/// the rest of `[min_release, max_deadline]`.
fn profile_from_fixed(instance: &Instance, fixed: Vec<(Interval, f64)>) -> SpeedProfile {
    if instance.is_empty() || fixed.is_empty() {
        return SpeedProfile::zero();
    }
    let mut events: Vec<f64> = vec![instance.min_release(), instance.max_deadline()];
    for (iv, _) in &fixed {
        events.push(iv.start);
        events.push(iv.end);
    }
    SpeedProfile::from_events(events, |t| {
        fixed
            .iter()
            .find(|(iv, _)| iv.start < t && t <= iv.end)
            .map_or(0.0, |&(_, s)| s)
    })
    .simplify()
}

/// The full rescan [`yds_profile`] replaced: every round dedups the
/// releases, re-sorts by deadline and scans every (release, deadline)
/// pair. Kept as the reference the differential tests hold the lazy
/// search to, bit for bit.
#[cfg(test)]
pub(crate) fn reference_yds_profile(instance: &Instance) -> SpeedProfile {
    let mut jobs = work_items(instance);
    let mut fixed: Vec<(Interval, f64)> = Vec::new();
    let mut removed: Vec<Interval> = Vec::new();
    while !jobs.is_empty() {
        let Some((a, b, intensity)) = reference_critical_interval(&jobs) else {
            break;
        };
        if intensity <= EPS {
            break;
        }
        fix_interval(&mut fixed, &mut removed, a, b, intensity);
        remove_critical(&mut jobs, a, b);
    }
    profile_from_fixed(instance, fixed)
}

#[cfg(test)]
fn reference_critical_interval(jobs: &[WorkItem]) -> Option<(f64, f64, f64)> {
    let releases = crate::time::dedup_times(jobs.iter().map(|j| j.release).collect());
    let mut by_deadline: Vec<&WorkItem> = jobs.iter().collect();
    by_deadline.sort_by(|x, y| x.deadline.partial_cmp(&y.deadline).expect("finite"));

    let mut best: Option<(f64, f64, f64)> = None;
    for &t1 in &releases {
        let mut acc = 0.0;
        for j in &by_deadline {
            if j.release + EPS < t1 {
                continue;
            }
            let t2 = j.deadline;
            if t2 <= t1 + EPS {
                continue;
            }
            acc += j.work;
            let g = acc / (t2 - t1);
            if best.is_none_or(|(_, _, gb)| g > gb) {
                best = Some((t1, t2, g));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;

    fn inst(jobs: Vec<Job>) -> Instance {
        Instance::new(jobs)
    }

    #[test]
    fn single_job_runs_at_density() {
        let i = inst(vec![Job::new(0, 0.0, 2.0, 4.0)]);
        let p = yds_profile(&i);
        assert!((p.speed_at(1.0) - 2.0).abs() < 1e-9);
        assert!((p.energy(3.0) - 2.0 * 8.0).abs() < 1e-9);
        assert!((p.max_speed() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn common_window_jobs_share_constant_speed() {
        // All jobs active in (0, 1]: optimal speed is the total work.
        let i = inst(vec![
            Job::new(0, 0.0, 1.0, 1.0),
            Job::new(1, 0.0, 1.0, 2.0),
            Job::new(2, 0.0, 1.0, 3.0),
        ]);
        let p = yds_profile(&i);
        assert!((p.speed_at(0.5) - 6.0).abs() < 1e-9);
        let r = yds(&i);
        assert!(r
            .schedule
            .check(&Schedule::requirements_of(&i))
            .is_ok());
    }

    #[test]
    fn textbook_two_level_instance() {
        // Dense inner job forces a high-speed critical interval; the
        // outer job is pushed to the remaining time at lower speed.
        let i = inst(vec![
            Job::new(0, 0.0, 4.0, 4.0), // density 1
            Job::new(1, 1.0, 2.0, 3.0), // density 3 — critical
        ]);
        let p = yds_profile(&i);
        // Critical interval (1,2] at speed 3; the outer job gets
        // (0,1] ∪ (2,4], i.e. 3 time units for 4 work → speed 4/3.
        assert!((p.speed_at(1.5) - 3.0).abs() < 1e-9);
        assert!((p.speed_at(0.5) - 4.0 / 3.0).abs() < 1e-9);
        assert!((p.speed_at(3.0) - 4.0 / 3.0).abs() < 1e-9);
        let r = yds(&i);
        assert!(r.schedule.check(&Schedule::requirements_of(&i)).is_ok());
    }

    #[test]
    fn disjoint_windows_independent_speeds() {
        let i = inst(vec![
            Job::new(0, 0.0, 1.0, 2.0),
            Job::new(1, 1.0, 2.0, 1.0),
        ]);
        let p = yds_profile(&i);
        assert!((p.speed_at(0.5) - 2.0).abs() < 1e-9);
        assert!((p.speed_at(1.5) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn speed_profile_total_work_matches() {
        let i = inst(vec![
            Job::new(0, 0.0, 3.0, 2.0),
            Job::new(1, 0.5, 1.5, 1.0),
            Job::new(2, 2.0, 4.0, 3.0),
        ]);
        let p = yds_profile(&i);
        assert!((p.total_work() - i.total_work()).abs() < 1e-6);
    }

    #[test]
    fn nested_criticals_collapse_correctly() {
        // Three nested windows with decreasing density.
        let i = inst(vec![
            Job::new(0, 0.0, 8.0, 2.0),
            Job::new(1, 2.0, 6.0, 4.0),
            Job::new(2, 3.0, 5.0, 6.0),
        ]);
        let r = yds(&i);
        assert!(r.schedule.check(&Schedule::requirements_of(&i)).is_ok());
        // Innermost (3,5] must be the fastest region.
        let p = &r.profile;
        assert!(p.speed_at(4.0) >= p.speed_at(2.5) - 1e-9);
        assert!(p.speed_at(2.5) >= p.speed_at(1.0) - 1e-9);
        assert!((p.total_work() - 12.0).abs() < 1e-6);
    }

    #[test]
    fn zero_work_instance() {
        let i = inst(vec![Job::new(0, 0.0, 1.0, 0.0)]);
        let p = yds_profile(&i);
        assert_eq!(p.max_speed(), 0.0);
        assert!(yds(&i).schedule.slices.is_empty());
    }

    #[test]
    fn empty_instance() {
        let p = yds_profile(&Instance::default());
        assert_eq!(p.max_speed(), 0.0);
    }

    #[test]
    fn yds_not_worse_than_avr_style_profile() {
        // Energy optimality sanity: YDS beats (or ties) running every job
        // at its own density (the AVR profile is always feasible).
        let i = inst(vec![
            Job::new(0, 0.0, 2.0, 2.0),
            Job::new(1, 1.0, 4.0, 3.0),
            Job::new(2, 3.0, 5.0, 1.0),
        ]);
        let avr_profile = SpeedProfile::from_events(i.event_times(), |t| i.total_density_at(t));
        for &alpha in &[1.5, 2.0, 2.5, 3.0] {
            assert!(
                yds_profile(&i).energy(alpha) <= avr_profile.energy(alpha) + 1e-9,
                "YDS must be optimal at alpha={alpha}"
            );
        }
    }

    #[test]
    fn certificate_accepts_yds_output() {
        let i = inst(vec![
            Job::new(0, 0.0, 4.0, 4.0),
            Job::new(1, 1.0, 2.0, 3.0),
            Job::new(2, 3.0, 6.0, 2.0),
            Job::new(3, 0.5, 5.0, 1.0),
        ]);
        let r = yds(&i);
        verify_optimality_certificate(&i, &r).expect("YDS output must certify");
    }

    #[test]
    fn certificate_rejects_suboptimal_profiles() {
        // The AVR profile is feasible but piles speed where YDS
        // flattens; its realization must fail the certificate.
        let i = inst(vec![
            Job::new(0, 0.0, 4.0, 4.0),
            Job::new(1, 1.0, 2.0, 3.0),
        ]);
        let profile = crate::avr::avr_profile(&i);
        let schedule =
            edf_schedule(&EdfTask::from_instance(&i), &profile, 0).expect("feasible");
        let fake = YdsResult { profile, schedule };
        assert!(verify_optimality_certificate(&i, &fake).is_err());
    }

    #[test]
    fn certificate_rejects_padded_profiles() {
        // Doubling the optimal speed keeps feasibility but pads work.
        let i = inst(vec![Job::new(0, 0.0, 2.0, 2.0)]);
        let profile = yds_profile(&i).scale(2.0);
        let schedule =
            edf_schedule(&EdfTask::from_instance(&i), &profile, 0).expect("feasible");
        let fake = YdsResult { profile, schedule };
        let err = verify_optimality_certificate(&i, &fake).unwrap_err();
        assert!(err.contains("work"), "{err}");
    }

    #[test]
    fn common_deadline_decreasing_speed() {
        // With a common release, YDS speeds are non-increasing in time.
        let i = inst(vec![
            Job::new(0, 0.0, 1.0, 5.0),
            Job::new(1, 0.0, 2.0, 1.0),
            Job::new(2, 0.0, 4.0, 1.0),
        ]);
        let p = yds_profile(&i);
        let mut last = f64::INFINITY;
        for (_, s) in p.segments() {
            assert!(s <= last + 1e-9, "YDS speeds must be non-increasing here");
            last = s;
        }
    }
}
