//! Incremental (event-at-a-time) drivers for the online substrate
//! algorithms.
//!
//! The batch entry points ([`crate::avr::avr_profile`],
//! [`crate::oa::oa_profile`], [`crate::bkp::bkp_profile`]) are thin
//! adapters over the streams in this module: they feed the instance's
//! jobs in arrival order (release-sorted, stable) and call
//! [`OaStream::finish`] & co. A long-lived caller — the `qbss-core`
//! `StreamingSolver`, and transitively a serve-plane session — feeds
//! the same streams one arrival at a time instead, paying an amortized
//! per-event cost rather than a per-instance re-solve.
//!
//! ## Feeding contract
//!
//! All three streams require **non-decreasing release times** (up to
//! [`EPS`]); feeding out of order is a programming error and panics.
//! Callers that accept arrivals from the outside (CLI, serve sessions)
//! must validate ordering before feeding. Two jobs with numerically
//! equal releases may be fed in either order; the profile is the same up
//! to floating-point association.
//!
//! ## Incrementality
//!
//! * [`AvrStream`] — each job contributes a density *delta* (`+δ` at its
//!   release, `−δ` at its deadline); the profile is a prefix sum over
//!   the sorted delta list, `O(n log n)` total instead of `O(n²)`
//!   pointwise re-summation. A live speed probe at or after the latest
//!   release sums only the arrivals whose deadline lies past it, a list
//!   pruned at each arrival, instead of every arrival so far.
//! * [`OaStream`] — OA re-plans at every arrival, but every residual
//!   instance has a *common release* (now), where YDS degenerates to the
//!   least concave majorant of the cumulative-work staircase. The plan
//!   is maintained with a monotone stack in `O(k)` per arrival (`k` =
//!   active jobs) instead of a full `O(k³)` YDS re-solve, using
//!   preallocated scratch buffers.
//! * [`BkpStream`] — keeps the arrived jobs in (deadline, arrival)
//!   order, grown by binary insertion, and for each release candidate
//!   `t1` the work of the deadlines that expired before the last
//!   arrival. A query resumes each candidate's running sum there and
//!   sweeps on through the later deadlines, adding what a sweep from
//!   the first deadline adds, in the same order: `O(r·l)` for `r`
//!   releases and `l` deadlines past the kept prefix, against
//!   `O(k log k + r·k)` for a re-sort and full sweep of all `k` arrived
//!   jobs. Keeping the sums costs `O(k)` per arrival and per expired
//!   deadline. `finish` replays the arrivals into an intensity table
//!   that keeps, between grid midpoints, each release's running sum at
//!   each kept deadline and each deadline's best window: an arrival
//!   recomputes `O(rows × entries past its insertion point)` of them,
//!   and a midpoint answers in `O(live)`. The table holds
//!   `O(rows × kept)` sums, the kept deadlines at most about twice the
//!   live ones, and is freed when `finish` returns.

use crate::job::{Instance, Job};
use crate::profile::SpeedProfile;
use crate::time::{approx_eq, dedup_times, time_key, EPS};

/// Returns the instance's jobs in canonical arrival order: sorted by
/// release time, ties kept in storage order (stable). This is the order
/// the batch adapters feed the streams in; a streaming caller that wants
/// bit-identical results to the batch path must feed the same order.
pub fn release_ordered(instance: &Instance) -> Vec<Job> {
    let mut jobs = instance.jobs.clone();
    jobs.sort_by(|a, b| a.release.partial_cmp(&b.release).expect("finite release"));
    jobs
}

fn assert_monotone(last: f64, release: f64, stream: &str) {
    assert!(
        release + EPS >= last,
        "{stream}: arrivals must be fed in release order (last {last}, got {release})"
    );
}

// ---------------------------------------------------------------------------
// AVR
// ---------------------------------------------------------------------------

/// Incremental Average-Rate state: per-job density add/remove events,
/// and the arrivals a live speed probe can still count.
#[derive(Debug, Clone, Default)]
pub struct AvrStream {
    /// `(time, density delta)` — `+δ` at releases, `−δ` at deadlines.
    deltas: Vec<(f64, f64)>,
    /// Arrived jobs, in arrival order.
    jobs: Vec<Job>,
    /// The arrived jobs whose deadline lies more than `EPS` past
    /// `live_from`, in arrival order: at or after `live_from`, every
    /// other arrival's window has closed.
    live: Vec<Job>,
    /// The latest release fed.
    live_from: f64,
    last_release: f64,
}

impl AvrStream {
    /// Fresh empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of arrivals so far.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no job has arrived yet.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Feeds one arrival. Panics if `job.release` is before the previous
    /// arrival (see the module-level feeding contract).
    pub fn on_arrival(&mut self, job: Job) {
        if self.jobs.is_empty() {
            self.live_from = job.release;
        } else {
            assert_monotone(self.last_release, job.release, "AvrStream");
            // A feed may creep down by less than EPS: the pruning
            // threshold never falls.
            self.live_from = self.live_from.max(job.release);
        }
        self.last_release = job.release;
        let delta = job.density();
        self.deltas.push((job.release, delta));
        self.deltas.push((job.deadline, -delta));
        qbss_telemetry::counter!("avr.delta_events").add(2);
        let from = self.live_from;
        self.live.retain(|j| j.deadline > from + EPS);
        if job.deadline > from + EPS {
            self.live.push(job);
        }
        self.jobs.push(job);
    }

    /// The AVR speed just after time `t`: the density sum of arrived jobs
    /// whose window `(r, d]` still covers instants right after `t`. At or
    /// after the latest release only the live arrivals can count, so it
    /// sums those: the same jobs in the same order as a scan of every
    /// arrival, which an earlier `t` still makes.
    pub fn speed_after(&self, t: f64) -> f64 {
        let jobs = if t >= self.live_from { &self.live } else { &self.jobs };
        jobs.iter()
            .filter(|j| j.release <= t + EPS && j.deadline > t + EPS)
            .map(|j| j.density())
            .sum()
    }

    /// Builds the AVR profile of everything that has arrived.
    pub fn finish(&self) -> SpeedProfile {
        if self.jobs.is_empty() {
            return SpeedProfile::zero();
        }
        let mut deltas = self.deltas.clone();
        deltas.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite event time"));
        let grid = dedup_times(deltas.iter().map(|&(t, _)| t).collect());
        let mut values = Vec::with_capacity(grid.len() - 1);
        let mut level = 0.0_f64;
        let mut p = 0usize;
        for w in grid.windows(2) {
            let mid = 0.5 * (w[0] + w[1]);
            while p < deltas.len() && deltas[p].0 < mid {
                level += deltas[p].1;
                p += 1;
            }
            values.push(level.max(0.0));
        }
        qbss_telemetry::counter!("avr.grid_segments").add(values.len() as u64);
        SpeedProfile::new(grid, values)
    }
}

/// The full-history AVR probe, a scan of every arrival, kept as the
/// differential suite's reference.
#[cfg(test)]
impl AvrStream {
    pub(crate) fn reference_speed_after(&self, t: f64) -> f64 {
        self.jobs
            .iter()
            .filter(|j| j.release <= t + EPS && j.deadline > t + EPS)
            .map(|j| j.density())
            .sum()
    }
}

// ---------------------------------------------------------------------------
// BKP
// ---------------------------------------------------------------------------

/// The BKP intensity `max_{t1 < t ≤ t2} w(t1, t2)/(t2 − t1)` over a set
/// of *arrived* jobs (all `release ≤ t + EPS`; the caller pre-filters).
///
/// Candidate `t1` ranges over releases strictly below `t`, candidate `t2`
/// over deadlines at or after `t`; for each `t1` the deadlines are swept
/// in sorted order with a running work sum. A one-shot query: it sorts
/// the jobs by deadline and sums every `t1`'s expired deadlines from the
/// first, `O(k log k + r·k)` for `k` jobs and `r` releases below `t`.
/// [`BkpStream`] answers the same query from sums it keeps.
pub fn intensity_over(arrived: &[Job], t: f64) -> f64 {
    DeadlineView::of(arrived).intensity(t)
}

/// BKP's view of a set of arrived jobs: the jobs in arrival order and in
/// (deadline, arrival) order, and for each job's release as a candidate
/// `t1` the work of a prefix of the deadline order.
///
/// A query at `t` sweeps, for each `t1`, the deadlines in order with a
/// running work sum, and only the *live* deadlines (at or after
/// `t − EPS`) are candidate `t2`s; the *expired* ones before them only
/// feed the sum. So each `t1`'s sum over the expired prefix is kept, and
/// [`DeadlineView::advance`] extends it as probe times grow. A query
/// resumes each sum where the kept prefix ends: the same additions in
/// the same order as a sweep from the first deadline, so the same bits,
/// at `O(r·l)` for `r` releases below `t` and `l` deadlines past the
/// prefix (the live ones, once the prefix reaches `t`).
#[derive(Debug, Clone, Default)]
struct DeadlineView {
    /// The jobs in arrival order.
    jobs: Vec<Job>,
    /// The same jobs in (deadline, arrival) order.
    by_deadline: Vec<Job>,
    /// How many entries of `by_deadline` the `sums` cover.
    summed: usize,
    /// Per job in arrival order: the work of `by_deadline[..summed]`
    /// released at or after the job's release (up to `EPS`), added in
    /// deadline order.
    sums: Vec<f64>,
}

impl DeadlineView {
    /// A view of `jobs` (in arrival order) with nothing summed yet.
    fn of(jobs: &[Job]) -> Self {
        let mut by_deadline = jobs.to_vec();
        by_deadline.sort_by(|a, b| time_key(a.deadline).total_cmp(&time_key(b.deadline)));
        Self { jobs: jobs.to_vec(), by_deadline, summed: 0, sums: vec![0.0; jobs.len()] }
    }

    /// How many entries of `by_deadline` expire before `t`: the deadlines
    /// more than `EPS` before it, which are never candidate `t2`s.
    fn expired(&self, t: f64) -> usize {
        self.by_deadline.partition_point(|j| j.deadline + EPS < t)
    }

    /// Adds the next arrival, after every job with an equal deadline, and
    /// sums its release's share of the kept prefix.
    fn push(&mut self, job: Job) {
        let key = time_key(job.deadline);
        let at = self.by_deadline.partition_point(|j| time_key(j.deadline).total_cmp(&key).is_le());
        if at < self.summed {
            // Arrivals land past the kept prefix whenever each release
            // stays within 2·EPS of every earlier one, as the engine's and
            // the batch adapters' feeds do: the prefix holds deadlines
            // more than EPS before an earlier release, and the new job's
            // deadline is more than EPS past its own release. The feeding
            // check only compares with the previous release, so a feed
            // that creeps down further starts the sums over instead.
            self.summed = 0;
            self.sums.fill(0.0);
        }
        let mut sum = 0.0_f64;
        for j in &self.by_deadline[..self.summed] {
            if j.release + EPS >= job.release {
                sum += j.work;
            }
        }
        qbss_telemetry::counter!("bkp.deadline_steps").add(self.summed as u64);
        self.by_deadline.insert(at, job);
        self.jobs.push(job);
        self.sums.push(sum);
    }

    /// Extends every kept sum over the deadlines that expire before `t`.
    fn advance(&mut self, t: f64) {
        let expired = self.expired(t);
        if self.summed >= expired {
            return;
        }
        for j in &self.by_deadline[self.summed..expired] {
            for (sum, t1) in self.sums.iter_mut().zip(&self.jobs) {
                if j.release + EPS >= t1.release {
                    *sum += j.work;
                }
            }
        }
        let steps = (expired - self.summed) * self.jobs.len();
        qbss_telemetry::counter!("bkp.deadline_steps").add(steps as u64);
        self.summed = expired;
    }

    /// The intensity at `t`; every job in the view must have arrived by
    /// `t`. Resumes from the kept sums when they cover only expired
    /// deadlines, and sums from the first deadline otherwise.
    fn intensity(&self, t: f64) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        let live = self.expired(t);
        let resume = self.summed <= live;
        let from = if resume { self.summed } else { 0 };
        let n = self.by_deadline.len();
        // One window slide = one (t1, t2) candidate step of the sweep, one
        // deadline step = one entry passed by a running sum; both
        // accumulate locally and land with a single `add` per query.
        let mut window_slides = 0_u64;
        let mut deadline_steps = 0_u64;
        let mut best = 0.0_f64;
        for (i, job) in self.jobs.iter().enumerate() {
            let t1 = job.release;
            if !(t1 < t && t1.is_finite()) {
                continue;
            }
            let mut acc = if resume { self.sums[i] } else { 0.0 };
            let mut p = from;
            for cand in self.by_deadline[live..].iter().map(|j| j.deadline) {
                window_slides += 1;
                while p < n && self.by_deadline[p].deadline <= cand + EPS {
                    if self.by_deadline[p].release + EPS >= t1 {
                        acc += self.by_deadline[p].work;
                    }
                    p += 1;
                }
                if cand > t1 + EPS {
                    best = best.max(acc / (cand - t1));
                }
            }
            deadline_steps += (p - from) as u64;
        }
        qbss_telemetry::counter!("bkp.intensity_queries").inc();
        qbss_telemetry::counter!("bkp.window_slides").add(window_slides);
        qbss_telemetry::counter!("bkp.deadline_steps").add(deadline_steps);
        best
    }
}

/// Today's quadratic `intensity_over`: re-sorts the jobs and sums every
/// `t1`'s deadlines from the first, kept as the differential suite's
/// reference.
#[cfg(test)]
pub(crate) fn reference_intensity_over(arrived: &[Job], t: f64) -> f64 {
    if arrived.is_empty() {
        return 0.0;
    }
    let mut by_deadline: Vec<&Job> = arrived.iter().collect();
    by_deadline.sort_by(|a, b| a.deadline.partial_cmp(&b.deadline).expect("finite deadline"));
    let mut best = 0.0_f64;
    for t1 in arrived.iter().map(|j| j.release).filter(|&r| r < t && r.is_finite()) {
        let mut acc = 0.0_f64;
        let mut p = 0usize;
        for cand in by_deadline.iter().map(|j| j.deadline).filter(|&d| d + EPS >= t) {
            while p < by_deadline.len() && by_deadline[p].deadline <= cand + EPS {
                if by_deadline[p].release + EPS >= t1 {
                    acc += by_deadline[p].work;
                }
                p += 1;
            }
            if cand > t1 + EPS {
                best = best.max(acc / (cand - t1));
            }
        }
    }
    best
}

/// Incremental BKP state: the arrived jobs as a [`DeadlineView`] whose
/// sums are extended to each arrival's release before the job joins.
#[derive(Debug, Clone, Default)]
pub struct BkpStream {
    view: DeadlineView,
}

impl BkpStream {
    /// Fresh empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of arrivals so far.
    pub fn len(&self) -> usize {
        self.view.jobs.len()
    }

    /// Whether no job has arrived yet.
    pub fn is_empty(&self) -> bool {
        self.view.jobs.is_empty()
    }

    /// Feeds one arrival. Panics if fed out of release order.
    pub fn on_arrival(&mut self, job: Job) {
        if let Some(last) = self.view.jobs.last() {
            assert_monotone(last.release, job.release, "BkpStream");
        }
        self.view.advance(job.release);
        self.view.push(job);
    }

    /// The BKP speed (`e ·` intensity) just after `t` over the jobs
    /// arrived so far. A probe at or after the last arrival resumes the
    /// stream's sums; an earlier one, which leaves some jobs out, sums
    /// over a one-shot view of the jobs arrived by `t`.
    pub fn speed_after(&self, t: f64) -> f64 {
        let arrived = self.arrived(t);
        let intensity = if arrived == self.view.jobs.len() {
            self.view.intensity(t)
        } else {
            DeadlineView::of(&self.view.jobs[..arrived]).intensity(t)
        };
        std::f64::consts::E * intensity
    }

    fn arrived(&self, t: f64) -> usize {
        self.view.jobs.partition_point(|j| j.release <= t + EPS)
    }

    /// Builds the BKP profile of everything that has arrived: one query
    /// per grid midpoint, on an intensity table that replays the
    /// arrivals and keeps each release's running sums and each
    /// deadline's best window between midpoints. An arrival costs
    /// `O(rows × entries past its insertion point)` and a midpoint
    /// without one `O(live)`. The table holds `O(rows × kept)` sums, the
    /// kept deadlines at most about twice the live ones, and is freed
    /// on return.
    pub fn finish(&self) -> SpeedProfile {
        if self.view.jobs.is_empty() {
            return SpeedProfile::zero();
        }
        let grid = dedup_times(self.events());
        let mut values = Vec::with_capacity(grid.len() - 1);
        let mut table = IntensityTable::default();
        let mut fed = 0;
        for w in grid.windows(2) {
            let mid = 0.5 * (w[0] + w[1]);
            // The arrived count never falls as `mid` grows: each job's
            // test only turns true, and a binary search that meets a true
            // probe where it met a false one only ends further right.
            let arrived = self.arrived(mid);
            debug_assert!(arrived >= fed, "arrivals un-arrived at {mid}");
            let intensity = table.intensity_after(&self.view.jobs[fed..arrived], mid);
            values.push(std::f64::consts::E * intensity);
            fed = arrived;
        }
        SpeedProfile::new(grid, values)
    }

    fn events(&self) -> Vec<f64> {
        let mut events = Vec::with_capacity(2 * self.view.jobs.len());
        for j in &self.view.jobs {
            events.push(j.release);
            events.push(j.deadline);
        }
        events
    }
}

/// BKP's intensities over one [`BkpStream::finish`] replay, kept from
/// one grid midpoint to the next.
///
/// *Entries* are the arrived jobs in (deadline, arrival) order. *Rows*
/// are the candidate `t1`s: an arrived job's release joins once a
/// midpoint lies strictly above it. A row keeps its running sum at each
/// kept entry, `sums[k − base]` over the first `k` entries, adding the
/// work released at or after `t1` (up to `EPS`) in entry order: the
/// additions of [`intensity_over`]'s sweep, in its order. An entry `q`
/// stands for `t2 = d_q`; its sum covers `reach(q)`, the entries with a
/// deadline at most `d_q + EPS`, and `best[q]` is the largest
/// `sums / (d_q − t1)` over the joined rows with `d_q > t1 + EPS`. The
/// intensity at `t` is the largest `best` of a live entry (deadline at
/// or after `t − EPS`): the sweep's values, compared by `max`, which
/// does not depend on their order, so the same bits.
///
/// An arrival inserted at entry `at` changes no sum up to `at`, and no
/// `best` of an entry whose reach ends below its deadline. So it
/// recomputes the sums past `at` and the bests from the first entry
/// within `EPS` below its deadline: `O(rows × entries past the insertion
/// point)`. Several arrivals at one midpoint recompute once, from the
/// lowest of these. A joining row folds its values into the live bests,
/// and a midpoint with neither costs one `max` over the live entries.
/// Rows drop the expired entries once those are half of what they keep,
/// so the kept entries are at most about twice the live ones.
#[derive(Debug, Default)]
struct IntensityTable {
    /// The arrived jobs in (deadline, arrival) order.
    entries: Vec<Job>,
    /// How many leading entries, all expired, the rows no longer keep.
    base: usize,
    /// The joined rows.
    rows: Vec<Row>,
    /// Releases of arrived jobs that no midpoint lies above yet.
    pending: Vec<f64>,
    /// Per entry, the best window ending at its deadline; kept current
    /// for the live entries only.
    best: Vec<f64>,
    /// Per live entry `q`, `reach(q) − base`: where a row keeps the sum
    /// that `q`'s windows divide.
    reach: Vec<usize>,
}

/// One candidate `t1` of an [`IntensityTable`] and its running sums.
#[derive(Debug)]
struct Row {
    t1: f64,
    /// `sums[k]`: the running sum over the first `base + k` entries.
    sums: Vec<f64>,
}

impl IntensityTable {
    /// Adds `arrivals`, the jobs arrived by `t` since the last call, lets
    /// the releases below `t` join, and answers the intensity at `t`.
    fn intensity_after(&mut self, arrivals: &[Job], t: f64) -> f64 {
        // Deadline steps count running-sum entries, window slides
        // `(t1, t2)` values; both land with one `add` per midpoint.
        let mut steps = 0_u64;
        let mut slides = 0_u64;
        let mut from = self.entries.len();
        let mut earliest = f64::INFINITY;
        for &job in arrivals {
            let key = time_key(job.deadline);
            let at =
                self.entries.partition_point(|j| time_key(j.deadline).total_cmp(&key).is_le());
            self.entries.insert(at, job);
            self.best.insert(at, 0.0);
            self.pending.push(job.release);
            from = from.min(at);
            earliest = earliest.min(job.deadline);
        }
        if self.entries.is_empty() {
            return 0.0;
        }
        let n = self.entries.len();
        let live = self.entries.partition_point(|j| j.deadline + EPS < t);
        let joins = self.pending.iter().any(|&t1| t1 < t && t1.is_finite());
        if !arrivals.is_empty() && from < self.base {
            // Only a feed creeping down by less than EPS per arrival
            // inserts below the kept entries: start every row over.
            self.base = from;
            for row in &mut self.rows {
                row.sums.clear();
                row.sums.push(start_sum(&self.entries[..from], row.t1, &mut steps));
            }
        }
        if !arrivals.is_empty() || joins {
            self.reach.resize(n, 0);
            let mut p = live;
            for q in live..n {
                let cap = self.entries[q].deadline + EPS;
                p = p.max(q + 1);
                while p < n && self.entries[p].deadline <= cap {
                    p += 1;
                }
                self.reach[q] = p - self.base;
            }
        }
        if !arrivals.is_empty() {
            let keep = from - self.base + 1;
            let first = self.entries.partition_point(|j| j.deadline + EPS < earliest).max(live);
            self.best[first..].fill(0.0);
            for row in &mut self.rows {
                row.sums.truncate(keep);
                extend_sums(&mut row.sums, row.t1, &self.entries[from..], &mut steps);
                slides += fold_row(
                    row,
                    &self.entries[first..],
                    &self.reach[first..],
                    &mut self.best[first..],
                );
            }
        }
        if joins {
            let mut k = 0;
            while k < self.pending.len() {
                let t1 = self.pending[k];
                if !(t1 < t && t1.is_finite()) {
                    k += 1;
                    continue;
                }
                self.pending.remove(k);
                // A release equal to the last row's has the same sums
                // and values: it adds nothing.
                if self.rows.last().is_some_and(|r| r.t1.to_bits() == t1.to_bits()) {
                    continue;
                }
                let mut sums = Vec::with_capacity(n - self.base + 1);
                sums.push(start_sum(&self.entries[..self.base], t1, &mut steps));
                extend_sums(&mut sums, t1, &self.entries[self.base..], &mut steps);
                let row = Row { t1, sums };
                slides += fold_row(
                    &row,
                    &self.entries[live..],
                    &self.reach[live..],
                    &mut self.best[live..],
                );
                self.rows.push(row);
            }
        }
        if live > self.base && 2 * (live - self.base) >= n - self.base {
            for row in &mut self.rows {
                row.sums.drain(..live - self.base);
            }
            self.base = live;
        }
        qbss_telemetry::counter!("bkp.intensity_queries").inc();
        qbss_telemetry::counter!("bkp.window_slides").add(slides);
        qbss_telemetry::counter!("bkp.deadline_steps").add(steps);
        self.best[live..].iter().fold(0.0, |m, &b| m.max(b))
    }
}

/// Folds `row`'s values at `entries`, all live, into their `best`s;
/// `reach` holds each entry's reach as an index into the row's sums.
/// Returns how many values it computed.
fn fold_row(row: &Row, entries: &[Job], reach: &[usize], best: &mut [f64]) -> u64 {
    let t1 = row.t1;
    // Every live deadline lies past all but the latest rows' `t1`.
    let from = match entries.first() {
        Some(j) if j.deadline > t1 + EPS => 0,
        _ => entries.partition_point(|j| j.deadline <= t1 + EPS),
    };
    for ((j, &r), b) in entries[from..].iter().zip(&reach[from..]).zip(&mut best[from..]) {
        *b = b.max(row.sums[r] / (j.deadline - t1));
    }
    (entries.len() - from) as u64
}

/// The sum a row for `t1` starts from: the work in `dropped` released at
/// or after `t1` (up to `EPS`), in entry order.
fn start_sum(dropped: &[Job], t1: f64, steps: &mut u64) -> f64 {
    let mut acc = 0.0_f64;
    for j in dropped {
        if j.release + EPS >= t1 {
            acc += j.work;
        }
    }
    *steps += dropped.len() as u64;
    acc
}

/// Extends `sums` by the running sum over `entries` of the work released
/// at or after `t1` (up to `EPS`), from the last sum.
fn extend_sums(sums: &mut Vec<f64>, t1: f64, entries: &[Job], steps: &mut u64) {
    let mut acc = sums[sums.len() - 1];
    for j in entries {
        if j.release + EPS >= t1 {
            acc += j.work;
        }
        sums.push(acc);
    }
    *steps += entries.len() as u64;
}

/// Today's BKP queries, one quadratic re-sort and sweep per probe, kept
/// as the differential suite's reference.
#[cfg(test)]
impl BkpStream {
    pub(crate) fn reference_speed_after(&self, t: f64) -> f64 {
        let arrived = &self.view.jobs[..self.arrived(t)];
        std::f64::consts::E * reference_intensity_over(arrived, t)
    }

    pub(crate) fn reference_finish(&self) -> SpeedProfile {
        if self.view.jobs.is_empty() {
            return SpeedProfile::zero();
        }
        let grid = dedup_times(self.events());
        let mut values = Vec::with_capacity(grid.len() - 1);
        for w in grid.windows(2) {
            let mid = 0.5 * (w[0] + w[1]);
            let arrived = &self.view.jobs[..self.arrived(mid)];
            values.push(std::f64::consts::E * reference_intensity_over(arrived, mid));
        }
        SpeedProfile::new(grid, values)
    }
}

// ---------------------------------------------------------------------------
// OA
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct OaJob {
    deadline: f64,
    remaining: f64,
}

/// Incremental Optimal-Available state.
///
/// Every residual instance OA plans for has a common release (the
/// current arrival time), where YDS collapses to the least concave
/// majorant of the cumulative-work staircase over deadlines. The stream
/// keeps the active set deadline-sorted and rebuilds that majorant with
/// a monotone stack in `O(k)` per arrival — no YDS re-solve, no
/// per-event allocation (the stack and plan buffers are reused).
#[derive(Debug, Clone, Default)]
pub struct OaStream {
    /// Current arrival-event time (dedup'd: arrivals within `EPS` of the
    /// anchor merge into the same planning event).
    anchor: Option<f64>,
    horizon: f64,
    min_release: f64,
    last_release: f64,
    /// Released, unfinished jobs sorted by `(deadline, arrival order)`.
    active: Vec<OaJob>,
    /// The committed plan for the current anchor: disjoint
    /// `(start, end, speed)` segments with strictly decreasing speeds.
    plan: Vec<(f64, f64, f64)>,
    /// Executed pieces of the final profile.
    pieces: Vec<(f64, f64, f64)>,
    // Scratch buffers for the majorant stack, reused across arrivals.
    hull_x: Vec<f64>,
    hull_w: Vec<f64>,
}

impl OaStream {
    /// Fresh empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no job has arrived yet.
    pub fn is_empty(&self) -> bool {
        self.anchor.is_none()
    }

    /// The speed OA currently plans to run just after time `t` (0 outside
    /// the committed plan). Querying before and after an arrival yields
    /// the speed delta that arrival caused.
    pub fn planned_speed_after(&self, t: f64) -> f64 {
        self.plan
            .iter()
            .find(|&&(s, e, _)| s <= t + EPS && t < e)
            .map_or(0.0, |&(_, _, v)| v)
    }

    /// Feeds one arrival: executes the committed plan up to the new
    /// arrival time, admits the job and re-plans. Panics if fed out of
    /// release order.
    pub fn on_arrival(&mut self, job: Job) {
        match self.anchor {
            None => {
                self.anchor = Some(job.release);
                self.min_release = job.release;
            }
            Some(a) => {
                assert_monotone(self.last_release, job.release, "OaStream");
                if !approx_eq(job.release, a) {
                    self.execute_to(job.release);
                    self.anchor = Some(job.release);
                }
            }
        }
        self.last_release = job.release;
        self.horizon = self.horizon.max(job.deadline);
        if job.work > EPS {
            let at = self
                .active
                .partition_point(|existing| existing.deadline <= job.deadline);
            self.active.insert(at, OaJob { deadline: job.deadline, remaining: job.work });
        }
        self.replan();
    }

    /// Executes the committed plan up to `t` without a new arrival and
    /// re-plans there. A no-op before the first arrival or when `t` is
    /// not past the current anchor.
    pub fn advance_to(&mut self, t: f64) {
        let Some(a) = self.anchor else { return };
        if t <= a + EPS {
            return;
        }
        self.execute_to(t);
        self.anchor = Some(t);
        self.last_release = self.last_release.max(t);
        self.replan();
    }

    /// Runs the plan out to the horizon and assembles the OA profile of
    /// everything that has arrived.
    pub fn finish(&mut self) -> SpeedProfile {
        if let Some(a) = self.anchor {
            if self.horizon > a + EPS {
                self.execute_to(self.horizon);
                self.anchor = Some(self.horizon);
                self.plan.clear();
            }
        }
        if self.pieces.is_empty() {
            return SpeedProfile::zero();
        }
        let mut events: Vec<f64> = vec![self.min_release, self.horizon];
        for &(a, b, _) in &self.pieces {
            events.push(a);
            events.push(b);
        }
        let pieces = &self.pieces;
        SpeedProfile::from_events(events, |t| {
            // Pieces are disjoint and start-sorted; find (a, b] ∋ t.
            let idx = pieces.partition_point(|&(a, _, _)| a < t);
            if idx == 0 {
                return 0.0;
            }
            let (_, b, s) = pieces[idx - 1];
            if t <= b {
                s
            } else {
                0.0
            }
        })
        .simplify()
    }

    /// Follows the committed plan on `(anchor, t1]`, recording profile
    /// pieces and draining the active set in EDF order.
    fn execute_to(&mut self, t1: f64) {
        for seg in 0..self.plan.len() {
            let (s, e, v) = self.plan[seg];
            if s >= t1 - EPS {
                break;
            }
            let b = e.min(t1);
            if b <= s + EPS || v <= EPS {
                continue;
            }
            self.pieces.push((s, b, v));
            let mut budget = (b - s) * v;
            for job in self.active.iter_mut() {
                if budget <= EPS {
                    break;
                }
                if job.deadline <= s || job.remaining <= EPS {
                    continue;
                }
                let take = budget.min(job.remaining);
                job.remaining -= take;
                budget -= take;
            }
        }
    }

    /// Rebuilds the common-release YDS plan at the current anchor: the
    /// least concave majorant of the cumulative-work staircase over the
    /// active deadlines, via a monotone stack on reused buffers.
    fn replan(&mut self) {
        self.plan.clear();
        let Some(a) = self.anchor else { return };
        self.active.retain(|j| j.remaining > EPS && j.deadline > a + EPS);
        if self.active.is_empty() {
            return;
        }
        self.hull_x.clear();
        self.hull_w.clear();
        self.hull_x.push(0.0);
        self.hull_w.push(0.0);
        // Hull work accumulates locally; one `add` per replan keeps the
        // monotone-stack loop free of atomic traffic.
        let mut hull_updates = 0_u64;
        let mut hull_pops = 0_u64;
        let mut cum = 0.0_f64;
        let mut i = 0usize;
        while i < self.active.len() {
            // Deadlines within EPS of the group head count as one event.
            let head = self.active[i].deadline;
            while i < self.active.len() && approx_eq(self.active[i].deadline, head) {
                cum += self.active[i].remaining;
                i += 1;
            }
            let x = head - a;
            while self.hull_x.len() >= 2 {
                let k = self.hull_x.len();
                let s_prev = (self.hull_w[k - 1] - self.hull_w[k - 2])
                    / (self.hull_x[k - 1] - self.hull_x[k - 2]);
                let s_new = (cum - self.hull_w[k - 1]) / (x - self.hull_x[k - 1]);
                if s_prev <= s_new {
                    self.hull_x.pop();
                    self.hull_w.pop();
                    hull_pops += 1;
                } else {
                    break;
                }
            }
            self.hull_x.push(x);
            self.hull_w.push(cum);
            hull_updates += 1;
        }
        qbss_telemetry::counter!("oa.hull_updates").add(hull_updates);
        qbss_telemetry::counter!("oa.hull_pops").add(hull_pops);
        for k in 1..self.hull_x.len() {
            let speed = (self.hull_w[k] - self.hull_w[k - 1])
                / (self.hull_x[k] - self.hull_x[k - 1]);
            self.plan.push((a + self.hull_x[k - 1], a + self.hull_x[k], speed));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::avr::avr_profile;
    use crate::bkp::{bkp_intensity_at, bkp_profile};
    use crate::oa::oa_profile;
    use crate::yds::yds_profile;

    fn staggered() -> Instance {
        Instance::new(vec![
            Job::new(0, 0.0, 4.0, 2.0),
            Job::new(1, 1.0, 3.0, 2.0),
            Job::new(2, 2.0, 5.0, 1.5),
            Job::new(3, 2.0, 2.5, 0.4),
        ])
    }

    #[test]
    fn avr_stream_matches_batch_bitwise() {
        let inst = staggered();
        let mut s = AvrStream::new();
        for job in release_ordered(&inst) {
            s.on_arrival(job);
        }
        let streamed = s.finish();
        let batch = avr_profile(&inst);
        assert_eq!(streamed.breakpoints(), batch.breakpoints());
        assert_eq!(streamed.values(), batch.values());
    }

    #[test]
    fn bkp_stream_matches_batch_bitwise() {
        let inst = staggered();
        let mut s = BkpStream::new();
        for job in release_ordered(&inst) {
            s.on_arrival(job);
        }
        let streamed = s.finish();
        let batch = bkp_profile(&inst);
        assert_eq!(streamed.breakpoints(), batch.breakpoints());
        assert_eq!(streamed.values(), batch.values());
    }

    #[test]
    fn oa_stream_matches_batch_bitwise() {
        let inst = staggered();
        let mut s = OaStream::new();
        for job in release_ordered(&inst) {
            s.on_arrival(job);
        }
        let streamed = s.finish();
        let batch = oa_profile(&inst);
        assert_eq!(streamed.breakpoints(), batch.breakpoints());
        assert_eq!(streamed.values(), batch.values());
    }

    #[test]
    fn oa_stream_common_release_equals_yds() {
        let inst = Instance::new(vec![
            Job::new(0, 0.0, 1.0, 3.0),
            Job::new(1, 0.0, 2.0, 1.0),
            Job::new(2, 0.0, 4.0, 1.0),
        ]);
        let mut s = OaStream::new();
        for job in release_ordered(&inst) {
            s.on_arrival(job);
        }
        let p = s.finish();
        let opt = yds_profile(&inst);
        for &t in &[0.5, 1.5, 2.5, 3.5] {
            assert!(
                (p.speed_at(t) - opt.speed_at(t)).abs() < 1e-9,
                "common-release OA must equal YDS at t={t}"
            );
        }
    }

    #[test]
    fn oa_advance_to_between_arrivals_is_consistent() {
        // Advancing mid-plan re-anchors the staircase on the remaining
        // work; the executed profile must stay the same schedule. The
        // releases are distinct with gaps wider than the nudge so the
        // advanced clock never passes the next arrival.
        let inst = Instance::new(vec![
            Job::new(0, 0.0, 4.0, 2.0),
            Job::new(1, 1.0, 3.0, 2.0),
            Job::new(2, 2.0, 5.0, 1.5),
            Job::new(3, 3.0, 3.5, 0.4),
        ]);
        let plain = {
            let mut s = OaStream::new();
            for job in release_ordered(&inst) {
                s.on_arrival(job);
            }
            s.finish()
        };
        let nudged = {
            let mut s = OaStream::new();
            for job in release_ordered(&inst) {
                s.on_arrival(job);
                s.advance_to(job.release + 0.25);
            }
            s.finish()
        };
        for &alpha in &[2.0, 3.0] {
            let a = plain.energy(alpha);
            let b = nudged.energy(alpha);
            assert!((a - b).abs() <= 1e-6 * a.max(1.0), "α={alpha}: {a} vs {b}");
        }
    }

    #[test]
    fn intensity_over_matches_all_pairs_reference() {
        // The O(k²) sweep must agree with the original all-pairs scan.
        let inst = staggered();
        for &t in &[0.5, 1.0, 1.5, 2.25, 3.0, 4.5] {
            let arrived: Vec<Job> =
                inst.jobs.iter().copied().filter(|j| j.release <= t + EPS).collect();
            let fast = intensity_over(&arrived, t);
            let mut slow = 0.0_f64;
            for j1 in &arrived {
                for j2 in &arrived {
                    let (t1, t2) = (j1.release, j2.deadline);
                    if t1 < t && t2 + EPS >= t && t2 > t1 + EPS {
                        let w: f64 = arrived
                            .iter()
                            .filter(|j| j.release + EPS >= t1 && j.deadline <= t2 + EPS)
                            .map(|j| j.work)
                            .sum();
                        slow = slow.max(w / (t2 - t1));
                    }
                }
            }
            assert!((fast - slow).abs() < 1e-9, "t={t}: {fast} vs {slow}");
            assert!((bkp_intensity_at(&inst, t) - slow).abs() < 1e-9);
        }
    }

    #[test]
    fn live_speed_queries_reflect_arrivals() {
        let mut avr = AvrStream::new();
        assert_eq!(avr.speed_after(0.0), 0.0);
        avr.on_arrival(Job::new(0, 0.0, 2.0, 4.0));
        assert!((avr.speed_after(0.0) - 2.0).abs() < 1e-12);
        assert_eq!(avr.speed_after(2.5), 0.0);

        let mut oa = OaStream::new();
        assert_eq!(oa.planned_speed_after(0.0), 0.0);
        oa.on_arrival(Job::new(0, 0.0, 2.0, 4.0));
        assert!((oa.planned_speed_after(0.0) - 2.0).abs() < 1e-12);

        let mut bkp = BkpStream::new();
        bkp.on_arrival(Job::new(0, 0.0, 2.0, 4.0));
        assert!((bkp.speed_after(1.0) - std::f64::consts::E * 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "release order")]
    fn out_of_order_feeding_panics() {
        let mut s = OaStream::new();
        s.on_arrival(Job::new(0, 2.0, 3.0, 1.0));
        s.on_arrival(Job::new(1, 0.0, 1.0, 1.0));
    }

    #[test]
    fn empty_streams_finish_to_zero() {
        assert_eq!(AvrStream::new().finish().max_speed(), 0.0);
        assert_eq!(BkpStream::new().finish().max_speed(), 0.0);
        assert_eq!(OaStream::new().finish().max_speed(), 0.0);
    }
}
