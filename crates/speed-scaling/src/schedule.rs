//! Explicit schedules and the feasibility checker.
//!
//! A [`Schedule`] is a set of [`Slice`]s: "machine `m` runs job `j` at
//! speed `s` during `(start, end]`". Every algorithm in the workspace
//! returns an explicit schedule so that a *single* checker
//! ([`Schedule::check`]) can verify all of the model's constraints:
//!
//! 1. each slice lies inside the job's active window,
//! 2. each machine runs at most one job at a time,
//! 3. no job runs on two machines simultaneously (migration is allowed,
//!    parallelism is not),
//! 4. every job receives exactly its required work.
//!
//! Tests never trust an algorithm's self-reported energy: they recompute
//! it from the slices.

use std::collections::HashMap;

use crate::job::JobId;
use crate::time::{dedup_times, time_key, Interval, EPS, REL_TOL};

/// One maximal run of a job on a machine at constant speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// Index of the original job this slice executes (see
    /// [`crate::job::JobId`] — derived jobs share the id of their origin).
    pub job: JobId,
    /// Machine index (0 for the single-machine algorithms).
    pub machine: usize,
    /// Start of the run.
    pub start: f64,
    /// End of the run.
    pub end: f64,
    /// Constant speed during the run.
    pub speed: f64,
}

impl Slice {
    /// The time interval of the slice.
    pub fn interval(&self) -> Interval {
        Interval::new(self.start, self.end)
    }

    /// Work executed by this slice.
    pub fn work(&self) -> f64 {
        (self.end - self.start).max(0.0) * self.speed
    }
}

/// An explicit (possibly multi-machine) preemptive schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    /// All slices, in no particular order.
    pub slices: Vec<Slice>,
    /// Number of machines the schedule is allowed to use.
    pub machines: usize,
}

/// A requirement the checker verifies work-conservation against:
/// job `id` must receive `work` units inside `window`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkRequirement {
    /// Job identifier the requirement applies to.
    pub id: JobId,
    /// Window the work must be executed in.
    pub window: Interval,
    /// Amount of work required.
    pub work: f64,
}

impl WorkRequirement {
    /// Convenience constructor.
    pub fn new(id: JobId, window: Interval, work: f64) -> Self {
        Self { id, window, work }
    }
}

/// A violation found by [`Schedule::check`].
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// A slice refers to a machine index `>= machines`.
    BadMachine(Slice),
    /// A slice has a reversed interval or negative speed.
    MalformedSlice(Slice),
    /// A slice executes work of a job outside one of its requirement
    /// windows (job id, offending slice).
    OutsideWindow(JobId, Slice),
    /// Two slices overlap in time on the same machine.
    MachineOverlap(Slice, Slice),
    /// The same job runs simultaneously on two machines.
    JobParallelism(Slice, Slice),
    /// A job did not receive its required work (id, got, wanted).
    WrongWork(JobId, f64, f64),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMachine(s) => write!(f, "slice on unknown machine: {s:?}"),
            Self::MalformedSlice(s) => write!(f, "malformed slice: {s:?}"),
            Self::OutsideWindow(id, s) => {
                write!(f, "job {id} executed outside its window by {s:?}")
            }
            Self::MachineOverlap(a, b) => write!(f, "machine overlap: {a:?} vs {b:?}"),
            Self::JobParallelism(a, b) => write!(f, "job parallelism: {a:?} vs {b:?}"),
            Self::WrongWork(id, got, want) => {
                write!(f, "job {id} got {got} work, required {want}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

impl Schedule {
    /// An empty schedule on `machines` machines.
    pub fn empty(machines: usize) -> Self {
        Self { slices: Vec::new(), machines }
    }

    /// Adds a slice, silently dropping numerically empty ones (length or
    /// speed ≤ EPS·EPS region) — algorithms generate plenty of those at
    /// segment boundaries.
    pub fn push(&mut self, slice: Slice) {
        if slice.end - slice.start > EPS && slice.speed > 0.0 {
            self.slices.push(slice);
        }
    }

    /// Total energy `Σ len·speed^α` recomputed from the slices.
    pub fn energy(&self, alpha: f64) -> f64 {
        assert!(alpha > 1.0, "the power exponent must satisfy α > 1, got {alpha}");
        self.slices
            .iter()
            .map(|s| (s.end - s.start).max(0.0) * s.speed.powf(alpha))
            .sum()
    }

    /// Maximum speed over all slices.
    pub fn max_speed(&self) -> f64 {
        self.slices.iter().map(|s| s.speed).fold(0.0, f64::max)
    }

    /// Work delivered to job `id`.
    pub fn work_of(&self, id: JobId) -> f64 {
        self.slices.iter().filter(|s| s.job == id).map(Slice::work).sum()
    }

    /// The aggregate speed profile of machine `m` (0 where idle).
    pub fn machine_profile(&self, machine: usize) -> crate::profile::SpeedProfile {
        let mine: Vec<&Slice> = self.slices.iter().filter(|s| s.machine == machine).collect();
        if mine.is_empty() {
            return crate::profile::SpeedProfile::zero();
        }
        let mut events: Vec<f64> = Vec::with_capacity(2 * mine.len());
        for s in &mine {
            events.push(s.start);
            events.push(s.end);
        }
        crate::profile::SpeedProfile::from_events(events, |t| {
            mine.iter()
                .filter(|s| s.start < t && t <= s.end)
                .map(|s| s.speed)
                .sum()
        })
    }

    /// Verifies the schedule against the model constraints listed in the
    /// module docs. `requirements` may contain several entries per job id
    /// (e.g. a query part and an exact-work part); work conservation is
    /// then checked per-entry *and* windows are the union of the entry
    /// windows for containment purposes.
    ///
    /// Costs O(S log S + G·m) for S slices, G grid segments and m
    /// machines, and reports the same first violation as a pairwise scan
    /// of every segment.
    pub fn check(&self, requirements: &[WorkRequirement]) -> Result<(), ScheduleError> {
        // 0. Structural validity.
        for s in &self.slices {
            if s.machine >= self.machines {
                return Err(ScheduleError::BadMachine(*s));
            }
            if !(s.start.is_finite() && s.end.is_finite())
                || s.end < s.start - EPS
                || s.speed < 0.0
                || !s.speed.is_finite()
            {
                return Err(ScheduleError::MalformedSlice(*s));
            }
        }

        // 1. Window containment: every slice of a job must lie in the
        //    union of that job's requirement windows.
        let mut windows: HashMap<JobId, Vec<Interval>> = HashMap::new();
        for req in requirements {
            windows.entry(req.id).or_default().push(req.window);
        }
        for s in &self.slices {
            let Some(ws) = windows.get(&s.job) else {
                return Err(ScheduleError::OutsideWindow(s.job, *s));
            };
            // The slice may straddle two adjacent windows of the same job
            // (query window followed by exact-work window), so check that
            // its interval is covered by the union.
            let iv = s.interval();
            let covered: f64 = ws.iter().map(|w| w.overlap_len(&iv)).sum();
            if covered + EPS < iv.len() {
                return Err(ScheduleError::OutsideWindow(s.job, *s));
            }
        }

        // 2. Machine exclusivity & 3. no intra-job parallelism.
        let (mut segments, mut live_visits) = (0u64, 0u64);
        let exclusive = self.sweep_live(&mut segments, &mut live_visits);
        qbss_telemetry::counter!("check.segments").add(segments);
        qbss_telemetry::counter!("check.live_visits").add(live_visits);
        exclusive?;

        // 4. Work conservation, per requirement entry: the work delivered
        //    to job `id` within the entry's window must match. Each job's
        //    slices are one run of a (job, index) order, summed in index
        //    order.
        let mut by_job: Vec<usize> = (0..self.slices.len()).collect();
        by_job.sort_by_key(|&i| self.slices[i].job);
        for req in requirements {
            let lo = by_job.partition_point(|&i| self.slices[i].job < req.id);
            let hi = by_job.partition_point(|&i| self.slices[i].job <= req.id);
            let got: f64 = by_job[lo..hi]
                .iter()
                .map(|&i| self.slices[i].interval().overlap_len(&req.window) * self.slices[i].speed)
                .sum();
            let scale = req.work.abs().max(1.0);
            if (got - req.work).abs() > REL_TOL * scale {
                return Err(ScheduleError::WrongWork(req.id, got, req.work));
            }
        }
        Ok(())
    }

    /// Steps 2 and 3 of [`Schedule::check`]: sweeps the union event grid
    /// and, at each elementary segment's midpoint `t`, tests every pair
    /// of live slices (`start < t < end`; within a segment every slice is
    /// either fully present or absent). The live set is kept in slice
    /// order as `t` grows: slices enter in start order and leave once
    /// `end <= t`. Two of any `m + 1` live slices share a machine, so the
    /// sweep only gets past a midpoint where at most `m` are live.
    /// Requires finite endpoints (step 0).
    fn sweep_live(&self, segments: &mut u64, live_visits: &mut u64) -> Result<(), ScheduleError> {
        let slices = &self.slices;
        let mut events: Vec<f64> = Vec::with_capacity(2 * slices.len());
        for s in slices {
            events.push(s.start);
            events.push(s.end);
        }
        let events = dedup_times(events);
        let mut by_start: Vec<usize> = (0..slices.len()).collect();
        by_start.sort_by(|&a, &b| time_key(slices[a].start).total_cmp(&time_key(slices[b].start)));
        let mut entered = 0;
        let mut live: Vec<usize> = Vec::new();
        for w in events.windows(2) {
            if w[1] - w[0] <= EPS {
                continue;
            }
            let t = 0.5 * (w[0] + w[1]);
            *segments += 1;
            live.retain(|&i| t < slices[i].end);
            while let Some(&i) = by_start.get(entered) {
                if slices[i].start >= t {
                    break;
                }
                entered += 1;
                if t < slices[i].end {
                    let at = live.partition_point(|&j| j < i);
                    live.insert(at, i);
                }
            }
            *live_visits += live.len() as u64;
            for (k, &a) in live.iter().enumerate() {
                for &b in &live[k + 1..] {
                    let (a, b) = (slices[a], slices[b]);
                    if a.machine == b.machine {
                        return Err(ScheduleError::MachineOverlap(a, b));
                    }
                    if a.job == b.job {
                        return Err(ScheduleError::JobParallelism(a, b));
                    }
                }
            }
        }
        Ok(())
    }

    /// The quadratic checker [`Schedule::check`] replaced: steps 2 and 3
    /// filter every slice at every segment midpoint, and step 4 filters
    /// every slice once per requirement. Kept as the reference the
    /// differential tests hold the fast path to.
    #[cfg(test)]
    pub(crate) fn reference_check(
        &self,
        requirements: &[WorkRequirement],
    ) -> Result<(), ScheduleError> {
        // 0. Structural validity.
        for s in &self.slices {
            if s.machine >= self.machines {
                return Err(ScheduleError::BadMachine(*s));
            }
            if !(s.start.is_finite() && s.end.is_finite())
                || s.end < s.start - EPS
                || s.speed < 0.0
                || !s.speed.is_finite()
            {
                return Err(ScheduleError::MalformedSlice(*s));
            }
        }

        // 1. Window containment: every slice of a job must lie in the
        //    union of that job's requirement windows.
        let mut windows: HashMap<JobId, Vec<Interval>> = HashMap::new();
        for req in requirements {
            windows.entry(req.id).or_default().push(req.window);
        }
        for s in &self.slices {
            let Some(ws) = windows.get(&s.job) else {
                return Err(ScheduleError::OutsideWindow(s.job, *s));
            };
            // The slice may straddle two adjacent windows of the same job
            // (query window followed by exact-work window), so check that
            // its interval is covered by the union.
            let iv = s.interval();
            let covered: f64 = ws.iter().map(|w| w.overlap_len(&iv)).sum();
            if covered + EPS < iv.len() {
                return Err(ScheduleError::OutsideWindow(s.job, *s));
            }
        }

        // 2. Machine exclusivity & 3. no intra-job parallelism. Sweep the
        //    union event grid; within each elementary segment every slice
        //    is either fully present or absent.
        let mut events: Vec<f64> = Vec::with_capacity(2 * self.slices.len());
        for s in &self.slices {
            events.push(s.start);
            events.push(s.end);
        }
        let events = dedup_times(events);
        for w in events.windows(2) {
            if w[1] - w[0] <= EPS {
                continue;
            }
            let t = 0.5 * (w[0] + w[1]);
            let live: Vec<&Slice> =
                self.slices.iter().filter(|s| s.start < t && t < s.end).collect();
            for (i, a) in live.iter().enumerate() {
                for b in &live[i + 1..] {
                    if a.machine == b.machine {
                        return Err(ScheduleError::MachineOverlap(**a, **b));
                    }
                    if a.job == b.job {
                        return Err(ScheduleError::JobParallelism(**a, **b));
                    }
                }
            }
        }

        // 4. Work conservation, per requirement entry: the work delivered
        //    to job `id` within the entry's window must match.
        for req in requirements {
            let got: f64 = self
                .slices
                .iter()
                .filter(|s| s.job == req.id)
                .map(|s| s.interval().overlap_len(&req.window) * s.speed)
                .sum();
            let scale = req.work.abs().max(1.0);
            if (got - req.work).abs() > REL_TOL * scale {
                return Err(ScheduleError::WrongWork(req.id, got, req.work));
            }
        }
        Ok(())
    }

    /// Builds requirements straight from a classical instance (each job
    /// needs `w_j` inside `(r_j, d_j]`).
    pub fn requirements_of(instance: &crate::job::Instance) -> Vec<WorkRequirement> {
        instance
            .jobs
            .iter()
            .map(|j| WorkRequirement::new(j.id, j.window(), j.work))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Instance, Job};

    fn slice(job: JobId, machine: usize, start: f64, end: f64, speed: f64) -> Slice {
        Slice { job, machine, start, end, speed }
    }

    #[test]
    fn valid_single_machine_schedule() {
        let inst = Instance::new(vec![Job::new(0, 0.0, 2.0, 2.0), Job::new(1, 0.0, 2.0, 2.0)]);
        let mut sched = Schedule::empty(1);
        sched.push(slice(0, 0, 0.0, 1.0, 2.0));
        sched.push(slice(1, 0, 1.0, 2.0, 2.0));
        let reqs = Schedule::requirements_of(&inst);
        assert!(sched.check(&reqs).is_ok());
        assert!((sched.energy(3.0) - 2.0 * 8.0).abs() < 1e-9);
        assert_eq!(sched.max_speed(), 2.0);
        assert!((sched.work_of(0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn detects_machine_overlap() {
        let inst = Instance::new(vec![Job::new(0, 0.0, 2.0, 1.0), Job::new(1, 0.0, 2.0, 1.0)]);
        let mut sched = Schedule::empty(1);
        sched.push(slice(0, 0, 0.0, 1.0, 1.0));
        sched.push(slice(1, 0, 0.5, 1.5, 1.0));
        let err = sched.check(&Schedule::requirements_of(&inst)).unwrap_err();
        assert!(matches!(err, ScheduleError::MachineOverlap(_, _)));
    }

    #[test]
    fn detects_window_violation() {
        let inst = Instance::new(vec![Job::new(0, 1.0, 2.0, 1.0)]);
        let mut sched = Schedule::empty(1);
        sched.push(slice(0, 0, 0.5, 1.5, 1.0));
        let err = sched.check(&Schedule::requirements_of(&inst)).unwrap_err();
        assert!(matches!(err, ScheduleError::OutsideWindow(0, _)));
    }

    #[test]
    fn detects_missing_work() {
        let inst = Instance::new(vec![Job::new(0, 0.0, 2.0, 3.0)]);
        let mut sched = Schedule::empty(1);
        sched.push(slice(0, 0, 0.0, 1.0, 1.0));
        let err = sched.check(&Schedule::requirements_of(&inst)).unwrap_err();
        assert!(matches!(err, ScheduleError::WrongWork(0, _, _)));
    }

    #[test]
    fn detects_job_parallelism_across_machines() {
        let inst = Instance::new(vec![Job::new(0, 0.0, 2.0, 4.0)]);
        let mut sched = Schedule::empty(2);
        sched.push(slice(0, 0, 0.0, 2.0, 1.0));
        sched.push(slice(0, 1, 0.0, 2.0, 1.0));
        let err = sched.check(&Schedule::requirements_of(&inst)).unwrap_err();
        assert!(matches!(err, ScheduleError::JobParallelism(_, _)));
    }

    #[test]
    fn migration_without_parallelism_is_fine() {
        let inst = Instance::new(vec![Job::new(0, 0.0, 2.0, 2.0)]);
        let mut sched = Schedule::empty(2);
        sched.push(slice(0, 0, 0.0, 1.0, 1.0));
        sched.push(slice(0, 1, 1.0, 2.0, 1.0));
        assert!(sched.check(&Schedule::requirements_of(&inst)).is_ok());
    }

    #[test]
    fn bad_machine_index() {
        let inst = Instance::new(vec![Job::new(0, 0.0, 1.0, 1.0)]);
        let mut sched = Schedule::empty(1);
        sched.push(slice(0, 3, 0.0, 1.0, 1.0));
        let err = sched.check(&Schedule::requirements_of(&inst)).unwrap_err();
        assert!(matches!(err, ScheduleError::BadMachine(_)));
    }

    #[test]
    fn split_requirements_per_window() {
        // One job id with two requirement windows (query then work), as
        // the QBSS algorithms produce.
        let reqs = vec![
            WorkRequirement::new(7, Interval::new(0.0, 1.0), 1.0),
            WorkRequirement::new(7, Interval::new(1.0, 2.0), 3.0),
        ];
        let mut sched = Schedule::empty(1);
        sched.push(slice(7, 0, 0.0, 1.0, 1.0));
        sched.push(slice(7, 0, 1.0, 2.0, 3.0));
        assert!(sched.check(&reqs).is_ok());
        // Move work into the wrong half: per-window conservation fails.
        let mut bad = Schedule::empty(1);
        bad.push(slice(7, 0, 0.0, 1.0, 4.0));
        assert!(bad.check(&reqs).is_err());
    }

    #[test]
    fn machine_profile_reconstruction() {
        let mut sched = Schedule::empty(2);
        sched.push(slice(0, 0, 0.0, 1.0, 2.0));
        sched.push(slice(1, 0, 1.0, 2.0, 3.0));
        sched.push(slice(2, 1, 0.0, 2.0, 1.0));
        let p0 = sched.machine_profile(0);
        assert_eq!(p0.speed_at(0.5), 2.0);
        assert_eq!(p0.speed_at(1.5), 3.0);
        let p1 = sched.machine_profile(1);
        assert_eq!(p1.speed_at(1.0), 1.0);
        assert_eq!(sched.machine_profile(5).max_speed(), 0.0);
    }

    #[test]
    fn empty_slices_dropped() {
        let mut sched = Schedule::empty(1);
        sched.push(slice(0, 0, 1.0, 1.0, 5.0));
        sched.push(slice(0, 0, 1.0, 2.0, 0.0));
        assert!(sched.slices.is_empty());
    }
}
