//! Earliest-Deadline-First execution under a given speed profile.
//!
//! Classical fact (used implicitly throughout the paper): on a single
//! machine whose speed over time is fixed to `s(t)`, the EDF order
//! completes every job within its window whenever *any* preemptive
//! schedule does. All single-machine algorithms in this workspace
//! therefore only compute a speed profile and delegate slice placement
//! to [`edf_schedule`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::job::JobId;
use crate::profile::SpeedProfile;
use crate::schedule::{Schedule, Slice};
use crate::time::{dedup_times, time_key, Interval, EPS, REL_TOL};

/// A unit of work EDF has to place: `work` units inside `window`,
/// attributed to job `job` in the produced slices.
///
/// Distinct tasks may share a `job` id (a QBSS query part and exact-work
/// part of the same original job); EDF treats them as separate tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdfTask {
    /// Job id recorded on the produced slices.
    pub job: JobId,
    /// Window the work must be placed in.
    pub window: Interval,
    /// Amount of work.
    pub work: f64,
}

impl EdfTask {
    /// Convenience constructor.
    pub fn new(job: JobId, window: Interval, work: f64) -> Self {
        assert!(work >= 0.0 && work.is_finite(), "task work must be >= 0, got {work}");
        Self { job, window, work }
    }

    /// Builds one task per job of a classical instance.
    pub fn from_instance(instance: &crate::job::Instance) -> Vec<EdfTask> {
        instance
            .jobs
            .iter()
            .map(|j| EdfTask::new(j.id, j.window(), j.work))
            .collect()
    }
}

/// Failure of EDF to complete a task by its deadline — the profile does
/// not carry enough work in some window.
#[derive(Debug, Clone, PartialEq)]
pub struct EdfInfeasible {
    /// Job id of the first task that missed its deadline.
    pub job: JobId,
    /// The task's window.
    pub window: Interval,
    /// Work still missing at the deadline.
    pub missing: f64,
}

impl std::fmt::Display for EdfInfeasible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EDF infeasible: job {} misses deadline {} by {} work units",
            self.job, self.window.end, self.missing
        )
    }
}

impl std::error::Error for EdfInfeasible {}

/// Runs EDF under `profile` on machine `machine` and returns the explicit
/// schedule, or the first deadline miss.
///
/// The machine runs at exactly `profile.speed_at(t)` whenever at least
/// one task is pending and is idle otherwise (the unused speed is simply
/// not consumed; energy accounting is done on the schedule's slices, so
/// idling is free).
///
/// Runs in O((n + S) log n) for n tasks and S slices. Ties between equal
/// deadlines go to the lower task index, so the slices, and the first
/// miss reported, are those of a scan for the first earliest deadline.
///
/// ```
/// use speed_scaling::edf::{edf_schedule, EdfTask};
/// use speed_scaling::profile::SpeedProfile;
/// use speed_scaling::time::Interval;
///
/// let tasks = vec![
///     EdfTask::new(0, Interval::new(0.0, 3.0), 2.0),
///     EdfTask::new(1, Interval::new(1.0, 2.0), 1.0), // tighter deadline
/// ];
/// let profile = SpeedProfile::new(vec![0.0, 3.0], vec![1.0]);
/// let sched = edf_schedule(&tasks, &profile, 0).unwrap();
/// // Job 1 preempts job 0 in (1, 2].
/// assert!((sched.work_of(1) - 1.0).abs() < 1e-9);
/// assert!((sched.work_of(0) - 2.0).abs() < 1e-9);
/// ```
pub fn edf_schedule(
    tasks: &[EdfTask],
    profile: &SpeedProfile,
    machine: usize,
) -> Result<Schedule, EdfInfeasible> {
    let mut remaining: Vec<f64> = tasks.iter().map(|t| t.work).collect();

    let mut events: Vec<f64> = profile.breakpoints().to_vec();
    for t in tasks {
        events.push(t.window.start);
        events.push(t.window.end);
    }
    let events = dedup_times(events);

    let mut schedule = Schedule::empty(machine + 1);
    schedule.machines = machine + 1;

    // Pick times only grow: a segment's picks all happen before
    // `seg_end - EPS`, and the next segment starts at `seg_end`. So a
    // task, once released, stays released, and once finished or past
    // its deadline, stays out: a release cursor over start-sorted
    // tasks plus a heap with lazy removal replace the per-pick scan.
    // A NaN endpoint never compares true, so such a task never runs
    // and is only ever reported by the final sweep below.
    let sorted_by = |time: fn(&EdfTask) -> f64| {
        let mut order: Vec<usize> = (0..tasks.len())
            .filter(|&i| !(tasks[i].window.start.is_nan() || tasks[i].window.end.is_nan()))
            .collect();
        order.sort_by(|&a, &b| time_key(time(&tasks[a])).total_cmp(&time_key(time(&tasks[b]))));
        order
    };
    let by_start = sorted_by(|t| t.window.start);
    // The sort is stable, so a task's rank in `by_end` orders it by
    // (deadline, index): the heap holds ranks.
    let by_end = sorted_by(|t| t.window.end);
    let mut rank = vec![0; tasks.len()];
    for (r, &i) in by_end.iter().enumerate() {
        rank[i] = r;
    }
    let mut released = 0;
    let mut due = 0;
    let mut pending: BinaryHeap<Reverse<usize>> = BinaryHeap::with_capacity(by_start.len());
    let (mut heap_pushes, mut heap_pops) = (0u64, 0u64);

    let result = 'sweep: {
        for w in events.windows(2) {
            let (seg_start, seg_end) = (w[0], w[1]);
            if seg_end - seg_start <= EPS {
                continue;
            }
            let speed = profile.speed_at(0.5 * (seg_start + seg_end));
            let mut now = seg_start;
            // Within the segment the released/active set is constant, but
            // tasks can complete mid-segment; loop until the segment is used
            // up or no runnable task remains.
            loop {
                while let Some(&i) = by_start.get(released) {
                    if tasks[i].window.start > now + EPS {
                        break;
                    }
                    pending.push(Reverse(rank[i]));
                    heap_pushes += 1;
                    released += 1;
                }
                // The pending task with the earliest deadline, lowest
                // index on ties.
                let next = loop {
                    let Some(&Reverse(r)) = pending.peek() else { break None };
                    let i = by_end[r];
                    let unfinished = remaining[i] > work_tolerance(tasks[i].work);
                    if unfinished && tasks[i].window.end > now + EPS {
                        break Some(i);
                    }
                    pending.pop();
                    heap_pops += 1;
                };
                let Some(i) = next else { break };
                if speed <= EPS {
                    break; // idle segment: no progress possible
                }
                let seg_left = seg_end - now;
                let finish_time = remaining[i] / speed;
                let run = seg_left.min(finish_time);
                schedule.push(Slice {
                    job: tasks[i].job,
                    machine,
                    start: now,
                    end: now + run,
                    speed,
                });
                remaining[i] -= run * speed;
                now += run;
                if now >= seg_end - EPS {
                    break;
                }
            }
            // Deadline check at the segment boundary: any task whose window
            // ends within EPS of here must be done. Those tasks are one run
            // of the deadline order, and the runs before it stay behind as
            // `seg_end` grows.
            while by_end.get(due).is_some_and(|&i| tasks[i].window.end - seg_end < -EPS) {
                due += 1;
            }
            let missed = by_end[due..]
                .iter()
                .take_while(|&&i| tasks[i].window.end - seg_end <= EPS)
                .filter(|&&i| remaining[i] > work_tolerance(tasks[i].work))
                .min();
            if let Some(&i) = missed {
                break 'sweep Err(i);
            }
        }
        // Anything still unfinished had its deadline beyond the profile end.
        match (0..tasks.len()).find(|&i| remaining[i] > work_tolerance(tasks[i].work)) {
            Some(i) => Err(i),
            None => Ok(()),
        }
    };
    qbss_telemetry::counter!("edf.heap_pushes").add(heap_pushes);
    qbss_telemetry::counter!("edf.heap_pops").add(heap_pops);
    result.map(|()| schedule).map_err(|i| EdfInfeasible {
        job: tasks[i].job,
        window: tasks[i].window,
        missing: remaining[i],
    })
}

/// Whether `profile` can complete all `tasks` (EDF succeeds).
pub fn is_feasible(tasks: &[EdfTask], profile: &SpeedProfile) -> bool {
    edf_schedule(tasks, profile, 0).is_ok()
}

/// The quadratic EDF [`edf_schedule`] replaced: every pick scans all
/// tasks, and so does every deadline check. Kept as the reference the
/// differential tests hold the fast path to, bit for bit.
#[cfg(test)]
pub(crate) fn reference_edf_schedule(
    tasks: &[EdfTask],
    profile: &SpeedProfile,
    machine: usize,
) -> Result<Schedule, EdfInfeasible> {
    let mut remaining: Vec<f64> = tasks.iter().map(|t| t.work).collect();

    let mut events: Vec<f64> = profile.breakpoints().to_vec();
    for t in tasks {
        events.push(t.window.start);
        events.push(t.window.end);
    }
    let events = dedup_times(events);

    let mut schedule = Schedule::empty(machine + 1);
    schedule.machines = machine + 1;

    for w in events.windows(2) {
        let (seg_start, seg_end) = (w[0], w[1]);
        if seg_end - seg_start <= EPS {
            continue;
        }
        let speed = profile.speed_at(0.5 * (seg_start + seg_end));
        let mut now = seg_start;
        // Within the segment the released/active set is constant, but
        // tasks can complete mid-segment; loop until the segment is used
        // up or no runnable task remains.
        loop {
            // Pick the pending task with the earliest deadline.
            let next = (0..tasks.len())
                .filter(|&i| {
                    remaining[i] > work_tolerance(tasks[i].work)
                        && tasks[i].window.start <= now + EPS
                        && tasks[i].window.end > now + EPS
                })
                .min_by(|&a, &b| {
                    tasks[a]
                        .window
                        .end
                        .partial_cmp(&tasks[b].window.end)
                        .expect("finite deadlines")
                });
            let Some(i) = next else { break };
            if speed <= EPS {
                break; // idle segment: no progress possible
            }
            let seg_left = seg_end - now;
            let finish_time = remaining[i] / speed;
            let run = seg_left.min(finish_time);
            schedule.push(Slice {
                job: tasks[i].job,
                machine,
                start: now,
                end: now + run,
                speed,
            });
            remaining[i] -= run * speed;
            now += run;
            if now >= seg_end - EPS {
                break;
            }
        }
        // Deadline check at the segment boundary: any task whose window
        // ends here must be done.
        for (i, t) in tasks.iter().enumerate() {
            if (t.window.end - seg_end).abs() <= EPS && remaining[i] > work_tolerance(t.work) {
                return Err(EdfInfeasible {
                    job: t.job,
                    window: t.window,
                    missing: remaining[i],
                });
            }
        }
    }

    // Anything still unfinished had its deadline beyond the profile end.
    for (i, t) in tasks.iter().enumerate() {
        if remaining[i] > work_tolerance(t.work) {
            return Err(EdfInfeasible { job: t.job, window: t.window, missing: remaining[i] });
        }
    }
    Ok(schedule)
}

#[inline]
fn work_tolerance(total: f64) -> f64 {
    REL_TOL * total.abs().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Instance, Job};
    use crate::schedule::WorkRequirement;

    #[test]
    fn single_job_constant_speed() {
        let tasks = vec![EdfTask::new(0, Interval::new(0.0, 2.0), 4.0)];
        let profile = SpeedProfile::new(vec![0.0, 2.0], vec![2.0]);
        let sched = edf_schedule(&tasks, &profile, 0).expect("feasible");
        assert!((sched.work_of(0) - 4.0).abs() < 1e-9);
        let reqs = vec![WorkRequirement::new(0, Interval::new(0.0, 2.0), 4.0)];
        assert!(sched.check(&reqs).is_ok());
    }

    #[test]
    fn edf_prefers_earliest_deadline() {
        // Job 1's deadline is earlier; it must run first even though job
        // 0 is listed first.
        let tasks = vec![
            EdfTask::new(0, Interval::new(0.0, 4.0), 2.0),
            EdfTask::new(1, Interval::new(0.0, 1.0), 1.0),
        ];
        let profile = SpeedProfile::new(vec![0.0, 4.0], vec![1.0]);
        let sched = edf_schedule(&tasks, &profile, 0).expect("feasible");
        let first = sched
            .slices
            .iter()
            .min_by(|a, b| a.start.partial_cmp(&b.start).unwrap())
            .unwrap();
        assert_eq!(first.job, 1);
        assert!(sched
            .check(&[
                WorkRequirement::new(0, Interval::new(0.0, 4.0), 2.0),
                WorkRequirement::new(1, Interval::new(0.0, 1.0), 1.0),
            ])
            .is_ok());
    }

    #[test]
    fn infeasible_profile_detected() {
        let tasks = vec![EdfTask::new(0, Interval::new(0.0, 1.0), 2.0)];
        let profile = SpeedProfile::new(vec![0.0, 1.0], vec![1.0]);
        let err = edf_schedule(&tasks, &profile, 0).unwrap_err();
        assert_eq!(err.job, 0);
        assert!((err.missing - 1.0).abs() < 1e-9);
        assert!(!is_feasible(&tasks, &profile));
    }

    #[test]
    fn deadline_beyond_profile_support() {
        let tasks = vec![EdfTask::new(0, Interval::new(0.0, 10.0), 1.0)];
        let profile = SpeedProfile::new(vec![0.0, 0.5], vec![1.0]);
        assert!(edf_schedule(&tasks, &profile, 0).is_err());
    }

    #[test]
    fn preemption_across_segments() {
        // Long-deadline job is preempted by a later-released,
        // tighter-deadline job.
        let tasks = vec![
            EdfTask::new(0, Interval::new(0.0, 3.0), 2.0),
            EdfTask::new(1, Interval::new(1.0, 2.0), 1.0),
        ];
        let profile = SpeedProfile::new(vec![0.0, 3.0], vec![1.0]);
        let sched = edf_schedule(&tasks, &profile, 0).expect("feasible");
        // Job 0 runs in (0,1], job 1 in (1,2], job 0 again in (2,3].
        let mut zero_slices: Vec<&Slice> =
            sched.slices.iter().filter(|s| s.job == 0).collect();
        zero_slices.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
        assert_eq!(zero_slices.len(), 2);
        assert!((zero_slices[0].end - 1.0).abs() < 1e-9);
        assert!((zero_slices[1].start - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_work_tasks_are_trivial() {
        let tasks = vec![EdfTask::new(0, Interval::new(0.0, 1.0), 0.0)];
        let profile = SpeedProfile::new(vec![0.0, 1.0], vec![0.0]);
        let sched = edf_schedule(&tasks, &profile, 0).expect("feasible");
        assert!(sched.slices.is_empty());
    }

    #[test]
    fn idle_speed_segments_are_skipped() {
        let tasks = vec![EdfTask::new(0, Interval::new(0.0, 3.0), 1.0)];
        let profile = SpeedProfile::new(vec![0.0, 1.0, 2.0, 3.0], vec![0.0, 1.0, 0.0]);
        let sched = edf_schedule(&tasks, &profile, 0).expect("feasible");
        assert!((sched.work_of(0) - 1.0).abs() < 1e-9);
        for s in &sched.slices {
            assert!(s.start >= 1.0 - 1e-9 && s.end <= 2.0 + 1e-9);
        }
    }

    #[test]
    fn from_instance_roundtrip() {
        let inst = Instance::new(vec![Job::new(0, 0.0, 1.0, 1.0), Job::new(1, 0.5, 2.0, 1.5)]);
        let tasks = EdfTask::from_instance(&inst);
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[1].work, 1.5);
    }

    #[test]
    fn same_job_id_two_tasks() {
        // Query + exact-work parts of the same QBSS job share an id but
        // are independent EDF tasks.
        let tasks = vec![
            EdfTask::new(5, Interval::new(0.0, 1.0), 1.0),
            EdfTask::new(5, Interval::new(1.0, 2.0), 1.0),
        ];
        let profile = SpeedProfile::new(vec![0.0, 2.0], vec![1.0]);
        let sched = edf_schedule(&tasks, &profile, 0).expect("feasible");
        assert!((sched.work_of(5) - 2.0).abs() < 1e-9);
    }
}
