//! Near-optimal *migratory multi-machine* offline baseline via
//! Frank–Wolfe, with a duality-gap certificate.
//!
//! The offline optimum on `m` identical machines with free migration
//! (Albers–Antoniadis–Greiner 2015 compute it exactly with a flow-based
//! combinatorial algorithm) is equivalently the convex program
//!
//! ```text
//!   minimize    Σ_k E_k(x_{·,k})
//!   subject to  Σ_k x_{j,k} = w_j          (all work placed)
//!               x_{j,k} ≥ 0,  x_{j,k} = 0 if interval k ⊄ (r_j, d_j]
//! ```
//!
//! where `k` ranges over the elementary intervals of the event grid and
//! `E_k` is the optimal energy for executing works `x_{·,k}` inside an
//! interval of length `L` on `m` machines. The inner problem has a
//! closed-form water-filling solution with the same *big/small*
//! structure as AVR(m): minimize `Σ_j x_j^α t_j^{1−α}` over per-job run
//! times `t_j ≤ L`, `Σ_j t_j ≤ mL` — big jobs run the whole interval
//! (`t = L`), the rest share the remaining machine time in proportion
//! to their work (constant speed `1/c`).
//!
//! Frank–Wolfe fits perfectly: the feasible set is a product of
//! simplices (one per job), so the linear minimization oracle just
//! moves each job's mass to its smallest-gradient interval, and the FW
//! gap `⟨∇E(x), x − s⟩` is a certified bound on the suboptimality —
//! `energy − gap` is a true **lower bound on OPT**, which is what the
//! AVRQ(m) experiments need (DESIGN.md §5).
//!
//! Only the `(j, k)` pairs with interval `k` inside job `j`'s window can
//! hold work, so the solver stores one entry per such pair (`P` in all)
//! rather than the dense intervals × jobs matrix: an energy evaluation
//! or a gradient pass costs `O(P log P)`, on one set of reused
//! per-interval buffers.
//!
//! Each step's line search is exact on the slope: the energy along the
//! segment, `φ(γ) = E(x + γ(s − x))`, is convex, so its minimum over
//! `[0, 1]` is the full step or the root of `φ'`. A slope is one gradient
//! pass, `φ'(γ) = Σ_k Σ_{e∈k} ∂E_k/∂y_e · (s_e − x_e)` (one `powf` per
//! entry, against two for an energy), and `φ'(0) = −gap` comes free with
//! the linear oracle. A step takes one slope at `γ = 1`, a bracketing
//! root search when that slope is positive (six to eight slopes on the
//! experiment instances), and one energy at the root: eight to ten
//! evaluations, where golden section took 51.

use crate::job::{Instance, Job};
use crate::time::{dedup_times, EPS};

/// Output of [`multi_opt_frank_wolfe`].
#[derive(Debug, Clone)]
pub struct FwSolution {
    /// Energy of the (feasible) solution found — an upper bound on OPT.
    pub energy: f64,
    /// Final Frank–Wolfe duality gap: `energy − gap ≤ OPT ≤ energy`.
    pub gap: f64,
    /// Iterations actually performed.
    pub iterations: usize,
    /// The elementary intervals `(start, end]` of the event grid.
    pub intervals: Vec<(f64, f64)>,
    /// The placement: `placement[k][j]` = work of job `j` (instance
    /// order) in interval `k`. Realizable with
    /// [`water_filling_times`] + McNaughton per interval.
    pub placement: Vec<Vec<f64>>,
}

impl FwSolution {
    /// A certified lower bound on the multi-machine optimum.
    pub fn lower_bound(&self) -> f64 {
        (self.energy - self.gap).max(0.0)
    }
}

/// Per-interval inner solution: given works `x_j` in an interval of
/// length `len` on `m` machines, returns the per-job run times `t_j`
/// of the water-filling optimum (big jobs get `t = len` and a dedicated
/// machine; the rest share the remaining machine time in proportion to
/// their work at a common speed). Public because the OA(m) realization
/// reuses it to turn planned per-interval works into explicit slices.
pub fn water_filling_times(works: &[f64], len: f64, m: usize) -> Vec<f64> {
    let (mut t, mut order) = (Vec::new(), Vec::new());
    water_fill(works, len, m, &mut t, &mut order);
    t
}

/// [`water_filling_times`] into `t`, with `order` as scratch for the
/// positions of the positive works, heaviest first.
fn water_fill(works: &[f64], len: f64, m: usize, t: &mut Vec<f64>, order: &mut Vec<usize>) {
    t.clear();
    t.resize(works.len(), 0.0);
    order.clear();
    order.extend((0..works.len()).filter(|&j| works[j] > 0.0));
    if order.len() <= m {
        for &j in order.iter() {
            t[j] = len;
        }
        return;
    }
    // Sort active jobs by work, descending; peel off "big" jobs that
    // deserve a dedicated machine (t = len), then the rest share.
    order.sort_by(|&a, &b| works[b].total_cmp(&works[a]));
    let total: f64 = order.iter().map(|&j| works[j]).sum();
    let mut rest = total;
    let mut big = 0usize;
    for &j in order.iter() {
        let machines_left = m - big;
        // j is big iff giving it t = len still leaves the others at
        // t_i = c·x_i ≤ len with c = (m − big − 1)·len / rest':
        // equivalently x_j ≥ rest / machines_left.
        if works[j] * machines_left as f64 > rest + EPS {
            t[j] = len;
            rest -= works[j];
            big += 1;
            if big == m {
                break;
            }
        } else {
            break;
        }
    }
    debug_assert!(big < m, "all machines taken by big jobs yet small jobs remain");
    let c = (m - big) as f64 * len / rest.max(EPS);
    for &j in &order[big..] {
        t[j] = (c * works[j]).min(len);
    }
}

/// One interval's inner problem on reused buffers: the works of the
/// jobs whose window covers it, in job order, and what water-filling
/// derives from them.
#[derive(Debug, Default)]
struct Inner {
    /// The interval's works, in job order.
    works: Vec<f64>,
    /// Their water-filling run times.
    times: Vec<f64>,
    /// Scratch for [`water_fill`].
    order: Vec<usize>,
    /// The energy gradient at each work.
    grads: Vec<f64>,
}

impl Inner {
    fn water_fill(&mut self, len: f64, m: usize) {
        water_fill(&self.works, len, m, &mut self.times, &mut self.order);
    }

    /// Energy of the inner optimum for the interval.
    fn energy(&mut self, len: f64, m: usize, alpha: f64) -> f64 {
        self.water_fill(len, m);
        self.works
            .iter()
            .zip(&self.times)
            .filter(|(&x, _)| x > 0.0)
            .map(|(&x, &tj)| x.powf(alpha) * tj.powf(1.0 - alpha))
            .sum()
    }

    /// Fills `grads` with `∂E_k/∂x_j = α (x_j/t_j)^{α−1}` at the inner
    /// optimum (envelope theorem); for `x_j = 0` the one-sided
    /// derivative is 0 when a machine is free in the interval and
    /// `α·(1/c)^{α−1}` otherwise — the correct marginal cost of adding
    /// infinitesimal work.
    fn gradient(&mut self, len: f64, m: usize, alpha: f64) {
        self.water_fill(len, m);
        let (works, t) = (&self.works, &self.times);
        let active = works.iter().filter(|&&x| x > 0.0).count();
        // Marginal speed for a newcomer: 0 if a machine is idle, else the
        // shared small-job speed 1/c (the cheapest room in the interval).
        let newcomer = if active < m {
            0.0
        } else {
            // Shared speed = x/t of any small job; if all active are big
            // (t = len), the newcomer would displace capacity at the
            // smallest big speed.
            let mut shared = f64::INFINITY;
            for (j, &x) in works.iter().enumerate() {
                if x > 0.0 {
                    shared = shared.min(x / t[j]);
                }
            }
            shared
        };
        self.grads.clear();
        self.grads.extend(works.iter().enumerate().map(|(j, &x)| {
            let v = if x > 0.0 { x / t[j] } else { newcomer };
            alpha * v.powf(alpha - 1.0)
        }));
    }
}

/// Which `(job, interval)` pairs the placement may use: one entry per
/// interval inside a job's window, numbered job by job with intervals
/// ascending, and listed again interval by interval in job order.
#[derive(Debug)]
struct Windows {
    /// The elementary intervals `(start, end]`.
    intervals: Vec<(f64, f64)>,
    /// Job `j`'s entries are `job_start[j]..job_start[j + 1]`.
    job_start: Vec<usize>,
    /// Each entry's interval.
    interval_of: Vec<usize>,
    /// Interval `k`'s entries are
    /// `by_interval[interval_start[k]..interval_start[k + 1]]`, in job
    /// order.
    interval_start: Vec<usize>,
    by_interval: Vec<usize>,
}

impl Windows {
    /// The window entries of `jobs` over `intervals`, and the initial
    /// (AVR-proportional) placement on them.
    fn new(intervals: Vec<(f64, f64)>, jobs: &[Job]) -> (Self, Vec<f64>) {
        let mut job_start = Vec::with_capacity(jobs.len() + 1);
        let mut interval_of = Vec::new();
        let mut x = Vec::new();
        for job in jobs {
            let first = interval_of.len();
            job_start.push(first);
            let mut window_len = 0.0;
            for (k, &(a, b)) in intervals.iter().enumerate() {
                if a + EPS >= job.release && b <= job.deadline + EPS {
                    interval_of.push(k);
                    window_len += b - a;
                }
            }
            assert!(
                window_len > EPS,
                "job {} has no elementary interval inside its window",
                job.id
            );
            for &k in &interval_of[first..] {
                let (a, b) = intervals[k];
                x.push(job.work * (b - a) / window_len);
            }
        }
        job_start.push(interval_of.len());
        // Entries are numbered job by job, so a stable bucketing by
        // interval lists each interval's entries in job order.
        let mut interval_start = vec![0usize; intervals.len() + 1];
        for &k in &interval_of {
            interval_start[k + 1] += 1;
        }
        for k in 0..intervals.len() {
            interval_start[k + 1] += interval_start[k];
        }
        let mut by_interval = vec![0usize; interval_of.len()];
        let mut next = interval_start.clone();
        for (e, &k) in interval_of.iter().enumerate() {
            by_interval[next[k]] = e;
            next[k] += 1;
        }
        (Self { intervals, job_start, interval_of, interval_start, by_interval }, x)
    }

    fn of_job(&self, j: usize) -> std::ops::Range<usize> {
        self.job_start[j]..self.job_start[j + 1]
    }

    fn of_interval(&self, k: usize) -> &[usize] {
        &self.by_interval[self.interval_start[k]..self.interval_start[k + 1]]
    }

    /// Gathers interval `k`'s entries of `value`, in job order, into
    /// `inner.works` and returns the interval's length.
    fn gather(&self, k: usize, value: impl Fn(usize) -> f64, inner: &mut Inner) -> f64 {
        inner.works.clear();
        inner.works.extend(self.of_interval(k).iter().map(|&e| value(e)));
        let (a, b) = self.intervals[k];
        b - a
    }

    /// `Σ_k E_k` of the placement `value(entry)`, interval by interval.
    fn energy(&self, value: impl Fn(usize) -> f64, m: usize, alpha: f64, inner: &mut Inner) -> f64 {
        (0..self.intervals.len())
            .map(|k| {
                let len = self.gather(k, &value, inner);
                inner.energy(len, m, alpha)
            })
            .sum()
    }

    /// The placement `x` as the dense intervals × jobs matrix.
    fn dense(&self, x: &[f64]) -> Vec<Vec<f64>> {
        let mut placement = vec![vec![0.0f64; self.job_start.len() - 1]; self.intervals.len()];
        for (j, entries) in self.job_start.windows(2).enumerate() {
            for e in entries[0]..entries[1] {
                placement[self.interval_of[e]][j] = x[e];
            }
        }
        placement
    }
}

/// Solves the migratory multi-machine energy minimization by
/// Frank–Wolfe with an exact line search on the slope. `iters` in the
/// low hundreds certifies gaps of a few percent on the experiment
/// instances; the returned [`FwSolution::lower_bound`] is always a
/// valid lower bound on OPT regardless of convergence.
///
/// Each iteration is one gradient pass and one line search over the `P`
/// window entries (see the module doc): a slope at `γ = 1`, up to 49
/// more while bracketing the slope's root (six to eight on the
/// experiment instances), and an energy at the step taken, `O(P log P)`
/// apiece.
///
/// ```
/// use speed_scaling::job::{Instance, Job};
/// use speed_scaling::multi::multi_opt_frank_wolfe;
///
/// // Three equal jobs, three machines: OPT runs each alone at speed 2.
/// let inst = Instance::new(
///     (0..3).map(|i| Job::new(i, 0.0, 1.0, 2.0)).collect(),
/// );
/// let fw = multi_opt_frank_wolfe(&inst, 3, 3.0, 100);
/// assert!((fw.energy - 3.0 * 8.0).abs() < 0.1);
/// assert!(fw.lower_bound() <= fw.energy);
/// ```
pub fn multi_opt_frank_wolfe(
    instance: &Instance,
    m: usize,
    alpha: f64,
    iters: usize,
) -> FwSolution {
    frank_wolfe(instance, m, alpha, iters, line_search)
}

/// [`multi_opt_frank_wolfe`] with the line search as a parameter:
/// `search(segment, φ'(0))` returns the step `γ` and the energy there.
/// Tests pass a search that also runs golden section on each segment
/// the solver visits.
pub(crate) fn frank_wolfe(
    instance: &Instance,
    m: usize,
    alpha: f64,
    iters: usize,
    mut search: impl FnMut(&mut Segment, f64) -> (f64, f64),
) -> FwSolution {
    assert!(m >= 1 && alpha > 1.0);
    let jobs = &instance.jobs;
    if jobs.is_empty() {
        return FwSolution {
            energy: 0.0,
            gap: 0.0,
            iterations: 0,
            intervals: Vec::new(),
            placement: Vec::new(),
        };
    }
    let events = dedup_times(instance.event_times());
    let intervals: Vec<(f64, f64)> = events
        .windows(2)
        .map(|w| (w[0], w[1]))
        .filter(|(a, b)| b - a > EPS)
        .collect();
    let nk = intervals.len();

    let (windows, mut x) = Windows::new(intervals, jobs);
    let mut inner = Inner::default();
    let mut energy = windows.energy(|e| x[e], m, alpha, &mut inner);
    let mut gap = f64::INFINITY;
    let mut done = 0usize;
    let mut grads = vec![0.0f64; x.len()];
    let mut s = vec![0.0f64; x.len()];
    // Work counters accumulate in locals and land with one `add` per
    // solve, keeping the iteration loop free of atomic traffic.
    let mut fw_gradient_evals = 0_u64;
    let mut fw_line_evals = 0_u64;
    for it in 0..iters {
        // Gradients per interval, on its window entries.
        for k in 0..nk {
            let len = windows.gather(k, |e| x[e], &mut inner);
            inner.gradient(len, m, alpha);
            for (&e, &g) in windows.of_interval(k).iter().zip(&inner.grads) {
                grads[e] = g;
            }
        }
        fw_gradient_evals += nk as u64;
        // LMO: each job moves its full mass to its cheapest interval.
        let mut fw_gap = 0.0;
        for (j, job) in jobs.iter().enumerate() {
            let entries = windows.of_job(j);
            let Some(best) = entries.clone().min_by(|&p, &q| grads[p].total_cmp(&grads[q])) else {
                continue;
            };
            for e in entries.clone() {
                s[e] = if e == best { job.work } else { 0.0 };
            }
            for e in entries {
                fw_gap += grads[e] * (x[e] - s[e]);
            }
        }
        gap = fw_gap.max(0.0);
        done = it + 1;
        if gap <= 1e-9 * energy.max(1.0) {
            break;
        }
        // Exact line search on the segment x + γ(s − x), γ ∈ [0, 1],
        // whose slope at 0 is −gap.
        let mut segment = Segment {
            windows: &windows,
            x: &x,
            s: &s,
            m,
            alpha,
            inner: &mut inner,
            evals: &mut fw_line_evals,
        };
        let (gamma, val) = search(&mut segment, -gap);
        if val >= energy - 1e-12 * energy.max(1.0) {
            break; // numerically converged
        }
        for (xe, &se) in x.iter_mut().zip(&s) {
            *xe = (1.0 - gamma) * *xe + gamma * se;
        }
        energy = val;
    }
    qbss_telemetry::counter!("fw.iterations").add(done as u64);
    qbss_telemetry::counter!("fw.gradient_evals").add(fw_gradient_evals);
    qbss_telemetry::counter!("fw.line_evals").add(fw_line_evals);

    let placement = windows.dense(&x);
    FwSolution { energy, gap, iterations: done, intervals: windows.intervals, placement }
}

/// One Frank–Wolfe step's segment `y(γ) = (1 − γ)·x + γ·s`, `γ ∈ [0, 1]`,
/// with the buffers its evaluations reuse and their count.
pub(crate) struct Segment<'a> {
    windows: &'a Windows,
    x: &'a [f64],
    s: &'a [f64],
    m: usize,
    alpha: f64,
    inner: &'a mut Inner,
    /// Interval evaluations so far (`fw.line_evals`).
    evals: &'a mut u64,
}

impl Segment<'_> {
    /// `φ(γ)`: the energy at `y(γ)`.
    pub(crate) fn energy(&mut self, gamma: f64) -> f64 {
        let (windows, x, s) = (self.windows, self.x, self.s);
        *self.evals += windows.intervals.len() as u64;
        windows.energy(|e| (1.0 - gamma) * x[e] + gamma * s[e], self.m, self.alpha, self.inner)
    }

    /// `φ'(γ)`: the energy's slope along `s − x` at `y(γ)`, summed
    /// interval by interval, each interval's entries in job order.
    fn slope(&mut self, gamma: f64) -> f64 {
        let (windows, x, s) = (self.windows, self.x, self.s);
        *self.evals += windows.intervals.len() as u64;
        let mut slope = 0.0;
        for k in 0..windows.intervals.len() {
            let len = windows.gather(k, |e| (1.0 - gamma) * x[e] + gamma * s[e], self.inner);
            self.inner.gradient(len, self.m, self.alpha);
            for (&e, &g) in windows.of_interval(k).iter().zip(&self.inner.grads) {
                slope += g * (s[e] - x[e]);
            }
        }
        slope
    }
}

/// The exact line search: the step `γ` where the segment's slope,
/// `φ'(0) = slope0 < 0` at its start, reaches zero or `1` if it never
/// does, and the energy there.
pub(crate) fn line_search(segment: &mut Segment, slope0: f64) -> (f64, f64) {
    let gamma = slope_root01(slope0, &mut |gamma| segment.slope(gamma));
    (gamma, segment.energy(gamma))
}

/// The widest bracket [`slope_root01`] leaves around a root, up to
/// rounding in `γ`.
const BRACKET: f64 = 1e-12;

/// Evaluations one line search may make: golden section's 51.
const LINE_EVALS: usize = 51;

/// The minimizer over `[0, 1]` of a convex `φ`, from its slope
/// `slope(γ) = φ'(γ)` and `φ'(0) = slope0 < 0`: `1` when `φ'(1) ≤ 0`,
/// else the root of `φ'`. Brent's method brackets the root to about
/// [`BRACKET`] by inverse quadratic and secant steps, and bisects where
/// they would not shrink the bracket fast enough. It takes at most
/// `LINE_EVALS − 1` slopes, leaving one evaluation for the energy at the
/// root; at the cap it returns its best estimate, still inside `[0, 1]`.
/// Shared by the solver and its dense reference.
pub(crate) fn slope_root01(slope0: f64, slope: &mut dyn FnMut(f64) -> f64) -> f64 {
    // `b` is the best estimate, `c` the far end of the bracket and `a`
    // the previous `b`; `d` is the last step and `e` the one before.
    let (mut b, mut fb) = (1.0_f64, slope(1.0));
    if fb <= 0.0 {
        return 1.0;
    }
    let (mut a, mut fa) = (0.0_f64, slope0);
    let (mut c, mut fc) = (a, fa);
    let (mut d, mut e) = (b - a, b - a);
    for _ in 2..LINE_EVALS {
        if fc.abs() < fb.abs() {
            (a, b, c) = (b, c, b);
            (fa, fb, fc) = (fb, fc, fb);
        }
        let tol = 2.0 * f64::EPSILON * b.abs() + 0.5 * BRACKET;
        let half = 0.5 * (c - b);
        if half.abs() <= tol || fb == 0.0 {
            break;
        }
        if e.abs() < tol || fa.abs() <= fb.abs() {
            (d, e) = (half, half);
        } else {
            let s = fb / fa;
            let (mut p, mut q) = if a == c {
                (2.0 * half * s, 1.0 - s)
            } else {
                let (q, r) = (fa / fc, fb / fc);
                (
                    s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0)),
                    (q - 1.0) * (r - 1.0) * (s - 1.0),
                )
            };
            if p > 0.0 {
                q = -q;
            } else {
                p = -p;
            }
            // Interpolate only inside three quarters of the bracket and
            // by less than half the step before last; else bisect.
            if 2.0 * p < 3.0 * half * q - (tol * q).abs() && p < (0.5 * e * q).abs() {
                (d, e) = (p / q, d);
            } else {
                (d, e) = (half, half);
            }
        }
        (a, fa) = (b, fb);
        b += if d.abs() > tol { d } else { tol.copysign(half) };
        fb = slope(b);
        if (fb > 0.0) == (fc > 0.0) {
            (c, fc) = (a, fa);
            (d, e) = (b - a, b - a);
        }
    }
    b
}

/// Golden-section minimization over `[0, 1]` in 51 evaluations: the
/// line search [`slope_root01`] replaced, kept as its reference.
#[cfg(test)]
pub(crate) fn golden_min01(f: &mut dyn FnMut(f64) -> f64) -> (f64, f64) {
    const INV_PHI: f64 = 0.618_033_988_749_895;
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    let mut x1 = hi - (hi - lo) * INV_PHI;
    let mut x2 = lo + (hi - lo) * INV_PHI;
    let (mut f1, mut f2) = (f(x1), f(x2));
    for _ in 0..48 {
        if f1 <= f2 {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - (hi - lo) * INV_PHI;
            f1 = f(x1);
        } else {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + (hi - lo) * INV_PHI;
            f2 = f(x2);
        }
    }
    let mid = 0.5 * (lo + hi);
    (mid, f(mid))
}

/// The dense solver this module replaced, with its allocating inner
/// helpers, kept as the differential suite's reference. It shares the
/// line search [`slope_root01`], so the suite checks the sparse layout.
#[cfg(test)]
pub(crate) mod reference {
    use super::{slope_root01, FwSolution};
    use crate::job::Instance;
    use crate::time::{dedup_times, EPS};

    pub(crate) fn water_filling_times(works: &[f64], len: f64, m: usize) -> Vec<f64> {
        let n = works.len();
        let mut t = vec![0.0; n];
        let active: Vec<usize> =
            (0..n).filter(|&j| works[j] > 0.0).collect();
        if active.len() <= m {
            for &j in &active {
                t[j] = len;
            }
            return t;
        }
        // Sort active jobs by work, descending; peel off "big" jobs that
        // deserve a dedicated machine (t = len), then the rest share.
        let mut order = active.clone();
        order.sort_by(|&a, &b| works[b].partial_cmp(&works[a]).expect("finite"));
        let total: f64 = order.iter().map(|&j| works[j]).sum();
        let mut rest = total;
        let mut big = 0usize;
        for &j in &order {
            let machines_left = m - big;
            // j is big iff giving it t = len still leaves the others at
            // t_i = c·x_i ≤ len with c = (m − big − 1)·len / rest':
            // equivalently x_j ≥ rest / machines_left.
            if works[j] * machines_left as f64 > rest + EPS {
                t[j] = len;
                rest -= works[j];
                big += 1;
                if big == m {
                    break;
                }
            } else {
                break;
            }
        }
        debug_assert!(big < m, "all machines taken by big jobs yet small jobs remain");
        let c = (m - big) as f64 * len / rest.max(EPS);
        for &j in &order[big..] {
            t[j] = (c * works[j]).min(len);
        }
        t
    }

    /// Energy of the inner optimum for one interval.
    pub(crate) fn inner_energy(works: &[f64], len: f64, m: usize, alpha: f64) -> f64 {
        let t = water_filling_times(works, len, m);
        works
            .iter()
            .zip(&t)
            .filter(|(&x, _)| x > 0.0)
            .map(|(&x, &tj)| x.powf(alpha) * tj.powf(1.0 - alpha))
            .sum()
    }

    /// Gradient `∂E_k/∂x_j = α (x_j/t_j)^{α−1}` at the inner optimum
    /// (envelope theorem); for `x_j = 0` the one-sided derivative is 0 when
    /// a machine is free in the interval and `α·(1/c)^{α−1}` otherwise —
    /// we return the correct marginal cost of adding infinitesimal work.
    fn inner_gradient(works: &[f64], len: f64, m: usize, alpha: f64) -> Vec<f64> {
        let t = water_filling_times(works, len, m);
        let active = works.iter().filter(|&&x| x > 0.0).count();
        // Marginal speed for a newcomer: 0 if a machine is idle, else the
        // shared small-job speed 1/c (the cheapest room in the interval).
        let newcomer = if active < m {
            0.0
        } else {
            // Shared speed = x/t of any small job; if all active are big
            // (t = len), the newcomer would displace capacity at the
            // smallest big speed.
            let mut shared = f64::INFINITY;
            for (j, &x) in works.iter().enumerate() {
                if x > 0.0 {
                    shared = shared.min(x / t[j]);
                }
            }
            shared
        };
        works
            .iter()
            .enumerate()
            .map(|(j, &x)| {
                let v = if x > 0.0 { x / t[j] } else { newcomer };
                alpha * v.powf(alpha - 1.0)
            })
            .collect()
    }

    /// Today's dense Frank–Wolfe: clones the intervals × jobs placement
    /// for every line-search evaluation.
    pub(crate) fn multi_opt_frank_wolfe(
        instance: &Instance,
        m: usize,
        alpha: f64,
        iters: usize,
    ) -> FwSolution {
        assert!(m >= 1 && alpha > 1.0);
        let jobs = &instance.jobs;
        if jobs.is_empty() {
            return FwSolution {
                energy: 0.0,
                gap: 0.0,
                iterations: 0,
                intervals: Vec::new(),
                placement: Vec::new(),
            };
        }
        let events = dedup_times(instance.event_times());
        let intervals: Vec<(f64, f64)> = events
            .windows(2)
            .map(|w| (w[0], w[1]))
            .filter(|(a, b)| b - a > EPS)
            .collect();
        let nk = intervals.len();
        let nj = jobs.len();

        // Active incidence and initial (AVR-proportional) placement.
        let mut active: Vec<Vec<usize>> = vec![Vec::new(); nj]; // job -> intervals
        let mut x = vec![vec![0.0f64; nj]; nk]; // interval-major
        for (j, job) in jobs.iter().enumerate() {
            let mut window_len = 0.0;
            for (k, &(a, b)) in intervals.iter().enumerate() {
                if a + EPS >= job.release && b <= job.deadline + EPS {
                    active[j].push(k);
                    window_len += b - a;
                }
            }
            assert!(
                window_len > EPS,
                "job {} has no elementary interval inside its window",
                job.id
            );
            for &k in &active[j] {
                let (a, b) = intervals[k];
                x[k][j] = job.work * (b - a) / window_len;
            }
        }

        let total_energy = |x: &Vec<Vec<f64>>| -> f64 {
            intervals
                .iter()
                .enumerate()
                .map(|(k, &(a, b))| inner_energy(&x[k], b - a, m, alpha))
                .sum()
        };

        let mut energy = total_energy(&x);
        let mut gap = f64::INFINITY;
        let mut done = 0usize;
        // Work counters accumulate in locals and land with one `add` per
        // solve, keeping the iteration loop free of atomic traffic.
        let mut fw_gradient_evals = 0_u64;
        for it in 0..iters {
            // Gradients per interval.
            let grads: Vec<Vec<f64>> = intervals
                .iter()
                .enumerate()
                .map(|(k, &(a, b))| inner_gradient(&x[k], b - a, m, alpha))
                .collect();
            fw_gradient_evals += nk as u64;
            // LMO: each job moves its full mass to its cheapest interval.
            let mut s = vec![vec![0.0f64; nj]; nk];
            let mut fw_gap = 0.0;
            for (j, job) in jobs.iter().enumerate() {
                let k_best = active[j]
                    .iter()
                    .copied()
                    .min_by(|&p, &q| grads[p][j].partial_cmp(&grads[q][j]).expect("finite"))
                    .expect("non-empty window");
                s[k_best][j] = job.work;
                for &k in &active[j] {
                    fw_gap += grads[k][j] * (x[k][j] - s[k][j]);
                }
            }
            gap = fw_gap.max(0.0);
            done = it + 1;
            if gap <= 1e-9 * energy.max(1.0) {
                break;
            }
            // Exact line search on the segment x + γ(s − x), γ ∈ [0, 1],
            // whose slope at 0 is −gap.
            let point = |gamma: f64| -> Vec<Vec<f64>> {
                let mut y = x.clone();
                for k in 0..nk {
                    for j in 0..nj {
                        y[k][j] = (1.0 - gamma) * x[k][j] + gamma * s[k][j];
                    }
                }
                y
            };
            let mut slope = |gamma: f64| -> f64 {
                let y = point(gamma);
                let mut slope = 0.0;
                for (k, &(a, b)) in intervals.iter().enumerate() {
                    let g = inner_gradient(&y[k], b - a, m, alpha);
                    for j in 0..nj {
                        slope += g[j] * (s[k][j] - x[k][j]);
                    }
                }
                slope
            };
            let gamma = slope_root01(-gap, &mut slope);
            let val = total_energy(&point(gamma));
            if val >= energy - 1e-12 * energy.max(1.0) {
                break; // numerically converged
            }
            for k in 0..nk {
                for j in 0..nj {
                    x[k][j] = (1.0 - gamma) * x[k][j] + gamma * s[k][j];
                }
            }
            energy = val;
        }
        qbss_telemetry::counter!("fw.iterations").add(done as u64);
        qbss_telemetry::counter!("fw.gradient_evals").add(fw_gradient_evals);

        FwSolution { energy, gap, iterations: done, intervals, placement: x }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::multi::{avr_m, opt_lower_bound};
    use crate::yds::optimal_energy;

    fn inner_energy(works: &[f64], len: f64, m: usize, alpha: f64) -> f64 {
        let mut inner = Inner::default();
        inner.works.extend_from_slice(works);
        inner.energy(len, m, alpha)
    }

    #[test]
    fn single_machine_matches_yds() {
        let inst = Instance::new(vec![
            Job::new(0, 0.0, 4.0, 4.0),
            Job::new(1, 1.0, 2.0, 3.0),
            Job::new(2, 3.0, 6.0, 2.0),
        ]);
        let alpha = 3.0;
        let fw = multi_opt_frank_wolfe(&inst, 1, alpha, 400);
        let yds = optimal_energy(&inst, alpha);
        assert!(
            (fw.energy - yds).abs() <= 0.01 * yds,
            "FW {} vs YDS {} (gap {})",
            fw.energy,
            yds,
            fw.gap
        );
        assert!(fw.lower_bound() <= yds * (1.0 + 1e-9));
    }

    #[test]
    fn inner_all_fit() {
        // Two jobs, three machines: both run the whole interval.
        let t = water_filling_times(&[1.0, 2.0], 2.0, 3);
        assert_eq!(t, vec![2.0, 2.0]);
    }

    #[test]
    fn inner_big_small_split() {
        // Works {10, 1, 1} on 2 machines over len 1: job 0 is big
        // (10 > 12/2); the other two share machine 1: c = 1/2,
        // t = 0.5 each.
        let t = water_filling_times(&[10.0, 1.0, 1.0], 1.0, 2);
        assert_eq!(t[0], 1.0);
        assert!((t[1] - 0.5).abs() < 1e-12);
        assert!((t[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn inner_energy_matches_hand_computation() {
        // One interval len 1, m = 2, works {2, 2}: both fit whole
        // interval at speed 2 → E = 2·2^α.
        let e = inner_energy(&[2.0, 2.0], 1.0, 2, 3.0);
        assert!((e - 16.0).abs() < 1e-9);
        // Works {2, 1, 1} on 2 machines: 2 is big (2 > 4/2 is false —
        // 2·2 = 4 ≮ 4)… the shared solution: c = 2·1/4 = 1/2, speeds 2
        // each, t = {1, 0.5, 0.5} → E = 1·2^3 + 0.5·2^3·… compute:
        // Σ x^α t^{1-α} = 8·1 + 1·(0.5)^{-2}… = 8 + 4 + 4 = 16.
        let e = inner_energy(&[2.0, 1.0, 1.0], 1.0, 2, 3.0);
        assert!((e - 16.0).abs() < 1e-9, "{e}");
    }

    #[test]
    fn fw_bounds_bracket_known_optimum() {
        // m jobs with a common unit window and equal works w: the
        // optimum runs each on its own machine at speed w:
        // OPT = m·w^α.
        let m = 3;
        let inst = Instance::new(
            (0..m as u32).map(|i| Job::new(i, 0.0, 1.0, 2.0)).collect(),
        );
        let alpha = 3.0;
        let fw = multi_opt_frank_wolfe(&inst, m, alpha, 200);
        let opt = m as f64 * 8.0;
        assert!(fw.energy >= opt - 1e-6, "cannot beat OPT");
        assert!(fw.energy <= opt * 1.01, "FW should be near OPT here: {}", fw.energy);
        assert!(fw.lower_bound() <= opt + 1e-6);
    }

    #[test]
    fn fw_lower_bound_dominates_fluid_on_structured_instances() {
        // Disjoint tight jobs: the fluid bound is weak (it spreads a
        // single job across machines); FW's certificate is tighter.
        let inst = Instance::new(vec![
            Job::new(0, 0.0, 1.0, 3.0),
            Job::new(1, 1.0, 2.0, 3.0),
            Job::new(2, 2.0, 3.0, 3.0),
        ]);
        let alpha = 3.0;
        let m = 2;
        let fw = multi_opt_frank_wolfe(&inst, m, alpha, 300);
        let fluid = crate::multi::fluid_lower_bound(&inst, m, alpha);
        assert!(
            fw.lower_bound() >= fluid,
            "FW LB {} should beat fluid {}",
            fw.lower_bound(),
            fluid
        );
    }

    #[test]
    fn fw_is_sandwiched_by_lb_and_avr_m() {
        let inst = Instance::new(vec![
            Job::new(0, 0.0, 2.0, 4.0),
            Job::new(1, 0.0, 2.0, 1.0),
            Job::new(2, 0.5, 1.5, 1.0),
            Job::new(3, 1.0, 3.0, 2.0),
        ]);
        let alpha = 2.5;
        for m in [1usize, 2, 3] {
            let fw = multi_opt_frank_wolfe(&inst, m, alpha, 300);
            let upper = avr_m(&inst, m).energy(alpha);
            let lb = opt_lower_bound(&inst, m, alpha);
            assert!(fw.energy <= upper * (1.0 + 1e-6), "FW must beat AVR(m) at m={m}");
            assert!(fw.lower_bound() + 1e-6 >= 0.0);
            assert!(fw.energy + 1e-6 >= lb, "FW cannot beat a valid LB at m={m}");
        }
    }

    #[test]
    fn the_slope_search_brackets_roots_within_golden_sections_budget() {
        let search = |slope0: f64, slope: &dyn Fn(f64) -> f64| {
            let mut calls = 0;
            let gamma = slope_root01(slope0, &mut |g| {
                calls += 1;
                slope(g)
            });
            assert!(calls < LINE_EVALS, "{calls} slopes");
            (gamma, calls)
        };
        // A slope still negative at 1: the full step, on one evaluation.
        assert_eq!(search(-2.0, &|g| g - 1.5), (1.0, 1));
        // A linear slope: the secant step lands on the root.
        let (gamma, calls) = search(-0.3, &|g| g - 0.3);
        assert!((gamma - 0.3).abs() <= BRACKET && calls <= 4, "{gamma} after {calls}");
        // A jump no interpolation can use: bisection brackets it.
        let (gamma, _) = search(-1.0, &|g| if g < 1.0 / 3.0 { -1.0 } else { 1.0 });
        assert!((gamma - 1.0 / 3.0).abs() <= BRACKET, "{gamma}");
        // A slope that says nothing: some step inside [0, 1].
        let (gamma, _) = search(-1.0, &|_| f64::NAN);
        assert!((0.0..=1.0).contains(&gamma), "{gamma}");
    }

    #[test]
    fn empty_instance() {
        let fw = multi_opt_frank_wolfe(&Instance::default(), 2, 3.0, 10);
        assert_eq!(fw.energy, 0.0);
    }
}
