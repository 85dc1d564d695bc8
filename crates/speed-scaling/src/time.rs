//! Time arithmetic with explicit tolerances.
//!
//! The whole library works in continuous time represented as `f64`. Exact
//! comparisons on floating point are meaningless after a few arithmetic
//! steps, so every module compares through the helpers defined here. Two
//! tolerance regimes exist:
//!
//! * [`EPS`] — absolute tolerance for time instants and work amounts that
//!   are expected to be "equal by construction" (segment endpoints, total
//!   work conservation after a handful of additions).
//! * [`REL_TOL`] — relative tolerance used by validity checkers when
//!   comparing accumulated quantities (energy, executed work) whose
//!   magnitude is instance-dependent.

/// Absolute tolerance for time instants and single-step work arithmetic.
pub const EPS: f64 = 1e-9;

/// Relative tolerance for accumulated quantities (energy, total work).
pub const REL_TOL: f64 = 1e-6;

/// `a <= b` up to absolute tolerance.
#[inline]
pub fn approx_le(a: f64, b: f64) -> bool {
    a <= b + EPS
}

/// `a >= b` up to absolute tolerance.
#[inline]
pub fn approx_ge(a: f64, b: f64) -> bool {
    a + EPS >= b
}

/// `a == b` up to absolute tolerance.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS
}

/// `a == b` up to relative tolerance (with an absolute floor for values
/// near zero).
#[inline]
pub fn rel_eq(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= REL_TOL * scale
}

/// `a <= b` up to relative tolerance.
#[inline]
pub fn rel_le(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    a <= b + REL_TOL * scale
}

/// A half-open time interval `(start, end]`.
///
/// The paper's convention is that a job with release `r` and deadline `d`
/// is active in `(r, d]`; we follow it. All interval lengths are
/// non-negative by construction ([`Interval::new`] panics otherwise,
/// because a reversed interval is always a programming error and never a
/// data error).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Left endpoint (exclusive).
    pub start: f64,
    /// Right endpoint (inclusive).
    pub end: f64,
}

impl Interval {
    /// Creates `(start, end]`. Panics if `end < start - EPS` or either
    /// endpoint is not finite.
    pub fn new(start: f64, end: f64) -> Self {
        assert!(
            start.is_finite() && end.is_finite(),
            "interval endpoints must be finite: ({start}, {end}]"
        );
        assert!(
            end >= start - EPS,
            "reversed interval: ({start}, {end}]"
        );
        Self { start, end: end.max(start) }
    }

    /// Length `end - start` (never negative).
    #[inline]
    pub fn len(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }

    /// Whether the interval has (numerically) zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() <= EPS
    }

    /// Whether `t` lies in the closure `[start, end]` up to tolerance.
    /// Used for containment checks where the open/closed distinction is
    /// immaterial (it concerns sets of measure zero).
    #[inline]
    pub fn contains(&self, t: f64) -> bool {
        approx_ge(t, self.start) && approx_le(t, self.end)
    }

    /// Whether `other` is contained in `self` up to tolerance.
    #[inline]
    pub fn contains_interval(&self, other: &Interval) -> bool {
        approx_le(self.start, other.start) && approx_ge(self.end, other.end)
    }

    /// Intersection length of two intervals (0 if disjoint).
    #[inline]
    pub fn overlap_len(&self, other: &Interval) -> f64 {
        (self.end.min(other.end) - self.start.max(other.start)).max(0.0)
    }

    /// Midpoint `(start + end) / 2`.
    #[inline]
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.start + self.end)
    }
}

/// Sorts and deduplicates (up to [`EPS`]) a list of event times in place,
/// returning the cleaned vector. Used by every event-driven algorithm to
/// build its breakpoint grid.
pub fn dedup_times(mut times: Vec<f64>) -> Vec<f64> {
    times.retain(|t| t.is_finite());
    times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after retain"));
    let mut out: Vec<f64> = Vec::with_capacity(times.len());
    for t in times {
        match out.last() {
            Some(&last) if approx_eq(last, t) => {}
            _ => out.push(t),
        }
    }
    out
}

/// A time as a `total_cmp` sort key: `-0.0` becomes `+0.0`, so the two
/// zeros tie as they do under `partial_cmp`.
#[inline]
pub(crate) fn time_key(t: f64) -> f64 {
    t + 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_basics() {
        let i = Interval::new(1.0, 3.0);
        assert_eq!(i.len(), 2.0);
        assert!(!i.is_empty());
        assert!(i.contains(1.0));
        assert!(i.contains(3.0));
        assert!(i.contains(2.0));
        assert!(!i.contains(3.1));
        assert_eq!(i.midpoint(), 2.0);
    }

    #[test]
    fn interval_zero_length_is_empty() {
        let i = Interval::new(2.0, 2.0);
        assert!(i.is_empty());
        assert_eq!(i.len(), 0.0);
    }

    #[test]
    #[should_panic(expected = "reversed interval")]
    fn interval_reversed_panics() {
        let _ = Interval::new(3.0, 1.0);
    }

    #[test]
    fn interval_overlap() {
        let a = Interval::new(0.0, 2.0);
        let b = Interval::new(1.0, 4.0);
        let c = Interval::new(3.0, 5.0);
        assert_eq!(a.overlap_len(&b), 1.0);
        assert_eq!(a.overlap_len(&c), 0.0);
        assert!(a.contains_interval(&Interval::new(0.5, 1.5)));
        assert!(!a.contains_interval(&b));
    }

    #[test]
    fn dedup_times_sorts_and_merges() {
        let ts = dedup_times(vec![3.0, 1.0, 1.0 + 1e-12, 2.0, f64::INFINITY]);
        assert_eq!(ts, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn approx_helpers() {
        assert!(approx_le(1.0, 1.0));
        assert!(approx_le(1.0 + 1e-12, 1.0));
        assert!(!approx_le(1.1, 1.0));
        assert!(approx_eq(2.0, 2.0 + 1e-10));
        assert!(rel_eq(1e9, 1e9 * (1.0 + 1e-8)));
        assert!(rel_le(1e9, 1e9 * (1.0 - 1e-9)));
    }
}
