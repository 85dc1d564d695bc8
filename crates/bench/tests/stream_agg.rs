//! Edge coverage for the lock-free aggregation layer: `StreamAgg`'s
//! IEEE-bit `fetch_max` under concurrency, bound-violation counting,
//! histogram snapshot edges (NaN/∞ clamping), and the perf layer's
//! single-sample statistics.

use std::sync::atomic::Ordering;

use qbss_bench::perf::{mad, median};
use qbss_bench::{CellMetrics, StreamAgg};
use qbss_telemetry::{Registry, DURATION_US_BOUNDS};

fn metrics(energy_ratio: f64, peak_speed: f64, speed_ratio: Option<f64>) -> CellMetrics {
    CellMetrics { energy: 1.0, peak_speed, energy_ratio, speed_ratio, queried: 0 }
}

#[test]
fn ieee_bit_fetch_max_orders_like_the_numbers() {
    // The streaming maxima rely on `fetch_max` over raw f64 bits being
    // equivalent to a numeric max for non-negative floats. Check the
    // order isomorphism explicitly across magnitudes, subnormals and 0.
    let values = [
        0.0,
        f64::MIN_POSITIVE / 2.0, // subnormal
        f64::MIN_POSITIVE,
        1e-10,
        0.5,
        1.0,
        1.0 + f64::EPSILON,
        1e10,
        f64::MAX,
    ];
    for w in values.windows(2) {
        assert!(w[0].to_bits() < w[1].to_bits(), "{} vs {}", w[0], w[1]);
    }

    let agg = StreamAgg::default();
    std::thread::scope(|s| {
        let agg = &agg;
        for (c, chunk) in values.chunks(3).enumerate() {
            s.spawn(move || {
                for (i, &v) in chunk.iter().enumerate() {
                    agg.record_ok(c * 3 + i, &metrics(v, v, None), None, None);
                }
            });
        }
    });
    assert_eq!(agg.ok.load(Ordering::Relaxed), values.len() as u64);
    let max = f64::from_bits(agg.max_energy_ratio_bits.load(Ordering::Relaxed));
    assert_eq!(max, f64::MAX, "interleaving must not lose the true max");
    let max_speed = f64::from_bits(agg.max_peak_speed_bits.load(Ordering::Relaxed));
    assert_eq!(max_speed, f64::MAX);
    // The argmax cell survives the interleaving too: f64::MAX is the
    // last value, cell id 8, no matter which thread got there first.
    let arg = agg.max_energy_cell.lock().unwrap();
    assert_eq!(*arg, Some((8, f64::MAX)), "argmax must name the winning cell");
}

#[test]
fn argmax_breaks_ratio_ties_toward_the_lowest_cell() {
    // Equal ratios fold to the lowest cell id regardless of arrival
    // order — the property that makes the fold order-independent.
    let agg = StreamAgg::default();
    agg.record_ok(5, &metrics(2.0, 1.0, None), None, None);
    agg.record_ok(3, &metrics(2.0, 1.0, None), None, None);
    agg.record_ok(7, &metrics(2.0, 1.0, None), None, None);
    assert_eq!(*agg.max_energy_cell.lock().unwrap(), Some((3, 2.0)));
    // A strictly larger ratio still wins over a lower cell id.
    agg.record_ok(9, &metrics(2.5, 1.0, None), None, None);
    assert_eq!(*agg.max_energy_cell.lock().unwrap(), Some((9, 2.5)));
}

#[test]
fn bound_violations_respect_the_slack() {
    let agg = StreamAgg::default();
    // Exactly at the bound: no violation (slack absorbs it).
    agg.record_ok(0, &metrics(2.0, 1.0, Some(2.0)), Some(2.0), Some(2.0));
    assert_eq!(agg.energy_violations.load(Ordering::Relaxed), 0);
    assert_eq!(agg.speed_violations.load(Ordering::Relaxed), 0);
    // Clearly above: both counted.
    agg.record_ok(1, &metrics(3.0, 1.0, Some(3.0)), Some(2.0), Some(2.0));
    assert_eq!(agg.energy_violations.load(Ordering::Relaxed), 1);
    assert_eq!(agg.speed_violations.load(Ordering::Relaxed), 1);
    // No bound for the group: nothing to violate.
    agg.record_ok(2, &metrics(100.0, 100.0, Some(100.0)), None, None);
    assert_eq!(agg.energy_violations.load(Ordering::Relaxed), 1);
}

#[test]
fn histogram_clamps_nan_and_infinity_to_zero() {
    let reg = Registry::new();
    let h = reg.histogram("edge.dur_us", &DURATION_US_BOUNDS);
    h.record(f64::NAN);
    h.record(f64::INFINITY);
    h.record(f64::NEG_INFINITY);
    h.record(-5.0);
    assert_eq!(h.count(), 4, "clamped samples still count");
    assert_eq!(h.max(), 0.0, "non-finite/negative values clamp to 0");
    for q in [0.5, 0.95, 0.99] {
        let est = h.quantile(q);
        assert!(est.is_finite() && est == 0.0, "q={q}: {est}");
    }
    let json = reg.snapshot_json();
    assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
}

#[test]
fn single_sample_stats_are_degenerate_but_defined() {
    assert_eq!(median(&[42.0]), 42.0);
    assert_eq!(mad(&[42.0], 42.0), 0.0, "single sample has MAD 0");
    // A single-sample histogram pins min == max == the sample, and the
    // interpolated quantiles collapse onto it.
    let reg = Registry::new();
    let h = reg.histogram("one.dur_us", &DURATION_US_BOUNDS);
    h.record(7.0);
    assert_eq!((h.min(), h.max()), (7.0, 7.0));
    for q in [0.0, 0.5, 0.99, 1.0] {
        assert_eq!(h.quantile(q), 7.0, "q={q}");
    }
}
