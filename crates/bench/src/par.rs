//! Dependency-free data parallelism for the experiment sweeps.
//!
//! The harness's ensembles are embarrassingly parallel; [`par_map`]
//! fans a slice out over scoped OS threads in contiguous chunks and
//! returns results in input order — the replacement for the rayon
//! parallel iterators this workspace cannot depend on.
//!
//! [`par_map_stealing`] is the batch engine's fan-out: instead of
//! static chunks it hands out indices one at a time from a shared
//! atomic counter, so shards steal work from the common pool and a few
//! slow cells (a large instance, an expensive Frank–Wolfe baseline)
//! cannot strand an entire chunk's worth of idle time on one thread.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over `items` in parallel, preserving order.
///
/// Chunks the input evenly over `available_parallelism` scoped threads;
/// panics in `f` propagate to the caller once all threads are joined.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(items.len().max(1));
    let chunk = items.len().div_ceil(threads).max(1);
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        for (in_chunk, out_chunk) in items.chunks(chunk).zip(out.chunks_mut(chunk)) {
            scope.spawn(|| {
                for (item, slot) in in_chunk.iter().zip(out_chunk.iter_mut()) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    out.into_iter().map(|r| r.expect("every slot is filled before the scope joins")).collect()
}

/// [`par_map`] over a seed range — the harness's most common shape.
pub fn par_map_seeds<R: Send>(seeds: std::ops::Range<u64>, f: impl Fn(u64) -> R + Sync) -> Vec<R> {
    let list: Vec<u64> = seeds.collect();
    par_map(&list, |&s| f(s))
}

/// Maps `f(shard, index)` over `0..n_items` with `shards` work-stealing
/// workers, returning results in index order.
///
/// Each worker repeatedly claims the next unclaimed index from a shared
/// counter, so load balances dynamically regardless of how uneven the
/// per-index cost is. Exactly one worker evaluates each index; `shard`
/// is the worker's id in `0..shards` (for per-shard instrumentation).
/// `shards == 0` means `available_parallelism`. Shard 0 runs on the
/// calling thread and `shards − 1` scoped threads run the rest, so a
/// one-shard map spawns no thread. Panics in `f` propagate once the
/// scope joins.
pub fn par_map_stealing<R: Send>(
    n_items: usize,
    shards: usize,
    f: impl Fn(usize, usize) -> R + Sync,
) -> Vec<R> {
    let shards = if shards == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        shards
    }
    .min(n_items.max(1));
    let next = AtomicUsize::new(0);
    // Worker threads have empty span stacks; capture the caller's span
    // here so each shard's span stitches into the caller's trace tree.
    let parent = qbss_telemetry::current_span_id();
    let worker = |shard: usize| {
        let mut span = qbss_telemetry::span!(parent: parent, "par.shard", { shard = shard });
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_items {
                break;
            }
            local.push((i, f(shard, i)));
        }
        span.record("items", local.len());
        local
    };
    let mut buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = (1..shards).map(|shard| scope.spawn(move || worker(shard))).collect();
        let mut buckets = vec![worker(0)];
        buckets.extend(handles.into_iter().map(|h| h.join().expect("worker panicked; propagating")));
        buckets
    });
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(n_items, || None);
    for (i, r) in buckets.drain(..).flatten() {
        out[i] = Some(r);
    }
    out.into_iter().map(|r| r.expect("every index is claimed exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_covers_all_items() {
        let items: Vec<u64> = (0..1000).collect();
        let doubled = par_map(&items, |&x| 2 * x);
        assert_eq!(doubled, items.iter().map(|x| 2 * x).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        assert!(par_map::<u64, u64>(&[], |&x| x).is_empty());
        assert_eq!(par_map(&[7u64], |&x| x + 1), vec![8]);
        assert_eq!(par_map_seeds(0..3, |s| s * s), vec![0, 1, 4]);
    }

    #[test]
    fn stealing_covers_every_index_in_order() {
        for shards in [1, 2, 3, 8] {
            let out = par_map_stealing(100, shards, |_, i| 3 * i);
            assert_eq!(out, (0..100).map(|i| 3 * i).collect::<Vec<_>>(), "{shards} shards");
        }
    }

    #[test]
    fn stealing_claims_each_index_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let claims: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        let _ = par_map_stealing(64, 4, |shard, i| {
            claims[i].fetch_add(1, Ordering::Relaxed);
            assert!(shard < 4);
            i
        });
        assert!(claims.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn shard_zero_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let on_caller = par_map_stealing(8, 1, |_, _| std::thread::current().id() == caller);
        assert!(on_caller.iter().all(|&b| b), "one shard spawns no thread");
        let by_shard = par_map_stealing(64, 3, |shard, _| {
            (shard, std::thread::current().id() == caller)
        });
        assert!(by_shard.iter().all(|&(shard, here)| here == (shard == 0)), "{by_shard:?}");
    }

    #[test]
    fn a_worker_panic_propagates_after_the_join() {
        use std::sync::atomic::AtomicBool;
        let worker_ran = AtomicBool::new(false);
        let result = std::panic::catch_unwind(|| {
            par_map_stealing(2, 2, |shard, i| {
                if shard != 0 {
                    worker_ran.store(true, Ordering::Release);
                    panic!("worker failure");
                }
                // Hold the caller's shard until the worker has claimed
                // the other index, so the worker always runs `f`.
                while !worker_ran.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                i
            })
        });
        assert!(result.is_err(), "a worker's panic must reach the caller");
    }

    #[test]
    fn stealing_edge_cases() {
        assert!(par_map_stealing::<u64>(0, 4, |_, i| i as u64).is_empty());
        assert_eq!(par_map_stealing(1, 8, |_, i| i + 1), vec![1]);
        // shards = 0 → auto parallelism.
        assert_eq!(par_map_stealing(5, 0, |_, i| i), vec![0, 1, 2, 3, 4]);
    }
}
