//! The sharded batch-evaluation engine.
//!
//! Every table and figure of the paper is an ensemble sweep: a grid of
//! *(instance, algorithm, α)* cells, each pushed through the checked
//! pipeline and digested into ratio statistics. This module is the one
//! implementation of that loop:
//!
//! * a declarative [`SweepSpec`] names the grid (instance source ×
//!   algorithm set × α grid — machine counts ride on the
//!   [`Algorithm`] values themselves);
//! * [`run_sweep`] fans *units* out over work-stealing shards
//!   ([`crate::par::par_map_stealing`]). A unit is one
//!   *(instance, algorithm)* pair: it solves through
//!   [`qbss_core::pipeline::solve`] once (once per α for an algorithm
//!   that [plans with α](Algorithm::plans_with_alpha), OAQ(m)), then
//!   re-costs that outcome at every α of the grid, each cell behind the
//!   pipeline's finiteness gate ([`qbss_core::pipeline::Evaluated::gate`])
//!   — so a sweep is also a no-panic, fully validated end-to-end pass,
//!   and every cell equals a cold [`qbss_core::pipeline::run_evaluated`]
//!   at its α bit for bit;
//! * a per-instance **profile cache** ([`std::sync::OnceLock`] slots,
//!   lock-free on the hot path) builds each instance and its clairvoyant
//!   [`OptCache`] once, shared by all algorithms and α values of that
//!   instance; multi-machine OPT lower bounds are memoized per
//!   `(m, α)` inside the same entry;
//! * shards feed a [`StreamAgg`] per *(algorithm, α)* group: exact
//!   counters (cells, errors, bound violations) and exact maxima
//!   (`AtomicU64::fetch_max` over IEEE bits — order-independent for
//!   non-negative floats) stay lock-free; the argmax *cell* of the
//!   energy ratio rides behind a micro-mutex folding an
//!   order-independent lexicographic max, so every reported worst
//!   ratio names a reproducible (instance, seed) pair;
//! * the final [`EngineReport`] combines the streaming counters with a
//!   canonical-order pass over the per-cell records (means and
//!   percentiles are computed in cell order), so the aggregate JSON is
//!   **byte-identical for any shard count**. Wall-clock numbers live in
//!   a separate instrumentation JSON, which is the only
//!   non-deterministic output.
//!
//! ## Baselines
//!
//! Single-machine algorithms are measured against the clairvoyant YDS
//! optimum (energy at the cell's α, and peak speed). Multi-machine
//! algorithms are measured against a certified lower bound on the
//! `m`-machine optimum — the max of the closed-form fluid/per-job
//! bounds and the Frank–Wolfe duality certificate at
//! [`SweepSpec::opt_fw_iters`] iterations (0 disables the certificate) —
//! and carry no speed-ratio baseline.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use qbss_analysis::bounds;
use qbss_analysis::stats::percentile_sorted;
use qbss_core::model::QbssInstance;
use qbss_core::error::QbssError;
use qbss_core::pipeline::{solve, Algorithm, Evaluated};
use qbss_instances::gen::{generate, GenConfig};
use qbss_telemetry::{Registry, DURATION_US_BOUNDS};
use speed_scaling::cache::OptCache;
use speed_scaling::multi::{multi_opt_frank_wolfe, opt_lower_bound_from};

/// Numeric slack for bound-violation counting, matching
/// [`crate::ensemble::check_bound`].
const BOUND_SLACK: f64 = 1e-6;

// ---------------------------------------------------------------------
// Spec
// ---------------------------------------------------------------------

/// Where a sweep's instances come from.
#[derive(Debug, Clone)]
pub enum InstanceSource {
    /// `seeds.len()` instances generated from `base` with the seed
    /// substituted (`seed = seeds.start + index`).
    Generated {
        /// Generator family; its `seed` field is ignored.
        base: GenConfig,
        /// Seed range, one instance per seed.
        seeds: std::ops::Range<u64>,
    },
    /// Explicitly provided instances (e.g. loaded from files).
    Explicit(Vec<QbssInstance>),
}

/// A declarative batch sweep: instance source × algorithm set × α grid.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Instance source.
    pub source: InstanceSource,
    /// Algorithm configurations (machine counts ride on the values).
    pub algorithms: Vec<Algorithm>,
    /// Power exponents; every `(instance, algorithm)` pair runs at each.
    pub alphas: Vec<f64>,
    /// Frank–Wolfe iterations for the multi-machine OPT lower-bound
    /// certificate (0 = closed-form bounds only). Irrelevant when no
    /// multi-machine algorithm is in the set.
    pub opt_fw_iters: usize,
}

impl SweepSpec {
    /// Number of instances in the source.
    pub fn n_instances(&self) -> usize {
        match &self.source {
            InstanceSource::Generated { seeds, .. } => {
                usize::try_from(seeds.end.saturating_sub(seeds.start)).unwrap_or(usize::MAX)
            }
            InstanceSource::Explicit(v) => v.len(),
        }
    }

    /// Total cell count `instances × algorithms × alphas`.
    pub fn n_cells(&self) -> usize {
        self.n_instances() * self.algorithms.len() * self.alphas.len()
    }

    /// Materializes instance `index` (deterministic in `index`).
    fn instance(&self, index: usize) -> QbssInstance {
        match &self.source {
            InstanceSource::Generated { base, seeds } => {
                generate(&GenConfig { seed: seeds.start + index as u64, ..*base })
            }
            InstanceSource::Explicit(v) => v[index].clone(),
        }
    }

    /// Rejects structurally empty or out-of-model specs.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.algorithms.is_empty() {
            return Err(EngineError::EmptySpec("no algorithms"));
        }
        if self.alphas.is_empty() {
            return Err(EngineError::EmptySpec("no alphas"));
        }
        if self.n_instances() == 0 {
            return Err(EngineError::EmptySpec("no instances"));
        }
        if let InstanceSource::Generated { base, .. } = &self.source {
            if base.n == 0 {
                return Err(EngineError::EmptySpec("generator family with n = 0 jobs"));
            }
        }
        if let Some(&alpha) = self.alphas.iter().find(|a| !a.is_finite() || **a <= 1.0) {
            return Err(EngineError::InvalidAlpha { alpha });
        }
        Ok(())
    }
}

/// A structurally invalid [`SweepSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A grid dimension is empty.
    EmptySpec(&'static str),
    /// An exponent outside the model's `α > 1` (finite) contract.
    InvalidAlpha {
        /// The offending exponent.
        alpha: f64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::EmptySpec(what) => write!(f, "empty sweep spec: {what}"),
            EngineError::InvalidAlpha { alpha } => {
                write!(f, "alpha must be finite and exceed 1, got {alpha}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

// ---------------------------------------------------------------------
// Per-instance profile cache
// ---------------------------------------------------------------------

/// Everything the engine derives from one instance, built once and
/// shared by all of the instance's cells.
struct InstanceCtx {
    inst: QbssInstance,
    /// Clairvoyant YDS optimum, per-α energies memoized inside.
    opt: OptCache,
    /// Multi-machine OPT lower bounds memoized per `(m, α bits)`.
    multi_lb: Mutex<Vec<((usize, u64), f64)>>,
}

impl InstanceCtx {
    fn new(inst: QbssInstance) -> Self {
        let opt = inst.opt_cache();
        Self { inst, opt, multi_lb: Mutex::new(Vec::new()) }
    }

    /// Certified lower bound on the `m`-machine clairvoyant optimum at
    /// `alpha`; memoized. The fluid bound reads the context's YDS
    /// profile. Returns `(value, was_cache_hit)`.
    fn multi_lower_bound(&self, m: usize, alpha: f64, fw_iters: usize) -> (f64, bool) {
        let key = (m, alpha.to_bits());
        let mut memo =
            self.multi_lb.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(&(_, lb)) = memo.iter().find(|&&(k, _)| k == key) {
            return (lb, true);
        }
        let clair = self.inst.clairvoyant_instance();
        let mut lb = opt_lower_bound_from(&clair, self.opt.profile(), m, alpha);
        if fw_iters > 0 {
            lb = lb.max(multi_opt_frank_wolfe(&clair, m, alpha, fw_iters).lower_bound());
        }
        memo.push((key, lb));
        (lb, false)
    }
}

// ---------------------------------------------------------------------
// Streaming aggregation
// ---------------------------------------------------------------------

/// Per-group accumulator the shards feed as cells complete.
///
/// Everything in here is exact and order-independent: counters are
/// integer atomics and maxima use `fetch_max` over IEEE-754 bits, whose
/// ordering coincides with the numeric one for non-negative floats; the
/// argmax cell of the energy ratio rides behind a micro-mutex but folds
/// the order-independent lexicographic max of `(ratio, lowest cell id)`,
/// so it too is deterministic at any shard count. The order-*dependent*
/// statistics (mean, percentiles) are deliberately not accumulated here
/// — [`run_sweep`] derives them from the per-cell records in canonical
/// cell order, keeping aggregates byte-identical across shard counts.
#[derive(Debug, Default)]
pub struct StreamAgg {
    /// Successfully evaluated cells.
    pub ok: AtomicU64,
    /// Cells that came back as typed pipeline errors.
    pub errors: AtomicU64,
    /// Max energy ratio seen, as non-negative f64 bits.
    pub max_energy_ratio_bits: AtomicU64,
    /// Max peak speed seen, as non-negative f64 bits.
    pub max_peak_speed_bits: AtomicU64,
    /// Cells whose energy ratio exceeded the group's proven bound.
    pub energy_violations: AtomicU64,
    /// Cells whose speed ratio exceeded the group's proven bound.
    pub speed_violations: AtomicU64,
    /// Argmax of the energy ratio: `(canonical cell id, ratio)`, the
    /// lowest cell id on ties — so every reported worst ratio names a
    /// reproducible cell.
    pub max_energy_cell: Mutex<Option<(usize, f64)>>,
}

impl StreamAgg {
    /// Feeds one successful cell: bumps `ok`, folds the IEEE-bit maxima
    /// and the argmax cell, and counts bound violations against the
    /// group's proven bounds (with the engine's relative slack).
    /// `cell` is the canonical cell id (ties on the ratio keep the
    /// lowest id, which keeps the fold order-independent).
    pub fn record_ok(
        &self,
        cell: usize,
        metrics: &CellMetrics,
        energy_bound: Option<f64>,
        speed_bound: Option<f64>,
    ) {
        self.ok.fetch_add(1, Ordering::Relaxed);
        self.max_energy_ratio_bits
            .fetch_max(metrics.energy_ratio.to_bits(), Ordering::Relaxed);
        self.max_peak_speed_bits.fetch_max(metrics.peak_speed.to_bits(), Ordering::Relaxed);
        {
            let mut arg = self
                .max_energy_cell
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if arg.is_none_or(|(best_cell, best)| {
                metrics.energy_ratio > best || (metrics.energy_ratio == best && cell < best_cell)
            }) {
                *arg = Some((cell, metrics.energy_ratio));
            }
        }
        if let Some(b) = energy_bound {
            if metrics.energy_ratio > b * (1.0 + BOUND_SLACK) {
                self.energy_violations.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let (Some(b), Some(s)) = (speed_bound, metrics.speed_ratio) {
            if s > b * (1.0 + BOUND_SLACK) {
                self.speed_violations.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

/// Metrics of one successfully evaluated cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMetrics {
    /// Schedule energy at the cell's α (from the pipeline's finiteness
    /// gate — never re-integrated).
    pub energy: f64,
    /// Peak speed over all machines and times.
    pub peak_speed: f64,
    /// Energy over the cell's baseline (YDS optimum for single-machine
    /// algorithms, certified multi-machine OPT lower bound otherwise).
    pub energy_ratio: f64,
    /// Peak speed over the YDS optimal peak speed; `None` for
    /// multi-machine algorithms (no proven speed baseline).
    pub speed_ratio: Option<f64>,
    /// Jobs the algorithm chose to query.
    pub queried: usize,
}

/// One cell of the sweep grid: indices into the spec plus the result.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// Instance index in the source.
    pub instance: usize,
    /// Algorithm index in `spec.algorithms`.
    pub algorithm: usize,
    /// α index in `spec.alphas`.
    pub alpha: usize,
    /// Metrics, or the typed pipeline error rendered to a string.
    pub result: Result<CellMetrics, String>,
}

/// Order statistics of one metric over a group's successful cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Digest {
    /// Sample size.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// Arithmetic mean (accumulated in canonical cell order).
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Digest {
    /// Digests `values` (in canonical cell order); `None` when empty.
    fn of(values: &[f64]) -> Option<Digest> {
        if values.is_empty() {
            return None;
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite metric"));
        Some(Digest {
            n: values.len(),
            min: sorted[0],
            mean,
            p50: percentile_sorted(&sorted, 0.50),
            p99: percentile_sorted(&sorted, 0.99),
            max: sorted[sorted.len() - 1],
        })
    }
}

/// The reproducible argmax cell of a group's energy ratio: enough to
/// regenerate the offending instance (`seed` for generated sources,
/// the index for explicit ones) and re-run the cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorstCell {
    /// Instance index in the sweep's source.
    pub instance: usize,
    /// Generator seed of that instance (`None` for explicit sources).
    pub seed: Option<u64>,
    /// The energy ratio measured there.
    pub energy_ratio: f64,
}

/// Aggregate of one *(algorithm, α)* group.
#[derive(Debug, Clone)]
pub struct GroupAggregate {
    /// Canonical algorithm string (round-trips through `FromStr`).
    pub algorithm: String,
    /// The group's power exponent.
    pub alpha: f64,
    /// Successfully evaluated cells.
    pub ok: usize,
    /// Cells rejected with a typed pipeline error.
    pub errors: usize,
    /// Energy-ratio digest (`None` when no cell succeeded).
    pub energy_ratio: Option<Digest>,
    /// Peak-speed digest.
    pub peak_speed: Option<Digest>,
    /// Speed-ratio digest (`None` for multi-machine groups).
    pub speed_ratio: Option<Digest>,
    /// The proven energy bound for this family at this α, if any.
    pub energy_bound: Option<f64>,
    /// Cells with `energy_ratio` above `energy_bound` (with slack).
    pub energy_violations: u64,
    /// The proven speed bound for this family, if any.
    pub speed_bound: Option<f64>,
    /// Cells with `speed_ratio` above `speed_bound` (with slack).
    pub speed_violations: u64,
    /// The argmax cell of `energy_ratio` (`None` when no cell
    /// succeeded) — the group's worst ratio, reproducibly named.
    pub worst_cell: Option<WorstCell>,
}

/// Per-shard execution statistics.
#[derive(Debug, Clone, Copy)]
pub struct ShardStats {
    /// Cells this shard evaluated.
    pub cells: u64,
    /// Wall-clock time this shard spent inside cells.
    pub busy: Duration,
}

/// Wall-clock and cache instrumentation of one engine run. This is the
/// only part of a report that is *not* deterministic.
#[derive(Debug, Clone)]
pub struct Instrumentation {
    /// Work-stealing shard count actually used (at most one per unit).
    pub shards: usize,
    /// End-to-end wall-clock time of the sweep.
    pub wall: Duration,
    /// Total cells evaluated (ok + errors).
    pub cells: usize,
    /// `cells / wall` throughput.
    pub cells_per_sec: f64,
    /// Instance-context cache: units (one per *(instance, algorithm)*
    /// pair) that found their instance's profiles already built.
    pub ctx_hits: u64,
    /// Instance-context cache: contexts built (one per instance).
    pub ctx_misses: u64,
    /// Per-α YDS energy memo hits (inside [`OptCache`]).
    pub opt_energy_hits: u64,
    /// Per-α YDS energy memo misses.
    pub opt_energy_misses: u64,
    /// Multi-machine lower-bound memo hits.
    pub multi_lb_hits: u64,
    /// Multi-machine lower-bound memo misses.
    pub multi_lb_misses: u64,
    /// Per-shard timers.
    pub per_shard: Vec<ShardStats>,
}

impl Instrumentation {
    /// Combined hit rate over all cache layers, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.ctx_hits + self.opt_energy_hits + self.multi_lb_hits;
        let total = hits + self.ctx_misses + self.opt_energy_misses + self.multi_lb_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// The result of [`run_sweep`]: deterministic aggregates, the raw cell
/// records, and (separately) the run's instrumentation.
#[derive(Debug)]
pub struct EngineReport {
    /// One aggregate per *(algorithm, α)*, in spec order (algorithms
    /// outer, alphas inner).
    pub groups: Vec<GroupAggregate>,
    /// Every cell, in canonical cell order.
    pub records: Vec<CellRecord>,
    /// Wall-clock and cache statistics.
    pub instrumentation: Instrumentation,
    /// The run-local metrics registry behind [`Instrumentation`]:
    /// `engine.*` counters plus the per-cell duration histogram. Local
    /// to the run (not the process-global registry) so concurrent
    /// sweeps never bleed into each other's numbers.
    pub metrics: Registry,
}

impl EngineReport {
    /// Looks up the aggregate of `(algorithm, alpha)`.
    pub fn group(&self, algorithm: Algorithm, alpha: f64) -> Option<&GroupAggregate> {
        let name = algorithm.to_string();
        self.groups.iter().find(|g| g.algorithm == name && g.alpha == alpha)
    }

    /// Bound-violation messages over all groups, in the style of
    /// [`crate::ensemble::check_bound`] — empty means every proven
    /// bound held and no cell errored.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for g in &self.groups {
            if g.errors > 0 {
                out.push(format!(
                    "{} α={}: {} cell(s) failed the checked pipeline",
                    g.algorithm, g.alpha, g.errors
                ));
            }
            if g.energy_violations > 0 {
                let max = g.energy_ratio.map_or(f64::NAN, |d| d.max);
                out.push(format!(
                    "BOUND VIOLATION: {} energy α={}: measured max {} > proven bound {} \
                     ({} cell(s))",
                    g.algorithm,
                    g.alpha,
                    max,
                    g.energy_bound.unwrap_or(f64::NAN),
                    g.energy_violations
                ));
            }
            if g.speed_violations > 0 {
                let max = g.speed_ratio.map_or(f64::NAN, |d| d.max);
                out.push(format!(
                    "BOUND VIOLATION: {} max-speed α={}: measured max {} > proven bound {} \
                     ({} cell(s))",
                    g.algorithm,
                    g.alpha,
                    max,
                    g.speed_bound.unwrap_or(f64::NAN),
                    g.speed_violations
                ));
            }
        }
        out
    }

    /// The sweep-wide argmax cell of the energy ratio: the group whose
    /// worst cell tops every other group's (first group in spec order
    /// on ties — deterministic like everything else in the aggregate).
    pub fn worst_cell(&self) -> Option<(&GroupAggregate, WorstCell)> {
        let mut best: Option<(&GroupAggregate, WorstCell)> = None;
        for g in &self.groups {
            if let Some(w) = g.worst_cell {
                if best.is_none_or(|(_, b)| w.energy_ratio > b.energy_ratio) {
                    best = Some((g, w));
                }
            }
        }
        best
    }

    /// The deterministic aggregate as JSON: byte-identical for the same
    /// spec at any shard count.
    pub fn aggregate_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n  \"groups\": [");
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            s.push_str(&format!("\"algorithm\": \"{}\", ", g.algorithm));
            s.push_str(&format!("\"alpha\": {}, ", g.alpha));
            s.push_str(&format!("\"ok\": {}, \"errors\": {}, ", g.ok, g.errors));
            s.push_str(&format!("\"energy_ratio\": {}, ", json_digest(g.energy_ratio)));
            s.push_str(&format!("\"peak_speed\": {}, ", json_digest(g.peak_speed)));
            s.push_str(&format!("\"speed_ratio\": {}, ", json_digest(g.speed_ratio)));
            s.push_str(&format!(
                "\"energy_bound\": {}, \"energy_violations\": {}, ",
                json_opt(g.energy_bound),
                g.energy_violations
            ));
            s.push_str(&format!(
                "\"speed_bound\": {}, \"speed_violations\": {}, ",
                json_opt(g.speed_bound),
                g.speed_violations
            ));
            s.push_str(&format!("\"worst_cell\": {}", json_worst(g.worst_cell)));
            s.push('}');
        }
        s.push_str("\n  ],\n  \"worst_cell\": ");
        match self.worst_cell() {
            None => s.push_str("null"),
            Some((g, w)) => s.push_str(&format!(
                "{{\"algorithm\": \"{}\", \"alpha\": {}, \"instance\": {}, \"seed\": {}, \
                 \"energy_ratio\": {}}}",
                g.algorithm,
                g.alpha,
                w.instance,
                w.seed.map_or_else(|| "null".to_string(), |s| s.to_string()),
                w.energy_ratio
            )),
        }
        s.push_str("\n}\n");
        s
    }

    /// The run's instrumentation as JSON (wall-clock numbers — dump
    /// this *next to* results, never into them).
    pub fn instrumentation_json(&self) -> String {
        let i = &self.instrumentation;
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str(&format!("  \"shards\": {},\n", i.shards));
        s.push_str(&format!("  \"cells\": {},\n", i.cells));
        s.push_str(&format!("  \"wall_ms\": {:.3},\n", i.wall.as_secs_f64() * 1e3));
        s.push_str(&format!("  \"cells_per_sec\": {:.1},\n", i.cells_per_sec));
        s.push_str(&format!("  \"cache_hit_rate\": {:.4},\n", i.cache_hit_rate()));
        s.push_str(&format!(
            "  \"cache\": {{\"ctx_hits\": {}, \"ctx_misses\": {}, \"opt_energy_hits\": {}, \
             \"opt_energy_misses\": {}, \"multi_lb_hits\": {}, \"multi_lb_misses\": {}}},\n",
            i.ctx_hits,
            i.ctx_misses,
            i.opt_energy_hits,
            i.opt_energy_misses,
            i.multi_lb_hits,
            i.multi_lb_misses
        ));
        s.push_str("  \"per_shard\": [");
        for (k, sh) in i.per_shard.iter().enumerate() {
            if k > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"cells\": {}, \"busy_ms\": {:.3}}}",
                sh.cells,
                sh.busy.as_secs_f64() * 1e3
            ));
        }
        s.push_str("]\n}\n");
        s
    }
}

/// Shortest-round-trip float or `null`.
fn json_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), |x| format!("{x}"))
}

/// A [`WorstCell`] as a JSON object, or `null`.
fn json_worst(w: Option<WorstCell>) -> String {
    match w {
        None => "null".to_string(),
        Some(w) => format!(
            "{{\"instance\": {}, \"seed\": {}, \"energy_ratio\": {}}}",
            w.instance,
            w.seed.map_or_else(|| "null".to_string(), |s| s.to_string()),
            w.energy_ratio
        ),
    }
}

/// A [`Digest`] as a JSON object, or `null`.
fn json_digest(d: Option<Digest>) -> String {
    match d {
        None => "null".to_string(),
        Some(d) => format!(
            "{{\"n\": {}, \"min\": {}, \"mean\": {}, \"p50\": {}, \"p99\": {}, \"max\": {}}}",
            d.n, d.min, d.mean, d.p50, d.p99, d.max
        ),
    }
}

// ---------------------------------------------------------------------
// The executor
// ---------------------------------------------------------------------

/// Runs the sweep over `shards` work-stealing workers (0 = number of
/// available cores). See the module docs for the full contract; in
/// short: every cell goes through the checked pipeline, each
/// α-independent outcome and per-instance profiles are computed once,
/// and the returned aggregates are deterministic in the spec —
/// independent of `shards`.
pub fn run_sweep(spec: &SweepSpec, shards: usize) -> Result<EngineReport, EngineError> {
    run_sweep_audited(spec, shards, None)
}

/// [`run_sweep`] with an optional runtime invariant auditor threaded
/// through every cell (`qbss sweep --audit`). Each successful cell is
/// re-checked against the paper's guarantees using the instance's
/// memoized [`OptCache`]; findings go to the auditor's tallies and
/// `error!`-level telemetry only, so the returned report — and its
/// serialized bytes — are identical with auditing on or off.
pub fn run_sweep_audited(
    spec: &SweepSpec,
    shards: usize,
    auditor: Option<&qbss_core::audit::Auditor>,
) -> Result<EngineReport, EngineError> {
    spec.validate()?;
    let n_inst = spec.n_instances();
    let n_algs = spec.algorithms.len();
    let n_alphas = spec.alphas.len();
    let n_cells = n_inst * n_algs * n_alphas;
    let n_units = n_inst * n_algs;
    let shards_used = if shards == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        shards
    }
    .min(n_units.max(1));

    // Per-group proven bounds, resolved once.
    let group_bounds: Vec<(Option<f64>, Option<f64>)> = spec
        .algorithms
        .iter()
        .flat_map(|alg| {
            spec.alphas.iter().map(move |&alpha| {
                (bounds::energy_ub_for(alg.family(), alpha), bounds::speed_ub_for(alg.family()))
            })
        })
        .collect();

    let contexts: Vec<OnceLock<InstanceCtx>> = (0..n_inst).map(|_| OnceLock::new()).collect();
    let live: Vec<StreamAgg> = (0..n_algs * n_alphas).map(|_| StreamAgg::default()).collect();
    // Run-local registry: the cache counters that used to be a pile of
    // ad-hoc `AtomicU64`s, plus a per-cell latency histogram. The
    // handles are `Arc`s over atomics, so the hot path stays lock-free.
    let metrics = Registry::new();
    let ctx_hits = metrics.counter("engine.ctx.hits");
    let ctx_misses = metrics.counter("engine.ctx.misses");
    let multi_hits = metrics.counter("engine.multi_lb.hits");
    let multi_misses = metrics.counter("engine.multi_lb.misses");
    let cell_errors = metrics.counter("engine.cell.errors");
    let cell_dur_us = metrics.histogram("engine.cell.dur_us", &DURATION_US_BOUNDS);
    let shard_cells: Vec<AtomicU64> = (0..shards_used).map(|_| AtomicU64::new(0)).collect();
    let shard_busy_ns: Vec<AtomicU64> = (0..shards_used).map(|_| AtomicU64::new(0)).collect();

    // Profile cache: build each instance context exactly once.
    let context = |inst_idx: usize| -> &InstanceCtx {
        let slot = &contexts[inst_idx];
        if let Some(ctx) = slot.get() {
            ctx_hits.inc();
            return ctx;
        }
        let mut built_here = false;
        let ctx = slot.get_or_init(|| {
            built_here = true;
            InstanceCtx::new(spec.instance(inst_idx))
        });
        if built_here {
            ctx_misses.inc();
        } else {
            ctx_hits.inc();
        }
        ctx
    };

    let mut sweep_span = qbss_telemetry::span!("engine.sweep", {
        cells = n_cells,
        shards = shards_used,
        instances = n_inst,
    });
    let t0 = Instant::now();
    // The unit of work is one (instance, algorithm) pair, in canonical
    // order (instance outer, algorithm inner). A unit solves once, or
    // once per α for an algorithm that plans with α, and costs the held
    // outcome at every α of the grid: one cell each, α inner.
    let units: Vec<Vec<CellRecord>> =
        crate::par::par_map_stealing(n_units, shards_used, |shard, unit| {
            let (inst_idx, alg_idx) = (unit / n_algs, unit % n_algs);
            let alg = spec.algorithms[alg_idx];
            let mut unit_ctx: Option<&InstanceCtx> = None;
            let mut held: Option<Result<Evaluated, QbssError>> = None;
            let mut cells = Vec::with_capacity(n_alphas);
            for (alpha_idx, &alpha) in spec.alphas.iter().enumerate() {
                let started = Instant::now();
                let id = unit * n_alphas + alpha_idx;
                let cell_span = qbss_telemetry::span!("engine.cell", {
                    cell = id,
                    instance = inst_idx,
                    algorithm = alg.to_string(),
                    alpha = alpha,
                });
                let ctx = *unit_ctx.get_or_insert_with(|| context(inst_idx));
                let solved = match held.take() {
                    Some(Ok(mut ev)) if !alg.plans_with_alpha() => {
                        ev.recost(alpha);
                        Ok(ev)
                    }
                    Some(Err(e)) if !alg.plans_with_alpha() => Err(e),
                    _ => solve(&ctx.inst, alpha, alg),
                };
                let checked = match held.insert(solved) {
                    Ok(ev) => ev.gate().map(|()| &*ev),
                    Err(e) => Err(e.clone()),
                };
                let result = match checked {
                    Err(e) => {
                        cell_errors.inc();
                        qbss_telemetry::warn!(
                            "engine.cell",
                            { cell = id, instance = inst_idx, algorithm = alg.to_string() },
                            "cell rejected by the checked pipeline: {e}"
                        );
                        Err(e.to_string())
                    }
                    Ok(ev) => {
                        if let Some(auditor) = auditor {
                            auditor.audit(&ctx.inst, alpha, alg, ev, &ctx.opt);
                        }
                        let queried = ev.outcome.decisions.iter().filter(|d| d.queried).count();
                        let (energy_ratio, speed_ratio) = if alg.machines() <= 1 {
                            let opt_e = ctx.opt.energy(alpha);
                            let opt_s = ctx.opt.max_speed();
                            (
                                if opt_e <= 0.0 { 1.0 } else { ev.energy / opt_e },
                                Some(if opt_s <= 0.0 { 1.0 } else { ev.max_speed / opt_s }),
                            )
                        } else {
                            let (lb, hit) =
                                ctx.multi_lower_bound(alg.machines(), alpha, spec.opt_fw_iters);
                            if hit {
                                multi_hits.inc();
                            } else {
                                multi_misses.inc();
                            }
                            (if lb <= 0.0 { 1.0 } else { ev.energy / lb }, None)
                        };
                        Ok(CellMetrics {
                            energy: ev.energy,
                            peak_speed: ev.max_speed,
                            energy_ratio,
                            speed_ratio,
                            queried,
                        })
                    }
                };

                // Feed the streaming aggregator.
                let group = alg_idx * n_alphas + alpha_idx;
                let (energy_bound, speed_bound) = group_bounds[group];
                match &result {
                    Ok(m) => live[group].record_ok(id, m, energy_bound, speed_bound),
                    Err(_) => {
                        live[group].errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                shard_cells[shard].fetch_add(1, Ordering::Relaxed);
                let elapsed = started.elapsed();
                shard_busy_ns[shard].fetch_add(
                    elapsed.as_nanos().min(u128::from(u64::MAX)) as u64,
                    Ordering::Relaxed,
                );
                cell_dur_us.record(elapsed.as_secs_f64() * 1e6);
                drop(cell_span);

                cells.push(CellRecord {
                    instance: inst_idx,
                    algorithm: alg_idx,
                    alpha: alpha_idx,
                    result,
                });
            }
            cells
        });
    let wall = t0.elapsed();
    let records: Vec<CellRecord> = units.into_iter().flatten().collect();

    // Canonical-order finalization: means/percentiles in cell order,
    // exact counters and maxima from the streaming aggregator.
    let mut groups = Vec::with_capacity(n_algs * n_alphas);
    for (alg_idx, alg) in spec.algorithms.iter().enumerate() {
        for (alpha_idx, &alpha) in spec.alphas.iter().enumerate() {
            let group = alg_idx * n_alphas + alpha_idx;
            let agg = &live[group];
            let mut energy_ratios = Vec::new();
            let mut peak_speeds = Vec::new();
            let mut speed_ratios = Vec::new();
            let mut worst: Option<(f64, usize)> = None;
            for rec in records
                .iter()
                .filter(|r| r.algorithm == alg_idx && r.alpha == alpha_idx)
            {
                if let Ok(m) = &rec.result {
                    // Strict `>` keeps the first (lowest) instance on ties,
                    // matching the streaming argmax's lowest-cell rule.
                    if worst.is_none_or(|(best, _)| m.energy_ratio > best) {
                        worst = Some((m.energy_ratio, rec.instance));
                    }
                    energy_ratios.push(m.energy_ratio);
                    peak_speeds.push(m.peak_speed);
                    if let Some(s) = m.speed_ratio {
                        speed_ratios.push(s);
                    }
                }
            }
            let energy_ratio = Digest::of(&energy_ratios);
            debug_assert_eq!(
                energy_ratio.map(|d| d.max.to_bits()),
                (agg.ok.load(Ordering::Relaxed) > 0)
                    .then(|| agg.max_energy_ratio_bits.load(Ordering::Relaxed)),
                "streaming max must agree with the canonical pass"
            );
            debug_assert_eq!(
                agg.max_energy_cell
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .map(|(cell, _)| cell / (n_algs * n_alphas)),
                worst.map(|(_, inst)| inst),
                "streaming argmax cell must agree with the canonical pass"
            );
            let worst_cell = worst.map(|(ratio, instance)| WorstCell {
                instance,
                seed: match &spec.source {
                    InstanceSource::Generated { seeds, .. } => Some(seeds.start + instance as u64),
                    InstanceSource::Explicit(_) => None,
                },
                energy_ratio: ratio,
            });
            let (energy_bound, speed_bound) = group_bounds[group];
            groups.push(GroupAggregate {
                algorithm: alg.to_string(),
                alpha,
                ok: agg.ok.load(Ordering::Relaxed) as usize,
                errors: agg.errors.load(Ordering::Relaxed) as usize,
                energy_ratio,
                peak_speed: Digest::of(&peak_speeds),
                speed_ratio: Digest::of(&speed_ratios),
                energy_bound,
                energy_violations: agg.energy_violations.load(Ordering::Relaxed),
                speed_bound,
                speed_violations: agg.speed_violations.load(Ordering::Relaxed),
                worst_cell,
            });
        }
    }

    // OptCache traffic accumulated inside the contexts, mirrored into
    // the run registry so one snapshot covers every cache layer.
    let (opt_hits, opt_misses) = contexts
        .iter()
        .filter_map(OnceLock::get)
        .map(|c| c.opt.counters())
        .fold((0, 0), |(h, m), (ch, cm)| (h + ch, m + cm));
    metrics.counter("engine.opt_energy.hits").add(opt_hits);
    metrics.counter("engine.opt_energy.misses").add(opt_misses);
    let cells_per_sec = if wall.as_secs_f64() > 0.0 {
        n_cells as f64 / wall.as_secs_f64()
    } else {
        f64::INFINITY
    };
    metrics.gauge("engine.cells_per_sec").set(cells_per_sec);
    let instrumentation = Instrumentation {
        shards: shards_used,
        wall,
        cells: n_cells,
        cells_per_sec,
        ctx_hits: ctx_hits.get(),
        ctx_misses: ctx_misses.get(),
        opt_energy_hits: opt_hits,
        opt_energy_misses: opt_misses,
        multi_lb_hits: multi_hits.get(),
        multi_lb_misses: multi_misses.get(),
        per_shard: shard_cells
            .iter()
            .zip(&shard_busy_ns)
            .map(|(c, b)| ShardStats {
                cells: c.load(Ordering::Relaxed),
                busy: Duration::from_nanos(b.load(Ordering::Relaxed)),
            })
            .collect(),
    };
    sweep_span.record("wall_us", wall.as_micros().min(u128::from(u64::MAX)) as u64);
    sweep_span.record("cache_hit_rate", instrumentation.cache_hit_rate());
    drop(sweep_span);
    qbss_telemetry::info!(
        "engine.sweep",
        { cells = n_cells, shards = shards_used, wall_us = wall.as_micros() as u64 },
        "sweep complete: {n_cells} cells in {}",
        qbss_telemetry::fmt_duration(wall)
    );
    qbss_telemetry::emit_metrics("engine", &metrics);

    Ok(EngineReport { groups, records, instrumentation, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> SweepSpec {
        SweepSpec {
            source: InstanceSource::Generated {
                base: GenConfig::online_default(8, 0),
                seeds: 0..6,
            },
            algorithms: vec![Algorithm::Avrq, Algorithm::Bkpq, Algorithm::AvrqM { m: 2 }],
            alphas: vec![2.0, 3.0],
            opt_fw_iters: 4,
        }
    }

    #[test]
    fn sweep_covers_the_grid_and_caches_profiles() {
        let rep = run_sweep(&small_spec(), 2).expect("valid spec");
        assert_eq!(rep.records.len(), 6 * 3 * 2);
        assert_eq!(rep.groups.len(), 3 * 2);
        for g in &rep.groups {
            assert_eq!(g.ok + g.errors, 6, "{}: every instance accounted for", g.algorithm);
            assert_eq!(g.errors, 0, "{}", g.algorithm);
            let d = g.energy_ratio.expect("ok cells");
            assert!(d.min >= 1.0 - 1e-9, "{}: no algorithm beats its baseline", g.algorithm);
        }
        let i = &rep.instrumentation;
        // One context lookup per solve: no algorithm here plans with α,
        // so each (instance, algorithm) unit solves once.
        assert_eq!(i.ctx_misses, 6, "one context per instance");
        assert_eq!(i.ctx_hits, (6 * 3 - 6) as u64);
        // OPT energy: two single-machine algorithms per (instance, α),
        // the first a miss.
        assert_eq!((i.opt_energy_hits, i.opt_energy_misses), (12, 12));
        // Multi-machine LB: one (m, α) key per cell, each a miss.
        assert_eq!((i.multi_lb_hits, i.multi_lb_misses), (0, 12));
        assert_eq!(i.cache_hit_rate(), 24.0 / 54.0);
    }

    #[test]
    fn aggregates_are_shard_count_independent() {
        let spec = small_spec();
        let base = run_sweep(&spec, 1).expect("shards=1").aggregate_json();
        for shards in [2, 3, 8] {
            let json = run_sweep(&spec, shards).expect("valid").aggregate_json();
            assert_eq!(json, base, "shards={shards}");
        }
    }

    #[test]
    fn group_lookup_and_violations() {
        let rep = run_sweep(&small_spec(), 2).expect("valid spec");
        let g = rep.group(Algorithm::Avrq, 3.0).expect("group exists");
        assert_eq!(g.algorithm, "avrq");
        assert!(g.energy_bound.is_some());
        assert_eq!(g.energy_violations, 0);
        assert!(rep.group(Algorithm::Oaq, 3.0).is_none());
        assert!(rep.violations().is_empty());
    }

    #[test]
    fn out_of_scope_cells_are_recorded_not_fatal() {
        // Online releases fed to the offline family: typed errors per
        // cell, sweep completes.
        let spec = SweepSpec {
            source: InstanceSource::Generated {
                base: GenConfig::online_default(6, 0),
                seeds: 0..4,
            },
            algorithms: vec![Algorithm::Crad, Algorithm::Avrq],
            alphas: vec![3.0],
            opt_fw_iters: 0,
        };
        let rep = run_sweep(&spec, 2).expect("valid spec");
        let crad = rep.group(Algorithm::Crad, 3.0).expect("group");
        assert_eq!(crad.errors, 4);
        assert!(crad.energy_ratio.is_none());
        let avrq = rep.group(Algorithm::Avrq, 3.0).expect("group");
        assert_eq!(avrq.ok, 4);
        assert!(!rep.violations().is_empty(), "errored cells are reported");
    }

    #[test]
    fn bad_specs_are_typed_errors() {
        let mut spec = small_spec();
        spec.algorithms.clear();
        assert!(matches!(run_sweep(&spec, 1), Err(EngineError::EmptySpec(_))));
        let mut spec = small_spec();
        spec.alphas = vec![1.0];
        assert!(matches!(run_sweep(&spec, 1), Err(EngineError::InvalidAlpha { .. })));
        let spec = SweepSpec {
            source: InstanceSource::Explicit(vec![]),
            algorithms: vec![Algorithm::Avrq],
            alphas: vec![3.0],
            opt_fw_iters: 0,
        };
        assert!(matches!(run_sweep(&spec, 1), Err(EngineError::EmptySpec(_))));
    }

    #[test]
    fn audited_sweep_is_clean_and_byte_identical_for_every_algorithm() {
        // Common-deadline instances keep all nine configurations in
        // scope; a clean sweep must audit every cell with zero
        // violations and identical aggregate bytes.
        let spec = SweepSpec {
            source: InstanceSource::Generated {
                base: GenConfig::common_deadline(8, 8.0, 0),
                seeds: 0..4,
            },
            algorithms: Algorithm::all(2, 6),
            alphas: vec![2.0, 3.0],
            opt_fw_iters: 4,
        };
        let auditor = qbss_core::audit::Auditor::new();
        let audited = run_sweep_audited(&spec, 2, Some(&auditor)).expect("valid spec");
        let n_ok: usize = audited.groups.iter().map(|g| g.ok).sum();
        assert_eq!(n_ok, 4 * 9 * 2, "every cell in scope: {:?}", audited.violations());
        assert_eq!(auditor.checked(), (4 * 9 * 2) as u64);
        assert_eq!(auditor.violations(), 0, "clean runs must audit clean");
        let plain = run_sweep(&spec, 2).expect("valid spec");
        assert_eq!(
            audited.aggregate_json(),
            plain.aggregate_json(),
            "auditing must not perturb aggregate bytes"
        );
    }

    #[test]
    fn an_energy_that_overflows_at_one_alpha_fails_that_cell_only() {
        use qbss_core::model::QJob;
        use qbss_core::pipeline::run_evaluated;
        // Work 1e100 in a 1e-6 window: finite energy at α = 2, an
        // overflow at α = 3. One solve per algorithm serves both cells,
        // in either α order.
        let inst = QbssInstance::new(vec![QJob::new(0, 0.0, 1e-6, 1.0, 1e100, 1e100)]);
        for alphas in [vec![2.0, 3.0], vec![3.0, 2.0]] {
            let spec = SweepSpec {
                source: InstanceSource::Explicit(vec![inst.clone()]),
                algorithms: vec![
                    Algorithm::Avrq,
                    Algorithm::Bkpq,
                    Algorithm::Oaq,
                    Algorithm::AvrqM { m: 2 },
                ],
                alphas,
                opt_fw_iters: 0,
            };
            let rep = run_sweep(&spec, 1).expect("valid spec");
            assert_eq!(rep.records.len(), 8);
            for rec in &rep.records {
                let (alg, alpha) = (spec.algorithms[rec.algorithm], spec.alphas[rec.alpha]);
                match (&rec.result, run_evaluated(&inst, alpha, alg)) {
                    (Ok(m), Ok(cold)) => {
                        assert_eq!(alpha, 2.0, "{alg}");
                        assert_eq!(m.energy.to_bits(), cold.energy.to_bits(), "{alg}");
                        assert_eq!(m.peak_speed.to_bits(), cold.max_speed.to_bits(), "{alg}");
                    }
                    (Err(e), Err(cold)) => {
                        assert_eq!(alpha, 3.0, "{alg}");
                        assert!(matches!(cold, QbssError::NonFiniteCost { .. }), "{alg}: {cold}");
                        assert_eq!(e, &cold.to_string(), "{alg}");
                    }
                    (got, cold) => panic!("{alg} α={alpha}: sweep {got:?}, cold {cold:?}"),
                }
            }
            for alg in &spec.algorithms {
                assert_eq!(rep.group(*alg, 2.0).map(|g| (g.ok, g.errors)), Some((1, 0)));
                assert_eq!(rep.group(*alg, 3.0).map(|g| (g.ok, g.errors)), Some((0, 1)));
            }
        }
    }

    #[test]
    fn explicit_instances_are_supported() {
        let inst = generate(&GenConfig::online_default(5, 7));
        let spec = SweepSpec {
            source: InstanceSource::Explicit(vec![inst]),
            algorithms: vec![Algorithm::Bkpq],
            alphas: vec![3.0],
            opt_fw_iters: 0,
        };
        let rep = run_sweep(&spec, 1).expect("valid spec");
        assert_eq!(rep.records.len(), 1);
        assert!(rep.records[0].result.is_ok());
    }
}
