//! Extending the library: plug your own query policy into the online
//! engine.
//!
//! The paper's algorithms commit to a fixed rule (always / golden
//! ratio). Downstream users often have side information — say, a
//! per-job *predicted* compressibility from a cheap model. This example
//! implements a prediction-guided policy against the
//! `qbss_core::OnlinePolicy` trait, runs it through `StreamingSolver` —
//! the engine behind AVRQ, BKPQ and OAQ, which hands a policy only each
//! job's visible part — and compares it with the paper's rules. (With
//! perfect predictions it approaches the clairvoyant query decisions;
//! with adversarial predictions it degrades gracefully to the
//! upper-bound workloads it actually executes.)
//!
//! Run with: `cargo run --release -p qbss-cli --example custom_policy`

use qbss_core::model::{QbssInstance, VisibleJob};
use qbss_core::stream::arrival_ordered;
use qbss_core::{Algorithm, OnlinePolicy, QbssOutcome, Strategy, StreamingSolver};
use qbss_instances::gen::{generate, Compressibility, GenConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Queries iff the predicted executed load `c + ŵ*` beats `w`, where
/// `ŵ*` is an external prediction (here: the true `w*` perturbed by
/// noise — the classic "algorithms with predictions" setup).
struct PredictionPolicy {
    /// Predicted exact load per job id.
    predictions: Vec<(u32, f64)>,
}

impl OnlinePolicy for PredictionPolicy {
    fn decide(&mut self, job: &VisibleJob) -> Option<f64> {
        let predicted = self
            .predictions
            .iter()
            .find(|(id, _)| *id == job.id)
            .map(|(_, p)| *p)
            .unwrap_or(job.upper_bound);
        (job.query_load + predicted < job.upper_bound).then_some(0.5 * (job.release + job.deadline))
    }
}

/// Feeds `inst` through `solver` in arrival order and finishes the run.
fn run(mut solver: StreamingSolver, inst: &QbssInstance) -> QbssOutcome {
    for job in arrival_ordered(inst) {
        solver.on_arrival(job).expect("in-order arrival");
    }
    solver.finish().expect("outcome")
}

fn main() {
    let alpha = 3.0;
    let inst: QbssInstance = generate(&GenConfig {
        compress: Compressibility::Bimodal { p_compressible: 0.5 },
        ..GenConfig::online_default(40, 77)
    });

    println!("Prediction-guided queries vs the paper's fixed rules (AVR substrate, alpha = 3)\n");
    println!("{:<28} {:>10} {:>12}", "policy", "queries", "energy");

    let report = |name: &str, outcome: &QbssOutcome| {
        let queries = outcome.decisions.iter().filter(|d| d.queried).count();
        println!("{name:<28} {queries:>7}/40 {:>12.2}", outcome.energy(alpha));
    };

    // Paper rules through the same engine.
    for (name, strategy) in [
        ("always query (AVRQ)", Strategy::always_equal()),
        ("golden ratio", Strategy::golden_equal()),
    ] {
        let solver = StreamingSolver::with_strategy(Algorithm::Avrq, strategy)
            .expect("the paper's rules run online");
        report(name, &run(solver, &inst));
    }

    // Prediction-guided, with increasing noise.
    let mut rng = StdRng::seed_from_u64(1);
    for noise in [0.0, 0.25, 1.0] {
        let predictions: Vec<(u32, f64)> = inst
            .jobs
            .iter()
            .map(|j| {
                let eps: f64 = rng.gen_range(-noise..=noise);
                (j.id, (j.reveal_exact() * (1.0 + eps)).max(0.0))
            })
            .collect();
        let policy = Box::new(PredictionPolicy { predictions });
        let solver = StreamingSolver::new(Algorithm::Avrq, policy).expect("AVRQ streams");
        report(&format!("predictions (noise ±{noise})"), &run(solver, &inst));
    }

    println!("\nNotes:");
    println!("  * a policy sees only each job's visible part and w* arrives at the split,");
    println!("    so even this custom policy cannot peek — predictions enter from the outside;");
    println!("  * with exact predictions the policy queries exactly when the clairvoyant");
    println!("    optimum would; noise degrades it toward the fixed rules;");
    println!("  * the golden-ratio rule needs no predictions at all and is minimax-optimal");
    println!("    among thresholds (exp_ablation_threshold).");
}
