//! Accuracy-first planning: invert an (α, max-error) target into a ranked
//! strategy ladder, execute the winning plan end-to-end, and check the
//! measured error against the guaranteed α-width — for both noise backends.
//!
//! This is the demo for the `hc_core::accuracy` front door: the README's
//! worked example (α = 0.05, max error 50) is this experiment's full-size
//! configuration.

use hc_core::{AccuracyTarget, BudgetSplit, ReleaseStrategy, StrategyPlanner};
use hc_data::{Domain, Histogram, RangeWorkload};
use hc_noise::{NoiseBackend, SeedStream};
use rand::Rng;

use crate::stats::mean;
use crate::table::{sci, Table};
use crate::RunConfig;

/// One ranked plan, flattened for reporting.
#[derive(Debug, Clone)]
pub struct PlanRow {
    /// Human-readable strategy label.
    pub label: String,
    /// The solved minimal ε meeting the target.
    pub epsilon: f64,
    /// The plan's predicted α-confidence error at that ε.
    pub predicted_width: f64,
    /// The plan's predicted per-query mean squared error at that ε.
    pub mean_squared: f64,
}

/// Measured execution of the winning plan under one noise backend.
#[derive(Debug, Clone)]
pub struct ExecPoint {
    /// Backend label (`reference` / `fast-ln-wide`).
    pub backend: &'static str,
    /// Mean absolute range error across trials × queries.
    pub mean_abs: f64,
    /// Worst absolute range error observed.
    pub worst_abs: f64,
    /// Share of answers exceeding the plan's guaranteed α-width (must stay
    /// near or below α).
    pub over_share: f64,
}

/// The full report: the target, the ranked ladder, and the measured runs.
#[derive(Debug, Clone)]
pub struct PlannerReport {
    /// Domain size the target was planned over.
    pub domain_size: usize,
    /// The guaranteed α-width of the winning plan.
    pub bound: f64,
    /// Winning strategy label.
    pub winner: String,
    /// Solved ε of the winning plan.
    pub winner_epsilon: f64,
    /// Ranked plans, cheapest ε first.
    pub plans: Vec<PlanRow>,
    /// Winning plan executed under each backend.
    pub execution: Vec<ExecPoint>,
}

fn strategy_label(strategy: &ReleaseStrategy) -> String {
    match strategy {
        ReleaseStrategy::Flat => "flat (L̃)".to_string(),
        ReleaseStrategy::Hierarchical { branching } => {
            format!("hierarchical (H̄, k = {branching})")
        }
        ReleaseStrategy::Budgeted { branching, split } => match split {
            BudgetSplit::Uniform => format!("budgeted uniform (k = {branching})"),
            BudgetSplit::Geometric { ratio } => {
                format!("budgeted geometric (ratio {ratio:.2})")
            }
            BudgetSplit::Custom(_) => format!("budgeted custom (k = {branching})"),
        },
    }
}

/// Plans and executes the README worked example: α = 0.05, max error 50,
/// short and long ranges over a 2²⁰-bin domain (2¹⁰ in `--quick`).
pub fn compute(cfg: RunConfig) -> PlannerReport {
    let seeds = SeedStream::new(cfg.seed);
    let n: usize = if cfg.quick { 1 << 10 } else { 1 << 20 };
    let domain = Domain::new("accuracy-planner", n).expect("non-empty domain");
    let mut data_rng = seeds.substream(0).rng(0);
    let counts: Vec<u64> = (0..n).map(|_| data_rng.random_range(0..100u64)).collect();
    let histogram = Histogram::from_counts(domain, counts);

    let workload = vec![RangeWorkload::new(n, 16), RangeWorkload::new(n, n / 16)];
    let target = AccuracyTarget::new(0.05, 50.0).with_workload(workload.clone());
    let ranked = StrategyPlanner::for_domain(n).plan_ranked(&target);
    let plans: Vec<PlanRow> = ranked
        .iter()
        .map(|p| PlanRow {
            label: strategy_label(&p.choice),
            epsilon: p.epsilon,
            predicted_width: p
                .guarantee
                .expect("accuracy plans carry a guarantee")
                .predicted,
            mean_squared: p.predicted_error,
        })
        .collect();

    let winner = &ranked[0];
    let bound = winner
        .guarantee
        .expect("accuracy plans carry a guarantee")
        .predicted;
    let queries = if cfg.quick { 64 } else { 512 };
    let truth = hc_core::ConsistentSnapshot::from_histogram(&histogram);

    let mut execution = Vec::new();
    for (b_idx, (backend, name)) in [
        (NoiseBackend::Reference, "reference"),
        (NoiseBackend::FastLnWide, "fast-ln-wide"),
    ]
    .into_iter()
    .enumerate()
    {
        let per_trial = crate::runner::run_trials(
            cfg.trials,
            seeds.substream(10 + b_idx as u64),
            |_t, mut rng| {
                let snapshot = winner.run_with(&histogram, backend, &mut rng);
                let mut abs_errs = Vec::with_capacity(queries * workload.len());
                for w in &workload {
                    for _ in 0..queries {
                        let q = w.sample(&mut rng);
                        abs_errs.push((snapshot.answer(q) - truth.answer(q)).abs());
                    }
                }
                abs_errs
            },
        );
        let all: Vec<f64> = per_trial.into_iter().flatten().collect();
        let worst = all.iter().fold(0.0f64, |acc, &e| acc.max(e));
        let over = all.iter().filter(|&&e| e > bound).count();
        execution.push(ExecPoint {
            backend: name,
            mean_abs: mean(&all),
            worst_abs: worst,
            // `--trials 0` serves no queries; report 0 like the other
            // columns rather than 0/0.
            over_share: if all.is_empty() {
                0.0
            } else {
                over as f64 / all.len() as f64
            },
        });
    }

    PlannerReport {
        domain_size: n,
        bound,
        winner: strategy_label(&winner.choice),
        winner_epsilon: winner.epsilon,
        plans,
        execution,
    }
}

/// Renders the accuracy-first planning report.
pub fn run(cfg: RunConfig) -> String {
    let report = compute(cfg);
    let mut t = Table::new(
        format!(
            "Accuracy-first planning: α = 0.05, max error 50, n = {} (ranked by solved ε)",
            report.domain_size
        ),
        &["strategy", "solved ε", "predicted α-width", "predicted MSE"],
    );
    for p in &report.plans {
        t.row(vec![
            p.label.clone(),
            sci(p.epsilon),
            sci(p.predicted_width),
            sci(p.mean_squared),
        ]);
    }
    let mut out = t.render();

    let mut e = Table::new(
        format!(
            "Winning plan executed: {} at ε = {} (guaranteed α-width {})",
            report.winner,
            sci(report.winner_epsilon),
            sci(report.bound)
        ),
        &["backend", "mean |err|", "worst |err|", "share > bound"],
    );
    for x in &report.execution {
        e.row(vec![
            x.backend.to_string(),
            sci(x.mean_abs),
            sci(x.worst_abs),
            format!("{:.4}", x.over_share),
        ]);
    }
    out.push('\n');
    out.push_str(&e.render());
    out.push_str(
        "\nClaim: inverting the α-width closed forms yields the minimal ε per strategy; \
         the cheapest plan's measured error respects its guarantee (the share of \
         answers beyond the α-width stays at or below α = 0.05) under both noise \
         backends, and the ladder prices every candidate at its own solved ε so the \
         ranking is budget-for-budget fair.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn winning_plan_honours_its_guarantee_in_quick_mode() {
        let report = compute(RunConfig::quick());
        assert!(!report.plans.is_empty());
        // Ranked output is sorted by solved ε.
        for pair in report.plans.windows(2) {
            assert!(pair[0].epsilon <= pair[1].epsilon * (1.0 + 1e-12));
        }
        // Every plan's prediction meets the target.
        for p in &report.plans {
            assert!(
                p.predicted_width <= 50.0 * (1.0 + 1e-9),
                "{} predicts {} > 50",
                p.label,
                p.predicted_width
            );
        }
        // The α-guarantee holds empirically: at most an α share of answers
        // (plus sampling slack for 5 quick trials) exceeds the bound.
        for x in &report.execution {
            assert!(x.mean_abs.is_finite() && x.worst_abs.is_finite());
            assert!(
                x.over_share <= 0.05 + 0.05,
                "backend {} exceeded the bound on {} of answers",
                x.backend,
                x.over_share
            );
        }
    }
}
