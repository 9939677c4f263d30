//! Ablation: per-level privacy-budget allocation for the hierarchy, decoded
//! by generalized (weighted) constrained inference — a follow-up
//! optimization the paper's framework directly enables.

use hc_core::{BudgetSplit, ReleaseStrategy, StrategyPipeline};
use hc_data::RangeWorkload;
use hc_mech::Epsilon;
use hc_noise::{NoiseBackend, SeedStream};

use crate::datasets::{build, DatasetId};
use crate::stats::mean;
use crate::table::{sci, Table};
use crate::RunConfig;

/// Measured error for one allocation at one range size.
#[derive(Debug, Clone, Copy)]
pub struct BudgetPoint {
    /// Geometric growth factor of the allocation (1.0 = paper's uniform).
    pub ratio: f64,
    /// Range size.
    pub size: usize,
    /// Mean squared error of the GLS-inferred estimate.
    pub inferred: f64,
}

/// Sweeps allocation ratios × range sizes on the Search Logs series.
pub fn compute(cfg: RunConfig) -> Vec<BudgetPoint> {
    let seeds = SeedStream::new(cfg.seed);
    let histogram = build(DatasetId::SearchLogsSeries, cfg.quick, seeds);
    let n = histogram.len();
    let eps = Epsilon::new(0.1).expect("valid ε");
    let sizes: Vec<usize> = [4usize, 64, 1024, n / 4]
        .into_iter()
        .filter(|&s| s >= 1 && s <= n)
        .collect();
    let queries = if cfg.quick { 50 } else { 400 };

    let mut out = Vec::new();
    for (r_idx, ratio) in [0.5f64, 1.0, 1.5, 2.0].into_iter().enumerate() {
        let split = if (ratio - 1.0).abs() < 1e-12 {
            BudgetSplit::Uniform
        } else {
            BudgetSplit::Geometric { ratio }
        };
        let strategy = ReleaseStrategy::Budgeted {
            branching: 2,
            split,
        };
        let per_trial = crate::runner::run_trials_with(
            cfg.trials,
            seeds.substream(20 + r_idx as u64),
            || StrategyPipeline::new(&strategy, eps, NoiseBackend::Reference, n),
            |_t, mut rng, pipeline| {
                let snapshot = pipeline.release(&histogram, &mut rng);
                sizes
                    .iter()
                    .map(|&size| {
                        let workload = RangeWorkload::new(n, size);
                        let mut err = 0.0;
                        for _ in 0..queries {
                            let q = workload.sample(&mut rng);
                            let truth = histogram.range_count(q) as f64;
                            err += (snapshot.answer(q) - truth).powi(2);
                        }
                        err / queries as f64
                    })
                    .collect::<Vec<f64>>()
            },
        );
        for (s_idx, &size) in sizes.iter().enumerate() {
            let errs: Vec<f64> = per_trial.iter().map(|t| t[s_idx]).collect();
            out.push(BudgetPoint {
                ratio,
                size,
                inferred: mean(&errs),
            });
        }
    }
    out
}

/// Renders the budget-allocation ablation.
pub fn run(cfg: RunConfig) -> String {
    let points = compute(cfg);
    let mut t = Table::new(
        "Ablation: per-level budget allocation + weighted inference (Search Logs, ε = 0.1)",
        &["allocation ratio", "range size", "error(H̄ weighted)"],
    );
    for p in &points {
        t.row(vec![
            if (p.ratio - 1.0).abs() < 1e-12 {
                "1.0 (uniform, paper)".to_string()
            } else {
                format!("{:.1}", p.ratio)
            },
            format!("{}", p.size),
            sci(p.inferred),
        ]);
    }
    let mut out = t.render();
    out.push_str(
        "\nClaim: the constrained-inference framework extends beyond the paper's uniform \
         calibration — per-level budgets with GLS decoding (verified against hc-linalg's \
         weighted least squares) shift accuracy between small and large ranges; \
         leaf-heavy allocations (ratio > 1) favour small ranges and vice versa.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_shifts_the_error_profile() {
        let points = compute(RunConfig::quick());
        let smallest = points.iter().map(|p| p.size).min().unwrap();
        let at = |ratio: f64, size: usize| {
            points
                .iter()
                .find(|p| (p.ratio - ratio).abs() < 1e-9 && p.size == size)
                .unwrap()
                .inferred
        };
        // Leaf-heavy must beat root-heavy on the smallest ranges.
        assert!(
            at(2.0, smallest) < at(0.5, smallest),
            "leaf-heavy {} vs root-heavy {} at size {}",
            at(2.0, smallest),
            at(0.5, smallest),
            smallest
        );
        assert!(points.iter().all(|p| p.inferred.is_finite()));
    }
}
