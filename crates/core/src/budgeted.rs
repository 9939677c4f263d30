//! Per-level privacy-budget allocation for the hierarchical strategy.
//!
//! Instead of one `Lap(ℓ/ε)` draw per node, each tree level gets its own
//! budget `ε_d` with `Σ_d ε_d = ε`: a level is a partition of the domain, so
//! one record changes exactly one count per level and each level's release
//! is `ε_d`-DP; sequential composition gives `ε` overall. Uniform allocation
//! recovers the paper's calibration exactly; non-uniform allocations trade
//! accuracy between coarse and fine ranges, and the engine's GLS tables
//! ([`crate::LevelTree::with_level_variances`]) remain the optimal
//! consistent decoder (now as generalized least squares).
//!
//! A split is released through [`crate::StrategyPipeline`] with
//! [`crate::ReleaseStrategy::Budgeted`]: the pipeline resolves it once into
//! one Laplace and one GLS weight table per level, and every release runs
//! the same fused engine pass as the uniform hierarchy.

use hc_mech::Epsilon;

/// How the total ε is divided among the tree's levels (depth 0 = root).
#[derive(Debug, Clone, PartialEq)]
pub enum BudgetSplit {
    /// Equal ε per level — the paper's calibration (`Lap(ℓ/ε)` per node).
    Uniform,
    /// Budget at depth `d` proportional to `ratio^d`: `ratio > 1` favours
    /// leaves (better small ranges), `ratio < 1` favours the root (better
    /// large ranges).
    Geometric {
        /// Per-level budget growth factor (must be positive and finite).
        ratio: f64,
    },
    /// Explicit relative weights per depth; must match the tree height at
    /// release time and be positive.
    Custom(Vec<f64>),
}

impl BudgetSplit {
    /// Resolves the split into absolute per-level budgets summing to
    /// `total` for a tree of the given height.
    pub fn level_epsilons(&self, total: Epsilon, height: usize) -> Vec<f64> {
        let weights: Vec<f64> = match self {
            BudgetSplit::Uniform => vec![1.0; height],
            BudgetSplit::Geometric { ratio } => {
                assert!(
                    *ratio > 0.0 && ratio.is_finite(),
                    "geometric ratio must be positive"
                );
                (0..height).map(|d| ratio.powi(d as i32)).collect()
            }
            BudgetSplit::Custom(w) => {
                assert_eq!(w.len(), height, "one weight per tree level");
                assert!(
                    w.iter().all(|&x| x > 0.0 && x.is_finite()),
                    "weights must be positive"
                );
                w.clone()
            }
        };
        let sum: f64 = weights.iter().sum();
        weights
            .into_iter()
            .map(|w| total.value() * w / sum)
            .collect()
    }

    /// [`Self::level_epsilons`] without its panics, for validating a split
    /// before it is deployed: `None` unless the split applies to a tree of
    /// this height (a finite, positive geometric ratio; one finite,
    /// positive custom weight per level) *and* resolves to a finite,
    /// positive ε at every level whose noise variance `2/ε²` is finite and
    /// positive too. An extreme ratio fails the second test — `ratio^d`
    /// overflows to ∞ and leaves NaN or zero budgets — and so does an ε
    /// whose square overflows, leaving a zero variance that the GLS tables
    /// cannot weigh.
    pub fn checked_level_epsilons(&self, total: Epsilon, height: usize) -> Option<Vec<f64>> {
        let applies = match self {
            BudgetSplit::Uniform => true,
            BudgetSplit::Geometric { ratio } => *ratio > 0.0 && ratio.is_finite(),
            BudgetSplit::Custom(w) => {
                w.len() == height && w.iter().all(|&x| x > 0.0 && x.is_finite())
            }
        };
        if !applies {
            return None;
        }
        let levels = self.level_epsilons(total, height);
        let usable = |e: f64| {
            let variance = 2.0 / (e * e);
            e.is_finite() && e > 0.0 && variance.is_finite() && variance > 0.0
        };
        levels.iter().all(|&e| usable(e)).then_some(levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LevelTree;
    use crate::hier::ConsistentTree;
    use crate::plan::{ReleaseStrategy, StrategyPipeline};
    use crate::universal::HierarchicalUniversal;
    use hc_data::{Domain, Histogram, Interval};
    use hc_mech::{HierarchicalQuery, QuerySequence, TreeShape};
    use hc_noise::{rng_from_seed, Laplace, NoiseBackend};
    use rand::Rng;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn histogram(n: usize) -> Histogram {
        Histogram::from_counts(
            Domain::new("x", n).unwrap(),
            (0..n).map(|i| (i % 4) as u64).collect(),
        )
    }

    /// A binary budgeted pipeline over `n` bins (Reference noise).
    fn pipeline(total: Epsilon, split: BudgetSplit, n: usize) -> StrategyPipeline {
        let strategy = ReleaseStrategy::Budgeted {
            branching: 2,
            split,
        };
        StrategyPipeline::new(&strategy, total, NoiseBackend::Reference, n)
    }

    /// The staged budgeted release over a binary tree: the evaluated tree
    /// plus each level's `Lap(1/ε_d)`, drawn level by level in BFS order
    /// (the draws the pipeline makes), with the per-level variances
    /// `2/ε_d²` its GLS tables are compiled from.
    fn staged_release<R: Rng>(
        h: &Histogram,
        split: &BudgetSplit,
        total: Epsilon,
        rng: &mut R,
    ) -> (TreeShape, Vec<f64>, Vec<f64>) {
        let query = HierarchicalQuery::binary();
        let shape = query.shape(h.len());
        let level_eps = split.level_epsilons(total, shape.height());
        let mut noisy = Vec::new();
        query.evaluate_into(h, &mut noisy);
        for (d, &e) in level_eps.iter().enumerate() {
            Laplace::centered(1.0 / e)
                .unwrap()
                .add_noise(rng, &mut noisy[shape.level(d)]);
        }
        let variances = level_eps.iter().map(|&e| 2.0 / (e * e)).collect();
        (shape, noisy, variances)
    }

    #[test]
    fn split_resolves_to_total() {
        for split in [
            BudgetSplit::Uniform,
            BudgetSplit::Geometric { ratio: 2.0 },
            BudgetSplit::Custom(vec![1.0, 2.0, 3.0, 4.0]),
        ] {
            let levels = split.level_epsilons(eps(0.8), 4);
            assert_eq!(levels.len(), 4);
            let total: f64 = levels.iter().sum();
            assert!((total - 0.8).abs() < 1e-12, "{split:?}: {total}");
        }
    }

    #[test]
    fn checked_split_is_the_split_or_none() {
        for split in [
            BudgetSplit::Uniform,
            BudgetSplit::Geometric { ratio: 2.0 },
            BudgetSplit::Custom(vec![1.0, 2.0, 3.0, 4.0]),
        ] {
            let checked = split.checked_level_epsilons(eps(0.8), 4).unwrap();
            let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&checked), bits(&split.level_epsilons(eps(0.8), 4)));
        }
        for split in [
            BudgetSplit::Geometric { ratio: f64::NAN },
            BudgetSplit::Geometric { ratio: 0.0 },
            BudgetSplit::Geometric { ratio: 1e300 },
            BudgetSplit::Custom(vec![1.0; 3]),
            BudgetSplit::Custom(vec![1.0, 0.0, 1.0, 1.0]),
        ] {
            assert_eq!(split.checked_level_epsilons(eps(0.8), 4), None, "{split:?}");
        }
        // Every level's ε² overflows: a zero variance.
        assert_eq!(
            BudgetSplit::Uniform.checked_level_epsilons(eps(1e300), 4),
            None
        );
    }

    #[test]
    fn uniform_split_matches_paper_noise_scale() {
        // ε/ℓ per level means Lap(ℓ/ε) per node — the paper's calibration.
        let levels = BudgetSplit::Uniform.level_epsilons(eps(0.5), 5);
        for level_eps in levels {
            assert!((1.0 / level_eps - 10.0).abs() < 1e-9); // scale ℓ/ε = 10
        }
    }

    #[test]
    fn uniform_budgeted_release_statistically_matches_classic() {
        // Same total budget, same estimator family: over many trials the
        // error of the budgeted-uniform pipeline equals the classic one.
        let h = histogram(16);
        let q = Interval::new(2, 13);
        let truth = h.range_count(q) as f64;
        let classic = HierarchicalUniversal::binary(eps(0.5));
        let mut budgeted = pipeline(eps(0.5), BudgetSplit::Uniform, 16);
        let mut rng = rng_from_seed(8);
        let trials = 400;
        let (mut e_classic, mut e_budgeted) = (0.0, 0.0);
        for _ in 0..trials {
            let a = classic.release(&h, &mut rng).infer().range_query(q);
            let b = budgeted.release(&h, &mut rng).answer(q);
            e_classic += (a - truth) * (a - truth);
            e_budgeted += (b - truth) * (b - truth);
        }
        let ratio = e_budgeted / e_classic;
        assert!((0.7..1.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn engine_inference_matches_weighted_reference() {
        // The GLS engine (per-level tables) must agree bit for bit with the
        // per-node weighted oracle it replaced, and the pipeline's release
        // must serve exactly that inference.
        let h = histogram(32);
        for (split, seed) in [
            (BudgetSplit::Uniform, 12u64),
            (BudgetSplit::Geometric { ratio: 1.7 }, 13),
            (BudgetSplit::Custom(vec![3.0, 1.0, 2.0, 1.0, 1.0, 4.0]), 14),
        ] {
            let (shape, noisy, variances) =
                staged_release(&h, &split, eps(0.4), &mut rng_from_seed(seed));
            let mut per_node = vec![0.0f64; shape.nodes()];
            for (d, &var) in variances.iter().enumerate() {
                per_node[shape.level(d)].fill(var);
            }
            let reference =
                hc_testutil::oracle::weighted_hierarchical_inference(&shape, &noisy, &per_node);
            let inferred = LevelTree::with_level_variances(&shape, &variances).infer(&noisy);
            assert_eq!(inferred, reference);
            let served = pipeline(eps(0.4), split, 32).release(&h, &mut rng_from_seed(seed));
            assert_eq!(
                served,
                crate::ConsistentSnapshot::from_tree_values(&shape, &reference, 32)
            );
        }
    }

    #[test]
    fn release_into_and_infer_with_match_the_owned_paths() {
        // A warm pipeline re-releasing into a used snapshot serves what a
        // fresh release does; the staged engine inferring into a used
        // buffer matches its allocating form.
        let h = histogram(32);
        let split = BudgetSplit::Geometric { ratio: 1.3 };
        let mut warm = pipeline(eps(0.4), split.clone(), 32);
        let mut reused = warm.release(&h, &mut rng_from_seed(20));
        let mut reused_tree = Vec::new();
        for seed in [21u64, 22, 23] {
            let owned = pipeline(eps(0.4), split.clone(), 32).release(&h, &mut rng_from_seed(seed));
            warm.release_into(&h, &mut rng_from_seed(seed), &mut reused);
            assert_eq!(reused, owned);
            let (shape, noisy, variances) =
                staged_release(&h, &split, eps(0.4), &mut rng_from_seed(seed));
            let tree = LevelTree::with_level_variances(&shape, &variances);
            tree.infer_into(&noisy, &mut Vec::new(), &mut reused_tree);
            assert_eq!(reused_tree, tree.infer(&noisy));
        }
    }

    #[test]
    fn inference_output_is_consistent() {
        let h = histogram(32);
        let split = BudgetSplit::Geometric { ratio: 1.5 };
        let (shape, noisy, variances) = staged_release(&h, &split, eps(0.3), &mut rng_from_seed(9));
        let inferred = LevelTree::with_level_variances(&shape, &variances).infer(&noisy);
        let tree = ConsistentTree::new(shape, inferred, 32);
        assert!(tree.max_consistency_violation() < 1e-9);
    }

    #[test]
    fn leaf_heavy_split_improves_unit_ranges() {
        // Shifting budget toward the leaves must reduce unit-range error
        // relative to a root-heavy split at equal total ε.
        let h = histogram(64);
        let mut rng = rng_from_seed(10);
        let trials = 300;
        let measure = |ratio: f64, rng: &mut rand::rngs::StdRng| {
            let mut pipeline = pipeline(eps(0.2), BudgetSplit::Geometric { ratio }, 64);
            let mut err = 0.0;
            for _ in 0..trials {
                let snapshot = pipeline.release(&h, rng);
                for i in (0..64).step_by(16) {
                    let q = Interval::new(i, i);
                    let truth = h.range_count(q) as f64;
                    err += (snapshot.answer(q) - truth).powi(2);
                }
            }
            err
        };
        let leaf_heavy = measure(2.0, &mut rng);
        let root_heavy = measure(0.5, &mut rng);
        assert!(
            leaf_heavy < root_heavy,
            "leaf-heavy {leaf_heavy} vs root-heavy {root_heavy}"
        );
    }

    #[test]
    #[should_panic(expected = "one weight per tree level")]
    fn custom_split_length_is_checked() {
        // 16 bins: height 5.
        let _ = pipeline(eps(0.1), BudgetSplit::Custom(vec![1.0; 3]), 16);
    }
}
