//! Per-level privacy-budget allocation for the hierarchical strategy.
//!
//! Instead of one `Lap(ℓ/ε)` draw per node, each tree level gets its own
//! budget `ε_d` with `Σ_d ε_d = ε`: a level is a partition of the domain, so
//! one record changes exactly one count per level and each level's release
//! is `ε_d`-DP; sequential composition gives `ε` overall. Uniform allocation
//! recovers the paper's calibration exactly; non-uniform allocations trade
//! accuracy between coarse and fine ranges, and
//! [`crate::weighted::weighted_hierarchical_inference`] remains the optimal
//! consistent decoder (now as generalized least squares).

use hc_data::{Histogram, Interval};
use hc_mech::{Epsilon, HierarchicalQuery, QuerySequence, TreeShape};
use hc_noise::Laplace;
use rand::Rng;

use crate::engine::{BatchInference, LevelTree};
use crate::hier::ConsistentTree;
use crate::snapshot::SubtreeServer;

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
    /// positive ε at every level whose noise variance `2/ε²` is finite
    /// too. An extreme ratio fails the second test — `ratio^d` overflows
    /// to ∞ and leaves NaN or zero budgets.
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
        levels
            .iter()
            .all(|&e| e.is_finite() && e > 0.0 && (2.0 / (e * e)).is_finite())
            .then_some(levels)
    }
}

/// The hierarchical pipeline with a configurable per-level budget split.
#[derive(Debug, Clone)]
pub struct BudgetedHierarchical {
    epsilon: Epsilon,
    branching: usize,
    split: BudgetSplit,
    backend: hc_noise::NoiseBackend,
}

impl BudgetedHierarchical {
    /// A binary hierarchy with the given total budget and split.
    pub fn binary(epsilon: Epsilon, split: BudgetSplit) -> Self {
        Self::new(epsilon, 2, split)
    }

    /// A k-ary hierarchy with the given total budget and split.
    pub fn new(epsilon: Epsilon, branching: usize, split: BudgetSplit) -> Self {
        assert!(branching >= 2, "branching factor must be at least 2");
        Self {
            epsilon,
            branching,
            split,
            backend: hc_noise::NoiseBackend::Reference,
        }
    }

    /// The same pipeline sampling through `backend` (see
    /// [`hc_noise::NoiseBackend`]; the per-level draw order is unchanged).
    pub fn with_backend(self, backend: hc_noise::NoiseBackend) -> Self {
        Self { backend, ..self }
    }

    /// The configured sampling backend.
    pub fn backend(&self) -> hc_noise::NoiseBackend {
        self.backend
    }

    /// The total ε (what sequential composition certifies).
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// Releases the tree with per-level noise scales.
    pub fn release<R: Rng + ?Sized>(
        &self,
        histogram: &Histogram,
        rng: &mut R,
    ) -> BudgetedTreeRelease {
        let mut out = self.empty_release(histogram.len());
        self.release_into(histogram, rng, &mut out);
        out
    }

    /// An unreleased [`BudgetedTreeRelease`] over `domain_size` bins with
    /// empty buffers — the slot [`Self::release_into`] fills.
    pub(crate) fn empty_release(&self, domain_size: usize) -> BudgetedTreeRelease {
        BudgetedTreeRelease {
            server: SubtreeServer::new(&HierarchicalQuery::new(self.branching).shape(domain_size)),
            domain_size,
            noisy: Vec::new(),
            level_variances: Vec::new(),
            epsilon: self.epsilon,
        }
    }

    /// Re-releases into an existing [`BudgetedTreeRelease`], reusing its
    /// O(nodes) buffers (only the O(height) per-level budget table is
    /// rebuilt) — bit-identical to [`Self::release`] at the same RNG state.
    pub fn release_into<R: Rng + ?Sized>(
        &self,
        histogram: &Histogram,
        rng: &mut R,
        out: &mut BudgetedTreeRelease,
    ) {
        let query = HierarchicalQuery::new(self.branching);
        let shape = query.shape(histogram.len());
        let level_eps = self.split.level_epsilons(self.epsilon, shape.height());
        out.level_variances.clear();
        out.level_variances
            .extend(level_eps.iter().map(|&e| 2.0 / (e * e)));

        query.evaluate_into(histogram, &mut out.noisy);
        for (depth, &eps_d) in level_eps.iter().enumerate() {
            // One distribution per level, constructed once per release —
            // each level's scale really does differ, so this is the hoisted
            // form (the per-node construction would be height× the work).
            let noise = Laplace::centered(1.0 / eps_d).expect("positive scale");
            noise.add_noise_with(self.backend, rng, &mut out.noisy[shape.level(depth)]);
        }
        out.server.ensure_shape(shape);
        out.domain_size = histogram.len();
        out.epsilon = self.epsilon;
    }
}

/// A hierarchical release with heteroscedastic noise and its GLS decoder.
#[derive(Debug, Clone)]
pub struct BudgetedTreeRelease {
    /// The decomposition server, compiled once per shape.
    server: SubtreeServer,
    domain_size: usize,
    noisy: Vec<f64>,
    /// One noise variance per tree level — the single source of truth the
    /// GLS engine compiles its weight tables from; the per-node view is
    /// derived on demand.
    level_variances: Vec<f64>,
    epsilon: Epsilon,
}

impl BudgetedTreeRelease {
    /// The total ε of the release.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// The tree geometry.
    pub fn shape(&self) -> &TreeShape {
        self.server.shape()
    }

    /// The raw noisy node values (BFS order).
    pub fn noisy_values(&self) -> &[f64] {
        &self.noisy
    }

    /// The per-node noise variances of the release, expanded on demand from
    /// [`Self::level_variances`] (each node carries its level's variance).
    pub fn variances(&self) -> Vec<f64> {
        let mut out = vec![0.0f64; self.server.shape().nodes()];
        for (d, &var) in self.level_variances.iter().enumerate() {
            for v in self.server.shape().level(d) {
                out[v] = var;
            }
        }
        out
    }

    /// The per-level noise variances (depth 0 = root).
    pub fn level_variances(&self) -> &[f64] {
        &self.level_variances
    }

    /// Raw subtree-sum range query (the `H̃` analogue), folded in place
    /// through [`crate::snapshot::SubtreeServer`] — bit-identical to
    /// materializing the decomposition, no per-query allocation.
    pub fn range_query_subtree(&self, interval: Interval) -> f64 {
        assert!(
            interval.hi() < self.domain_size,
            "query {interval} outside domain of size {}",
            self.domain_size
        );
        self.server
            .answer(&self.noisy, crate::universal::Rounding::None, interval)
    }

    /// GLS constrained inference (the `H̄` analogue, weighted).
    ///
    /// Runs through the level-indexed engine with per-level GLS weight
    /// tables — bit-identical to
    /// [`crate::weighted::weighted_hierarchical_inference`] over the
    /// per-node expansion of the level variances, which the test suite pins.
    pub fn infer(&self) -> ConsistentTree {
        let engine = LevelTree::with_level_variances(self.server.shape(), &self.level_variances);
        ConsistentTree::new(
            self.server.shape().clone(),
            engine.infer(&self.noisy),
            self.domain_size,
        )
    }

    /// [`Self::infer`] through a caller-owned [`BatchInference`]: the GLS
    /// tables are recompiled only when the shape or the per-level variances
    /// change ([`BatchInference::ensure_level_variances`]), and the passes
    /// run in place in the result, so repeated budgeted trials allocate
    /// only results.
    pub fn infer_with(&self, engine: &mut BatchInference) -> ConsistentTree {
        engine.ensure_level_variances(self.server.shape(), &self.level_variances);
        let h = engine.infer(&self.noisy);
        ConsistentTree::new(self.server.shape().clone(), h, self.domain_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universal::HierarchicalUniversal;
    use hc_data::Domain;
    use hc_noise::rng_from_seed;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn histogram(n: usize) -> Histogram {
        Histogram::from_counts(
            Domain::new("x", n).unwrap(),
            (0..n).map(|i| (i % 4) as u64).collect(),
        )
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
        let budgeted = BudgetedHierarchical::binary(eps(0.5), BudgetSplit::Uniform);
        let mut rng = rng_from_seed(8);
        let trials = 400;
        let (mut e_classic, mut e_budgeted) = (0.0, 0.0);
        for _ in 0..trials {
            let a = classic.release(&h, &mut rng).infer().range_query(q);
            let b = budgeted.release(&h, &mut rng).infer().range_query(q);
            e_classic += (a - truth) * (a - truth);
            e_budgeted += (b - truth) * (b - truth);
        }
        let ratio = e_budgeted / e_classic;
        assert!((0.7..1.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn engine_inference_matches_weighted_reference() {
        // The release's GLS engine (per-level tables) must agree bit for bit
        // with the per-node weighted oracle it replaced.
        let h = histogram(32);
        for (split, seed) in [
            (BudgetSplit::Uniform, 12u64),
            (BudgetSplit::Geometric { ratio: 1.7 }, 13),
            (BudgetSplit::Custom(vec![3.0, 1.0, 2.0, 1.0, 1.0, 4.0]), 14),
        ] {
            let pipeline = BudgetedHierarchical::binary(eps(0.4), split);
            let mut rng = rng_from_seed(seed);
            let rel = pipeline.release(&h, &mut rng);
            let reference = crate::weighted::weighted_hierarchical_inference(
                rel.shape(),
                rel.noisy_values(),
                &rel.variances(),
            );
            assert_eq!(rel.infer().node_values(), &reference[..]);
        }
    }

    #[test]
    fn release_into_and_infer_with_match_the_owned_paths() {
        let h = histogram(32);
        let pipeline =
            BudgetedHierarchical::binary(eps(0.4), BudgetSplit::Geometric { ratio: 1.3 });
        let mut engine = BatchInference::for_shape(&TreeShape::for_domain(32, 2));
        let mut reused = pipeline.release(&h, &mut rng_from_seed(20));
        for seed in [21u64, 22, 23] {
            let owned = pipeline.release(&h, &mut rng_from_seed(seed));
            pipeline.release_into(&h, &mut rng_from_seed(seed), &mut reused);
            assert_eq!(reused.noisy_values(), owned.noisy_values());
            assert_eq!(reused.level_variances(), owned.level_variances());
            assert_eq!(
                reused.infer_with(&mut engine).node_values(),
                owned.infer().node_values()
            );
        }
    }

    #[test]
    fn inference_output_is_consistent() {
        let h = histogram(32);
        let pipeline =
            BudgetedHierarchical::binary(eps(0.3), BudgetSplit::Geometric { ratio: 1.5 });
        let mut rng = rng_from_seed(9);
        let tree = pipeline.release(&h, &mut rng).infer();
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
            let pipeline = BudgetedHierarchical::binary(eps(0.2), BudgetSplit::Geometric { ratio });
            let mut err = 0.0;
            for _ in 0..trials {
                let tree = pipeline.release(&h, rng).infer();
                for i in (0..64).step_by(16) {
                    let q = Interval::new(i, i);
                    let truth = h.range_count(q) as f64;
                    err += (tree.range_query(q) - truth).powi(2);
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
        let h = histogram(16); // height 5
        let pipeline = BudgetedHierarchical::binary(eps(0.1), BudgetSplit::Custom(vec![1.0; 3]));
        let mut rng = rng_from_seed(11);
        let _ = pipeline.release(&h, &mut rng);
    }
}
