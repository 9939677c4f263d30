//! # hist-consistency
//!
//! A from-scratch Rust implementation of
//! **Hay, Rastogi, Miklau & Suciu, "Boosting the Accuracy of Differentially
//! Private Histograms Through Consistency" (VLDB 2010)**: constrained
//! inference that post-processes Laplace-mechanism releases onto their
//! consistency constraints, often reducing error by an order of magnitude at
//! zero privacy cost.
//!
//! Two histogram tasks are supported end to end:
//!
//! * **Unattributed histograms** (Sec. 3) — release the *sorted* counts, then
//!   project onto ordered sequences with linear-time isotonic regression
//!   (Theorem 1). Ideal for degree sequences and frequency distributions.
//! * **Universal histograms** (Sec. 4) — release a k-ary tree of interval
//!   counts, then project onto the parent-equals-sum-of-children polytope in
//!   two linear passes (Theorem 3); answer *arbitrary* range queries from the
//!   result, optimally among linear unbiased estimators (Theorem 4).
//!
//! ## Quickstart
//!
//! ```
//! use hist_consistency::prelude::*;
//!
//! // A private histogram: the paper's Fig. 2 example trace.
//! let domain = Domain::new("src", 4)?;
//! let histogram = Histogram::from_counts(domain, vec![2, 0, 10, 2]);
//! let mut rng = rng_from_seed(42);
//!
//! // Unattributed task: how many hosts have each connection count?
//! let task = UnattributedHistogram::new(Epsilon::new(1.0)?);
//! let release = task.release(&histogram, &mut rng); // ε-DP happens here
//! let degrees = release.inferred();                 // post-processing only
//! assert!(degrees.windows(2).all(|w| w[0] <= w[1])); // consistent: sorted
//!
//! // Universal task: answer any range count from one release.
//! let pipeline = HierarchicalUniversal::binary(Epsilon::new(1.0)?);
//! let tree = pipeline.release(&histogram, &mut rng).infer();
//! let all = tree.range_query(Interval::new(0, 3));
//! let left_half = tree.range_query(Interval::new(0, 1));
//! let right_half = tree.range_query(Interval::new(2, 3));
//! assert!((all - (left_half + right_half)).abs() < 1e-9); // consistent
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`noise`] | Laplace / geometric / Zipf / Poisson sampling, seed streams |
//! | [`linalg`] | dense + sparse linear algebra used to *verify* the closed forms |
//! | [`data`] | domains, relations, histograms, graphs, synthetic datasets |
//! | [`mech`] | ε budgets, the (ε, δ) [`mech::PrivacyAccountant`], query sequences `L`/`S`/`H`, sensitivity, Laplace mechanism |
//! | [`infer`] | **the paper's contribution**: isotonic + hierarchical inference, estimators, and the accuracy-first planner ([`infer::AccuracyTarget`] → ranked [`infer::StrategyPlan`]s) |
//! | [`serve`] | long-lived multi-tenant service: epoch-swapped snapshots, accountant-backed ledgers, accuracy-planned registration |
//! | [`ext`] | wavelet mechanism, Blum et al. baseline, 2-D quadtrees, graphical repair, matrix mechanism |
//!
//! Experiments reproducing every table and figure live in the `hc-bench`
//! crate (see `EXPERIMENTS.md`); runnable scenarios live in `examples/`.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub use hc_core as infer;
pub use hc_data as data;
pub use hc_ext as ext;
pub use hc_linalg as linalg;
pub use hc_mech as mech;
pub use hc_noise as noise;
pub use hc_serve as serve;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use hc_core::{
        effective_threads, isotonic_regression, mean_absolute_error, sum_squared_error,
        AccuracyTarget, BatchInference, BudgetSplit, ConsistentSnapshot, ConsistentTree,
        FlatUniversal, Guarantee, HierarchicalUniversal, LevelTree, PlanInput, ReleaseStrategy,
        RoundedTree, Rounding, SortedRelease, StrategyPipeline, StrategyPlan, StrategyPlanner,
        SubtreeServer, TreeRelease, UnattributedHistogram,
    };
    pub use hc_data::{Domain, Graph, Histogram, Interval, RangeWorkload, Relation};
    pub use hc_mech::{
        Epsilon, HierarchicalQuery, LaplaceMechanism, LedgerEntry, PreparedMechanism,
        PrivacyAccountant, PrivacyBudget, QuerySequence, SortedQuery, TreeShape, UnitQuery,
    };
    pub use hc_noise::{rng_from_seed, Laplace, NoiseBackend, SeedStream};
    pub use hc_serve::{HistogramService, RangeQuery, TenantConfig};
}

#[cfg(test)]
mod facade_tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_the_full_pipeline() {
        let domain = Domain::new("x", 8).unwrap();
        let histogram = Histogram::from_counts(domain, vec![1, 2, 3, 4, 0, 0, 0, 5]);
        let mut rng = rng_from_seed(1);
        let release =
            HierarchicalUniversal::binary(Epsilon::new(0.5).unwrap()).release(&histogram, &mut rng);
        let tree = release.infer();
        assert!(tree.max_consistency_violation() < 1e-9);
    }
}
