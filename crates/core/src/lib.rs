//! Constrained inference for differentially private histograms — the core of
//! the reproduction of Hay, Rastogi, Miklau & Suciu, *"Boosting the Accuracy
//! of Differentially Private Histograms Through Consistency"* (VLDB 2010).
//!
//! The paper's pipeline has three steps (Fig. 1):
//!
//! 1. the analyst picks a query sequence with known constraints
//!    (`hc-mech`: [`hc_mech::SortedQuery`] with ordering constraints, or
//!    [`hc_mech::HierarchicalQuery`] with parent-sum constraints);
//! 2. the data owner releases noisy answers through the Laplace mechanism
//!    (`hc-mech`: [`hc_mech::LaplaceMechanism`]);
//! 3. the analyst (or owner) post-processes the noisy answers to the
//!    *closest consistent* answer vector — the minimum-L2 projection onto
//!    the constraint set. **That third step is this crate.**
//!
//! The inference engines:
//!
//! * [`isotonic::isotonic_regression`] — Theorem 1's projection onto ordered
//!   sequences, in linear time (PAVA).
//! * [`engine::LevelTree`] / [`engine::BatchInference`] — Theorem 3's
//!   two-pass closed form for the tree-consistency projection, plus the
//!   Sec. 4.2 non-negativity heuristic, as one engine: the passes run over a
//!   flat level-indexed layout with precomputed per-level weight tables,
//!   one value per node overwritten in place (`h̃ → z → h̄`; a publish
//!   keeps its leaf level in the snapshot it builds, and draws one Laplace
//!   per depth, so hierarchical and per-level-budget releases share it),
//!   and whole release→inference trials batched across scoped threads. Every
//!   estimator's hot path goes through it, and [`hier::ConsistentTree`]
//!   wraps its output for range queries.
//! * [`snapshot::ConsistentSnapshot`] / [`snapshot::SubtreeServer`] — the
//!   matching *read* path: O(1) prefix-summed range serving over engine
//!   output, and allocation-free decomposition folds for the `H̃`-style
//!   estimators.
//! * [`plan::StrategyPlanner`] — a workload-driven planner that picks flat
//!   vs hierarchical vs budgeted releases from the paper's closed-form
//!   error analysis.
//!
//! End-to-end estimators wrap the pipeline for the paper's two tasks:
//!
//! * [`unattributed::UnattributedHistogram`] — release `S̃`, then derive the
//!   three estimators compared in Fig. 5 (`S̃`, `S̃r`, `S̄`).
//! * [`universal::FlatUniversal`] / [`universal::HierarchicalUniversal`] —
//!   the `L̃`, `H̃`, and `H̄` strategies compared in Fig. 6, with range-query
//!   engines.
//!
//! [`theory`] holds the paper's closed-form error predictions, so experiments
//! can print measured-vs-predicted columns.
//!
//! The paper's per-node formulas — Theorem 1's min-max characterization,
//! Theorem 3's two passes, the Sec. 4.2 zeroing walk and their GLS
//! generalization — are not shipped here: they are the test oracles of
//! `hc_testutil::oracle`, which the test suite pins this crate's engines to
//! bit for bit (PAVA within rounding).

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod budgeted;
pub mod engine;
pub mod error;
pub mod hier;
pub mod isotonic;
pub mod plan;
pub mod snapshot;
pub mod theory;
pub mod unattributed;
pub mod universal;

pub use accuracy::{
    alpha_half_width, det_cbrt, epsilon_for_alpha_width, epsilon_for_hier_error,
    epsilon_for_thm4_hbar, epsilon_for_unit_error, epsilon_for_unit_range_error, invert_monotone,
    optimal_custom_split, stability_alpha_error, stability_epsilon, AccuracyTarget, Guarantee,
};
pub use budgeted::BudgetSplit;
pub use engine::{effective_threads, BatchInference, LevelTree};
pub use error::{mean_absolute_error, per_position_squared_error, sum_squared_error};
pub use hier::ConsistentTree;
pub use isotonic::{isotonic_regression, isotonic_regression_weighted};
pub use plan::{
    PlanInput, ReleaseStrategy, SizePrediction, StrategyPipeline, StrategyPlan, StrategyPlanner,
};
pub use snapshot::{union_bound_interval, ConsistentSnapshot, SubtreeServer};
pub use unattributed::{SortedRelease, UnattributedHistogram};
pub use universal::{
    FlatRelease, FlatUniversal, HierarchicalUniversal, RoundedTree, Rounding, TreeRelease,
};
