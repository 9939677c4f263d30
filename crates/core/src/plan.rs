//! The workload-driven strategy planner.
//!
//! Hay et al.'s own analysis (Sec. 5, Theorem 4) says the right strategy
//! depends on workload shape: flat beats hierarchical for short ranges, and
//! per-level budgets can shift the trade-off. Given a declared set of
//! [`RangeWorkload`]s, [`StrategyPlanner`] prices each candidate release
//! with [`crate::theory`]'s closed forms and returns the predicted per-query
//! error alongside the pick, as a runnable [`StrategyPlan`].

use hc_data::{Histogram, RangeWorkload};
use hc_mech::{Epsilon, TreeShape};
use hc_noise::{Laplace, NoiseBackend, SeedStream};
use rand::Rng;

use crate::accuracy::{self, AccuracyTarget, Guarantee};
use crate::budgeted::BudgetSplit;
use crate::engine::{BatchInference, LevelTree};
use crate::snapshot::{ConsistentSnapshot, SubtreeServer};
use crate::theory;
use crate::universal::{FlatRelease, FlatUniversal, HierarchicalUniversal, Rounding};

/// A release strategy the planner can recommend for a range workload.
#[derive(Debug, Clone, PartialEq)]
pub enum ReleaseStrategy {
    /// `L̃`: release unit counts, serve ranges from the fused prefix arrays.
    /// Error grows linearly with range length — best for short ranges.
    Flat,
    /// `H̄`: release the k-ary tree, infer (Theorem 3), serve from a
    /// [`ConsistentSnapshot`]. Error O(ℓ³/ε²) regardless of range length.
    Hierarchical {
        /// The tree branching factor priced.
        branching: usize,
    },
    /// A [`crate::budgeted`] split: per-level budgets shift accuracy
    /// between coarse and fine ranges; GLS inference decodes. Carries the
    /// concrete [`BudgetSplit`] to deploy — a geometric candidate from the
    /// planner's ratio list, or the workload-optimized
    /// [`BudgetSplit::Custom`] weights from
    /// [`crate::accuracy::optimal_custom_split`].
    Budgeted {
        /// The tree branching factor priced.
        branching: usize,
        /// The per-level budget split to release with.
        split: BudgetSplit,
    },
}

/// One workload entry's predicted per-query squared error under each
/// candidate strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct SizePrediction {
    /// The workload's fixed range length.
    pub range_size: usize,
    /// Predicted `error(L̃_q)` = `2·len/ε²` (exact, Sec. 4.2).
    pub flat: f64,
    /// Predicted `error(H̄_q)`: the average-decomposition `H̃` price capped
    /// by Theorem 4(iii)'s `kℓ · 2ℓ²/ε²` bound (Theorem 4(ii) guarantees
    /// `H̄ ≤ H̃` uniformly, so the cheaper of the two is a valid prediction).
    pub hierarchical: f64,
    /// Predicted error under the best candidate geometric budget split
    /// (same decomposition profile, per-level variances; GLS inference can
    /// only improve it). `f64::INFINITY` when no ratios were declared.
    pub budgeted: f64,
    /// Predicted error under the workload-optimized
    /// [`BudgetSplit::Custom`] weights (`w_d ∝ c_d^{1/3}`, the closed-form
    /// optimum for the aggregated profile) — never worse than the best
    /// geometric candidate up to the zero-depth weight floor.
    pub custom: f64,
}

/// The planner's verdict for a declared workload: a concrete, runnable
/// release recipe ([`Self::run`]) plus the price sheet behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyPlan {
    /// The recommended release strategy.
    pub choice: ReleaseStrategy,
    /// The ε the plan releases at: the planner's forward ε in workload
    /// mode, or the solved minimum ε in accuracy mode.
    pub epsilon: f64,
    /// Predicted per-query squared error under [`Self::choice`] at
    /// [`Self::epsilon`], averaged over the workload entries.
    pub predicted_error: f64,
    /// The α-confidence promise the ε was solved for — `Some` only for
    /// plans built from an [`AccuracyTarget`].
    pub guarantee: Option<Guarantee>,
    /// The per-entry price sheet behind the decision.
    pub per_size: Vec<SizePrediction>,
    /// The domain the plan was priced over; [`Self::run`] rejects
    /// histograms of any other size.
    pub domain_size: usize,
}

impl StrategyPlan {
    /// The plan's ε as a validated [`Epsilon`].
    pub fn epsilon(&self) -> Epsilon {
        Epsilon::new(self.epsilon).expect("plans carry validated ε")
    }

    /// The one-call plan → release → snapshot pipeline: releases
    /// `histogram` under [`Self::choice`] at [`Self::epsilon`] with the
    /// reference backend and serves the result as a [`ConsistentSnapshot`].
    ///
    /// The noise stream is `SeedStream::new(seed).rng(0)` — release 0 of
    /// the seed, matching the serving layer's indexing — so the snapshot is
    /// bit-identical to registering a tenant with this plan and publishing
    /// once at the same seed.
    pub fn run(&self, histogram: &Histogram, seed: u64) -> ConsistentSnapshot {
        let mut rng = SeedStream::new(seed).rng(0);
        self.run_with(histogram, NoiseBackend::Reference, &mut rng)
    }

    /// [`Self::run`] with an explicit backend and caller-owned RNG — the
    /// hook for releasing several epochs from one stream, or pricing both
    /// noise backends at fixed seeds. One cold [`StrategyPipeline`] release;
    /// callers that release repeatedly should keep the pipeline instead.
    pub fn run_with<R: Rng + ?Sized>(
        &self,
        histogram: &Histogram,
        backend: NoiseBackend,
        rng: &mut R,
    ) -> ConsistentSnapshot {
        StrategyPipeline::new(&self.choice, self.epsilon(), backend, self.domain_size)
            .release(histogram, rng)
    }
}

/// The one release dispatch: a [`ReleaseStrategy`] compiled once into warm
/// release machinery over a fixed domain, then run once per release.
///
/// There are two stages. A flat release keeps its fused prefix arrays. Both
/// tree strategies share one tree stage: an engine compiled once (uniform
/// Theorem-3 tables for a hierarchical release, GLS tables for a budgeted
/// one) and a table of each depth's Laplace, built once; every release is
/// one fused [`BatchInference::release_and_infer_into_snapshot`]. The
/// pipeline owns every buffer its strategy needs (the engine's tables,
/// internal-node buffer and slab scratch, the flat release's arrays), so
/// after the first release a [`release_into`](Self::release_into) a warm
/// snapshot allocates nothing: every strategy rebuilds the caller's
/// snapshot in place. The only allocation [`release`](Self::release) makes
/// is its fresh snapshot's prefix. Both [`StrategyPlan::run_with`] and the
/// serving layer release through it, so a snapshot is bit-identical
/// whichever of them produced it at the same RNG state, and whatever
/// snapshot it was rebuilt into.
///
/// Flat and hierarchical snapshots carry their release's Laplace scale
/// (confidence queries work); budgeted snapshots carry none (per-level
/// scales differ, so a single union-bound scale would be wrong).
#[derive(Debug)]
pub struct StrategyPipeline {
    domain_size: usize,
    stage: Stage,
}

/// The strategy-specific machinery behind [`StrategyPipeline`].
#[derive(Debug)]
enum Stage {
    Flat {
        mech: FlatUniversal,
        release: FlatRelease,
    },
    /// A hierarchical or budgeted release.
    Tree {
        /// Runs the release in place in its internal-node buffer; the
        /// leaves live in the snapshot's prefix slots and are scanned there
        /// by the downward leaf step. Boxed: its compiled tree shape would
        /// otherwise make this variant several times the flat one's size.
        engine: Box<BatchInference>,
        /// The Laplace of each depth (depth 0 = the root).
        level_noise: Vec<Laplace>,
        backend: NoiseBackend,
        /// The per-answer scale the snapshot carries: `Some` for a uniform
        /// calibration, `None` for a budget split.
        scale: Option<f64>,
    },
}

impl StrategyPipeline {
    /// Compiles `strategy` at `epsilon` per release, sampling through
    /// `backend`, for histograms over `domain_size` bins.
    pub fn new(
        strategy: &ReleaseStrategy,
        epsilon: Epsilon,
        backend: NoiseBackend,
        domain_size: usize,
    ) -> Self {
        let stage = match strategy {
            ReleaseStrategy::Flat => Stage::Flat {
                mech: FlatUniversal::new(epsilon).with_backend(backend),
                release: FlatRelease::from_noisy(epsilon, Vec::new()),
            },
            ReleaseStrategy::Hierarchical { branching } => {
                let prepared = HierarchicalUniversal::new(epsilon, *branching).prepare(domain_size);
                let shape = TreeShape::for_domain(domain_size, *branching);
                Stage::Tree {
                    engine: Box::new(BatchInference::for_shape(&shape)),
                    level_noise: vec![prepared.noise(); shape.height()],
                    backend,
                    scale: Some(prepared.noise_scale()),
                }
            }
            ReleaseStrategy::Budgeted { branching, split } => {
                let shape = TreeShape::for_domain(domain_size, *branching);
                let level_eps = split.level_epsilons(epsilon, shape.height());
                let variances: Vec<f64> = level_eps.iter().map(|&e| 2.0 / (e * e)).collect();
                Stage::Tree {
                    engine: Box::new(BatchInference::new(LevelTree::with_level_variances(
                        &shape, &variances,
                    ))),
                    level_noise: level_eps
                        .iter()
                        .map(|&e| Laplace::centered(1.0 / e).expect("positive scale"))
                        .collect(),
                    backend,
                    scale: None,
                }
            }
        };
        Self { domain_size, stage }
    }

    /// Releases `histogram` under the compiled strategy, drawing noise from
    /// `rng`, infers the consistent estimate, and serves it as a fresh
    /// [`ConsistentSnapshot`]: [`Self::release_into`] an empty one.
    pub fn release<R: Rng + ?Sized>(
        &mut self,
        histogram: &Histogram,
        rng: &mut R,
    ) -> ConsistentSnapshot {
        let mut snapshot = ConsistentSnapshot::empty();
        self.release_into(histogram, rng, &mut snapshot);
        snapshot
    }

    /// Releases `histogram` under the compiled strategy, drawing noise from
    /// `rng`, infers the consistent estimate, and rebuilds `snapshot` in
    /// place to serve it. Whatever `snapshot` held before — its prefix
    /// length, domain and noise scale — is overwritten, so the result is
    /// bit-identical to [`Self::release`] at the same RNG state. Panics if
    /// `histogram` does not cover the compiled domain.
    pub fn release_into<R: Rng + ?Sized>(
        &mut self,
        histogram: &Histogram,
        rng: &mut R,
        snapshot: &mut ConsistentSnapshot,
    ) {
        assert_eq!(
            histogram.len(),
            self.domain_size,
            "histogram does not match the planned domain"
        );
        match &mut self.stage {
            Stage::Flat { mech, release } => {
                mech.release_into(histogram, rng, release);
                release.snapshot_into(Rounding::None, snapshot);
            }
            Stage::Tree {
                engine,
                level_noise,
                backend,
                scale,
            } => {
                engine.release_and_infer_into_snapshot(
                    level_noise,
                    *backend,
                    histogram,
                    rng,
                    snapshot,
                );
                snapshot.set_noise_scale(*scale);
            }
        }
    }
}

/// Cap on the range locations the planner prices per workload entry: exact
/// enumeration up to this many positions, a deterministic phase-rotated
/// stride subsample beyond it. 4096 locations × ≤ 2(k−1)ℓ nodes each keeps
/// planning in the microsecond range at any domain size.
const PLAN_POSITIONS: usize = 4096;

/// Visits the priced range locations for a workload with `positions`
/// placements: every location below [`PLAN_POSITIONS`], else a stride walk
/// whose phase rotates through every residue class mod the stride — a plain
/// `0, s, 2s, …` walk would alias alignment-sensitive profiles (a size-2
/// range decomposes to one parent at even locations but two leaves at odd
/// ones, and a power-of-two stride would only ever see the former).
fn for_each_position(positions: usize, mut visit: impl FnMut(usize)) {
    let stride = positions.div_ceil(PLAN_POSITIONS);
    let mut i = 0usize;
    loop {
        let lo = i * stride + (i % stride);
        if lo >= positions {
            break;
        }
        visit(lo);
        i += 1;
    }
}

/// Picks the release strategy for a declared range workload from the
/// paper's closed-form error analysis (Sec. 4.2, Theorem 4, and the
/// per-level budget generalization), and returns the predicted per-query
/// error alongside — so callers can judge how contested the decision was.
#[derive(Debug, Clone)]
pub struct StrategyPlanner {
    domain_size: usize,
    epsilon: Epsilon,
    budget_ratios: Vec<f64>,
}

/// The branching factor the planner prices: the paper's binary hierarchy.
const BRANCHING: usize = 2;

impl StrategyPlanner {
    /// A planner for a domain of `domain_size` bins at privacy level
    /// `epsilon`, pricing the paper's binary hierarchy and geometric budget
    /// ratios `{0.5, 2.0}` by default.
    pub fn new(domain_size: usize, epsilon: Epsilon) -> Self {
        assert!(domain_size >= 1, "domain must be non-empty");
        Self {
            domain_size,
            epsilon,
            budget_ratios: vec![0.5, 2.0],
        }
    }

    /// A planner for accuracy-mode use only: [`Self::plan_ranked`] solves
    /// its own ε per candidate, so no forward ε is needed — the placeholder
    /// `ε = 1` is used only if the caller also asks for forward pricing.
    pub fn for_domain(domain_size: usize) -> Self {
        Self::new(domain_size, Epsilon::new(1.0).expect("1.0 is valid"))
    }

    /// Replaces the candidate geometric budget ratios (empty disables the
    /// budgeted strategy).
    pub fn with_budget_ratios(mut self, ratios: Vec<f64>) -> Self {
        assert!(
            ratios.iter().all(|&r| r > 0.0 && r.is_finite()),
            "budget ratios must be positive"
        );
        self.budget_ratios = ratios;
        self
    }

    /// The tree geometry the hierarchical candidates are priced over.
    pub fn shape(&self) -> TreeShape {
        TreeShape::for_domain(self.domain_size, BRANCHING)
    }

    /// The single planning entry point. Accepts either vocabulary:
    ///
    /// * a workload (`&[RangeWorkload]`, `&Vec<..>`, or a fixed-size array
    ///   reference) — forward mode: price every candidate at the planner's ε
    ///   and recommend the cheapest;
    /// * an [`AccuracyTarget`] — accuracy mode: solve each candidate's
    ///   minimal ε for the target and return the cheapest-ε plan (the full
    ///   ranking is available from [`Self::plan_ranked`]).
    ///
    /// Ties go to the simpler strategy: flat, then hierarchical, then
    /// geometric-budgeted, then custom-budgeted.
    ///
    /// The budgeted price is that of **one concrete split** — the geometric
    /// candidate whose workload-mean error is lowest, or the
    /// workload-optimized custom weights — so the recommendation and its
    /// `predicted_error` always describe a release the caller can actually
    /// deploy (per-size budgeted entries are the chosen split's prices, not
    /// a per-size best-of mix).
    pub fn plan<'a>(&self, input: impl Into<PlanInput<'a>>) -> StrategyPlan {
        match input.into() {
            PlanInput::Workload(workload) => self.plan_workload(workload),
            PlanInput::Accuracy(target) => {
                let mut ranked = self.plan_ranked(target);
                ranked.swap_remove(0)
            }
        }
    }

    /// Forward mode: price every candidate strategy at the planner's ε.
    fn plan_workload(&self, workload: &[RangeWorkload]) -> StrategyPlan {
        assert!(
            !workload.is_empty(),
            "workload must declare at least one range size"
        );
        self.check_domain(workload);
        let shape = self.shape();
        let server = SubtreeServer::new(&shape);
        let profiles = self.mean_profiles(workload, &server, shape.height());
        let sheet = self.price_sheet(workload, &profiles, self.epsilon.value(), &shape);

        let (choice, predicted_error) = if sheet.flat_mean <= sheet.hier_mean
            && sheet.flat_mean <= sheet.budget_mean
            && sheet.flat_mean <= sheet.custom_mean
        {
            (ReleaseStrategy::Flat, sheet.flat_mean)
        } else if sheet.hier_mean <= sheet.budget_mean && sheet.hier_mean <= sheet.custom_mean {
            (
                ReleaseStrategy::Hierarchical {
                    branching: BRANCHING,
                },
                sheet.hier_mean,
            )
        } else if sheet.budget_mean <= sheet.custom_mean {
            (
                ReleaseStrategy::Budgeted {
                    branching: BRANCHING,
                    split: BudgetSplit::Geometric {
                        ratio: sheet.best_ratio.expect("budgeted beat finite means"),
                    },
                },
                sheet.budget_mean,
            )
        } else {
            (
                ReleaseStrategy::Budgeted {
                    branching: BRANCHING,
                    split: BudgetSplit::Custom(sheet.custom_weights.clone()),
                },
                sheet.custom_mean,
            )
        };

        StrategyPlan {
            choice,
            epsilon: self.epsilon.value(),
            predicted_error,
            guarantee: None,
            per_size: sheet.per_size,
            domain_size: self.domain_size,
        }
    }

    /// Accuracy mode: for each candidate strategy, solve the minimal ε whose
    /// α-confidence error bound meets the target, and return every plan
    /// ranked cheapest-ε first (stable sort, so ties keep the
    /// flat → hierarchical → geometric → custom order).
    ///
    /// The bounds inverted (see [`crate::accuracy`]):
    ///
    /// * **Flat** sums `len` unit counts at scale `1/ε`; the longest
    ///   workload entry binds. Exact algebraic inversion.
    /// * **Hierarchical** sums the subtree decomposition — `m` nodes at
    ///   scale `ℓ/ε`; since `m·ln(m/α)` is increasing in `m`, the worst
    ///   sampled position binds. Exact inversion. (`H̄` only improves on the
    ///   priced `H̃` release, Theorem 4(ii).) This is *deliberately* the
    ///   decomposition bound, not the served-leaf union bound a
    ///   [`ConsistentSnapshot::confidence`] query reports — the leaf bound
    ///   sums `len` terms and would misprice trees against flat releases.
    /// * **Budgeted** mixes per-level scales, so no single closed form
    ///   exists; the per-position profiles drive a monotone bisection
    ///   ([`accuracy::invert_monotone`]) over the worst-position width.
    ///
    /// An empty target workload defaults to unit queries over the full
    /// domain. Every returned plan's `guarantee.predicted` is its bound at
    /// the solved ε — ≤ `max_error` up to float resolution by construction.
    pub fn plan_ranked(&self, target: &AccuracyTarget) -> Vec<StrategyPlan> {
        let workload: Vec<RangeWorkload> = if target.workload().is_empty() {
            vec![RangeWorkload::new(self.domain_size, 1)]
        } else {
            target.workload().to_vec()
        };
        self.check_domain(&workload);
        let alpha = target.alpha();
        let goal = target.max_error();
        let shape = self.shape();
        let server = SubtreeServer::new(&shape);
        let height = shape.height();
        let profiles = self.mean_profiles(&workload, &server, height);

        let m_flat = workload
            .iter()
            .map(RangeWorkload::range_size)
            .max()
            .expect("workload is non-empty");
        let eps_flat = accuracy::epsilon_for_alpha_width(1.0, m_flat, alpha, goal);

        let m_hier = workload
            .iter()
            .map(|w| worst_decomposition(&server, w))
            .max()
            .expect("workload is non-empty");
        let eps_hier = accuracy::epsilon_for_alpha_width(height as f64, m_hier, alpha, goal);

        // Per-position decomposition rows for the budgeted bisections: each
        // row is the per-depth node counts at one sampled location, paired
        // with its cached ln(m/α) factor.
        let (rows, row_logs) = position_profiles(&server, &workload, height, alpha);
        let worst_half = |split: &BudgetSplit, eps: f64| -> f64 {
            let eps = Epsilon::new(eps).expect("bisection stays within (0, ∞)");
            let scales: Vec<f64> = split
                .level_epsilons(eps, height)
                .into_iter()
                .map(|e| 1.0 / e)
                .collect();
            let mut worst = 0.0f64;
            for (row, &log_term) in rows.chunks_exact(height).zip(&row_logs) {
                let mut width = 0.0f64;
                for (&c, &b) in row.iter().zip(&scales) {
                    width += c as f64 * b;
                }
                worst = worst.max(log_term * width);
            }
            worst
        };

        let best_geometric: Option<(f64, f64)> = self
            .budget_ratios
            .iter()
            .map(|&ratio| {
                let split = BudgetSplit::Geometric { ratio };
                (
                    ratio,
                    accuracy::invert_monotone(goal, |e| worst_half(&split, e)),
                )
            })
            .min_by(|a, b| a.1.total_cmp(&b.1));

        let mut costs = vec![0.0f64; height];
        for profile in &profiles {
            for (acc, &c) in costs.iter_mut().zip(profile) {
                *acc += c;
            }
        }
        let custom_weights = accuracy::optimal_custom_split(&costs);
        let custom_split = BudgetSplit::Custom(custom_weights.clone());
        let eps_custom = accuracy::invert_monotone(goal, |e| worst_half(&custom_split, e));

        let make_plan = |choice: ReleaseStrategy, eps: f64, predicted_alpha: f64| -> StrategyPlan {
            let sheet = self.price_sheet(&workload, &profiles, eps, &shape);
            let predicted_error = match &choice {
                ReleaseStrategy::Flat => sheet.flat_mean,
                ReleaseStrategy::Hierarchical { .. } => sheet.hier_mean,
                ReleaseStrategy::Budgeted { split, .. } => {
                    sheet.split_mean(&self.split_prices(&profiles, split, eps, height))
                }
            };
            StrategyPlan {
                choice,
                epsilon: eps,
                predicted_error,
                guarantee: Some(Guarantee {
                    alpha,
                    max_error: goal,
                    predicted: predicted_alpha,
                }),
                per_size: sheet.per_size,
                domain_size: self.domain_size,
            }
        };

        let mut plans = vec![
            make_plan(
                ReleaseStrategy::Flat,
                eps_flat,
                accuracy::alpha_half_width(1.0 / eps_flat, m_flat, alpha),
            ),
            make_plan(
                ReleaseStrategy::Hierarchical {
                    branching: BRANCHING,
                },
                eps_hier,
                accuracy::alpha_half_width(height as f64 / eps_hier, m_hier, alpha),
            ),
        ];
        if let Some((ratio, eps_geo)) = best_geometric {
            let split = BudgetSplit::Geometric { ratio };
            let predicted = worst_half(&split, eps_geo);
            plans.push(make_plan(
                ReleaseStrategy::Budgeted {
                    branching: BRANCHING,
                    split,
                },
                eps_geo,
                predicted,
            ));
        }
        let predicted_custom = worst_half(&custom_split, eps_custom);
        plans.push(make_plan(
            ReleaseStrategy::Budgeted {
                branching: BRANCHING,
                split: custom_split,
            },
            eps_custom,
            predicted_custom,
        ));

        plans.sort_by(|a, b| a.epsilon.total_cmp(&b.epsilon));
        plans
    }

    fn check_domain(&self, workload: &[RangeWorkload]) {
        for w in workload {
            assert_eq!(
                w.domain_size(),
                self.domain_size,
                "workload declared over a different domain than the planner"
            );
        }
    }

    /// Average decomposition profile per workload entry: mean node count
    /// per depth over the priced range locations.
    fn mean_profiles(
        &self,
        workload: &[RangeWorkload],
        server: &SubtreeServer,
        height: usize,
    ) -> Vec<Vec<f64>> {
        let mut per_depth = vec![0usize; height];
        workload
            .iter()
            .map(|w| {
                per_depth.iter_mut().for_each(|c| *c = 0);
                let sampled = average_profile(server, w, &mut per_depth);
                per_depth
                    .iter()
                    .map(|&c| c as f64 / sampled as f64)
                    .collect()
            })
            .collect()
    }

    /// Per-entry prices for one concrete budget split at `eps`.
    fn split_prices(
        &self,
        profiles: &[Vec<f64>],
        split: &BudgetSplit,
        eps: f64,
        height: usize,
    ) -> Vec<f64> {
        let total = Epsilon::new(eps).expect("planner ε is validated");
        let vars: Vec<f64> = split
            .level_epsilons(total, height)
            .into_iter()
            .map(|e| 2.0 / (e * e))
            .collect();
        profiles
            .iter()
            .map(|profile| profile.iter().zip(&vars).map(|(&c, &v)| c * v).sum())
            .collect()
    }

    /// Prices every candidate column at `eps` over the given profiles.
    fn price_sheet(
        &self,
        workload: &[RangeWorkload],
        profiles: &[Vec<f64>],
        eps: f64,
        shape: &TreeShape,
    ) -> PriceSheet {
        let height = shape.height();
        let uniform_var = theory::laplace_variance(height as f64, eps);
        let hbar_cap = theory::error_hbar_range_bound(shape, eps);

        // Pick the single geometric ratio with the lowest workload-mean
        // price; every geometric-budgeted number below is that ratio's.
        let best_budget: Option<(f64, Vec<f64>)> = self
            .budget_ratios
            .iter()
            .map(|&ratio| {
                (
                    ratio,
                    self.split_prices(profiles, &BudgetSplit::Geometric { ratio }, eps, height),
                )
            })
            .min_by(|(_, a), (_, b)| {
                let mean_a: f64 = a.iter().sum::<f64>() / a.len() as f64; // hc-lint: allow(float-fold) — planner cost ranking; advisory, never released
                let mean_b: f64 = b.iter().sum::<f64>() / b.len() as f64; // hc-lint: allow(float-fold) — planner cost ranking; advisory, never released
                mean_a.total_cmp(&mean_b)
            });

        // The workload-optimized custom split: aggregate the per-depth costs
        // across entries and apply the closed-form cube-root weights.
        let mut costs = vec![0.0f64; height];
        for profile in profiles {
            for (acc, &c) in costs.iter_mut().zip(profile) {
                *acc += c;
            }
        }
        let custom_weights = accuracy::optimal_custom_split(&costs);
        let custom_prices = self.split_prices(
            profiles,
            &BudgetSplit::Custom(custom_weights.clone()),
            eps,
            height,
        );

        let per_size: Vec<SizePrediction> = workload
            .iter()
            .zip(profiles)
            .enumerate()
            .map(|(i, (w, profile))| {
                let avg_nodes: f64 = profile.iter().sum();
                SizePrediction {
                    range_size: w.range_size(),
                    flat: theory::error_unit_range(w.range_size(), eps),
                    hierarchical: (avg_nodes * uniform_var).min(hbar_cap),
                    budgeted: best_budget
                        .as_ref()
                        .map_or(f64::INFINITY, |(_, prices)| prices[i]),
                    custom: custom_prices[i],
                }
            })
            .collect();

        let mean = |f: fn(&SizePrediction) -> f64| {
            per_size.iter().map(f).sum::<f64>() / per_size.len() as f64 // hc-lint: allow(float-fold) — planner summary statistic; advisory, never released
        };
        PriceSheet {
            flat_mean: mean(|p| p.flat),
            hier_mean: mean(|p| p.hierarchical),
            budget_mean: mean(|p| p.budgeted),
            custom_mean: mean(|p| p.custom),
            best_ratio: best_budget.map(|(r, _)| r),
            custom_weights,
            per_size,
        }
    }
}

/// Either vocabulary [`StrategyPlanner::plan`] accepts: a declared workload
/// (forward pricing at the planner's ε) or an [`AccuracyTarget`] (inverse
/// mode — solve the minimal ε meeting the target).
#[derive(Debug)]
pub enum PlanInput<'a> {
    /// Forward mode: price candidates at the planner's ε.
    Workload(&'a [RangeWorkload]),
    /// Accuracy mode: solve the minimal ε for the target's α/error promise.
    Accuracy(&'a AccuracyTarget),
}

impl<'a> From<&'a [RangeWorkload]> for PlanInput<'a> {
    fn from(workload: &'a [RangeWorkload]) -> Self {
        PlanInput::Workload(workload)
    }
}

impl<'a, const N: usize> From<&'a [RangeWorkload; N]> for PlanInput<'a> {
    fn from(workload: &'a [RangeWorkload; N]) -> Self {
        PlanInput::Workload(workload)
    }
}

impl<'a> From<&'a Vec<RangeWorkload>> for PlanInput<'a> {
    fn from(workload: &'a Vec<RangeWorkload>) -> Self {
        PlanInput::Workload(workload)
    }
}

impl<'a> From<&'a AccuracyTarget> for PlanInput<'a> {
    fn from(target: &'a AccuracyTarget) -> Self {
        PlanInput::Accuracy(target)
    }
}

/// The planner's internal price grid: workload-mean cost per candidate
/// column plus the per-entry sheet exposed on [`StrategyPlan`].
struct PriceSheet {
    flat_mean: f64,
    hier_mean: f64,
    budget_mean: f64,
    custom_mean: f64,
    best_ratio: Option<f64>,
    custom_weights: Vec<f64>,
    per_size: Vec<SizePrediction>,
}

impl PriceSheet {
    fn split_mean(&self, prices: &[f64]) -> f64 {
        prices.iter().sum::<f64>() / prices.len() as f64 // hc-lint: allow(float-fold) — planner summary statistic; advisory, never released
    }
}

/// The largest decomposition (node count) over the workload's sampled range
/// locations — the binding entry for the hierarchical α-width, since
/// `m·ln(m/α)` is increasing in `m`.
fn worst_decomposition(server: &SubtreeServer, workload: &RangeWorkload) -> usize {
    let mut worst = 0usize;
    for_each_position(workload.positions(), |lo| {
        worst = worst.max(server.decomposition_len(workload.interval_at(lo)));
    });
    worst
}

/// Flattened per-position decomposition rows (`height` counts per sampled
/// location, concatenated) with each row's `ln(m/α)` union-bound factor —
/// precomputed once so the budgeted bisections only do multiply-adds.
fn position_profiles(
    server: &SubtreeServer,
    workload: &[RangeWorkload],
    height: usize,
    alpha: f64,
) -> (Vec<usize>, Vec<f64>) {
    let mut rows = Vec::new();
    let mut row_logs = Vec::new();
    let mut scratch = vec![0usize; height];
    for w in workload {
        for_each_position(w.positions(), |lo| {
            scratch.iter_mut().for_each(|c| *c = 0);
            server.count_per_depth(w.interval_at(lo), &mut scratch);
            let m: usize = scratch.iter().sum();
            rows.extend_from_slice(&scratch);
            row_logs.push((m as f64 / alpha).ln()); // hc-lint: allow(frozen-bits) — planner bound arithmetic; never enters a release
        });
    }
    (rows, row_logs)
}

/// Accumulates the decomposition's per-depth node counts over the
/// workload's priced range locations (see [`for_each_position`]), returning
/// how many locations were priced.
fn average_profile(
    server: &SubtreeServer,
    workload: &RangeWorkload,
    per_depth: &mut [usize],
) -> usize {
    let mut sampled = 0usize;
    for_each_position(workload.positions(), |lo| {
        server.count_per_depth(workload.interval_at(lo), per_depth);
        sampled += 1;
    });
    sampled
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_data::Interval;
    use hc_mech::QuerySequence;
    use hc_noise::rng_from_seed;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn planner_prefers_flat_for_short_ranges_and_trees_for_long() {
        let planner = StrategyPlanner::new(1 << 14, eps(0.1));
        let short = planner.plan(&[RangeWorkload::new(1 << 14, 2)]);
        assert_eq!(short.choice, ReleaseStrategy::Flat);
        let long = planner.plan(&[RangeWorkload::new(1 << 14, 1 << 13)]);
        assert!(
            matches!(
                long.choice,
                ReleaseStrategy::Hierarchical { .. } | ReleaseStrategy::Budgeted { .. }
            ),
            "long ranges must leave the flat strategy: {long:?}"
        );
        // Long-range tree serving must be predicted cheaper than flat.
        let p = &long.per_size[0];
        assert!(p.hierarchical < p.flat, "{p:?}");
        assert!(long.predicted_error <= p.flat);
    }

    #[test]
    fn planner_prices_match_theory_closed_forms() {
        let n = 1 << 10;
        let planner = StrategyPlanner::new(n, eps(1.0));
        let plan = planner.plan(&[RangeWorkload::new(n, 4), RangeWorkload::new(n, 256)]);
        assert_eq!(plan.per_size.len(), 2);
        // Flat is the exact closed form.
        assert_eq!(plan.per_size[0].flat, theory::error_unit_range(4, 1.0));
        assert_eq!(plan.per_size[1].flat, theory::error_unit_range(256, 1.0));
        // The hierarchical price never exceeds Theorem 4(iii)'s cap.
        let shape = planner.shape();
        let cap = theory::error_hbar_range_bound(&shape, 1.0);
        for p in &plan.per_size {
            assert!(p.hierarchical <= cap + 1e-9, "{p:?}");
            assert!(p.hierarchical > 0.0 && p.budgeted > 0.0);
        }
    }

    #[test]
    fn planner_hierarchical_price_tracks_enumerated_decompositions() {
        // On a domain small enough for exact enumeration the H̃ part of the
        // price is exactly avg(decomposition size) × 2ℓ²/ε², capped.
        let n = 64usize;
        let planner = StrategyPlanner::new(n, eps(1.0));
        let size = 5usize;
        let plan = planner.plan(&[RangeWorkload::new(n, size)]);
        let shape = planner.shape();
        let server = SubtreeServer::new(&shape);
        let mut nodes = 0usize;
        let positions = n - size + 1;
        for lo in 0..positions {
            nodes += server.decomposition_len(Interval::new(lo, lo + size - 1));
        }
        let htilde =
            nodes as f64 / positions as f64 * theory::laplace_variance(shape.height() as f64, 1.0);
        let expect = htilde.min(theory::error_hbar_range_bound(&shape, 1.0));
        assert!(
            (plan.per_size[0].hierarchical - expect).abs() < 1e-9,
            "{} vs {expect}",
            plan.per_size[0].hierarchical
        );
    }

    #[test]
    fn planner_budgeted_with_uniform_ratio_matches_hierarchical() {
        // ratio = 1.0 is the paper's uniform split: per-level variance is
        // exactly 2ℓ²/ε², so the budgeted price equals the H̃ average and
        // the planner must never prefer it over plain hierarchical. The
        // workload is long enough that the tree beats flat outright.
        let n = 1 << 14;
        let planner = StrategyPlanner::new(n, eps(0.1)).with_budget_ratios(vec![1.0]);
        let plan = planner.plan(&[RangeWorkload::new(n, 1 << 13)]);
        let p = &plan.per_size[0];
        assert!(
            (p.budgeted - p.hierarchical).abs() <= 1e-9 * p.hierarchical,
            "{p:?}"
        );
        // The geometric candidate ties hierarchical, so it must never win;
        // only the workload-optimized custom split may displace the tree,
        // and only by actually pricing cheaper.
        match &plan.choice {
            ReleaseStrategy::Hierarchical { .. } => {}
            ReleaseStrategy::Budgeted {
                split: BudgetSplit::Custom(_),
                ..
            } => {
                assert!(p.custom <= p.hierarchical * (1.0 + 1e-9), "{p:?}");
            }
            other => panic!("uniform geometric split must not win: {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "different domain")]
    fn planner_rejects_workloads_over_a_different_domain() {
        let planner = StrategyPlanner::new(1024, eps(1.0));
        let _ = planner.plan(&[RangeWorkload::new(512, 4)]);
    }

    #[test]
    fn planner_budgeted_price_is_one_ratio_for_the_whole_workload() {
        // A mixed short+long workload: the budgeted column must be priced
        // under a single candidate ratio (the one with the best workload
        // mean), never a per-size best-of mix — so re-pricing the whole
        // workload with each candidate must reproduce one candidate's
        // numbers exactly.
        let n = 1 << 12;
        let planner = StrategyPlanner::new(n, eps(0.5));
        let workload = [RangeWorkload::new(n, 2), RangeWorkload::new(n, n / 2)];
        let plan = planner.plan(&workload);
        let matches_single_ratio = [0.5, 2.0].iter().any(|&ratio| {
            let single = StrategyPlanner::new(n, eps(0.5))
                .with_budget_ratios(vec![ratio])
                .plan(&workload);
            single
                .per_size
                .iter()
                .zip(&plan.per_size)
                .all(|(s, p)| s.budgeted == p.budgeted)
        });
        assert!(matches_single_ratio, "{plan:?}");
    }

    fn test_histogram(n: usize, seed: u64) -> Histogram {
        let mut rng = rng_from_seed(seed);
        let counts: Vec<u64> = (0..n).map(|_| rng.random_range(0..40u64)).collect();
        let domain = hc_data::Domain::new("planner-test", n).expect("non-empty test domain");
        Histogram::from_counts(domain, counts)
    }

    #[test]
    fn ranked_plans_meet_the_accuracy_target_and_sort_by_epsilon() {
        let n = 1 << 10;
        let target = AccuracyTarget::new(0.05, 50.0)
            .with_workload(vec![RangeWorkload::new(n, 8), RangeWorkload::new(n, 256)]);
        let ranked = StrategyPlanner::new(n, eps(1.0)).plan_ranked(&target);
        assert_eq!(ranked.len(), 4, "flat, hier, geometric, custom");
        for pair in ranked.windows(2) {
            assert!(pair[0].epsilon <= pair[1].epsilon, "{ranked:?}");
        }
        for plan in &ranked {
            let g = plan.guarantee.expect("accuracy mode sets the guarantee");
            assert_eq!(g.alpha, 0.05);
            assert_eq!(g.max_error, 50.0);
            assert!(
                g.predicted <= g.max_error * (1.0 + 1e-9),
                "plan violates its own promise: {plan:?}"
            );
            assert!(plan.epsilon > 0.0 && plan.epsilon.is_finite());
        }
    }

    #[test]
    fn ranked_flat_epsilon_round_trips_the_closed_form() {
        // Exact algebraic inversion: re-predicting the α-width at the solved
        // ε must land back on the target within float resolution.
        let n = 1 << 12;
        let target = AccuracyTarget::new(0.1, 25.0).with_workload(vec![RangeWorkload::new(n, 64)]);
        let ranked = StrategyPlanner::new(n, eps(1.0)).plan_ranked(&target);
        let flat = ranked
            .iter()
            .find(|p| p.choice == ReleaseStrategy::Flat)
            .expect("flat plan present");
        let back = accuracy::alpha_half_width(1.0 / flat.epsilon, 64, 0.1);
        assert!((back - 25.0).abs() <= 25.0 * 1e-9, "{back}");
    }

    #[test]
    fn custom_split_never_prices_worse_than_geometric_at_equal_epsilon() {
        let n = 1 << 12;
        let planner = StrategyPlanner::new(n, eps(0.5));
        let plan = planner.plan(&[RangeWorkload::new(n, 4), RangeWorkload::new(n, n / 4)]);
        let mean = |f: fn(&SizePrediction) -> f64| {
            plan.per_size.iter().map(f).sum::<f64>() / plan.per_size.len() as f64
        };
        assert!(
            mean(|p| p.custom) <= mean(|p| p.budgeted) * (1.0 + 1e-9),
            "{plan:?}"
        );
    }

    #[test]
    fn plan_accepts_accuracy_targets_through_the_same_entry_point() {
        let n = 512;
        let target = AccuracyTarget::new(0.05, 80.0).with_workload(vec![RangeWorkload::new(n, 32)]);
        let planner = StrategyPlanner::new(n, eps(1.0));
        let via_plan = planner.plan(&target);
        let ranked = planner.plan_ranked(&target);
        assert_eq!(
            via_plan, ranked[0],
            "plan() must return the top-ranked plan"
        );
    }

    #[test]
    fn plan_run_is_bit_identical_to_the_manual_pipelines() {
        let n = 64usize;
        let histogram = test_histogram(n, 9);
        let seed = 41u64;
        let queries: Vec<Interval> = (0..n).map(|lo| Interval::new(lo, n - 1)).collect();
        let plan = |choice: ReleaseStrategy| StrategyPlan {
            choice,
            epsilon: 1.0,
            predicted_error: 0.0,
            guarantee: None,
            per_size: Vec::new(),
            domain_size: n,
        };

        let flat = plan(ReleaseStrategy::Flat).run(&histogram, seed);
        let manual_flat = crate::universal::FlatUniversal::new(eps(1.0))
            .release(&histogram, &mut hc_noise::SeedStream::new(seed).rng(0))
            .snapshot(Rounding::None);
        for &q in &queries {
            assert_eq!(flat.answer(q).to_bits(), manual_flat.answer(q).to_bits());
        }

        let hier = plan(ReleaseStrategy::Hierarchical { branching: 2 }).run(&histogram, seed);
        let mech = crate::universal::HierarchicalUniversal::new(eps(1.0), 2);
        let prepared = mech.prepare(n);
        let shape = TreeShape::for_domain(n, 2);
        let mut engine = BatchInference::for_shape(&shape);
        let mut inferred = Vec::new();
        engine.release_and_infer(
            &prepared,
            &histogram,
            &mut hc_noise::SeedStream::new(seed).rng(0),
            &mut inferred,
        );
        let manual_hier = ConsistentSnapshot::from_tree_values(&shape, &inferred, n);
        for &q in &queries {
            assert_eq!(hier.answer(q).to_bits(), manual_hier.answer(q).to_bits());
        }
        assert_eq!(hier.noise_scale(), Some(prepared.noise_scale()));

        // The staged budgeted release: evaluate, add each level's Laplace
        // in BFS order, infer with the GLS tables, scan the leaves.
        let split = BudgetSplit::Geometric { ratio: 1.5 };
        let budgeted = plan(ReleaseStrategy::Budgeted {
            branching: 2,
            split: split.clone(),
        })
        .run(&histogram, seed);
        let level_eps = split.level_epsilons(eps(1.0), shape.height());
        let mut noisy = Vec::new();
        prepared.query().evaluate_into(&histogram, &mut noisy);
        let mut rng = hc_noise::SeedStream::new(seed).rng(0);
        for (d, &e) in level_eps.iter().enumerate() {
            Laplace::centered(1.0 / e)
                .unwrap()
                .add_noise(&mut rng, &mut noisy[shape.level(d)]);
        }
        let variances: Vec<f64> = level_eps.iter().map(|&e| 2.0 / (e * e)).collect();
        let tree = LevelTree::with_level_variances(&shape, &variances).infer(&noisy);
        let manual_budgeted = ConsistentSnapshot::from_tree_values(&shape, &tree, n);
        for &q in &queries {
            assert_eq!(
                budgeted.answer(q).to_bits(),
                manual_budgeted.answer(q).to_bits()
            );
        }
    }

    #[test]
    fn release_into_a_used_snapshot_matches_a_fresh_release() {
        let n = 37usize;
        let histogram = test_histogram(n, 4);
        let strategies = [
            ReleaseStrategy::Flat,
            ReleaseStrategy::Hierarchical { branching: 2 },
            ReleaseStrategy::Hierarchical { branching: 3 },
            ReleaseStrategy::Budgeted {
                branching: 2,
                split: BudgetSplit::Geometric { ratio: 1.5 },
            },
        ];
        // A snapshot left over from another strategy's release: other
        // length, other domain, a noise scale every strategy must reset.
        let mut used = ConsistentSnapshot::from_leaves(&[1.0; 70], 65).with_noise_scale(3.0);
        for strategy in &strategies {
            let mut pipeline =
                StrategyPipeline::new(strategy, eps(0.5), NoiseBackend::Reference, n);
            for i in 0..2u64 {
                let seeds = hc_noise::SeedStream::new(8);
                let fresh = pipeline.release(&histogram, &mut seeds.rng(i));
                pipeline.release_into(&histogram, &mut seeds.rng(i), &mut used);
                assert_eq!(used, fresh, "{strategy:?} release {i}");
                for lo in 0..n {
                    let q = Interval::new(lo, n - 1);
                    assert_eq!(used.answer(q).to_bits(), fresh.answer(q).to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match the planned domain")]
    fn plan_run_rejects_histograms_of_the_wrong_domain() {
        let plan = StrategyPlan {
            choice: ReleaseStrategy::Flat,
            epsilon: 1.0,
            predicted_error: 0.0,
            guarantee: None,
            per_size: Vec::new(),
            domain_size: 128,
        };
        let _ = plan.run(&test_histogram(64, 3), 1);
    }
}
