//! The accuracy-first front door: state a target accuracy, get the ε (and
//! per-level budget split) that achieves it.
//!
//! Everything else in the workspace runs *forward*: pick ε and a strategy,
//! release, and discover accuracy afterward. Analysts want the inverse (the
//! PSI Library's `histogram.getParameters` ergonomics): "I need every
//! workload answer within `max_error` of the truth with probability
//! `1 − alpha` — what ε does that cost, and under which strategy?" This
//! module inverts the closed forms of [`crate::theory`] and the union-bound
//! confidence arithmetic ([`crate::snapshot::union_bound_interval`]):
//!
//! * **Exact algebraic inversions** where the forms allow: every squared
//!   error form is `C/ε²` and every α-confidence half-width is `C/ε`, so the
//!   flat, hierarchical, and Theorem-4 bounds invert in one line.
//! * **Monotone bisection** ([`invert_monotone`]) where the planner prices
//!   through a closure (per-level budget splits over sampled decomposition
//!   profiles) — every form is strictly decreasing in ε, so bisection is
//!   exact to float resolution and always returns an ε that *satisfies* the
//!   target (the upper bracket end).
//! * **Optimized custom splits** ([`optimal_custom_split`]): for a workload
//!   with per-depth decomposition costs `c_d`, the per-level weights
//!   minimizing predicted error are `w_d ∝ c_d^{1/3}` (Lagrange on
//!   `Σ c_d/w_d²` subject to `Σ w_d = 1`) — computed with a deterministic
//!   Newton cube root ([`det_cbrt`]) so plans are bit-identical across
//!   platforms.
//!
//! [`AccuracyTarget`] carries the request; `StrategyPlanner::plan` (and
//! `plan_ranked`) in [`crate::plan`] turn it into ranked, runnable
//! [`crate::plan::StrategyPlan`]s.
//!
//! The (ε, δ) stability-mechanism forms ([`stability_alpha_error`] /
//! [`stability_epsilon`]) follow the PSI Library's accuracy arithmetic for
//! sparse/unknown domains; they price the accountant's (ε, δ) entries, not a
//! release pipeline this crate ships.

use hc_data::{Interval, RangeWorkload};
use hc_mech::TreeShape;

/// An analyst's accuracy request: with probability at least `1 − alpha`,
/// every workload range answer must be within `max_error` of the truth.
///
/// The workload declares which ranges matter (empty = per-bin accuracy, the
/// PSI Library's default semantics); `delta` is only consulted by the
/// stability-mechanism forms ([`Self::stability_epsilon`]) and the
/// accountant's (ε, δ) entries — the Laplace strategies planned from this
/// target are pure ε-DP.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyTarget {
    alpha: f64,
    max_error: f64,
    workload: Vec<RangeWorkload>,
    delta: f64,
}

impl AccuracyTarget {
    /// A target holding every workload answer within `max_error` with
    /// probability `1 − alpha`, over an initially empty workload (planners
    /// default that to per-bin accuracy).
    pub fn new(alpha: f64, max_error: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "alpha must lie strictly inside (0, 1)"
        );
        assert!(
            max_error > 0.0 && max_error.is_finite(),
            "max_error must be positive and finite"
        );
        Self {
            alpha,
            max_error,
            workload: Vec::new(),
            delta: 0.0,
        }
    }

    /// Declares the ranges the guarantee must cover. All entries must share
    /// one domain (the planner checks it against its own).
    pub fn with_workload(mut self, workload: Vec<RangeWorkload>) -> Self {
        if let Some(first) = workload.first() {
            assert!(
                workload
                    .iter()
                    .all(|w| w.domain_size() == first.domain_size()),
                "workload entries must share one domain"
            );
        }
        self.workload = workload;
        self
    }

    /// Attaches a δ for the stability-mechanism forms (`0 ≤ δ < 1`; zero
    /// keeps the target pure-ε).
    pub fn with_delta(mut self, delta: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&delta) && delta.is_finite(),
            "delta must lie in [0, 1)"
        );
        self.delta = delta;
        self
    }

    /// The failure probability bound α.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The per-answer error ceiling the guarantee enforces.
    #[inline]
    pub fn max_error(&self) -> f64 {
        self.max_error
    }

    /// The declared workload (empty = per-bin accuracy).
    #[inline]
    pub fn workload(&self) -> &[RangeWorkload] {
        &self.workload
    }

    /// The attached δ (zero when the target is pure-ε).
    #[inline]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The ε a *stability-mechanism* release (sparse/unknown domains, per
    /// the PSI Library path) needs to meet this target's per-bin accuracy —
    /// `None` when no δ was attached (the stability form needs δ > 0).
    pub fn stability_epsilon(&self) -> Option<f64> {
        (self.delta > 0.0).then(|| stability_epsilon(self.alpha, self.delta, self.max_error))
    }
}

/// The accuracy promise attached to a solved plan: at the plan's ε, the
/// predicted α-confidence error bound `predicted` satisfies
/// `predicted ≤ max_error`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Guarantee {
    /// The failure probability bound the plan was solved for.
    pub alpha: f64,
    /// The requested per-answer error ceiling.
    pub max_error: f64,
    /// The plan's predicted α-confidence error at its solved ε — by
    /// construction at most `max_error` (equal up to float resolution for
    /// the exactly-inverted strategies).
    pub predicted: f64,
}

/// The α-confidence half-width of a sum of `m` independent `Lap(scale)`
/// counts, by union bound: `m · scale · ln(m/α)` (zero when `m = 0`).
///
/// This is exactly the arithmetic of
/// [`crate::snapshot::union_bound_interval`] at level `1 − α`, in closed
/// form: each term is held at per-term level `1 − α/m`, whose Laplace
/// quantile is `scale · ln(m/α)`.
pub fn alpha_half_width(scale: f64, m: usize, alpha: f64) -> f64 {
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must lie in (0, 1)");
    assert!(scale > 0.0, "noise scale must be positive");
    if m == 0 {
        return 0.0;
    }
    let m = m as f64;
    m * scale * (m / alpha).ln() // hc-lint: allow(frozen-bits) — planning/accounting arithmetic; never enters a release
}

/// Inverts [`alpha_half_width`] for the Laplace mechanism at sensitivity
/// `Δ`: the ε at which a sum of `m` counts noised at scale `Δ/ε` has
/// α-confidence half-width exactly `half_width`.
///
/// `half = m · (Δ/ε) · ln(m/α)` ⇒ `ε = Δ · m · ln(m/α) / half`.
pub fn epsilon_for_alpha_width(sensitivity: f64, m: usize, alpha: f64, half_width: f64) -> f64 {
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must lie in (0, 1)");
    assert!(sensitivity > 0.0, "sensitivity must be positive");
    assert!(
        half_width > 0.0 && half_width.is_finite(),
        "target half-width must be positive and finite"
    );
    assert!(m >= 1, "a guarantee over zero counts costs no budget");
    let m = m as f64;
    sensitivity * m * (m / alpha).ln() / half_width // hc-lint: allow(frozen-bits) — planning/accounting arithmetic; never enters a release
}

/// Inverts [`crate::theory::error_unit_full`] (`2n/ε²`): the ε at which the
/// flat strategy's total squared error over `n` unit counts is `max_error`.
pub fn epsilon_for_unit_error(n: usize, max_error: f64) -> f64 {
    assert!(max_error > 0.0, "target error must be positive");
    (2.0 * n as f64 / max_error).sqrt()
}

/// Inverts [`crate::theory::error_unit_range`] (`2·len/ε²`): the ε at which
/// a flat range of `len` units has squared error `max_error`.
pub fn epsilon_for_unit_range_error(len: usize, max_error: f64) -> f64 {
    assert!(max_error > 0.0, "target error must be positive");
    (2.0 * len as f64 / max_error).sqrt()
}

/// Inverts [`crate::theory::error_hier_range`] (`nodes · 2ℓ²/ε²`): the ε at
/// which the subtree-sum strategy answers `interval` with squared error
/// `max_error`.
pub fn epsilon_for_hier_error(shape: &TreeShape, interval: Interval, max_error: f64) -> f64 {
    assert!(max_error > 0.0, "target error must be positive");
    let nodes = shape.subtree_decomposition(interval).len() as f64;
    shape.height() as f64 * (2.0 * nodes / max_error).sqrt()
}

/// Inverts [`crate::theory::thm4_hbar_upper`] (`3 · 2ℓ²/ε²`): the ε at
/// which Theorem 4(iv)'s `H̄` bound equals `max_error`.
pub fn epsilon_for_thm4_hbar(shape: &TreeShape, max_error: f64) -> f64 {
    assert!(max_error > 0.0, "target error must be positive");
    shape.height() as f64 * (6.0 / max_error).sqrt()
}

/// The PSI Library's stability-mechanism accuracy at `(ε, δ)`: with
/// probability `1 − α` a released bin is within `2 · ln(2/(α·δ)) / ε` of
/// the truth (the δ-thresholding adds the `/δ` term to the pure-ε
/// `2 · ln(1/α)/ε` form).
pub fn stability_alpha_error(epsilon: f64, alpha: f64, delta: f64) -> f64 {
    assert!(epsilon > 0.0, "epsilon must be positive");
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must lie in (0, 1)");
    assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0, 1)");
    2.0 * (2.0 / (alpha * delta)).ln() / epsilon // hc-lint: allow(frozen-bits) — planning/accounting arithmetic; never enters a release
}

/// Inverts [`stability_alpha_error`]: the ε a stability-mechanism release
/// needs for α-confidence error `max_error` at the given δ.
pub fn stability_epsilon(alpha: f64, delta: f64, max_error: f64) -> f64 {
    assert!(max_error > 0.0, "target error must be positive");
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must lie in (0, 1)");
    assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0, 1)");
    2.0 * (2.0 / (alpha * delta)).ln() / max_error // hc-lint: allow(frozen-bits) — planning/accounting arithmetic; never enters a release
}

/// Finds the smallest ε (to float resolution) with `error_at(ε) ≤ target`,
/// for any `error_at` strictly decreasing in ε — the bisection behind the
/// budgeted-split inversions, whose pricing runs through a sampled-profile
/// closure rather than a closed form.
///
/// Brackets geometrically from ε = 1, then bisects; the returned value is
/// the bracket's *upper* end, so `error_at(result) ≤ target` always holds
/// (the guarantee is never violated by the last half-step). Fully
/// deterministic: fixed iteration bounds, exactly-rounded arithmetic only.
pub fn invert_monotone(target: f64, mut error_at: impl FnMut(f64) -> f64) -> f64 {
    assert!(
        target > 0.0 && target.is_finite(),
        "target must be positive and finite"
    );
    // Grow the satisfying end. f64 overflows past ~2^1024 doublings of 1.0,
    // so a satisfiable form is found within 1100 steps.
    let mut hi = 1.0f64;
    let mut steps = 0usize;
    while error_at(hi) > target {
        hi *= 2.0;
        steps += 1;
        assert!(steps < 1100, "no finite ε satisfies the target");
    }
    // Shrink to a violating lower end (a free-of-charge target has none:
    // give the whole budget saving back as ε → 0).
    let mut lo = hi;
    loop {
        let next = lo / 2.0;
        if next < f64::MIN_POSITIVE {
            return next.max(f64::MIN_POSITIVE);
        }
        if error_at(next) > target {
            lo = next;
            break;
        }
        hi = next;
        lo = next;
    }
    // Bisect [lo, hi] with error_at(lo) > target ≥ error_at(hi) until the
    // midpoint stops moving.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        if error_at(mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// A deterministic cube root: bit-level initial guess plus fixed Newton
/// iterations, using only exactly-rounded IEEE-754 operations — unlike
/// libm's `cbrt`, results are identical on every platform, so plans built
/// from it are bit-reproducible. Accurate to within an ulp or two of the
/// true cube root (the planner only ranks with it; nothing released depends
/// on the low bits).
pub fn det_cbrt(x: f64) -> f64 {
    assert!(x >= 0.0 && x.is_finite(), "domain is [0, ∞)");
    if x == 0.0 {
        return 0.0;
    }
    if x < f64::MIN_POSITIVE {
        // Subnormals defeat the exponent bit-hack (their exponent field is
        // zero), so rescale by an exact power-of-two cube and undo after:
        // cbrt(x·2^768) · 2^-256. Both factors are exact, so this costs no
        // accuracy.
        let up = f64::from_bits(1791u64 << 52); // 2^768 = (2^256)³
        let down = f64::from_bits(767u64 << 52); // 2^-256
        return det_cbrt(x * up) * down;
    }
    // Dividing the bit pattern by 3 thirds the exponent; re-biasing by
    // (2/3)·1023·2^52 = 0x2AA0000000000000 restores the offset, landing
    // within ~25% of x^(1/3) across the whole finite range.
    let mut y = f64::from_bits(x.to_bits() / 3 + 0x2AA0_0000_0000_0000);
    // Newton on y³ = x: y ← (2y + x/y²)/3. Quadratic convergence takes a
    // 25% guess to full f64 precision in six steps; the seventh is margin.
    for _ in 0..7 {
        y = (2.0 * y + x / (y * y)) / 3.0;
    }
    y
}

/// The per-level budget weights minimizing predicted workload error for a
/// per-depth decomposition cost profile `c_d` (mean node count at depth `d`
/// over the workload's ranges).
///
/// With level budgets `ε_d = ε·w_d` the predicted error is
/// `Σ_d c_d · 2/ε_d² ∝ Σ_d c_d/w_d²`; minimizing subject to `Σ w_d = 1`
/// gives `w_d ∝ c_d^{1/3}` (Lagrange). Depths the workload never touches
/// get a floor of `1e-12 × max` weight instead of zero — the split stays
/// releasable (every level needs *some* budget to be DP) while perturbing
/// the optimum by well under the 1e-9 tolerances the tests pin.
///
/// Returned weights are relative (callers wrap them in
/// [`crate::budgeted::BudgetSplit::Custom`], which normalizes).
pub fn optimal_custom_split(per_depth_costs: &[f64]) -> Vec<f64> {
    assert!(!per_depth_costs.is_empty(), "profile must cover the tree");
    assert!(
        per_depth_costs.iter().all(|&c| c >= 0.0 && c.is_finite()),
        "costs must be finite and non-negative"
    );
    let mut weights: Vec<f64> = per_depth_costs.iter().map(|&c| det_cbrt(c)).collect();
    let max = weights.iter().fold(0.0f64, |a, &b| a.max(b));
    if max == 0.0 {
        // No workload cost anywhere: any split works; uniform is canonical.
        weights.iter_mut().for_each(|w| *w = 1.0);
        return weights;
    }
    let floor = 1e-12 * max;
    for w in &mut weights {
        if *w < floor {
            *w = floor;
        }
    }
    weights
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budgeted::BudgetSplit;
    use crate::theory;
    use hc_mech::Epsilon;

    #[test]
    fn exact_inversions_round_trip_the_theory_forms() {
        let shape = TreeShape::new(2, 10);
        let target = 123.456;
        let eps = epsilon_for_unit_error(1 << 9, target);
        assert!((theory::error_unit_full(1 << 9, eps) - target).abs() < 1e-9 * target);
        let eps = epsilon_for_unit_range_error(77, target);
        assert!((theory::error_unit_range(77, eps) - target).abs() < 1e-9 * target);
        let q = Interval::new(3, 401);
        let eps = epsilon_for_hier_error(&shape, q, target);
        assert!((theory::error_hier_range(&shape, q, eps) - target).abs() < 1e-9 * target);
        let eps = epsilon_for_thm4_hbar(&shape, target);
        assert!((theory::thm4_hbar_upper(&shape, eps) - target).abs() < 1e-9 * target);
    }

    #[test]
    fn alpha_width_inversion_matches_union_bound_arithmetic() {
        use crate::snapshot::union_bound_interval;
        let (alpha, m, sens) = (0.05f64, 9usize, 4.0f64);
        let eps = epsilon_for_alpha_width(sens, m, alpha, 50.0);
        // Forward through the closed form…
        let half = alpha_half_width(sens / eps, m, alpha);
        assert!((half - 50.0).abs() < 1e-9 * 50.0);
        // …and through the served interval arithmetic itself.
        let ci = union_bound_interval(sens / eps, m, 1.0 - alpha, 0.0);
        assert!(
            (ci.width() / 2.0 - 50.0).abs() < 1e-9 * 50.0,
            "{}",
            ci.width()
        );
        // m = 0 sums nothing: exact answer, zero width.
        assert_eq!(alpha_half_width(1.0, 0, alpha), 0.0);
    }

    #[test]
    fn det_cbrt_cubes_back_exactly_enough() {
        for &x in &[
            0.0, 1.0, 8.0, 27.0, 1e-12, 0.5, 2.0, 1234.567, 1e18, 1e300,
            4.9e-324, // smallest subnormal
        ] {
            let y = det_cbrt(x);
            let back = y * y * y;
            let tol = 1e-12 * x.max(f64::MIN_POSITIVE);
            assert!((back - x).abs() <= tol, "cbrt({x}) = {y}, cubes to {back}");
        }
        assert_eq!(det_cbrt(8.0), 2.0);
        assert_eq!(det_cbrt(27.0), 3.0);
    }

    #[test]
    fn invert_monotone_lands_on_the_boundary_and_never_violates() {
        // A pricing-shaped closure: C/ε with an awkward constant.
        let c = 9876.543;
        let eps = invert_monotone(12.5, |e| c / e);
        assert!(c / eps <= 12.5, "guarantee violated");
        assert!(
            (c / eps - 12.5).abs() < 1e-9 * 12.5,
            "not tight: {}",
            c / eps
        );
        // Quadratic forms too.
        let eps = invert_monotone(0.25, |e| 3.0 / (e * e));
        assert!((3.0 / (eps * eps) - 0.25).abs() < 1e-9 * 0.25);
        // A target met at ε → 0 costs (essentially) nothing.
        assert!(invert_monotone(10.0, |_| 1.0) < 1e-300);
    }

    #[test]
    fn optimal_split_beats_every_geometric_candidate() {
        // Predicted error Σ c_d · 2/ε_d² at total ε = 1: the cube-root
        // weights are the global optimum, so no geometric ratio can price
        // lower (up to the zero-depth floor, far inside 1e-9).
        let costs = [0.0, 0.7, 1.9, 3.2, 1.1, 0.0, 5.5];
        let total = Epsilon::new(1.0).unwrap();
        let price = |split: &BudgetSplit| -> f64 {
            split
                .level_epsilons(total, costs.len())
                .iter()
                .zip(&costs)
                .map(|(&e, &c)| c * 2.0 / (e * e))
                .fold(0.0, |a, b| a + b)
        };
        let custom = price(&BudgetSplit::Custom(optimal_custom_split(&costs)));
        for ratio in [0.25, 0.5, 1.0, 1.5, 2.0, 4.0] {
            let geo = price(&BudgetSplit::Geometric { ratio });
            assert!(
                custom <= geo * (1.0 + 1e-9),
                "custom {custom} vs geometric({ratio}) {geo}"
            );
        }
    }

    #[test]
    fn stability_forms_round_trip_and_exceed_pure_epsilon() {
        let (alpha, delta) = (0.05, 1e-6);
        let eps = stability_epsilon(alpha, delta, 40.0);
        let err = stability_alpha_error(eps, alpha, delta);
        assert!((err - 40.0).abs() < 1e-9 * 40.0);
        // The δ-thresholding term makes the stability release strictly less
        // accurate than a pure-ε Laplace bin at the same ε.
        let pure = 2.0 * (1.0 / alpha).ln() / eps;
        assert!(err > pure);
    }

    #[test]
    fn target_builder_validates_and_carries() {
        let w = vec![RangeWorkload::new(256, 4), RangeWorkload::new(256, 64)];
        let t = AccuracyTarget::new(0.05, 50.0)
            .with_workload(w.clone())
            .with_delta(1e-7);
        assert_eq!(t.alpha(), 0.05);
        assert_eq!(t.max_error(), 50.0);
        assert_eq!(t.workload(), &w[..]);
        assert_eq!(t.delta(), 1e-7);
        let se = t.stability_epsilon().unwrap();
        assert!((stability_alpha_error(se, 0.05, 1e-7) - 50.0).abs() < 1e-9 * 50.0);
        assert!(AccuracyTarget::new(0.5, 1.0).stability_epsilon().is_none());
    }

    #[test]
    #[should_panic(expected = "share one domain")]
    fn mixed_domain_workloads_are_rejected() {
        let _ = AccuracyTarget::new(0.1, 10.0)
            .with_workload(vec![RangeWorkload::new(64, 2), RangeWorkload::new(128, 2)]);
    }

    #[test]
    #[should_panic(expected = "inside (0, 1)")]
    fn alpha_must_be_a_probability() {
        let _ = AccuracyTarget::new(1.0, 10.0);
    }
}
