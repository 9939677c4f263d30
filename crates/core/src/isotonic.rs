//! Isotonic regression: the minimum-L2 projection onto ordered sequences.
//!
//! Given the noisy sorted release `s̃`, the constrained-inference answer `s̄`
//! minimizes `‖s̃ − s‖₂` subject to `s[i] ≤ s[i+1]` (Sec. 3.1). Theorem 1
//! gives the min-max characterization
//! `s̄[k] = L_k = U_k` with
//! `L_k = min_{j ∈ [k,n]} max_{i ∈ [1,j]} M̃[i,j]` — an instance of isotonic
//! regression, solvable in linear time by pool-adjacent-violators (PAVA,
//! Barlow et al. 1972).
//!
//! [`isotonic_regression`] is the production PAVA path; the test oracle
//! `hc_testutil::oracle::minmax_reference` evaluates Theorem 1's formula
//! directly (O(n²)) and serves as its executable specification.

/// Linear-time isotonic regression (pool adjacent violators).
///
/// Returns the nondecreasing sequence closest to `values` in L2. Ties are
/// resolved exactly as the projection demands: merged blocks take their mean.
pub fn isotonic_regression(values: &[f64]) -> Vec<f64> {
    let weights = vec![1.0; values.len()];
    isotonic_regression_weighted(values, &weights)
}

/// Weighted isotonic regression minimizing `Σ wᵢ (s̃ᵢ − sᵢ)²`.
///
/// The unweighted projection is the `wᵢ = 1` case; the weighted form supports
/// inference over releases with heterogeneous noise scales (used by the
/// matrix-mechanism ablation).
pub fn isotonic_regression_weighted(values: &[f64], weights: &[f64]) -> Vec<f64> {
    assert_eq!(values.len(), weights.len(), "one weight per value");
    assert!(
        weights.iter().all(|&w| w > 0.0 && w.is_finite()),
        "weights must be positive and finite"
    );

    // Blocks of pooled values: (weighted sum, total weight, member count).
    struct Block {
        sum: f64,
        weight: f64,
        len: usize,
    }
    impl Block {
        fn mean(&self) -> f64 {
            self.sum / self.weight
        }
    }

    let mut blocks: Vec<Block> = Vec::with_capacity(values.len());
    for (&v, &w) in values.iter().zip(weights) {
        blocks.push(Block {
            sum: v * w,
            weight: w,
            len: 1,
        });
        // Pool while the ordering constraint is violated.
        while blocks.len() >= 2 {
            let last = blocks.len() - 1;
            if blocks[last - 1].mean() > blocks[last].mean() {
                let top = blocks.pop().expect("len >= 2");
                let prev = blocks.last_mut().expect("len >= 1");
                prev.sum += top.sum;
                prev.weight += top.weight;
                prev.len += top.len;
            } else {
                break;
            }
        }
    }

    let mut out = Vec::with_capacity(values.len());
    for b in &blocks {
        let m = b.mean();
        out.extend(std::iter::repeat_n(m, b.len));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_noise::rng_from_seed;
    use hc_testutil::assert_close;
    use hc_testutil::oracle::{minmax_reference, minmax_reference_dual};
    use rand::Rng;

    #[test]
    fn already_sorted_is_fixed_point() {
        // Example 4, case 1: s̃ = ⟨9, 10, 14⟩ is ordered, s̄ = s̃.
        let s = isotonic_regression(&[9.0, 10.0, 14.0]);
        assert_eq!(s, vec![9.0, 10.0, 14.0]);
    }

    #[test]
    fn paper_example4_case2() {
        // s̃ = ⟨9, 14, 10⟩ → s̄ = ⟨9, 12, 12⟩.
        let s = isotonic_regression(&[9.0, 14.0, 10.0]);
        assert_close(&s, &[9.0, 12.0, 12.0], 1e-12);
    }

    #[test]
    fn paper_example4_case3() {
        // s̃ = ⟨14, 9, 10, 15⟩ → s̄ = ⟨11, 11, 11, 15⟩ with ‖s̃−s̄‖² = 14.
        let s = isotonic_regression(&[14.0, 9.0, 10.0, 15.0]);
        assert_close(&s, &[11.0, 11.0, 11.0, 15.0], 1e-12);
        let dist: f64 = [14.0, 9.0, 10.0, 15.0]
            .iter()
            .zip(&s)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        assert!((dist - 14.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(isotonic_regression(&[]).is_empty());
        assert_eq!(isotonic_regression(&[3.5]), vec![3.5]);
    }

    #[test]
    fn strictly_decreasing_pools_to_global_mean() {
        let s = isotonic_regression(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_close(&s, &[3.0; 5], 1e-12);
    }

    #[test]
    fn output_is_always_nondecreasing() {
        let mut rng = rng_from_seed(71);
        for _ in 0..50 {
            let v: Vec<f64> = (0..40).map(|_| rng.random_range(-10.0..10.0)).collect();
            let s = isotonic_regression(&v);
            assert!(s.windows(2).all(|w| w[0] <= w[1] + 1e-12));
        }
    }

    #[test]
    fn projection_preserves_total_mass() {
        // Pooling replaces blocks by their mean, so the sum is invariant —
        // a known property of L2 isotonic regression with uniform weights.
        let mut rng = rng_from_seed(72);
        for _ in 0..20 {
            let v: Vec<f64> = (0..30).map(|_| rng.random_range(-5.0..5.0)).collect();
            let s = isotonic_regression(&v);
            let sum_in: f64 = v.iter().sum();
            let sum_out: f64 = s.iter().sum();
            assert!((sum_in - sum_out).abs() < 1e-9);
        }
    }

    #[test]
    fn idempotent() {
        let mut rng = rng_from_seed(73);
        let v: Vec<f64> = (0..50).map(|_| rng.random_range(-3.0..3.0)).collect();
        let once = isotonic_regression(&v);
        let twice = isotonic_regression(&once);
        assert_close(&once, &twice, 1e-12);
    }

    #[test]
    fn matches_minmax_reference_on_random_inputs() {
        // Theorem 1's formula is the specification; PAVA must agree.
        let mut rng = rng_from_seed(74);
        for trial in 0..40 {
            let n = 1 + (trial % 17);
            let v: Vec<f64> = (0..n).map(|_| rng.random_range(-8.0..8.0)).collect();
            let pava = isotonic_regression(&v);
            let lk = minmax_reference(&v);
            let uk = minmax_reference_dual(&v);
            assert_close(&pava, &lk, 1e-9);
            assert_close(&lk, &uk, 1e-9); // Theorem 1: L_k = U_k
        }
    }

    #[test]
    fn no_feasible_point_is_closer() {
        // Projection optimality: random feasible (sorted) candidates are
        // never closer to s̃ than the PAVA output.
        let mut rng = rng_from_seed(75);
        let v: Vec<f64> = (0..20).map(|_| rng.random_range(-5.0..5.0)).collect();
        let s = isotonic_regression(&v);
        let proj_dist: f64 = v.iter().zip(&s).map(|(a, b)| (a - b) * (a - b)).sum();
        for _ in 0..200 {
            let mut cand: Vec<f64> = (0..20).map(|_| rng.random_range(-6.0..6.0)).collect();
            cand.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let cand_dist: f64 = v.iter().zip(&cand).map(|(a, b)| (a - b) * (a - b)).sum();
            assert!(cand_dist >= proj_dist - 1e-9);
        }
    }

    #[test]
    fn translation_equivariance() {
        // Lemma 2's invariance: isotonic(s̃ + δ) = isotonic(s̃) + δ.
        let v = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let base = isotonic_regression(&v);
        let shifted: Vec<f64> = v.iter().map(|x| x + 7.5).collect();
        let out = isotonic_regression(&shifted);
        let expect: Vec<f64> = base.iter().map(|x| x + 7.5).collect();
        assert_close(&out, &expect, 1e-12);
    }

    #[test]
    fn weighted_reduces_to_unweighted_with_unit_weights() {
        let v = [2.0, -1.0, 0.5, 3.0, 2.5];
        let a = isotonic_regression(&v);
        let b = isotonic_regression_weighted(&v, &[1.0; 5]);
        assert_close(&a, &b, 1e-12);
    }

    #[test]
    fn weighted_mean_respects_weights() {
        // Two violating points with weights 3 and 1 pool to weighted mean.
        let s = isotonic_regression_weighted(&[4.0, 0.0], &[3.0, 1.0]);
        assert_close(&s, &[3.0, 3.0], 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_weights() {
        let _ = isotonic_regression_weighted(&[1.0, 2.0], &[1.0, 0.0]);
    }
}
