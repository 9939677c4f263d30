//! Weighted hierarchical inference: Theorem 3 generalized to heteroscedastic
//! noise, per node — the reference oracle for the engine's GLS tables
//! (`hc_core::LevelTree::with_level_variances`).
//!
//! The paper splits ε uniformly over the tree (every node gets `Lap(ℓ/ε)`),
//! and Theorem 3's weights are specialized to that case. An alternative the
//! literature explored soon after (e.g. Cormode et al., ICDE 2012) is to
//! give each *level* its own budget `ε_l` with `Σ ε_l = ε` — each level is a
//! partition of the domain, so a record touches one node per level and the
//! release is `Σ ε_l`-differentially private by sequential composition.
//! Nodes then carry different noise variances and the minimum-variance
//! consistent estimate is *generalized* least squares.
//!
//! On a tree, GLS is exact two-pass message passing:
//!
//! * **Upward**: `z[v]` fuses the node's own observation with the sum of its
//!   children's `z` values by inverse-variance weighting.
//! * **Downward**: the parent's surplus `h̄[u] − Σ z[w]` is distributed to
//!   the children *proportionally to their `z`-variances* (a high-variance
//!   child absorbs more correction).
//!
//! With equal variances this reduces exactly to the paper's recurrences, and
//! the tests below check the general case against `hc-linalg`'s weighted
//! least squares.

use hc_mech::TreeShape;

/// Result of the upward pass: fused estimates and their variances.
#[derive(Debug, Clone)]
struct Upward {
    z: Vec<f64>,
    var: Vec<f64>,
}

fn upward_pass(shape: &TreeShape, noisy: &[f64], variances: &[f64]) -> Upward {
    let n = shape.nodes();
    let mut z = vec![0.0f64; n];
    let mut var = vec![0.0f64; n];
    for v in (0..n).rev() {
        if shape.is_leaf(v) {
            z[v] = noisy[v];
            var[v] = variances[v];
        } else {
            let succ_z: f64 = shape.children(v).map(|c| z[c]).sum();
            let succ_var: f64 = shape.children(v).map(|c| var[c]).sum();
            // Inverse-variance fusion of the two independent estimates of
            // this subtree's total: own observation vs children's sum.
            let w_own = 1.0 / variances[v];
            let w_succ = 1.0 / succ_var;
            z[v] = (w_own * noisy[v] + w_succ * succ_z) / (w_own + w_succ);
            var[v] = 1.0 / (w_own + w_succ);
        }
    }
    Upward { z, var }
}

/// Minimum-variance (GLS) tree-consistent estimate for per-node noise
/// variances.
///
/// `variances[v]` is the noise variance of `noisy[v]`; all must be positive
/// and finite. For uniform variances this equals
/// [`crate::oracle::hierarchical_inference`] exactly.
pub fn weighted_hierarchical_inference(
    shape: &TreeShape,
    noisy: &[f64],
    variances: &[f64],
) -> Vec<f64> {
    assert_eq!(noisy.len(), shape.nodes(), "one observation per node");
    assert_eq!(variances.len(), shape.nodes(), "one variance per node");
    assert!(
        variances.iter().all(|&v| v > 0.0 && v.is_finite()),
        "variances must be positive and finite"
    );

    let up = upward_pass(shape, noisy, variances);
    let mut h = vec![0.0f64; shape.nodes()];
    // BFS order settles every parent before its children. Each parent's
    // `Σ z[w]` and `Σ var[w]` are summed once and shared by its `k`
    // children, so wide trees stay linear.
    h[0] = up.z[0];
    for u in (0..shape.nodes()).filter(|&u| !shape.is_leaf(u)) {
        let succ_z: f64 = shape.children(u).map(|c| up.z[c]).sum();
        let succ_var: f64 = shape.children(u).map(|c| up.var[c]).sum();
        for v in shape.children(u) {
            // Distribute the parent's surplus proportionally to variance:
            // the GLS projection of (z_w) onto Σ x_w = h̄[u].
            h[v] = up.z[v] + up.var[v] / succ_var * (h[u] - succ_z);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use crate::oracle::hierarchical_inference;
    use hc_noise::rng_from_seed;
    use rand::Rng;

    #[test]
    fn uniform_variances_reduce_to_theorem3() {
        for (k, height, seed) in [(2usize, 4usize, 1u64), (3, 3, 2), (2, 6, 3)] {
            let shape = TreeShape::new(k, height);
            let mut rng = rng_from_seed(seed);
            let noisy: Vec<f64> = (0..shape.nodes())
                .map(|_| rng.random_range(-20.0..40.0))
                .collect();
            let uniform = vec![3.7; shape.nodes()];
            let weighted = weighted_hierarchical_inference(&shape, &noisy, &uniform);
            let classic = hierarchical_inference(&shape, &noisy);
            assert_close(&weighted, &classic, 1e-9);
        }
    }

    #[test]
    fn output_is_consistent_for_arbitrary_variances() {
        let shape = TreeShape::new(2, 5);
        let mut rng = rng_from_seed(4);
        let noisy: Vec<f64> = (0..shape.nodes())
            .map(|_| rng.random_range(-10.0..30.0))
            .collect();
        let variances: Vec<f64> = (0..shape.nodes())
            .map(|_| rng.random_range(0.1..20.0))
            .collect();
        let h = weighted_hierarchical_inference(&shape, &noisy, &variances);
        for v in 0..shape.nodes() {
            if !shape.is_leaf(v) {
                let child_sum: f64 = shape.children(v).map(|c| h[c]).sum();
                assert!((h[v] - child_sum).abs() < 1e-9, "node {v}");
            }
        }
    }

    #[test]
    fn matches_generalized_least_squares() {
        // GLS via hc-linalg: minimize Σ (noisy_v − (Ax)_v)² / σ²_v over leaf
        // unknowns x; the tree message passing must agree.
        for (k, height, seed) in [(2usize, 4usize, 5u64), (3, 3, 6), (2, 5, 7)] {
            let shape = TreeShape::new(k, height);
            let mut rng = rng_from_seed(seed);
            let noisy: Vec<f64> = (0..shape.nodes())
                .map(|_| rng.random_range(-15.0..25.0))
                .collect();
            let variances: Vec<f64> = (0..shape.nodes())
                .map(|_| rng.random_range(0.5..8.0))
                .collect();

            let a = hc_linalg::Matrix::from_fn(shape.nodes(), shape.leaves(), |v, leaf| {
                if shape.leaf_span(v).contains(leaf) {
                    1.0
                } else {
                    0.0
                }
            });
            let weights: Vec<f64> = variances.iter().map(|&s| 1.0 / s).collect();
            let x = hc_linalg::lstsq_weighted(&a, &noisy, &weights).expect("full rank");
            let gls = a.matvec(&x).expect("dimensions match");

            let ours = weighted_hierarchical_inference(&shape, &noisy, &variances);
            assert_close(&ours, &gls, 1e-7);
        }
    }

    #[test]
    fn near_noiseless_node_dominates_its_subtree() {
        // If one node's observation is (almost) exact, the fused estimate of
        // its subtree total must sit on it.
        let shape = TreeShape::new(2, 3);
        let noisy = vec![100.0, 37.0, 60.0, 10.0, 10.0, 30.0, 30.0];
        let mut variances = vec![50.0; 7];
        variances[1] = 1e-9; // node 1's count of 37 is essentially exact
        let h = weighted_hierarchical_inference(&shape, &noisy, &variances);
        assert!((h[1] - 37.0).abs() < 1e-3, "h[1] = {}", h[1]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_variance() {
        let shape = TreeShape::new(2, 2);
        let _ = weighted_hierarchical_inference(&shape, &[1.0, 1.0, 1.0], &[1.0, 0.0, 1.0]);
    }
}
