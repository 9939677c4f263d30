//! Theorem 3's two-pass closed form, per node — the reference oracle the
//! level-indexed engine (`hc_core::LevelTree`) is pinned to bit for bit.
//!
//! Given the noisy tree release `h̃ = H̃(I)`, the minimum-L2 consistent
//! answer `h̄` (parent = sum of children everywhere) is computed in two
//! linear scans:
//!
//! 1. **Bottom-up**: `z[v]` combines a node's own noisy count with the sum of
//!    its children's `z` values, weighted inversely to their variances:
//!    `z[v] = (k^l − k^(l−1))/(k^l − 1) · h̃[v] + (k^(l−1) − 1)/(k^l − 1) · Σ z[child]`
//!    where `l` is the node's height (leaves have `l = 1` and `z = h̃`).
//! 2. **Top-down**: the root takes `h̄ = z`; every other node adjusts for its
//!    parent's divergence: `h̄[v] = z[v] + (h̄[u] − Σ_w z[w]) / k`.
//!
//! The result is the ordinary-least-squares estimate of the leaf counts
//! aggregated back onto the tree (Theorem 4 proves it is the minimum-variance
//! linear unbiased estimator); the tests below check it against a generic
//! OLS solve from `hc-linalg`. Per node it recomputes `k^l` weights with
//! `powi`, resolves `parent()`/`children()` index arithmetic and allocates
//! fresh vectors, deliberately close to the paper's notation.

use hc_mech::TreeShape;

/// Computes the bottom-up `z` estimates of Sec. 4.1.
fn compute_z(shape: &TreeShape, noisy: &[f64]) -> Vec<f64> {
    assert_eq!(
        noisy.len(),
        shape.nodes(),
        "noisy vector must cover the tree"
    );
    let k = shape.branching() as f64;
    let mut z = vec![0.0f64; shape.nodes()];

    // Reverse BFS order visits children before parents.
    for v in (0..shape.nodes()).rev() {
        if shape.is_leaf(v) {
            z[v] = noisy[v];
        } else {
            let l = shape.node_height(v) as i32;
            let k_l = k.powi(l);
            let k_lm1 = k.powi(l - 1);
            let own_weight = (k_l - k_lm1) / (k_l - 1.0);
            let child_weight = (k_lm1 - 1.0) / (k_l - 1.0);
            let succ_z: f64 = shape.children(v).map(|c| z[c]).sum();
            z[v] = own_weight * noisy[v] + child_weight * succ_z;
        }
    }
    z
}

/// Theorem 3: the unique minimum-L2 tree-consistent solution `h̄`.
///
/// Returns the full consistent tree (one value per node, BFS order). Runs in
/// O(nodes) time and allocates two vectors.
pub fn hierarchical_inference(shape: &TreeShape, noisy: &[f64]) -> Vec<f64> {
    let z = compute_z(shape, noisy);
    let k = shape.branching() as f64;
    let mut h = vec![0.0f64; shape.nodes()];

    // BFS order settles every parent before its children. Each parent's
    // `Σ_w z[w]` is summed once and shared by its `k` children, so wide
    // trees stay linear.
    h[0] = z[0];
    for u in (0..shape.nodes()).filter(|&u| !shape.is_leaf(u)) {
        let succ_z: f64 = shape.children(u).map(|c| z[c]).sum();
        for v in shape.children(u) {
            h[v] = z[v] + (h[u] - succ_z) / k;
        }
    }
    h
}

/// The Sec. 4.2 non-negativity heuristic: after inference, any subtree whose
/// root estimate is ≤ 0 is zeroed wholesale.
///
/// The paper's motivation is sparse domains: higher tree levels *observe*
/// that a region is empty, and zeroing suppresses the leaf-level noise there.
/// This deliberately breaks exact parent-sum consistency at the zeroed
/// boundary (the paper calls it a heuristic and leaves constrained
/// non-negative inference to future work); range queries over the result are
/// answered from the leaves.
pub fn enforce_nonnegativity(shape: &TreeShape, values: &[f64]) -> Vec<f64> {
    assert_eq!(
        values.len(),
        shape.nodes(),
        "value vector must cover the tree"
    );
    let mut out = values.to_vec();
    let mut zeroed = vec![false; shape.nodes()];
    for v in 0..shape.nodes() {
        let parent_zeroed = shape.parent(v).is_some_and(|u| zeroed[u]);
        if parent_zeroed || out[v] <= 0.0 {
            zeroed[v] = true;
            out[v] = 0.0;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use hc_noise::rng_from_seed;
    use rand::Rng;

    #[test]
    fn paper_fig2_worked_example() {
        // Fig. 2(b): H̃(I) = ⟨13, 3, 11, 4, 1, 12, 1⟩ infers to
        // H̄(I) = ⟨14, 3, 11, 3, 0, 11, 0⟩.
        let shape = TreeShape::new(2, 3);
        let noisy = [13.0, 3.0, 11.0, 4.0, 1.0, 12.0, 1.0];
        let h = hierarchical_inference(&shape, &noisy);
        assert_close(&h, &[14.0, 3.0, 11.0, 3.0, 0.0, 11.0, 0.0], 1e-12);
    }

    #[test]
    fn consistent_input_is_fixed_point() {
        let shape = TreeShape::new(2, 3);
        let consistent = [14.0, 2.0, 12.0, 2.0, 0.0, 10.0, 2.0];
        let h = hierarchical_inference(&shape, &consistent);
        assert_close(&h, &consistent, 1e-12);
    }

    #[test]
    fn output_satisfies_all_constraints() {
        let shape = TreeShape::new(3, 4);
        let mut rng = rng_from_seed(81);
        let noisy: Vec<f64> = (0..shape.nodes())
            .map(|_| rng.random_range(-5.0..20.0))
            .collect();
        let h = hierarchical_inference(&shape, &noisy);
        for v in 0..shape.nodes() {
            if !shape.is_leaf(v) {
                let child_sum: f64 = shape.children(v).map(|c| h[c]).sum();
                assert!((h[v] - child_sum).abs() < 1e-9, "node {v}");
            }
        }
    }

    #[test]
    fn idempotent() {
        let shape = TreeShape::new(2, 4);
        let mut rng = rng_from_seed(82);
        let noisy: Vec<f64> = (0..shape.nodes())
            .map(|_| rng.random_range(-5.0..20.0))
            .collect();
        let once = hierarchical_inference(&shape, &noisy);
        let twice = hierarchical_inference(&shape, &once);
        assert_close(&once, &twice, 1e-9);
    }

    #[test]
    fn single_node_tree_passes_through() {
        let shape = TreeShape::new(2, 1);
        let h = hierarchical_inference(&shape, &[7.25]);
        assert_eq!(h, vec![7.25]);
    }

    #[test]
    fn root_matches_level_weighted_average_formula() {
        // Proof of Theorem 3: h̄[r] = (k−1)/(k^ℓ−1) · Σ_i k^i Σ_{v ∈ level(i)} h̃[v]
        // where level i counts height (leaves at exponent 0 … root at ℓ−1,
        // indexed here by node height − 1).
        let shape = TreeShape::new(2, 3);
        let mut rng = rng_from_seed(83);
        let noisy: Vec<f64> = (0..shape.nodes())
            .map(|_| rng.random_range(0.0..10.0))
            .collect();
        let h = hierarchical_inference(&shape, &noisy);

        let k = 2.0f64;
        let l = 3;
        let mut acc = 0.0;
        for depth in 0..l {
            let exponent = (l - 1 - depth) as i32;
            let level_sum: f64 = shape.level(depth).map(|v| noisy[v]).sum();
            acc += k.powi(exponent) * level_sum;
        }
        let expected_root = (k - 1.0) / (k.powi(l as i32) - 1.0) * acc;
        assert!((h[0] - expected_root).abs() < 1e-9);
    }

    #[test]
    fn agrees_with_generic_ols() {
        // Theorem 3 vs. hc-linalg: build the aggregation matrix A (rows =
        // nodes, cols = leaves), solve min ‖Ax − h̃‖², re-aggregate.
        for (k, height, seed) in [(2usize, 3usize, 84u64), (2, 4, 85), (3, 3, 86), (4, 2, 87)] {
            let shape = TreeShape::new(k, height);
            let mut rng = rng_from_seed(seed);
            let noisy: Vec<f64> = (0..shape.nodes())
                .map(|_| rng.random_range(-10.0..30.0))
                .collect();

            let a = hc_linalg::Matrix::from_fn(shape.nodes(), shape.leaves(), |v, leaf| {
                let span = shape.leaf_span(v);
                if span.contains(leaf) {
                    1.0
                } else {
                    0.0
                }
            });
            let x = hc_linalg::lstsq(&a, &noisy).expect("full column rank");
            let reaggregated = a.matvec(&x).expect("dimensions match");

            let h = hierarchical_inference(&shape, &noisy);
            assert_close(&h, &reaggregated, 1e-8);
        }
    }

    #[test]
    fn nonnegativity_zeroes_whole_subtrees() {
        let shape = TreeShape::new(2, 3);
        // Node 1's subtree is negative at the top but positive below.
        let values = [6.0, -1.0, 7.0, 2.0, -3.0, 4.0, 3.0];
        let out = enforce_nonnegativity(&shape, &values);
        assert_eq!(out[1], 0.0);
        assert_eq!(out[3], 0.0, "child of zeroed subtree");
        assert_eq!(out[4], 0.0, "child of zeroed subtree");
        assert_eq!(out[2], 7.0, "positive sibling untouched");
        assert_eq!(out[5], 4.0);
    }

    #[test]
    fn nonnegativity_output_has_no_negative_values() {
        let shape = TreeShape::new(2, 4);
        let mut rng = rng_from_seed(88);
        let noisy: Vec<f64> = (0..shape.nodes())
            .map(|_| rng.random_range(-5.0..5.0))
            .collect();
        let h = hierarchical_inference(&shape, &noisy);
        let nn = enforce_nonnegativity(&shape, &h);
        assert!(nn.iter().all(|&v| v >= 0.0));
    }
}
