//! Cross-validation of the paper's closed forms against the generic solver
//! stack in `hc-linalg` — the "don't trust the proofs" tests.

use hc_testutil::assert_close;
use hc_testutil::oracle::{hierarchical_inference, minmax_reference};
use hist_consistency::linalg::{conjugate_gradient, lstsq, CgOptions, CsrMatrix, Matrix};
use hist_consistency::prelude::*;
use rand::Rng;

fn aggregation_matrix(shape: &TreeShape) -> Matrix {
    Matrix::from_fn(shape.nodes(), shape.leaves(), |v, leaf| {
        if shape.leaf_span(v).contains(leaf) {
            1.0
        } else {
            0.0
        }
    })
}

fn aggregation_csr(shape: &TreeShape) -> CsrMatrix {
    let mut triplets = Vec::new();
    for v in 0..shape.nodes() {
        let span = shape.leaf_span(v);
        for leaf in span.lo()..=span.hi() {
            triplets.push((v, leaf, 1.0));
        }
    }
    CsrMatrix::from_triplets(shape.nodes(), shape.leaves(), triplets)
}

#[test]
fn theorem3_equals_dense_ols_across_shapes() {
    for (k, height, seed) in [(2usize, 5usize, 1u64), (2, 6, 2), (3, 4, 3), (5, 3, 4)] {
        let shape = TreeShape::new(k, height);
        let mut rng = rng_from_seed(seed);
        let noisy: Vec<f64> = (0..shape.nodes())
            .map(|_| rng.random_range(-20.0..50.0))
            .collect();

        let closed_form = hierarchical_inference(&shape, &noisy);

        let a = aggregation_matrix(&shape);
        let leaves = lstsq(&a, &noisy).expect("aggregation matrix has full column rank");
        let generic = a.matvec(&leaves).expect("dimensions match");
        assert_close(&closed_form, &generic, 1e-7);
    }
}

#[test]
fn theorem3_equals_sparse_cg_at_larger_scale() {
    // Height 11 binary tree: 1024 leaves, 2047 nodes — far past what the
    // dense path can verify comfortably.
    let shape = TreeShape::new(2, 11);
    let mut rng = rng_from_seed(5);
    let noisy: Vec<f64> = (0..shape.nodes())
        .map(|_| rng.random_range(-30.0..80.0))
        .collect();

    let closed_form = hierarchical_inference(&shape, &noisy);

    let a = aggregation_csr(&shape);
    let rhs = a.transpose_matvec(&noisy).expect("dimensions match");
    let solved = conjugate_gradient(
        a.gram_operator(),
        &rhs,
        CgOptions {
            tolerance: 1e-12,
            ..CgOptions::default()
        },
    )
    .expect("SPD normal equations converge");
    let generic = a.matvec(&solved.x).expect("dimensions match");
    assert_close(&closed_form, &generic, 1e-5);
}

#[test]
fn theorem1_minmax_equals_pava_on_adversarial_patterns() {
    let patterns: Vec<Vec<f64>> = vec![
        vec![5.0, 4.0, 3.0, 2.0, 1.0],                  // fully reversed
        vec![1.0, 1.0, 1.0, 1.0],                       // constant
        vec![10.0, -10.0, 10.0, -10.0, 10.0],           // alternating
        vec![0.0, 100.0, 0.0, 0.0, 0.0, 0.0, 0.0],      // one spike
        vec![-5.0, -4.0, -6.0, -3.0, -7.0, -2.0, -8.0], // negative sawtooth
    ];
    for p in patterns {
        let pava = isotonic_regression(&p);
        let minmax = minmax_reference(&p);
        assert_close(&pava, &minmax, 1e-9);
    }
}

#[test]
fn inferred_tree_beats_every_individual_query_variance() {
    // Theorem 4(ii) instantiated: for each *node* query, the inferred
    // estimate's empirical variance is at most the raw noisy count's.
    let shape = TreeShape::new(2, 6);
    let n = shape.leaves();
    let histogram = Histogram::from_counts(
        Domain::new("x", n).expect("non-empty"),
        (0..n).map(|i| (i % 3) as u64).collect(),
    );
    let pipeline = HierarchicalUniversal::binary(Epsilon::new(0.5).unwrap());
    let truth = HierarchicalQuery::binary().evaluate(&histogram);

    let trials = 400;
    let mut raw_sq = vec![0.0; shape.nodes()];
    let mut inf_sq = vec![0.0; shape.nodes()];
    let mut rng = rng_from_seed(6);
    for _ in 0..trials {
        let release = pipeline.release(&histogram, &mut rng);
        let inferred = hierarchical_inference(&shape, release.noisy_values());
        for v in 0..shape.nodes() {
            raw_sq[v] += (release.noisy_values()[v] - truth[v]).powi(2);
            inf_sq[v] += (inferred[v] - truth[v]).powi(2);
        }
    }
    let mut better = 0;
    for v in 0..shape.nodes() {
        if inf_sq[v] <= raw_sq[v] {
            better += 1;
        }
    }
    // Sampling noise allows a few inversions; the vast majority must improve.
    assert!(
        better * 100 >= shape.nodes() * 95,
        "only {better}/{} nodes improved",
        shape.nodes()
    );
}

#[test]
fn root_estimate_variance_shrinks_as_theory_predicts() {
    // The root of the inferred tree averages ~n/ℓ-worth of evidence; its
    // variance must be far below the raw root's 2ℓ²/ε².
    let shape = TreeShape::new(2, 8);
    let n = shape.leaves();
    let histogram = Histogram::from_counts(Domain::new("x", n).expect("non-empty"), vec![2; n]);
    let eps = Epsilon::new(1.0).unwrap();
    let pipeline = HierarchicalUniversal::binary(eps);
    let truth = (2 * n) as f64;

    let trials = 500;
    let mut raw_sq = 0.0;
    let mut inf_sq = 0.0;
    let mut rng = rng_from_seed(7);
    for _ in 0..trials {
        let release = pipeline.release(&histogram, &mut rng);
        raw_sq += (release.noisy_values()[0] - truth).powi(2);
        inf_sq += (release.infer().node_values()[0] - truth).powi(2);
    }
    let raw_var = raw_sq / trials as f64;
    let inf_var = inf_sq / trials as f64;
    assert!(
        inf_var * 1.5 < raw_var,
        "root variance: raw {raw_var} vs inferred {inf_var}"
    );
}
