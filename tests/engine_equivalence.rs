//! Cross-engine equivalence: the level-indexed engine vs the Theorem-3
//! reference oracle vs the generic `hc-linalg` OLS solve, over randomly
//! sampled tree shapes — the trust harness demanded by ISSUE 2 and extended
//! by ISSUE 3's allocation-free pipeline.
//!
//! The contracts pinned here:
//!
//! * engine ≡ `hierarchical_inference` within 1e-9 on every sampled shape
//!   (the uniform path is in fact bit-identical, which is asserted too);
//! * engine ≡ the dense OLS projection on small shapes (the "don't trust
//!   either closed form" check);
//! * the slab-tiled sweeps ≡ the untiled level sweeps, bit for bit;
//! * the weighted (per-level GLS) tables ≡ the per-node weighted oracle;
//! * the engine's level-sweep zeroing and rounding ≡ the
//!   `enforce_nonnegativity` walk followed by rounding every node
//!   (including the `<= 0.0` boundary and parent-zeroed cascades);
//! * `release_and_infer(_rounded)` ≡ release-then-infer through the old
//!   owned-release path at the same seed, bit for bit;
//! * the fused trial, which counts the tree inside its noised upward slabs,
//!   ≡ `evaluate_into_slice` → `add_noise_with` → `infer_into` (→
//!   `zero_round_in_place`), bit for bit, per backend.

use hc_testutil::assert_close;
use hist_consistency::linalg::{lstsq, Matrix};
use hist_consistency::prelude::*;
use proptest::prelude::*;
use rand::Rng;

fn random_noisy(shape: &TreeShape, seed: u64) -> Vec<f64> {
    let mut rng = rng_from_seed(seed);
    (0..shape.nodes())
        .map(|_| rng.random_range(-50.0..120.0))
        .collect()
}

/// The Sec. 4.2 + 5.2 oracle: the per-node zeroing walk, then rounding
/// every node.
fn zero_then_round(shape: &TreeShape, values: &[f64]) -> Vec<f64> {
    let mut out = enforce_nonnegativity(shape, values);
    for v in &mut out {
        *v = Rounding::NonNegativeInteger.apply(*v);
    }
    out
}

proptest! {
    #[test]
    fn engine_matches_reference_on_random_shapes(
        k in 2usize..6,
        height in 1usize..7,
        seed in any::<u64>(),
    ) {
        let shape = TreeShape::new(k, height);
        let noisy = random_noisy(&shape, seed);
        let reference = hierarchical_inference(&shape, &noisy);
        let engine = LevelTree::new(&shape).infer(&noisy);
        assert_close(&engine, &reference, 1e-9);
        // The uniform tables use the oracle's own expressions: exact match.
        prop_assert_eq!(engine, reference);
    }

    #[test]
    fn engine_matches_generic_ols_on_small_shapes(
        k in 2usize..5,
        height in 2usize..5,
        seed in any::<u64>(),
    ) {
        let shape = TreeShape::new(k, height);
        let noisy = random_noisy(&shape, seed);

        let a = Matrix::from_fn(shape.nodes(), shape.leaves(), |v, leaf| {
            if shape.leaf_span(v).contains(leaf) { 1.0 } else { 0.0 }
        });
        let x = lstsq(&a, &noisy).expect("aggregation matrix has full column rank");
        let ols = a.matvec(&x).expect("dimensions match");

        let engine = LevelTree::new(&shape).infer(&noisy);
        assert_close(&engine, &ols, 1e-7);
    }

    #[test]
    fn weighted_engine_matches_weighted_oracle(
        k in 2usize..4,
        height in 1usize..6,
        seed in any::<u64>(),
    ) {
        let shape = TreeShape::new(k, height);
        let noisy = random_noisy(&shape, seed);
        let mut rng = rng_from_seed(seed ^ 0x5A5A);
        let level_vars: Vec<f64> = (0..height).map(|_| rng.random_range(0.1..25.0)).collect();
        let mut per_node = vec![0.0f64; shape.nodes()];
        for (d, &var) in level_vars.iter().enumerate() {
            for v in shape.level(d) {
                per_node[v] = var;
            }
        }
        let oracle = weighted_hierarchical_inference(&shape, &noisy, &per_node);
        let engine = LevelTree::with_level_variances(&shape, &level_vars);
        prop_assert_eq!(engine.infer(&noisy), oracle);
    }

    #[test]
    fn release_pipeline_is_engine_backed_and_consistent(
        domain_size in 1usize..70,
        seed in any::<u64>(),
    ) {
        // End to end: TreeRelease::infer (engine) ≡ oracle over the same
        // noisy vector, and the result satisfies the constraints.
        let domain = Domain::new("x", domain_size).unwrap();
        let mut rng = rng_from_seed(seed);
        let counts: Vec<u64> = (0..domain_size).map(|_| rng.random_range(0u64..9)).collect();
        let histogram = Histogram::from_counts(domain, counts);
        let release = HierarchicalUniversal::binary(Epsilon::new(0.5).unwrap())
            .release(&histogram, &mut rng);
        let tree = release.infer();
        let oracle = hierarchical_inference(release.shape(), release.noisy_values());
        prop_assert_eq!(tree.node_values(), &oracle[..]);
        prop_assert!(tree.max_consistency_violation() < 1e-9);
    }

    #[test]
    fn tiled_sweeps_match_untiled_bit_for_bit(
        k in 2usize..5,
        height in 1usize..8,
        seed in any::<u64>(),
    ) {
        let shape = TreeShape::new(k, height);
        let noisy = random_noisy(&shape, seed);
        let tree = LevelTree::new(&shape);
        prop_assert_eq!(tree.infer(&noisy), tree.infer_untiled(&noisy));
    }

    #[test]
    fn engine_zeroing_matches_reference_walk(
        k in 2usize..5,
        height in 1usize..8,
        seed in any::<u64>(),
    ) {
        // Values straddling zero so subtree zeroing fires; the engine's
        // top-down zero+round sweep must match the per-node parent() walk
        // followed by rounding, bit for bit.
        let shape = TreeShape::new(k, height);
        let mut rng = rng_from_seed(seed);
        let values: Vec<f64> = (0..shape.nodes())
            .map(|_| rng.random_range(-4.0..4.0))
            .collect();
        let reference = zero_then_round(&shape, &values);
        let mut swept = values;
        LevelTree::new(&shape).zero_round_in_place(&mut swept);
        prop_assert_eq!(swept, reference);
    }

    #[test]
    fn engine_zeroing_pins_boundary_and_cascades(
        height in 2usize..6,
        zero_at in any::<u64>(),
        negate_zero in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // Plant an exact ±0.0 at an arbitrary node: its subtree must zero
        // wholesale (the `<= 0.0` boundary), cascading through positive
        // descendants, exactly as the reference walk decides.
        let shape = TreeShape::new(2, height);
        let mut rng = rng_from_seed(seed);
        let mut values: Vec<f64> = (0..shape.nodes())
            .map(|_| rng.random_range(0.5..4.0)) // strictly positive elsewhere
            .collect();
        let v = (zero_at as usize) % shape.nodes();
        values[v] = if negate_zero { -0.0 } else { 0.0 };
        let reference = zero_then_round(&shape, &values);
        let mut swept = values;
        LevelTree::new(&shape).zero_round_in_place(&mut swept);
        prop_assert_eq!(&swept, &reference);
        // The planted node's whole leaf span is zeroed.
        let span = shape.leaf_span(v);
        for leaf in span.lo()..=span.hi() {
            prop_assert_eq!(swept[shape.leaf_node(leaf)], 0.0);
        }
    }

    #[test]
    fn release_and_infer_matches_old_path_at_fixed_seeds(
        domain_size in 1usize..70,
        seed in any::<u64>(),
    ) {
        // The fused allocation-free trial ≡ owned release → infer(_rounded)
        // through the estimator types, bit for bit, at the same RNG state.
        let domain = Domain::new("x", domain_size).unwrap();
        let mut rng = rng_from_seed(seed ^ 0xC0FFEE);
        let counts: Vec<u64> = (0..domain_size).map(|_| rng.random_range(0u64..6)).collect();
        let histogram = Histogram::from_counts(domain, counts);
        let pipeline = HierarchicalUniversal::binary(Epsilon::new(0.4).unwrap());
        let prepared = pipeline.prepare(domain_size);
        let shape = TreeShape::for_domain(domain_size, 2);
        let mut engine = BatchInference::for_shape(&shape);
        let mut out = Vec::new();

        engine.release_and_infer(&prepared, &histogram, &mut rng_from_seed(seed), &mut out);
        let old = pipeline.release(&histogram, &mut rng_from_seed(seed)).infer();
        prop_assert_eq!(&out[..], old.node_values());

        engine.release_and_infer_rounded(
            &prepared, &histogram, &mut rng_from_seed(seed), &mut out,
        );
        let old_rounded = pipeline
            .release(&histogram, &mut rng_from_seed(seed))
            .infer_rounded();
        prop_assert_eq!(&out[..], old_rounded.node_values());
    }
}

/// Bit-level slice equality: `assert_eq!` on `f64` cannot see a `−0.0` /
/// `+0.0` flip.
fn assert_same_bits(got: &[f64], expect: &[f64], what: &str) {
    assert_eq!(got.len(), expect.len(), "{what}: length");
    if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != expect[i].to_bits()) {
        panic!("{what}: node {i} is {:?}, expected {:?}", got[i], expect[i]);
    }
}

#[test]
fn fused_trial_counts_the_tree_bit_for_bit() {
    // The fused trial never builds the true-count vector: it draws the
    // internal prefix's noise first, then writes each slab's leaf counts,
    // noises them and adds the in-slab internal counts before the upward
    // pass reads them. It must equal the staged trial over the evaluator's
    // vector bit for bit — noisy release and output, rounded or not, per
    // backend — including padded leaves, multi-slab heights and totals at
    // (and past) 2^53.
    const TOTAL: u64 = (1 << 53) - 1;
    let cases: [(usize, usize, &str); 8] = [
        (2, 1, "one bin"),
        (2, 1000, "k=2 padded, one slab"),
        (2, 10_000, "k=2 padded, 2 slabs"),
        (3, 100, "k=3 padded, one slab"),
        (3, 10_000, "k=3 padded, 3 slabs"),
        (16, 300, "k=16 padded, one slab"),
        (16, 40_000, "k=16 padded, 16 slabs"),
        (3, 9_000, "k=3 padded, 3 slabs, huge bins"),
    ];
    for (k, domain_size, label) in cases {
        let mut rng = rng_from_seed(domain_size as u64 ^ k as u64);
        let mut counts: Vec<u64> = (0..domain_size)
            .map(|i| {
                if i % 5 == 0 {
                    0
                } else {
                    rng.random_range(0u64..40)
                }
            })
            .collect();
        if label.ends_with("huge bins") {
            // Far past 2^53: only the evaluator's own summation order
            // reproduces its doubles here (a pair sum rounds the same either
            // way, hence k = 3).
            for (i, c) in counts.iter_mut().enumerate().step_by(97) {
                *c = (1u64 << 60) / (i as u64 + 3);
            }
        } else if domain_size > 1 {
            // Total exactly 2^53 − 1, the ingest bound's last value.
            let rest: u64 = counts[1..].iter().sum();
            counts[0] = TOTAL - rest;
        }
        let histogram = Histogram::from_counts(Domain::new("x", domain_size).unwrap(), counts);
        let query = HierarchicalQuery::new(k);
        let shape = query.shape(domain_size);
        assert!(
            shape.leaves() > domain_size || domain_size == 1,
            "{label}: padded"
        );
        let tree = LevelTree::new(&shape);
        let mut engine = BatchInference::for_shape(&shape);
        let seeds = SeedStream::new(0xF01D ^ domain_size as u64);
        let trials = 2;
        for backend in [NoiseBackend::Reference, NoiseBackend::FastLnWide] {
            let prepared = LaplaceMechanism::new(Epsilon::new(0.5).unwrap())
                .with_backend(backend)
                .prepare(query, domain_size);
            for rounded in [false, true] {
                let what = format!("{label} {backend:?} rounded={rounded}");
                let (mut noisy_batch, mut out_batch) = (Vec::new(), Vec::new());
                engine.release_and_infer_batch(
                    &prepared,
                    &histogram,
                    seeds,
                    trials,
                    rounded,
                    Some(&mut noisy_batch),
                    &mut out_batch,
                );
                let n = shape.nodes();
                for t in 0..trials {
                    // The staged trial: evaluate, perturb, infer, zero/round.
                    let mut staged_rng = seeds.rng(t as u64);
                    let mut noisy = vec![0.0; n];
                    prepared.query().evaluate_into_slice(&histogram, &mut noisy);
                    prepared
                        .noise()
                        .add_noise_with(backend, &mut staged_rng, &mut noisy);
                    let mut staged = tree.infer(&noisy);
                    if rounded {
                        tree.zero_round_in_place(&mut staged);
                    }
                    let seg = t * n..(t + 1) * n;
                    assert_same_bits(&noisy_batch[seg.clone()], &noisy, &format!("{what} noisy"));
                    assert_same_bits(&out_batch[seg], &staged, &format!("{what} out"));
                    // The standalone entry points run the same fused trial.
                    let mut out = Vec::new();
                    let mut rng = seeds.rng(t as u64);
                    if rounded {
                        engine.release_and_infer_rounded(&prepared, &histogram, &mut rng, &mut out);
                    } else {
                        engine.release_and_infer(&prepared, &histogram, &mut rng, &mut out);
                    }
                    assert_same_bits(&out, &staged, &format!("{what} standalone"));
                }
            }
        }
    }
}
