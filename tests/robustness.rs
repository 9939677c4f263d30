//! Failure-injection and edge-condition tests: the library must fail loudly
//! and precisely on invalid inputs, and behave sensibly at boundary sizes.

use hist_consistency::infer::{hierarchical_inference, isotonic_regression};
use hist_consistency::prelude::*;
use proptest::prelude::*;

// ---------------- invalid parameters fail loudly ----------------

#[test]
fn epsilon_rejects_the_whole_invalid_line() {
    for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(Epsilon::new(bad).is_err(), "accepted ε = {bad}");
    }
}

#[test]
fn laplace_rejects_degenerate_scales() {
    for bad in [0.0, -0.5, f64::NAN, f64::INFINITY] {
        assert!(Laplace::centered(bad).is_err(), "accepted b = {bad}");
    }
}

#[test]
#[should_panic(expected = "noisy vector must cover the tree")]
fn hierarchical_inference_checks_input_length() {
    let shape = TreeShape::new(2, 3);
    let _ = hierarchical_inference(&shape, &[1.0, 2.0]);
}

#[test]
#[should_panic(expected = "branching factor")]
fn tree_shape_rejects_unary_branching() {
    let _ = TreeShape::new(1, 3);
}

#[test]
#[should_panic(expected = "one value per tree node")]
fn tree_release_checks_vector_length() {
    let _ = TreeRelease::from_noisy(
        Epsilon::new(1.0).unwrap(),
        TreeShape::new(2, 3),
        4,
        vec![0.0; 3],
    );
}

#[test]
#[should_panic(expected = "domain exceeds the leaf level")]
fn tree_release_checks_domain_fits() {
    let _ = TreeRelease::from_noisy(
        Epsilon::new(1.0).unwrap(),
        TreeShape::new(2, 3), // 4 leaves
        5,
        vec![0.0; 7],
    );
}

// ---------------- boundary sizes behave ----------------

#[test]
fn single_bin_domain_works_end_to_end() {
    let h = Histogram::from_counts(Domain::new("x", 1).unwrap(), vec![9]);
    let mut rng = rng_from_seed(1);

    let sorted = UnattributedHistogram::new(Epsilon::new(1.0).unwrap()).release(&h, &mut rng);
    assert_eq!(sorted.baseline().len(), 1);
    assert_eq!(sorted.inferred().len(), 1);

    let tree = HierarchicalUniversal::binary(Epsilon::new(1.0).unwrap())
        .release(&h, &mut rng)
        .infer();
    assert_eq!(tree.leaves().len(), 1);
    let q = tree.range_query(Interval::new(0, 0));
    assert!(q.is_finite());
}

#[test]
fn empty_relation_supports_all_pipelines() {
    let relation = Relation::new(Domain::new("x", 16).unwrap());
    let h = Histogram::from_relation(&relation);
    assert_eq!(h.total(), 0);
    let mut rng = rng_from_seed(2);
    let tree = HierarchicalUniversal::binary(Epsilon::new(0.5).unwrap())
        .release(&h, &mut rng)
        .infer_rounded();
    // All-zero data: estimates exist, are non-negative integers.
    assert!(tree.node_values().iter().all(|&v| v >= 0.0));
}

#[test]
fn isotonic_handles_already_extreme_inputs() {
    // Huge dynamic range must not lose monotonicity to rounding error.
    let v = vec![1e12, -1e12, 1e-12, 0.0, 1e12];
    let s = isotonic_regression(&v);
    assert!(s.windows(2).all(|w| w[0] <= w[1] + 1e-3));
}

#[test]
fn rounding_mode_is_exact_at_half_integers() {
    let rel = hist_consistency::infer::FlatRelease::from_noisy(
        Epsilon::new(1.0).unwrap(),
        vec![0.5, -0.5, 1.49, -0.01],
    );
    let est = rel.estimates(Rounding::NonNegativeInteger);
    assert!(est.iter().all(|&v| v >= 0.0 && v.fract() == 0.0));
}

// ---------------- deterministic replay ----------------

#[test]
fn identical_seeds_give_identical_pipelines_across_estimators() {
    let h = Histogram::from_counts(
        Domain::new("x", 32).unwrap(),
        (0..32).map(|i| (i % 5) as u64).collect(),
    );
    let eps = Epsilon::new(0.2).unwrap();
    let run = |seed: u64| {
        let mut rng = rng_from_seed(seed);
        let s = UnattributedHistogram::new(eps).release(&h, &mut rng);
        let t = HierarchicalUniversal::binary(eps).release(&h, &mut rng);
        (s.inferred(), t.infer().node_values().to_vec())
    };
    assert_eq!(run(99), run(99));
    assert_ne!(run(99).0, run(100).0);
}

#[test]
fn confidence_intervals_are_available_from_the_mechanism() {
    let h = Histogram::from_counts(Domain::new("x", 4).unwrap(), vec![5; 4]);
    let mut rng = rng_from_seed(3);
    let out = LaplaceMechanism::new(Epsilon::new(1.0).unwrap()).release(&UnitQuery, &h, &mut rng);
    let ci = out.confidence_interval(0, 0.95);
    assert!(ci.width() > 0.0);
    assert!(ci.contains(out.values()[0]));
}

// ---------------- service registration never panics ----------------

/// The ε values the registration property draws from: subnormal and
/// near-underflow budgets whose noise scale `Δ/ε` may overflow, a tiny
/// normal one, and two ordinary ones.
const REGISTRATION_EPSILONS: [f64; 5] = [1e-310, 3e-308, 1e-300, 0.1, 1.0];

/// Branching factor number `pick` over `n` bins: 0 and 1, every k the
/// planner and the ablations use (and one past), the three around the
/// domain size, and `usize::MAX`.
fn registration_branching(pick: usize, n: usize) -> usize {
    match pick {
        0..=17 => pick,
        18 => n - 1,
        19 => n,
        20 => n + 1,
        _ => usize::MAX,
    }
}

proptest! {
    #[test]
    fn registration_refuses_or_serves_and_never_panics(
        strategy_pick in 0usize..3,
        branching_pick in 0usize..22,
        n in 1usize..4097,
        epsilon_pick in 0usize..5,
    ) {
        // `register` returns a typed error or a tenant; a registered tenant
        // publishes once and still takes writes (its lock is not poisoned).
        let branching = registration_branching(branching_pick, n);
        let strategy = match strategy_pick {
            0 => ReleaseStrategy::Flat,
            1 => ReleaseStrategy::Hierarchical { branching },
            _ => ReleaseStrategy::Budgeted { branching, split: BudgetSplit::Uniform },
        };
        let config = TenantConfig::new("t", n)
            .with_strategy(strategy)
            .with_budget(1.0, REGISTRATION_EPSILONS[epsilon_pick])
            .with_refresh_every(0);
        let mut service = HistogramService::new();
        if let Ok(id) = service.register(config) {
            prop_assert!(service.publish(id).is_ok());
            prop_assert!(service.ingest(id, &[(0, 1)]).is_ok());
        }
    }
}
