//! Failure-injection and edge-condition tests: the library must fail loudly
//! and precisely on invalid inputs, and behave sensibly at boundary sizes.

use hist_consistency::infer::isotonic_regression;
use hist_consistency::prelude::*;
use hist_consistency::serve::ServeError;
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
    let _ = LevelTree::new(&shape).infer(&[1.0, 2.0]);
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
/// normal one, two ordinary ones, and two on the overflow side, whose
/// per-level `ε_d²` overflows and whose noise scale may underflow.
const REGISTRATION_EPSILONS: [f64; 7] = [1e-310, 3e-308, 1e-300, 0.1, 1.0, 1e300, f64::MAX];

/// Branching factor number `pick` over `n` bins: 0 and 1, every k the
/// planner and the ablations use (and one past), the three around the
/// domain size (the one past saturates at `usize::MAX`), and `usize::MAX`.
fn registration_branching(pick: usize, n: usize) -> usize {
    match pick {
        0..=17 => pick,
        18 => n - 1,
        19 => n,
        20 => n.saturating_add(1),
        _ => usize::MAX,
    }
}

/// Domains no tenant's buffers can hold: each needs a prefix of more than
/// `isize::MAX` bytes, so the first allocation would panic with "capacity
/// overflow".
const UNALLOCATABLE_DOMAINS: [usize; 2] = [1 << 61, usize::MAX];

/// Domain size number `pick`: a small domain `n` in three picks of four,
/// else one of [`UNALLOCATABLE_DOMAINS`].
fn registration_domain(pick: usize, n: usize) -> usize {
    match pick {
        0..=5 => n,
        _ => UNALLOCATABLE_DOMAINS[pick - 6],
    }
}

proptest! {
    #[test]
    fn registration_refuses_or_serves_and_never_panics(
        strategy_pick in 0usize..3,
        branching_pick in 0usize..22,
        domain_pick in 0usize..8,
        small_n in 1usize..4097,
        epsilon_pick in 0usize..REGISTRATION_EPSILONS.len(),
    ) {
        // `register` returns a typed error or a tenant; a registered tenant
        // publishes once and still takes writes (its lock is not poisoned).
        // An unallocatable domain is refused as too large, whatever the
        // strategy, before anything domain-sized is allocated. The total
        // budget funds the first release, so a large ε reaches the
        // strategy checks instead of the budget refusal.
        let n = registration_domain(domain_pick, small_n);
        let epsilon = REGISTRATION_EPSILONS[epsilon_pick];
        let branching = registration_branching(branching_pick, n);
        let strategy = match strategy_pick {
            0 => ReleaseStrategy::Flat,
            1 => ReleaseStrategy::Hierarchical { branching },
            _ => ReleaseStrategy::Budgeted { branching, split: BudgetSplit::Uniform },
        };
        let config = TenantConfig::new("t", n)
            .with_strategy(strategy)
            .with_budget(epsilon.max(1.0), epsilon)
            .with_refresh_every(0);
        let mut service = HistogramService::new();
        let registered = service.register(config);
        if UNALLOCATABLE_DOMAINS.contains(&n) {
            prop_assert!(
                matches!(registered, Err(ServeError::DomainTooLarge { domain_size }) if domain_size == n),
                "n = {n}: {registered:?}"
            );
        }
        if let Ok(id) = registered {
            prop_assert!(service.publish(id).is_ok());
            prop_assert!(service.ingest(id, &[(0, 1)]).is_ok());
        }
    }
}

#[test]
fn unallocatable_domains_are_refused_for_every_strategy() {
    // The property draws these domains at random; here every strategy
    // meets both, with a branching factor and ε that would otherwise pass.
    for n in UNALLOCATABLE_DOMAINS {
        for strategy in [
            ReleaseStrategy::Flat,
            ReleaseStrategy::Hierarchical { branching: 2 },
            ReleaseStrategy::Budgeted {
                branching: 16,
                split: BudgetSplit::Uniform,
            },
        ] {
            let config = TenantConfig::new("t", n).with_strategy(strategy.clone());
            let registered = HistogramService::new().register(config);
            assert!(
                matches!(registered, Err(ServeError::DomainTooLarge { domain_size }) if domain_size == n),
                "n = {n}, {strategy:?}: {registered:?}"
            );
        }
    }
}

/// Query number `kind` of a read batch over `n` bins, from two raw draws:
/// empties at 0 and at `n`, a range ending at `n`, the two refused bounds
/// `n + 1` and `usize::MAX`, and ranges inside the domain.
fn read_query(kind: usize, a: usize, b: usize, n: usize) -> RangeQuery {
    let lo = a % (n + 1);
    match kind {
        0 => RangeQuery::new(0, 0),
        1 => RangeQuery::new(n, n),
        2 => RangeQuery::new(lo, n),
        3 => RangeQuery::new(lo, n + 1),
        4 => RangeQuery::new(lo, usize::MAX),
        _ => RangeQuery::new(lo, lo + b % (n - lo + 1)),
    }
}

/// The confidence levels the read property draws: three refused (NaN, 0,
/// 1) and two served.
const READ_LEVELS: [f64; 5] = [f64::NAN, 0.0, 1.0, 0.5, 0.95];

/// The pinned snapshot's prefix entry `prefix[x]`, read as the one-query
/// answer over `[0, x)` (`prefix[0]` is `+0.0`, and `v − +0.0` is `v`).
fn prefix_at(pinned: &ConsistentSnapshot, x: usize) -> f64 {
    if x == 0 {
        0.0
    } else {
        pinned.answer(Interval::new(0, x - 1))
    }
}

proptest! {
    #[test]
    fn reads_refuse_or_answer_the_pinned_bits_and_never_panic(
        strategy_pick in 0usize..4,
        n in 1usize..300,
        batch in prop::collection::vec((0usize..8, 0usize..4096, 0usize..4096), 0..12),
        level_pick in 0usize..READ_LEVELS.len(),
        seed in 0u64..1000,
    ) {
        // Every read returns the typed error, in the service's order
        // (invalid level, then the first out-of-range query in batch
        // order), or the pinned snapshot's bits: `prefix[hi] − prefix[lo]`,
        // `+0.0` for an empty range. A refused batch leaves `out` alone.
        // Strategy pick 3 serves the unreleased epoch-0 zeros.
        let strategy = match strategy_pick {
            0 | 3 => ReleaseStrategy::Flat,
            1 => ReleaseStrategy::Hierarchical { branching: 3 },
            _ => ReleaseStrategy::Budgeted { branching: 2, split: BudgetSplit::Uniform },
        };
        let config = TenantConfig::new("t", n)
            .with_strategy(strategy)
            .with_seed(seed)
            .with_refresh_every(0);
        let mut service = HistogramService::new();
        let id = service.register(config).expect("a valid tenant");
        if strategy_pick != 3 {
            let deltas: Vec<(usize, u64)> = (0..n).map(|b| (b, (b as u64 * seed) % 5)).collect();
            service.ingest(id, &deltas).expect("bins in domain");
            service.publish(id).expect("budget for one release");
        }
        let pinned = service.snapshot(id).expect("registered");
        let queries: Vec<RangeQuery> =
            batch.iter().map(|&(kind, a, b)| read_query(kind, a, b, n)).collect();
        let refused = queries.iter().find(|q| q.hi() > n).map(|q| ServeError::QueryOutOfRange {
            hi: q.hi(),
            domain_size: n,
        });
        let bits = |q: &RangeQuery| {
            let v = if q.is_empty() {
                0.0
            } else {
                prefix_at(&pinned, q.hi()) - prefix_at(&pinned, q.lo())
            };
            v.to_bits()
        };

        let mut out = vec![-1.25; 3];
        let got = service.answer_into(id, &queries, &mut out);
        match &refused {
            Some(err) => {
                prop_assert_eq!(got, Err(err.clone()));
                prop_assert_eq!(out.clone(), vec![-1.25; 3]);
            }
            None => {
                prop_assert_eq!(got, Ok(pinned.epoch()));
                let served: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
                let expect: Vec<u64> = queries.iter().map(bits).collect();
                prop_assert_eq!(served, expect);
            }
        }

        let level = READ_LEVELS[level_pick];
        for q in &queries {
            let out_of_range = ServeError::QueryOutOfRange { hi: q.hi(), domain_size: n };
            let answered = service.answer(id, *q);
            let confidence = service.confidence(id, *q, level);
            if q.hi() > n {
                prop_assert_eq!(answered, Err(out_of_range.clone()));
            } else {
                prop_assert_eq!(answered.map(f64::to_bits), Ok(bits(q)));
            }
            if !(level > 0.0 && level < 1.0) {
                prop_assert!(
                    matches!(confidence, Err(ServeError::InvalidLevel { .. })),
                    "{q}: {confidence:?}"
                );
            } else if q.hi() > n {
                prop_assert_eq!(confidence, Err(out_of_range));
            } else {
                let expect = pinned.confidence(*q, level);
                let got = confidence.expect("in range, valid level");
                prop_assert_eq!(
                    got.map(|ci| (ci.lo.to_bits(), ci.hi.to_bits())),
                    expect.map(|ci| (ci.lo.to_bits(), ci.hi.to_bits()))
                );
                // Flat releases carry a scale; an empty range's interval is
                // the zero-width one at +0.0.
                if strategy_pick == 0 && q.is_empty() {
                    prop_assert_eq!(got.map(|ci| (ci.lo.to_bits(), ci.hi.to_bits())), Some((0, 0)));
                }
            }
        }
    }
}
