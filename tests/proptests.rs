//! Property-based tests over the core invariants, using proptest.
//!
//! These go beyond the unit tests' fixed cases: arbitrary inputs exercise
//! the projection laws (Theorems 1 and 3), the tree geometry, the Haar
//! transform, and the extension modules.

use hc_testutil::oracle::{hierarchical_inference, minmax_reference};
use hist_consistency::ext::graphical::{is_graphical, nearest_graphical};
use hist_consistency::ext::quadtree::{morton_decode, morton_encode};
use hist_consistency::ext::wavelet::HaarQuery;
use hist_consistency::infer::{
    alpha_half_width, epsilon_for_alpha_width, isotonic_regression, isotonic_regression_weighted,
    SizePrediction,
};
use hist_consistency::prelude::*;
use proptest::prelude::*;

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e4f64..1e4, 1..max_len)
}

proptest! {
    // ---------------- isotonic regression (Theorem 1) ----------------

    #[test]
    fn isotonic_output_is_sorted(v in finite_vec(80)) {
        let s = isotonic_regression(&v);
        prop_assert!(s.windows(2).all(|w| w[0] <= w[1] + 1e-9));
    }

    #[test]
    fn isotonic_is_idempotent(v in finite_vec(60)) {
        let once = isotonic_regression(&v);
        let twice = isotonic_regression(&once);
        for (a, b) in once.iter().zip(&twice) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn isotonic_preserves_sum(v in finite_vec(60)) {
        let s = isotonic_regression(&v);
        let before: f64 = v.iter().sum();
        let after: f64 = s.iter().sum();
        prop_assert!((before - after).abs() < 1e-6 * (1.0 + before.abs()));
    }

    #[test]
    fn isotonic_matches_minmax_formula(v in finite_vec(24)) {
        let pava = isotonic_regression(&v);
        let spec = minmax_reference(&v);
        for (a, b) in pava.iter().zip(&spec) {
            prop_assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn isotonic_is_a_projection(v in finite_vec(30), perturbation in finite_vec(30)) {
        // No feasible (sorted) point constructed by perturbing-and-sorting is
        // closer to v than the projection.
        let s = isotonic_regression(&v);
        let d_proj: f64 = v.iter().zip(&s).map(|(a, b)| (a - b) * (a - b)).sum();

        let m = v.len().min(perturbation.len());
        let mut candidate: Vec<f64> = v[..m]
            .iter()
            .zip(&perturbation[..m])
            .map(|(a, p)| a + p * 0.1)
            .collect();
        candidate.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        // Extend candidate to full length keeping sortedness.
        let mut full = candidate;
        while full.len() < v.len() {
            let last = *full.last().expect("non-empty");
            full.push(last);
        }
        let d_cand: f64 = v.iter().zip(&full).map(|(a, b)| (a - b) * (a - b)).sum();
        prop_assert!(d_cand >= d_proj - 1e-6);
    }

    #[test]
    fn isotonic_translation_equivariance(v in finite_vec(40), shift in -1e3f64..1e3) {
        let base = isotonic_regression(&v);
        let shifted: Vec<f64> = v.iter().map(|x| x + shift).collect();
        let out = isotonic_regression(&shifted);
        for (a, b) in out.iter().zip(&base) {
            prop_assert!((a - (b + shift)).abs() < 1e-6);
        }
    }

    #[test]
    fn weighted_isotonic_is_sorted_and_idempotent(
        v in finite_vec(40),
        w in prop::collection::vec(0.1f64..10.0, 40),
    ) {
        let weights = &w[..v.len().min(w.len())];
        let values = &v[..weights.len()];
        let s = isotonic_regression_weighted(values, weights);
        prop_assert!(s.windows(2).all(|p| p[0] <= p[1] + 1e-9));
        let again = isotonic_regression_weighted(&s, weights);
        for (a, b) in s.iter().zip(&again) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    // ---------------- hierarchical inference (Theorem 3) ----------------

    #[test]
    fn hierarchical_output_is_consistent(
        height in 1usize..6,
        k in 2usize..4,
        seed in any::<u64>(),
    ) {
        let shape = TreeShape::new(k, height);
        let mut rng = rng_from_seed(seed);
        let noisy: Vec<f64> = (0..shape.nodes())
            .map(|_| rand::Rng::random_range(&mut rng, -100.0..100.0))
            .collect();
        let h = hierarchical_inference(&shape, &noisy);
        for v in 0..shape.nodes() {
            if !shape.is_leaf(v) {
                let child_sum: f64 = shape.children(v).map(|c| h[c]).sum();
                prop_assert!((h[v] - child_sum).abs() < 1e-6 * (1.0 + h[v].abs()));
            }
        }
    }

    #[test]
    fn hierarchical_inference_is_idempotent(
        height in 1usize..6,
        seed in any::<u64>(),
    ) {
        let shape = TreeShape::new(2, height);
        let mut rng = rng_from_seed(seed);
        let noisy: Vec<f64> = (0..shape.nodes())
            .map(|_| rand::Rng::random_range(&mut rng, -50.0..50.0))
            .collect();
        let once = hierarchical_inference(&shape, &noisy);
        let twice = hierarchical_inference(&shape, &once);
        for (a, b) in once.iter().zip(&twice) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn consistent_input_is_a_fixed_point(
        height in 2usize..6,
        seed in any::<u64>(),
    ) {
        // Build a consistent tree from random leaves; inference must return
        // it unchanged (it is already the closest consistent point).
        let shape = TreeShape::new(2, height);
        let mut rng = rng_from_seed(seed);
        let mut values = vec![0.0f64; shape.nodes()];
        let first_leaf = shape.leaf_node(0);
        for v in values[first_leaf..].iter_mut() {
            *v = rand::Rng::random_range(&mut rng, -20.0..20.0);
        }
        for v in (0..first_leaf).rev() {
            values[v] = shape.children(v).map(|c| values[c]).sum();
        }
        let h = hierarchical_inference(&shape, &values);
        for (a, b) in h.iter().zip(&values) {
            prop_assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()));
        }
    }

    // ---------------- tree geometry ----------------

    #[test]
    fn subtree_decomposition_tiles_any_range(
        height in 2usize..8,
        raw_lo in any::<u32>(),
        raw_len in any::<u32>(),
    ) {
        let shape = TreeShape::new(2, height);
        let n = shape.leaves();
        let lo = (raw_lo as usize) % n;
        let hi = lo + (raw_len as usize) % (n - lo);
        let target = Interval::new(lo, hi);
        let nodes = shape.subtree_decomposition(target);
        let mut covered = vec![false; n];
        for v in nodes {
            let span = shape.leaf_span(v);
            for (i, slot) in covered
                .iter_mut()
                .enumerate()
                .take(span.hi() + 1)
                .skip(span.lo())
            {
                prop_assert!(!*slot, "overlap at {i}");
                prop_assert!(target.contains(i), "node outside target");
                *slot = true;
            }
        }
        for (i, &slot) in covered.iter().enumerate().take(hi + 1).skip(lo) {
            prop_assert!(slot, "gap at {i}");
        }
    }

    #[test]
    fn binary_decomposition_uses_at_most_two_nodes_per_level(
        height in 2usize..9,
        raw_lo in any::<u32>(),
        raw_len in any::<u32>(),
    ) {
        let shape = TreeShape::new(2, height);
        let n = shape.leaves();
        let lo = (raw_lo as usize) % n;
        let hi = lo + (raw_len as usize) % (n - lo);
        let nodes = shape.subtree_decomposition(Interval::new(lo, hi));
        let mut per_level = vec![0usize; height];
        for v in nodes {
            per_level[shape.depth(v)] += 1;
        }
        prop_assert!(per_level.iter().all(|&c| c <= 2));
    }

    // ---------------- Haar transform ----------------

    #[test]
    fn haar_round_trips(counts in prop::collection::vec(0.0f64..1e4, 1..64)) {
        let c = HaarQuery.transform(&counts);
        let back = HaarQuery.reconstruct(&c, counts.len());
        for (a, b) in back.iter().zip(&counts) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn haar_base_coefficient_is_total(counts in prop::collection::vec(0.0f64..1e3, 1..64)) {
        let c = HaarQuery.transform(&counts);
        let total: f64 = counts.iter().sum();
        prop_assert!((c[0] - total).abs() < 1e-6);
    }

    // ---------------- extensions ----------------

    #[test]
    fn morton_encoding_round_trips(x in 0u32..65_536, y in 0u32..65_536) {
        let (dx, dy) = morton_decode(morton_encode(x, y));
        prop_assert_eq!((dx, dy), (x, y));
    }

    #[test]
    fn graphical_repair_always_produces_graphical(
        degrees in prop::collection::vec(0u64..50, 1..40),
    ) {
        let repaired = nearest_graphical(&degrees);
        prop_assert!(is_graphical(&repaired));
        prop_assert_eq!(repaired.len(), degrees.len());
    }

    #[test]
    fn graphical_sequences_survive_repair_unchanged(
        // Build a genuinely graphical sequence from a random graph.
        edges in prop::collection::vec((0usize..12, 0usize..12), 0..30),
    ) {
        let mut g = Graph::new(12);
        for (u, v) in edges {
            if u != v {
                g.add_edge(u, v);
            }
        }
        let mut degrees = g.degree_sequence();
        degrees.reverse(); // non-increasing
        prop_assert!(is_graphical(&degrees));
        let repaired = nearest_graphical(&degrees);
        prop_assert_eq!(repaired, degrees);
    }

    // ---------------- data layer ----------------

    #[test]
    fn relation_round_trips_through_histogram(
        counts in prop::collection::vec(0u64..20, 1..32),
    ) {
        let domain = Domain::new("x", counts.len()).unwrap();
        let relation = Relation::from_counts(domain, &counts).unwrap();
        let histogram = Histogram::from_relation(&relation);
        prop_assert_eq!(histogram.counts(), &counts[..]);
    }

    #[test]
    fn range_counts_are_additive(
        counts in prop::collection::vec(0u64..20, 2..32),
        split in any::<u32>(),
    ) {
        let n = counts.len();
        let domain = Domain::new("x", n).unwrap();
        let histogram = Histogram::from_counts(domain, counts);
        let mid = 1 + (split as usize) % (n - 1);
        let whole = histogram.range_count(Interval::new(0, n - 1));
        let left = histogram.range_count(Interval::new(0, mid - 1));
        let right = histogram.range_count(Interval::new(mid, n - 1));
        prop_assert_eq!(whole, left + right);
    }
    // ---------------- accuracy-first planning ----------------

    fn accuracy_inversion_round_trips(
        sensitivity in 1.0f64..16.0,
        m in 1usize..4096,
        alpha in 0.001f64..0.5,
        half in 1.0f64..1e6,
    ) {
        // Solving ε for a target α-width and re-pricing that width at the
        // solved ε must land back on the target (exact algebra, so the
        // tolerance is pure float noise).
        let eps = epsilon_for_alpha_width(sensitivity, m, alpha, half);
        prop_assert!(eps > 0.0 && eps.is_finite());
        let back = alpha_half_width(sensitivity / eps, m, alpha);
        prop_assert!(
            (back - half).abs() <= 1e-9 * half,
            "inverted ε {} re-prices to {} instead of {}",
            eps,
            back,
            half
        );
    }

    fn custom_split_never_prices_worse_than_geometric(
        logn in 4u32..11,
        sizes in prop::collection::vec(1usize..64, 1..4),
        ratio in 0.3f64..3.0,
        eps in 0.05f64..2.0,
    ) {
        // The workload-optimized custom split minimizes the aggregated
        // variance objective, so at equal ε its workload-mean price can
        // never exceed any geometric candidate's (up to the optimizer's
        // 1e-12 weight floor).
        let n = 1usize << logn;
        let planner = StrategyPlanner::new(n, Epsilon::new(eps).unwrap())
            .with_budget_ratios(vec![ratio]);
        let workload: Vec<RangeWorkload> = sizes
            .iter()
            .map(|&s| RangeWorkload::new(n, s.min(n)))
            .collect();
        let plan = planner.plan(&workload[..]);
        let mean_of = |f: fn(&SizePrediction) -> f64| {
            plan.per_size.iter().map(f).sum::<f64>() / plan.per_size.len() as f64
        };
        prop_assert!(
            mean_of(|p| p.custom) <= mean_of(|p| p.budgeted) * (1.0 + 1e-9),
            "custom {} vs geometric {} (ratio {})",
            mean_of(|p| p.custom),
            mean_of(|p| p.budgeted),
            ratio
        );
    }

    // ---------------- privacy accounting ----------------

    fn accountant_never_over_spends(
        total in 0.1f64..5.0,
        delta_allowance in 1e-9f64..1e-2,
        spends in prop::collection::vec((0.01f64..1.0, 0.0f64..1e-3), 1..24),
    ) {
        // Under any interleaving of named (ε, δ) spends — some of which are
        // rejected — the accountant's running totals never exceed either
        // allowance, and the ledger always reconciles with the totals.
        let mut account = PrivacyAccountant::new(Epsilon::new(total).unwrap())
            .with_delta(delta_allowance)
            .unwrap();
        for (i, (e, d)) in spends.iter().enumerate() {
            let before = (account.spent(), account.spent_delta());
            let outcome =
                account.spend_at(format!("spend-{i}"), Epsilon::new(*e).unwrap(), *d, i as u64);
            if outcome.is_err() {
                // Failed spends must leave the account untouched.
                prop_assert_eq!(before, (account.spent(), account.spent_delta()));
            }
            prop_assert!(account.spent() <= total * (1.0 + 1e-9));
            prop_assert!(account.spent_delta() <= delta_allowance * (1.0 + 1e-9));
            let ledger_eps: f64 = account.ledger().iter().map(|l| l.epsilon).sum();
            let ledger_delta: f64 = account.ledger().iter().map(|l| l.delta).sum();
            prop_assert!((ledger_eps - account.spent()).abs() <= 1e-9 * total.max(1.0));
            prop_assert!((ledger_delta - account.spent_delta()).abs() <= 1e-9);
        }
    }
}
