//! The serving-layer trust harness: `ConsistentSnapshot` and
//! `SubtreeServer` pinned against the estimators they replaced.
//!
//! The contracts:
//!
//! * `ConsistentSnapshot::answer` ≡ `ConsistentTree::range_query` **bit for
//!   bit** over arbitrary shapes, node values, and ranges (same prefix
//!   construction, same two-lookup arithmetic);
//! * on exactly consistent integer trees (true counts), snapshot answers ≡
//!   the subtree-decomposition oracle bit for bit — integer prefix sums are
//!   exact, so O(1) serving and the decomposition walk cannot disagree;
//! * `SubtreeServer::answer` ≡ materializing
//!   `TreeShape::subtree_decomposition` and folding, bit for bit, for any
//!   values and rounding policy (the materialized decomposition stays as
//!   the oracle);
//! * batched snapshot serving ≡ one-at-a-time answers;
//! * fixed-seed golden pins for a served query batch **per noise backend**
//!   (`reference_*` / `fast_ln_wide_*`, the `hc_noise::backend` versioning
//!   convention — CI runs each prefix as its own step), for the
//!   hierarchical, the budgeted and the flat release.

use hist_consistency::data::RangeWorkload;
use hist_consistency::prelude::*;
use proptest::prelude::*;
use rand::Rng;

fn random_values(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = rng_from_seed(seed);
    (0..n).map(|_| rng.random_range(-40.0..90.0)).collect()
}

fn random_queries(domain: usize, count: usize, seed: u64) -> Vec<Interval> {
    let mut rng = rng_from_seed(seed);
    (0..count)
        .map(|_| {
            let lo = rng.random_range(0..domain);
            let hi = rng.random_range(lo..domain);
            Interval::new(lo, hi)
        })
        .collect()
}

/// Queries mixing uniform intervals with the fold's boundary cases: `lo`
/// aligned to a span `k^j`, exact covers `[c·k^j, (c+1)·k^j − 1]`, `hi`
/// ending a span, single leaves, the whole domain, and the last leaf.
fn boundary_mixed_queries(shape: &TreeShape, count: usize, seed: u64) -> Vec<Interval> {
    let mut rng = rng_from_seed(seed);
    let n = shape.leaves();
    let k = shape.branching();
    (0..count)
        .map(|_| {
            let span = k.pow(rng.random_range(0..shape.height()) as u32);
            let c = rng.random_range(0..n / span);
            match rng.random_range(0..7u32) {
                0 => {
                    let lo = c * span;
                    Interval::new(lo, rng.random_range(lo..n))
                }
                1 => Interval::new(c * span, (c + 1) * span - 1),
                2 => {
                    let hi = (c + 1) * span - 1;
                    Interval::new(rng.random_range(0..=hi), hi)
                }
                3 => {
                    let leaf = rng.random_range(0..n);
                    Interval::new(leaf, leaf)
                }
                4 => Interval::new(0, n - 1),
                5 => Interval::new(n - 1, n - 1),
                _ => {
                    let lo = rng.random_range(0..n);
                    Interval::new(lo, rng.random_range(lo..n))
                }
            }
        })
        .collect()
}

proptest! {
    #[test]
    fn snapshot_is_bit_identical_to_consistent_tree(
        k in 2usize..5,
        height in 1usize..7,
        seed in any::<u64>(),
    ) {
        let shape = TreeShape::new(k, height);
        let values = random_values(shape.nodes(), seed);
        let domain = shape.leaves();
        let tree = ConsistentTree::new(shape.clone(), values.clone(), domain);
        let snapshot = ConsistentSnapshot::from_tree_values(&shape, &values, domain);
        for q in random_queries(domain, 64, seed ^ 0x5107) {
            prop_assert_eq!(
                snapshot.answer(q).to_bits(),
                tree.range_query(q).to_bits(),
                "q = {}", q
            );
        }
    }

    #[test]
    fn snapshot_matches_decomposition_oracle_on_consistent_trees(
        k in 2usize..5,
        height in 2usize..6,
        seed in any::<u64>(),
    ) {
        // True tree counts: parents equal child sums exactly (integer
        // arithmetic), so prefix serving and the decomposition cannot
        // disagree even bitwise.
        let shape = TreeShape::new(k, height);
        let n = shape.leaves();
        let mut rng = rng_from_seed(seed);
        let counts: Vec<u64> = (0..n).map(|_| rng.random_range(0..50u64)).collect();
        let histogram = Histogram::from_counts(Domain::new("x", n).unwrap(), counts);
        let truth = QuerySequence::evaluate(&HierarchicalQuery::new(k), &histogram);
        let snapshot = ConsistentSnapshot::from_tree_values(&shape, &truth, n);
        let server = SubtreeServer::new(&shape);
        for q in random_queries(n, 48, seed ^ 0xC0DE) {
            let via_decomposition: f64 = shape
                .subtree_decomposition(q)
                .into_iter()
                .map(|v| truth[v])
                .sum();
            prop_assert_eq!(snapshot.answer(q).to_bits(), via_decomposition.to_bits());
            prop_assert_eq!(
                server.answer(&truth, Rounding::None, q).to_bits(),
                via_decomposition.to_bits()
            );
            prop_assert_eq!(snapshot.answer(q), histogram.range_count(q) as f64);
        }
    }

    #[test]
    fn subtree_server_matches_materialized_decomposition(
        k in 2usize..6,
        height in 1usize..7,
        seed in any::<u64>(),
        rounded in any::<bool>(),
    ) {
        let shape = TreeShape::new(k, height);
        let values = random_values(shape.nodes(), seed);
        let server = SubtreeServer::new(&shape);
        let rounding = if rounded { Rounding::NonNegativeInteger } else { Rounding::None };
        for q in random_queries(shape.leaves(), 48, seed ^ 0xDEC0) {
            let oracle: f64 = shape
                .subtree_decomposition(q)
                .into_iter()
                .map(|v| rounding.apply(values[v]))
                .sum();
            prop_assert_eq!(server.answer(&values, rounding, q).to_bits(), oracle.to_bits());
        }
    }

    #[test]
    fn batched_and_parallel_serving_match_single_answers(
        height in 2usize..9,
        seed in any::<u64>(),
    ) {
        let shape = TreeShape::new(2, height);
        let values = random_values(shape.nodes(), seed);
        let snapshot = ConsistentSnapshot::from_tree_values(&shape, &values, shape.leaves());
        let queries = random_queries(shape.leaves(), 97, seed ^ 0xBA7C);
        let singles: Vec<f64> = queries.iter().map(|&q| snapshot.answer(q)).collect();
        let mut batched = Vec::new();
        snapshot.answer_into(&queries, &mut batched);
        prop_assert_eq!(&batched, &singles);
    }

    #[test]
    fn iterative_subtree_fold_matches_the_recursive_oracle(
        k in 2usize..17,
        height_pick in any::<u64>(),
        seed in any::<u64>(),
        rounded in any::<bool>(),
        len_pick in 0usize..=10,
    ) {
        // Both folds (the binary kernel for k = 2, the table-driven fold
        // otherwise) must visit the same decomposition nodes in the same
        // left-to-right order as the recursive fold, so the -0.0-seeded
        // accumulation agrees bit for bit. Heights reach 14 for binary
        // trees (trees stay at or below 2^13 leaves for every k).
        let mut max_height = 1;
        while k.pow(max_height as u32) <= 1 << 13 {
            max_height += 1;
        }
        let height = 1 + (height_pick % max_height as u64) as usize;
        let shape = TreeShape::new(k, height);
        let values = random_values(shape.nodes(), seed);
        let server = SubtreeServer::new(&shape);
        let rounding = if rounded { Rounding::NonNegativeInteger } else { Rounding::None };
        // Batches of 0..=9 queries run the empty batch and every partial
        // group of the binary kernel's four lanes; 96 runs full groups.
        let len = if len_pick == 10 { 96 } else { len_pick };
        let mut queries = boundary_mixed_queries(&shape, len, seed ^ 0x17E2);
        if len >= 4 {
            // One group of four holds an exact span, a single leaf and the
            // whole domain, lanes that emit one node beside a deeper split.
            let mut rng = rng_from_seed(seed ^ 0x4A7E);
            let n = shape.leaves();
            let span = k.pow(rng.random_range(0..height) as u32);
            let c = rng.random_range(0..n / span);
            let leaf = rng.random_range(0..n);
            let group = 4 * rng.random_range(0..len / 4);
            queries[group..group + 3].copy_from_slice(&[
                Interval::new(c * span, (c + 1) * span - 1),
                Interval::new(leaf, leaf),
                Interval::new(0, n - 1),
            ]);
        }
        let mut batch = Vec::new();
        server.answer_into(&values, rounding, &queries, &mut batch);
        for (&q, served) in queries.iter().zip(&batch) {
            let oracle = shape
                .subtree_decomposition(q)
                .into_iter()
                .fold(-0.0, |acc, v| acc + rounding.apply(values[v]))
                .to_bits();
            prop_assert_eq!(served.to_bits(), oracle, "k = {}, height = {}, q = {}", k, height, q);
            prop_assert_eq!(server.answer(&values, rounding, q).to_bits(), oracle);
        }
    }
}

#[test]
fn degenerate_snapshot_inputs_are_well_defined() {
    // domain_size == 0: a snapshot over nothing answers nothing, totals to
    // an exact 0.0, and never panics on empty batches.
    let mut snap = ConsistentSnapshot::from_leaves(&[], 0);
    assert_eq!(snap.domain_size(), 0);
    assert_eq!(snap.total(), 0.0);
    let mut out = vec![1.0, 2.0, 3.0]; // stale content must be truncated
    snap.answer_into::<Interval>(&[], &mut out);
    assert!(out.is_empty(), "empty batch must clear the output buffer");
    // An empty *query batch* against a non-empty snapshot is equally inert.
    let shape = TreeShape::new(2, 4);
    let values: Vec<f64> = (0..shape.nodes()).map(|i| i as f64).collect();
    let full = ConsistentSnapshot::from_tree_values(&shape, &values, shape.leaves());
    let mut out = vec![5.0; 7];
    full.answer_into::<Interval>(&[], &mut out);
    assert!(out.is_empty());
    // Rebuild cycling through the empty domain leaves no stale prefix: a
    // non-empty → empty → non-empty round trip equals a fresh build exactly.
    let whole = Interval::new(0, shape.leaves() - 1);
    snap.rebuild_from_tree_values(&shape, &values, shape.leaves());
    assert_eq!(snap.answer(whole).to_bits(), full.answer(whole).to_bits());
    snap.rebuild_from_leaves(&[], 0);
    assert_eq!(snap.total(), 0.0);
    snap.rebuild_from_tree_values(&shape, &values, shape.leaves());
    assert_eq!(&snap, &full);
    // domain_size == 0 over a non-empty leaf slice: legal (padding only),
    // total is the empty prefix sum.
    snap.rebuild_from_leaves(&values[..4], 0);
    assert_eq!(snap.total(), 0.0);
    assert_eq!(snap.domain_size(), 0);
}

#[test]
fn rounded_tree_and_release_queries_still_match_the_decomposition_oracle() {
    // The production query paths (`TreeRelease::range_query_subtree`,
    // `RoundedTree::range_query`) now fold through `SubtreeServer`; pin them
    // to the materialized-decomposition arithmetic they historically used.
    let n = 64usize;
    let counts: Vec<u64> = (0..n as u64).map(|i| i % 7).collect();
    let histogram = Histogram::from_counts(Domain::new("x", n).unwrap(), counts);
    let pipeline = HierarchicalUniversal::binary(Epsilon::new(0.4).unwrap());
    let release = pipeline.release(&histogram, &mut rng_from_seed(88));
    let rounded = release.infer_rounded();
    let shape = release.shape().clone();
    for q in random_queries(n, 100, 89) {
        for rounding in [Rounding::None, Rounding::NonNegativeInteger] {
            let oracle: f64 = shape
                .subtree_decomposition(q)
                .into_iter()
                .map(|v| rounding.apply(release.noisy_values()[v]))
                .sum();
            assert_eq!(
                release.range_query_subtree(q, rounding).to_bits(),
                oracle.to_bits()
            );
        }
        let rounded_oracle: f64 = shape
            .subtree_decomposition(q)
            .into_iter()
            .map(|v| rounded.node_values()[v])
            .sum();
        assert_eq!(rounded.range_query(q).to_bits(), rounded_oracle.to_bits());
    }
}

#[test]
fn flat_release_snapshot_reuses_the_fused_prefixes_bit_for_bit() {
    let n = 41usize;
    let counts: Vec<u64> = (0..n as u64).map(|i| (i * 3 + 1) % 11).collect();
    let histogram = Histogram::from_counts(Domain::new("x", n).unwrap(), counts);
    let release =
        FlatUniversal::new(Epsilon::new(0.3).unwrap()).release(&histogram, &mut rng_from_seed(90));
    for rounding in [Rounding::None, Rounding::NonNegativeInteger] {
        let snapshot = release.snapshot(rounding);
        let queries = random_queries(n, 64, 91);
        let mut via_snapshot = Vec::new();
        snapshot.answer_into(&queries, &mut via_snapshot);
        let mut via_release = Vec::new();
        release.answer_into(rounding, &queries, &mut via_release);
        let singles: Vec<f64> = queries
            .iter()
            .map(|&q| release.range_query(q, rounding))
            .collect();
        assert_eq!(via_snapshot, singles);
        assert_eq!(via_release, singles);
    }
}

/// The fixed-seed served-batch protocol shared by the per-backend goldens:
/// release at seed 7177 through `backend`, infer through the engine into a
/// snapshot, sample 8 ranges of length 9 at seed 9331, serve the batch, and
/// also serve the rounded noisy release through the `SubtreeServer`.
fn served_batch(backend: NoiseBackend) -> (Vec<f64>, Vec<f64>) {
    let n = 32usize;
    let counts: Vec<u64> = (0..n as u64).map(|i| (i * 11 + 3) % 13).collect();
    let histogram = Histogram::from_counts(Domain::new("golden", n).unwrap(), counts);
    let shape = TreeShape::for_domain(n, 2);
    let pipeline = HierarchicalUniversal::binary(Epsilon::new(0.5).unwrap()).with_backend(backend);
    let release = pipeline.release(&histogram, &mut rng_from_seed(7177));
    let mut engine = BatchInference::for_shape(&shape);
    let snapshot = release.infer_snapshot(&mut engine);
    let queries = RangeWorkload::new(n, 9).sample_many(&mut rng_from_seed(9331), 8);
    let mut inferred = Vec::new();
    snapshot.answer_into(&queries, &mut inferred);
    let mut noisy_rounded = Vec::new();
    SubtreeServer::new(&shape).answer_into(
        release.noisy_values(),
        Rounding::NonNegativeInteger,
        &queries,
        &mut noisy_rounded,
    );
    (inferred, noisy_rounded)
}

#[test]
fn reference_golden_served_batch_seed_7177() {
    // Generated by this repository's own pipeline (f64 Debug round-trips
    // exactly); any drift in sampling, inference, or serving shows up as an
    // exact-equality failure. Frozen forever per the backend policy.
    let (inferred, noisy_rounded) = served_batch(NoiseBackend::Reference);
    let expected_inferred = [
        49.51060397133758,
        67.13964409874214,
        72.99662893615442,
        33.54392938759957,
        60.80116045557186,
        34.09070380561678,
        74.59911891468386,
        60.80116045557186,
    ];
    let expected_noisy_rounded = [67.0, 56.0, 82.0, 9.0, 70.0, 53.0, 86.0, 70.0];
    assert_eq!(inferred, expected_inferred);
    assert_eq!(noisy_rounded, expected_noisy_rounded);
}

#[test]
fn fast_ln_wide_golden_served_batch_seed_7177() {
    // The v3 wide-lane sampler's served batch: its uniform mapping folds
    // the 2⁻⁵² scale into the fused ln reduction, so this is a distinct
    // frozen sequence (not a ulp-neighbour of Reference/FastLn). Frozen
    // forever per the backend policy.
    let (inferred, noisy_rounded) = served_batch(NoiseBackend::FastLnWide);
    let expected_inferred = [
        34.38234256782173,
        67.37836515244732,
        56.95802134244759,
        42.33481263635281,
        76.47153422307645,
        50.69103310575514,
        75.38206552887264,
        76.47153422307645,
    ];
    let expected_noisy_rounded = [47.0, 100.0, 86.0, 48.0, 86.0, 64.0, 81.0, 86.0];
    assert_eq!(inferred, expected_inferred);
    assert_eq!(noisy_rounded, expected_noisy_rounded);
}

/// The budgeted counterpart of [`served_batch`]: a geometric-split
/// (ratio 1.5) binary `StrategyPipeline` over 20000 bins (padded to 2^15
/// leaves, four slabs of the engine's GLS sweeps) releases at seed 7177,
/// and serves 8 ranges of length 5000 sampled at seed 9331 — wide enough
/// to cross slab seams — plus the total.
fn budgeted_served_batch(backend: NoiseBackend) -> Vec<f64> {
    let n = 20_000usize;
    let counts: Vec<u64> = (0..n as u64).map(|i| (i * 11 + 3) % 13).collect();
    let histogram = Histogram::from_counts(Domain::new("golden", n).unwrap(), counts);
    let strategy = ReleaseStrategy::Budgeted {
        branching: 2,
        split: BudgetSplit::Geometric { ratio: 1.5 },
    };
    let mut pipeline = StrategyPipeline::new(&strategy, Epsilon::new(0.5).unwrap(), backend, n);
    let snapshot = pipeline.release(&histogram, &mut rng_from_seed(7177));
    let queries = RangeWorkload::new(n, 5000).sample_many(&mut rng_from_seed(9331), 8);
    let mut served = Vec::new();
    snapshot.answer_into(&queries, &mut served);
    served.push(snapshot.total());
    served
}

#[test]
fn reference_golden_budgeted_served_batch_seed_7177() {
    // The budgeted release runs the fused publish with one Laplace per
    // depth and GLS tables; no other served pin reaches those tables.
    // Frozen forever per the backend policy.
    let expected = [
        30002.831218471634,
        30050.924896876997,
        29829.640414061738,
        29924.622274482204,
        29936.43419371702,
        30030.68837139527,
        29927.249564321624,
        29938.451957948455,
        119768.0992406661,
    ];
    assert_eq!(budgeted_served_batch(NoiseBackend::Reference), expected);
}

#[test]
fn fast_ln_wide_golden_budgeted_served_batch_seed_7177() {
    // The FastLnWide twin of `reference_golden_budgeted_served_batch_seed_7177`.
    let expected = [
        29856.06959947136,
        30008.540227084843,
        30174.814430246854,
        29792.59666220861,
        30008.481896123863,
        29832.344479238847,
        29780.75410644598,
        30014.084886519708,
        119423.39313484934,
    ];
    assert_eq!(budgeted_served_batch(NoiseBackend::FastLnWide), expected);
}

/// The flat counterpart of [`budgeted_served_batch`]: a flat
/// `StrategyPipeline` over the same 20000 bins releases at seed 7177 and
/// serves the same 8 ranges of length 5000, plus the total.
fn flat_served_batch(backend: NoiseBackend) -> Vec<f64> {
    let n = 20_000usize;
    let counts: Vec<u64> = (0..n as u64).map(|i| (i * 11 + 3) % 13).collect();
    let histogram = Histogram::from_counts(Domain::new("golden", n).unwrap(), counts);
    let mut pipeline = StrategyPipeline::new(
        &ReleaseStrategy::Flat,
        Epsilon::new(0.5).unwrap(),
        backend,
        n,
    );
    let snapshot = pipeline.release(&histogram, &mut rng_from_seed(7177));
    let queries = RangeWorkload::new(n, 5000).sample_many(&mut rng_from_seed(9331), 8);
    let mut served = Vec::new();
    snapshot.answer_into(&queries, &mut served);
    served.push(snapshot.total());
    served
}

#[test]
fn reference_golden_flat_served_batch_seed_7177() {
    // The flat release's fused prefix, served through the one release
    // dispatch. Frozen forever per the backend policy.
    let expected = [
        30001.563519571435,
        29719.537440400745,
        30286.776797651335,
        29911.00107897658,
        30255.036033517503,
        30055.35140832523,
        29614.800082716334,
        30291.567198651646,
        119443.06040364732,
    ];
    assert_eq!(flat_served_batch(NoiseBackend::Reference), expected);
}

#[test]
fn fast_ln_wide_golden_flat_served_batch_seed_7177() {
    // The FastLnWide twin of `reference_golden_flat_served_batch_seed_7177`.
    let expected = [
        29816.139042215214,
        30051.774573931907,
        29864.90975674762,
        29868.619584155214,
        29696.77034918133,
        30313.334322044553,
        30113.8637513454,
        29757.990812563818,
        120197.26679811465,
    ];
    assert_eq!(flat_served_batch(NoiseBackend::FastLnWide), expected);
}

#[test]
fn lazily_built_consistent_tree_snapshot_is_shared_and_correct() {
    let shape = TreeShape::new(2, 5);
    let values = random_values(shape.nodes(), 92);
    let tree = ConsistentTree::new(shape.clone(), values.clone(), 16);
    // First query builds the snapshot; later queries reuse it.
    let first = tree.range_query(Interval::new(0, 15));
    let snapshot = tree.snapshot();
    assert_eq!(
        snapshot.answer(Interval::new(0, 15)).to_bits(),
        first.to_bits()
    );
    let eager = ConsistentSnapshot::from_tree_values(&shape, &values, 16);
    for q in random_queries(16, 32, 93) {
        assert_eq!(tree.range_query(q).to_bits(), eager.answer(q).to_bits());
    }
    // Clones carry (or rebuild) an equivalent snapshot.
    let clone = tree.clone();
    assert_eq!(
        clone.range_query(Interval::new(3, 12)),
        tree.range_query(Interval::new(3, 12))
    );
}

#[test]
fn planner_recommendation_is_consistent_with_measured_errors() {
    // End-to-end sanity: on a long-range workload over a sparse domain the
    // planner must leave the flat strategy (the paper's crossover sits near
    // 2·10³, so the domain must be big enough for long ranges to exist),
    // and the measured errors of the two strategies must agree with the
    // predicted ordering.
    let n = 1usize << 14;
    let counts: Vec<u64> = (0..n as u64)
        .map(|i| if i % 19 == 0 { 4 } else { 0 })
        .collect();
    let histogram = Histogram::from_counts(Domain::new("x", n).unwrap(), counts);
    let eps = Epsilon::new(0.1).unwrap();
    let workload = RangeWorkload::new(n, n / 2);
    let plan = StrategyPlanner::new(n, eps).plan(&[workload]);
    assert!(
        !matches!(plan.choice, ReleaseStrategy::Flat),
        "8192-length ranges at ε=0.1 must not be served flat: {plan:?}"
    );

    let flat_pipeline = FlatUniversal::new(eps);
    let tree_pipeline = HierarchicalUniversal::binary(eps);
    let mut rng = rng_from_seed(94);
    let mut engine = BatchInference::for_shape(&TreeShape::for_domain(n, 2));
    let trials = 30;
    let (mut flat_err, mut tree_err) = (0.0, 0.0);
    for _ in 0..trials {
        let q = workload.sample(&mut rng);
        let truth = histogram.range_count(q) as f64;
        let f = flat_pipeline
            .release(&histogram, &mut rng)
            .snapshot(Rounding::None)
            .answer(q);
        let t = tree_pipeline
            .release(&histogram, &mut rng)
            .infer_snapshot(&mut engine)
            .answer(q);
        flat_err += (f - truth) * (f - truth);
        tree_err += (t - truth) * (t - truth);
    }
    assert!(
        tree_err < flat_err,
        "measured: tree {tree_err} vs flat {flat_err}, plan {plan:?}"
    );
}
