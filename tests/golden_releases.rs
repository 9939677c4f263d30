//! Golden regression tests: exact snapshot vectors for the Fig. 2(b) worked
//! example and seed-pinned end-to-end `H̄` releases, run through *both*
//! inference engines (the Theorem-3 reference oracle and the level-indexed
//! engine), so numeric drift in either is caught immediately.
//!
//! The snapshots were generated by this repository's own pipeline (f64
//! `Debug` formatting round-trips exactly, so the literals below carry the
//! precise bits); any change to noise sampling, seeding, or either engine's
//! arithmetic will show up as an exact-equality failure here.
//!
//! Snapshots exist **per noise backend** (`hc_noise::NoiseBackend`): the
//! `reference_*` tests pin the frozen v1 scalar sampler (these vectors
//! predate the backend abstraction and must never change), and the
//! `fast_ln_wide_*` tests pin the v3 fused wide-lane sampler (whose uniform
//! mapping folds the 2⁻⁵² scale into the ln range reduction, so its draw
//! stream is a distinct frozen sequence, not a ulp-neighbour of v1). CI runs
//! each prefix as its own step, so a drifting backend is named in the
//! failing step. See `hc_noise::backend` for the versioning policy.

use hc_testutil::assert_close;
use hist_consistency::prelude::*;

/// Runs one noisy tree vector through both engines and checks both against
/// the same expected output.
fn check_both_engines(shape: &TreeShape, noisy: &[f64], expected: &[f64]) {
    let oracle = hierarchical_inference(shape, noisy);
    let engine = LevelTree::new(shape).infer(noisy);
    assert_eq!(engine, oracle, "engines disagree with each other");
    assert_eq!(engine, expected, "engine drifted from the golden vector");
    // The batch path must also reproduce the snapshot bit for bit.
    let mut batch = BatchInference::for_shape(shape);
    assert_eq!(batch.infer(noisy), expected);
}

#[test]
fn fig2b_worked_example_through_both_engines() {
    // H̃(I) = ⟨13, 3, 11, 4, 1, 12, 1⟩ → H̄(I) = ⟨14, 3, 11, 3, 0, 11, 0⟩.
    let shape = TreeShape::new(2, 3);
    let noisy = [13.0, 3.0, 11.0, 4.0, 1.0, 12.0, 1.0];
    let expected = [14.0, 3.0, 11.0, 3.0, 0.0, 11.0, 0.0];
    let oracle = hierarchical_inference(&shape, &noisy);
    let engine = LevelTree::new(&shape).infer(&noisy);
    assert_eq!(engine, oracle);
    assert_close(&engine, &expected, 1e-12);
}

#[test]
fn reference_golden_release_seed_2026() {
    // HierarchicalUniversal::binary(ε = 0.5) over an 8-bin histogram with
    // counts (i·13 + 5) mod 7, released with rng_from_seed(2026).
    let domain = Domain::new("golden", 8).unwrap();
    let counts: Vec<u64> = (0..8).map(|i| ((i * 13 + 5) % 7) as u64).collect();
    assert_eq!(counts, vec![5, 4, 3, 2, 1, 0, 6, 5]);
    let histogram = Histogram::from_counts(domain, counts);
    let mut rng = rng_from_seed(2026);
    let release =
        HierarchicalUniversal::binary(Epsilon::new(0.5).unwrap()).release(&histogram, &mut rng);

    let expected_noisy = [
        27.262573530708313,
        11.927983847216773,
        7.305262002681345,
        -1.4224743354294667,
        27.452003389072406,
        -13.195040903037961,
        3.311548076430574,
        -7.807554247197434,
        -4.384226763156347,
        3.426949560386502,
        -11.644959771053399,
        -0.5189068129347207,
        -23.221761120402412,
        -13.054281824021984,
        5.7641164829945755,
    ];
    let expected_hbar = [
        18.392334640262987,
        16.406022548130508,
        1.9863120921324784,
        -2.0841097673831834,
        18.49013231551369,
        -7.250790712474892,
        9.237102804607371,
        -2.7537186257121355,
        0.6696088583289512,
        16.781020823476794,
        1.7091114920368948,
        7.7260317974963995,
        -14.976822509971292,
        -4.790647751204595,
        14.027750555811965,
    ];
    assert_eq!(release.noisy_values(), &expected_noisy);
    check_both_engines(release.shape(), release.noisy_values(), &expected_hbar);
    // The release's own (engine-backed) inference path agrees too.
    assert_eq!(release.infer().node_values(), &expected_hbar);
}

#[test]
fn reference_golden_release_seed_4099() {
    // HierarchicalUniversal::binary(ε = 1.0) over a 16-bin histogram with
    // counts (i·13 + 5) mod 7, released with rng_from_seed(4099).
    let domain = Domain::new("golden", 16).unwrap();
    let counts: Vec<u64> = (0..16).map(|i| ((i * 13 + 5) % 7) as u64).collect();
    let histogram = Histogram::from_counts(domain, counts);
    let mut rng = rng_from_seed(4099);
    let release =
        HierarchicalUniversal::binary(Epsilon::new(1.0).unwrap()).release(&histogram, &mut rng);

    let expected_hbar = [
        48.01647785129595,
        23.828774045607215,
        24.187703805688738,
        18.703496052682105,
        5.1252779929251115,
        6.429072121943491,
        17.75863168374525,
        8.574611980997465,
        10.128884071684638,
        -2.0548485443516116,
        7.180126537276723,
        3.3101857064019065,
        3.118886415541585,
        6.464235323822288,
        11.294396359922963,
        6.529153709312592,
        2.0454582716848737,
        -1.6021404517313242,
        11.731024523415963,
        2.4322697839342915,
        -4.487118328285904,
        11.404458465792189,
        -4.224331928515465,
        -1.1503027268093113,
        4.46048843321122,
        0.9170489688766756,
        2.201837446664909,
        0.3937366491194334,
        6.070498674702854,
        9.239877613309831,
        2.054518746613134,
    ];
    check_both_engines(release.shape(), release.noisy_values(), &expected_hbar);
    assert_eq!(release.infer().node_values(), &expected_hbar);

    // Sanity on the snapshot itself: it is a consistent tree whose root
    // carries the total.
    let tree = release.infer();
    assert!(tree.max_consistency_violation() < 1e-9);
    let leaf_total: f64 = tree.leaves().iter().sum();
    assert!((tree.node_values()[0] - leaf_total).abs() < 1e-9);
}

#[test]
fn fast_ln_wide_golden_fill_seed_2026() {
    // The FastLnWide sampler's raw draw stream, pinned at the bit level.
    // Unlike FastLn (which shares Reference's uniform mapping and differs
    // only in ulps), the wide kernel derives its uniform from the top 52
    // bits and its sign from bit 0 with the scale folded into the reduction
    // constant — a different frozen sequence from the same u64 stream. Any
    // change to the fused kernel, the lane blocking, or the tail path that
    // leaks into sample values shows up here first.
    let d = Laplace::centered(2.0).unwrap();
    let mut buf = vec![0.0f64; 8];
    d.fill_with(NoiseBackend::FastLnWide, &mut rng_from_seed(2026), &mut buf);
    let expected = [
        -1.7019377437969692,
        -0.975229948634383,
        -0.6515717493804626,
        0.2920956473957346,
        6.999295208387992,
        -0.17721279782373728,
        0.42451674200817274,
        0.21261744229502655,
    ];
    assert_eq!(buf, expected);
}

#[test]
fn fast_ln_wide_golden_release_seed_2026() {
    // The FastLnWide twin of `reference_golden_release_seed_2026`: same
    // histogram, same seed, the v3 sampler — its own frozen vectors.
    let domain = Domain::new("golden", 8).unwrap();
    let counts: Vec<u64> = (0..8).map(|i| ((i * 13 + 5) % 7) as u64).collect();
    let histogram = Histogram::from_counts(domain, counts);
    let mut rng = rng_from_seed(2026);
    let release = HierarchicalUniversal::binary(Epsilon::new(0.5).unwrap())
        .with_backend(NoiseBackend::FastLnWide)
        .release(&histogram, &mut rng);

    let expected_noisy = [
        19.192249024812124,
        10.099080205462467,
        9.39371300247815,
        10.168382589582938,
        32.997180833551965,
        0.2911488087050509,
        12.698066968032691,
        5.850469769180107,
        5.542022442021268,
        8.972127004866064,
        2.7617842694796098,
        -3.2691529349301334,
        -0.2225623751341565,
        5.621650619936458,
        -1.3092939274741404,
    ];
    let expected_hbar = [
        24.517717886529987,
        18.364567958113607,
        6.1531499284163775,
        1.5157813872097474,
        16.84878657090386,
        -2.3597430893221256,
        8.512893017738502,
        0.9121143571842927,
        0.6036670300254539,
        11.529564653145158,
        5.319221917758704,
        -2.703166824559051,
        0.34342373523692565,
        7.7219187825745506,
        0.7909742351639517,
    ];
    assert_eq!(release.noisy_values(), &expected_noisy);
    check_both_engines(release.shape(), release.noisy_values(), &expected_hbar);
    assert_eq!(release.infer().node_values(), &expected_hbar);
}

#[test]
fn fast_ln_wide_golden_fused_rounded_trial_seed_4099() {
    // The complete fused engine trial under the wide backend — tree counts
    // and FastLnWide noise folded into the upward slabs → Theorem 3 →
    // zeroing → rounding — pinned end to end, so the batch pipelines
    // inherit a bit-exact FastLnWide contract.
    let domain = Domain::new("golden", 16).unwrap();
    let counts: Vec<u64> = (0..16).map(|i| ((i * 13 + 5) % 7) as u64).collect();
    let histogram = Histogram::from_counts(domain, counts);
    let pipeline = HierarchicalUniversal::binary(Epsilon::new(1.0).unwrap())
        .with_backend(NoiseBackend::FastLnWide);
    let shape = TreeShape::for_domain(16, 2);
    let prepared = pipeline.prepare(16);
    let mut engine = BatchInference::for_shape(&shape);
    let mut out = Vec::new();
    engine.release_and_infer_rounded(&prepared, &histogram, &mut rng_from_seed(4099), &mut out);
    let expected = [
        49.0, 24.0, 24.0, 13.0, 12.0, 8.0, 16.0, 16.0, 0.0, 0.0, 12.0, 8.0, 0.0, 11.0, 6.0, 9.0,
        7.0, 0.0, 0.0, 0.0, 0.0, 6.0, 7.0, 0.0, 13.0, 0.0, 0.0, 2.0, 9.0, 3.0, 3.0,
    ];
    assert_eq!(out, expected);

    // Trial-parallel batches reproduce the serial batch bit for bit under
    // the wide backend too.
    let seeds = SeedStream::new(4099);
    let (mut sn, mut so, mut pn, mut po) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    engine.release_and_infer_batch(
        &prepared,
        &histogram,
        seeds,
        3,
        true,
        Some(&mut sn),
        &mut so,
    );
    engine.release_and_infer_batch_parallel(
        &prepared,
        &histogram,
        seeds,
        3,
        true,
        4,
        Some(&mut pn),
        &mut po,
    );
    assert_eq!(sn, pn);
    assert_eq!(so, po);
}
