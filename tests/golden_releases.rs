//! Golden regression tests: exact snapshot vectors for the Fig. 2(b) worked
//! example and seed-pinned end-to-end `H̄` releases, run through *both*
//! inference engines (the Theorem-3 reference oracle and the level-indexed
//! engine), so numeric drift in either is caught immediately.
//!
//! The snapshots were generated by this repository's own pipeline (f64
//! `Debug` formatting round-trips exactly, so the literals below carry the
//! precise bits); any change to noise sampling, seeding, or either engine's
//! arithmetic will show up as an exact-equality failure here. Trees too
//! large for literal vectors (the multi-slab releases) are pinned by an
//! exact digest instead: the wrapping sum and xor of every entry's bits,
//! plus sampled entries.
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
use hc_testutil::oracle::hierarchical_inference;
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

/// An exact fingerprint of a long `f64` vector: the wrapping sum and the
/// xor of every entry's bits, plus the entries at `samples`. Any moved bit
/// changes the sum; the samples say where a drift starts.
fn bits_digest(values: &[f64], samples: &[usize]) -> (u64, u64, Vec<f64>) {
    let sum = values
        .iter()
        .fold(0u64, |acc, v| acc.wrapping_add(v.to_bits()));
    let xor = values.iter().fold(0u64, |acc, v| acc ^ v.to_bits());
    (sum, xor, samples.iter().map(|&i| values[i]).collect())
}

/// The multi-slab trees the engine digests run over: 2^14 bins at k = 2
/// (two slabs of 8192 leaves) and 3^9 − 100 bins at k = 3 (padded to
/// 3^9 leaves, three slabs of 3^8).
const MULTI_SLAB: [(usize, usize); 2] = [(1 << 14, 2), (19_583, 3)];

fn multi_slab_histogram(n: usize) -> Histogram {
    let counts: Vec<u64> = (0..n).map(|i| ((i * 13 + 5) % 7) as u64).collect();
    Histogram::from_counts(Domain::new("golden", n).unwrap(), counts)
}

/// The served prefix of a hierarchical `StrategyPipeline::release` at seed
/// 2027, read back as `[0, hi]` answers (`prefix[hi + 1] − 0.0`, the
/// prefix entry's own bits) for every `hi` in the domain.
fn pipeline_prefix(backend: NoiseBackend, n: usize, k: usize) -> Vec<f64> {
    let histogram = multi_slab_histogram(n);
    let mut pipeline = StrategyPipeline::new(
        &ReleaseStrategy::Hierarchical { branching: k },
        Epsilon::new(0.5).unwrap(),
        backend,
        n,
    );
    let snapshot = pipeline.release(&histogram, &mut rng_from_seed(2027));
    (0..n)
        .map(|hi| snapshot.answer(Interval::new(0, hi)))
        .collect()
}

/// A rounded `release_and_infer_batch` of 2 trials at `SeedStream::new(2028)`
/// that keeps its noisy releases: `(H̃ batch, H̄ batch)`.
fn rounded_batch(backend: NoiseBackend, n: usize, k: usize) -> (Vec<f64>, Vec<f64>) {
    let histogram = multi_slab_histogram(n);
    let prepared = HierarchicalUniversal::new(Epsilon::new(0.5).unwrap(), k)
        .with_backend(backend)
        .prepare(n);
    let mut engine = BatchInference::for_shape(&TreeShape::for_domain(n, k));
    let (mut noisy, mut out) = (Vec::new(), Vec::new());
    engine.release_and_infer_batch(
        &prepared,
        &histogram,
        SeedStream::new(2028),
        2,
        true,
        Some(&mut noisy),
        &mut out,
    );
    (noisy, out)
}

/// Entries sampled by the multi-slab digests: both ends, the slab seams,
/// and points inside each slab.
fn digest_samples(len: usize) -> Vec<usize> {
    [
        0,
        1,
        len / 3,
        len / 2,
        len / 2 + 1,
        2 * len / 3,
        len - 2,
        len - 1,
    ]
    .to_vec()
}

/// The digests of one multi-slab tree: the pipeline prefix, then the
/// rounded batch's `H̃` and `H̄` segments.
type MultiSlabDigests = [(u64, u64, [f64; 8]); 3];

/// Checks [`pipeline_prefix`] and [`rounded_batch`] on every
/// [`MULTI_SLAB`] tree against `expected`, in that order.
fn check_multi_slab(backend: NoiseBackend, expected: [MultiSlabDigests; 2]) {
    for ((n, k), [prefix_digest, noisy_digest, out_digest]) in MULTI_SLAB.into_iter().zip(expected)
    {
        let digest = |values: &[f64]| bits_digest(values, &digest_samples(values.len()));
        let as_vec = |(sum, xor, samples): (u64, u64, [f64; 8])| (sum, xor, samples.to_vec());
        let prefix = pipeline_prefix(backend, n, k);
        assert_eq!(digest(&prefix), as_vec(prefix_digest), "prefix n={n} k={k}");
        let (noisy, out) = rounded_batch(backend, n, k);
        assert_eq!(digest(&noisy), as_vec(noisy_digest), "H̃ n={n} k={k}");
        assert_eq!(digest(&out), as_vec(out_digest), "H̄ n={n} k={k}");
    }
}

#[test]
fn reference_golden_multi_slab_releases() {
    // Every other engine pin fits in one slab; these trees span two and
    // three, so the slab seams of counting, noise, both passes, the
    // zero/round sweep and the prefix sink are all pinned.
    check_multi_slab(
        NoiseBackend::Reference,
        [
            [
                (
                    15713826419772742907,
                    9256979181366844787,
                    [
                        -23.981804133005625,
                        24.884195489627466,
                        16442.10048332738,
                        24536.743531668384,
                        24640.12753458204,
                        32724.981277014347,
                        49127.10550006269,
                        49120.17477684303,
                    ],
                ),
                (
                    10254651590114921282,
                    9219979786021553472,
                    [
                        49143.27309821307,
                        24607.48508313059,
                        10.585492256320435,
                        49135.73513232627,
                        24477.602470527716,
                        28.09066573257893,
                        18.267963216431532,
                        24.55410124121151,
                    ],
                ),
                (
                    12147766615311646720,
                    16646468605575168,
                    [49174.0, 24582.0, 17.0, 49097.0, 24543.0, 36.0, 0.0, 0.0],
                ),
            ],
            [
                (
                    380009485486722907,
                    13806414036519429629,
                    [
                        16.880186773176824,
                        22.98929480078757,
                        19579.1870762108,
                        29331.397556082633,
                        29327.57432261785,
                        39173.63739729787,
                        58648.5156901392,
                        58658.77187561732,
                    ],
                ),
                (
                    17738062942306424676,
                    9282450437258436292,
                    [
                        58743.84873214205,
                        19704.990055420392,
                        -8.250418910954812,
                        58738.82342155085,
                        19618.40164701848,
                        -70.71428656247514,
                        45.037370031501176,
                        0.8801046519789693,
                    ],
                ),
                (
                    13667467331880615936,
                    9204207136865779712,
                    [58759.0, 19696.0, 0.0, 58716.0, 19648.0, 0.0, 0.0, 0.0],
                ),
            ],
        ],
    );
}

#[test]
fn fast_ln_wide_golden_multi_slab_releases() {
    // The FastLnWide twin of `reference_golden_multi_slab_releases`.
    check_multi_slab(
        NoiseBackend::FastLnWide,
        [
            [
                (
                    15209707386004265010,
                    18423090289840116430,
                    [
                        20.156699548320976,
                        26.724950796180195,
                        16432.24484133004,
                        24636.07730084926,
                        24550.10775900531,
                        32794.64376711671,
                        49155.59117426717,
                        49142.69014050176,
                    ],
                ),
                (
                    13878758922993998350,
                    9192560533614845002,
                    [
                        49141.09085458267,
                        24628.279498547385,
                        31.379907673118804,
                        49144.47662964535,
                        24578.484848307202,
                        48.88508114937726,
                        39.06237863322987,
                        45.34851665800984,
                    ],
                ),
                (
                    1374334421699657728,
                    9204474593069236224,
                    [49146.0, 24563.0, 0.0, 49151.0, 24587.0, 12.0, 0.0, 0.0],
                ),
            ],
            [
                (
                    9485768811158281213,
                    4549678389089567249,
                    [
                        37.48880828495362,
                        15.636382612477345,
                        19602.096367671806,
                        29397.53954824451,
                        29386.392830744746,
                        39210.15644738972,
                        58720.75328763423,
                        58727.21769097583,
                    ],
                ),
                (
                    7039675227354786808,
                    36544798431988020,
                    [
                        58742.39390305511,
                        19718.85299903159,
                        11.626133440015401,
                        58744.65108643023,
                        19685.656565538135,
                        4.77177631780571,
                        58.90031364270012,
                        14.743048263177867,
                    ],
                ),
                (
                    12666841794177138688,
                    29231066380238848,
                    [58742.0, 19692.0, 0.0, 58748.0, 19682.0, 0.0, 0.0, 0.0],
                ),
            ],
        ],
    );
}
