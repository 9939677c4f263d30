//! Backend-versioning contract tests (see `hc_noise::backend`): property
//! tests that the `Reference` backend is frozen to the pre-backend sampler
//! and its lane kernel matches per-call sampling at every length and call
//! split, that the fused wide-lane `FastLnWide` is a faithful Laplace
//! sampler within its documented accuracy, that the wide fill's bits are
//! independent of call splitting and lane position, and that the
//! trial-parallel batch pipeline is bit-identical to serial for both
//! backends at any fan-out. (`HC_THREADS` ∈ {1, 2, unset}
//! is exercised end-to-end over real experiment binaries in
//! `crates/bench/tests/hc_threads.rs`; here the fan-out is passed
//! explicitly, which reaches the same code path `effective_threads` feeds.)

use hist_consistency::noise::FAST_LN_MAX_ULP;
use hist_consistency::prelude::*;
use proptest::prelude::*;
use rand::Rng;

/// The sampler exactly as it existed before the backend abstraction
/// (PR 3's branchless inverse-CDF form). `NoiseBackend::Reference` pins
/// itself to this, bit for bit, forever.
fn pre_refactor_sample<R: Rng + ?Sized>(mu: f64, b: f64, rng: &mut R) -> f64 {
    let u = 0.5 - rng.random::<f64>();
    let magnitude = -b * (1.0 - 2.0 * u.abs()).ln();
    mu + magnitude.copysign(u)
}

proptest! {
    #[test]
    fn reference_backend_is_bit_identical_to_the_pre_refactor_sampler(
        seed in 0u64..1_000_000,
        mu in -50.0f64..50.0,
        scale in 0.01f64..100.0,
        len in 1usize..300,
    ) {
        let d = Laplace::new(mu, scale).unwrap();
        let mut via_backend = vec![0.0f64; len];
        d.fill_with(NoiseBackend::Reference, &mut rng_from_seed(seed), &mut via_backend);
        let mut rng = rng_from_seed(seed);
        for (i, v) in via_backend.iter().enumerate() {
            let old = pre_refactor_sample(mu, scale, &mut rng);
            prop_assert!(
                v.to_bits() == old.to_bits(),
                "sample {i} drifted: {v:?} vs pre-refactor {old:?}"
            );
        }
    }

    #[test]
    fn reference_fill_and_add_noise_match_per_call_samples(
        seed in any::<u64>(),
        mu in -50.0f64..50.0,
        scale in 0.01f64..100.0,
        len in 0usize..300,
    ) {
        // The lane kernel with its deferred libm fallback must give every
        // slot the per-call oracle's bits, at every length: lengths up to
        // 300 straddle the 8-lane strips and several 64-draw fallback
        // blocks, remainders included.
        let d = Laplace::new(mu, scale).unwrap();
        let mut filled = vec![f64::NAN; len];
        d.fill_with(NoiseBackend::Reference, &mut rng_from_seed(seed), &mut filled);
        let base: Vec<f64> = (0..len).map(|i| i as f64 * 0.75 - 40.0).collect();
        let mut perturbed = base.clone();
        d.add_noise_with(NoiseBackend::Reference, &mut rng_from_seed(seed), &mut perturbed);
        let mut rng = rng_from_seed(seed);
        for i in 0..len {
            let one = d.sample(&mut rng);
            prop_assert!(
                filled[i].to_bits() == one.to_bits(),
                "fill slot {i}: {:?} vs per-call {one:?}", filled[i]
            );
            let want = base[i] + one;
            prop_assert!(
                perturbed[i].to_bits() == want.to_bits(),
                "add_noise slot {i}: {:?} vs per-call {want:?}", perturbed[i]
            );
        }
    }

    #[test]
    fn reference_fill_bits_are_independent_of_call_splitting(
        seed in any::<u64>(),
        len in 0usize..300,
        cuts in proptest::collection::vec(0usize..300, 0..4),
    ) {
        // One fill of N and a fill split at arbitrary points on one
        // continued rng give identical bits, for `fill` and `add_noise`.
        let d = Laplace::new(0.5, 3.0).unwrap();
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(len)).collect();
        cuts.sort_unstable();
        let mut whole = vec![0.0f64; len];
        d.fill(&mut rng_from_seed(seed), &mut whole);
        let mut whole_added = vec![1.0f64; len];
        d.add_noise(&mut rng_from_seed(seed), &mut whole_added);
        let (mut parts, mut parts_added) = (vec![0.0f64; len], vec![1.0f64; len]);
        let (mut rng, mut rng_added) = (rng_from_seed(seed), rng_from_seed(seed));
        let mut start = 0;
        for end in cuts.into_iter().chain([len]) {
            d.fill(&mut rng, &mut parts[start..end]);
            d.add_noise(&mut rng_added, &mut parts_added[start..end]);
            start = end;
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        prop_assert_eq!(bits(&whole), bits(&parts));
        prop_assert_eq!(bits(&whole_added), bits(&parts_added));
    }

    #[test]
    fn wide_fill_bits_are_independent_of_call_splitting(
        seed in any::<u64>(),
        len in 0usize..200,
        split in 0usize..200,
    ) {
        // One fill of N and two fills of (split, N − split) on one
        // continued rng must produce identical bits — the draw-policy
        // contract (sample i depends only on u64 draw i) holds across the
        // wide path's 16-element double-buffered blocks, the 8-lane strips,
        // and the scalar tail, for every split point. Lengths up to 200
        // cross several lane-block boundaries.
        let split = split.min(len);
        let d = Laplace::centered(2.0).unwrap();
        let mut whole = vec![0.0f64; len];
        d.fill_with(NoiseBackend::FastLnWide, &mut rng_from_seed(seed), &mut whole);
        let mut rng = rng_from_seed(seed);
        let mut parts = vec![0.0f64; len];
        let (head, tail) = parts.split_at_mut(split);
        d.fill_with(NoiseBackend::FastLnWide, &mut rng, head);
        d.fill_with(NoiseBackend::FastLnWide, &mut rng, tail);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        prop_assert_eq!(bits(&whole), bits(&parts));
    }

    #[test]
    fn wide_fill_matches_per_draw_scalar_samples(
        seed in any::<u64>(),
        len in 1usize..70,
    ) {
        // Every wide-fill sample equals the scalar `sample_with` of the
        // same draw index — lane position never leaks into sample values.
        let d = Laplace::new(-3.0, 1.5).unwrap();
        let mut filled = vec![0.0f64; len];
        d.fill_with(NoiseBackend::FastLnWide, &mut rng_from_seed(seed), &mut filled);
        let mut rng = rng_from_seed(seed);
        for (i, v) in filled.iter().enumerate() {
            let scalar = d.sample_with(NoiseBackend::FastLnWide, &mut rng);
            prop_assert!(
                v.to_bits() == scalar.to_bits(),
                "sample {i} differs: {v:?} vs scalar {scalar:?}"
            );
        }
    }

    #[test]
    fn wide_fill_ln_is_within_documented_ulp_of_library_ln(
        seed in any::<u64>(),
    ) {
        // Fill-level ulp audit of the fused kernel. At b = 1 every folded
        // scale constant (−2b, −b·LN2_HI, −b·LN2_LO) is exact, so
        // |sample| is exactly the kernel's −ln(u) — and u reconstructs
        // exactly from the draw's bits (u = ((bits >> 12) | 1)·2⁻⁵², a
        // 52-bit integer scaled by a power of two). The kernel must stay
        // within the documented FAST_LN_MAX_ULP of `f64::ln`; measured the
        // bound is ≤ 2 ulp over hundreds of millions of draws, and the
        // tighter bound is asserted too so a regression inside the
        // documented envelope still surfaces.
        let d = Laplace::new(0.0, 1.0).unwrap();
        let n = 512usize;
        let mut samples = vec![0.0f64; n];
        d.fill_with(NoiseBackend::FastLnWide, &mut rng_from_seed(seed), &mut samples);
        let mut rng = rng_from_seed(seed);
        for (i, s) in samples.iter().enumerate() {
            let bits = rng.next_u64();
            let u = ((bits >> 12) | 1) as f64 * (-52f64).exp2();
            let want = u.ln();
            let got = -s.abs();
            let ulp = (got.to_bits() as i64).abs_diff(want.to_bits() as i64);
            prop_assert!(
                ulp <= FAST_LN_MAX_ULP,
                "draw {i}: wide ln(u = {u:e}) = {got:e} vs ln = {want:e} ({ulp} ulp)"
            );
            prop_assert!(ulp <= 2, "draw {i}: measured bound regressed ({ulp} ulp)");
        }
    }

    #[test]
    fn batch_parallel_is_bit_identical_to_serial_for_all_backends(
        master in 0u64..1_000_000,
        trials in 1usize..9,
        height in 2usize..7,
        backend_idx in 0usize..2,
    ) {
        let backend = [NoiseBackend::Reference, NoiseBackend::FastLnWide][backend_idx];
        let n = 1usize << (height - 1);
        let counts: Vec<u64> = (0..n as u64).map(|i| i % 7).collect();
        let histogram = Histogram::from_counts(Domain::new("x", n).unwrap(), counts);
        let shape = TreeShape::for_domain(n, 2);
        let prepared = LaplaceMechanism::new(Epsilon::new(0.7).unwrap())
            .with_backend(backend)
            .prepare(HierarchicalQuery::binary(), n);
        let mut engine = BatchInference::for_shape(&shape);
        let seeds = SeedStream::new(master);
        for rounded in [false, true] {
            let (mut sn, mut so) = (Vec::new(), Vec::new());
            engine.release_and_infer_batch(
                &prepared, &histogram, seeds, trials, rounded, Some(&mut sn), &mut so,
            );
            for threads in [1usize, 2, 5] {
                let (mut pn, mut po) = (Vec::new(), Vec::new());
                engine.release_and_infer_batch_parallel(
                    &prepared, &histogram, seeds, trials, rounded, threads, Some(&mut pn), &mut po,
                );
                prop_assert!(pn == sn, "noisy batch diverged (threads {threads})");
                prop_assert!(po == so, "inferred batch diverged (threads {threads})");
            }
            // Skipping the noisy output must not change the inference.
            let mut po = Vec::new();
            engine.release_and_infer_batch_parallel(
                &prepared, &histogram, seeds, trials, rounded, 3, None, &mut po,
            );
            prop_assert!(po == so, "inferred batch diverged without noisy output");
        }
    }
}
