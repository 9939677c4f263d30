//! Criterion bench: hierarchical inference — the Theorem-3 reference oracle
//! vs the level-indexed engine (one warm trial per call), and both vs
//! generic solvers (dense OLS, sparse CG); the zero/round sweep alone; plus
//! the end-to-end trial pipelines, serial and trial-parallel.
//!
//! The headline comparison: on a k = 2 tree with 2^20 leaves, a warm
//! engine trial (`hier_infer_engine_single`) must run ≥ 2× faster than
//! `hierarchical_inference`. Pass `--quick` for a smoke run.
//!
//! The engine groups additionally carry a 2^26-leaf grid point
//! ([`SCALE_HEIGHT`]) where the node vector is DRAM-resident and rebuild
//! cost / memory bandwidth, not arithmetic, set the pace.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hc_core::{
    enforce_nonnegativity, hierarchical_inference, BatchInference, HierarchicalUniversal,
    LevelTree, Rounding,
};
use hc_data::{Domain, Histogram};
use hc_linalg::{conjugate_gradient, CgOptions, CsrMatrix, Matrix};
use hc_mech::{Epsilon, TreeShape};
use hc_noise::{rng_from_seed, Laplace, NoiseBackend, SeedStream};
use std::hint::black_box;

/// Heights compared head-to-head; 21 is the 2^20-leaf acceptance shape.
const HEADLINE_HEIGHTS: [usize; 3] = [11, 17, 21];

/// The production-scale grid point: a height-27 binary tree (2^26 leaves,
/// 2^27−1 nodes ≈ 1 GB of f64), where memory bandwidth — not arithmetic —
/// sets the pace. Only the engine paths run here: the reference oracle's
/// per-node allocation pattern would take minutes per iteration at this
/// size without saying anything new (the bit-identity pins already cover
/// it at every smaller height), and the 4-trial parallel pipeline would
/// need 8 GB of batch buffers.
const SCALE_HEIGHT: usize = 27;

/// Trials per iteration in the trial-parallel pipeline benchmark (per-trial
/// time is the reported number via `Throughput::Elements`).
const BATCH_TRIALS: usize = 4;

fn noisy_tree(shape: &TreeShape, seed: u64) -> Vec<f64> {
    let mut rng = rng_from_seed(seed);
    let noise = Laplace::centered(shape.height() as f64).expect("positive scale");
    (0..shape.nodes())
        .map(|_| 5.0 + noise.sample(&mut rng))
        .collect()
}

fn aggregation_triplets(shape: &TreeShape) -> Vec<(usize, usize, f64)> {
    let mut triplets = Vec::new();
    for v in 0..shape.nodes() {
        let span = shape.leaf_span(v);
        for leaf in span.lo()..=span.hi() {
            triplets.push((v, leaf, 1.0));
        }
    }
    triplets
}

/// The reference oracle: per-node weights, allocating per call.
fn bench_reference(c: &mut Criterion) {
    let mut group = c.benchmark_group("hier_infer_reference");
    for &height in &HEADLINE_HEIGHTS {
        let shape = TreeShape::new(2, height);
        let noisy = noisy_tree(&shape, 7);
        group.throughput(Throughput::Elements(shape.nodes() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(shape.leaves()),
            &noisy,
            |b, noisy| {
                b.iter(|| hierarchical_inference(black_box(&shape), black_box(noisy)));
            },
        );
    }
    group.finish();
}

/// The engine, one trial per call, warm: `infer_into` with the output
/// buffer reused across iterations, so the row times the two sweeps (the
/// input read on first touch, the output written up and then down in
/// place) rather than the page faults of a fresh 2^21-node output.
fn bench_engine_single(c: &mut Criterion) {
    let mut group = c.benchmark_group("hier_infer_engine_single");
    for &height in HEADLINE_HEIGHTS.iter().chain(&[SCALE_HEIGHT]) {
        let shape = TreeShape::new(2, height);
        let noisy = noisy_tree(&shape, 7);
        let mut engine = BatchInference::for_shape(&shape);
        let mut out = Vec::new();
        group.throughput(Throughput::Elements(shape.nodes() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(shape.leaves()),
            &noisy,
            |b, noisy| {
                b.iter(|| {
                    engine.infer_into(black_box(noisy), &mut out);
                    black_box(out[0])
                });
            },
        );
    }
    group.finish();
}

/// A sparse-ish histogram over `n` bins for the end-to-end pipeline runs.
fn pipeline_histogram(n: usize) -> Histogram {
    let counts: Vec<u64> = (0..n)
        .map(|i| if i % 7 == 0 { (i % 23) as u64 } else { 0 })
        .collect();
    Histogram::from_counts(Domain::new("x", n).expect("non-empty"), counts)
}

/// The PR-2-era tree evaluation: reverse-BFS per-node `parent()` walk (one
/// integer division per node), zero-padded histogram copy and all —
/// reconstructed here so the baseline trial measures what the old code
/// actually paid, independent of this crate's current implementation.
fn pr2_evaluate(shape: &TreeShape, histogram: &Histogram) -> Vec<f64> {
    let padded;
    let counts: &[u64] = if histogram.len() == shape.leaves() {
        histogram.counts()
    } else {
        padded = histogram.zero_padded(shape.leaves());
        padded.counts()
    };
    let mut values = vec![0.0f64; shape.nodes()];
    let first_leaf = shape.leaf_node(0);
    for (i, &c) in counts.iter().enumerate() {
        values[first_leaf + i] = c as f64;
    }
    for v in (1..shape.nodes()).rev() {
        let parent = shape.parent(v).expect("non-root has parent");
        values[parent] += values[v];
    }
    values
}

/// End-to-end trial through the PR-2-era path, reconstructed component by
/// component: per-node-walk evaluation, an owned noisy vector perturbed one
/// sample at a time, the untiled level sweeps allocating their buffers, the
/// reference per-node `parent()` zeroing walk, then a separate rounding
/// pass. This is the baseline the batched pipeline is measured against.
fn bench_pipeline_pr2_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("hier_pipeline_pr2_path");
    for &height in &[17usize, 21] {
        let shape = TreeShape::new(2, height);
        let n = shape.leaves();
        let histogram = pipeline_histogram(n);
        let noise = Laplace::centered(height as f64 / 0.1).expect("positive scale");
        let mut rng = rng_from_seed(11);
        let tree = LevelTree::new(&shape);
        group.throughput(Throughput::Elements(shape.nodes() as u64));
        group.bench_with_input(BenchmarkId::new("k2", n), &histogram, |b, h| {
            b.iter(|| {
                let mut noisy = pr2_evaluate(&shape, h);
                for v in &mut noisy {
                    *v += noise.sample(&mut rng);
                }
                let inferred = tree.infer_untiled(&noisy);
                let mut values = enforce_nonnegativity(&shape, &inferred);
                for v in &mut values {
                    *v = Rounding::NonNegativeInteger.apply(*v);
                }
                black_box(values[0])
            });
        });
    }
    group.finish();
}

/// End-to-end trial through the allocation-free batched pipeline:
/// `release_and_infer_rounded` over a prepared mechanism and warm engine
/// scratch — counting and noise folded into the upward slabs, both
/// Theorem-3 passes, fused zeroing + rounding, zero allocations per trial.
fn bench_pipeline_batched(c: &mut Criterion) {
    let mut group = c.benchmark_group("hier_pipeline_batched");
    for &height in &[17usize, 21, SCALE_HEIGHT] {
        let shape = TreeShape::new(2, height);
        let n = shape.leaves();
        let histogram = pipeline_histogram(n);
        let pipeline = HierarchicalUniversal::binary(Epsilon::new(0.1).expect("valid ε"));
        let prepared = pipeline.prepare(n);
        let mut rng = rng_from_seed(11);
        let mut engine = BatchInference::for_shape(&shape);
        let mut out = Vec::new();
        group.throughput(Throughput::Elements(shape.nodes() as u64));
        group.bench_with_input(BenchmarkId::new("k2", n), &histogram, |b, h| {
            b.iter(|| {
                engine.release_and_infer_rounded(&prepared, h, &mut rng, &mut out);
                black_box(out[0])
            });
        });
        if height <= 21 {
            // The same fused trial under the wide-lane backend — the
            // end-to-end payoff of killing the draw floor (the ISSUE-10
            // acceptance compares this against the default-backend row).
            let prepared_wide = pipeline.with_backend(NoiseBackend::FastLnWide).prepare(n);
            let mut rng = rng_from_seed(11);
            group.bench_with_input(BenchmarkId::new("k2_wide", n), &histogram, |b, h| {
                b.iter(|| {
                    engine.release_and_infer_rounded(&prepared_wide, h, &mut rng, &mut out);
                    black_box(out[0])
                });
            });
        }
    }
    group.finish();
}

/// The Sec. 4.2/5.2 zero/round sweep alone (`zero_round_in_place`) at 2^20
/// leaves for the fan-outs with their own kernel copy. The sweep is
/// branch-free, so its cost does not depend on the values: the first
/// iteration turns the noisy tree into a fixed point of the sweep and
/// every later one does the same work over it, with no restore copy in
/// the timed loop.
fn bench_zero_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("zero_round_in_place");
    for (k, height) in [(2usize, 21usize), (4, 11), (16, 6)] {
        let shape = TreeShape::new(k, height);
        let tree = LevelTree::new(&shape);
        let mut values = noisy_tree(&shape, 7);
        group.throughput(Throughput::Elements(shape.nodes() as u64));
        group.bench_function(BenchmarkId::new(format!("k{k}"), shape.leaves()), |b| {
            b.iter(|| {
                tree.zero_round_in_place(black_box(&mut values));
                black_box(values[0])
            });
        });
    }
    group.finish();
}

/// The Laplace-draw phase in isolation, per noise backend, including the
/// pipeline's 2^21-draw scale (one draw per node of the 2^20-leaf tree).
fn bench_laplace_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("laplace_fill");
    let noise = Laplace::centered(210.0).expect("positive scale");
    for &n in &[1usize << 17, (1 << 21) - 1, (1 << 27) - 1] {
        // −1 keeps the 2^21 and 2^27 cases honest about the scalar tail.
        let mut buf = vec![0.0f64; n];
        for backend in [NoiseBackend::Reference, NoiseBackend::FastLnWide] {
            let mut rng = rng_from_seed(31);
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(BenchmarkId::new(backend.name(), n + n % 2), &n, |b, _| {
                b.iter(|| {
                    noise.fill_with(backend, &mut rng, black_box(&mut buf));
                    black_box(buf[0])
                });
            });
        }
    }
    group.finish();
}

/// The full fused trial scaled across cores by `release_and_infer_batch_parallel`
/// — per-trial time for a batch of 4, at the thread cap CI pins via
/// `HC_THREADS`. Compare against `hier_pipeline_batched` (the same trial,
/// serial) for the multi-core end-to-end speedup.
fn bench_pipeline_batch_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("hier_pipeline_batch_parallel");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for &height in &[17usize, 21] {
        let shape = TreeShape::new(2, height);
        let n = shape.leaves();
        let histogram = pipeline_histogram(n);
        let pipeline = HierarchicalUniversal::binary(Epsilon::new(0.1).expect("valid ε"));
        let prepared = pipeline.prepare(n);
        let seeds = SeedStream::new(11);
        let mut engine = BatchInference::for_shape(&shape);
        let (mut noisy_batch, mut out_batch) = (Vec::new(), Vec::new());
        group.throughput(Throughput::Elements((shape.nodes() * BATCH_TRIALS) as u64));
        group.bench_with_input(BenchmarkId::new("k2", n), &histogram, |b, h| {
            b.iter(|| {
                engine.release_and_infer_batch_parallel(
                    &prepared,
                    h,
                    seeds,
                    BATCH_TRIALS,
                    true,
                    threads,
                    Some(&mut noisy_batch),
                    &mut out_batch,
                );
                black_box(out_batch[0])
            });
        });
    }
    group.finish();
}

fn bench_sparse_cg(c: &mut Criterion) {
    let mut group = c.benchmark_group("hier_infer_sparse_cg");
    group.sample_size(10);
    for &height in &[7usize, 9] {
        let shape = TreeShape::new(2, height);
        let noisy = noisy_tree(&shape, 8);
        let a =
            CsrMatrix::from_triplets(shape.nodes(), shape.leaves(), aggregation_triplets(&shape));
        let rhs = a.transpose_matvec(&noisy).expect("dimensions match");
        group.bench_with_input(
            BenchmarkId::from_parameter(shape.leaves()),
            &rhs,
            |b, rhs| {
                b.iter(|| {
                    conjugate_gradient(a.gram_operator(), black_box(rhs), CgOptions::default())
                        .expect("SPD system converges")
                });
            },
        );
    }
    group.finish();
}

fn bench_dense_ols(c: &mut Criterion) {
    let mut group = c.benchmark_group("hier_infer_dense_ols");
    group.sample_size(10);
    for &height in &[5usize, 7] {
        let shape = TreeShape::new(2, height);
        let noisy = noisy_tree(&shape, 9);
        let a = Matrix::from_fn(shape.nodes(), shape.leaves(), |v, leaf| {
            if shape.leaf_span(v).contains(leaf) {
                1.0
            } else {
                0.0
            }
        });
        group.bench_with_input(
            BenchmarkId::from_parameter(shape.leaves()),
            &noisy,
            |b, noisy| {
                b.iter(|| hc_linalg::lstsq(black_box(&a), black_box(noisy)).expect("full rank"));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_reference,
    bench_engine_single,
    bench_zero_round,
    bench_laplace_fill,
    bench_pipeline_pr2_path,
    bench_pipeline_batched,
    bench_pipeline_batch_parallel,
    bench_sparse_cg,
    bench_dense_ols
);
criterion_main!(benches);
