//! Criterion bench: isotonic regression — linear-time PAVA vs the O(n²)
//! Theorem-1 min-max reference, across sequence lengths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hc_core::isotonic_regression;
use hc_noise::{rng_from_seed, Laplace};
use hc_testutil::oracle::minmax_reference;
use std::hint::black_box;

fn noisy_sorted_sequence(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = rng_from_seed(seed);
    let noise = Laplace::centered(10.0).expect("positive scale");
    // A power-law-ish sorted truth plus noise: the Fig. 5 workload shape.
    (0..n)
        .map(|i| ((i * i) as f64 / n as f64) + noise.sample(&mut rng))
        .collect()
}

fn bench_pava(c: &mut Criterion) {
    let mut group = c.benchmark_group("isotonic_pava");
    for &n in &[1usize << 10, 1 << 13, 1 << 16] {
        let data = noisy_sorted_sequence(n, 42);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &data, |b, data| {
            b.iter(|| isotonic_regression(black_box(data)));
        });
    }
    group.finish();
}

fn bench_minmax_reference(c: &mut Criterion) {
    let mut group = c.benchmark_group("isotonic_minmax_reference");
    for &n in &[256usize, 1024, 2048] {
        let data = noisy_sorted_sequence(n, 43);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &data, |b, data| {
            b.iter(|| minmax_reference(black_box(data)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pava, bench_minmax_reference);
criterion_main!(benches);
