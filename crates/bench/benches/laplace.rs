//! Criterion bench: noise sampling throughput (Laplace, geometric, Zipf).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hc_noise::{rng_from_seed, Laplace, TwoSidedGeometric, Zipf};
use std::hint::black_box;

fn bench_laplace(c: &mut Criterion) {
    let mut group = c.benchmark_group("noise_sampling");
    let n = 65_536usize;
    group.throughput(Throughput::Elements(n as u64));

    group.bench_function("laplace_65536", |b| {
        let d = Laplace::centered(10.0).expect("positive scale");
        let mut rng = rng_from_seed(1);
        let mut buf = vec![0.0f64; n];
        b.iter(|| {
            d.sample_into(&mut rng, black_box(&mut buf));
        });
    });

    group.bench_function("geometric_65536", |b| {
        let d = TwoSidedGeometric::with_budget(0.1, 1.0).expect("valid budget");
        let mut rng = rng_from_seed(2);
        b.iter(|| black_box(d.sample_vec(&mut rng, n)));
    });

    group.bench_function("zipf_65536_draws", |b| {
        let z = Zipf::new(20_000, 1.05).expect("valid parameters");
        let mut rng = rng_from_seed(3);
        b.iter(|| black_box(z.sample_histogram(&mut rng, n)));
    });

    group.finish();
}

criterion_group!(benches, bench_laplace);
criterion_main!(benches);
