//! Criterion bench: the read path — `ConsistentSnapshot` O(1) prefix
//! serving vs the `SubtreeServer` decomposition fold, across range lengths.
//!
//! The acceptance shape: snapshot throughput (queries/s, reported via
//! `Throughput::Elements`) must be flat in the range length — every answer
//! is two prefix lookups — while the decomposition fold's cost tracks the
//! tree height. Records land in `$BENCH_JSON` alongside the inference
//! benches, so `bench_diff` gates serving throughput too.
//!
//! The `*_scale` groups extend the grid to 2^20 and 2^26 leaves (synthetic
//! values — the serving arithmetic is identical, only cache residency
//! changes). `range_serving_publish` times the write side end to end: a
//! warm service publish at 2^24 bins, rebuilt into the epoch the ring
//! retired, for a hierarchical and a budgeted tenant.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hc_core::{
    AccuracyTarget, BatchInference, BudgetSplit, ConsistentSnapshot, HierarchicalUniversal,
    ReleaseStrategy, Rounding, StrategyPlanner, SubtreeServer,
};
use hc_data::{dyadic_sizes, Domain, Histogram, Interval, RangeWorkload};
use hc_mech::{Epsilon, TreeShape};
use hc_noise::rng_from_seed;
use hc_serve::{HistogramService, SnapshotCell, TenantConfig};
use std::hint::black_box;

/// Serving domain: 2^16 bins (height-17 binary tree) — large enough that a
/// per-query subtree walk is visibly O(log n) while staying quick-mode
/// friendly.
const DOMAIN: usize = 1 << 16;

/// Queries per batch; per-query time is the reported number via
/// `Throughput::Elements`.
const BATCH: usize = 1 << 10;

/// Range lengths swept: the flat-in-length claim needs a short, a medium,
/// and a near-domain length.
const LENGTHS: [usize; 3] = [1 << 4, 1 << 10, 1 << 15];

fn served_release() -> (TreeShape, Vec<f64>, Vec<f64>) {
    let counts: Vec<u64> = (0..DOMAIN)
        .map(|i| if i % 5 == 0 { (i % 17) as u64 } else { 0 })
        .collect();
    let histogram = Histogram::from_counts(Domain::new("x", DOMAIN).expect("non-empty"), counts);
    let shape = TreeShape::for_domain(DOMAIN, 2);
    let pipeline = HierarchicalUniversal::binary(Epsilon::new(0.1).expect("valid ε"));
    let release = pipeline.release(&histogram, &mut rng_from_seed(17));
    let mut engine = BatchInference::for_shape(&shape);
    let mut hbar = Vec::new();
    release.infer_into(&mut engine, &mut hbar);
    (shape, release.noisy_values().to_vec(), hbar)
}

fn query_batch_over(domain: usize, len: usize, count: usize) -> Vec<Interval> {
    let workload = RangeWorkload::new(domain, len);
    workload.sample_many(&mut rng_from_seed(23), count)
}

fn query_batch(len: usize, count: usize) -> Vec<Interval> {
    query_batch_over(DOMAIN, len, count)
}

/// Deterministic leaf values for the large-domain grid: a cheap integer
/// hash keeps 2^26-leaf setup at memory-fill cost instead of a multi-second
/// release+inference (the grid measures *serving*, not inference — the
/// prefix arithmetic is the same whatever the leaves hold).
fn synthetic_leaves(domain: usize) -> Vec<f64> {
    (0..domain)
        .map(|i| (i.wrapping_mul(2654435761) % 97) as f64 * 0.25)
        .collect()
}

/// Matching deterministic per-node values for the decomposition fold.
fn synthetic_tree_values(nodes: usize) -> Vec<f64> {
    (0..nodes)
        .map(|i| (i.wrapping_mul(2654435761) % 89) as f64 * 0.5 - 11.0)
        .collect()
}

/// O(1) prefix serving: per-query cost must be flat across range lengths.
fn bench_snapshot(c: &mut Criterion) {
    let (shape, _, hbar) = served_release();
    let snapshot = ConsistentSnapshot::from_tree_values(&shape, &hbar, DOMAIN);
    let mut group = c.benchmark_group("range_serving_snapshot");
    for &len in &LENGTHS {
        let queries = query_batch(len, BATCH);
        let mut out = Vec::new();
        snapshot.answer_into(&queries, &mut out); // warm the answer buffer
        group.throughput(Throughput::Elements(BATCH as u64));
        group.bench_with_input(BenchmarkId::new("len", len), &queries, |b, queries| {
            b.iter(|| {
                snapshot.answer_into(black_box(queries), &mut out);
                black_box(out[0])
            });
        });
    }
    group.finish();
}

/// The decomposition fold (H̃-style serving): O(log n) per query, the
/// comparison point that shows what the snapshot buys.
fn bench_subtree_fold(c: &mut Criterion) {
    let (shape, noisy, _) = served_release();
    let server = SubtreeServer::new(&shape);
    let mut group = c.benchmark_group("range_serving_subtree");
    for &len in &LENGTHS {
        let queries = query_batch(len, BATCH);
        let mut out = Vec::new();
        group.throughput(Throughput::Elements(BATCH as u64));
        group.bench_with_input(BenchmarkId::new("len", len), &queries, |b, queries| {
            b.iter(|| {
                server.answer_into(&noisy, Rounding::None, black_box(queries), &mut out);
                black_box(out[0])
            });
        });
    }
    group.finish();
}

/// The large-domain serving grid: 2^20 and 2^26 leaves, where the prefix
/// array (8 MB / 512 MB) no longer fits in cache and each answer is two
/// DRAM-resident loads. Per-query cost must stay flat in range length —
/// that is the whole point of prefix serving — while the absolute ns/query
/// tracks memory latency, not arithmetic.
fn bench_snapshot_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("range_serving_snapshot_scale");
    for &lg in &[20usize, 26] {
        let domain = 1usize << lg;
        let snapshot = {
            let leaves = synthetic_leaves(domain);
            ConsistentSnapshot::from_leaves(&leaves, domain)
        };
        for &len in &[1usize << 4, 1 << 10] {
            let queries = query_batch_over(domain, len, BATCH);
            let mut out = Vec::new();
            snapshot.answer_into(&queries, &mut out);
            group.throughput(Throughput::Elements(BATCH as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("d{lg}/len"), len),
                &queries,
                |b, queries| {
                    b.iter(|| {
                        snapshot.answer_into(black_box(queries), &mut out);
                        black_box(out[0])
                    });
                },
            );
        }
    }
    group.finish();
}

/// The binary fold at scale: O(log n) per query over a DRAM-resident node
/// vector (1 GB at 2^26 leaves) — the regime where memory latency, not the
/// fold's index arithmetic, sets the cost. `d20/dyadic` is the Fig. 6
/// scoring shape: 32 ranges of every dyadic length at 2^20 leaves, one
/// batch per length.
fn bench_subtree_fold_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("range_serving_subtree_scale");
    for &lg in &[20usize, 26] {
        let shape = TreeShape::new(2, lg + 1);
        let domain = shape.leaves();
        let values = synthetic_tree_values(shape.nodes());
        let server = SubtreeServer::new(&shape);
        let queries = query_batch_over(domain, 1 << 10, BATCH);
        let mut out = Vec::new();
        server.answer_into(&values, Rounding::None, &queries, &mut out);
        group.throughput(Throughput::Elements(BATCH as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("d{lg}/len"), 1 << 10),
            &queries,
            |b, queries| {
                b.iter(|| {
                    server.answer_into(&values, Rounding::None, black_box(queries), &mut out);
                    black_box(out[0])
                });
            },
        );
    }
    let shape = TreeShape::new(2, 21);
    let values = synthetic_tree_values(shape.nodes());
    let server = SubtreeServer::new(&shape);
    let batches: Vec<Vec<Interval>> = dyadic_sizes(shape.height())
        .into_iter()
        .map(|len| query_batch_over(shape.leaves(), len, 32))
        .collect();
    let queries: usize = batches.iter().map(Vec::len).sum();
    let mut out = Vec::new();
    group.throughput(Throughput::Elements(queries as u64));
    group.bench_function(BenchmarkId::new("d20", "dyadic"), |b| {
        b.iter(|| {
            for queries in &batches {
                server.answer_into(&values, Rounding::None, black_box(queries), &mut out);
            }
            black_box(out[0])
        });
    });
    group.finish();
}

/// Rebuild cost at scale: the write-side story of the 2^26 grid — one
/// pass of prefix accumulation over a DRAM-resident leaf vector.
fn bench_snapshot_rebuild_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("range_serving_rebuild_scale");
    for &lg in &[20usize, 26] {
        let domain = 1usize << lg;
        let leaves = synthetic_leaves(domain);
        let mut snapshot = ConsistentSnapshot::from_leaves(&leaves, domain);
        group.throughput(Throughput::Elements(domain as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("d{lg}/leaves"), domain),
            &leaves,
            |b, leaves| {
                b.iter(|| {
                    snapshot.rebuild_from_leaves(black_box(leaves), domain);
                    black_box(snapshot.total())
                });
            },
        );
    }
    group.finish();
}

/// One snapshot rebuild from a full tree vector — the per-trial cost the
/// experiment scoring loops pay before serving thousands of queries.
fn bench_snapshot_rebuild(c: &mut Criterion) {
    let (shape, _, hbar) = served_release();
    let mut snapshot = ConsistentSnapshot::from_tree_values(&shape, &hbar, DOMAIN);
    let mut group = c.benchmark_group("range_serving_rebuild");
    group.throughput(Throughput::Elements(shape.leaves() as u64));
    group.bench_with_input(
        BenchmarkId::new("leaves", shape.leaves()),
        &hbar,
        |b, hbar| {
            b.iter(|| {
                snapshot.rebuild_from_tree_values(&shape, black_box(hbar), DOMAIN);
                black_box(snapshot.total())
            });
        },
    );
    group.finish();
}

/// Back-to-back warm publishes of one tenant at 2^24 bins with no reader
/// pinning anything, after `SLOTS + 1` set-up publishes, so every timed
/// publish rebuilds into the epoch the ring retired one publish earlier:
/// `hier` is a default (binary hierarchical) tenant, `budgeted` a binary
/// tree with a geometric (ratio 1.5) per-level budget split. 2^24 and not
/// 2^20: at 2^20 the 8 MiB prefix sits under glibc's adaptive mmap
/// threshold, so a fresh prefix reuses freed heap pages and the label
/// would hide the page faults that recycling removes. Each tenant's
/// service is dropped before the next one is built, so only one 2^24
/// tenant is resident at a time.
fn bench_publish(c: &mut Criterion) {
    let n = 1usize << 24;
    let deltas: Vec<(usize, u64)> = (0..n).step_by(97).map(|b| (b, b as u64 % 13)).collect();
    let mut group = c.benchmark_group("range_serving_publish");
    group.throughput(Throughput::Elements(n as u64));
    for (label, strategy) in [
        ("hier", None),
        (
            "budgeted",
            Some(ReleaseStrategy::Budgeted {
                branching: 2,
                split: BudgetSplit::Geometric { ratio: 1.5 },
            }),
        ),
    ] {
        let mut service = HistogramService::new();
        let mut config = TenantConfig::new("publish", n)
            .with_budget(f64::from(1u32 << 20), 1.0)
            .with_refresh_every(0)
            .with_seed(29);
        if let Some(strategy) = strategy {
            config = config.with_strategy(strategy);
        }
        let id = service.register(config).expect("valid tenant");
        service.ingest(id, &deltas).expect("bins in domain");
        for _ in 0..=SnapshotCell::SLOTS {
            service
                .publish(id)
                .expect("budget for the set-up publishes");
        }
        group.bench_function(BenchmarkId::new(label, n), |b| {
            b.iter(|| {
                service
                    .publish(id)
                    .expect("budget outlasts the bench")
                    .epoch
            })
        });
    }
    group.finish();
}

/// The strategy planner's two entry modes: forward workload pricing and the
/// accuracy-target inversion (monotone bisection over the sampled
/// decomposition profiles). This is the once-per-registration cost a tenant
/// pays — bounded here so the accuracy front door stays cheap enough to sit
/// on the service's register path.
fn bench_planner(c: &mut Criterion) {
    let planner = StrategyPlanner::new(DOMAIN, Epsilon::new(0.1).expect("valid ε"));
    let workload = [
        RangeWorkload::new(DOMAIN, 1 << 4),
        RangeWorkload::new(DOMAIN, 1 << 12),
    ];
    let target = AccuracyTarget::new(0.05, 50.0).with_workload(workload.to_vec());
    let mut group = c.benchmark_group("range_serving_planner");
    group.bench_function("forward_plan", |b| {
        b.iter(|| black_box(planner.plan(black_box(&workload))))
    });
    group.bench_function("accuracy_ranked", |b| {
        b.iter(|| black_box(planner.plan_ranked(black_box(&target))))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_snapshot,
    bench_subtree_fold,
    bench_snapshot_rebuild,
    bench_snapshot_scale,
    bench_subtree_fold_scale,
    bench_snapshot_rebuild_scale,
    bench_publish,
    bench_planner
);
criterion_main!(benches);
