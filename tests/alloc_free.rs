//! The allocation-free pipeline contract, enforced with a counting
//! allocator: after warm-up, `BatchInference::release_and_infer` /
//! `release_and_infer_rounded` (and the experiment-loop building blocks
//! they are made of) perform **zero** heap allocations per trial — and the
//! serving layer (`ConsistentSnapshot` rebuild + `answer_into`,
//! `SubtreeServer::answer_into`) answers warm query batches with zero heap
//! allocations per batch. The same allocator also counts bytes, which pins
//! that a snapshot broadcast to a sharded bank shares one copy of the
//! prefix instead of copying it per shard, and that a warm service publish
//! of every release strategy, rebuilt into the epoch the ring retired,
//! allocates almost nothing (less than 1/8 of a prefix, the ledger label's
//! allowance) — while a publish whose retired epoch is still pinned
//! succeeds into fresh pages and leaves the pin's bits alone. It also pins
//! the engine's footprint: a cold hierarchical release requests one tree,
//! the snapshot's prefix and O(slab) scratch, and a cold trial one tree
//! (its output) and O(slab) scratch — the Theorem-3 passes run in place,
//! with no second or third tree of scratch.
//!
//! The counters are per thread, so only the test thread's own allocations
//! count: the harness's main thread can allocate while the test runs, which
//! process-global counters occasionally charged to the measured code. The
//! code under test allocates on the calling thread only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hist_consistency::prelude::*;
use hist_consistency::serve::{SnapshotCell, SnapshotShards};

/// Wraps the system allocator and counts every allocation call and the
/// bytes each one requests.
struct CountingAllocator;

thread_local! {
    // `const` initializers with no destructor: reading them never
    // allocates, so the allocator itself can use them.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn record(bytes: usize) {
    ALLOCATIONS.set(ALLOCATIONS.get() + 1);
    BYTES.set(BYTES.get() + bytes);
}

// SAFETY: delegates directly to `System`, which upholds the `GlobalAlloc`
// contract; the counters are plain thread-local cells.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // The whole new block counts: a realloc may move and copy it all.
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `body` and returns how many allocation calls it made.
fn allocations_during(body: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.get();
    body();
    ALLOCATIONS.get() - before
}

/// Runs `body` and returns how many bytes its allocation calls requested.
fn bytes_during(body: impl FnOnce()) -> usize {
    let before = BYTES.get();
    body();
    BYTES.get() - before
}

#[test]
fn release_and_infer_pipeline_is_allocation_free_after_warmup() {
    // A power-of-two domain so the release needs no padding bookkeeping,
    // large enough that any per-trial allocation would be unmistakable.
    let n = 1usize << 12;
    let counts: Vec<u64> = (0..n as u64).map(|i| i % 5).collect();
    let histogram = Histogram::from_counts(Domain::new("x", n).expect("non-empty"), counts);
    let shape = TreeShape::for_domain(n, 2);
    let pipeline = HierarchicalUniversal::binary(Epsilon::new(0.5).expect("valid ε"));
    let prepared = pipeline.prepare(n);
    let mut engine = BatchInference::for_shape(&shape);
    let mut out = Vec::new();
    let mut published = ConsistentSnapshot::from_leaves(&[0.0], 1);
    let mut rng = rng_from_seed(1);

    // Warm-up: grow every scratch buffer to its high-water mark.
    let mut trial = |rng: &mut _| {
        engine.release_and_infer(&prepared, &histogram, rng, &mut out);
        engine.release_and_infer_rounded(&prepared, &histogram, rng, &mut out);
        engine.release_and_infer_into_snapshot(&prepared, &histogram, rng, &mut published);
    };
    for _ in 0..2 {
        trial(&mut rng);
    }

    let during_trials = allocations_during(|| {
        for _ in 0..16 {
            trial(&mut rng);
        }
    });
    assert_eq!(
        during_trials, 0,
        "release_and_infer(_rounded, _into_snapshot) allocated after warm-up"
    );
    // The result is real: consistent-ish rounded values over the tree.
    assert_eq!(out.len(), shape.nodes());
    assert!(out.iter().all(|&v| v >= 0.0 && v.fract() == 0.0));

    // The experiment-loop building blocks share the contract: re-release
    // into warm buffers, inference + fused zero/round into a warm output.
    let mut release = pipeline.empty_release(n);
    let mut hbar = Vec::new();
    pipeline.release_into(&histogram, &mut rng, &mut release);
    release.infer_rounded_into(&mut engine, &mut hbar);
    let during_loop_blocks = allocations_during(|| {
        for _ in 0..8 {
            pipeline.release_into(&histogram, &mut rng, &mut release);
            release.infer_rounded_into(&mut engine, &mut hbar);
        }
    });
    assert_eq!(
        during_loop_blocks, 0,
        "release_into + infer_rounded_into allocated after warm-up"
    );

    // The serving layer: snapshot rebuild + batched answers and the subtree
    // fold over a warm query batch allocate nothing per batch.
    let shape_ref = &shape;
    let mut queries = Vec::new();
    hist_consistency::data::RangeWorkload::new(n, 64).sample_into(&mut rng, 256, &mut queries);
    let mut snapshot = ConsistentSnapshot::from_tree_values(shape_ref, &hbar, n);
    let server = SubtreeServer::new(shape_ref);
    let (mut served, mut folded) = (Vec::new(), Vec::new());
    snapshot.answer_into(&queries, &mut served);
    server.answer_into(&hbar, Rounding::None, &queries, &mut folded);
    let during_serving = allocations_during(|| {
        for _ in 0..8 {
            snapshot.rebuild_from_tree_values(shape_ref, &hbar, n);
            snapshot.answer_into(&queries, &mut served);
            server.answer_into(&hbar, Rounding::None, &queries, &mut folded);
        }
    });
    assert_eq!(
        during_serving, 0,
        "warm snapshot rebuild + answer_into allocated"
    );
    assert_eq!(served.len(), queries.len());
    assert_eq!(folded.len(), queries.len());

    // One copy of the bytes: broadcasting a 2^16-leaf snapshot to a
    // 4-shard bank moves it into one shared allocation. A per-shard copy
    // would cost a whole prefix for each of shards 1..4, so the broadcast
    // must allocate less than one prefix.
    let leaves = 1usize << 16;
    let prefix_bytes = (leaves + 1) * std::mem::size_of::<f64>();
    let bank = SnapshotShards::new(ConsistentSnapshot::from_leaves(&[0.0], 1), 4);
    let published = ConsistentSnapshot::from_leaves(&vec![1.0; leaves], leaves);
    let broadcast_bytes = bytes_during(|| {
        bank.broadcast(published);
    });
    assert!(
        broadcast_bytes < prefix_bytes,
        "broadcast allocated {broadcast_bytes} bytes, a prefix is {prefix_bytes}"
    );
    // And every shard serves that one allocation: one round-robin lap of
    // pins lands on each shard once, and all of them point at the same
    // snapshot.
    let lap: Vec<_> = (0..bank.shard_count()).map(|_| bank.pin()).collect();
    for pinned in &lap {
        assert_eq!(pinned.total(), leaves as f64);
        assert!(
            std::ptr::eq(pinned.snapshot(), lap[0].snapshot()),
            "shards serve separate copies of one published snapshot"
        );
    }

    // A warm publish rebuilds the tenant's release into the epoch the ring
    // retired one publish earlier, once no reader pins it. So after
    // `SLOTS + 1` publishes with no pin held, a publish of any strategy
    // allocates less than 1/8 of a prefix: the ledger's `release-{i}` label
    // is the only allowance. A fresh snapshot or a counts copy would cost
    // a whole prefix.
    let n = 1usize << 16;
    let prefix_bytes = (n + 1) * std::mem::size_of::<f64>();
    let slots = SnapshotCell::SLOTS;
    let deltas: Vec<(usize, u64)> = (0..n).step_by(7).map(|b| (b, b as u64 % 5 + 1)).collect();
    let split = BudgetSplit::Geometric { ratio: 1.5 };
    let mut service = HistogramService::new();
    for strategy in [
        ReleaseStrategy::Flat,
        ReleaseStrategy::Hierarchical { branching: 2 },
        ReleaseStrategy::Budgeted {
            branching: 2,
            split,
        },
    ] {
        let name = format!("{strategy:?}");
        let config = TenantConfig::new(name.as_str(), n)
            .with_budget(16.0, 1.0)
            .with_refresh_every(0);
        let id = service
            .register(config.with_strategy(strategy))
            .expect("valid tenant");
        service.ingest(id, &deltas).expect("bins in domain");
        for _ in 0..=slots {
            service
                .publish(id)
                .expect("budget for the warm-up publishes");
        }
        let publish_bytes = bytes_during(|| {
            service
                .publish(id)
                .expect("budget for the measured publish");
        });
        assert!(
            8 * publish_bytes < prefix_bytes,
            "{name}: warm publish allocated {publish_bytes} bytes, a prefix is {prefix_bytes}"
        );
        // A pinned epoch is never rebuilt: hold a pin until the ring
        // retires its epoch, and the publish that would recycle it still
        // succeeds — into fresh pages — while the pin keeps its bits.
        let pinned = service.snapshot(id).expect("registered tenant");
        let total = pinned.total().to_bits();
        for _ in 0..=slots {
            service
                .publish(id)
                .expect("budget for the pinned publishes");
        }
        assert_eq!(
            service.epoch(id).expect("registered"),
            pinned.epoch() + slots + 1
        );
        assert_eq!(
            pinned.total().to_bits(),
            total,
            "{name}: pinned epoch rewritten"
        );
    }
}

#[test]
fn a_cold_release_requests_one_tree_and_slab_scratch() {
    // 2^16 bins: eight slabs, so the slab scratch is an eighth of a level.
    let n = 1usize << 16;
    let counts: Vec<u64> = (0..n as u64).map(|i| i % 5).collect();
    let histogram = Histogram::from_counts(Domain::new("x", n).expect("non-empty"), counts);
    let shape = TreeShape::for_domain(n, 2);
    let mut engine = BatchInference::for_shape(&shape);
    let slab_leaves = engine.tree().slab_leaves();
    assert!(
        slab_leaves < shape.leaves(),
        "the release must span several slabs"
    );
    let f64_bytes = std::mem::size_of::<f64>();
    let slab_scratch = 4 * f64_bytes * slab_leaves;
    let tree_bytes = f64_bytes * shape.nodes();
    let prefix_bytes = f64_bytes * (shape.leaves() + 1);
    let epsilon = Epsilon::new(0.5).expect("valid ε");

    // A cold publish-path release: the engine's one tree buffer, the fresh
    // snapshot's prefix, and the counting and leaf-sink slabs.
    let mut pipeline = StrategyPipeline::new(
        &ReleaseStrategy::Hierarchical { branching: 2 },
        epsilon,
        NoiseBackend::Reference,
        n,
    );
    let release_bytes = bytes_during(|| {
        pipeline.release(&histogram, &mut rng_from_seed(3));
    });
    assert!(
        release_bytes <= tree_bytes + prefix_bytes + slab_scratch,
        "cold release requested {release_bytes} bytes; one tree is {tree_bytes}, \
         the prefix {prefix_bytes}, the slab allowance {slab_scratch}"
    );

    // A cold rounded trial runs in its output alone: one tree plus the
    // counting slabs.
    let prepared = HierarchicalUniversal::binary(epsilon).prepare(n);
    let mut out = Vec::new();
    let trial_bytes = bytes_during(|| {
        engine.release_and_infer_rounded(&prepared, &histogram, &mut rng_from_seed(4), &mut out);
    });
    assert!(
        trial_bytes <= tree_bytes + slab_scratch,
        "cold trial requested {trial_bytes} bytes; one tree is {tree_bytes}, \
         the slab allowance {slab_scratch}"
    );
    assert_eq!(out.len(), shape.nodes());
}
