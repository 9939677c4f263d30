//! The epoch-based snapshot swap: readers never block, writers publish
//! atomically.
//!
//! [`SnapshotCell`] holds the currently-served [`ConsistentSnapshot`] behind
//! a small ring of epoch-stamped slots. The read path
//! ([`load`](SnapshotCell::load)) is wait-free in practice: it loads the
//! epoch counter, `try_read`s the matching slot (never a blocking lock
//! acquisition), and pins the published `Arc`. The only way a `try_read`
//! can fail is a writer holding that exact slot — which requires the
//! reader's epoch load to be a full ring-lap (`SLOTS` publishes) stale —
//! and the retry then picks up the fresh epoch and a different slot. A
//! pinned snapshot stays valid for as long as the caller holds it, however
//! many publishes happen meanwhile: publication swaps the served `Arc`, it
//! never mutates a snapshot in place.
//!
//! The write path ([`publish`](SnapshotCell::publish)) is the one that may
//! wait: writers serialize on a mutex, write-lock the *next* slot (stalling
//! only on readers a whole lap behind), store the new snapshot, and bump
//! the epoch counter with `Release` ordering so any reader that observes
//! the new epoch also observes the fully-written slot. Readers therefore
//! see a complete snapshot — the old one or the new one, never a torn mix —
//! which `crates/bench/src/bin/serve_load.rs --verify` and the
//! `hc_threads` subprocess stress test pin across `HC_THREADS` ∈ {1, 2, 4}.
//!
//! A published snapshot's bytes exist once. [`SnapshotShards`] wraps each
//! broadcast snapshot in a single `Arc` and every shard's cell holds a
//! refcount of that one allocation, so the shard count multiplies pointers,
//! never prefix arrays. `tests/alloc_free.rs` pins this by counting bytes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use hc_core::ConsistentSnapshot;

/// Ring width. A reader only ever contends with a writer after the ring has
/// been lapped — `SLOTS` publishes between its epoch load and its slot read
/// — so even a handful of slots makes reader retries vanishingly rare while
/// keeping the cell a few pointers wide.
const SLOTS: usize = 4;

/// One published slot: the epoch it was published at, and the snapshot.
type Slot = Option<(usize, Arc<ConsistentSnapshot>)>;

/// An epoch-swapped, reader-never-blocks cell holding the currently-served
/// snapshot of one tenant.
///
/// ```
/// use hc_core::ConsistentSnapshot;
/// use hc_serve::SnapshotCell;
///
/// let cell = SnapshotCell::new(ConsistentSnapshot::from_leaves(&[1.0, 2.0], 2));
/// let pinned = cell.load(); // wait-free read path
/// assert_eq!(pinned.epoch(), 0);
/// assert_eq!(pinned.total(), 3.0);
/// cell.publish(ConsistentSnapshot::from_leaves(&[5.0, 5.0], 2));
/// assert_eq!(pinned.total(), 3.0); // the pin still serves its epoch
/// assert_eq!(cell.load().total(), 10.0); // fresh loads serve the new one
/// ```
#[derive(Debug)]
pub struct SnapshotCell {
    /// The current epoch; `epoch % SLOTS` names the served slot.
    epoch: AtomicUsize,
    /// Epoch-stamped publication ring.
    slots: [RwLock<Slot>; SLOTS],
    /// Serializes publishers (the epoch bump must pair with its slot write).
    writer: Mutex<()>,
}

impl SnapshotCell {
    /// A cell serving `initial` at epoch 0. Takes an owned snapshot or an
    /// already-shared `Arc` of one (which is stored as is, never copied).
    pub fn new(initial: impl Into<Arc<ConsistentSnapshot>>) -> Self {
        let cell = Self {
            epoch: AtomicUsize::new(0),
            slots: std::array::from_fn(|_| RwLock::new(None)),
            writer: Mutex::new(()),
        };
        *cell.slots[0].write().expect("fresh lock never poisoned") = Some((0, initial.into()));
        cell
    }

    /// The epoch of the currently-served snapshot: 0 for the initial
    /// snapshot, incremented by one per [`Self::publish`].
    #[inline]
    pub fn epoch(&self) -> usize {
        self.epoch.load(Ordering::Acquire)
    }

    /// Pins the currently-served snapshot. Never blocks: the slot read is a
    /// `try_read`, and the only contention that can make it fail (a writer
    /// lapping the whole ring between the epoch load and the slot read)
    /// also guarantees the retry's fresh epoch points at a different slot.
    pub fn load(&self) -> PinnedSnapshot {
        loop {
            let observed = self.epoch.load(Ordering::Acquire);
            if let Ok(slot) = self.slots[observed % SLOTS].try_read() {
                if let Some((epoch, snapshot)) = slot.as_ref() {
                    // The slot may have been republished since the epoch
                    // load (a lap); either way it holds a *complete*
                    // published snapshot stamped with its own epoch.
                    return PinnedSnapshot {
                        epoch: *epoch,
                        snapshot: Arc::clone(snapshot),
                    };
                }
            }
            std::hint::spin_loop();
        }
    }

    /// Publishes a new snapshot, returning its epoch. Publishers serialize
    /// on an internal mutex and may wait for readers a full ring-lap
    /// behind; readers never wait for a publisher. The epoch store uses
    /// `Release` ordering, so a reader observing the new epoch observes the
    /// fully-written slot. Like [`Self::new`], it accepts an owned snapshot
    /// or a shared `Arc`.
    pub fn publish(&self, snapshot: impl Into<Arc<ConsistentSnapshot>>) -> usize {
        let _writer = self.writer.lock().expect("publish mutex never poisoned");
        let next = self.epoch.load(Ordering::Relaxed) + 1;
        {
            let mut slot = self.slots[next % SLOTS]
                .write()
                .expect("slot lock never poisoned");
            *slot = Some((next, snapshot.into()));
        }
        self.epoch.store(next, Ordering::Release);
        next
    }
}

/// A sharded bank of [`SnapshotCell`]s serving the *same* tenant: one cell
/// per shard, so concurrent readers spread across shards instead of all
/// hitting one cell's epoch counter and slot ring. Every cell holds a clone
/// of the *same* `Arc`: the bank shares one copy of each published
/// snapshot's bytes, whatever its width. The shard count is fixed at
/// construction (the service sizes it through `effective_threads`).
///
/// Readers [`pin`](SnapshotShards::pin) a shard-local snapshot wait-free —
/// a round-robin cursor picks the shard, then the pin is exactly a
/// [`SnapshotCell::load`]. Writers [`broadcast`](SnapshotShards::broadcast)
/// to every shard; shard 0 is published **last**, so once
/// [`epoch`](SnapshotShards::epoch) (shard 0's epoch) reports the new
/// value, every shard serves it. During a broadcast, two concurrent pins
/// may land on different epochs — each is still a complete published
/// snapshot (the per-cell torn-read guarantee is unchanged), and a batch
/// answered from one pin stays single-epoch.
///
/// ```
/// use hc_core::ConsistentSnapshot;
/// use hc_serve::SnapshotShards;
///
/// let shards = SnapshotShards::new(ConsistentSnapshot::from_leaves(&[1.0, 2.0], 2), 4);
/// assert_eq!(shards.shard_count(), 4);
/// let epoch = shards.broadcast(ConsistentSnapshot::from_leaves(&[5.0, 5.0], 2));
/// assert_eq!(epoch, 1);
/// assert_eq!(shards.pin().total(), 10.0); // wait-free, shard-local
/// ```
#[derive(Debug)]
pub struct SnapshotShards {
    cells: Vec<SnapshotCell>,
    /// Round-robin reader cursor; wraps via modulo, `Relaxed` is enough —
    /// it only balances load, it carries no synchronization.
    cursor: AtomicUsize,
}

impl SnapshotShards {
    /// A bank of `shards.max(1)` cells, every shard serving `initial` at
    /// epoch 0 from one shared allocation.
    pub fn new(initial: ConsistentSnapshot, shards: usize) -> Self {
        let initial = Arc::new(initial);
        Self {
            cells: (0..shards.max(1))
                .map(|_| SnapshotCell::new(Arc::clone(&initial)))
                .collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    /// The number of shards (≥ 1, fixed at construction).
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.cells.len()
    }

    /// The bank's epoch: shard 0's, published last by
    /// [`Self::broadcast`] — when this reports `e`, every shard serves
    /// epoch `e`.
    #[inline]
    pub fn epoch(&self) -> usize {
        self.cells[0].epoch()
    }

    /// Pins the served snapshot from the next shard in round-robin order.
    /// Wait-free: cursor bump + [`SnapshotCell::load`].
    pub fn pin(&self) -> PinnedSnapshot {
        let shard = self.cursor.fetch_add(1, Ordering::Relaxed) % self.cells.len();
        self.cells[shard].load()
    }

    /// Publishes `snapshot` to every shard and returns the new epoch. The
    /// snapshot is moved into one `Arc`, and each shard publishes a refcount
    /// bump of it, so the broadcast copies no snapshot bytes. Shards 1..
    /// publish first; shard 0, the epoch authority, publishes last.
    pub fn broadcast(&self, snapshot: ConsistentSnapshot) -> usize {
        let shared = Arc::new(snapshot);
        for cell in &self.cells[1..] {
            cell.publish(Arc::clone(&shared));
        }
        self.cells[0].publish(shared)
    }
}

/// A pinned, immutable view of one published snapshot: dereferences to
/// [`ConsistentSnapshot`], stays valid across any number of later
/// publishes, and carries the epoch it was published at.
#[derive(Debug, Clone)]
pub struct PinnedSnapshot {
    epoch: usize,
    snapshot: Arc<ConsistentSnapshot>,
}

impl PinnedSnapshot {
    /// The epoch this snapshot was published at.
    #[inline]
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// The pinned snapshot.
    #[inline]
    pub fn snapshot(&self) -> &ConsistentSnapshot {
        &self.snapshot
    }
}

impl std::ops::Deref for PinnedSnapshot {
    type Target = ConsistentSnapshot;

    #[inline]
    fn deref(&self) -> &ConsistentSnapshot {
        &self.snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_data::Interval;

    fn leaves(vals: &[f64]) -> ConsistentSnapshot {
        ConsistentSnapshot::from_leaves(vals, vals.len())
    }

    #[test]
    fn load_serves_the_latest_publish() {
        let cell = SnapshotCell::new(leaves(&[1.0, 2.0, 3.0, 4.0]));
        assert_eq!(cell.epoch(), 0);
        assert_eq!(cell.load().answer(Interval::new(0, 3)), 10.0);
        let e = cell.publish(leaves(&[4.0, 3.0, 2.0, 11.0]));
        assert_eq!(e, 1);
        assert_eq!(cell.epoch(), 1);
        let pinned = cell.load();
        assert_eq!(pinned.epoch(), 1);
        assert_eq!(pinned.answer(Interval::new(2, 3)), 13.0);
    }

    #[test]
    fn pins_survive_ring_laps() {
        let cell = SnapshotCell::new(leaves(&[1.0; 8]));
        let pinned = cell.load();
        // Lap the ring several times: the pin must keep serving epoch 0's
        // values even though its slot has long been overwritten.
        for i in 1..=(3 * SLOTS) {
            cell.publish(leaves(&[i as f64; 8]));
        }
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.answer(Interval::new(0, 7)), 8.0);
        let fresh = cell.load();
        assert_eq!(fresh.epoch(), 3 * SLOTS);
        assert_eq!(fresh.answer(Interval::new(0, 7)), 8.0 * (3 * SLOTS) as f64);
    }

    #[test]
    fn shards_serve_the_same_snapshot_from_every_shard() {
        let shards = SnapshotShards::new(leaves(&[1.0, 2.0, 3.0, 4.0]), 3);
        assert_eq!(shards.shard_count(), 3);
        assert_eq!(shards.epoch(), 0);
        let whole = Interval::new(0, 3);
        // Every shard serves one shared allocation, never a copy: from
        // construction and after each broadcast.
        let assert_one_allocation = |epoch: usize, total: f64| {
            let lap = pin_lap(&shards);
            for pinned in &lap {
                assert_eq!(pinned.epoch(), epoch);
                assert_eq!(pinned.answer(whole), total);
                assert!(std::ptr::eq(pinned.snapshot(), lap[0].snapshot()));
            }
        };
        assert_one_allocation(0, 10.0);
        let epoch = shards.broadcast(leaves(&[4.0, 3.0, 2.0, 11.0]));
        assert_eq!(epoch, 1);
        assert_eq!(shards.epoch(), 1);
        assert_one_allocation(1, 20.0);
    }

    /// One round-robin lap of pins, one per shard.
    fn pin_lap(shards: &SnapshotShards) -> Vec<PinnedSnapshot> {
        (0..shards.shard_count()).map(|_| shards.pin()).collect()
    }

    #[test]
    fn shard_count_is_a_contention_knob_not_a_semantics_knob() {
        let published = || leaves(&[3.5, -1.25, 8.0, 0.5, 2.0, 7.75, -4.0, 1.0]);
        let queries: Vec<Interval> = (0..8)
            .flat_map(|lo| (lo..8).map(move |hi| Interval::new(lo, hi)))
            .collect();
        let serve = |shard_count: usize| {
            let shards = SnapshotShards::new(leaves(&[0.0; 8]), shard_count);
            assert_eq!(shards.shard_count(), shard_count);
            shards.broadcast(published());
            let mut batches = Vec::new();
            for pinned in pin_lap(&shards) {
                let mut out = Vec::new();
                pinned.answer_into(&queries, &mut out);
                batches.push(out.iter().map(|v| v.to_bits()).collect::<Vec<u64>>());
            }
            batches
        };
        let one = serve(1);
        let four = serve(4);
        // Bit-identical across shard counts and across the shards of a bank.
        for batch in four.iter().chain(&one) {
            assert_eq!(batch, &one[0]);
        }
    }

    #[test]
    fn zero_shards_clamp_to_one() {
        let shards = SnapshotShards::new(leaves(&[2.0, 2.0]), 0);
        assert_eq!(shards.shard_count(), 1);
        assert_eq!(shards.pin().answer(Interval::new(0, 1)), 4.0);
    }

    #[test]
    fn concurrent_readers_see_only_complete_snapshots() {
        // Each published snapshot is constant-valued, so a torn read (a mix
        // of two epochs' prefixes) would show up as a range answer that is
        // not an exact multiple of the range length.
        let n = 64usize;
        let cell = SnapshotCell::new(leaves(&vec![0.0; n]));
        let publishes = 200usize;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let whole = Interval::new(0, n - 1);
                    loop {
                        let pinned = cell.load();
                        let per_leaf = pinned.answer(whole) / n as f64;
                        assert_eq!(
                            per_leaf.fract(),
                            0.0,
                            "torn snapshot observed at epoch {}",
                            pinned.epoch()
                        );
                        assert_eq!(per_leaf, pinned.epoch() as f64);
                        if pinned.epoch() == publishes {
                            break;
                        }
                    }
                });
            }
            for i in 1..=publishes {
                cell.publish(leaves(&vec![i as f64; n]));
            }
        });
        assert_eq!(cell.epoch(), publishes);
    }
}
