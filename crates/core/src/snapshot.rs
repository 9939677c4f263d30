//! The query-serving subsystem: prefix-summed snapshots and allocation-free
//! subtree serving.
//!
//! The write path (release → inference) has been allocation-free and
//! trial-parallel since the engine work; this module is the matching *read*
//! path. Two pieces:
//!
//! * [`ConsistentSnapshot`] — an immutable prefix-summed view over the leaf
//!   level of a consistent estimate (engine output,
//!   [`ConsistentTree`](crate::hier::ConsistentTree) values, a flat release's
//!   fused prefix arrays, or true counts). Any `[lo, hi]` range query is two
//!   prefix lookups — O(1) regardless of range length — and a batch goes
//!   through [`answer_into`](ConsistentSnapshot::answer_into) (unrolled, zero
//!   allocations after warm-up). Read concurrency comes from concurrent
//!   readers sharing one snapshot, not from splitting a batch. A snapshot
//!   can carry its release's Laplace noise scale so every answer can be
//!   served with a [`ConfidenceInterval`].
//! * [`SubtreeServer`] — the `H̃`-style estimators (noisy trees, and the
//!   Sec. 4.2 zeroed/rounded `H̄` whose consistency is deliberately broken at
//!   zeroed boundaries) answer by summing the minimal subtree decomposition.
//!   The server folds that decomposition *in place* — same node order, same
//!   summation order, bit-identical to materializing
//!   [`TreeShape::subtree_decomposition`] and summing — without the
//!   per-query index vector (the decomposition stays as the test oracle).
//!   Per-level tables compiled once per shape (level offsets, an exact
//!   divisor per span `k^j`) and digit masks over the packed base-`k` digits
//!   of the query's ends pick the emitted nodes, with no division and no
//!   per-level data-dependent branch.

use std::ops::{
    Add, BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Not, Shl, Shr, Sub,
};
use std::sync::OnceLock;

use hc_data::{Histogram, Interval};
use hc_mech::{laplace_half_width, ConfidenceInterval, TreeShape};

use crate::universal::Rounding;

/// Exact-integer ceiling for f64 prefix sums: every integer partial sum up
/// to **and including** `2^53` is represented exactly (the first
/// unrepresentable integer is `2^53 + 1`), so prefix differences reproduce
/// direct summation bit for bit as long as the total stays at or below this
/// bound.
const EXACT_F64_INT: u64 = 1 << 53;

/// Batched prefix-difference kernel shared by [`ConsistentSnapshot`] and
/// `FlatRelease::answer_into`: 4-way unrolled over the query batch (each
/// answer is two independent loads and one subtract, so the unrolled form
/// keeps several lookups in flight).
pub(crate) fn answer_prefix_into(
    prefix: &[f64],
    domain_size: usize,
    queries: &[Interval],
    out: &mut [f64],
) {
    assert_eq!(queries.len(), out.len(), "one answer slot per query");
    let check = |q: &Interval| {
        assert!(
            q.hi() < domain_size,
            "query {q} outside domain of size {domain_size}"
        );
    };
    let n = queries.len();
    let main = n - n % 4;
    for i in (0..main).step_by(4) {
        let q = &queries[i..i + 4];
        let o = &mut out[i..i + 4];
        q.iter().for_each(check);
        o[0] = prefix[q[0].hi() + 1] - prefix[q[0].lo()];
        o[1] = prefix[q[1].hi() + 1] - prefix[q[1].lo()];
        o[2] = prefix[q[2].hi() + 1] - prefix[q[2].lo()];
        o[3] = prefix[q[3].hi() + 1] - prefix[q[3].lo()];
    }
    for i in main..n {
        let q = &queries[i];
        check(q);
        out[i] = prefix[q.hi() + 1] - prefix[q.lo()];
    }
}

/// An immutable prefix-summed view of a consistent leaf estimate, serving
/// any `[lo, hi]` range count in O(1) via two prefix lookups.
///
/// The prefix is built with the exact construction of the historical
/// `ConsistentTree` prefix (`prefix[i+1] = prefix[i] + leaf[i]`, every leaf
/// of the padded level, in index order), so
/// [`answer`](ConsistentSnapshot::answer) is **bit-identical** to
/// `ConsistentTree::range_query` for the same values — and, on exactly
/// consistent trees (true counts, or any integer-valued tree whose parents
/// equal their child sums), bit-identical to summing the minimal subtree
/// decomposition as well. `tests/snapshot_serving.rs` pins both.
///
/// Snapshots are cheap to rebuild
/// ([`rebuild_from_tree_values`](Self::rebuild_from_tree_values) is one pass
/// over the leaves with zero allocations after warm-up), which is how the
/// experiment scoring loops use them: one snapshot per trial, thousands of
/// queries served from it.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsistentSnapshot {
    /// `prefix[i]` = sum of the first `i` leaf values (padding included).
    prefix: Vec<f64>,
    domain_size: usize,
    /// The per-answer Laplace scale `b` of the release behind this view,
    /// when known — enables [`Self::confidence`].
    noise_scale: Option<f64>,
}

impl ConsistentSnapshot {
    /// Builds a snapshot over a full (padded) leaf-value slice; queries are
    /// accepted on `[0, domain_size)`.
    pub fn from_leaves(leaves: &[f64], domain_size: usize) -> Self {
        let mut snapshot = Self {
            prefix: Vec::new(),
            domain_size: 0,
            noise_scale: None,
        };
        snapshot.rebuild_from_leaves(leaves, domain_size);
        snapshot
    }

    /// Builds a snapshot from a full tree-node vector (BFS order over
    /// `shape`) — the layout every engine output
    /// (`BatchInference::release_and_infer*`, `LevelTree::infer*`, batch
    /// slices) uses.
    pub fn from_tree_values(shape: &TreeShape, values: &[f64], domain_size: usize) -> Self {
        let mut snapshot = Self {
            prefix: Vec::new(),
            domain_size: 0,
            noise_scale: None,
        };
        snapshot.rebuild_from_tree_values(shape, values, domain_size);
        snapshot
    }

    /// Wraps an already-built prefix array (`prefix[0] == 0`, one entry per
    /// leaf plus the leading zero) — the zero-copy hook for releases that
    /// already maintain fused prefix sums (`FlatRelease`).
    pub fn from_prefix(prefix: Vec<f64>, domain_size: usize) -> Self {
        assert!(
            prefix.len() > domain_size,
            "prefix of {} entries cannot cover a domain of {domain_size}",
            prefix.len()
        );
        assert_eq!(prefix[0], 0.0, "prefix must start at zero");
        Self {
            prefix,
            domain_size,
            noise_scale: None,
        }
    }

    /// A snapshot of the *true* counts — exact O(1) truth for experiment
    /// scoring loops. Requires the total count to stay at or below `2^53` so
    /// every prefix partial sum is an exact f64 integer and range answers
    /// reproduce [`Histogram::range_count`] exactly. The bound is inclusive:
    /// `2^53` itself is exactly representable, and every partial sum along
    /// the way is a smaller integer, so the prefix stays exact right up to
    /// (and including) the boundary — `tests` pins the exact-boundary total.
    pub fn from_histogram(histogram: &Histogram) -> Self {
        assert!(
            histogram.total() <= EXACT_F64_INT,
            "total count too large for exact f64 prefix sums"
        );
        let mut snapshot = Self {
            prefix: Vec::new(),
            domain_size: 0,
            noise_scale: None,
        };
        snapshot.prefix.reserve(histogram.len() + 1);
        snapshot.prefix.push(0.0);
        let mut acc = 0.0f64;
        for &c in histogram.counts() {
            acc += c as f64;
            snapshot.prefix.push(acc);
        }
        snapshot.domain_size = histogram.len();
        snapshot
    }

    /// Attaches the release's per-answer Laplace scale `b = Δ/ε`, enabling
    /// [`Self::confidence`].
    pub fn with_noise_scale(mut self, noise_scale: f64) -> Self {
        assert!(
            noise_scale > 0.0 && noise_scale.is_finite(),
            "noise scale must be positive"
        );
        self.noise_scale = Some(noise_scale);
        self
    }

    /// Replaces (or clears) the attached noise scale in place — the rebuild
    /// paths' companion to [`Self::with_noise_scale`]: a snapshot reused
    /// across releases via `rebuild_from_*` keeps its old scale otherwise,
    /// which would silently misprice [`Self::confidence`] when the new
    /// release was drawn at a different ε.
    pub fn set_noise_scale(&mut self, noise_scale: Option<f64>) {
        if let Some(scale) = noise_scale {
            assert!(
                scale > 0.0 && scale.is_finite(),
                "noise scale must be positive"
            );
        }
        self.noise_scale = noise_scale;
    }

    /// Rebuilds in place from a leaf slice — zero allocations once the
    /// prefix buffer has warmed up. Same arithmetic as
    /// [`Self::from_leaves`], bit for bit.
    ///
    /// The prefix sum is a strict serial dependency chain
    /// (`prefix[i+1] = prefix[i] + leaf[i]`, left-associated), and that
    /// association is frozen — every golden release pin depends on it. What
    /// *is* optimized here is everything around the chain: the buffer is
    /// `resize`d once and written by index (steady-state rebuilds touch no
    /// capacity check and no memset), and the writes are blocked four at a
    /// time so the stores batch while the adds stay in exact serial order.
    pub fn rebuild_from_leaves(&mut self, leaves: &[f64], domain_size: usize) {
        assert!(
            domain_size <= leaves.len(),
            "domain larger than the leaf level"
        );
        self.prefix.resize(leaves.len() + 1, 0.0);
        self.prefix[0] = 0.0;
        let out = &mut self.prefix[1..];
        let mut acc = 0.0f64;
        let mut leaf_blocks = leaves.chunks_exact(4);
        let mut out_blocks = out.chunks_exact_mut(4);
        for (l, o) in (&mut leaf_blocks).zip(&mut out_blocks) {
            // The four adds stay one serial chain — identical association to
            // the scalar loop, so the bits cannot move.
            acc += l[0];
            o[0] = acc;
            acc += l[1];
            o[1] = acc;
            acc += l[2];
            o[2] = acc;
            acc += l[3];
            o[3] = acc;
        }
        for (&leaf, slot) in leaf_blocks
            .remainder()
            .iter()
            .zip(out_blocks.into_remainder())
        {
            acc += leaf;
            *slot = acc;
        }
        self.domain_size = domain_size;
    }

    /// Rebuilds in place from a BFS tree-node vector (see
    /// [`Self::from_tree_values`]).
    pub fn rebuild_from_tree_values(
        &mut self,
        shape: &TreeShape,
        values: &[f64],
        domain_size: usize,
    ) {
        assert_eq!(values.len(), shape.nodes(), "one value per tree node");
        assert!(
            domain_size <= shape.leaves(),
            "domain larger than leaf level"
        );
        self.rebuild_from_leaves(&values[shape.first_leaf()..], domain_size);
    }

    /// The unpadded domain size — queries must satisfy `hi < domain_size`.
    #[inline]
    pub fn domain_size(&self) -> usize {
        self.domain_size
    }

    /// The attached Laplace noise scale, if any.
    #[inline]
    pub fn noise_scale(&self) -> Option<f64> {
        self.noise_scale
    }

    /// The total estimate over the (unpadded) domain.
    #[inline]
    pub fn total(&self) -> f64 {
        self.prefix[self.domain_size]
    }

    /// Answers `c([lo, hi])` in O(1): two prefix lookups and one subtract.
    #[inline]
    pub fn answer(&self, interval: Interval) -> f64 {
        assert!(
            interval.hi() < self.domain_size,
            "query {interval} outside domain of size {}",
            self.domain_size
        );
        self.prefix[interval.hi() + 1] - self.prefix[interval.lo()]
    }

    /// Answers a whole query batch into a caller-owned buffer (resized to
    /// the batch length; zero allocations after warm-up). Unrolled over the
    /// batch; each answer is exactly [`Self::answer`]'s arithmetic.
    pub fn answer_into(&self, queries: &[Interval], out: &mut Vec<f64>) {
        out.resize(queries.len(), 0.0);
        answer_prefix_into(&self.prefix, self.domain_size, queries, out);
    }

    /// A two-sided confidence interval around [`Self::answer`], derived from
    /// the attached noise scale; `None` when no scale was attached.
    ///
    /// Construction: a range of `m` bins sums `m` released counts, each
    /// `true + Lap(b)`. Holding every count inside its own two-sided
    /// interval at level `1 − (1 − level)/m` simultaneously (union bound)
    /// keeps the sum within `m` half-widths of the truth, so coverage is at
    /// least `level`. For flat releases this is an exact (conservative)
    /// guarantee; for inferred trees it inherits the Sec. 3.2 argument that
    /// projection onto a convex set containing the truth cannot move the
    /// estimate further from it, and the empirical-coverage test pins that
    /// the interval stays conservative in practice.
    pub fn confidence(&self, interval: Interval, level: f64) -> Option<ConfidenceInterval> {
        let scale = self.noise_scale?;
        let center = self.answer(interval);
        Some(union_bound_interval(scale, interval.len(), level, center))
    }
}

/// The union-bound interval arithmetic behind
/// [`ConsistentSnapshot::confidence`], total in `m` (the number of released
/// counts the range sums).
///
/// The historical in-line formula divided by `m`: at `m = 0` the per-term
/// level became `-inf` and the half-width NaN (or an assert, depending on
/// the quantile path). [`Interval`] is structurally non-empty, so
/// `confidence` itself can never reach `m = 0` — but serving layers with
/// emptiness-capable wire queries (`hc-serve`'s half-open `RangeQuery`) sum
/// zero released counts for an empty range, whose answer is exactly `0.0`
/// with no noise at all. The correct interval there is the exact zero-width
/// interval at the center, which is what this helper returns — never NaN.
/// For `m ≥ 1` the arithmetic is bit-identical to the historical formula.
pub fn union_bound_interval(scale: f64, m: usize, level: f64, center: f64) -> ConfidenceInterval {
    if m == 0 {
        // A sum over zero released counts is exact: zero-width coverage at
        // any level.
        return ConfidenceInterval {
            lo: center,
            hi: center,
            level,
        };
    }
    let m = m as f64;
    let per_term_level = 1.0 - (1.0 - level) / m;
    let half = m * laplace_half_width(scale, per_term_level);
    ConfidenceInterval {
        lo: center - half,
        hi: center + half,
        level,
    }
}

/// Per-level table capacity of [`SubtreeServer`]: `TreeShape` caps heights
/// at 64 levels, so every level `j` (counted up from the leaves) is below 64.
const MAX_LEVELS: usize = 64;

/// Exact unsigned division by an invariant divisor `d ≥ 1`, for every
/// 64-bit dividend, with one widening multiply, two shifts, an add and a
/// subtract (Granlund & Montgomery 1994, "Division by invariant integers
/// using multiplication", Fig. 4.1). For `d = 2^l` the magic is 1, its high
/// product word is 0 for every dividend, and the quotient reduces to the
/// shift `n >> l`.
#[derive(Debug, Clone, Copy, Default)]
struct Divisor {
    magic: u64,
    pre: u32,
    post: u32,
}

impl Divisor {
    fn new(d: u64) -> Self {
        let d = d.max(1);
        // l = ⌈log2 d⌉; the magic `⌊2^64 (2^l − d) / d⌋ + 1` is below 2^64.
        let l = 64 - (d - 1).leading_zeros();
        let magic = ((((1u128 << l) - u128::from(d)) << 64) / u128::from(d)) as u64 + 1;
        Self {
            magic,
            pre: l.min(1),
            post: l.saturating_sub(1),
        }
    }

    #[inline]
    fn quotient(self, n: u64) -> u64 {
        let t = ((u128::from(self.magic) * u128::from(n)) >> 64) as u64;
        (t + ((n - t) >> self.pre)) >> self.post
    }
}

/// One level of a compiled [`SubtreeServer`]: the nodes whose span is
/// `k^j` leaves, `j = 0` being the leaf level.
#[derive(Debug, Clone, Copy, Default)]
struct Level {
    /// BFS index of the level's first node.
    first: usize,
    /// Division by the span `k^j`: leaf position → position in the level.
    span: Divisor,
}

/// A packed-digit word: `u64` when every digit of a shape fits in 64 bits
/// (every power-of-two `k`, and the other `k` on shallower trees), `u128`
/// otherwise — the one fold is compiled for both.
trait DigitWord:
    Copy
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + BitOrAssign
    + BitXorAssign
    + BitAndAssign
    + Not<Output = Self>
    + Shl<u32, Output = Self>
    + Shr<u32, Output = Self>
{
    const BITS: u32;
    const ZERO: Self;
    const ONE: Self;
    /// Truncates `word`, whose set bits are below `BITS`.
    fn from_u128(word: u128) -> Self;
    fn low_u64(self) -> u64;
    fn leading(self) -> u32;
    fn trailing(self) -> u32;
}

macro_rules! digit_word {
    ($($t:ty),*) => {$(
        impl DigitWord for $t {
            const BITS: u32 = <$t>::BITS;
            const ZERO: Self = 0;
            const ONE: Self = 1;
            #[inline]
            fn from_u128(word: u128) -> Self {
                word as $t
            }
            #[inline]
            fn low_u64(self) -> u64 {
                self as u64
            }
            #[inline]
            fn leading(self) -> u32 {
                self.leading_zeros()
            }
            #[inline]
            fn trailing(self) -> u32 {
                self.trailing_zeros()
            }
        }
    )*};
}

digit_word!(u64, u128);

/// Allocation-free serving for the decomposition-answered estimators: `H̃`
/// (noisy trees) and the Sec. 4.2 zeroed/rounded `H̄` (whose consistency is
/// deliberately broken at zeroed boundaries, so leaf prefix sums would
/// answer differently — the decomposition is the defined semantics).
///
/// [`answer`](Self::answer) folds the node values of the minimal subtree
/// decomposition in the exact order
/// [`TreeShape::subtree_decomposition`] emits them (depth-first, left to
/// right), starting from `-0.0` — bit-identical to materializing the
/// decomposition and summing, with no per-query index vector.
///
/// [`new`](Self::new) compiles per-level tables once: each level's first
/// BFS index and an exact divisor for its span `k^j` (a shift when `k` is a
/// power of two, a multiply-shift otherwise). A query then reads
/// everything it needs off the base-`k` digits of `lo` and `hi`, packed one
/// digit per `⌈log2 k⌉`-bit field of a 64- or 128-bit word (for a
/// power-of-two `k` the packed digits are the index bits themselves): the
/// split level from
/// the highest differing digit, each fringe's stop level from the trailing
/// zero digits of `lo` and trailing `k − 1` digits of `hi`, and the levels
/// that emit a covered-sibling run as digit masks walked with trailing- and
/// leading-zero counts. No division and no per-level data-dependent branch.
#[derive(Debug, Clone)]
pub struct SubtreeServer {
    shape: TreeShape,
    /// `levels[j]` for `j < height`.
    levels: [Level; MAX_LEVELS],
    /// Bits per packed digit: `⌈log2 k⌉`, enough to hold `k − 1`.
    digit_bits: u32,
    /// `⌈2^16 / digit_bits⌉`: `bit * digit_recip >> 16` is the digit holding
    /// `bit`, exact for every `bit < 192`.
    digit_recip: u32,
    /// Whether the index bits are already the packed digits (`k = 2^bits`).
    digits_are_bits: bool,
    /// Whether the packed digits need a `u128` word.
    wide: bool,
    /// Every digit `k − 1` — the packed digits of the last leaf.
    all_max: u128,
    /// The low `digit_bits − 1` bits of every digit field.
    field_low: u128,
    /// The top bit of every digit field.
    field_top: u128,
}

impl SubtreeServer {
    /// Compiles a server for one tree geometry: O(height) work and no heap
    /// allocation.
    ///
    /// The tables are exact for every shape `TreeShape::new` builds: its
    /// node count fits a `usize`, so every span `k^j` and leaf position fits
    /// 64 bits and the `height − 1` packed digits fit below bit 128.
    pub fn new(shape: &TreeShape) -> Self {
        let k = shape.branching() as u64;
        let leaf_level = shape.height() - 1;
        let offsets = shape.level_offsets();
        let digit_bits = 64 - (k - 1).leading_zeros();
        let field_low_bits = (1u64 << (digit_bits - 1)) - 1;
        let mut levels = [Level::default(); MAX_LEVELS];
        let (mut all_max, mut field_low, mut field_top) = (0u128, 0u128, 0u128);
        let mut span = 1u64;
        for (j, level) in levels.iter_mut().enumerate().take(leaf_level + 1) {
            *level = Level {
                first: offsets[leaf_level - j],
                span: Divisor::new(span),
            };
            if j < leaf_level {
                let at = digit_bits * j as u32;
                all_max |= u128::from(k - 1) << at;
                field_low |= u128::from(field_low_bits) << at;
                field_top |= 1u128 << (at + digit_bits - 1);
            }
            span = span.wrapping_mul(k);
        }
        Self {
            shape: shape.clone(),
            levels,
            digit_bits,
            digit_recip: (1u32 << 16).div_ceil(digit_bits),
            digits_are_bits: k.is_power_of_two(),
            wide: digit_bits as usize * leaf_level > 64,
            all_max,
            field_low,
            field_top,
        }
    }

    /// The served tree geometry.
    #[inline]
    pub fn shape(&self) -> &TreeShape {
        &self.shape
    }

    /// Recompiles the tables for `shape` unless they already serve it — the
    /// warm re-release paths keep one server across releases.
    pub fn ensure_shape(&mut self, shape: TreeShape) {
        if self.shape != shape {
            *self = Self::new(&shape);
        }
    }

    /// Visits the nodes of the minimal subtree decomposition of `target` in
    /// emission order — the walk behind the recursive oracle and the
    /// planner's decomposition pricing.
    pub fn for_each_node(&self, target: Interval, mut visit: impl FnMut(usize)) {
        self.for_each_node_at_depth(target, |v, _| visit(v));
    }

    /// [`Self::for_each_node`] with the node's depth alongside — what the
    /// planner's per-level pricing consumes.
    pub fn for_each_node_at_depth(&self, target: Interval, mut visit: impl FnMut(usize, usize)) {
        assert!(
            target.hi() < self.shape.leaves(),
            "target {target} outside leaf range"
        );
        let leaves = self.shape.leaves();
        self.walk(0, 0, 0, leaves, target, &mut visit);
    }

    /// Depth-first descent mirroring `TreeShape::decompose_into`: emit a
    /// node whose span the target covers, otherwise recurse into the
    /// children that intersect it (left to right). `span_lo`/`span_len`
    /// track the node's leaf span arithmetically, so no per-node
    /// `leaf_span`/`depth` calls are needed.
    fn walk(
        &self,
        v: usize,
        depth: usize,
        span_lo: usize,
        span_len: usize,
        target: Interval,
        visit: &mut impl FnMut(usize, usize),
    ) {
        let span_hi = span_lo + span_len - 1;
        if target.lo() <= span_lo && span_hi <= target.hi() {
            visit(v, depth);
            return;
        }
        let k = self.shape.branching();
        let child_len = span_len / k;
        let first_child = k * v + 1;
        for i in 0..k {
            let c_lo = span_lo + i * child_len;
            let c_hi = c_lo + child_len - 1;
            if c_lo <= target.hi() && target.lo() <= c_hi {
                self.walk(first_child + i, depth + 1, c_lo, child_len, target, visit);
            }
        }
    }

    /// Folds `rounding.apply(values[v])` over the decomposition of `target`
    /// — `TreeRelease::range_query_subtree`'s summation, in place.
    ///
    /// The fold starts from `-0.0`, exactly like `Iterator::sum::<f64>()`
    /// (the historical query paths' accumulator), so the answer is
    /// bit-identical to materializing the decomposition and `.sum()`ing it
    /// even in the all-negative-zero corner.
    ///
    /// Implementation: the table-driven fold.
    /// [`Self::answer_recursive`] keeps the recursive fold as the bitwise
    /// oracle; `tests/snapshot_serving.rs` and this module's exhaustive test
    /// pin the two equal to the bit across shapes, values, and rounding
    /// policies.
    pub fn answer(&self, values: &[f64], rounding: Rounding, target: Interval) -> f64 {
        self.check_values(values);
        let apply = |v| rounding.apply(v);
        if self.wide {
            self.fold::<u128>(values, target, apply)
        } else {
            self.fold::<u64>(values, target, apply)
        }
    }

    /// The recursive decomposition fold — the bitwise oracle
    /// [`Self::answer`]'s table-driven fold is pinned against. Same visit
    /// order, same `-0.0` seed, same per-node arithmetic, one closure call
    /// per node.
    pub fn answer_recursive(&self, values: &[f64], rounding: Rounding, target: Interval) -> f64 {
        self.check_values(values);
        let mut acc = -0.0f64;
        self.for_each_node(target, |v| acc += rounding.apply(values[v]));
        acc
    }

    fn check_values(&self, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.shape.nodes(),
            "value vector must cover the tree"
        );
    }

    /// The base-`k` digits of leaf position `x`, digit `j` (the child index
    /// taken into level `j`) in the field at bit `j · digit_bits`.
    #[inline]
    fn packed_digits<W: DigitWord>(&self, x: usize) -> W {
        let x = x as u64;
        if self.digits_are_bits {
            return W::from_u128(u128::from(x));
        }
        let k = self.shape.branching() as u64;
        let mut digits = W::ZERO;
        let mut above = x;
        for j in 0..self.shape.height() - 1 {
            let next = self.levels[j + 1].span.quotient(x);
            digits |= W::from_u128(u128::from(above - next * k)) << (self.digit_bits * j as u32);
            above = next;
        }
        digits
    }

    /// The digit (level) whose field holds bit `bit`.
    #[inline]
    fn digit_of_bit(&self, bit: u32) -> usize {
        ((bit * self.digit_recip) >> 16) as usize
    }

    /// Digit `j` of a packed word.
    #[inline]
    fn digit<W: DigitWord>(&self, word: W, j: usize) -> usize {
        let field = (word >> (self.digit_bits * j as u32)).low_u64();
        (field & (u64::MAX >> (64 - self.digit_bits))) as usize
    }

    /// The top bit of every nonzero digit field of `word`.
    #[inline]
    fn nonzero_digits<W: DigitWord>(&self, word: W) -> W {
        // Per field: the low bits plus all-ones-below-the-top carry into the
        // top bit iff any low bit is set; fields never carry into each other.
        let low = W::from_u128(self.field_low);
        (((word & low) + low) | word) & W::from_u128(self.field_top)
    }

    /// The bits of digit fields `a..b` (`b < height − 1`, so the shift stays
    /// below the word width).
    #[inline]
    fn digits_between<W: DigitWord>(&self, a: usize, b: usize) -> W {
        let below = |j: usize| (W::ONE << (self.digit_bits * j as u32)) - W::ONE;
        below(b) & !below(a)
    }

    /// BFS index of the level-`j` node holding leaf position `x`: `x / k^j`
    /// is a shift when the digits are the index bits, the level's exact
    /// divisor otherwise.
    #[inline]
    fn node_at(&self, j: usize, x: usize) -> usize {
        let level = self.levels[j];
        let x = x as u64;
        let position = if self.digits_are_bits {
            x >> (self.digit_bits * j as u32)
        } else {
            level.span.quotient(x)
        };
        level.first + position as usize
    }

    /// The table-driven decomposition fold. With `split` the level of the
    /// deepest node holding the whole target, the recursion emits:
    ///
    /// 1. the split node alone, when the target is exactly its span;
    /// 2. otherwise the left fringe — the node where `lo`'s trailing zero
    ///    digits stop the descent, then the covered siblings right of
    ///    `lo`'s path at each level up to the split's children, deepest
    ///    first (postorder on that flank);
    /// 3. the split node's fully covered middle children;
    /// 4. the right fringe — covered siblings left of `hi`'s path from the
    ///    split's children down (preorder), then the node where `hi`'s
    ///    trailing `k − 1` digits stop the descent.
    ///
    /// A left run at level `j` holds `k − 1 − digit_j(lo)` nodes, i.e. digit
    /// `j` of `all_max − lo_digits` (no field borrows), and a right run
    /// `digit_j(hi)` nodes; the nonzero-digit masks of those two words pick
    /// the levels that emit, so the emission order is exactly the
    /// recursion's and the `-0.0`-seeded float fold is bit-identical to
    /// [`Self::answer_recursive`].
    #[inline]
    fn fold<W: DigitWord>(
        &self,
        values: &[f64],
        target: Interval,
        apply: impl Fn(f64) -> f64,
    ) -> f64 {
        let (lo, hi) = (target.lo(), target.hi());
        assert!(
            hi < self.shape.leaves(),
            "target {target} outside leaf range"
        );
        let lo_digits: W = self.packed_digits(lo);
        let hi_digits: W = self.packed_digits(hi);
        let all_max = W::from_u128(self.all_max);
        // One above the highest differing digit (0 when lo == hi).
        let differing_bits = W::BITS - (lo_digits ^ hi_digits).leading();
        let split = self.digit_of_bit(differing_bits + self.digit_bits - 1);
        let lo_zeros = self.digit_of_bit(lo_digits.trailing());
        let hi_full = self.digit_of_bit((hi_digits ^ all_max).trailing());
        let mut acc = -0.0f64;
        if lo_zeros >= split && hi_full >= split {
            acc += apply(values[self.node_at(split, lo)]);
            return acc;
        }
        let child = split - 1;
        let left_stop = lo_zeros.min(child);
        let right_stop = hi_full.min(child);

        acc += apply(values[self.node_at(left_stop, lo)]);
        let lo_rest = all_max - lo_digits;
        let mut runs = self.nonzero_digits(lo_rest) & self.digits_between(left_stop, child);
        while runs != W::ZERO {
            let j = self.digit_of_bit(runs.trailing());
            runs &= runs - W::ONE;
            let first = self.node_at(j, lo) + 1;
            for &v in &values[first..first + self.digit(lo_rest, j)] {
                acc += apply(v);
            }
        }

        for &v in &values[self.node_at(child, lo) + 1..self.node_at(child, hi)] {
            acc += apply(v);
        }

        let mut runs = self.nonzero_digits(hi_digits) & self.digits_between(right_stop, child);
        while runs != W::ZERO {
            let top = W::BITS - 1 - runs.leading();
            runs ^= W::ONE << top;
            let j = self.digit_of_bit(top);
            let end = self.node_at(j, hi);
            for &v in &values[end - self.digit(hi_digits, j)..end] {
                acc += apply(v);
            }
        }
        acc += apply(values[self.node_at(right_stop, hi)]);
        acc
    }

    /// Batched [`Self::answer`] into a caller-owned buffer (resized to the
    /// batch length; zero allocations after warm-up). The value vector is
    /// checked once per batch, and the word width and rounding policy are
    /// dispatched once.
    pub fn answer_into(
        &self,
        values: &[f64],
        rounding: Rounding,
        queries: &[Interval],
        out: &mut Vec<f64>,
    ) {
        self.check_values(values);
        out.resize(queries.len(), 0.0);
        if self.wide {
            self.fold_batch::<u128>(values, rounding, queries, out);
        } else {
            self.fold_batch::<u64>(values, rounding, queries, out);
        }
    }

    fn fold_batch<W: DigitWord>(
        &self,
        values: &[f64],
        rounding: Rounding,
        queries: &[Interval],
        out: &mut [f64],
    ) {
        let slots = out.iter_mut().zip(queries);
        match rounding {
            Rounding::None => {
                for (slot, &q) in slots {
                    *slot = self.fold::<W>(values, q, |v| v);
                }
            }
            Rounding::NonNegativeInteger => {
                for (slot, &q) in slots {
                    *slot = self.fold::<W>(values, q, |v| rounding.apply(v));
                }
            }
        }
    }

    /// Number of decomposition nodes for `target` — the `H̃` variance
    /// multiplier of [`crate::theory::error_hier_range`].
    pub fn decomposition_len(&self, target: Interval) -> usize {
        let mut count = 0usize;
        self.for_each_node(target, |_| count += 1);
        count
    }

    /// Adds one count per decomposition node into `per_depth[depth(v)]` —
    /// the per-level profile the planner prices budgeted releases with.
    pub(crate) fn count_per_depth(&self, target: Interval, per_depth: &mut [usize]) {
        self.for_each_node_at_depth(target, |_, depth| per_depth[depth] += 1);
    }
}

/// Lazily-built snapshot storage for types that own consistent tree values
/// (`ConsistentTree`): thread-safe one-shot initialization so `range_query`
/// on a shared reference can build the prefix on first use.
pub(crate) type LazySnapshot = OnceLock<ConsistentSnapshot>;

#[cfg(test)]
mod tests {
    use super::*;
    use hc_mech::{Epsilon, HierarchicalQuery, QuerySequence};
    use hc_noise::rng_from_seed;
    use rand::Rng;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn random_values(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rng_from_seed(seed);
        (0..n).map(|_| rng.random_range(-9.0..17.0)).collect()
    }

    #[test]
    fn answer_matches_direct_leaf_summation() {
        let shape = TreeShape::new(2, 5);
        let values = random_values(shape.nodes(), 1);
        let snap = ConsistentSnapshot::from_tree_values(&shape, &values, 16);
        let leaves = &values[shape.first_leaf()..];
        for (lo, hi) in [(0usize, 15usize), (3, 9), (5, 5), (0, 0), (15, 15)] {
            let direct: f64 = leaves[lo..=hi].iter().sum();
            let got = snap.answer(Interval::new(lo, hi));
            assert!((got - direct).abs() < 1e-9, "[{lo},{hi}] {got} vs {direct}");
        }
        assert_eq!(snap.total(), snap.answer(Interval::new(0, 15)));
    }

    #[test]
    fn batched_and_parallel_answers_are_bit_identical_to_serial() {
        let shape = TreeShape::new(2, 8);
        let values = random_values(shape.nodes(), 2);
        let snap = ConsistentSnapshot::from_tree_values(&shape, &values, shape.leaves());
        let mut rng = rng_from_seed(3);
        let queries: Vec<Interval> = (0..257)
            .map(|_| {
                let lo = rng.random_range(0..shape.leaves());
                let hi = rng.random_range(lo..shape.leaves());
                Interval::new(lo, hi)
            })
            .collect();
        let singles: Vec<f64> = queries.iter().map(|&q| snap.answer(q)).collect();
        let mut batched = Vec::new();
        snap.answer_into(&queries, &mut batched);
        assert_eq!(batched, singles);
    }

    #[test]
    fn unrolled_rebuild_is_bit_identical_across_tail_lengths() {
        // The 4-blocked default rebuild must reproduce the historical
        // push-loop bits for every tail length around the block boundary.
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 63, 64, 65, 257] {
            let leaves = random_values(n, 1000 + n as u64);
            let snap = ConsistentSnapshot::from_leaves(&leaves, n);
            let mut acc = 0.0f64;
            let mut oracle = vec![0.0f64];
            for &leaf in &leaves {
                acc += leaf;
                oracle.push(acc);
            }
            let got: Vec<u64> = snap.prefix.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = oracle.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn rebuild_reuses_the_prefix_buffer() {
        let shape = TreeShape::new(2, 4);
        let a = random_values(shape.nodes(), 4);
        let b = random_values(shape.nodes(), 5);
        let mut snap = ConsistentSnapshot::from_tree_values(&shape, &a, 8);
        let from_a = snap.answer(Interval::new(1, 6));
        snap.rebuild_from_tree_values(&shape, &b, 8);
        let fresh = ConsistentSnapshot::from_tree_values(&shape, &b, 8);
        assert_eq!(snap, fresh);
        assert_ne!(snap.answer(Interval::new(1, 6)), from_a);
    }

    #[test]
    fn histogram_snapshot_reproduces_range_count_exactly() {
        use hc_data::Domain;
        let counts: Vec<u64> = (0..37).map(|i| (i * 31 + 7) % 23).collect();
        let h = Histogram::from_counts(Domain::new("x", 37).unwrap(), counts);
        let snap = ConsistentSnapshot::from_histogram(&h);
        for (lo, hi) in [(0usize, 36usize), (4, 11), (17, 17), (0, 0)] {
            let q = Interval::new(lo, hi);
            assert_eq!(snap.answer(q), h.range_count(q) as f64);
        }
    }

    #[test]
    fn subtree_server_is_bit_identical_to_materialized_decomposition() {
        for (k, height, seed) in [(2usize, 6usize, 11u64), (3, 4, 12), (5, 3, 13)] {
            let shape = TreeShape::new(k, height);
            let values = random_values(shape.nodes(), seed);
            let server = SubtreeServer::new(&shape);
            let n = shape.leaves();
            let mut rng = rng_from_seed(seed ^ 0xAB);
            for _ in 0..200 {
                let lo = rng.random_range(0..n);
                let hi = rng.random_range(lo..n);
                let q = Interval::new(lo, hi);
                let mut emitted = Vec::new();
                server.for_each_node(q, |v| emitted.push(v));
                assert_eq!(emitted, shape.subtree_decomposition(q), "k={k} q={q}");
                for rounding in [Rounding::None, Rounding::NonNegativeInteger] {
                    let oracle: f64 = shape
                        .subtree_decomposition(q)
                        .into_iter()
                        .map(|v| rounding.apply(values[v]))
                        .sum();
                    assert_eq!(server.answer(&values, rounding, q), oracle);
                }
            }
        }
    }

    #[test]
    fn table_fold_matches_the_recursive_oracle_on_every_interval() {
        // Every interval of every shape with at most 512 leaves, both word
        // widths, both roundings, over random values and over all `-0.0`
        // (the fold's seed corner).
        for k in 2usize..=7 {
            let mut height = 1;
            while k.pow(height as u32 - 1) <= 512 {
                let shape = TreeShape::new(k, height);
                let n = shape.leaves();
                let narrow = SubtreeServer::new(&shape);
                let mut wide = narrow.clone();
                wide.wide = true;
                let random = random_values(shape.nodes(), (k * 64 + height) as u64);
                let zeros = vec![-0.0f64; shape.nodes()];
                let all: Vec<Interval> = (0..n)
                    .flat_map(|lo| (lo..n).map(move |hi| Interval::new(lo, hi)))
                    .collect();
                for values in [&random, &zeros] {
                    for rounding in [Rounding::None, Rounding::NonNegativeInteger] {
                        let oracle: Vec<u64> = all
                            .iter()
                            .map(|&q| narrow.answer_recursive(values, rounding, q).to_bits())
                            .collect();
                        for server in [&narrow, &wide] {
                            let mut batch = Vec::new();
                            server.answer_into(values, rounding, &all, &mut batch);
                            for ((&q, &want), got) in all.iter().zip(&oracle).zip(&batch) {
                                assert_eq!(
                                    got.to_bits(),
                                    want,
                                    "k={k} height={height} q={q} {rounding:?} wide={}",
                                    server.wide
                                );
                                assert_eq!(server.answer(values, rounding, q).to_bits(), want);
                            }
                        }
                    }
                }
                height += 1;
            }
        }
    }

    #[test]
    fn tables_build_exactly_for_2_40_bin_shapes() {
        for k in [2usize, 3] {
            let shape = TreeShape::for_domain(1 << 40, k);
            let server = SubtreeServer::new(&shape);
            let leaf_level = shape.height() - 1;
            let n = shape.leaves();
            for x in [0, 1, k - 1, k, n / 2, n - k, n - 2, n - 1] {
                let digits: u64 = server.packed_digits(x);
                let wide: u128 = server.packed_digits(x);
                assert_eq!(u128::from(digits), wide, "k={k} x={x}");
                let mut rebuilt = 0usize;
                for j in (0..leaf_level).rev() {
                    rebuilt = rebuilt * k + server.digit(digits, j);
                }
                assert_eq!(rebuilt, x, "k={k} x={x}");
                let mut span = 1usize;
                for j in 0..=leaf_level {
                    let depth = leaf_level - j;
                    assert_eq!(
                        server.node_at(j, x),
                        shape.level(depth).start + x / span,
                        "k={k} x={x} level={j}"
                    );
                    span = span.saturating_mul(k);
                }
            }
        }
    }

    #[test]
    fn divisor_is_exact_at_the_edges() {
        let divisors = [
            1u64,
            2,
            3,
            5,
            7,
            9,
            10,
            3u64.pow(20),
            3u64.pow(40),
            7u64.pow(22),
            1 << 40,
            (1 << 63) - 1,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut rng = rng_from_seed(71);
        for d in divisors {
            let div = Divisor::new(d);
            let mut dividends = vec![
                0u64,
                1,
                d - 1,
                d,
                d.saturating_add(1),
                u64::MAX,
                u64::MAX - 1,
            ];
            dividends.extend((1..=4).map(|m| d.saturating_mul(m).saturating_sub(1)));
            dividends.extend((0..64).map(|_| rng.random::<u64>()));
            for n in dividends {
                assert_eq!(div.quotient(n), n / d, "{n} / {d}");
            }
        }
    }

    #[test]
    fn digit_of_bit_is_exact_for_every_field_width() {
        for w in 1..=64u32 {
            // The smallest k whose digits need w bits.
            let k = if w == 1 { 2 } else { (1usize << (w - 1)) + 1 };
            let server = SubtreeServer::new(&TreeShape::new(k, 2));
            assert_eq!(server.digit_bits, w);
            for bit in 0..192u32 {
                assert_eq!(
                    server.digit_of_bit(bit),
                    (bit / w) as usize,
                    "w={w} bit={bit}"
                );
            }
        }
    }

    #[test]
    fn snapshot_and_decomposition_agree_on_exactly_consistent_trees() {
        // True tree counts are integer-consistent, so O(1) prefix serving
        // and the subtree decomposition answer identically, bit for bit.
        use hc_data::Domain;
        let counts: Vec<u64> = (0..32).map(|i| (i * 13) % 9).collect();
        let h = Histogram::from_counts(Domain::new("x", 32).unwrap(), counts);
        let q = HierarchicalQuery::binary();
        let shape = q.shape(32);
        let truth = q.evaluate(&h);
        let snap = ConsistentSnapshot::from_tree_values(&shape, &truth, 32);
        let server = SubtreeServer::new(&shape);
        let mut rng = rng_from_seed(21);
        for _ in 0..200 {
            let lo = rng.random_range(0..32);
            let hi = rng.random_range(lo..32);
            let iv = Interval::new(lo, hi);
            assert_eq!(
                snap.answer(iv),
                server.answer(&truth, Rounding::None, iv),
                "q = {iv}"
            );
        }
    }

    #[test]
    fn confidence_interval_centers_on_the_answer() {
        let shape = TreeShape::new(2, 4);
        let values = random_values(shape.nodes(), 31);
        let snap = ConsistentSnapshot::from_tree_values(&shape, &values, 8).with_noise_scale(2.0);
        let q = Interval::new(1, 4);
        let ci = snap.confidence(q, 0.9).expect("scale attached");
        let center = snap.answer(q);
        assert!(((ci.lo + ci.hi) / 2.0 - center).abs() < 1e-9);
        assert!(ci.contains(center));
        assert_eq!(ci.level, 0.9);
        // Wider ranges and levels give wider intervals.
        let wide = snap.confidence(Interval::new(0, 7), 0.9).unwrap();
        assert!(wide.width() > ci.width());
        let tight = snap.confidence(q, 0.5).unwrap();
        assert!(tight.width() < ci.width());
        // No scale, no interval.
        let bare = ConsistentSnapshot::from_tree_values(&shape, &values, 8);
        assert!(bare.confidence(q, 0.9).is_none());
    }

    #[test]
    fn flat_confidence_coverage_is_conservative() {
        use crate::universal::FlatUniversal;
        use hc_data::Domain;
        let n = 16usize;
        let h = Histogram::from_counts(Domain::new("x", n).unwrap(), vec![5; n]);
        let pipeline = FlatUniversal::new(eps(0.5));
        let q = Interval::new(2, 9);
        let truth = h.range_count(q) as f64;
        let level = 0.9;
        let mut rng = rng_from_seed(41);
        let trials = 1000;
        let mut covered = 0usize;
        for _ in 0..trials {
            let release = pipeline.release(&h, &mut rng);
            let snap = release.snapshot(Rounding::None);
            if snap
                .confidence(q, level)
                .expect("scale attached")
                .contains(truth)
            {
                covered += 1;
            }
        }
        let coverage = covered as f64 / trials as f64;
        assert!(
            coverage >= level,
            "coverage {coverage} below nominal {level}"
        );
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn snapshot_rejects_out_of_domain_queries() {
        let shape = TreeShape::new(2, 3);
        let snap = ConsistentSnapshot::from_tree_values(&shape, &[0.0; 7], 3);
        let _ = snap.answer(Interval::new(0, 3));
    }

    #[test]
    fn union_bound_interval_is_total_in_m() {
        // Regression: the historical inline formula divided by m, so m = 0
        // produced a -inf per-term level and a NaN (or panicking) half-width.
        // The helper must return the exact zero-width interval instead.
        let empty = union_bound_interval(2.0, 0, 0.9, 7.5);
        assert_eq!((empty.lo, empty.hi, empty.level), (7.5, 7.5, 0.9));
        assert_eq!(empty.width(), 0.0);
        assert!(empty.contains(7.5));
        // m >= 1 reproduces the historical arithmetic bit for bit.
        let m = 5usize;
        let level = 0.9;
        let scale = 2.0;
        let center = -3.25;
        let got = union_bound_interval(scale, m, level, center);
        let mf = m as f64;
        let half = mf * laplace_half_width(scale, 1.0 - (1.0 - level) / mf);
        assert_eq!(got.lo.to_bits(), (center - half).to_bits());
        assert_eq!(got.hi.to_bits(), (center + half).to_bits());
        // Width grows with m (union bound pays per summed count).
        assert!(union_bound_interval(scale, 6, level, center).width() > got.width());
    }

    #[test]
    fn histogram_snapshot_accepts_the_exact_2_53_boundary_total() {
        use hc_data::Domain;
        // 2^53 is exactly representable, and every partial sum on the way is
        // a smaller integer — the bound is inclusive. Pin the exact-boundary
        // total end to end: build, answer, and match range_count exactly.
        let boundary = 1u64 << 53;
        let counts = vec![boundary - 3, 2, 0, 1];
        let h = Histogram::from_counts(Domain::new("x", 4).unwrap(), counts);
        assert_eq!(h.total(), boundary);
        let snap = ConsistentSnapshot::from_histogram(&h);
        assert_eq!(snap.total(), boundary as f64);
        for (lo, hi) in [(0usize, 3usize), (0, 0), (1, 3), (3, 3)] {
            let q = Interval::new(lo, hi);
            assert_eq!(snap.answer(q), h.range_count(q) as f64, "q = {q}");
        }
    }

    #[test]
    #[should_panic(expected = "total count too large")]
    fn histogram_snapshot_rejects_totals_past_the_boundary() {
        use hc_data::Domain;
        // 2^53 + 1 is the first unrepresentable integer: the prefix can no
        // longer promise exactness, so construction must refuse.
        let h = Histogram::from_counts(Domain::new("x", 2).unwrap(), vec![1u64 << 53, 1]);
        let _ = ConsistentSnapshot::from_histogram(&h);
    }

    #[test]
    fn set_noise_scale_replaces_and_clears() {
        let shape = TreeShape::new(2, 4);
        let values = random_values(shape.nodes(), 61);
        let mut snap =
            ConsistentSnapshot::from_tree_values(&shape, &values, 8).with_noise_scale(2.0);
        let q = Interval::new(1, 5);
        let wide = snap.confidence(q, 0.9).unwrap();
        snap.set_noise_scale(Some(1.0));
        let tight = snap.confidence(q, 0.9).unwrap();
        assert!(tight.width() < wide.width());
        snap.set_noise_scale(None);
        assert!(snap.confidence(q, 0.9).is_none());
        assert_eq!(snap.noise_scale(), None);
    }

    #[test]
    fn answer_into_unrolled_tail_is_covered() {
        // Batch lengths around the 4-wide unroll boundary.
        let shape = TreeShape::new(2, 4);
        let values = random_values(shape.nodes(), 51);
        let snap = ConsistentSnapshot::from_tree_values(&shape, &values, 8);
        for len in 0..9usize {
            let queries: Vec<Interval> = (0..len).map(|i| Interval::new(i % 8, 7)).collect();
            let mut out = Vec::new();
            snap.answer_into(&queries, &mut out);
            let singles: Vec<f64> = queries.iter().map(|&q| snap.answer(q)).collect();
            assert_eq!(out, singles, "len = {len}");
        }
    }
}
