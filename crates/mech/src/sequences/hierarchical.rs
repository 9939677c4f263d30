//! The hierarchical query sequence `H` and k-ary tree geometry.

use std::borrow::Cow;

use hc_data::{Histogram, Interval};

use crate::QuerySequence;

/// Upper bound on tree heights: a binary tree of height 64 already has more
/// nodes than a `usize` can index, so the inline offset table below never
/// constrains a representable tree.
const MAX_HEIGHT: usize = 64;

/// Geometry of a complete k-ary interval tree (Sec. 4, Fig. 4).
///
/// Nodes are identified by their breadth-first index: the root is `0` and the
/// children of node `v` are `k·v + 1 … k·v + k`. Level 0 is the root; leaves
/// sit at depth `ℓ − 1` where `ℓ` is the paper's *height in nodes*
/// (`ℓ = log_k n + 1`).
///
/// All arithmetic is implicit in the index — the tree is never materialized
/// as a pointer structure, and the offset table is an inline array, so
/// constructing or cloning a `TreeShape` performs **no heap allocation**
/// (the release→inference hot loops construct one per trial).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeShape {
    branching: usize,
    height: usize,
    /// `level_offset[d]` is the BFS index of the first node at depth `d`
    /// for `d ≤ height`, with the entry at `height` a sentinel holding the
    /// total node count; entries beyond that are zero (so derived equality
    /// over the whole array is equivalent to prefix equality).
    level_offset: [usize; MAX_HEIGHT + 1],
}

impl TreeShape {
    /// A complete tree with the given branching factor `k ≥ 2` and height
    /// `ℓ ≥ 1` (number of levels).
    pub fn new(branching: usize, height: usize) -> Self {
        assert!(branching >= 2, "branching factor must be at least 2");
        assert!(height >= 1, "height must be at least 1");
        assert!(
            height <= MAX_HEIGHT,
            "height exceeds the representable bound"
        );
        let mut level_offset = [0usize; MAX_HEIGHT + 1];
        let mut offset = 0usize;
        let mut width = 1usize;
        for slot in level_offset.iter_mut().take(height) {
            *slot = offset;
            offset += width;
            width = width.saturating_mul(branching);
        }
        level_offset[height] = offset;
        Self {
            branching,
            height,
            level_offset,
        }
    }

    /// The smallest complete `k`-ary tree whose leaf level covers a domain of
    /// `domain_size` bins. Domains that are not a power of `k` are embedded
    /// by zero-padding on the right (`Histogram::zero_padded`).
    pub fn for_domain(domain_size: usize, branching: usize) -> Self {
        assert!(domain_size >= 1, "domain must be non-empty");
        let mut height = 1;
        let mut leaves = 1usize;
        while leaves < domain_size {
            leaves = leaves.saturating_mul(branching);
            height += 1;
        }
        Self::new(branching, height)
    }

    /// The branching factor `k`.
    #[inline]
    pub fn branching(&self) -> usize {
        self.branching
    }

    /// The height `ℓ` in nodes (root and leaf levels inclusive) — the
    /// sensitivity of the `H` query (Proposition 4).
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of leaves, `k^(ℓ−1)`.
    #[inline]
    pub fn leaves(&self) -> usize {
        self.level_offset[self.height] - self.level_offset[self.height - 1]
    }

    /// Total number of nodes `m = (k^ℓ − 1)/(k − 1)` — the length of the `H`
    /// query sequence.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.level_offset[self.height]
    }

    /// The BFS index range of nodes at `depth` (0 = root).
    pub fn level(&self, depth: usize) -> core::ops::Range<usize> {
        assert!(depth < self.height, "depth out of range");
        self.level_offset[depth]..self.level_offset[depth + 1]
    }

    /// The raw level-offset table: `level_offsets()[d]` is the BFS index of
    /// the first node at depth `d`, and a final sentinel holds the total node
    /// count (`len = height + 1`). This is the contiguous layout the
    /// `hc-core` inference engine's per-level slices are built on.
    #[inline]
    pub fn level_offsets(&self) -> &[usize] {
        &self.level_offset[..self.height + 1]
    }

    /// Number of nodes at `depth` (`k^depth` for a complete tree).
    #[inline]
    pub fn level_width(&self, depth: usize) -> usize {
        assert!(depth < self.height, "depth out of range");
        self.level_offset[depth + 1] - self.level_offset[depth]
    }

    /// The BFS index of the first leaf (`level_offsets()[height − 1]`).
    ///
    /// Because children of BFS node `v` are `k·v + 1 … k·v + k`, the children
    /// of the `i`-th node at depth `d` start at `level_offsets()[d + 1] + i·k`
    /// — each level is a contiguous run and sibling groups never interleave,
    /// which is what lets the engine walk levels as flat slices.
    #[inline]
    pub fn first_leaf(&self) -> usize {
        self.level_offset[self.height - 1]
    }

    /// The depth of node `v` (0 = root).
    pub fn depth(&self, v: usize) -> usize {
        assert!(v < self.nodes(), "node index out of range");
        // height <= ~40 in practice; linear scan beats binary search at this
        // size and is branch-predictable.
        let mut d = 0;
        while self.level_offset[d + 1] <= v {
            d += 1;
        }
        d
    }

    /// The paper's *height of a node* `l`: leaves have `l = 1`, the root has
    /// `l = ℓ`. This is the `l` in the `z[v]` recurrence of Sec. 4.1.
    pub fn node_height(&self, v: usize) -> usize {
        self.height - self.depth(v)
    }

    /// Whether `v` is a leaf.
    #[inline]
    pub fn is_leaf(&self, v: usize) -> bool {
        v >= self.level_offset[self.height - 1]
    }

    /// Whether `v` is the root.
    #[inline]
    pub fn is_root(&self, v: usize) -> bool {
        v == 0
    }

    /// The parent of `v`, or `None` for the root.
    pub fn parent(&self, v: usize) -> Option<usize> {
        (v > 0).then(|| (v - 1) / self.branching)
    }

    /// The children of `v` (empty for leaves).
    pub fn children(&self, v: usize) -> core::ops::Range<usize> {
        if self.is_leaf(v) {
            0..0
        } else {
            let first = self.branching * v + 1;
            first..first + self.branching
        }
    }

    /// The BFS index of the `i`-th leaf.
    pub fn leaf_node(&self, leaf_index: usize) -> usize {
        assert!(leaf_index < self.leaves(), "leaf index out of range");
        self.level_offset[self.height - 1] + leaf_index
    }

    /// The leaf-position interval `[lo, hi]` covered by node `v`.
    pub fn leaf_span(&self, v: usize) -> Interval {
        let d = self.depth(v);
        let pos_in_level = v - self.level_offset[d];
        // Each node at depth d covers k^(ℓ-1-d) leaves.
        let span = self.branching.pow((self.height - 1 - d) as u32);
        Interval::new(pos_in_level * span, (pos_in_level + 1) * span - 1)
    }

    /// The minimal set of nodes whose leaf spans exactly tile `target`
    /// (the "fewest sub-intervals" strategy used to answer range queries
    /// from `H̃`, Sec. 4.2). At most `2ℓ` nodes for binary trees, and more
    /// generally at most `2(k−1)` per level.
    pub fn subtree_decomposition(&self, target: Interval) -> Vec<usize> {
        let mut out = Vec::new();
        self.subtree_decomposition_into(target, &mut out);
        out
    }

    /// [`Self::subtree_decomposition`] into a caller-owned buffer (cleared
    /// first) — the allocation-free form used by the experiment trial loops,
    /// which answer thousands of range queries per release. Nodes are pushed
    /// in the same order as [`Self::subtree_decomposition`].
    pub fn subtree_decomposition_into(&self, target: Interval, out: &mut Vec<usize>) {
        assert!(
            target.hi() < self.leaves(),
            "target {target} outside leaf range"
        );
        out.clear();
        self.decompose_into(0, target, out);
    }

    fn decompose_into(&self, v: usize, target: Interval, out: &mut Vec<usize>) {
        let span = self.leaf_span(v);
        if target.covers(&span) {
            out.push(v);
            return;
        }
        for child in self.children(v) {
            if self.leaf_span(child).intersect(&target).is_some() {
                self.decompose_into(child, target, out);
            }
        }
    }
}

/// The hierarchical strategy `H` (Sec. 4): all interval counts of a complete
/// k-ary tree over the domain, in breadth-first order.
///
/// Proposition 4: sensitivity is the tree height `ℓ`, because one record lies
/// in exactly one interval per level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchicalQuery {
    branching: usize,
}

impl HierarchicalQuery {
    /// A hierarchy with branching factor `k ≥ 2`.
    pub fn new(branching: usize) -> Self {
        assert!(branching >= 2, "branching factor must be at least 2");
        Self { branching }
    }

    /// The binary hierarchy used in the paper's experiments.
    pub fn binary() -> Self {
        Self::new(2)
    }

    /// The branching factor.
    #[inline]
    pub fn branching(&self) -> usize {
        self.branching
    }

    /// The tree geometry this query induces over a domain.
    pub fn shape(&self, domain_size: usize) -> TreeShape {
        TreeShape::for_domain(domain_size, self.branching)
    }

    /// Evaluates the tree counts bottom-up into a caller-owned buffer.
    ///
    /// Level-indexed form of the reverse-BFS walk: padding is written as
    /// zeros directly (no padded histogram copy) and each parent accumulates
    /// its children in *descending* index order — the order the reverse-BFS
    /// reference walk adds them — so the output is bit-identical to the
    /// per-node `values[parent(v)] += values[v]` recurrence while doing no
    /// division-heavy `parent()` arithmetic and no allocation after warm-up.
    fn tree_counts_into(&self, histogram: &Histogram, out: &mut Vec<f64>) {
        let nodes = self.shape(histogram.len()).nodes();
        out.resize(nodes, 0.0);
        self.tree_counts_into_slice(histogram, out);
    }

    /// The slice core of [`Self::tree_counts_into`]: writes the full tree
    /// vector into a pre-sized slice (every slot assigned — leaves, padding,
    /// and parents), so a release can evaluate straight into a caller's
    /// slice.
    fn tree_counts_into_slice(&self, histogram: &Histogram, out: &mut [f64]) {
        let shape = self.shape(histogram.len());
        assert_eq!(out.len(), shape.nodes(), "output slice must cover the tree");
        let first_leaf = shape.first_leaf();
        // Leaves: the domain counts, then explicit zero padding — internal
        // nodes need no initialization because the accumulation below
        // *assigns* each parent rather than accumulating into it.
        for (slot, &c) in out[first_leaf..].iter_mut().zip(histogram.counts()) {
            *slot = c as f64;
        }
        for slot in &mut out[first_leaf + histogram.len()..] {
            *slot = 0.0;
        }
        let offsets = shape.level_offsets();
        let k = shape.branching();
        for d in (1..shape.height()).rev() {
            let (lo, hi) = (offsets[d - 1], offsets[d]);
            let (parents, rest) = out[lo..].split_at_mut(hi - lo);
            let children = &rest[..(hi - lo) * k];
            if k == 2 {
                // 4-way unrolled; each parent is the reverse-BFS fold
                // `(0.0 + c₁) + c₀`, written out so the bits can't drift.
                let n = parents.len();
                let main = n - n % 4;
                for i in (0..main).step_by(4) {
                    let c = &children[2 * i..2 * i + 8];
                    let p = &mut parents[i..i + 4];
                    p[0] = (0.0 + c[1]) + c[0];
                    p[1] = (0.0 + c[3]) + c[2];
                    p[2] = (0.0 + c[5]) + c[4];
                    p[3] = (0.0 + c[7]) + c[6];
                }
                for i in main..n {
                    parents[i] = (0.0 + children[2 * i + 1]) + children[2 * i];
                }
            } else {
                for (i, p) in parents.iter_mut().enumerate() {
                    let mut acc = 0.0f64;
                    for c in children[i * k..(i + 1) * k].iter().rev() {
                        acc += c;
                    }
                    *p = acc;
                }
            }
        }
    }
}

impl QuerySequence for HierarchicalQuery {
    fn output_len(&self, domain_size: usize) -> usize {
        self.shape(domain_size).nodes()
    }

    fn evaluate(&self, histogram: &Histogram) -> Vec<f64> {
        let mut out = Vec::new();
        self.tree_counts_into(histogram, &mut out);
        out
    }

    fn evaluate_into(&self, histogram: &Histogram, out: &mut Vec<f64>) {
        self.tree_counts_into(histogram, out);
    }

    fn evaluate_into_slice(&self, histogram: &Histogram, out: &mut [f64]) {
        self.tree_counts_into_slice(histogram, out);
    }

    fn sensitivity(&self, domain_size: usize) -> f64 {
        self.shape(domain_size).height() as f64
    }

    fn label(&self) -> Cow<'static, str> {
        match self.branching {
            2 => Cow::Borrowed("H2"),
            3 => Cow::Borrowed("H3"),
            4 => Cow::Borrowed("H4"),
            8 => Cow::Borrowed("H8"),
            16 => Cow::Borrowed("H16"),
            k => Cow::Owned(format!("H{k}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_data::Domain;

    fn example() -> Histogram {
        Histogram::from_counts(Domain::new("src", 4).unwrap(), vec![2, 0, 10, 2])
    }

    #[test]
    fn example6_tree_counts() {
        // H(I) = ⟨14, 2, 12, 2, 0, 10, 2⟩ (Fig. 2 / Example 6).
        let h = HierarchicalQuery::binary();
        assert_eq!(
            h.evaluate(&example()),
            vec![14.0, 2.0, 12.0, 2.0, 0.0, 10.0, 2.0]
        );
    }

    #[test]
    fn example6_shape() {
        let shape = HierarchicalQuery::binary().shape(4);
        assert_eq!(shape.height(), 3); // ℓ = 3 in Example 6
        assert_eq!(shape.leaves(), 4);
        assert_eq!(shape.nodes(), 7);
        assert_eq!(HierarchicalQuery::binary().sensitivity(4), 3.0);
    }

    #[test]
    fn node_arithmetic_is_consistent() {
        let shape = TreeShape::new(3, 4); // 27 leaves, 40 nodes
        assert_eq!(shape.nodes(), 1 + 3 + 9 + 27);
        assert_eq!(shape.leaves(), 27);
        for v in 0..shape.nodes() {
            for c in shape.children(v) {
                assert_eq!(shape.parent(c), Some(v));
                assert_eq!(shape.depth(c), shape.depth(v) + 1);
            }
            if !shape.is_root(v) {
                let p = shape.parent(v).unwrap();
                assert!(shape.children(p).contains(&v));
            }
        }
    }

    #[test]
    fn node_heights_follow_paper_convention() {
        let shape = TreeShape::new(2, 3);
        assert_eq!(shape.node_height(0), 3); // root: l = ℓ
        assert_eq!(shape.node_height(1), 2);
        assert_eq!(shape.node_height(3), 1); // leaf: l = 1
    }

    #[test]
    fn leaf_spans_partition_each_level() {
        let shape = TreeShape::new(2, 5);
        for d in 0..shape.height() {
            let mut next_expected = 0usize;
            for v in shape.level(d) {
                let span = shape.leaf_span(v);
                assert_eq!(span.lo(), next_expected);
                next_expected = span.hi() + 1;
            }
            assert_eq!(next_expected, shape.leaves(), "level {d} tiles leaves");
        }
    }

    #[test]
    fn leaf_node_round_trips() {
        let shape = TreeShape::new(4, 3);
        for i in 0..shape.leaves() {
            let v = shape.leaf_node(i);
            assert!(shape.is_leaf(v));
            let span = shape.leaf_span(v);
            assert_eq!((span.lo(), span.hi()), (i, i));
        }
    }

    #[test]
    fn decomposition_tiles_target_exactly() {
        let shape = TreeShape::new(2, 6); // 32 leaves
        for (lo, hi) in [(0, 31), (1, 30), (5, 5), (0, 15), (16, 31), (7, 24)] {
            let target = Interval::new(lo, hi);
            let nodes = shape.subtree_decomposition(target);
            // Spans must be disjoint, sorted by construction, and cover target.
            let mut covered = 0usize;
            let mut cursor = lo;
            let mut spans: Vec<_> = nodes.iter().map(|&v| shape.leaf_span(v)).collect();
            spans.sort_by_key(|s| s.lo());
            for s in &spans {
                assert_eq!(s.lo(), cursor, "gap before {s}");
                cursor = s.hi() + 1;
                covered += s.len();
            }
            assert_eq!(covered, target.len());
            assert_eq!(cursor, hi + 1);
        }
    }

    #[test]
    fn decomposition_is_minimal_for_binary_trees() {
        // At most 2 nodes per level for k = 2 (the bound behind
        // error(H̃_q) = O(ℓ³/ε²)).
        let shape = TreeShape::new(2, 10);
        let n = shape.leaves();
        for (lo, hi) in [(1, n - 2), (3, n / 2 + 1), (0, n - 1), (n / 4, 3 * n / 4)] {
            let nodes = shape.subtree_decomposition(Interval::new(lo, hi));
            let mut per_level = vec![0usize; shape.height()];
            for &v in &nodes {
                per_level[shape.depth(v)] += 1;
            }
            assert!(
                per_level.iter().all(|&c| c <= 2),
                "more than 2 nodes at a level for [{lo}, {hi}]: {per_level:?}"
            );
        }
    }

    #[test]
    fn aligned_range_uses_single_node() {
        let shape = TreeShape::new(2, 5); // 16 leaves
        assert_eq!(shape.subtree_decomposition(Interval::new(0, 7)), vec![1]);
        assert_eq!(shape.subtree_decomposition(Interval::new(8, 15)), vec![2]);
        assert_eq!(shape.subtree_decomposition(Interval::new(0, 15)), vec![0]);
    }

    #[test]
    fn padding_embeds_non_power_domains() {
        let d = Domain::new("x", 5).unwrap();
        let h = Histogram::from_counts(d, vec![1, 2, 3, 4, 5]);
        let q = HierarchicalQuery::binary();
        let shape = q.shape(5);
        assert_eq!(shape.leaves(), 8);
        let values = q.evaluate(&h);
        assert_eq!(values.len(), shape.nodes());
        assert_eq!(values[0], 15.0); // root = total
                                     // Padded leaves contribute zero.
        let first_leaf = shape.leaf_node(0);
        assert_eq!(
            &values[first_leaf..],
            &[1.0, 2.0, 3.0, 4.0, 5.0, 0.0, 0.0, 0.0]
        );
    }

    #[test]
    fn parent_equals_sum_of_children_everywhere() {
        let d = Domain::new("x", 16).unwrap();
        let counts: Vec<u64> = (0..16).map(|i| (i * 7 % 5) as u64).collect();
        let h = Histogram::from_counts(d, counts);
        let q = HierarchicalQuery::new(4);
        let shape = q.shape(16);
        let values = q.evaluate(&h);
        for v in 0..shape.nodes() {
            if !shape.is_leaf(v) {
                let child_sum: f64 = shape.children(v).map(|c| values[c]).sum();
                assert_eq!(values[v], child_sum, "node {v}");
            }
        }
    }

    #[test]
    fn for_domain_rounds_up() {
        assert_eq!(TreeShape::for_domain(1, 2).height(), 1);
        assert_eq!(TreeShape::for_domain(2, 2).height(), 2);
        assert_eq!(TreeShape::for_domain(3, 2).height(), 3);
        assert_eq!(TreeShape::for_domain(4, 2).height(), 3);
        assert_eq!(TreeShape::for_domain(65_536, 2).height(), 17);
        assert_eq!(TreeShape::for_domain(32_768, 2).height(), 16);
        assert_eq!(TreeShape::for_domain(17, 4).height(), 4); // 64 leaves
    }

    #[test]
    fn degenerate_single_node_tree() {
        let shape = TreeShape::for_domain(1, 2);
        assert_eq!(shape.nodes(), 1);
        assert!(shape.is_leaf(0));
        assert!(shape.is_root(0));
        assert_eq!(shape.parent(0), None);
        assert_eq!(shape.children(0).len(), 0);
    }

    #[test]
    fn level_offsets_agree_with_node_arithmetic() {
        for (k, height) in [(2usize, 1usize), (2, 5), (3, 4), (5, 3)] {
            let shape = TreeShape::new(k, height);
            let offsets = shape.level_offsets();
            assert_eq!(offsets.len(), height + 1);
            assert_eq!(offsets[height], shape.nodes());
            assert_eq!(shape.first_leaf(), shape.leaf_node(0));
            for d in 0..height {
                assert_eq!(offsets[d]..offsets[d + 1], shape.level(d));
                assert_eq!(shape.level_width(d), shape.level(d).len());
            }
            // Children of the i-th node at depth d start at
            // offsets[d + 1] + i·k — the contiguity the engine relies on.
            for d in 0..height - 1 {
                for (i, v) in shape.level(d).enumerate() {
                    assert_eq!(shape.children(v).start, offsets[d + 1] + i * k);
                }
            }
        }
    }

    #[test]
    fn labels_embed_branching() {
        assert_eq!(HierarchicalQuery::binary().label(), "H2");
        assert_eq!(HierarchicalQuery::new(16).label(), "H16");
        assert_eq!(HierarchicalQuery::new(5).label(), "H5");
    }

    /// The old reverse-BFS per-node walk, kept as the evaluation oracle.
    fn naive_tree_counts(q: &HierarchicalQuery, histogram: &Histogram) -> Vec<f64> {
        let shape = q.shape(histogram.len());
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

    #[test]
    fn level_indexed_evaluation_is_bit_identical_to_reverse_bfs_walk() {
        for (k, n, seed_mult) in [(2usize, 4usize, 1u64), (2, 13, 3), (3, 20, 5), (4, 64, 7)] {
            let counts: Vec<u64> = (0..n).map(|i| (i as u64 * seed_mult) % 11).collect();
            let h = Histogram::from_counts(Domain::new("x", n).unwrap(), counts);
            let q = HierarchicalQuery::new(k);
            assert_eq!(q.evaluate(&h), naive_tree_counts(&q, &h), "k={k} n={n}");
        }
    }

    #[test]
    fn evaluate_into_reuses_oversized_buffers() {
        let q = HierarchicalQuery::binary();
        let big = Histogram::from_counts(Domain::new("x", 16).unwrap(), vec![1; 16]);
        let small = example();
        let mut buf = Vec::new();
        q.evaluate_into(&big, &mut buf);
        assert_eq!(buf.len(), 31);
        // Shrinking to a smaller tree must fully reinitialize the prefix.
        q.evaluate_into(&small, &mut buf);
        assert_eq!(buf, q.evaluate(&small));
    }
}
