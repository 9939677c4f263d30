//! Theorem 3's consistent tree estimate and its query interface.
//!
//! [`ConsistentTree`] wraps the minimum-L2 tree-consistent answer `h̄`
//! (parent = sum of children everywhere) that the level-indexed engine
//! ([`crate::engine::LevelTree`]) computes from a noisy release `h̃`, and
//! answers range queries from its leaves. The per-node two-pass form of
//! Theorem 3 that the engine is pinned to, and the Sec. 4.2 subtree-zeroing
//! walk, are test oracles in `hc_testutil::oracle`.

use hc_data::Interval;
use hc_mech::TreeShape;

use crate::snapshot::{ConsistentSnapshot, LazySnapshot};

/// A consistent tree estimate supporting O(1) range queries via leaf prefix
/// sums — the query interface of the `H̄` estimator.
///
/// Queries are served through a lazily built
/// [`ConsistentSnapshot`]: construction stores only the node values, and the
/// prefix array is built once on the first range query (thread-safe), with
/// the exact arithmetic the eager construction historically used — query
/// answers are bit-identical.
#[derive(Debug, Clone)]
pub struct ConsistentTree {
    shape: TreeShape,
    values: Vec<f64>,
    domain_size: usize,
    /// Built on first use by [`Self::snapshot`].
    snapshot: LazySnapshot,
}

impl ConsistentTree {
    /// Wraps a full node-value vector (BFS order) over `shape`.
    ///
    /// `domain_size` is the unpadded domain; queries beyond it are rejected
    /// by the underlying `Interval` invariants.
    pub fn new(shape: TreeShape, values: Vec<f64>, domain_size: usize) -> Self {
        assert_eq!(values.len(), shape.nodes(), "one value per tree node");
        assert!(
            domain_size <= shape.leaves(),
            "domain larger than leaf level"
        );
        Self {
            shape,
            values,
            domain_size,
            snapshot: LazySnapshot::new(),
        }
    }

    /// The prefix-summed serving view over this tree's leaves, built on
    /// first use and shared by every subsequent query.
    pub fn snapshot(&self) -> &ConsistentSnapshot {
        self.snapshot.get_or_init(|| {
            ConsistentSnapshot::from_tree_values(&self.shape, &self.values, self.domain_size)
        })
    }

    /// The tree geometry.
    pub fn shape(&self) -> &TreeShape {
        &self.shape
    }

    /// The unpadded domain size.
    pub fn domain_size(&self) -> usize {
        self.domain_size
    }

    /// All node values in BFS order.
    pub fn node_values(&self) -> &[f64] {
        &self.values
    }

    /// The leaf estimates over the (unpadded) domain — the universal
    /// histogram itself.
    pub fn leaves(&self) -> &[f64] {
        let first = self.shape.leaf_node(0);
        &self.values[first..first + self.domain_size]
    }

    /// Answers the range count `c([lo, hi])` by prefix-sum difference —
    /// two O(1) lookups into the lazily built [`Self::snapshot`].
    pub fn range_query(&self, interval: Interval) -> f64 {
        self.snapshot().answer(interval)
    }

    /// Maximum violation of the parent-sum constraints, for diagnostics and
    /// tests (exact inference should be ~1e-9 of the value scale).
    pub fn max_consistency_violation(&self) -> f64 {
        let mut worst = 0.0f64;
        for v in 0..self.shape.nodes() {
            if !self.shape.is_leaf(v) {
                let child_sum: f64 = self.shape.children(v).map(|c| self.values[c]).sum();
                worst = worst.max((self.values[v] - child_sum).abs());
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_noise::rng_from_seed;
    use hc_testutil::oracle::{enforce_nonnegativity, hierarchical_inference};
    use rand::Rng;

    #[test]
    fn nonnegativity_breaks_consistency_only_at_zeroed_boundaries() {
        // The documented contract: subtree zeroing violates parent = Σ
        // children *only* at nodes that keep their value but lose a zeroed
        // child subtree; everywhere else consistency survives, and range
        // queries over the result are answered from the leaves.
        let shape = TreeShape::new(2, 5);
        let mut rng = rng_from_seed(91);
        let noisy: Vec<f64> = (0..shape.nodes())
            .map(|_| rng.random_range(-4.0..8.0))
            .collect();
        let h = hierarchical_inference(&shape, &noisy);
        let nn = enforce_nonnegativity(&shape, &h);

        // Recompute the zeroed set independently of the implementation.
        let mut zeroed = vec![false; shape.nodes()];
        for v in 0..shape.nodes() {
            let parent_zeroed = shape.parent(v).is_some_and(|u| zeroed[u]);
            zeroed[v] = parent_zeroed || h[v] <= 0.0;
        }
        assert!(
            zeroed.iter().any(|&z| z),
            "seed must exercise at least one zeroed subtree"
        );

        for v in 0..shape.nodes() {
            if shape.is_leaf(v) {
                continue;
            }
            let child_sum: f64 = shape.children(v).map(|c| nn[c]).sum();
            let violation = nn[v] - child_sum;
            if zeroed[v] {
                // Inside a zeroed subtree: 0 = 0 + 0, consistency holds.
                assert!(violation.abs() < 1e-12, "node {v} inside zeroed subtree");
            } else {
                // Outside: the exact discrepancy is the mass of the zeroed
                // children (h[c] ≤ 0 each), and it is zero iff no child
                // subtree was zeroed — the boundary is the only break point.
                let zeroed_mass: f64 = shape.children(v).filter(|&c| zeroed[c]).map(|c| h[c]).sum();
                assert!(
                    (violation - zeroed_mass).abs() < 1e-9,
                    "node {v}: violation {violation} vs zeroed child mass {zeroed_mass}"
                );
                if shape.children(v).all(|c| !zeroed[c]) {
                    assert!(violation.abs() < 1e-9, "non-boundary node {v} broke");
                }
            }
        }

        // Range queries over the zeroed result go through the leaves: the
        // prefix-sum path reproduces direct leaf summation everywhere, even
        // though a boundary node's own value no longer matches its span.
        let tree = ConsistentTree::new(shape.clone(), nn.clone(), shape.leaves());
        for (lo, hi) in [(0usize, 15usize), (0, 7), (3, 12), (5, 5)] {
            let direct: f64 = tree.leaves()[lo..=hi].iter().sum();
            assert!((tree.range_query(Interval::new(lo, hi)) - direct).abs() < 1e-9);
        }
        let boundary = (0..shape.nodes())
            .find(|&v| !zeroed[v] && shape.children(v).any(|c| zeroed[c]))
            .expect("a boundary node exists");
        let span = shape.leaf_span(boundary);
        let from_leaves = tree.range_query(Interval::new(span.lo(), span.hi()));
        assert!(
            (from_leaves - nn[boundary]).abs() > 1e-9,
            "boundary node value should disagree with its leaf sum"
        );
    }

    #[test]
    fn consistent_tree_range_queries_match_leaf_sums() {
        let shape = TreeShape::new(2, 4);
        let mut rng = rng_from_seed(89);
        let noisy: Vec<f64> = (0..shape.nodes())
            .map(|_| rng.random_range(0.0..9.0))
            .collect();
        let h = hierarchical_inference(&shape, &noisy);
        let tree = ConsistentTree::new(shape, h, 8);
        for (lo, hi) in [(0usize, 7usize), (2, 5), (0, 0), (7, 7), (1, 6)] {
            let direct: f64 = tree.leaves()[lo..=hi].iter().sum();
            let via_prefix = tree.range_query(Interval::new(lo, hi));
            assert!((direct - via_prefix).abs() < 1e-9);
        }
    }

    #[test]
    fn consistent_tree_aligned_query_equals_node_value() {
        let shape = TreeShape::new(2, 4);
        let mut rng = rng_from_seed(90);
        let noisy: Vec<f64> = (0..shape.nodes())
            .map(|_| rng.random_range(0.0..9.0))
            .collect();
        let h = hierarchical_inference(&shape, &noisy);
        let tree = ConsistentTree::new(shape.clone(), h.clone(), 8);
        // Node 1 covers [0, 3]; its value must equal the range query.
        assert!((tree.range_query(Interval::new(0, 3)) - h[1]).abs() < 1e-9);
        assert!(tree.max_consistency_violation() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn query_beyond_domain_panics() {
        let shape = TreeShape::new(2, 3);
        let tree = ConsistentTree::new(shape, vec![0.0; 7], 3); // padded leaf hidden
        let _ = tree.range_query(Interval::new(0, 3));
    }
}
