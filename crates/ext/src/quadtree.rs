//! 2-D universal histograms over a Morton-ordered grid (future work of
//! Appendix B, "extend the technique for universal histograms to
//! multi-dimensional range queries").
//!
//! A `2^m × 2^m` grid is linearized in Morton (Z-order): interleaving the
//! bits of `(x, y)` makes every aligned `2^j × 2^j` square a *contiguous*
//! block of the 1-D order, so a quadtree over the grid is exactly the
//! complete `k = 4` interval tree over the Morton order. Theorem 3's
//! inference then applies unchanged — which is precisely why the extension
//! is natural.

use hc_core::hier::ConsistentTree;
use hc_core::LevelTree;
use hc_data::{Domain, Histogram};
use hc_mech::{Epsilon, HierarchicalQuery, LaplaceMechanism, TreeShape};
use rand::Rng;

/// Interleaves the low 16 bits of `x` and `y` into a Morton code
/// (x in even bit positions, y in odd).
pub fn morton_encode(x: u32, y: u32) -> u64 {
    spread_bits(x) | (spread_bits(y) << 1)
}

/// Inverse of [`morton_encode`].
pub fn morton_decode(code: u64) -> (u32, u32) {
    (compact_bits(code), compact_bits(code >> 1))
}

fn spread_bits(v: u32) -> u64 {
    let mut x = v as u64 & 0xFFFF_FFFF;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

fn compact_bits(v: u64) -> u32 {
    let mut x = v & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF;
    x as u32
}

/// An axis-aligned rectangle `[x0, x1] × [y0, y1]` (inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rect {
    /// Inclusive min x.
    pub x0: u32,
    /// Inclusive min y.
    pub y0: u32,
    /// Inclusive max x.
    pub x1: u32,
    /// Inclusive max y.
    pub y1: u32,
}

impl Rect {
    /// Creates a rectangle; bounds must be ordered.
    pub fn new(x0: u32, y0: u32, x1: u32, y1: u32) -> Self {
        assert!(x0 <= x1 && y0 <= y1, "rectangle bounds reversed");
        Self { x0, y0, x1, y1 }
    }

    /// Number of covered cells.
    pub fn area(&self) -> u64 {
        (self.x1 - self.x0 + 1) as u64 * (self.y1 - self.y0 + 1) as u64
    }

    fn contains_square(&self, sq: &Square) -> bool {
        self.x0 <= sq.x
            && sq.x + sq.side - 1 <= self.x1
            && self.y0 <= sq.y
            && sq.y + sq.side - 1 <= self.y1
    }

    fn intersects_square(&self, sq: &Square) -> bool {
        !(sq.x > self.x1
            || sq.x + sq.side - 1 < self.x0
            || sq.y > self.y1
            || sq.y + sq.side - 1 < self.y0)
    }
}

/// An aligned square region of the grid (a quadtree node's footprint).
struct Square {
    x: u32,
    y: u32,
    side: u32,
}

/// A 2-D histogram over a `side × side` grid (side a power of two),
/// stored in Morton order.
#[derive(Debug, Clone)]
pub struct GridHistogram {
    side: u32,
    histogram: Histogram,
}

impl GridHistogram {
    /// Builds from a row-major count matrix (`counts[y][x]`).
    pub fn from_rows(counts: &[Vec<u64>]) -> Self {
        let side = counts.len() as u32;
        assert!(side.is_power_of_two(), "grid side must be a power of two");
        assert!(
            counts.iter().all(|row| row.len() == side as usize),
            "grid must be square"
        );
        let cells = (side as usize) * (side as usize);
        let mut morton = vec![0u64; cells];
        for (y, row) in counts.iter().enumerate() {
            for (x, &c) in row.iter().enumerate() {
                morton[morton_encode(x as u32, y as u32) as usize] = c;
            }
        }
        let domain = Domain::new("morton_cell", cells).expect("non-empty grid");
        Self {
            side,
            histogram: Histogram::from_counts(domain, morton),
        }
    }

    /// Grid side length.
    pub fn side(&self) -> u32 {
        self.side
    }

    /// The Morton-order histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.histogram
    }

    /// True count inside a rectangle (for evaluation).
    pub fn rect_count(&self, rect: Rect) -> u64 {
        assert!(
            rect.x1 < self.side && rect.y1 < self.side,
            "rect outside grid"
        );
        let counts = self.histogram.counts();
        let mut acc = 0u64;
        for y in rect.y0..=rect.y1 {
            for x in rect.x0..=rect.x1 {
                acc += counts[morton_encode(x, y) as usize];
            }
        }
        acc
    }
}

/// The 2-D hierarchical pipeline: a quadtree (k = 4 tree over Morton order)
/// released with Laplace noise, then Theorem 3 inference.
#[derive(Debug, Clone, Copy)]
pub struct QuadtreeUniversal {
    epsilon: Epsilon,
}

impl QuadtreeUniversal {
    /// A pipeline calibrated to `epsilon`.
    pub fn new(epsilon: Epsilon) -> Self {
        Self { epsilon }
    }

    /// Releases the noisy quadtree over a grid histogram.
    pub fn release<R: Rng + ?Sized>(&self, grid: &GridHistogram, rng: &mut R) -> QuadtreeRelease {
        let query = HierarchicalQuery::new(4);
        let mech = LaplaceMechanism::new(self.epsilon);
        let output = mech.release(&query, grid.histogram(), rng);
        QuadtreeRelease {
            side: grid.side(),
            shape: query.shape(grid.histogram().len()),
            noisy: output.into_values(),
        }
    }
}

/// A released noisy quadtree.
#[derive(Debug, Clone)]
pub struct QuadtreeRelease {
    side: u32,
    shape: TreeShape,
    noisy: Vec<f64>,
}

impl QuadtreeRelease {
    /// Grid side length.
    pub fn side(&self) -> u32 {
        self.side
    }

    /// The quadtree geometry (`k = 4` over Morton order).
    pub fn shape(&self) -> &TreeShape {
        &self.shape
    }

    /// Constrained inference (Theorem 3 with k = 4): the consistent quadtree.
    pub fn infer(&self) -> ConsistentQuadtree {
        let values = LevelTree::new(&self.shape).infer(&self.noisy);
        ConsistentQuadtree {
            side: self.side,
            tree: ConsistentTree::new(self.shape.clone(), values, self.shape.leaves()),
        }
    }

    /// Rectangle query from the raw noisy tree ("Q̃" analogue): sums the
    /// minimal set of aligned squares tiling the rectangle.
    pub fn rect_query_subtree(&self, rect: Rect) -> f64 {
        assert!(
            rect.x1 < self.side && rect.y1 < self.side,
            "rect outside grid"
        );
        let mut acc = 0.0;
        self.accumulate(0, &rect, &mut |node| acc += self.noisy[node]);
        acc
    }

    /// Recursive quadtree walk: nodes fully inside `rect` are consumed
    /// whole; partial overlaps recurse.
    fn accumulate(&self, node: usize, rect: &Rect, visit: &mut impl FnMut(usize)) {
        let sq = self.node_square(node);
        if rect.contains_square(&sq) {
            visit(node);
            return;
        }
        if !rect.intersects_square(&sq) {
            return;
        }
        if self.shape.is_leaf(node) {
            return; // disjoint leaf (partial impossible at side 1)
        }
        for child in self.shape.children(node) {
            self.accumulate(child, rect, visit);
        }
    }

    /// The aligned square a node covers, derived from its Morton leaf span.
    fn node_square(&self, node: usize) -> Square {
        let span = self.shape.leaf_span(node);
        let side = ((span.len() as f64).sqrt()) as u32;
        let (x, y) = morton_decode(span.lo() as u64);
        Square { x, y, side }
    }
}

/// A consistent (post-inference) quadtree answering rectangle queries.
#[derive(Debug, Clone)]
pub struct ConsistentQuadtree {
    side: u32,
    tree: ConsistentTree,
}

impl ConsistentQuadtree {
    /// Grid side length.
    pub fn side(&self) -> u32 {
        self.side
    }

    /// The underlying consistent tree (Morton order).
    pub fn tree(&self) -> &ConsistentTree {
        &self.tree
    }

    /// Rectangle query: sums node values over the minimal aligned-square
    /// tiling (consistency makes this equal to summing cells).
    pub fn rect_query(&self, rect: Rect) -> f64 {
        assert!(
            rect.x1 < self.side && rect.y1 < self.side,
            "rect outside grid"
        );
        let shape = self.tree.shape().clone();
        let values = self.tree.node_values();
        let mut acc = 0.0;
        let mut stack = vec![0usize];
        while let Some(node) = stack.pop() {
            let span = shape.leaf_span(node);
            let side = ((span.len() as f64).sqrt()) as u32;
            let (x, y) = morton_decode(span.lo() as u64);
            let sq = Square { x, y, side };
            if rect.contains_square(&sq) {
                acc += values[node];
            } else if rect.intersects_square(&sq) && !shape.is_leaf(node) {
                stack.extend(shape.children(node));
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_mech::QuerySequence;
    use hc_noise::rng_from_seed;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn checkerboard(side: usize) -> GridHistogram {
        let rows: Vec<Vec<u64>> = (0..side)
            .map(|y| (0..side).map(|x| ((x + y) % 2) as u64 * 3).collect())
            .collect();
        GridHistogram::from_rows(&rows)
    }

    #[test]
    fn morton_round_trips() {
        for (x, y) in [
            (0u32, 0u32),
            (1, 0),
            (0, 1),
            (5, 9),
            (255, 128),
            (65_535, 1),
        ] {
            let code = morton_encode(x, y);
            assert_eq!(morton_decode(code), (x, y), "({x},{y})");
        }
    }

    #[test]
    fn morton_aligned_squares_are_contiguous() {
        // Every aligned 2x2 square occupies 4 consecutive Morton codes.
        for (x, y) in [(0u32, 0u32), (2, 0), (0, 2), (4, 6)] {
            let base = morton_encode(x, y);
            let codes = [
                morton_encode(x, y),
                morton_encode(x + 1, y),
                morton_encode(x, y + 1),
                morton_encode(x + 1, y + 1),
            ];
            let max = *codes.iter().max().unwrap();
            assert_eq!(max - base, 3, "square at ({x},{y}) not contiguous");
        }
    }

    #[test]
    fn grid_histogram_counts_cells() {
        let g = checkerboard(4);
        assert_eq!(g.histogram().total(), 8 * 3);
        assert_eq!(g.rect_count(Rect::new(0, 0, 3, 3)), 24);
        assert_eq!(g.rect_count(Rect::new(0, 0, 0, 0)), 0);
        assert_eq!(g.rect_count(Rect::new(1, 0, 1, 0)), 3);
    }

    #[test]
    fn noiseless_subtree_rect_query_is_exact() {
        let g = checkerboard(8);
        let query = HierarchicalQuery::new(4);
        let truth = query.evaluate(g.histogram());
        let rel = QuadtreeRelease {
            side: 8,
            shape: query.shape(g.histogram().len()),
            noisy: truth,
        };
        for rect in [
            Rect::new(0, 0, 7, 7),
            Rect::new(1, 1, 6, 6),
            Rect::new(0, 0, 3, 3),
            Rect::new(2, 5, 2, 5),
        ] {
            let got = rel.rect_query_subtree(rect);
            let want = g.rect_count(rect) as f64;
            assert!((got - want).abs() < 1e-9, "{rect:?}: {got} vs {want}");
        }
    }

    #[test]
    fn inference_produces_consistent_tree_and_exact_rects_without_noise() {
        let g = checkerboard(8);
        let query = HierarchicalQuery::new(4);
        let truth = query.evaluate(g.histogram());
        let rel = QuadtreeRelease {
            side: 8,
            shape: query.shape(g.histogram().len()),
            noisy: truth,
        };
        let consistent = rel.infer();
        assert!(consistent.tree().max_consistency_violation() < 1e-9);
        let rect = Rect::new(1, 2, 5, 6);
        let got = consistent.rect_query(rect);
        assert!((got - g.rect_count(rect) as f64).abs() < 1e-6);
    }

    #[test]
    fn inference_is_bit_identical_to_the_theorem3_oracle() {
        // The k = 4 engine against the per-node oracle, on a single-slab
        // grid and on one whose 4^7 leaves span two engine slabs.
        for (side, seed) in [(16usize, 141u64), (128, 142)] {
            let g = checkerboard(side);
            let rel = QuadtreeUniversal::new(eps(0.5)).release(&g, &mut rng_from_seed(seed));
            let oracle = hc_testutil::oracle::hierarchical_inference(rel.shape(), &rel.noisy);
            let inferred = rel.infer();
            let got = inferred.tree().node_values();
            assert_eq!(got.len(), oracle.len());
            for (v, (a, b)) in got.iter().zip(&oracle).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "side {side}, node {v}");
            }
        }
    }

    #[test]
    fn inference_reduces_error_on_large_rects() {
        let g = checkerboard(16);
        let pipeline = QuadtreeUniversal::new(eps(0.2));
        let rect = Rect::new(1, 1, 14, 14);
        let truth = g.rect_count(rect) as f64;
        let mut rng = rng_from_seed(131);
        let trials = 100;
        let (mut raw_err, mut inf_err) = (0.0, 0.0);
        for _ in 0..trials {
            let rel = pipeline.release(&g, &mut rng);
            let raw = rel.rect_query_subtree(rect);
            let inf = rel.infer().rect_query(rect);
            raw_err += (raw - truth) * (raw - truth);
            inf_err += (inf - truth) * (inf - truth);
        }
        assert!(inf_err < raw_err, "inferred {inf_err} vs raw {raw_err}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_grid_is_rejected() {
        let rows = vec![vec![0u64; 3]; 3];
        let _ = GridHistogram::from_rows(&rows);
    }
}
