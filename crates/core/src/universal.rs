//! The universal-histogram task (Sec. 4): estimators `L̃`, `H̃`, `H̄`.
//!
//! A universal histogram answers *arbitrary* range queries from one private
//! release. Fig. 6 compares:
//!
//! * **`L̃`** ([`FlatUniversal`]) — release unit counts, answer ranges by
//!   summation. Accurate for small ranges, error grows linearly with range.
//! * **`H̃`** ([`HierarchicalUniversal`] + [`TreeRelease::range_query_subtree`])
//!   — release a k-ary interval tree (sensitivity ℓ), answer by summing the
//!   minimal subtree decomposition: error O(ℓ³/ε²) regardless of range size.
//! * **`H̄`** ([`TreeRelease::infer`]) — constrained inference over the tree
//!   (Theorem 3), uniformly at least as accurate as `H̃` (Theorem 4).
//!
//! Following Sec. 5.2, all estimators optionally enforce integrality and
//! non-negativity by rounding ([`Rounding::NonNegativeInteger`]); for `H̄`
//! the non-negativity step is the Sec. 4.2 subtree-zeroing heuristic applied
//! during inference.

use hc_data::{Histogram, Interval, RangeQuery};
use hc_mech::{Epsilon, HierarchicalQuery, LaplaceMechanism, NoiseBackend, TreeShape, UnitQuery};
use rand::Rng;

use crate::engine::{BatchInference, LevelTree};
use crate::hier::ConsistentTree;
use crate::snapshot::{answer_prefix, answer_prefix_into, ConsistentSnapshot, SubtreeServer};

/// Post-processing policy applied to released counts before answering
/// queries (Sec. 5.2's protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Rounding {
    /// Use raw noisy values.
    #[default]
    None,
    /// Round each count to the nearest non-negative integer.
    NonNegativeInteger,
}

impl Rounding {
    /// Applies the policy to one value.
    #[inline]
    pub fn apply(self, v: f64) -> f64 {
        match self {
            Rounding::None => v,
            Rounding::NonNegativeInteger => v.round().max(0.0),
        }
    }
}

/// The flat strategy `L̃`: unit counts under the Laplace mechanism.
#[derive(Debug, Clone, Copy)]
pub struct FlatUniversal {
    epsilon: Epsilon,
    backend: NoiseBackend,
}

impl FlatUniversal {
    /// A pipeline calibrated to `epsilon` (default
    /// [`NoiseBackend::Reference`] sampling).
    pub fn new(epsilon: Epsilon) -> Self {
        Self {
            epsilon,
            backend: NoiseBackend::Reference,
        }
    }

    /// The same pipeline sampling through `backend`.
    pub fn with_backend(self, backend: NoiseBackend) -> Self {
        Self { backend, ..self }
    }

    /// The configured ε.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// The configured sampling backend.
    pub fn backend(&self) -> NoiseBackend {
        self.backend
    }

    /// Releases `l̃ = L̃(I)`.
    pub fn release<R: Rng + ?Sized>(&self, histogram: &Histogram, rng: &mut R) -> FlatRelease {
        let mut out = FlatRelease::from_noisy(self.epsilon, Vec::new());
        self.release_into(histogram, rng, &mut out);
        out
    }

    /// Re-releases into an existing [`FlatRelease`], reusing its buffers —
    /// allocation-free after warm-up, bit-identical to [`Self::release`] at
    /// the same RNG state.
    ///
    /// The old path was three passes over the domain: evaluate, perturb,
    /// then re-read the noisy vector to build both prefix arrays. This is
    /// two: a backend-batched [`hc_noise::Laplace::fill_with`] draws the
    /// noise (so `FastLnWide` keeps its vectorized lane kernel), then one
    /// **fused counts+prefix pass** adds each unit count and folds the value
    /// into both prefix-sum arrays while it is still in registers. Per
    /// element the arithmetic is the old path's exactly (`count + sample` —
    /// f64 addition commutes bitwise — then `prefix[i] + value` in index
    /// order), so the release is bit-identical to perturbing via
    /// [`LaplaceMechanism::release_into`] and then rebuilding the prefixes.
    pub fn release_into<R: Rng + ?Sized>(
        &self,
        histogram: &Histogram,
        rng: &mut R,
        out: &mut FlatRelease,
    ) {
        let mech = LaplaceMechanism::new(self.epsilon).with_backend(self.backend);
        let laplace = hc_noise::Laplace::centered(mech.noise_scale(&UnitQuery, histogram.len()))
            .expect("positive scale from valid ε");
        let n = histogram.len();
        out.epsilon = self.epsilon;
        out.noisy.resize(n, 0.0);
        laplace.fill_with(self.backend, rng, &mut out.noisy);
        out.prefix_raw.clear();
        out.prefix_rounded.clear();
        out.prefix_raw.reserve(n + 1);
        out.prefix_rounded.reserve(n + 1);
        out.prefix_raw.push(0.0);
        out.prefix_rounded.push(0.0);
        let (mut raw_acc, mut rounded_acc) = (0.0f64, 0.0f64);
        for (slot, &count) in out.noisy.iter_mut().zip(histogram.counts()) {
            let v = count as f64 + *slot;
            *slot = v;
            raw_acc += v;
            rounded_acc += Rounding::NonNegativeInteger.apply(v);
            out.prefix_raw.push(raw_acc);
            out.prefix_rounded.push(rounded_acc);
        }
    }
}

/// A released flat histogram with prefix-sum range queries.
#[derive(Debug, Clone)]
pub struct FlatRelease {
    epsilon: Epsilon,
    noisy: Vec<f64>,
    prefix_raw: Vec<f64>,
    prefix_rounded: Vec<f64>,
}

impl FlatRelease {
    /// Wraps an existing noisy unit-count vector.
    pub fn from_noisy(epsilon: Epsilon, noisy: Vec<f64>) -> Self {
        let mut prefix_raw = Vec::with_capacity(noisy.len() + 1);
        let mut prefix_rounded = Vec::with_capacity(noisy.len() + 1);
        prefix_raw.push(0.0);
        prefix_rounded.push(0.0);
        for (i, &v) in noisy.iter().enumerate() {
            prefix_raw.push(prefix_raw[i] + v);
            prefix_rounded.push(prefix_rounded[i] + Rounding::NonNegativeInteger.apply(v));
        }
        Self {
            epsilon,
            noisy,
            prefix_raw,
            prefix_rounded,
        }
    }

    /// The ε the release was calibrated to.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// The raw noisy unit counts.
    pub fn counts(&self) -> &[f64] {
        &self.noisy
    }

    /// Unit-count estimates under the given rounding policy.
    pub fn estimates(&self, rounding: Rounding) -> Vec<f64> {
        self.noisy.iter().map(|&v| rounding.apply(v)).collect()
    }

    /// Answers one range — a half-open [`RangeQuery`] or an inclusive
    /// [`Interval`] — by summing (optionally rounded) unit counts, read off
    /// the release's fused prefix arrays; an empty range answers `0.0`.
    pub fn range_query<Q: Copy + Into<RangeQuery>>(&self, query: Q, rounding: Rounding) -> f64 {
        answer_prefix(self.prefix(rounding), self.noisy.len(), query)
    }

    /// Batched [`Self::range_query`] into a caller-owned buffer (resized to
    /// the batch length; zero allocations after warm-up) — the serving-loop
    /// form, answering straight from the release's fused prefix arrays.
    pub fn answer_into<Q: Copy + Into<RangeQuery>>(
        &self,
        rounding: Rounding,
        queries: &[Q],
        out: &mut Vec<f64>,
    ) {
        out.resize(queries.len(), 0.0);
        answer_prefix_into(self.prefix(rounding), self.noisy.len(), queries, out);
    }

    /// The fused prefix array of the (optionally rounded) unit counts.
    fn prefix(&self, rounding: Rounding) -> &[f64] {
        match rounding {
            Rounding::None => &self.prefix_raw,
            Rounding::NonNegativeInteger => &self.prefix_rounded,
        }
    }

    /// An owned [`ConsistentSnapshot`] over this release's (optionally
    /// rounded) unit counts — see [`Self::snapshot_into`].
    pub fn snapshot(&self, rounding: Rounding) -> ConsistentSnapshot {
        let mut snapshot = ConsistentSnapshot::empty();
        self.snapshot_into(rounding, &mut snapshot);
        snapshot
    }

    /// Rebuilds `snapshot` in place over this release's (optionally
    /// rounded) unit counts by *copying the already-fused prefix array*, no
    /// per-leaf recomputation. The snapshot carries the release's per-count
    /// Laplace scale `b = 1/ε` (unit queries have sensitivity 1), so served
    /// answers can attach exact confidence intervals.
    pub fn snapshot_into(&self, rounding: Rounding, snapshot: &mut ConsistentSnapshot) {
        snapshot.rebuild_from_prefix(self.prefix(rounding), self.noisy.len());
        snapshot.set_noise_scale(Some(1.0 / self.epsilon.value()));
    }
}

/// The hierarchical strategy: releases the `H` tree and derives `H̃` / `H̄`.
#[derive(Debug, Clone, Copy)]
pub struct HierarchicalUniversal {
    epsilon: Epsilon,
    backend: NoiseBackend,
    query: HierarchicalQuery,
}

impl HierarchicalUniversal {
    /// A pipeline with branching factor `k` (default
    /// [`NoiseBackend::Reference`] sampling).
    pub fn new(epsilon: Epsilon, branching: usize) -> Self {
        Self {
            epsilon,
            backend: NoiseBackend::Reference,
            query: HierarchicalQuery::new(branching),
        }
    }

    /// The paper's binary hierarchy.
    pub fn binary(epsilon: Epsilon) -> Self {
        Self::new(epsilon, 2)
    }

    /// The same pipeline sampling through `backend` — threaded into every
    /// release path, including the prepared mechanism
    /// [`BatchInference::release_and_infer`] consumes.
    pub fn with_backend(self, backend: NoiseBackend) -> Self {
        Self { backend, ..self }
    }

    /// The configured ε.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// The configured sampling backend.
    pub fn backend(&self) -> NoiseBackend {
        self.backend
    }

    /// The branching factor `k`.
    pub fn branching(&self) -> usize {
        self.query.branching()
    }

    /// Releases `h̃ = H̃(I)`.
    pub fn release<R: Rng + ?Sized>(&self, histogram: &Histogram, rng: &mut R) -> TreeRelease {
        let mech = LaplaceMechanism::new(self.epsilon).with_backend(self.backend);
        let mut noisy = Vec::new();
        mech.release_into(&self.query, histogram, rng, &mut noisy);
        TreeRelease {
            epsilon: self.epsilon,
            server: SubtreeServer::new(&self.query.shape(histogram.len())),
            domain_size: histogram.len(),
            noisy,
        }
    }

    /// Re-releases into an existing [`TreeRelease`], reusing its noisy
    /// buffer — allocation-free after warm-up when the shape is unchanged,
    /// bit-identical to [`Self::release`] at the same RNG state.
    pub fn release_into<R: Rng + ?Sized>(
        &self,
        histogram: &Histogram,
        rng: &mut R,
        out: &mut TreeRelease,
    ) {
        let mech = LaplaceMechanism::new(self.epsilon).with_backend(self.backend);
        mech.release_into(&self.query, histogram, rng, &mut out.noisy);
        out.server.ensure_shape(self.query.shape(histogram.len()));
        out.epsilon = self.epsilon;
        out.domain_size = histogram.len();
    }

    /// A placeholder [`TreeRelease`] (all-zero noisy values) sized for
    /// `domain_size` — the warm-up target trial loops hand to
    /// [`Self::release_into`] from their per-worker init.
    pub fn empty_release(&self, domain_size: usize) -> TreeRelease {
        let shape = self.query.shape(domain_size);
        let noisy = vec![0.0; shape.nodes()];
        TreeRelease {
            epsilon: self.epsilon,
            server: SubtreeServer::new(&shape),
            domain_size,
            noisy,
        }
    }

    /// The hoisted mechanism for this pipeline over `domain_size` — what
    /// [`BatchInference::release_and_infer`] consumes. Carries the
    /// pipeline's backend, so fused engine trials sample exactly as
    /// [`Self::release_into`] does.
    pub fn prepare(&self, domain_size: usize) -> hc_mech::PreparedMechanism<HierarchicalQuery> {
        LaplaceMechanism::new(self.epsilon)
            .with_backend(self.backend)
            .prepare(self.query, domain_size)
    }
}

/// A released noisy interval tree: the `H̃` estimator directly, and the
/// gateway to constrained inference (`H̄`).
#[derive(Debug, Clone)]
pub struct TreeRelease {
    epsilon: Epsilon,
    /// The decomposition server, compiled once per shape.
    server: SubtreeServer,
    domain_size: usize,
    noisy: Vec<f64>,
}

impl TreeRelease {
    /// Wraps an existing noisy tree vector (BFS order over `shape`).
    pub fn from_noisy(
        epsilon: Epsilon,
        shape: TreeShape,
        domain_size: usize,
        noisy: Vec<f64>,
    ) -> Self {
        assert_eq!(noisy.len(), shape.nodes(), "one value per tree node");
        assert!(
            domain_size <= shape.leaves(),
            "domain exceeds the leaf level"
        );
        Self {
            epsilon,
            server: SubtreeServer::new(&shape),
            domain_size,
            noisy,
        }
    }

    /// The ε the release was calibrated to.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// The tree geometry.
    pub fn shape(&self) -> &TreeShape {
        self.server.shape()
    }

    /// The unpadded domain size.
    pub fn domain_size(&self) -> usize {
        self.domain_size
    }

    /// The raw noisy node counts (BFS order).
    pub fn noisy_values(&self) -> &[f64] {
        &self.noisy
    }

    /// `H̃`'s range query: sum the fewest noisy subtree counts whose spans
    /// tile the range (Sec. 4.2's "natural strategy").
    ///
    /// Served through [`SubtreeServer`]: the decomposition is folded in
    /// place (same node order, same summation order — bit-identical to
    /// materializing it) with no per-query allocation.
    pub fn range_query_subtree(&self, interval: Interval, rounding: Rounding) -> f64 {
        assert!(
            interval.hi() < self.domain_size,
            "query {interval} outside domain of size {}",
            self.domain_size
        );
        self.server.answer(&self.noisy, rounding, interval)
    }

    /// An owned [`ConsistentSnapshot`] of the Theorem-3 inference — the
    /// engine-output plumbing for serving loops: infer through a
    /// caller-owned [`BatchInference`] (recompile only on shape change)
    /// straight into a prefix-summed view, skipping the
    /// [`ConsistentTree`] wrapper. The snapshot carries the release's
    /// per-node Laplace scale for confidence intervals.
    pub fn infer_snapshot(&self, engine: &mut BatchInference) -> ConsistentSnapshot {
        engine.ensure_shape(self.server.shape());
        let h = engine.infer(&self.noisy);
        ConsistentSnapshot::from_tree_values(self.server.shape(), &h, self.domain_size)
            .with_noise_scale(self.server.shape().height() as f64 / self.epsilon.value())
    }

    /// `H̄`: the exact Theorem 3 minimum-L2 consistent tree (no rounding).
    ///
    /// Runs through the level-indexed [`LevelTree`] engine. Trial loops
    /// should prefer [`Self::infer_into`], which reuses the output buffer
    /// across releases.
    pub fn infer(&self) -> ConsistentTree {
        let h = LevelTree::new(self.server.shape()).infer(&self.noisy);
        ConsistentTree::new(self.server.shape().clone(), h, self.domain_size)
    }

    /// The raw Theorem-3 node values into a caller-owned buffer, inferred
    /// in place there, through a caller-owned [`BatchInference`] that is
    /// recompiled only when the shape changes — the allocation-free form of
    /// [`Self::infer`] for trial loops that answer queries straight from the
    /// flat vector.
    pub fn infer_into(&self, engine: &mut BatchInference, out: &mut Vec<f64>) {
        engine.ensure_shape(self.server.shape());
        engine.infer_into(&self.noisy, out);
    }

    /// `H̄` as run in the experiments (Sec. 5.2 protocol): Theorem 3
    /// inference, then the Sec. 4.2 non-negativity subtree zeroing, then
    /// rounding every node value to a non-negative integer.
    ///
    /// The zeroing deliberately breaks exact parent-sum consistency (the
    /// paper calls it a heuristic), so range queries over the result are
    /// answered by the minimal subtree decomposition — each query touches at
    /// most `2ℓ` node values, so the clamping at zero cannot accumulate bias
    /// across a wide range the way per-leaf clamping would.
    ///
    /// The zeroing + rounding run as the engine's fused level sweep
    /// ([`LevelTree::zero_round_in_place`]).
    pub fn infer_rounded(&self) -> RoundedTree {
        let mut engine = BatchInference::for_shape(self.server.shape());
        let mut values = Vec::new();
        self.infer_rounded_into(&mut engine, &mut values);
        RoundedTree {
            server: self.server.clone(),
            domain_size: self.domain_size,
            values,
        }
    }

    /// The full `H̄` post-processing (Theorem 3 → Sec. 4.2 zeroing → Sec. 5.2
    /// rounding) into a caller-owned node-value buffer — the allocation-free
    /// form trial loops pair with [`HierarchicalUniversal::release_into`].
    /// The values written are exactly [`Self::infer_rounded`]'s.
    pub fn infer_rounded_into(&self, engine: &mut BatchInference, out: &mut Vec<f64>) {
        engine.ensure_shape(self.server.shape());
        engine.infer_zero_round_into(&self.noisy, out);
    }
}

/// The Sec. 4.2/5.2 post-processed tree: inferred, subtree-zeroed, and
/// rounded to non-negative integers.
///
/// Unlike [`ConsistentTree`] this is only *approximately* consistent (the
/// zeroing is a heuristic); queries therefore go through the subtree
/// decomposition rather than leaf prefix sums.
#[derive(Debug, Clone)]
pub struct RoundedTree {
    /// The decomposition server, compiled once per shape.
    server: SubtreeServer,
    domain_size: usize,
    values: Vec<f64>,
}

impl RoundedTree {
    /// The tree geometry.
    pub fn shape(&self) -> &TreeShape {
        self.server.shape()
    }

    /// The unpadded domain size.
    pub fn domain_size(&self) -> usize {
        self.domain_size
    }

    /// All node values (BFS order): non-negative integers.
    pub fn node_values(&self) -> &[f64] {
        &self.values
    }

    /// The leaf estimates over the unpadded domain.
    pub fn leaves(&self) -> &[f64] {
        let first = self.server.shape().leaf_node(0);
        &self.values[first..first + self.domain_size]
    }

    /// Answers `c([lo, hi])` by summing the minimal subtree decomposition of
    /// the zeroed, rounded node values — folded in place through
    /// [`SubtreeServer`] (bit-identical to materializing the decomposition,
    /// no per-query allocation).
    pub fn range_query(&self, interval: Interval) -> f64 {
        assert!(
            interval.hi() < self.domain_size,
            "query {interval} outside domain of size {}",
            self.domain_size
        );
        self.server.answer(&self.values, Rounding::None, interval)
    }

    /// The tree's compiled decomposition server, for callers answering
    /// many queries in batches ([`SubtreeServer::answer_into`]).
    pub fn server(&self) -> &SubtreeServer {
        &self.server
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_data::Domain;
    use hc_noise::rng_from_seed;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn example() -> Histogram {
        Histogram::from_counts(Domain::new("src", 4).unwrap(), vec![2, 0, 10, 2])
    }

    #[test]
    fn flat_range_queries_sum_unit_counts() {
        let rel = FlatRelease::from_noisy(eps(1.0), vec![1.5, -0.5, 9.8, 2.2]);
        let q = Interval::new(0, 2);
        assert!((rel.range_query(q, Rounding::None) - 10.8).abs() < 1e-12);
        // Rounded: 2 + 0 + 10 = 12.
        assert!((rel.range_query(q, Rounding::NonNegativeInteger) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn flat_estimates_respect_rounding() {
        let rel = FlatRelease::from_noisy(eps(1.0), vec![1.4, -2.0, 0.6]);
        assert_eq!(rel.estimates(Rounding::None), vec![1.4, -2.0, 0.6]);
        assert_eq!(
            rel.estimates(Rounding::NonNegativeInteger),
            vec![1.0, 0.0, 1.0]
        );
    }

    #[test]
    fn subtree_query_on_noiseless_tree_is_exact() {
        // With zero noise the H̃ strategy must return true range counts.
        let h = example();
        let shape = HierarchicalQuery::binary().shape(4);
        let truth = hc_mech::QuerySequence::evaluate(&HierarchicalQuery::binary(), &h);
        let rel = TreeRelease::from_noisy(eps(1.0), shape, 4, truth);
        for (lo, hi, want) in [
            (0usize, 3usize, 14.0),
            (0, 1, 2.0),
            (2, 3, 12.0),
            (1, 2, 10.0),
            (2, 2, 10.0),
        ] {
            let got = rel.range_query_subtree(Interval::new(lo, hi), Rounding::None);
            assert!((got - want).abs() < 1e-12, "[{lo},{hi}]: {got} vs {want}");
        }
    }

    #[test]
    fn inference_pipeline_matches_paper_example() {
        // Fig. 2(b) end-to-end through the estimator types.
        let shape = TreeShape::new(2, 3);
        let noisy = vec![13.0, 3.0, 11.0, 4.0, 1.0, 12.0, 1.0];
        let rel = TreeRelease::from_noisy(eps(1.0), shape, 4, noisy);
        let tree = rel.infer();
        let expected = [14.0, 3.0, 11.0, 3.0, 0.0, 11.0, 0.0];
        for (got, want) in tree.node_values().iter().zip(&expected) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
        assert!((tree.range_query(Interval::new(0, 3)) - 14.0).abs() < 1e-12);
    }

    #[test]
    fn rounded_inference_is_integral_and_nonnegative() {
        let h = example();
        let pipeline = HierarchicalUniversal::binary(eps(0.5));
        let mut rng = rng_from_seed(101);
        for _ in 0..20 {
            let rel = pipeline.release(&h, &mut rng);
            let tree = rel.infer_rounded();
            assert!(tree
                .node_values()
                .iter()
                .all(|&v| v >= 0.0 && v.fract() == 0.0));
            // Range answers are sums of such values, hence also integral ≥ 0.
            let q = tree.range_query(Interval::new(0, 3));
            assert!(q >= 0.0 && q.fract() == 0.0);
        }
    }

    #[test]
    fn rounded_inference_has_no_accumulating_bias_on_wide_ranges() {
        // The regression this design guards against: answering wide ranges by
        // summing individually-clamped leaves picks up positive bias
        // proportional to the range size. The decomposition path touches at
        // most 2ℓ values, keeping the bias bounded.
        let d = Domain::new("x", 256).unwrap();
        let h = Histogram::from_counts(d, vec![0; 256]); // fully empty domain
        let pipeline = HierarchicalUniversal::binary(eps(0.1));
        let q = Interval::new(1, 254);
        let mut rng = rng_from_seed(104);
        let trials = 200;
        let mut total = 0.0;
        for _ in 0..trials {
            let rel = pipeline.release(&h, &mut rng);
            total += rel.infer_rounded().range_query(q);
        }
        let mean_estimate = total / trials as f64;
        // Truth is 0; per-node clamp bias over ≤ 2ℓ nodes stays far below
        // what 254 clamped leaves (≈ 0.4σ each, σ ≈ 90) would produce.
        assert!(mean_estimate < 500.0, "bias too large: {mean_estimate}");
    }

    #[test]
    fn release_dimensions_and_padding() {
        let d = Domain::new("x", 5).unwrap();
        let h = Histogram::from_counts(d, vec![1, 2, 3, 4, 5]);
        let pipeline = HierarchicalUniversal::binary(eps(1.0));
        let mut rng = rng_from_seed(102);
        let rel = pipeline.release(&h, &mut rng);
        assert_eq!(rel.shape().leaves(), 8);
        assert_eq!(rel.domain_size(), 5);
        assert_eq!(rel.noisy_values().len(), 15);
        let tree = rel.infer();
        assert_eq!(tree.leaves().len(), 5);
    }

    #[test]
    fn inferred_beats_subtree_on_average() {
        // Theorem 4(ii) in action on a mid-size query: average squared error
        // of H̄ must not exceed H̃'s.
        let d = Domain::new("x", 32).unwrap();
        let counts: Vec<u64> = (0..32).map(|i| (i % 7) as u64).collect();
        let h = Histogram::from_counts(d.clone(), counts);
        let q = Interval::new(3, 27);
        let truth = h.range_count(q) as f64;

        let pipeline = HierarchicalUniversal::binary(eps(0.5));
        let mut rng = rng_from_seed(103);
        let trials = 300;
        let (mut err_subtree, mut err_inferred) = (0.0, 0.0);
        for _ in 0..trials {
            let rel = pipeline.release(&h, &mut rng);
            let a = rel.range_query_subtree(q, Rounding::None);
            let b = rel.infer().range_query(q);
            err_subtree += (a - truth) * (a - truth);
            err_inferred += (b - truth) * (b - truth);
        }
        assert!(
            err_inferred < err_subtree,
            "H̄ {err_inferred} vs H̃ {err_subtree}"
        );
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn subtree_query_beyond_domain_panics() {
        let shape = TreeShape::new(2, 3);
        let rel = TreeRelease::from_noisy(eps(1.0), shape, 3, vec![0.0; 7]);
        let _ = rel.range_query_subtree(Interval::new(0, 3), Rounding::None);
    }

    #[test]
    fn release_into_matches_owned_release_bit_for_bit() {
        let h = example();
        let flat = FlatUniversal::new(eps(0.4));
        let tree = HierarchicalUniversal::binary(eps(0.4));
        let mut flat_buf = flat.release(&h, &mut rng_from_seed(1));
        let mut tree_buf = tree.empty_release(h.len());
        for seed in [110u64, 111, 112] {
            let owned = flat.release(&h, &mut rng_from_seed(seed));
            flat.release_into(&h, &mut rng_from_seed(seed), &mut flat_buf);
            assert_eq!(flat_buf.counts(), owned.counts());
            let q = Interval::new(0, 3);
            assert_eq!(
                flat_buf.range_query(q, Rounding::NonNegativeInteger),
                owned.range_query(q, Rounding::NonNegativeInteger)
            );

            let owned_tree = tree.release(&h, &mut rng_from_seed(seed));
            tree.release_into(&h, &mut rng_from_seed(seed), &mut tree_buf);
            assert_eq!(tree_buf.noisy_values(), owned_tree.noisy_values());
            assert_eq!(tree_buf.shape(), owned_tree.shape());
        }
    }

    #[test]
    fn fused_flat_release_matches_the_two_pass_path_bit_for_bit() {
        // The counts+prefix fusion must reproduce the old pipeline exactly:
        // perturb via the mechanism (two passes), then rebuild both prefix
        // arrays from the noisy vector (`from_noisy`'s construction).
        let d = Domain::new("x", 37).unwrap();
        let counts: Vec<u64> = (0..37).map(|i| (i * 7 + 3) % 11).collect();
        let h = Histogram::from_counts(d, counts);
        for backend in [NoiseBackend::Reference, NoiseBackend::FastLnWide] {
            let flat = FlatUniversal::new(eps(0.3)).with_backend(backend);
            assert_eq!(flat.backend(), backend);
            for seed in [120u64, 121, 122] {
                let mech = LaplaceMechanism::new(eps(0.3)).with_backend(backend);
                let mut noisy = Vec::new();
                mech.release_into(&UnitQuery, &h, &mut rng_from_seed(seed), &mut noisy);
                let two_pass = FlatRelease::from_noisy(eps(0.3), noisy);

                let fused = flat.release(&h, &mut rng_from_seed(seed));
                assert_eq!(fused.counts(), two_pass.counts());
                assert_eq!(fused.prefix_raw, two_pass.prefix_raw);
                assert_eq!(fused.prefix_rounded, two_pass.prefix_rounded);

                // And the buffer-reusing form agrees with the owned form.
                let mut reused = FlatRelease::from_noisy(eps(0.3), vec![0.0; 64]);
                flat.release_into(&h, &mut rng_from_seed(seed), &mut reused);
                assert_eq!(reused.counts(), fused.counts());
                assert_eq!(reused.prefix_raw, fused.prefix_raw);
                assert_eq!(reused.prefix_rounded, fused.prefix_rounded);
            }
        }
    }

    #[test]
    fn tree_pipeline_backend_threads_through_release_and_prepare() {
        let d = Domain::new("x", 256).unwrap();
        let h = Histogram::from_counts(d, vec![3; 256]);
        let pipeline =
            HierarchicalUniversal::binary(eps(0.5)).with_backend(NoiseBackend::FastLnWide);
        assert_eq!(pipeline.backend(), NoiseBackend::FastLnWide);
        assert_eq!(
            pipeline.prepare(h.len()).backend(),
            NoiseBackend::FastLnWide
        );
        // Same seed: FastLnWide and Reference releases differ (different
        // bits-to-sample transform).
        let fast = pipeline.release(&h, &mut rng_from_seed(130));
        let reference =
            HierarchicalUniversal::binary(eps(0.5)).release(&h, &mut rng_from_seed(130));
        assert_ne!(fast.noisy_values(), reference.noisy_values());
    }

    #[test]
    fn infer_rounded_into_matches_infer_rounded() {
        let h = example();
        let pipeline = HierarchicalUniversal::binary(eps(0.3));
        let mut rng = rng_from_seed(113);
        let mut engine = BatchInference::for_shape(&TreeShape::for_domain(h.len(), 2));
        let mut out = Vec::new();
        for _ in 0..10 {
            let rel = pipeline.release(&h, &mut rng);
            rel.infer_rounded_into(&mut engine, &mut out);
            assert_eq!(out, rel.infer_rounded().node_values());
        }
    }

    #[test]
    fn release_and_infer_rounded_matches_release_then_infer() {
        // The engine's fused trial ≡ the estimator-type path, bit for bit.
        let h = example();
        let pipeline = HierarchicalUniversal::binary(eps(0.2));
        let prepared = pipeline.prepare(h.len());
        let shape = TreeShape::for_domain(h.len(), 2);
        let mut engine = BatchInference::for_shape(&shape);
        let mut out = Vec::new();
        for seed in [114u64, 115, 116] {
            engine.release_and_infer_rounded(&prepared, &h, &mut rng_from_seed(seed), &mut out);
            let old = pipeline
                .release(&h, &mut rng_from_seed(seed))
                .infer_rounded();
            assert_eq!(out, old.node_values());
        }
    }
}
