//! The batched, level-indexed inference engine — Theorem 3 on a flat layout.
//!
//! [`crate::hier::hierarchical_inference`] is the executable specification of
//! Theorem 3: per node it recomputes `k^l` weights with `powi`, resolves
//! `parent()`/`children()` index arithmetic, and allocates fresh vectors per
//! call. That is fine for a reference oracle and fatal for the Fig. 5–7
//! experiment loops, which run it thousands of times per curve.
//!
//! This module exploits two structural facts about the complete k-ary BFS
//! layout:
//!
//! 1. **Levels are contiguous slices** (`TreeShape::level_offsets`), and the
//!    children of the `i`-th node at depth `d` start at
//!    `level_offsets[d + 1] + i·k` — sibling groups never interleave, so both
//!    Theorem-3 passes are sequential sweeps over flat slices.
//! 2. **The weights depend only on the level**, so the per-node `powi`
//!    recurrences collapse into tables of `height` precomputed coefficients
//!    ([`LevelTree`]), shared by every trial over the same shape.
//!
//! On top of the PR-2 layout this engine adds the allocation-free pipeline:
//!
//! * the two sweeps are **tiled** into vertical slabs of ≤ [`TILE_LEAVES`]
//!   leaves, so a subtree's intermediate `z` values are still cache-resident
//!   when its ancestors consume them (the untiled sweeps stream every level
//!   from memory and are bandwidth-bound at large heights);
//! * the binary-tree inner loops (`own·x + child·Σ(2-window)`) are manually
//!   **4-way unrolled** ([`up_level_uniform`] and friends), preserving the
//!   reference's floating-point expression per node so output stays
//!   bit-identical;
//! * the Sec. 4.2 non-negativity heuristic runs as a **top-down level sweep**
//!   ([`LevelTree::zero_subtrees_in_place`]) instead of the per-node
//!   `parent()` walk of [`crate::hier::enforce_nonnegativity`] (which is kept
//!   as the oracle), exploiting the invariant that after the sweep a node is
//!   zeroed iff its value is `0.0`;
//! * [`BatchInference::release_and_infer`] runs a whole trial — evaluate the
//!   query, add Laplace noise through the preparation's
//!   [`hc_noise::NoiseBackend`], both Theorem-3 passes, optional zeroing and
//!   rounding — through caller/engine-owned scratch with **zero heap
//!   allocations after warm-up** (`tests/alloc_free.rs` pins this with a
//!   counting allocator);
//! * [`BatchInference::release_and_infer_batch_parallel`] scales that full
//!   trial across scoped-thread workers, split by trial with per-worker
//!   scratch and per-trial [`SeedStream`] seeding — bit-identical to the
//!   serial batch for any thread count, per backend;
//! * [`LevelTree::infer_parallel`] splits the tree at a depth with enough
//!   subtrees to feed every worker (≥ 4 chunks per thread when the shape
//!   allows), and workers claim subtrees from an atomic work queue — k = 2
//!   trees no longer cap the fan-out at 2 the way the old
//!   one-worker-per-root-subtree split did.
//!
//! All paths produce bit-identical output to their serial counterparts, and
//! the uniform path is bit-identical to the reference
//! `hierarchical_inference` (same floating-point expressions in the same
//! order) — the cross-engine equivalence tests pin this.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use hc_data::Histogram;
use hc_mech::{PreparedMechanism, QuerySequence, TreeShape};
use hc_noise::{Laplace, NoiseBackend, SeedStream};
use rand::Rng;

/// Leaves per vertical slab in the tiled sweeps. A binary slab of 8192
/// leaves touches ≈ 16 K `z` nodes plus the matching noisy/output slices —
/// a few hundred KiB, comfortably inside L2 — while leaving enough slabs at
/// experiment scale (128 at 2^20 leaves) for the work-stealing queue.
const TILE_LEAVES: usize = 8192;

/// Effective worker count for the parallel paths: the `HC_THREADS`
/// environment variable, when set to a positive integer, overrides
/// `requested` — the hook CI and bench runs use to pin thread count
/// deterministically. Unset (or unparsable) leaves `requested` untouched.
pub fn effective_threads(requested: usize) -> usize {
    apply_thread_override(std::env::var("HC_THREADS").ok().as_deref(), requested)
}

/// Pure core of [`effective_threads`]: a positive-integer override wins,
/// anything else (unset, empty, zero, garbage) keeps `requested`.
fn apply_thread_override(override_value: Option<&str>, requested: usize) -> usize {
    override_value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(requested)
}

/// Per-level coefficient tables for the two Theorem-3 passes.
///
/// `Uniform` is the paper's equal-variance case (every node carries the same
/// `Lap(ℓ/ε)` noise); `Weighted` is the GLS generalization for per-*level*
/// noise variances (the [`crate::budgeted`] pipeline).
#[derive(Debug, Clone)]
enum Weights {
    /// Theorem 3 exactly: `z = own·h̃ + child·Σz`, `h̄ = z + (h̄_u − Σz)/k`.
    Uniform {
        /// `(k^l − k^(l−1))/(k^l − 1)` per depth (`l` = height − depth).
        up_own: Vec<f64>,
        /// `(k^(l−1) − 1)/(k^l − 1)` per depth.
        up_child: Vec<f64>,
    },
    /// Inverse-variance fusion: `z = (w_own·h̃ + w_succ·Σz)/(w_own + w_succ)`,
    /// `h̄ = z + ratio·(h̄_u − Σz)` with `ratio = var/succ_var` per depth.
    Weighted {
        /// `1/σ²_d` per depth.
        w_own: Vec<f64>,
        /// `1/Σ σ²_fused(children)` per depth (0.0 at the leaf depth).
        w_succ: Vec<f64>,
        /// `σ²_fused(d) / succ_var(d−1)` per depth (unused at depth 0).
        down_ratio: Vec<f64>,
        /// The input per-level variances, kept so
        /// [`BatchInference::ensure_level_variances`] can detect staleness.
        vars: Vec<f64>,
    },
}

/// Bottom-up kernel, uniform weights: `p_i = own·x_i + child·Σ children_i`.
///
/// The k = 2 path is 4-way unrolled; every path folds the sibling window
/// exactly like the reference (`succ` starts at `0.0` and accumulates left
/// to right), so the result is bit-identical for all inputs.
fn up_level_uniform(
    parents: &mut [f64],
    own_in: &[f64],
    children: &[f64],
    k: usize,
    own: f64,
    child: f64,
) {
    if k == 2 {
        let n = parents.len();
        let main = n - n % 4;
        for i in (0..main).step_by(4) {
            let c = &children[2 * i..2 * i + 8];
            let x = &own_in[i..i + 4];
            let p = &mut parents[i..i + 4];
            p[0] = own * x[0] + child * (0.0 + c[0] + c[1]);
            p[1] = own * x[1] + child * (0.0 + c[2] + c[3]);
            p[2] = own * x[2] + child * (0.0 + c[4] + c[5]);
            p[3] = own * x[3] + child * (0.0 + c[6] + c[7]);
        }
        for i in main..n {
            parents[i] = own * own_in[i] + child * (0.0 + children[2 * i] + children[2 * i + 1]);
        }
    } else {
        for (i, p) in parents.iter_mut().enumerate() {
            let mut succ = 0.0f64;
            for c in &children[i * k..(i + 1) * k] {
                succ += c;
            }
            *p = own * own_in[i] + child * succ;
        }
    }
}

/// Bottom-up kernel, GLS weights: `p_i = (wo·x_i + ws·Σ children_i)/(wo+ws)`.
fn up_level_weighted(
    parents: &mut [f64],
    own_in: &[f64],
    children: &[f64],
    k: usize,
    wo: f64,
    ws: f64,
) {
    if k == 2 {
        let n = parents.len();
        let main = n - n % 4;
        for i in (0..main).step_by(4) {
            let c = &children[2 * i..2 * i + 8];
            let x = &own_in[i..i + 4];
            let p = &mut parents[i..i + 4];
            p[0] = (wo * x[0] + ws * (0.0 + c[0] + c[1])) / (wo + ws);
            p[1] = (wo * x[1] + ws * (0.0 + c[2] + c[3])) / (wo + ws);
            p[2] = (wo * x[2] + ws * (0.0 + c[4] + c[5])) / (wo + ws);
            p[3] = (wo * x[3] + ws * (0.0 + c[6] + c[7])) / (wo + ws);
        }
        for i in main..n {
            let succ = 0.0 + children[2 * i] + children[2 * i + 1];
            parents[i] = (wo * own_in[i] + ws * succ) / (wo + ws);
        }
    } else {
        for (i, p) in parents.iter_mut().enumerate() {
            let mut succ = 0.0f64;
            for c in &children[i * k..(i + 1) * k] {
                succ += c;
            }
            *p = (wo * own_in[i] + ws * succ) / (wo + ws);
        }
    }
}

/// Top-down kernel, uniform weights: per parent,
/// `h_j = z_j + (p − Σ z)/k` over its sibling window.
///
/// The per-child quotient `(p − Σz)/k` is hoisted out of the window loop —
/// the reference recomputes it per child, but division is exact, so the
/// value (and the output bits) are unchanged.
fn down_level_uniform(
    children_out: &mut [f64],
    parents: &[f64],
    group_z: &[f64],
    k: usize,
    kf: f64,
) {
    if k == 2 {
        let n = parents.len();
        let main = n - n % 4;
        for i in (0..main).step_by(4) {
            let z = &group_z[2 * i..2 * i + 8];
            let h = &mut children_out[2 * i..2 * i + 8];
            let p = &parents[i..i + 4];
            let s0 = (p[0] - (0.0 + z[0] + z[1])) / kf;
            let s1 = (p[1] - (0.0 + z[2] + z[3])) / kf;
            let s2 = (p[2] - (0.0 + z[4] + z[5])) / kf;
            let s3 = (p[3] - (0.0 + z[6] + z[7])) / kf;
            h[0] = z[0] + s0;
            h[1] = z[1] + s0;
            h[2] = z[2] + s1;
            h[3] = z[3] + s1;
            h[4] = z[4] + s2;
            h[5] = z[5] + s2;
            h[6] = z[6] + s3;
            h[7] = z[7] + s3;
        }
        for i in main..n {
            let z = &group_z[2 * i..2 * i + 2];
            let s = (parents[i] - (0.0 + z[0] + z[1])) / kf;
            children_out[2 * i] = z[0] + s;
            children_out[2 * i + 1] = z[1] + s;
        }
    } else {
        for (i, p) in parents.iter().enumerate() {
            let group = &group_z[i * k..(i + 1) * k];
            let mut succ = 0.0f64;
            for c in group {
                succ += c;
            }
            let share = (p - succ) / kf;
            for (hv, zv) in children_out[i * k..(i + 1) * k].iter_mut().zip(group) {
                *hv = zv + share;
            }
        }
    }
}

/// Top-down kernel, GLS weights: `h_j = z_j + ratio·(p − Σ z)`.
fn down_level_weighted(
    children_out: &mut [f64],
    parents: &[f64],
    group_z: &[f64],
    k: usize,
    ratio: f64,
) {
    if k == 2 {
        let n = parents.len();
        let main = n - n % 4;
        for i in (0..main).step_by(4) {
            let z = &group_z[2 * i..2 * i + 8];
            let h = &mut children_out[2 * i..2 * i + 8];
            let p = &parents[i..i + 4];
            let s0 = ratio * (p[0] - (0.0 + z[0] + z[1]));
            let s1 = ratio * (p[1] - (0.0 + z[2] + z[3]));
            let s2 = ratio * (p[2] - (0.0 + z[4] + z[5]));
            let s3 = ratio * (p[3] - (0.0 + z[6] + z[7]));
            h[0] = z[0] + s0;
            h[1] = z[1] + s0;
            h[2] = z[2] + s1;
            h[3] = z[3] + s1;
            h[4] = z[4] + s2;
            h[5] = z[5] + s2;
            h[6] = z[6] + s3;
            h[7] = z[7] + s3;
        }
        for i in main..n {
            let z = &group_z[2 * i..2 * i + 2];
            let s = ratio * (parents[i] - (0.0 + z[0] + z[1]));
            children_out[2 * i] = z[0] + s;
            children_out[2 * i + 1] = z[1] + s;
        }
    } else {
        for (i, p) in parents.iter().enumerate() {
            let group = &group_z[i * k..(i + 1) * k];
            let mut succ = 0.0f64;
            for c in group {
                succ += c;
            }
            let adjust = ratio * (p - succ);
            for (hv, zv) in children_out[i * k..(i + 1) * k].iter_mut().zip(group) {
                *hv = zv + adjust;
            }
        }
    }
}

/// `v.round().max(0.0)` for `v ≥ 0` (or NaN) without the libm `round` call.
///
/// On the baseline x86-64 target `f64::round` lowers to a library call
/// (round-half-away-from-zero has no SSE2 instruction), which dominated the
/// rounding sweep at 2^20 leaves. For finite `0 ≤ v < 2^52` the classic
/// magic-number trick is exact: `(v + 2^52) − 2^52` rounds to the nearest
/// *even* integer, and the only inputs where half-away disagrees are exact
/// `x.5` ties where the difference `v − t` is exactly `+0.5` (tie broken
/// downward) — bump those by one. Everything else (≥ 2^52 is already
/// integral; NaN) takes the library path, so the result is bit-identical to
/// `v.round().max(0.0)` for every non-negative input.
#[inline]
fn round_nonneg(v: f64) -> f64 {
    const MAGIC: f64 = 4_503_599_627_370_496.0; // 2^52
    if v < MAGIC {
        let t = (v + MAGIC) - MAGIC;
        // Select, not branch: the tie is rare but the inputs are noise.
        // `t + 0.0 ≡ t` here because `t ≥ +0.0` for every `v ≥ 0`.
        t + if v - t == 0.5 { 1.0 } else { 0.0 }
    } else {
        v.round().max(0.0)
    }
}

/// One parent-level step of the Sec. 4.2 zeroing sweep: zero each sibling
/// window whose parent was zeroed (post-sweep value `0.0` ⟺ zeroed), clamp
/// `≤ 0` children, and — once a parent's children no longer need its
/// pre-round value as their flag — optionally round the parent in place.
#[inline]
fn zero_level(parents: &mut [f64], children: &mut [f64], k: usize, round: bool) {
    for (i, p) in parents.iter_mut().enumerate() {
        let group = &mut children[i * k..(i + 1) * k];
        // Branchless select per child: on DP noise roughly half the values
        // are ≤ 0, so a conditional store mispredicts every other node —
        // the select form is what made this sweep beat the reference walk.
        // A zeroed parent (post-sweep value 0.0) takes the whole window.
        let parent_zeroed = *p == 0.0;
        for c in group {
            *c = if parent_zeroed | (*c <= 0.0) { 0.0 } else { *c };
        }
        if round {
            // Post-zeroing values are never negative, so the fast path
            // applies.
            *p = round_nonneg(*p);
        }
    }
}

/// A [`TreeShape`] compiled for fast repeated inference: contiguous per-level
/// slices plus precomputed per-level weight tables.
///
/// Construction is O(height); each [`infer`](Self::infer) is two slab-tiled
/// sweeps over the node vector with no `powi`, no parent/child index
/// arithmetic beyond a running offset, and no per-node branching.
#[derive(Debug, Clone)]
pub struct LevelTree {
    shape: TreeShape,
    weights: Weights,
}

impl LevelTree {
    /// Compiles the uniform (paper) Theorem-3 weights for `shape`.
    ///
    /// Output is bit-identical to [`crate::hier::hierarchical_inference`].
    pub fn new(shape: &TreeShape) -> Self {
        let height = shape.height();
        let k = shape.branching() as f64;
        let mut up_own = vec![1.0f64; height];
        let mut up_child = vec![0.0f64; height];
        for (d, (own, child)) in up_own.iter_mut().zip(&mut up_child).enumerate() {
            let l = (height - d) as i32;
            if l > 1 {
                // Same expressions as the reference so the bits agree.
                let k_l = k.powi(l);
                let k_lm1 = k.powi(l - 1);
                *own = (k_l - k_lm1) / (k_l - 1.0);
                *child = (k_lm1 - 1.0) / (k_l - 1.0);
            }
        }
        Self {
            shape: shape.clone(),
            weights: Weights::Uniform { up_own, up_child },
        }
    }

    /// Compiles GLS weights for per-**level** noise variances (depth 0 =
    /// root), the [`crate::budgeted`] noise model.
    ///
    /// Matches [`crate::weighted::weighted_hierarchical_inference`] with the
    /// variance of level `d` replicated across that level's nodes.
    pub fn with_level_variances(shape: &TreeShape, level_variances: &[f64]) -> Self {
        let height = shape.height();
        assert_eq!(level_variances.len(), height, "one variance per level");
        assert!(
            level_variances.iter().all(|&v| v > 0.0 && v.is_finite()),
            "variances must be positive and finite"
        );
        let k = shape.branching();
        let mut w_own = vec![0.0f64; height];
        let mut w_succ = vec![0.0f64; height];
        let mut down_ratio = vec![0.0f64; height];
        // Fused subtree-total variance per depth, bottom-up (matches the
        // reference's upward pass, including the k-term summation order).
        let mut fused = vec![0.0f64; height];
        fused[height - 1] = level_variances[height - 1];
        w_own[height - 1] = 1.0 / level_variances[height - 1];
        let mut succ_var = vec![0.0f64; height]; // of the child group under depth d
        for d in (0..height.saturating_sub(1)).rev() {
            let mut sv = 0.0f64;
            for _ in 0..k {
                sv += fused[d + 1];
            }
            succ_var[d] = sv;
            w_own[d] = 1.0 / level_variances[d];
            w_succ[d] = 1.0 / sv;
            fused[d] = 1.0 / (w_own[d] + w_succ[d]);
        }
        for d in 1..height {
            down_ratio[d] = fused[d] / succ_var[d - 1];
        }
        Self {
            shape: shape.clone(),
            weights: Weights::Weighted {
                w_own,
                w_succ,
                down_ratio,
                vars: level_variances.to_vec(),
            },
        }
    }

    /// The compiled tree geometry.
    #[inline]
    pub fn shape(&self) -> &TreeShape {
        &self.shape
    }

    /// Total node count (length of the noisy/output vectors).
    #[inline]
    pub fn nodes(&self) -> usize {
        self.shape.nodes()
    }

    /// Whether the tables are the uniform Theorem-3 weights (as opposed to
    /// per-level GLS weights).
    pub fn is_uniform(&self) -> bool {
        matches!(self.weights, Weights::Uniform { .. })
    }

    /// The per-level variances the GLS tables were compiled from, or `None`
    /// for the uniform tables.
    pub fn level_variances(&self) -> Option<&[f64]> {
        match &self.weights {
            Weights::Uniform { .. } => None,
            Weights::Weighted { vars, .. } => Some(vars),
        }
    }

    /// The depth at which the tiled sweeps root their vertical slabs: the
    /// shallowest depth whose subtrees hold at most [`TILE_LEAVES`] leaves.
    /// 0 (one slab — plain sweeps) for trees that already fit in cache.
    ///
    /// Never exceeds `height − 2`: each slab must include the leaf kernel
    /// step, because the sweeps read leaves from `noisy` only there (the
    /// leaf segment of `z` is deliberately never written). A branching
    /// factor larger than [`TILE_LEAVES`] therefore keeps slabs wider than
    /// the target rather than degenerating to leaf-depth slabs.
    fn tile_cut(&self) -> usize {
        let height = self.shape.height();
        let leaves = self.shape.leaves();
        let mut cut = 0;
        while cut + 1 < height - 1 && leaves / self.shape.level_width(cut) > TILE_LEAVES {
            cut += 1;
        }
        cut
    }

    /// Theorem 3 in two flat sweeps, allocating the result.
    pub fn infer(&self, noisy: &[f64]) -> Vec<f64> {
        let mut z = Vec::new();
        let mut out = Vec::new();
        self.infer_into(noisy, &mut z, &mut out);
        out
    }

    /// Theorem 3 in two slab-tiled sweeps into caller-owned buffers.
    ///
    /// `z` and `out` are resized to `nodes()`; once their capacity has grown
    /// past that, repeated calls allocate nothing.
    pub fn infer_into(&self, noisy: &[f64], z: &mut Vec<f64>, out: &mut Vec<f64>) {
        let n = self.shape.nodes();
        assert_eq!(noisy.len(), n, "noisy vector must cover the tree");
        // Resize without a zero-fill pass: the sweeps assign every slot they
        // read back (z's leaf segment is never touched — the kernels read
        // leaves from `noisy` directly).
        z.resize(n, 0.0);
        out.resize(n, 0.0);
        self.upward(noisy, z);
        self.downward(noisy, z, out);
    }

    /// [`Self::infer_into`] fused with the Sec. 4.2 zeroing and Sec. 5.2
    /// rounding: the zero/round sweep runs slab-by-slab immediately after
    /// the downward pass writes each slab, while the slab is still
    /// cache-resident — one DRAM round-trip less than inferring and then
    /// calling [`Self::zero_round_in_place`] over the whole vector.
    ///
    /// Output is bit-identical to `infer_into` followed by
    /// `zero_round_in_place`: every zeroing decision still reads pre-round
    /// values (nodes are rounded only once their own children are done, and
    /// the level just above the slab roots is rounded last, after every slab
    /// has consumed its flags).
    pub fn infer_zero_round_into(&self, noisy: &[f64], z: &mut Vec<f64>, out: &mut Vec<f64>) {
        let n = self.shape.nodes();
        assert_eq!(noisy.len(), n, "noisy vector must cover the tree");
        z.resize(n, 0.0);
        out.resize(n, 0.0);
        self.upward(noisy, z);
        self.downward_zero_round(noisy, z, out);
    }

    /// The fused downstream of [`Self::infer_zero_round_into`]: top-down
    /// pass with the zero/round sweep run per slab while it is hot.
    fn downward_zero_round(&self, noisy: &[f64], z: &[f64], out: &mut [f64]) {
        let height = self.shape.height();
        if height == 1 {
            let v = noisy[0];
            out[0] = if v <= 0.0 { 0.0 } else { round_nonneg(v) };
            return;
        }
        let cut = self.tile_cut();
        out[0] = z[0];
        self.downward_levels(z, out, 0..cut);
        // Zero the top region: depths 0..cut−1 act as parents, so depths
        // 1..=cut−1 get their zeroing and depths 0..cut−2 their rounding.
        // Depth cut−1 keeps pre-round values (the slabs' flags) and depth
        // cut stays raw — the downward slab kernels still need it.
        let offsets = self.shape.level_offsets();
        if cut >= 1 {
            if out[0] <= 0.0 {
                out[0] = 0.0;
            }
            self.zero_levels(out, 0..cut.saturating_sub(1), true);
        }
        for s in 0..self.shape.level_width(cut) {
            self.downward_slab(s, cut, noisy, z, out);
            self.zero_round_slab(s, cut, out);
        }
        if cut >= 1 {
            // Now that every slab has read its parent flag, round the
            // deferred level.
            for v in &mut out[offsets[cut - 1]..offsets[cut]] {
                *v = round_nonneg(*v);
            }
        }
    }

    /// Bottom-up pass fused with the noise perturbation: adds one Laplace
    /// draw to every node of `values` (true answers on input, the noisy
    /// release on output) while running the upward slabs, so each leaf slab
    /// is still cache-hot when its parents consume it.
    ///
    /// Draw order is the BFS index order — internal prefix first, then the
    /// leaf slabs left to right — exactly the order
    /// [`hc_noise::Laplace::add_noise`] uses over the whole vector, and
    /// backends consume one uniform per sample with length-independent bits,
    /// so the release is bit-identical to the unfused path *per backend*.
    fn noised_upward<R: Rng + ?Sized>(
        &self,
        laplace: &Laplace,
        backend: NoiseBackend,
        rng: &mut R,
        values: &mut [f64],
        z: &mut [f64],
    ) {
        let first_leaf = self.shape.first_leaf();
        laplace.add_noise_with(backend, rng, &mut values[..first_leaf]);
        let cut = self.tile_cut();
        let slabs = self.shape.level_width(cut);
        let leaf_w = self.shape.leaves() / slabs;
        for s in 0..slabs {
            let lo = first_leaf + s * leaf_w;
            laplace.add_noise_with(backend, rng, &mut values[lo..lo + leaf_w]);
            self.upward_slab(s, cut, values, z);
        }
        self.upward_levels(values, z, 0..cut);
    }

    /// One complete fused trial — evaluate the prepared query, add Laplace
    /// noise through the preparation's backend with the draws interleaved
    /// into the upward slabs, run the top-down pass (optionally with the
    /// Sec. 4.2 zeroing + Sec. 5.2 rounding fused in) — against caller-owned
    /// buffers. `noisy` must already have length `nodes()` (every slot is
    /// assigned, so it can be one trial's segment of a shared batch buffer
    /// — the batch pipelines release **in place** instead of copying from
    /// scratch); `z` is scratch (resized to `nodes()`, reusable across
    /// trials); `out` must already have length `nodes()`.
    ///
    /// This is the per-trial core shared by every `release_and_infer*`
    /// entry point, including the trial-parallel batch — so "bit-identical
    /// to serial per backend" holds by construction: all paths run exactly
    /// this function per trial.
    #[allow(clippy::too_many_arguments)] // scratch + output slots, all required
    fn fused_trial<Q: QuerySequence, R: Rng + ?Sized>(
        &self,
        prepared: &PreparedMechanism<Q>,
        histogram: &Histogram,
        rng: &mut R,
        rounded: bool,
        noisy: &mut [f64],
        z: &mut Vec<f64>,
        out: &mut [f64],
    ) {
        let n = self.nodes();
        assert_eq!(noisy.len(), n, "noisy slice must cover the tree");
        assert!(
            self.is_uniform(),
            "engine is compiled with per-level GLS weights; recompile with \
             ensure_shape before running uniform release_and_infer trials"
        );
        assert_eq!(
            prepared.output_len(),
            n,
            "prepared query does not cover the engine's tree"
        );
        assert_eq!(
            histogram.len(),
            prepared.domain_size(),
            "prepared for a different domain size"
        );
        // A tree-covering query's domain fits the leaf level; a flat query
        // whose output merely has the same length (e.g. UnitQuery over
        // `nodes()` bins) does not — fail loudly instead of inferring over
        // values that are not tree counts.
        assert!(
            prepared.domain_size() <= self.shape.leaves(),
            "prepared query's domain exceeds the tree's leaf level — not a \
             hierarchical release over this engine's shape"
        );
        assert_eq!(out.len(), n, "output slice must cover the tree");
        prepared.query().evaluate_into_slice(histogram, noisy);
        z.resize(n, 0.0);
        self.noised_upward(&prepared.noise(), prepared.backend(), rng, noisy, z);
        if rounded {
            self.downward_zero_round(noisy, z, out);
        } else {
            self.downward(noisy, z, out);
        }
    }

    /// The zero sweep over parent depths `depths` (children at `d + 1`),
    /// optionally rounding each parent once its children are processed. The
    /// root's own zero check is the caller's job.
    fn zero_levels(&self, values: &mut [f64], depths: core::ops::Range<usize>, round: bool) {
        let offsets = self.shape.level_offsets();
        let k = self.shape.branching();
        for d in depths {
            let (lo, hi) = (offsets[d], offsets[d + 1]);
            let (upper, lower) = values.split_at_mut(hi);
            let parents = &mut upper[lo..];
            let children = &mut lower[..(hi - lo) * k];
            zero_level(parents, children, k, round);
        }
    }

    /// Zero + round sweep over slab `s` rooted at depth `cut`, run right
    /// after [`Self::downward_slab`] filled it. The slab root's zeroing
    /// consults its parent's (pre-round) value at depth `cut − 1`; the slab
    /// then rounds every level it owns, leaves included.
    fn zero_round_slab(&self, s: usize, cut: usize, values: &mut [f64]) {
        let height = self.shape.height();
        let offsets = self.shape.level_offsets();
        let k = self.shape.branching();
        let slabs = self.shape.level_width(cut);
        if cut == 0 {
            // Single slab covering the whole tree: the slab root is the
            // tree root.
            if values[0] <= 0.0 {
                values[0] = 0.0;
            }
        } else {
            let parent = values[offsets[cut - 1] + s / k];
            let root = &mut values[offsets[cut] + s];
            if parent == 0.0 || *root <= 0.0 {
                *root = 0.0;
            }
        }
        for d in cut..height - 1 {
            let w = self.shape.level_width(d) / slabs;
            let plo = offsets[d] + s * w;
            let (upper, lower) = values.split_at_mut(offsets[d + 1]);
            let parents = &mut upper[plo..plo + w];
            let children = &mut lower[s * w * k..(s + 1) * w * k];
            zero_level(parents, children, k, true);
        }
        let leaf_w = self.shape.leaves() / slabs;
        let leaf_lo = offsets[height - 1] + s * leaf_w;
        for v in &mut values[leaf_lo..leaf_lo + leaf_w] {
            *v = round_nonneg(*v);
        }
    }

    /// [`Self::infer`] through the plain untiled level sweeps — the memory
    /// order the tiled path is tested against. Arithmetic per node is
    /// identical, so the output matches [`Self::infer`] bit for bit; this
    /// exists so the equivalence tests can pin exactly that.
    pub fn infer_untiled(&self, noisy: &[f64]) -> Vec<f64> {
        let n = self.shape.nodes();
        assert_eq!(noisy.len(), n, "noisy vector must cover the tree");
        let height = self.shape.height();
        let first_leaf = self.shape.first_leaf();
        let mut z = vec![0.0f64; n];
        let mut out = vec![0.0f64; n];
        z[first_leaf..].copy_from_slice(&noisy[first_leaf..]);
        self.upward_levels(noisy, &mut z, 0..height - 1);
        out[0] = z[0];
        self.downward_levels(&z, &mut out, 0..height - 1);
        out
    }

    /// Bottom-up pass: fills the internal-node prefix of `z` (pre-sized to
    /// `nodes()`), slab-tiled. The leaf level of `z` is never written: the
    /// deepest kernels read their children straight from `noisy` (leaf `z`
    /// equals leaf `h̃` by definition), saving a full leaf-level copy.
    fn upward(&self, noisy: &[f64], z: &mut [f64]) {
        let cut = self.tile_cut();
        for s in 0..self.shape.level_width(cut) {
            self.upward_slab(s, cut, noisy, z);
        }
        self.upward_levels(noisy, z, 0..cut);
    }

    /// Top-down pass: fills `out` (pre-sized to `nodes()`) from `z` (and
    /// `noisy` for the leaf level — see [`Self::upward`]), slab-tiled.
    fn downward(&self, noisy: &[f64], z: &[f64], out: &mut [f64]) {
        if self.shape.height() == 1 {
            out[0] = noisy[0];
            return;
        }
        let cut = self.tile_cut();
        out[0] = z[0];
        self.downward_levels(z, out, 0..cut);
        for s in 0..self.shape.level_width(cut) {
            self.downward_slab(s, cut, noisy, z, out);
        }
    }

    /// Bottom-up sweep over slab `s` rooted at depth `cut`: computes `z` up
    /// to (and including) the slab root, touching only the slab's contiguous
    /// per-level slices (leaf children come from `noisy` directly).
    fn upward_slab(&self, s: usize, cut: usize, noisy: &[f64], z: &mut [f64]) {
        let height = self.shape.height();
        let offsets = self.shape.level_offsets();
        let k = self.shape.branching();
        let slabs = self.shape.level_width(cut);
        for d in (cut..height.saturating_sub(1)).rev() {
            let w = self.shape.level_width(d) / slabs;
            let plo = offsets[d] + s * w;
            let clo = offsets[d + 1] + s * w * k;
            if d + 1 == height - 1 {
                let parents = &mut z[plo..plo + w];
                let children = &noisy[clo..clo + w * k];
                self.up_kernel(d, parents, &noisy[plo..plo + w], children, k);
            } else {
                let (upper, lower) = z.split_at_mut(offsets[d + 1]);
                let parents = &mut upper[plo..plo + w];
                let children = &lower[s * w * k..(s + 1) * w * k];
                self.up_kernel(d, parents, &noisy[plo..plo + w], children, k);
            }
        }
    }

    /// Top-down sweep over slab `s` rooted at depth `cut` (whose `out` value
    /// must already be seeded).
    fn downward_slab(&self, s: usize, cut: usize, noisy: &[f64], z: &[f64], out: &mut [f64]) {
        let height = self.shape.height();
        let offsets = self.shape.level_offsets();
        let k = self.shape.branching();
        let slabs = self.shape.level_width(cut);
        for d in cut..height - 1 {
            let w = self.shape.level_width(d) / slabs;
            let plo = offsets[d] + s * w;
            let child_lo = offsets[d + 1] + s * w * k;
            let group_z = if d + 1 == height - 1 {
                &noisy[child_lo..child_lo + w * k]
            } else {
                &z[child_lo..child_lo + w * k]
            };
            let (upper, lower) = out.split_at_mut(offsets[d + 1]);
            let parents = &upper[plo..plo + w];
            let children = &mut lower[s * w * k..(s + 1) * w * k];
            self.down_kernel(d, children, parents, group_z, k);
        }
    }

    /// Plain bottom-up level sweeps: computes parents for each depth in
    /// `depths.rev()` from the already-valid level below.
    fn upward_levels(&self, noisy: &[f64], z: &mut [f64], depths: core::ops::Range<usize>) {
        let offsets = self.shape.level_offsets();
        let k = self.shape.branching();
        for d in depths.rev() {
            let (lo, hi) = (offsets[d], offsets[d + 1]);
            let (upper, lower) = z.split_at_mut(hi);
            let parents = &mut upper[lo..];
            let children = &lower[..(hi - lo) * k];
            self.up_kernel(d, parents, &noisy[lo..hi], children, k);
        }
    }

    /// Plain top-down level sweeps: fills the children of each depth in
    /// `depths` (the parents must already be valid).
    fn downward_levels(&self, z: &[f64], out: &mut [f64], depths: core::ops::Range<usize>) {
        let offsets = self.shape.level_offsets();
        let k = self.shape.branching();
        for d in depths {
            let (lo, hi) = (offsets[d], offsets[d + 1]);
            let (upper, lower) = out.split_at_mut(hi);
            let parents = &upper[lo..];
            let children = &mut lower[..(hi - lo) * k];
            self.down_kernel(d, children, parents, &z[hi..hi + (hi - lo) * k], k);
        }
    }

    /// Dispatches the bottom-up kernel for depth `d`.
    #[inline]
    fn up_kernel(&self, d: usize, parents: &mut [f64], own_in: &[f64], children: &[f64], k: usize) {
        match &self.weights {
            Weights::Uniform { up_own, up_child } => {
                up_level_uniform(parents, own_in, children, k, up_own[d], up_child[d]);
            }
            Weights::Weighted { w_own, w_succ, .. } => {
                up_level_weighted(parents, own_in, children, k, w_own[d], w_succ[d]);
            }
        }
    }

    /// Dispatches the top-down kernel for depth `d` (filling depth `d + 1`).
    #[inline]
    fn down_kernel(
        &self,
        d: usize,
        children_out: &mut [f64],
        parents: &[f64],
        group_z: &[f64],
        k: usize,
    ) {
        match &self.weights {
            Weights::Uniform { .. } => {
                down_level_uniform(children_out, parents, group_z, k, k as f64);
            }
            Weights::Weighted { down_ratio, .. } => {
                down_level_weighted(children_out, parents, group_z, k, down_ratio[d + 1]);
            }
        }
    }

    /// The Sec. 4.2 non-negativity heuristic as a top-down level sweep:
    /// zeroes every subtree whose root value is ≤ 0, in place.
    ///
    /// Bit-identical to [`crate::hier::enforce_nonnegativity`] (the per-node
    /// `parent()` walk, kept as the oracle) for every input: after a level
    /// has been swept, a node is zeroed **iff its value is `0.0`** — a
    /// non-zeroed node kept a value > 0, and a value ≤ 0 (including ±0.0)
    /// was zeroed — so the parent's own swept value doubles as the
    /// "parent-zeroed" flag and no flag array is needed.
    pub fn zero_subtrees_in_place(&self, values: &mut [f64]) {
        self.zero_subtrees_impl(values, false);
    }

    /// [`Self::zero_subtrees_in_place`] fused with Sec. 5.2 rounding: after
    /// the zeroing decision for a level is complete, each node is rounded to
    /// the nearest non-negative integer in the same sweep.
    ///
    /// Equivalent (bit for bit) to zeroing first and rounding every node
    /// after: a node's *pre-round* value is always the one consulted for the
    /// zeroing decisions — nodes are rounded only after their own children
    /// have been processed.
    pub fn zero_round_in_place(&self, values: &mut [f64]) {
        self.zero_subtrees_impl(values, true);
    }

    fn zero_subtrees_impl(&self, values: &mut [f64], round: bool) {
        let height = self.shape.height();
        assert_eq!(
            values.len(),
            self.shape.nodes(),
            "value vector must cover the tree"
        );
        if values[0] <= 0.0 {
            values[0] = 0.0;
        }
        self.zero_levels(values, 0..height - 1, round);
        if round {
            let first_leaf = self.shape.first_leaf();
            for v in &mut values[first_leaf..] {
                *v = round_nonneg(*v);
            }
        }
    }

    /// Theorem 3 with the tree split across scoped-thread workers pulling
    /// subtrees from an atomic work queue.
    ///
    /// The tree is cut at the shallowest depth that yields at least
    /// `4 × threads` independent subtrees (so a binary tree keeps every core
    /// busy — the old split was one worker per *root* subtree, capping
    /// fan-out at k). Each worker owns one subtree's per-level slices at a
    /// time, so the arithmetic (and therefore the output, bit for bit) is
    /// identical to [`infer`](Self::infer); only the sweep order across
    /// *independent* subtrees changes. `threads` is a cap (overridable via
    /// `HC_THREADS`, see [`effective_threads`]); trees of height < 3 or an
    /// effective cap of ≤ 1 fall back to the serial path.
    pub fn infer_parallel(&self, noisy: &[f64], threads: usize) -> Vec<f64> {
        let mut z = Vec::new();
        let mut out = Vec::new();
        self.infer_parallel_into(noisy, &mut z, &mut out, threads);
        out
    }

    /// [`infer_parallel`](Self::infer_parallel) into caller-owned buffers.
    pub fn infer_parallel_into(
        &self,
        noisy: &[f64],
        z: &mut Vec<f64>,
        out: &mut Vec<f64>,
        threads: usize,
    ) {
        let threads = effective_threads(threads);
        let height = self.shape.height();
        if threads <= 1 || height < 3 {
            self.infer_into(noisy, z, out);
            return;
        }
        let n = self.shape.nodes();
        assert_eq!(noisy.len(), n, "noisy vector must cover the tree");
        z.resize(n, 0.0);
        out.resize(n, 0.0);

        let offsets = self.shape.level_offsets();
        // Cut deep enough for ≥ 4 subtrees per worker; never below the
        // second-to-last level (a subtree needs at least two levels).
        let split = (1..=height - 2)
            .find(|&d| self.shape.level_width(d) >= 4 * threads)
            .unwrap_or(height - 2);
        let slabs = self.shape.level_width(split);
        let workers = threads.min(slabs);

        // Phase 1: bottom-up within each subtree rooted at depth `split`
        // (disjoint z slices, claimed from an atomic queue).
        run_subtree_jobs(
            split_at_depth(&mut z[offsets[split]..], offsets, split, slabs),
            workers,
            |s, levels| self.upward_subtree(s, split, levels, noisy),
        );

        // Serial top: z above the cut, then h̄ down to the cut (cheap — at
        // most 4·threads·k/(k−1) nodes).
        self.upward_levels(noisy, z, 0..split);
        out[0] = z[0];
        self.downward_levels(z, out, 0..split);

        // Phase 2: top-down within each subtree (z is now read-only).
        let z_ro = &z[..];
        run_subtree_jobs(
            split_at_depth(&mut out[offsets[split]..], offsets, split, slabs),
            workers,
            |s, levels| self.downward_subtree(s, split, levels, noisy, z_ro),
        );
    }

    /// Bottom-up pass over subtree `s` rooted at depth `split`; `levels[j]`
    /// is its z slice at depth `split + j` (leaf children are read straight
    /// from `noisy` — see [`Self::upward`]).
    fn upward_subtree(&self, s: usize, split: usize, levels: &mut [&mut [f64]], noisy: &[f64]) {
        let height = self.shape.height();
        let offsets = self.shape.level_offsets();
        let k = self.shape.branching();
        let slabs = self.shape.level_width(split);
        let leaf_depth = height - 1;
        for d in (split..leaf_depth).rev() {
            let w = self.shape.level_width(d) / slabs;
            let plo = offsets[d] + s * w;
            if d + 1 == leaf_depth {
                let clo = offsets[d + 1] + s * w * k;
                let children = &noisy[clo..clo + w * k];
                self.up_kernel(d, levels[d - split], &noisy[plo..plo + w], children, k);
            } else {
                let (lower, upper) = levels.split_at_mut(d - split + 1);
                let parents = &mut lower[d - split];
                let children = &upper[0];
                self.up_kernel(d, parents, &noisy[plo..plo + w], children, k);
            }
        }
    }

    /// Top-down pass over subtree `s` rooted at depth `split`; `levels[j]`
    /// is its h̄ slice at depth `split + j` (the subtree root's h̄ must
    /// already be seeded).
    fn downward_subtree(
        &self,
        s: usize,
        split: usize,
        levels: &mut [&mut [f64]],
        noisy: &[f64],
        z: &[f64],
    ) {
        let height = self.shape.height();
        let offsets = self.shape.level_offsets();
        let k = self.shape.branching();
        let slabs = self.shape.level_width(split);
        for d in split..height - 1 {
            let w = self.shape.level_width(d) / slabs;
            let child_lo = offsets[d + 1] + s * w * k;
            let group_z = if d + 1 == height - 1 {
                &noisy[child_lo..child_lo + w * k]
            } else {
                &z[child_lo..child_lo + w * k]
            };
            let (lower, upper) = levels.split_at_mut(d - split + 1);
            let parents = &lower[d - split];
            let children = &mut upper[0];
            self.down_kernel(d, children, parents, group_z, k);
        }
    }
}

/// Splits `buf` (the node vector from `offsets[split]` on) into the
/// `slabs` subtrees rooted at depth `split`, each as a vector of per-level
/// slices: `result[s][j]` covers depth `split + j` of subtree `s`. The
/// disjointness lets scoped workers mutate their subtree without locks.
fn split_at_depth<'a>(
    mut buf: &'a mut [f64],
    offsets: &[usize],
    split: usize,
    slabs: usize,
) -> Vec<Vec<&'a mut [f64]>> {
    let height = offsets.len() - 1;
    let mut per: Vec<Vec<&'a mut [f64]>> = (0..slabs)
        .map(|_| Vec::with_capacity(height - split))
        .collect();
    for d in split..height {
        let width = offsets[d + 1] - offsets[d];
        let (mut level, rest) = buf.split_at_mut(width);
        buf = rest;
        let chunk = width / slabs;
        for sub in per.iter_mut() {
            let (c, remainder) = level.split_at_mut(chunk);
            sub.push(c);
            level = remainder;
        }
    }
    per
}

/// One claimed-once work item of the splittable queue: a subtree index plus
/// its per-level mutable slices, behind a mutex so the `&mut` slices can be
/// handed across scoped threads without unsafe code.
type SubtreeJob<'a> = Mutex<Option<(usize, Vec<&'a mut [f64]>)>>;

/// Runs `body` over every subtree slice-set with `workers` scoped threads
/// pulling indices from an atomic counter — the splittable work queue. Each
/// job is claimed exactly once (the per-job mutex is never contended).
fn run_subtree_jobs<F>(subtrees: Vec<Vec<&mut [f64]>>, workers: usize, body: F)
where
    F: Fn(usize, &mut [&mut [f64]]) + Sync,
{
    let jobs: Vec<SubtreeJob<'_>> = subtrees
        .into_iter()
        .enumerate()
        .map(|(s, levels)| Mutex::new(Some((s, levels))))
        .collect();
    let next = AtomicUsize::new(0);
    let body = &body;
    let jobs = &jobs;
    let next = &next;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let (s, mut levels) = jobs[i]
                    .lock()
                    .expect("job mutex never poisoned")
                    .take()
                    .expect("each job claimed exactly once");
                body(s, &mut levels);
            });
        }
    });
}

/// Reusable inference executor: one set of scratch buffers, many trials.
///
/// After the first call every `infer_*` and `release_and_infer*` method is
/// allocation-free (buffers are recycled at their high-water mark), which is
/// what the experiment loops need — thousands of trials over one shape.
#[derive(Debug, Clone)]
pub struct BatchInference {
    tree: LevelTree,
    z: Vec<f64>,
    noisy: Vec<f64>,
}

impl BatchInference {
    /// Wraps a compiled tree.
    pub fn new(tree: LevelTree) -> Self {
        Self {
            tree,
            z: Vec::new(),
            noisy: Vec::new(),
        }
    }

    /// Compiles uniform Theorem-3 tables for `shape` and wraps them.
    pub fn for_shape(shape: &TreeShape) -> Self {
        Self::new(LevelTree::new(shape))
    }

    /// The compiled tables.
    pub fn tree(&self) -> &LevelTree {
        &self.tree
    }

    /// Recompiles (uniform weights) if `shape` differs from the current one.
    ///
    /// This is the hook for trial loops that sweep shapes: pay O(height)
    /// only when the shape actually changes, keep the scratch either way.
    pub fn ensure_shape(&mut self, shape: &TreeShape) {
        if self.tree.shape() != shape || !self.tree.is_uniform() {
            self.tree = LevelTree::new(shape);
        }
    }

    /// Recompiles the per-level GLS tables if `shape` or the variances
    /// differ from the current compilation — the weighted counterpart of
    /// [`Self::ensure_shape`], used by the budgeted pipeline's trial loops.
    pub fn ensure_level_variances(&mut self, shape: &TreeShape, level_variances: &[f64]) {
        let current = self.tree.shape() == shape
            && self
                .tree
                .level_variances()
                .is_some_and(|v| v == level_variances);
        if !current {
            self.tree = LevelTree::with_level_variances(shape, level_variances);
        }
    }

    /// One inference, reusing internal scratch; allocates only the result.
    pub fn infer(&mut self, noisy: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.infer_into(noisy, &mut out);
        out
    }

    /// One inference into a caller-owned output buffer (zero allocations
    /// once `out` and the scratch have warmed up).
    pub fn infer_into(&mut self, noisy: &[f64], out: &mut Vec<f64>) {
        let mut z = std::mem::take(&mut self.z);
        self.tree.infer_into(noisy, &mut z, out);
        self.z = z;
    }

    /// One full trial — evaluate the prepared query, perturb with Laplace
    /// noise, run both Theorem-3 passes — into `out`, with zero heap
    /// allocations after warm-up (the noisy vector lives in engine scratch;
    /// no `NoisyOutput`, no label, no release wrapper).
    ///
    /// Bit-identical to releasing through
    /// [`hc_mech::LaplaceMechanism::release`] and inferring the result at
    /// the same RNG state — `tests/engine_equivalence.rs` pins this.
    pub fn release_and_infer<Q: QuerySequence, R: Rng + ?Sized>(
        &mut self,
        prepared: &PreparedMechanism<Q>,
        histogram: &Histogram,
        rng: &mut R,
        out: &mut Vec<f64>,
    ) {
        self.fused_trial_into(prepared, histogram, rng, false, out);
    }

    /// [`Self::release_and_infer`] plus the Sec. 4.2 subtree zeroing and
    /// Sec. 5.2 non-negative-integer rounding, fused into the downward
    /// slabs ([`LevelTree::infer_zero_round_into`]) — the complete `H̄`
    /// experiment trial, allocation-free after warm-up.
    pub fn release_and_infer_rounded<Q: QuerySequence, R: Rng + ?Sized>(
        &mut self,
        prepared: &PreparedMechanism<Q>,
        histogram: &Histogram,
        rng: &mut R,
        out: &mut Vec<f64>,
    ) {
        self.fused_trial_into(prepared, histogram, rng, true, out);
    }

    /// [`LevelTree::fused_trial`] through the engine's scratch buffers.
    fn fused_trial_into<Q: QuerySequence, R: Rng + ?Sized>(
        &mut self,
        prepared: &PreparedMechanism<Q>,
        histogram: &Histogram,
        rng: &mut R,
        rounded: bool,
        out: &mut Vec<f64>,
    ) {
        let mut noisy = std::mem::take(&mut self.noisy);
        let mut z = std::mem::take(&mut self.z);
        let n = self.tree.nodes();
        noisy.resize(n, 0.0);
        out.resize(n, 0.0);
        self.tree
            .fused_trial(prepared, histogram, rng, rounded, &mut noisy, &mut z, out);
        self.noisy = noisy;
        self.z = z;
    }

    /// A whole batch of fused trials, serial: trial `t` runs the complete
    /// release→inference pipeline with its own RNG `seeds.rng(t)`, writing
    /// its inferred (if `rounded`, zeroed-and-rounded) tree into
    /// `out_batch[t·n .. (t+1)·n]` — and, when `noisy_batch` is `Some`, its
    /// noisy release into the same slice of that buffer. Trial `t` is
    /// bit-identical to [`Self::release_and_infer`] (or `_rounded`) run
    /// alone with `seeds.rng(t)` — the per-trial seeding makes every trial
    /// independent of batch size and position.
    ///
    /// Keeping the noisy release per trial is what the Fig. 6-style
    /// experiment loops need: `H̃` answers come from the release, `H̄`
    /// answers from the inferred tree, one fused pipeline pass for both.
    /// Callers that only consume the inference (e.g. the non-negativity
    /// ablation) pass `None` and skip the batch's memory and copies.
    #[allow(clippy::too_many_arguments)]
    pub fn release_and_infer_batch<Q: QuerySequence>(
        &mut self,
        prepared: &PreparedMechanism<Q>,
        histogram: &Histogram,
        seeds: SeedStream,
        trials: usize,
        rounded: bool,
        mut noisy_batch: Option<&mut Vec<f64>>,
        out_batch: &mut Vec<f64>,
    ) {
        let n = self.tree.nodes();
        if let Some(nb) = noisy_batch.as_deref_mut() {
            nb.resize(trials * n, 0.0);
        }
        out_batch.resize(trials * n, 0.0);
        let mut noisy = std::mem::take(&mut self.noisy);
        let mut z = std::mem::take(&mut self.z);
        noisy.resize(n, 0.0);
        for (t, out_chunk) in out_batch.chunks_exact_mut(n).enumerate() {
            let mut rng = seeds.rng(t as u64);
            // With a noisy batch the release is written in place — each
            // trial's segment *is* the working buffer, no scratch copy.
            let noisy_slot: &mut [f64] = match noisy_batch.as_deref_mut() {
                Some(nb) => &mut nb[t * n..(t + 1) * n],
                None => &mut noisy,
            };
            self.tree.fused_trial(
                prepared, histogram, &mut rng, rounded, noisy_slot, &mut z, out_chunk,
            );
        }
        self.noisy = noisy;
        self.z = z;
    }

    /// [`Self::release_and_infer_batch`] with trials split across
    /// scoped-thread workers — the full pipeline (evaluate, Laplace draws,
    /// both Theorem-3 passes, optional zeroing/rounding) scaled by trial,
    /// not just the inference step.
    ///
    /// Like `hc-bench`'s `run_trials_with`: each worker owns one set of
    /// per-worker scratch (engine buffers, amortized over its share of
    /// trials) and trials are claimed from an atomic work queue, but every
    /// trial's randomness comes only from `seeds.rng(t)` — so the output is
    /// bit-identical to the serial batch (and to `trials` standalone
    /// `release_and_infer*` calls) for any thread count or scheduling, per
    /// backend. `threads` is a cap, overridable via the `HC_THREADS`
    /// environment variable ([`effective_threads`]).
    #[allow(clippy::too_many_arguments)]
    pub fn release_and_infer_batch_parallel<Q: QuerySequence + Sync>(
        &mut self,
        prepared: &PreparedMechanism<Q>,
        histogram: &Histogram,
        seeds: SeedStream,
        trials: usize,
        rounded: bool,
        threads: usize,
        noisy_batch: Option<&mut Vec<f64>>,
        out_batch: &mut Vec<f64>,
    ) {
        let workers = effective_threads(threads).max(1).min(trials.max(1));
        if workers <= 1 {
            self.release_and_infer_batch(
                prepared,
                histogram,
                seeds,
                trials,
                rounded,
                noisy_batch,
                out_batch,
            );
            return;
        }
        let n = self.tree.nodes();
        out_batch.resize(trials * n, 0.0);
        let noisy_chunks: Vec<Option<&mut [f64]>> = match noisy_batch {
            Some(nb) => {
                nb.resize(trials * n, 0.0);
                nb.chunks_exact_mut(n).map(Some).collect()
            }
            None => (0..trials).map(|_| None).collect(),
        };
        // One claimed-once job per trial: its disjoint (noisy, out) slices
        // behind a mutex so the `&mut` slices cross the scope without
        // unsafe code (the same shape as the subtree work queue).
        type TrialJob<'a> = Mutex<Option<(Option<&'a mut [f64]>, &'a mut [f64])>>;
        let jobs: Vec<TrialJob<'_>> = noisy_chunks
            .into_iter()
            .zip(out_batch.chunks_exact_mut(n))
            .map(|(noisy_chunk, out_chunk)| Mutex::new(Some((noisy_chunk, out_chunk))))
            .collect();
        let next = AtomicUsize::new(0);
        let tree = &self.tree;
        let jobs = &jobs;
        let next = &next;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(move || {
                    // Scratch only materializes when a trial has no batch
                    // segment to release into (noisy_batch = None).
                    let mut noisy = Vec::new();
                    let mut z = Vec::new();
                    loop {
                        let t = next.fetch_add(1, Ordering::Relaxed);
                        if t >= jobs.len() {
                            break;
                        }
                        let (noisy_chunk, out_chunk) = jobs[t]
                            .lock()
                            .expect("job mutex never poisoned")
                            .take()
                            .expect("each trial claimed exactly once");
                        let mut rng = seeds.rng(t as u64);
                        // The trial's batch segment doubles as the working
                        // noisy buffer — the release is written in place,
                        // retiring the old per-trial scratch→batch memcpy.
                        let noisy_slot: &mut [f64] = match noisy_chunk {
                            Some(chunk) => chunk,
                            None => {
                                noisy.resize(n, 0.0);
                                &mut noisy
                            }
                        };
                        tree.fused_trial(
                            prepared, histogram, &mut rng, rounded, noisy_slot, &mut z, out_chunk,
                        );
                    }
                });
            }
        });
    }

    /// [`LevelTree::infer_zero_round_into`] through the engine's reusable
    /// scratch — the complete `H̄` post-processing, allocation-free after
    /// warm-up, bit-identical to `infer_into` + `zero_round_in_place`.
    pub fn infer_zero_round_into(&mut self, noisy: &[f64], out: &mut Vec<f64>) {
        let mut z = std::mem::take(&mut self.z);
        self.tree.infer_zero_round_into(noisy, &mut z, out);
        self.z = z;
    }

    /// Batched inference: `noisy_batch` is `trials` node vectors
    /// concatenated; the result has the same layout. Bit-identical to
    /// running the trials one by one.
    pub fn infer_batch(&mut self, noisy_batch: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.infer_batch_into(noisy_batch, &mut out);
        out
    }

    /// [`infer_batch`](Self::infer_batch) into a caller-owned buffer.
    pub fn infer_batch_into(&mut self, noisy_batch: &[f64], out: &mut Vec<f64>) {
        let n = self.tree.nodes();
        assert!(
            n > 0 && noisy_batch.len() % n == 0,
            "batch length {} is not a multiple of the node count {n}",
            noisy_batch.len()
        );
        out.resize(noisy_batch.len(), 0.0);
        let mut z = std::mem::take(&mut self.z);
        z.resize(n, 0.0);
        for (noisy, h) in noisy_batch.chunks_exact(n).zip(out.chunks_exact_mut(n)) {
            self.tree.upward(noisy, &mut z);
            self.tree.downward(noisy, &z, h);
        }
        self.z = z;
    }

    /// Batched inference with trials split across scoped-thread workers —
    /// the shape the Fig. 5–7 protocol wants (many independent trials, one
    /// shape). Bit-identical to [`infer_batch`](Self::infer_batch); each
    /// worker carries its own scratch, allocated once per call and amortized
    /// over its share of trials. `threads` honours the `HC_THREADS`
    /// override ([`effective_threads`]).
    pub fn infer_batch_parallel(&mut self, noisy_batch: &[f64], threads: usize) -> Vec<f64> {
        let n = self.tree.nodes();
        assert!(
            n > 0 && noisy_batch.len() % n == 0,
            "batch length {} is not a multiple of the node count {n}",
            noisy_batch.len()
        );
        let trials = noisy_batch.len() / n;
        let workers = effective_threads(threads).max(1).min(trials.max(1));
        if workers <= 1 {
            let mut out = Vec::new();
            self.infer_batch_into(noisy_batch, &mut out);
            return out;
        }
        let mut out = vec![0.0f64; noisy_batch.len()];
        let per = trials.div_ceil(workers);
        std::thread::scope(|scope| {
            for (in_chunk, out_chunk) in noisy_batch.chunks(per * n).zip(out.chunks_mut(per * n)) {
                let tree = &self.tree;
                scope.spawn(move || {
                    let mut z = vec![0.0f64; n];
                    for (noisy, h) in in_chunk.chunks_exact(n).zip(out_chunk.chunks_exact_mut(n)) {
                        tree.upward(noisy, &mut z);
                        tree.downward(noisy, &z, h);
                    }
                });
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hier::{enforce_nonnegativity, hierarchical_inference};
    use hc_noise::rng_from_seed;
    use hc_testutil::assert_close;
    use rand::Rng;

    fn random_noisy(shape: &TreeShape, seed: u64) -> Vec<f64> {
        let mut rng = rng_from_seed(seed);
        (0..shape.nodes())
            .map(|_| rng.random_range(-25.0..60.0))
            .collect()
    }

    #[test]
    fn engine_is_bit_identical_to_reference_on_uniform_weights() {
        for (k, height, seed) in [
            (2usize, 1usize, 11u64),
            (2, 3, 12),
            (2, 7, 13),
            (3, 4, 14),
            (5, 3, 15),
        ] {
            let shape = TreeShape::new(k, height);
            let noisy = random_noisy(&shape, seed);
            let reference = hierarchical_inference(&shape, &noisy);
            let engine = LevelTree::new(&shape).infer(&noisy);
            assert_eq!(engine, reference, "k={k} ℓ={height}");
        }
    }

    #[test]
    fn engine_matches_fig2_worked_example() {
        let shape = TreeShape::new(2, 3);
        let noisy = [13.0, 3.0, 11.0, 4.0, 1.0, 12.0, 1.0];
        let h = LevelTree::new(&shape).infer(&noisy);
        assert_close(&h, &[14.0, 3.0, 11.0, 3.0, 0.0, 11.0, 0.0], 1e-12);
    }

    #[test]
    fn tiled_matches_untiled_bit_for_bit() {
        for (k, height, seed) in [
            (2usize, 1usize, 16u64),
            (2, 6, 17),
            (2, 16, 18), // forces multiple slabs (2^15 leaves > TILE_LEAVES)
            (3, 10, 19),
            (4, 8, 20),
            (8193, 2, 24), // branching > TILE_LEAVES: slab must keep the leaf step
            (1000, 3, 25), // wide levels push the cut to exactly height − 2
        ] {
            let shape = TreeShape::new(k, height);
            let noisy = random_noisy(&shape, seed);
            let tree = LevelTree::new(&shape);
            assert_eq!(
                tree.infer(&noisy),
                tree.infer_untiled(&noisy),
                "k={k} ℓ={height}"
            );
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        for (k, height, seed) in [(2usize, 6usize, 21u64), (3, 5, 22), (4, 4, 23)] {
            let shape = TreeShape::new(k, height);
            let noisy = random_noisy(&shape, seed);
            let tree = LevelTree::new(&shape);
            let serial = tree.infer(&noisy);
            for threads in [2, 4, 8] {
                assert_eq!(tree.infer_parallel(&noisy, threads), serial);
            }
        }
    }

    #[test]
    fn batch_is_bit_identical_to_singles() {
        let shape = TreeShape::new(2, 5);
        let tree = LevelTree::new(&shape);
        let n = shape.nodes();
        let trials = 7;
        let mut batch = Vec::with_capacity(trials * n);
        let mut singles = Vec::with_capacity(trials * n);
        for t in 0..trials {
            let noisy = random_noisy(&shape, 31 + t as u64);
            singles.extend(tree.infer(&noisy));
            batch.extend(noisy);
        }
        let mut engine = BatchInference::new(tree);
        assert_eq!(engine.infer_batch(&batch), singles);
        assert_eq!(engine.infer_batch_parallel(&batch, 3), singles);
    }

    #[test]
    fn scratch_reuse_across_shapes_stays_correct() {
        let mut engine = BatchInference::for_shape(&TreeShape::new(2, 4));
        for (k, height, seed) in [(2usize, 4usize, 41u64), (3, 3, 42), (2, 6, 43)] {
            let shape = TreeShape::new(k, height);
            engine.ensure_shape(&shape);
            let noisy = random_noisy(&shape, seed);
            assert_eq!(engine.infer(&noisy), hierarchical_inference(&shape, &noisy));
        }
    }

    #[test]
    fn weighted_tables_match_weighted_reference() {
        use crate::weighted::weighted_hierarchical_inference;
        for (k, height, seed) in [(2usize, 4usize, 51u64), (3, 3, 52), (2, 6, 53)] {
            let shape = TreeShape::new(k, height);
            let mut rng = rng_from_seed(seed);
            let noisy = random_noisy(&shape, seed ^ 0xF0);
            let level_vars: Vec<f64> = (0..height).map(|_| rng.random_range(0.2..9.0)).collect();
            let mut per_node = vec![0.0f64; shape.nodes()];
            for (d, &var) in level_vars.iter().enumerate() {
                for v in shape.level(d) {
                    per_node[v] = var;
                }
            }
            let reference = weighted_hierarchical_inference(&shape, &noisy, &per_node);
            let tree = LevelTree::with_level_variances(&shape, &level_vars);
            assert_eq!(tree.infer(&noisy), reference, "k={k} ℓ={height}");
            assert_eq!(tree.infer_parallel(&noisy, 4), reference);
            assert_eq!(tree.infer_untiled(&noisy), reference);
        }
    }

    #[test]
    fn single_node_tree_passes_through() {
        let shape = TreeShape::new(2, 1);
        let tree = LevelTree::new(&shape);
        assert_eq!(tree.infer(&[7.25]), vec![7.25]);
        assert_eq!(tree.infer_parallel(&[7.25], 8), vec![7.25]);
    }

    #[test]
    #[should_panic(expected = "multiple of the node count")]
    fn batch_length_is_checked() {
        let mut engine = BatchInference::for_shape(&TreeShape::new(2, 3));
        let _ = engine.infer_batch(&[0.0; 10]);
    }

    #[test]
    fn zeroing_sweep_matches_reference_walk() {
        for (k, height, seed) in [
            (2usize, 1usize, 61u64),
            (2, 4, 62),
            (2, 7, 63),
            (3, 4, 64),
            (5, 3, 65),
        ] {
            let shape = TreeShape::new(k, height);
            let mut rng = rng_from_seed(seed);
            // Straddle zero so subtree zeroing actually fires.
            let values: Vec<f64> = (0..shape.nodes())
                .map(|_| rng.random_range(-4.0..4.0))
                .collect();
            let reference = enforce_nonnegativity(&shape, &values);
            let tree = LevelTree::new(&shape);
            let mut engine = values.clone();
            tree.zero_subtrees_in_place(&mut engine);
            assert_eq!(engine, reference, "k={k} ℓ={height}");
        }
    }

    #[test]
    fn zeroing_pins_the_boundary_cases() {
        // The `<= 0.0` boundary: exact 0.0 and -0.0 zero their subtrees, and
        // a zeroed parent cascades through positive descendants.
        let shape = TreeShape::new(2, 3);
        let tree = LevelTree::new(&shape);
        for values in [
            [6.0, 0.0, 7.0, 2.0, 5.0, 4.0, 3.0],  // exact zero at node 1
            [6.0, -0.0, 7.0, 2.0, 5.0, 4.0, 3.0], // negative zero at node 1
            [-1.0, 3.0, 7.0, 2.0, 5.0, 4.0, 3.0], // zeroed root cascades
        ] {
            let reference = enforce_nonnegativity(&shape, &values);
            let mut engine = values;
            tree.zero_subtrees_in_place(&mut engine);
            assert_eq!(&engine[..], &reference[..], "input {values:?}");
        }
        // Node 1 subtree fully zeroed in the first two cases.
        let mut engine = [6.0, 0.0, 7.0, 2.0, 5.0, 4.0, 3.0];
        tree.zero_subtrees_in_place(&mut engine);
        assert_eq!(&engine[1..5], &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn fused_zero_round_matches_zero_then_round() {
        for (k, height, seed) in [(2usize, 5usize, 71u64), (3, 4, 72), (2, 8, 73)] {
            let shape = TreeShape::new(k, height);
            let mut rng = rng_from_seed(seed);
            let values: Vec<f64> = (0..shape.nodes())
                .map(|_| rng.random_range(-3.0..3.0))
                .collect();
            let tree = LevelTree::new(&shape);
            let mut split_path = values.clone();
            tree.zero_subtrees_in_place(&mut split_path);
            for v in &mut split_path {
                *v = v.round().max(0.0);
            }
            let mut fused = values.clone();
            tree.zero_round_in_place(&mut fused);
            assert_eq!(fused, split_path, "k={k} ℓ={height}");
        }
    }

    #[test]
    fn slab_fused_infer_zero_round_matches_separate_passes() {
        // The whole-trial fusion (downward slabs + zero/round while hot)
        // against infer + zero_round_in_place, across tile regimes: single
        // slab, slab boundary, many slabs, non-binary, single node.
        for (k, height, seed) in [
            (2usize, 1usize, 74u64),
            (2, 5, 75),
            (2, 14, 76),
            (2, 16, 77), // 2^15 leaves: multiple slabs
            (3, 9, 78),
            (5, 6, 79),
        ] {
            let shape = TreeShape::new(k, height);
            let mut rng = rng_from_seed(seed);
            let noisy: Vec<f64> = (0..shape.nodes())
                .map(|_| rng.random_range(-3.0..3.0))
                .collect();
            let tree = LevelTree::new(&shape);
            let mut separate = tree.infer(&noisy);
            tree.zero_round_in_place(&mut separate);
            let (mut z, mut fused) = (Vec::new(), Vec::new());
            tree.infer_zero_round_into(&noisy, &mut z, &mut fused);
            assert_eq!(fused, separate, "k={k} ℓ={height}");
        }
    }

    #[test]
    fn ensure_level_variances_recompiles_only_on_change() {
        let shape = TreeShape::new(2, 4);
        let vars_a = vec![1.0, 2.0, 3.0, 4.0];
        let vars_b = vec![4.0, 3.0, 2.0, 1.0];
        let mut engine = BatchInference::for_shape(&shape);
        engine.ensure_level_variances(&shape, &vars_a);
        assert_eq!(engine.tree().level_variances(), Some(&vars_a[..]));
        let noisy = random_noisy(&shape, 81);
        let a = engine.infer(&noisy);
        assert_eq!(
            a,
            LevelTree::with_level_variances(&shape, &vars_a).infer(&noisy)
        );
        engine.ensure_level_variances(&shape, &vars_b);
        let b = engine.infer(&noisy);
        assert_eq!(
            b,
            LevelTree::with_level_variances(&shape, &vars_b).infer(&noisy)
        );
        assert_ne!(a, b);
    }

    #[test]
    fn fast_round_matches_library_round_for_nonnegatives() {
        let mut cases = vec![
            0.0,
            0.25,
            0.5,
            0.49999999999999994, // largest f64 < 0.5: the naive +0.5 trick fails here
            0.5000000000000001,
            1.5,
            2.5,
            3.5,
            1e15,
            4_503_599_627_370_495.5, // just below 2^52
            4_503_599_627_370_496.0, // 2^52 exactly
            9e15,
            1e300,
            f64::INFINITY,
            f64::NAN,
        ];
        let mut rng = rng_from_seed(99);
        for _ in 0..10_000 {
            cases.push(rng.random_range(0.0..1000.0));
            cases.push(rng.random_range(0.0..10.0));
        }
        for v in cases {
            let expect = v.round().max(0.0);
            let got = round_nonneg(v);
            assert!(
                got == expect || (got.is_nan() && expect.is_nan()),
                "v = {v:?}: fast {got:?} vs library {expect:?}"
            );
            if got == expect {
                assert_eq!(got.to_bits(), expect.to_bits(), "v = {v:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "per-level GLS weights")]
    fn release_and_infer_rejects_a_gls_compiled_engine() {
        // A shared engine last used for budgeted (weighted) trials must not
        // silently run GLS kernels under the uniform release contract.
        use hc_data::Domain;
        use hc_mech::{Epsilon, HierarchicalQuery, LaplaceMechanism};
        let shape = TreeShape::new(2, 3);
        let mut engine = BatchInference::for_shape(&shape);
        engine.ensure_level_variances(&shape, &[1.0, 2.0, 3.0]);
        let histogram = Histogram::from_counts(Domain::new("x", 4).unwrap(), vec![1, 2, 3, 4]);
        let prepared = LaplaceMechanism::new(Epsilon::new(1.0).unwrap())
            .prepare(HierarchicalQuery::binary(), 4);
        let mut out = Vec::new();
        engine.release_and_infer(&prepared, &histogram, &mut rng_from_seed(1), &mut out);
    }

    #[test]
    fn batch_pipeline_matches_standalone_trials_per_backend() {
        use hc_data::Domain;
        use hc_mech::{Epsilon, HierarchicalQuery, LaplaceMechanism};
        let n = 64usize;
        let counts: Vec<u64> = (0..n as u64).map(|i| i % 9).collect();
        let histogram = Histogram::from_counts(Domain::new("x", n).unwrap(), counts);
        let shape = TreeShape::for_domain(n, 2);
        let seeds = SeedStream::new(91);
        let trials = 11;
        for backend in [NoiseBackend::Reference, NoiseBackend::FastLnWide] {
            let prepared = LaplaceMechanism::new(Epsilon::new(0.5).unwrap())
                .with_backend(backend)
                .prepare(HierarchicalQuery::binary(), n);
            for rounded in [false, true] {
                // Oracle: run each trial standalone with its own seed.
                let mut engine = BatchInference::for_shape(&shape);
                let nodes = shape.nodes();
                let mut expect_noisy = Vec::new();
                let mut expect_out = Vec::new();
                for t in 0..trials {
                    let mut rng = seeds.rng(t as u64);
                    let mut out = Vec::new();
                    if rounded {
                        engine.release_and_infer_rounded(&prepared, &histogram, &mut rng, &mut out);
                    } else {
                        engine.release_and_infer(&prepared, &histogram, &mut rng, &mut out);
                    }
                    expect_noisy.extend_from_slice(&engine.noisy[..nodes]);
                    expect_out.extend(out);
                }
                // Serial batch ≡ standalone trials.
                let (mut noisy_batch, mut out_batch) = (Vec::new(), Vec::new());
                engine.release_and_infer_batch(
                    &prepared,
                    &histogram,
                    seeds,
                    trials,
                    rounded,
                    Some(&mut noisy_batch),
                    &mut out_batch,
                );
                assert_eq!(out_batch, expect_out, "{backend:?} rounded={rounded}");
                assert_eq!(noisy_batch, expect_noisy, "{backend:?} rounded={rounded}");
                // Parallel ≡ serial for every fan-out (1 exercises the
                // serial fallback inside the parallel entry point).
                for threads in [1usize, 2, 4, 16] {
                    let (mut pn, mut po) = (Vec::new(), Vec::new());
                    engine.release_and_infer_batch_parallel(
                        &prepared,
                        &histogram,
                        seeds,
                        trials,
                        rounded,
                        threads,
                        Some(&mut pn),
                        &mut po,
                    );
                    assert_eq!(po, expect_out, "{backend:?} threads={threads}");
                    assert_eq!(pn, expect_noisy, "{backend:?} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn batch_pipeline_handles_zero_trials() {
        use hc_data::Domain;
        use hc_mech::{Epsilon, HierarchicalQuery, LaplaceMechanism};
        let histogram = Histogram::from_counts(Domain::new("x", 4).unwrap(), vec![1, 2, 3, 4]);
        let shape = TreeShape::for_domain(4, 2);
        let prepared = LaplaceMechanism::new(Epsilon::new(1.0).unwrap())
            .prepare(HierarchicalQuery::binary(), 4);
        let mut engine = BatchInference::for_shape(&shape);
        let (mut noisy, mut out) = (vec![1.0; 10], vec![2.0; 10]);
        engine.release_and_infer_batch_parallel(
            &prepared,
            &histogram,
            SeedStream::new(1),
            0,
            true,
            4,
            Some(&mut noisy),
            &mut out,
        );
        assert!(noisy.is_empty() && out.is_empty());
    }

    #[test]
    fn hc_threads_override_parsing() {
        // The env hook itself is exercised end-to-end by the smoke tests
        // (which run experiment binaries with HC_THREADS set); mutating the
        // process environment from a multithreaded test harness would race,
        // so the unit test pins the pure parsing core instead.
        assert_eq!(apply_thread_override(None, 8), 8);
        assert_eq!(apply_thread_override(Some("1"), 8), 1);
        assert_eq!(apply_thread_override(Some(" 3 "), 8), 3);
        assert_eq!(apply_thread_override(Some("0"), 8), 8);
        assert_eq!(apply_thread_override(Some("not a number"), 8), 8);
        assert_eq!(apply_thread_override(Some(""), 8), 8);
    }
}
