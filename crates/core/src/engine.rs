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
//! On top of that layout this engine adds the allocation-free pipeline:
//!
//! * **one tree buffer**, overwritten in place, `h̃ → z → h̄`. Theorem 3
//!   needs one value per node at any moment: upward, `z_v` depends only on
//!   `h̃_v` and its children's `z`; downward, a sibling group's `h̄` depends
//!   only on its parent's `h̄` and the group's own `z`. A trial runs in its
//!   output tree alone, and the publish in the engine's one buffer; the
//!   only other scratch is O(slab) (one slab's counts, the top region
//!   above the slab cut, and the publish's one-slab leaf sink). The staged
//!   entry points ([`LevelTree::infer_into`]) run the same passes with the
//!   caller's `h̃` as their input: each kernel reads a node's `h̃` (or a
//!   leaf's `z`) from it on first touch, so nothing is copied into the
//!   output first;
//! * the two sweeps are **tiled** into vertical slabs of at most 8192
//!   leaves, so a subtree's intermediate `z` values are still cache-resident
//!   when its ancestors consume them (the untiled sweeps stream every level
//!   from memory and are bandwidth-bound at large heights);
//! * the binary-tree inner loops (`own·x + child·Σ(2-window)`) are manually
//!   **4-way unrolled**, preserving the reference's floating-point
//!   expression per node so output stays bit-identical;
//! * the Sec. 4.2 non-negativity heuristic and the Sec. 5.2 rounding run as
//!   one **top-down level sweep** ([`LevelTree::zero_round_in_place`])
//!   instead of the per-node `parent()` walk of
//!   [`crate::hier::enforce_nonnegativity`] (which is kept as the oracle),
//!   exploiting the invariant that after the sweep a node is zeroed iff its
//!   value is `0.0`. One window kernel serves every fan-out, with
//!   constant-width copies for k = 2, 4, 8 and 16 that vectorize across
//!   parents;
//! * [`BatchInference::release_and_infer`] runs a whole trial — count the
//!   histogram into the tree and add Laplace noise through the
//!   preparation's [`hc_noise::NoiseBackend`], both folded into the upward
//!   slabs (the true-count vector is never built), then both Theorem-3
//!   passes and optional zeroing and rounding — in the caller's output
//!   buffer with **zero heap allocations after warm-up**
//!   (`tests/alloc_free.rs` pins this with a counting allocator, and pins
//!   that a cold trial requests one tree plus O(slab) scratch);
//! * the downward pass can send its leaves to a sink instead of the tree:
//!   [`BatchInference::release_and_infer_into_snapshot`] (the service's
//!   publish) infers each slab's leaves into a one-slab buffer and scans
//!   them into a [`ConsistentSnapshot`]'s prefix while they are still in
//!   cache, so the inferred leaf level is never materialized and the
//!   prefix keeps the serial add chain bit for bit;
//! * [`BatchInference::release_and_infer_batch_parallel`] scales that full
//!   trial across scoped-thread workers, split by trial, each trial in its
//!   own output slice with per-worker O(slab) counting scratch and
//!   per-trial [`SeedStream`] seeding — bit-identical to the
//!   serial batch for any thread count, per backend. Trials are the only
//!   unit of parallelism: a Fig. 5–7 curve is thousands of independent
//!   trials, and one tree's two linear passes stay on one core.
//!
//! The parallel batch produces bit-identical output to the serial one, and
//! the uniform path is bit-identical to the reference
//! `hierarchical_inference` (same floating-point expressions in the same
//! order) — the cross-engine equivalence tests pin this.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use hc_data::Histogram;
use hc_mech::{HierarchicalQuery, PreparedMechanism, TreeShape};
use hc_noise::SeedStream;
use rand::Rng;

use crate::snapshot::ConsistentSnapshot;

/// Leaves per vertical slab in the tiled sweeps. A binary slab of 8192
/// leaves is ≈ 16 K nodes of the one tree buffer plus its 8 K counts —
/// under 200 KiB, comfortably inside L2.
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

/// Where a kernel reads the values of the nodes it overwrites: the
/// destination itself ([`InPlace`] — the tree already holds them), or a
/// separate slice aligned with the destination (`&[f64]` — a staged
/// inference's input `h̃` on first touch, or the tree's leaf `z` feeding the
/// publish's leaf sink). Each window is read before any of it is stored, so
/// both forms evaluate the same expression per node.
trait Source: Copy {
    /// The `W` values at `at..at + W` of the destination `dst`.
    fn load<const W: usize>(self, dst: &[f64], at: usize) -> [f64; W];

    /// The value at index `i` of the destination `dst`.
    #[inline(always)]
    fn get(self, dst: &[f64], i: usize) -> f64 {
        let [v] = self.load(dst, i);
        v
    }

    /// This source narrowed to the destination's sub-slice `at..at + len`.
    fn window(self, at: usize, len: usize) -> Self;
}

/// The destination holds its own input.
#[derive(Clone, Copy)]
struct InPlace;

impl Source for InPlace {
    #[inline(always)]
    fn load<const W: usize>(self, dst: &[f64], at: usize) -> [f64; W] {
        core::array::from_fn(|j| dst[at + j])
    }

    #[inline(always)]
    fn window(self, _at: usize, _len: usize) -> Self {
        self
    }
}

impl Source for &[f64] {
    #[inline(always)]
    fn load<const W: usize>(self, _dst: &[f64], at: usize) -> [f64; W] {
        core::array::from_fn(|j| self[at + j])
    }

    #[inline(always)]
    fn window(self, at: usize, len: usize) -> Self {
        &self[at..at + len]
    }
}

/// Bottom-up kernel, uniform weights: `parents` get
/// `z_i = own·h̃_i + child·Σ children_i`, with `h̃` read from `own_in`.
///
/// The k = 2 path is 4-way unrolled; every path folds the sibling window
/// exactly like the reference (`succ` starts at `0.0` and accumulates left
/// to right), so the result is bit-identical for all inputs.
fn up_level_uniform<S: Source>(
    parents: &mut [f64],
    own_in: S,
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
            let x: [f64; 4] = own_in.load(parents, i);
            let p = &mut parents[i..i + 4];
            p[0] = own * x[0] + child * (0.0 + c[0] + c[1]);
            p[1] = own * x[1] + child * (0.0 + c[2] + c[3]);
            p[2] = own * x[2] + child * (0.0 + c[4] + c[5]);
            p[3] = own * x[3] + child * (0.0 + c[6] + c[7]);
        }
        for i in main..n {
            let x = own_in.get(parents, i);
            parents[i] = own * x + child * (0.0 + children[2 * i] + children[2 * i + 1]);
        }
    } else {
        for i in 0..parents.len() {
            let mut succ = 0.0f64;
            for c in &children[i * k..(i + 1) * k] {
                succ += c;
            }
            parents[i] = own * own_in.get(parents, i) + child * succ;
        }
    }
}

/// Bottom-up kernel, GLS weights:
/// `z_i = (wo·h̃_i + ws·Σ children_i)/(wo+ws)`, with `h̃` read from `own_in`.
fn up_level_weighted<S: Source>(
    parents: &mut [f64],
    own_in: S,
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
            let x: [f64; 4] = own_in.load(parents, i);
            let p = &mut parents[i..i + 4];
            p[0] = (wo * x[0] + ws * (0.0 + c[0] + c[1])) / (wo + ws);
            p[1] = (wo * x[1] + ws * (0.0 + c[2] + c[3])) / (wo + ws);
            p[2] = (wo * x[2] + ws * (0.0 + c[4] + c[5])) / (wo + ws);
            p[3] = (wo * x[3] + ws * (0.0 + c[6] + c[7])) / (wo + ws);
        }
        for i in main..n {
            let succ = 0.0 + children[2 * i] + children[2 * i + 1];
            parents[i] = (wo * own_in.get(parents, i) + ws * succ) / (wo + ws);
        }
    } else {
        for i in 0..parents.len() {
            let mut succ = 0.0f64;
            for c in &children[i * k..(i + 1) * k] {
                succ += c;
            }
            parents[i] = (wo * own_in.get(parents, i) + ws * succ) / (wo + ws);
        }
    }
}

/// Top-down kernel, uniform weights: each sibling window of `children` gets
/// `h̄_j = z_j + (p − Σ z)/k`, with the group's `z` read from `group_z`.
///
/// The per-child quotient `(p − Σz)/k` is hoisted out of the window loop —
/// the reference recomputes it per child, but division is exact, so the
/// value (and the output bits) are unchanged. The unrolled k = 2 path loads
/// four windows into locals before it stores any of them.
fn down_level_uniform<S: Source>(
    children: &mut [f64],
    group_z: S,
    parents: &[f64],
    k: usize,
    kf: f64,
) {
    if k == 2 {
        let n = parents.len();
        let main = n - n % 4;
        for i in (0..main).step_by(4) {
            let z: [f64; 8] = group_z.load(children, 2 * i);
            let h = &mut children[2 * i..2 * i + 8];
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
            let z: [f64; 2] = group_z.load(children, 2 * i);
            let s = (parents[i] - (0.0 + z[0] + z[1])) / kf;
            children[2 * i] = z[0] + s;
            children[2 * i + 1] = z[1] + s;
        }
    } else {
        for (i, (p, group)) in parents.iter().zip(children.chunks_exact_mut(k)).enumerate() {
            let z = group_z.window(i * k, k);
            let mut succ = 0.0f64;
            for j in 0..k {
                succ += z.get(group, j);
            }
            let share = (p - succ) / kf;
            for j in 0..k {
                group[j] = z.get(group, j) + share;
            }
        }
    }
}

/// Top-down kernel, GLS weights: `h̄_j = z_j + ratio·(p − Σ z)`, with the
/// group's `z` read from `group_z`.
fn down_level_weighted<S: Source>(
    children: &mut [f64],
    group_z: S,
    parents: &[f64],
    k: usize,
    ratio: f64,
) {
    if k == 2 {
        let n = parents.len();
        let main = n - n % 4;
        for i in (0..main).step_by(4) {
            let z: [f64; 8] = group_z.load(children, 2 * i);
            let h = &mut children[2 * i..2 * i + 8];
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
            let z: [f64; 2] = group_z.load(children, 2 * i);
            let s = ratio * (parents[i] - (0.0 + z[0] + z[1]));
            children[2 * i] = z[0] + s;
            children[2 * i + 1] = z[1] + s;
        }
    } else {
        for (i, (p, group)) in parents.iter().zip(children.chunks_exact_mut(k)).enumerate() {
            let z = group_z.window(i * k, k);
            let mut succ = 0.0f64;
            for j in 0..k {
                succ += z.get(group, j);
            }
            let adjust = ratio * (p - succ);
            for j in 0..k {
                group[j] = z.get(group, j) + adjust;
            }
        }
    }
}

/// `v.round().max(0.0)` for `v ≥ 0` (or NaN) with plain adds and compares.
///
/// At the repo's `x86-64-v3` target `f64::round` is already inline (an add
/// of `copysign(0.49999999999999994, v)` and a truncating
/// `vroundsd`/`vroundpd`). What this form still buys is the pre-AVX2
/// build: round-half-away-from-zero has no SSE2 instruction, so there
/// `f64::round` is a libm call per node, which dominated the rounding
/// sweep. For finite `0 ≤ v < 2^52` the classic magic-number trick is
/// exact: `(v + 2^52) − 2^52` rounds to the nearest *even* integer, and the
/// only inputs where half-away disagrees are exact `x.5` ties where the
/// difference `v − t` is exactly `+0.5` (tie broken downward) — bump those
/// by one. Everything else is already integral (≥ 2^52, `+∞`) or NaN, where
/// `v.max(0.0)` is `v.round().max(0.0)` with no rounding at all, so the
/// result is bit-identical to `v.round().max(0.0)` for every non-negative
/// input and the vector loops evaluate both arms as one select.
#[inline]
fn round_nonneg(v: f64) -> f64 {
    const MAGIC: f64 = 4_503_599_627_370_496.0; // 2^52
    if v < MAGIC {
        let t = (v + MAGIC) - MAGIC;
        // Select, not branch: the tie is rare but the inputs are noise.
        // `t + 0.0 ≡ t` here because `t ≥ +0.0` for every `v ≥ 0`.
        t + if v - t == 0.5 { 1.0 } else { 0.0 }
    } else {
        v.max(0.0)
    }
}

/// One parent-level step of the Sec. 4.2 zeroing sweep: zero each sibling
/// window whose parent was zeroed (post-sweep value `0.0` ⟺ zeroed), clamp
/// `≤ 0` children, and — once a parent's children no longer need its
/// pre-round value as their flag — round the parent in place.
///
/// Dispatches [`zero_round_windows`] with a literal fan-out for the ones
/// the planner uses, so each gets its own constant-propagated copy of the
/// one body; any other `k` runs the same body with the width read at run
/// time.
#[inline]
fn zero_round_level(parents: &mut [f64], children: &mut [f64], k: usize) {
    match k {
        2 => zero_round_windows::<2>(parents, children, k),
        4 => zero_round_windows::<4>(parents, children, k),
        8 => zero_round_windows::<8>(parents, children, k),
        16 => zero_round_windows::<16>(parents, children, k),
        _ => zero_round_windows::<0>(parents, children, k),
    }
}

/// The zero/round window kernel behind [`zero_round_level`]: `K` is the
/// fan-out when it is a literal, or `0` to take it from `k`.
///
/// The select is branchless: on DP noise roughly half the values are
/// `≤ 0`, so a conditional store would mispredict every other node. A
/// literal window is loaded into `K` locals, selected into a second array
/// and stored back in one copy. With every load ahead of every store and no
/// per-child store of "the loaded value or zero", the loop vectorizes
/// across parents (at k = 2, four parents and their eight children per
/// AVX2 step; perfbench's traced `engine.zero_round_ms` shows the
/// difference). A load-select-store per child instead lets LLVM rewrite the
/// select as a masked store under a branch on the parent flag, and the loop
/// stays scalar. A run-time `k` has no fixed window to hold in locals, so
/// it selects in place.
#[inline(always)]
fn zero_round_windows<const K: usize>(parents: &mut [f64], children: &mut [f64], k: usize) {
    let k = if K == 0 { k } else { K };
    for (p, window) in parents.iter_mut().zip(children.chunks_exact_mut(k)) {
        let parent = *p;
        let zeroed = parent == 0.0;
        let keep = |c: f64| if zeroed | (c <= 0.0) { 0.0 } else { c };
        if K == 0 {
            for c in window {
                *c = keep(*c);
            }
        } else {
            let loaded: [f64; K] = core::array::from_fn(|j| window[j]);
            window.copy_from_slice(&loaded.map(keep));
        }
        // Post-zeroing values are never negative, so the fast path applies.
        *p = round_nonneg(parent);
    }
}

/// One level of exact tree counts, folded into the noised upward pass:
/// each parent's count is the sum of its children's counts, stored in
/// `counts` (the next level up reads it there) and added to the parent's
/// already-drawn noise in `values`.
///
/// The sum is folded right to left from `0.0`, the order
/// `HierarchicalQuery`'s evaluator uses, so every count is the evaluator's
/// double bit for bit — for any histogram, not only totals below 2^53 —
/// and `noise + count` equals the unfused `count + noise` because IEEE
/// `+` is commutative. Dispatches literal fan-outs like
/// [`zero_round_level`].
#[inline]
fn count_level(counts: &mut [f64], values: &mut [f64], children: &[f64], k: usize) {
    match k {
        2 => count_windows(counts, values, children, 2),
        4 => count_windows(counts, values, children, 4),
        8 => count_windows(counts, values, children, 8),
        16 => count_windows(counts, values, children, 16),
        _ => count_windows(counts, values, children, k),
    }
}

/// The body behind [`count_level`]; `k` is a literal in every dispatched
/// copy but the last.
#[inline(always)]
fn count_windows(counts: &mut [f64], values: &mut [f64], children: &[f64], k: usize) {
    for ((count, value), window) in counts.iter_mut().zip(values).zip(children.chunks_exact(k)) {
        let sum = window.iter().rev().fold(0.0f64, |acc, c| acc + c);
        *count = sum;
        *value += sum;
    }
}

/// Writes leaves `first .. first + out.len()` of the padded leaf level as
/// `f64` counts: the histogram's bins, then zero padding past its end.
fn leaf_counts(bins: &[u64], first: usize, out: &mut [f64]) {
    let bins = bins.get(first..).unwrap_or_default();
    let (data, padding) = out.split_at_mut(bins.len().min(out.len()));
    for (slot, &c) in data.iter_mut().zip(bins) {
        *slot = c as f64;
    }
    padding.fill(0.0);
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
    /// step, because counting reads the leaf counts only there and the
    /// publish's leaf sink is fed by it. A branching
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

    /// Leaves per vertical slab of the tiled sweeps: at most 8192, unless
    /// the fan-out alone is wider (slabs always reach the leaves). The engine's
    /// O(slab) scratch — one slab's counts and the publish's leaf sink —
    /// is sized by it.
    pub fn slab_leaves(&self) -> usize {
        self.shape.leaves() / self.shape.level_width(self.tile_cut())
    }

    /// Theorem 3 in two flat sweeps, allocating the result.
    pub fn infer(&self, noisy: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.infer_from(noisy, &mut out, false);
        out
    }

    /// Theorem 3 in two slab-tiled sweeps into a caller-owned buffer: `out`
    /// is resized to `nodes()`; the upward pass writes each internal node's
    /// `z` there (reading `h̃` from `noisy`) and the downward pass
    /// overwrites it with `h̄` in place, reading the leaf `z` from `noisy`.
    /// Once `out`'s capacity has grown past `nodes()`, repeated calls
    /// allocate nothing.
    ///
    /// `z` is ignored — the passes need no second tree — and is neither
    /// resized nor written. It stays in the signature only because
    /// perfbench's replay passes it; the ledger revision in ROADMAP ("Make
    /// the ledger describe the system it times") drops it with that call.
    pub fn infer_into(&self, noisy: &[f64], _z: &mut Vec<f64>, out: &mut Vec<f64>) {
        self.infer_from(noisy, out, false);
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
    pub fn infer_zero_round_into(&self, noisy: &[f64], out: &mut Vec<f64>) {
        self.infer_from(noisy, out, true);
    }

    /// The one staged sweep behind every `infer*` entry point: the same
    /// passes as a fused trial, with `noisy` as their staged input — each
    /// node's `h̃` (and each leaf's `z`) is read from `noisy` where a pass
    /// first needs it, and `out` is written once per node on the way up
    /// (internal `z`) and once on the way down (`h̄`), never copied into.
    /// The zero/round sweep is fused in when `rounded`.
    fn infer_from(&self, noisy: &[f64], out: &mut Vec<f64>, rounded: bool) {
        let n = self.shape.nodes();
        assert_eq!(noisy.len(), n, "noisy vector must cover the tree");
        out.resize(n, 0.0);
        if n == 1 {
            // A lone root is its own leaf: h̄ = z = h̃.
            out[0] = noisy[0];
        }
        let cut = self.tile_cut();
        for s in 0..self.shape.level_width(cut) {
            self.upward_slab(s, cut, out, Some(noisy));
        }
        self.upward_levels(out, 0..cut, Some(noisy));
        if rounded {
            self.downward_zero_round(out, Some(noisy));
        } else {
            self.downward_tree(out, Some(noisy));
        }
    }

    /// The fused downstream of [`Self::infer_zero_round_into`], in place:
    /// top-down pass with the zero/round sweep run per slab while it is
    /// hot. `values` hold the internal `z` on entry (and the leaf `z`,
    /// unless a staged `input` holds it — see [`Self::downward_slab`]) and
    /// the rounded `H̄` on exit.
    fn downward_zero_round(&self, values: &mut [f64], input: Option<&[f64]>) {
        let height = self.shape.height();
        if height == 1 {
            let v = values[0];
            values[0] = if v <= 0.0 { 0.0 } else { round_nonneg(v) };
            return;
        }
        let cut = self.tile_cut();
        self.downward_levels(values, 0..cut);
        // Zero the top region: depths 0..cut−1 act as parents, so depths
        // 1..=cut−1 get their zeroing and depths 0..cut−2 their rounding.
        // Depth cut−1 keeps pre-round values (the slabs' flags) and depth
        // cut stays raw — the downward slab kernels still need it.
        let offsets = self.shape.level_offsets();
        if cut >= 1 {
            if values[0] <= 0.0 {
                values[0] = 0.0;
            }
            self.zero_levels(values, 0..cut - 1);
        }
        for s in 0..self.shape.level_width(cut) {
            self.downward_slab(s, cut, values, input, None);
            self.zero_round_slab(s, cut, values);
        }
        if cut >= 1 {
            // Now that every slab has read its parent flag, round the
            // deferred level.
            for v in &mut values[offsets[cut - 1]..offsets[cut]] {
                *v = round_nonneg(*v);
            }
        }
    }

    /// Bottom-up pass fused with tree counting and the noise perturbation,
    /// in place: writes every node of `values` as its exact count plus one
    /// Laplace draw (the noisy release `h̃`) while running the upward
    /// slabs, so each slab's counts and noise are still cache-hot when the
    /// slab overwrites them with `z`. The true-count vector is never built.
    ///
    /// Draw order is the BFS index order — internal prefix first, then the
    /// leaf slabs left to right — exactly the order
    /// [`hc_noise::Laplace::add_noise`] uses over the whole vector, and
    /// backends consume one uniform per sample with length-independent bits.
    /// The internal prefix is drawn as bare noise; each slab then writes its
    /// leaf counts, adds every in-slab internal node's exact count
    /// ([`Self::count_slab`]), adds its leaf noise, and runs
    /// [`Self::upward_slab`]. The top region above the cut gets its counts
    /// last, from the slab roots' counts parked in `counts`. Counts are the
    /// evaluator's doubles and `+` commutes, so the release is bit-identical
    /// to evaluating the query and then adding noise, *per backend*.
    ///
    /// `values` must have length `nodes()`; every slot is assigned, so it
    /// can be one trial's segment of a shared batch buffer. `keep`, when
    /// given (also `nodes()` long), receives the finished `h̃` of each slab
    /// before its upward pass overwrites it, and the top region's before
    /// the top levels run.
    fn noised_upward<R: Rng + ?Sized>(
        &self,
        prepared: &PreparedMechanism<HierarchicalQuery>,
        histogram: &Histogram,
        rng: &mut R,
        values: &mut [f64],
        counts: &mut CountScratch,
        mut keep: Option<&mut [f64]>,
    ) {
        let n = self.nodes();
        assert_eq!(values.len(), n, "value slice must cover the tree");
        assert!(
            self.is_uniform(),
            "engine is compiled with per-level GLS weights; recompile with \
             ensure_shape before running uniform release_and_infer trials"
        );
        assert!(
            prepared.query().shape(prepared.domain_size()) == self.shape,
            "prepared query does not cover the engine's tree"
        );
        assert_eq!(
            histogram.len(),
            prepared.domain_size(),
            "prepared for a different domain size"
        );
        let (laplace, backend) = (prepared.noise(), prepared.backend());
        let bins = histogram.counts();
        let first_leaf = self.shape.first_leaf();
        laplace.fill_with(backend, rng, &mut values[..first_leaf]);
        let cut = self.tile_cut();
        let slabs = self.shape.level_width(cut);
        let leaf_w = self.shape.leaves() / slabs;
        let offsets = self.shape.level_offsets();
        // A slab has fewer internal nodes than leaves.
        counts.slab.resize(leaf_w, 0.0);
        counts.top.resize(offsets[cut + 1], 0.0);
        for s in 0..slabs {
            let lo = first_leaf + s * leaf_w;
            leaf_counts(bins, s * leaf_w, &mut values[lo..lo + leaf_w]);
            self.count_slab(s, cut, values, counts);
            laplace.add_noise_with(backend, rng, &mut values[lo..lo + leaf_w]);
            if let Some(keep) = keep.as_deref_mut() {
                self.copy_slab(s, cut, values, keep);
            }
            self.upward_slab(s, cut, values, None);
        }
        self.count_levels(values, &mut counts.top, 0..cut);
        if let Some(keep) = keep {
            keep[..offsets[cut]].copy_from_slice(&values[..offsets[cut]]);
        }
        self.upward_levels(values, 0..cut, None);
    }

    /// Exact counts for slab `s` rooted at depth `cut`, bottom-up from its
    /// leaf counts (still un-noised in `values`): each internal node's count
    /// goes to the slab scratch and onto its noise in `values`. The scratch
    /// holds the slab's levels deepest first, so a level's child counts are
    /// the `w·k` entries just before it. Below a cut, the slab root's count
    /// is also parked in the top scratch for [`Self::count_levels`].
    fn count_slab(&self, s: usize, cut: usize, values: &mut [f64], counts: &mut CountScratch) {
        let height = self.shape.height();
        let offsets = self.shape.level_offsets();
        let k = self.shape.branching();
        let slabs = self.shape.level_width(cut);
        let mut at = 0;
        for d in (cut..height.saturating_sub(1)).rev() {
            let w = self.shape.level_width(d) / slabs;
            let plo = offsets[d] + s * w;
            let (below, level) = counts.slab.split_at_mut(at);
            let (v_upper, v_lower) = values.split_at_mut(offsets[d + 1]);
            let children = if d + 2 == height {
                &v_lower[s * w * k..(s + 1) * w * k]
            } else {
                &below[at - w * k..]
            };
            count_level(&mut level[..w], &mut v_upper[plo..plo + w], children, k);
            at += w;
        }
        if cut > 0 {
            counts.top[offsets[cut] + s] = counts.slab[at - 1];
        }
    }

    /// Exact counts for the parent depths `depths` above the slab cut, from
    /// the level-below counts already in `counts`, added onto `values`.
    fn count_levels(
        &self,
        values: &mut [f64],
        counts: &mut [f64],
        depths: core::ops::Range<usize>,
    ) {
        let offsets = self.shape.level_offsets();
        let k = self.shape.branching();
        for d in depths.rev() {
            let (lo, hi) = (offsets[d], offsets[d + 1]);
            let (upper, lower) = counts.split_at_mut(hi);
            count_level(
                &mut upper[lo..],
                &mut values[lo..hi],
                &lower[..(hi - lo) * k],
                k,
            );
        }
    }

    /// One complete fused trial in `out` alone — count the histogram into
    /// the tree and add Laplace noise through the preparation's backend,
    /// both folded into the upward slabs, then run the top-down pass
    /// (optionally with the Sec. 4.2 zeroing + Sec. 5.2 rounding fused in).
    /// `out` must already have length `nodes()` and is overwritten in place,
    /// `h̃ → z → h̄`; `counts` is the O(slab) counting scratch (reusable
    /// across trials). `keep` receives the noisy release (see
    /// [`Self::noised_upward`]): the batch pipelines pass their trial's
    /// segment of the shared noisy batch.
    ///
    /// This is the per-trial core shared by every `release_and_infer*`
    /// entry point, including the trial-parallel batch — so "bit-identical
    /// to serial per backend" holds by construction: all paths run exactly
    /// this function per trial.
    #[allow(clippy::too_many_arguments)] // scratch + output slots, all required
    fn fused_trial<R: Rng + ?Sized>(
        &self,
        prepared: &PreparedMechanism<HierarchicalQuery>,
        histogram: &Histogram,
        rng: &mut R,
        rounded: bool,
        out: &mut [f64],
        counts: &mut CountScratch,
        keep: Option<&mut [f64]>,
    ) {
        self.noised_upward(prepared, histogram, rng, out, counts, keep);
        if rounded {
            self.downward_zero_round(out, None);
        } else {
            self.downward_tree(out, None);
        }
    }

    /// The zero sweep over parent depths `depths` (children at `d + 1`),
    /// rounding each parent once its children are processed. The root's own
    /// zero check is the caller's job.
    fn zero_levels(&self, values: &mut [f64], depths: core::ops::Range<usize>) {
        let offsets = self.shape.level_offsets();
        let k = self.shape.branching();
        for d in depths {
            let (lo, hi) = (offsets[d], offsets[d + 1]);
            let (upper, lower) = values.split_at_mut(hi);
            let parents = &mut upper[lo..];
            let children = &mut lower[..(hi - lo) * k];
            zero_round_level(parents, children, k);
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
            zero_round_level(parents, children, k);
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
        assert_eq!(
            noisy.len(),
            self.shape.nodes(),
            "noisy vector must cover the tree"
        );
        let height = self.shape.height();
        let mut out = noisy.to_vec();
        self.upward_levels(&mut out, 0..height - 1, None);
        self.downward_levels(&mut out, 0..height - 1);
        out
    }

    /// Copies slab `s`'s nodes — depth `cut` down to its leaves — from
    /// `src` to `dst`, one contiguous run per level.
    fn copy_slab(&self, s: usize, cut: usize, src: &[f64], dst: &mut [f64]) {
        let offsets = &self.shape.level_offsets()[cut..self.shape.height()];
        let slabs = self.shape.level_width(cut);
        for (d, &offset) in (cut..).zip(offsets) {
            let w = self.shape.level_width(d) / slabs;
            let lo = offset + s * w;
            dst[lo..lo + w].copy_from_slice(&src[lo..lo + w]);
        }
    }

    /// Top-down pass over a whole tree, in place and slab-tiled: `values`
    /// hold the internal `z` on entry (and the leaf `z`, unless a staged
    /// `input` holds it) and `h̄` on exit.
    fn downward_tree(&self, values: &mut [f64], input: Option<&[f64]>) {
        let cut = self.tile_cut();
        self.downward_levels(values, 0..cut);
        for s in 0..self.shape.level_width(cut) {
            self.downward_slab(s, cut, values, input, None);
        }
    }

    /// Top-down pass whose leaves go to a sink instead of the tree: the
    /// internal nodes of `values` are overwritten in place (`z → h̄`), but
    /// each slab's leaves are inferred from the tree's leaf `z` into `slab`
    /// (one slab wide, reused by every slab) and handed to `sink`, left to
    /// right, while they are still in cache. The tree's leaf level keeps
    /// its `z`.
    fn downward_into_sink(
        &self,
        values: &mut [f64],
        slab: &mut [f64],
        mut sink: impl FnMut(&[f64]),
    ) {
        if self.shape.height() == 1 {
            sink(&values[..1]);
            return;
        }
        let cut = self.tile_cut();
        self.downward_levels(values, 0..cut);
        for s in 0..self.shape.level_width(cut) {
            self.downward_slab(s, cut, values, None, Some(slab));
            sink(slab);
        }
    }

    /// Bottom-up sweep over slab `s` rooted at depth `cut`: every internal
    /// level of the slab gets its `z`, up to and including the slab root,
    /// touching only the slab's contiguous per-level slices. Leaf `z` is
    /// the noisy leaf by definition, so the leaves are read as they are.
    ///
    /// Without `input` the slab holds its `h̃` and is overwritten in place;
    /// a staged `input` (`nodes()` long) supplies every `h̃` instead, and
    /// the slab's leaves in `values` are neither read nor written.
    fn upward_slab(&self, s: usize, cut: usize, values: &mut [f64], input: Option<&[f64]>) {
        let height = self.shape.height();
        let offsets = self.shape.level_offsets();
        let k = self.shape.branching();
        let slabs = self.shape.level_width(cut);
        for d in (cut..height.saturating_sub(1)).rev() {
            let w = self.shape.level_width(d) / slabs;
            self.up_step(
                d,
                values,
                input,
                offsets[d] + s * w,
                offsets[d + 1] + s * w * k,
                w,
            );
        }
    }

    /// Top-down sweep over slab `s` rooted at depth `cut`, whose root
    /// already holds its `h̄`: every internal level below it goes from `z`
    /// to `h̄` in place. The leaf step reads the leaf `z` from a staged
    /// `input` when given (from the tree otherwise) and writes the leaves'
    /// `h̄` into `leaves` when given (into the tree otherwise — then the
    /// tree keeps its leaf `z`).
    fn downward_slab(
        &self,
        s: usize,
        cut: usize,
        values: &mut [f64],
        input: Option<&[f64]>,
        mut leaves: Option<&mut [f64]>,
    ) {
        let height = self.shape.height();
        let offsets = self.shape.level_offsets();
        let k = self.shape.branching();
        let slabs = self.shape.level_width(cut);
        for d in cut..height - 1 {
            let w = self.shape.level_width(d) / slabs;
            let (plo, clo) = (offsets[d] + s * w, offsets[d + 1] + s * w * k);
            if d + 2 == height {
                self.down_step(d, values, input, leaves.as_deref_mut(), plo, clo, w);
            } else {
                self.down_step(d, values, None, None, plo, clo, w);
            }
        }
    }

    /// Plain bottom-up level sweeps: gives each depth in `depths.rev()` its
    /// `z`, from the already-final level below — in place, or from a staged
    /// `input` as in [`Self::upward_slab`].
    fn upward_levels(
        &self,
        values: &mut [f64],
        depths: core::ops::Range<usize>,
        input: Option<&[f64]>,
    ) {
        let offsets = self.shape.level_offsets();
        for d in depths.rev() {
            let (lo, hi) = (offsets[d], offsets[d + 1]);
            self.up_step(d, values, input, lo, hi, hi - lo);
        }
    }

    /// Plain top-down level sweeps, in place: turns the children of each
    /// depth in `depths` from `z` into `h̄` (the parents must already hold
    /// theirs).
    fn downward_levels(&self, values: &mut [f64], depths: core::ops::Range<usize>) {
        let offsets = self.shape.level_offsets();
        for d in depths {
            let (lo, hi) = (offsets[d], offsets[d + 1]);
            self.down_step(d, values, None, None, lo, hi, hi - lo);
        }
    }

    /// One bottom-up kernel call: the `w` parents at `plo` (depth `d`) get
    /// their `z` from the `w·k` children at `clo`. Their `h̃` is read in
    /// place, or from a staged `input` — which, at the leaf step, also
    /// holds the children (leaf `z` is leaf `h̃`).
    #[inline]
    fn up_step(
        &self,
        d: usize,
        values: &mut [f64],
        input: Option<&[f64]>,
        plo: usize,
        clo: usize,
        w: usize,
    ) {
        let k = self.shape.branching();
        let (upper, lower) = values.split_at_mut(clo);
        let parents = &mut upper[plo..plo + w];
        match input {
            Some(h) => {
                let children = if d + 2 == self.shape.height() {
                    &h[clo..clo + w * k]
                } else {
                    &lower[..w * k]
                };
                self.up_kernel(d, parents, &h[plo..plo + w], children);
            }
            None => self.up_kernel(d, parents, InPlace, &lower[..w * k]),
        }
    }

    /// One top-down kernel call: the `w·k` children at `clo` (depth
    /// `d + 1`) get their `h̄` from the `w` parents at `plo`. The children's
    /// `z` is read from `input` when given (else in place), and their `h̄`
    /// written to `sink` when given (else in place).
    #[allow(clippy::too_many_arguments)] // one kernel call's coordinates
    #[inline]
    fn down_step(
        &self,
        d: usize,
        values: &mut [f64],
        input: Option<&[f64]>,
        sink: Option<&mut [f64]>,
        plo: usize,
        clo: usize,
        w: usize,
    ) {
        let k = self.shape.branching();
        let (upper, lower) = values.split_at_mut(clo);
        let parents = &upper[plo..plo + w];
        let children = &mut lower[..w * k];
        let z = input.map(|h| &h[clo..clo + w * k]);
        match (sink, z) {
            (Some(sink), Some(z)) => self.down_kernel(d, sink, z, parents),
            (Some(sink), None) => self.down_kernel(d, sink, &*children, parents),
            (None, Some(z)) => self.down_kernel(d, children, z, parents),
            (None, None) => self.down_kernel(d, children, InPlace, parents),
        }
    }

    /// Dispatches the bottom-up kernel for depth `d`.
    #[inline]
    fn up_kernel<S: Source>(&self, d: usize, parents: &mut [f64], own_in: S, children: &[f64]) {
        let k = self.shape.branching();
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
    fn down_kernel<S: Source>(&self, d: usize, children: &mut [f64], group_z: S, parents: &[f64]) {
        let k = self.shape.branching();
        match &self.weights {
            Weights::Uniform { .. } => {
                down_level_uniform(children, group_z, parents, k, k as f64);
            }
            Weights::Weighted { down_ratio, .. } => {
                down_level_weighted(children, group_z, parents, k, down_ratio[d + 1]);
            }
        }
    }

    /// The Sec. 4.2 non-negativity heuristic fused with Sec. 5.2 rounding,
    /// as one top-down level sweep: zeroes every subtree whose root value is
    /// ≤ 0 and rounds every node to the nearest non-negative integer, in
    /// place.
    ///
    /// Bit-identical to [`crate::hier::enforce_nonnegativity`] (the per-node
    /// `parent()` walk, kept as the oracle) followed by
    /// [`Rounding::NonNegativeInteger`](crate::universal::Rounding::NonNegativeInteger) on every
    /// node. After a level has been swept, a node is zeroed **iff its value
    /// is `0.0`** — a non-zeroed node kept a value > 0, and a value ≤ 0
    /// (including ±0.0) was zeroed — so the parent's own swept value doubles
    /// as the "parent-zeroed" flag and no flag array is needed. A node is
    /// rounded only after its own children have been processed, so every
    /// zeroing decision reads a pre-round value.
    pub fn zero_round_in_place(&self, values: &mut [f64]) {
        let height = self.shape.height();
        assert_eq!(
            values.len(),
            self.shape.nodes(),
            "value vector must cover the tree"
        );
        if values[0] <= 0.0 {
            values[0] = 0.0;
        }
        self.zero_levels(values, 0..height - 1);
        let first_leaf = self.shape.first_leaf();
        for v in &mut values[first_leaf..] {
            *v = round_nonneg(*v);
        }
    }
}

/// The counting scratch of the fused release: one slab's internal counts
/// and the top region's (depths `0..=cut`, the slab roots' counts among
/// them). Both are O([`TILE_LEAVES`]), whatever the tree's size.
#[derive(Debug, Clone, Default)]
struct CountScratch {
    slab: Vec<f64>,
    top: Vec<f64>,
}

/// Reusable inference executor: one tree buffer and O(slab) scratch, many
/// trials.
///
/// After the first call every `infer*` and `release_and_infer*` method is
/// allocation-free (buffers are recycled at their high-water mark), which is
/// what the experiment loops need — thousands of trials over one shape.
/// Trials run in their caller's output buffer; the engine's own tree buffer
/// is only grown by [`Self::release_and_infer_into_snapshot`], whose output
/// is a snapshot rather than a tree.
#[derive(Debug, Clone)]
pub struct BatchInference {
    tree: LevelTree,
    /// The publish's tree, overwritten in place: `h̃ → z → h̄`.
    values: Vec<f64>,
    counts: CountScratch,
    /// One downward slab's leaves, on their way into a snapshot's prefix.
    slab: Vec<f64>,
}

impl BatchInference {
    /// Wraps a compiled tree.
    pub fn new(tree: LevelTree) -> Self {
        Self {
            tree,
            values: Vec::new(),
            counts: CountScratch::default(),
            slab: Vec::new(),
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

    /// One inference; allocates only the result.
    pub fn infer(&mut self, noisy: &[f64]) -> Vec<f64> {
        self.tree.infer(noisy)
    }

    /// One inference into a caller-owned output buffer, the only tree it
    /// writes (zero allocations once `out` has warmed up).
    pub fn infer_into(&mut self, noisy: &[f64], out: &mut Vec<f64>) {
        self.tree.infer_from(noisy, out, false);
    }

    /// One full trial — count the histogram into the tree, perturb with
    /// Laplace noise, run both Theorem-3 passes — in `out` alone, with zero
    /// heap allocations after warm-up (no noisy vector, no `NoisyOutput`,
    /// no label, no release wrapper).
    ///
    /// Bit-identical to releasing through
    /// [`hc_mech::LaplaceMechanism::release`] and inferring the result at
    /// the same RNG state — `tests/engine_equivalence.rs` pins this.
    pub fn release_and_infer<R: Rng + ?Sized>(
        &mut self,
        prepared: &PreparedMechanism<HierarchicalQuery>,
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
    pub fn release_and_infer_rounded<R: Rng + ?Sized>(
        &mut self,
        prepared: &PreparedMechanism<HierarchicalQuery>,
        histogram: &Histogram,
        rng: &mut R,
        out: &mut Vec<f64>,
    ) {
        self.fused_trial_into(prepared, histogram, rng, true, out);
    }

    /// [`Self::release_and_infer`] served straight into `snapshot`: the same
    /// trial, run in place in the engine's tree buffer, but the inferred
    /// leaf level is never materialized. Each downward slab writes its
    /// leaves into engine scratch one slab wide, and they are scanned on
    /// into the snapshot's prefix while still in cache, so the snapshot is
    /// bit-identical to [`ConsistentSnapshot::rebuild_from_tree_values`]
    /// over `release_and_infer`'s output (padding leaves included).
    ///
    /// `snapshot` is rebuilt in place over the prepared domain: zero
    /// allocations once it and the engine have warmed up. Its noise scale
    /// is left as it was — the caller knows which release produced it.
    pub fn release_and_infer_into_snapshot<R: Rng + ?Sized>(
        &mut self,
        prepared: &PreparedMechanism<HierarchicalQuery>,
        histogram: &Histogram,
        rng: &mut R,
        snapshot: &mut ConsistentSnapshot,
    ) {
        let Self {
            tree,
            values,
            counts,
            slab,
        } = self;
        let shape = tree.shape();
        values.resize(shape.nodes(), 0.0);
        slab.resize(shape.leaves() / shape.level_width(tree.tile_cut()), 0.0);
        let mut scan = snapshot.prefix_scan(shape.leaves(), prepared.domain_size());
        tree.noised_upward(prepared, histogram, rng, values, counts, None);
        tree.downward_into_sink(values, slab, |leaves| scan.scan(leaves));
    }

    /// [`LevelTree::fused_trial`] in `out`, with the engine's counting
    /// scratch.
    fn fused_trial_into<R: Rng + ?Sized>(
        &mut self,
        prepared: &PreparedMechanism<HierarchicalQuery>,
        histogram: &Histogram,
        rng: &mut R,
        rounded: bool,
        out: &mut Vec<f64>,
    ) {
        out.resize(self.tree.nodes(), 0.0);
        self.tree.fused_trial(
            prepared,
            histogram,
            rng,
            rounded,
            out,
            &mut self.counts,
            None,
        );
    }

    /// A whole batch of fused trials, serial: trial `t` runs the complete
    /// release→inference pipeline with its own RNG `seeds.rng(t)`, in place
    /// in `out_batch[t·n .. (t+1)·n]`, leaving there its inferred (if
    /// `rounded`, zeroed-and-rounded) tree — and, when `noisy_batch` is
    /// `Some`, copying its noisy release into the same slice of that buffer
    /// slab by slab, before the upward pass overwrites it. Trial `t` is
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
    pub fn release_and_infer_batch(
        &mut self,
        prepared: &PreparedMechanism<HierarchicalQuery>,
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
        for (t, out_chunk) in out_batch.chunks_exact_mut(n).enumerate() {
            let mut rng = seeds.rng(t as u64);
            let keep = noisy_batch
                .as_deref_mut()
                .map(|nb| &mut nb[t * n..(t + 1) * n]);
            self.tree.fused_trial(
                prepared,
                histogram,
                &mut rng,
                rounded,
                out_chunk,
                &mut self.counts,
                keep,
            );
        }
    }

    /// [`Self::release_and_infer_batch`] with trials split across
    /// scoped-thread workers — the full pipeline (counting, Laplace draws,
    /// both Theorem-3 passes, optional zeroing/rounding) scaled by trial,
    /// not just the inference step.
    ///
    /// Like `hc-bench`'s `run_trials_with`: each worker owns its O(slab)
    /// counting scratch (every trial runs in place in its own output slice)
    /// and trials are claimed from an atomic work queue, but every trial's
    /// randomness comes only from `seeds.rng(t)` — so the output is
    /// bit-identical to the serial batch (and to `trials` standalone
    /// `release_and_infer*` calls) for any thread count or scheduling, per
    /// backend. `threads` is a cap, overridable via the `HC_THREADS`
    /// environment variable ([`effective_threads`]).
    #[allow(clippy::too_many_arguments)]
    pub fn release_and_infer_batch_parallel(
        &mut self,
        prepared: &PreparedMechanism<HierarchicalQuery>,
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
        // unsafe code.
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
                    let mut counts = CountScratch::default();
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
                        tree.fused_trial(
                            prepared,
                            histogram,
                            &mut rng,
                            rounded,
                            out_chunk,
                            &mut counts,
                            noisy_chunk,
                        );
                    }
                });
            }
        });
    }

    /// [`LevelTree::infer_zero_round_into`]: the complete `H̄`
    /// post-processing in place in `out`, allocation-free after warm-up,
    /// bit-identical to `infer_into` + `zero_round_in_place`.
    pub fn infer_zero_round_into(&mut self, noisy: &[f64], out: &mut Vec<f64>) {
        self.tree.infer_from(noisy, out, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hier::{enforce_nonnegativity, hierarchical_inference};
    use crate::universal::Rounding;
    use hc_noise::{rng_from_seed, NoiseBackend};
    use hc_testutil::assert_close;
    use rand::Rng;

    fn random_noisy(shape: &TreeShape, seed: u64) -> Vec<f64> {
        let mut rng = rng_from_seed(seed);
        (0..shape.nodes())
            .map(|_| rng.random_range(-25.0..60.0))
            .collect()
    }

    /// The Sec. 4.2 + 5.2 oracle: the per-node zeroing walk, then rounding
    /// every node.
    fn zero_then_round(shape: &TreeShape, values: &[f64]) -> Vec<f64> {
        let mut out = enforce_nonnegativity(shape, values);
        for v in &mut out {
            *v = Rounding::NonNegativeInteger.apply(*v);
        }
        out
    }

    /// Bit-level slice equality: `assert_eq!` on `f64` cannot see a
    /// `−0.0`/`+0.0` flip.
    fn assert_same_bits(got: &[f64], expect: &[f64], what: &str) {
        assert_eq!(got.len(), expect.len(), "{what}: length");
        if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != expect[i].to_bits()) {
            panic!("{what}: node {i} is {:?}, expected {:?}", got[i], expect[i]);
        }
    }

    /// Values for every branch of the zero select and of `round_nonneg`:
    /// signed zeros, NaN, infinities, exact `x.5` ties, the largest double
    /// below ½, and magnitudes at and past 2^52.
    const SPECIALS: [f64; 16] = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.5,
        1.5,
        2.5,
        0.49999999999999994,
        4_503_599_627_370_495.5, // 2^52 − ½, the last tie below 2^52
        4_503_599_627_370_496.0, // 2^52
        4_503_599_627_370_497.0, // 2^52 + 1
        9_007_199_254_740_992.0, // 2^53
        1e300,
        -0.5,
        -3.0,
    ];

    /// Random values straddling zero with [`SPECIALS`] planted every
    /// `stride` nodes and in the last `k` nodes of every level, so windows
    /// at the end of a level see them too.
    fn stress_values(shape: &TreeShape, seed: u64, stride: usize) -> Vec<f64> {
        let mut rng = rng_from_seed(seed);
        let mut values: Vec<f64> = (0..shape.nodes())
            .map(|_| rng.random_range(-4.0..4.0))
            .collect();
        let mut next = 0usize;
        let mut plant = |v: &mut f64| {
            *v = SPECIALS[next % SPECIALS.len()];
            next += 1;
        };
        for v in values.iter_mut().step_by(stride) {
            plant(v);
        }
        let offsets = shape.level_offsets();
        for d in 0..shape.height() {
            let lo = offsets[d + 1]
                .saturating_sub(shape.branching())
                .max(offsets[d]);
            for v in &mut values[lo..offsets[d + 1]] {
                plant(v);
            }
        }
        values
    }

    #[test]
    fn zero_round_kernels_match_the_oracle_bit_for_bit() {
        // Every dispatched fan-out (2, 4, 8, 16) and the run-time one (3),
        // at single- and multi-slab heights, against the per-node walk
        // followed by `Rounding::NonNegativeInteger`, compared by bits.
        for (k, height) in [
            (2usize, 1usize),
            (2, 5),
            (2, 16), // 2^15 leaves: 4 slabs
            (3, 4),
            (3, 10), // 3^9 leaves: 3 slabs
            (4, 5),
            (4, 8), // 4^7 leaves: 4 slabs
            (8, 4),
            (8, 6), // 8^5 leaves: 8 slabs
            (16, 3),
            (16, 5), // 16^4 leaves: 16 slabs
        ] {
            let shape = TreeShape::new(k, height);
            let tree = LevelTree::new(&shape);
            let what = format!("k={k} ℓ={height}");
            // The in-place sweep over planted specials, dense and sparse.
            for stride in [3usize, 17] {
                let values = stress_values(&shape, (k * 100 + height) as u64, stride);
                let mut swept = values.clone();
                tree.zero_round_in_place(&mut swept);
                assert_same_bits(&swept, &zero_then_round(&shape, &values), &what);
            }
            // The slab-fused trial tail. A NaN or infinity in the input
            // floods the whole inferred tree, so the specials here are the
            // finite ones, planted sparsely into finite noise.
            let mut noisy = stress_values(&shape, (k * 1000 + height) as u64, 29);
            for v in &mut noisy {
                if !v.is_finite() {
                    *v = -0.0;
                }
            }
            let mut fused = Vec::new();
            tree.infer_zero_round_into(&noisy, &mut fused);
            let expect = zero_then_round(&shape, &tree.infer(&noisy));
            assert_same_bits(&fused, &expect, &format!("{what} fused"));
        }
    }

    #[test]
    fn counting_adds_exact_counts_onto_drawn_noise() {
        // The fused trial draws noise first and adds counts after, so
        // `noise + count` must equal the staged `count + noise` bit for bit,
        // the −0.0 draw included (`−0.0 + 0.0` and `0.0 + −0.0` are both
        // `+0.0`), for literal and run-time fan-outs.
        for k in [2usize, 3, 4, 16] {
            let children: Vec<f64> = (0..4 * k).map(|i| ((i * 7) % 5) as f64).collect();
            let draws = [-0.0, 0.0, -1.25, 3.5];
            let mut counts = [f64::NAN; 4];
            let mut values = draws;
            count_level(&mut counts, &mut values, &children, k);
            for (i, window) in children.chunks_exact(k).enumerate() {
                let count = window.iter().rev().fold(0.0, |acc, c| acc + c);
                assert_eq!(counts[i].to_bits(), count.to_bits(), "k={k} count {i}");
                let staged = count + draws[i];
                assert_eq!(values[i].to_bits(), staged.to_bits(), "k={k} value {i}");
            }
        }
        // An all-zero window under a −0.0 draw releases +0.0.
        let (mut count, mut value) = ([f64::NAN], [-0.0]);
        count_level(&mut count, &mut value, &[0.0, 0.0], 2);
        assert_eq!(value[0].to_bits(), 0.0f64.to_bits());
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
            assert_eq!(tree.infer_untiled(&noisy), reference);
        }
    }

    #[test]
    fn single_node_tree_passes_through() {
        let shape = TreeShape::new(2, 1);
        let tree = LevelTree::new(&shape);
        assert_eq!(tree.infer(&[7.25]), vec![7.25]);
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
            let reference = zero_then_round(&shape, &values);
            let tree = LevelTree::new(&shape);
            let mut engine = values.clone();
            tree.zero_round_in_place(&mut engine);
            assert_same_bits(&engine, &reference, &format!("k={k} ℓ={height}"));
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
            let reference = zero_then_round(&shape, &values);
            let mut engine = values;
            tree.zero_round_in_place(&mut engine);
            assert_same_bits(&engine, &reference, &format!("input {values:?}"));
        }
        // Node 1 subtree fully zeroed in the first two cases.
        let mut engine = [6.0, 0.0, 7.0, 2.0, 5.0, 4.0, 3.0];
        tree.zero_round_in_place(&mut engine);
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
            let split_path = zero_then_round(&shape, &values);
            let mut fused = values.clone();
            tree.zero_round_in_place(&mut fused);
            assert_same_bits(&fused, &split_path, &format!("k={k} ℓ={height}"));
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
            let mut fused = Vec::new();
            tree.infer_zero_round_into(&noisy, &mut fused);
            assert_same_bits(&fused, &separate, &format!("k={k} ℓ={height}"));
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
        use hc_mech::{Epsilon, HierarchicalQuery, LaplaceMechanism, QuerySequence};
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
                    expect_out.extend(out);
                    // The staged release at the same seed: evaluate, then
                    // add noise over the whole vector.
                    let mut noisy = Vec::new();
                    prepared.query().evaluate_into(&histogram, &mut noisy);
                    prepared
                        .noise()
                        .add_noise_with(backend, &mut seeds.rng(t as u64), &mut noisy);
                    assert_eq!(noisy.len(), nodes);
                    expect_noisy.extend(noisy);
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
    fn snapshot_sink_matches_the_trial_leaf_level_bit_for_bit() {
        use hc_data::{Domain, Interval};
        use hc_mech::{Epsilon, HierarchicalQuery, LaplaceMechanism};
        for (n, k) in [
            (1usize << 15 | 3, 2usize), // padded, multiple slabs (2^16 leaves)
            (50, 3),                    // padded, one slab
            (2, 8193),                  // one slab wider than TILE_LEAVES
            (1, 2),                     // a single-node tree
        ] {
            let counts: Vec<u64> = (0..n as u64).map(|i| i % 7).collect();
            let histogram = Histogram::from_counts(Domain::new("x", n).unwrap(), counts);
            let prepared = LaplaceMechanism::new(Epsilon::new(0.5).unwrap())
                .prepare(HierarchicalQuery::new(k), n);
            let shape = prepared.query().shape(n);
            let mut engine = BatchInference::for_shape(&shape);
            // A dirty snapshot of another size stands in for a recycled one.
            let mut snapshot = ConsistentSnapshot::from_leaves(&[f64::NAN; 5], 3);
            for seed in [5u64, 6] {
                let mut out = Vec::new();
                engine.release_and_infer(&prepared, &histogram, &mut rng_from_seed(seed), &mut out);
                let expect = ConsistentSnapshot::from_tree_values(&shape, &out, n);
                engine.release_and_infer_into_snapshot(
                    &prepared,
                    &histogram,
                    &mut rng_from_seed(seed),
                    &mut snapshot,
                );
                let what = format!("n={n} k={k} seed={seed}");
                let first_leaf = shape.first_leaf();
                assert_same_bits(&engine.values[..first_leaf], &out[..first_leaf], &what);
                assert_eq!(snapshot, expect, "{what}");
                for hi in 0..n {
                    let q = Interval::new(0, hi);
                    assert_eq!(
                        snapshot.answer(q).to_bits(),
                        expect.answer(q).to_bits(),
                        "{what} prefix {hi}"
                    );
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
