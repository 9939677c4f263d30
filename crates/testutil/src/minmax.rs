//! Theorem 1's min-max characterization of isotonic regression, evaluated
//! directly in O(n²) — the executable specification the linear-time PAVA
//! path (`hc_core::isotonic_regression`) is tested against.
//!
//! For the noisy sorted release `s̃`, the constrained-inference answer is
//! `s̄[k] = L_k = U_k` with
//! `L_k = min_{j ∈ [k,n]} max_{i ∈ [1,j]} M̃[i,j]` and
//! `U_k = max_{i ∈ [1,k]} min_{j ∈ [i,n]} M̃[i,j]`, where `M̃[i,j]` is the
//! mean of `s̃[i..=j]`.

/// Direct evaluation of Theorem 1's min-max formula (`L_k` form), O(n²).
///
/// Uses prefix sums so each subsequence mean `M̃[i,j]` is O(1); for each `j`
/// the inner `max_{i ≤ j} M̃[i,j]` is accumulated in one backward sweep, and
/// the outer `min_{j ≥ k}` is a suffix minimum. Not intended for large
/// inputs.
pub fn minmax_reference(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    if n == 0 {
        return Vec::new();
    }
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0.0);
    for &v in values {
        prefix.push(prefix.last().expect("non-empty") + v);
    }
    let mean = |i: usize, j: usize| (prefix[j + 1] - prefix[i]) / (j - i + 1) as f64;

    // max_mean_ending_at[j] = max over i <= j of mean(i, j).
    let mut max_mean_ending_at = vec![0.0f64; n];
    for (j, slot) in max_mean_ending_at.iter_mut().enumerate() {
        let mut best = f64::NEG_INFINITY;
        for i in (0..=j).rev() {
            best = best.max(mean(i, j));
        }
        *slot = best;
    }

    // L_k = min over j >= k of max_mean_ending_at[j]: suffix minimum.
    let mut out = vec![0.0f64; n];
    let mut suffix_min = f64::INFINITY;
    for k in (0..n).rev() {
        suffix_min = suffix_min.min(max_mean_ending_at[k]);
        out[k] = suffix_min;
    }
    out
}

/// The dual `U_k = max_{i ∈ [1,k]} min_{j ∈ [i,n]} M̃[i,j]` form of
/// Theorem 1. Theorem 1 asserts `L_k = U_k`; tests verify both against PAVA.
pub fn minmax_reference_dual(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    if n == 0 {
        return Vec::new();
    }
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0.0);
    for &v in values {
        prefix.push(prefix.last().expect("non-empty") + v);
    }
    let mean = |i: usize, j: usize| (prefix[j + 1] - prefix[i]) / (j - i + 1) as f64;

    // min_mean_starting_at[i] = min over j >= i of mean(i, j).
    let mut min_mean_starting_at = vec![0.0f64; n];
    for (i, slot) in min_mean_starting_at.iter_mut().enumerate() {
        let mut best = f64::INFINITY;
        for j in i..n {
            best = best.min(mean(i, j));
        }
        *slot = best;
    }

    let mut out = vec![0.0f64; n];
    let mut prefix_max = f64::NEG_INFINITY;
    for k in 0..n {
        prefix_max = prefix_max.max(min_mean_starting_at[k]);
        out[k] = prefix_max;
    }
    out
}
