//! Shared test assertions and reference oracles for the workspace.
//!
//! Every crate's test suite compares floating-point vectors against
//! references (closed forms vs generic solvers, engine vs oracle, snapshot
//! vectors). This dev-dependency crate holds the one canonical
//! [`assert_close`] so the helper is not re-declared per test module and
//! every suite reports mismatches the same way, and the [`oracle`]s: the
//! paper's per-node formulas, which the shipped engines must reproduce but
//! never call.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

mod hier;
mod minmax;
mod weighted;

/// The reference oracles, written close to the paper's notation: per-node
/// weights, index arithmetic and fresh vectors per call. The engine in
/// `hc-core` is pinned to them bit for bit (uniform and GLS tables, the
/// zero/round sweep) and PAVA within rounding; they are checked in turn
/// against `hc-linalg`'s generic least-squares solves.
pub mod oracle {
    pub use crate::hier::{enforce_nonnegativity, hierarchical_inference};
    pub use crate::minmax::{minmax_reference, minmax_reference_dual};
    pub use crate::weighted::weighted_hierarchical_inference;
}

/// Asserts `a` and `b` have equal length and agree element-wise within
/// `tol` (absolute). Panics with the first offending position and both
/// values.
#[track_caller]
pub fn assert_close(a: &[f64], b: &[f64], tol: f64) {
    assert_eq!(
        a.len(),
        b.len(),
        "length mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() < tol,
            "position {i}: {x} vs {y} (|Δ| = {:.3e}, tol = {tol:.3e})",
            (x - y).abs()
        );
    }
}

/// Asserts two scalars agree within `tol` (absolute).
#[track_caller]
pub fn assert_close_scalar(x: f64, y: f64, tol: f64) {
    assert!(
        (x - y).abs() < tol,
        "{x} vs {y} (|Δ| = {:.3e}, tol = {tol:.3e})",
        (x - y).abs()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_close_vectors() {
        assert_close(&[1.0, 2.0], &[1.0 + 1e-12, 2.0 - 1e-12], 1e-9);
        assert_close_scalar(3.0, 3.0 + 1e-10, 1e-9);
    }

    #[test]
    #[should_panic(expected = "position 1")]
    fn reports_the_offending_position() {
        assert_close(&[1.0, 2.0, 3.0], &[1.0, 2.5, 3.0], 1e-9);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_length_mismatch() {
        assert_close(&[1.0], &[1.0, 2.0], 1e-9);
    }
}
