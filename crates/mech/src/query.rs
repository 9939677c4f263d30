//! The query-sequence abstraction.

use std::borrow::Cow;

use hc_data::Histogram;

/// A sequence of counting queries `Q = ⟨q₁, …, q_d⟩` over a histogram's
/// domain (Sec. 2 of the paper).
///
/// Implementations must be *pure*: `evaluate` depends only on the histogram,
/// and `sensitivity` is the analytic worst case
/// `max ‖Q(I) − Q(I′)‖₁` over neighbouring databases (Definition 2.2). The
/// test suite checks the analytic value against [`crate::empirical_sensitivity`].
pub trait QuerySequence {
    /// Number of answers produced for a histogram over `domain_size` bins.
    fn output_len(&self, domain_size: usize) -> usize;

    /// Evaluates the true answers `Q(I)`.
    fn evaluate(&self, histogram: &Histogram) -> Vec<f64>;

    /// Evaluates `Q(I)` into a caller-owned buffer.
    ///
    /// `out` is cleared and resized to [`Self::output_len`]; once its
    /// capacity has warmed up, implementations that override this method
    /// allocate nothing (the default delegates to [`Self::evaluate`] and is
    /// *not* allocation-free). The values written must be bit-identical to
    /// [`Self::evaluate`]'s.
    fn evaluate_into(&self, histogram: &Histogram, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&self.evaluate(histogram));
    }

    /// The L1 sensitivity `Δ_Q`.
    fn sensitivity(&self, domain_size: usize) -> f64;

    /// A short strategy label used in reports (e.g. `"L"`, `"S"`, `"H2"`).
    ///
    /// Returned as a `Cow` so the common strategies are `&'static str`s and
    /// per-release label construction costs nothing.
    fn label(&self) -> Cow<'static, str>;
}
