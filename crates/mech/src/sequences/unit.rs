//! The unit-length query sequence `L`.

use std::borrow::Cow;

use hc_data::Histogram;

use crate::QuerySequence;

/// The conventional strategy `L = ⟨c([x₁]), …, c([xₙ])⟩`: one counting query
/// per domain element (Sec. 2).
///
/// Sensitivity is 1 (Example 2): adding or removing a record changes exactly
/// one count by exactly one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitQuery;

impl QuerySequence for UnitQuery {
    fn output_len(&self, domain_size: usize) -> usize {
        domain_size
    }

    fn evaluate(&self, histogram: &Histogram) -> Vec<f64> {
        histogram.counts_f64()
    }

    fn evaluate_into(&self, histogram: &Histogram, out: &mut Vec<f64>) {
        out.clear();
        out.extend(histogram.counts().iter().map(|&c| c as f64));
    }

    fn sensitivity(&self, _domain_size: usize) -> f64 {
        1.0
    }

    fn label(&self) -> Cow<'static, str> {
        Cow::Borrowed("L")
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
    fn evaluates_to_unit_counts() {
        // Example 1: L(I) = ⟨2, 0, 10, 2⟩.
        assert_eq!(UnitQuery.evaluate(&example()), vec![2.0, 0.0, 10.0, 2.0]);
    }

    #[test]
    fn shape_and_sensitivity() {
        assert_eq!(UnitQuery.output_len(4), 4);
        assert_eq!(UnitQuery.sensitivity(4), 1.0);
        assert_eq!(UnitQuery.label(), "L");
    }
}
