//! Histograms: unit-length counts over an ordered domain.

use crate::{Domain, Interval, Relation};

/// A histogram of unit-length counts — the true answer `L(I)` to the paper's
/// unit query sequence `L`.
///
/// This is the canonical in-memory representation of a dataset for the
/// estimators: `counts[i]` is `c([xᵢ])`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    domain: Domain,
    counts: Vec<u64>,
}

impl Histogram {
    /// Builds a histogram directly from counts.
    ///
    /// Panics if `counts.len() != domain.size()` (construction bug).
    pub fn from_counts(domain: Domain, counts: Vec<u64>) -> Self {
        assert_eq!(
            counts.len(),
            domain.size(),
            "count vector must cover the domain"
        );
        Self { domain, counts }
    }

    /// Computes the histogram of a relation by evaluating all unit counts.
    pub fn from_relation(relation: &Relation) -> Self {
        let mut counts = vec![0u64; relation.domain().size()];
        for &v in relation.records() {
            counts[v] += 1;
        }
        Self {
            domain: relation.domain().clone(),
            counts,
        }
    }

    /// The domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Number of bins `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when the domain has no bins (impossible by construction, but
    /// provided for idiomatic pairing with [`Histogram::len`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The unit counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The unit counts, mutable in place (the domain cannot change) — for
    /// owners that accumulate counts without rebuilding the histogram.
    pub fn counts_mut(&mut self) -> &mut [u64] {
        &mut self.counts
    }

    /// Unit counts as `f64` — the numeric form consumed by mechanisms.
    pub fn counts_f64(&self) -> Vec<f64> {
        self.counts.iter().map(|&c| c as f64).collect()
    }

    /// Total number of records.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The true range count over `interval`.
    pub fn range_count(&self, interval: Interval) -> u64 {
        self.counts[interval.lo()..=interval.hi()].iter().sum()
    }

    /// The *unattributed* histogram: the multiset of counts in sorted order —
    /// the true answer `S(I)` to the paper's sorted query sequence.
    pub fn sorted_counts(&self) -> Vec<u64> {
        let mut s = self.counts.clone();
        s.sort_unstable();
        s
    }

    /// Number of distinct count values `d` (the quantity driving Theorem 2).
    pub fn distinct_count_values(&self) -> usize {
        let mut s = self.sorted_counts();
        s.dedup();
        s.len()
    }

    /// Fraction of bins that are zero — the sparsity the universal-histogram
    /// experiments exploit.
    pub fn sparsity(&self) -> f64 {
        let zeros = self.counts.iter().filter(|&&c| c == 0).count();
        zeros as f64 / self.len() as f64
    }

    /// Zero-pads the histogram on the right up to `target` bins, renaming the
    /// domain. Used to embed arbitrary domains into complete k-ary trees.
    pub fn zero_padded(&self, target: usize) -> Histogram {
        assert!(target >= self.len(), "target smaller than histogram");
        if target == self.len() {
            return self.clone();
        }
        let mut counts = self.counts.clone();
        counts.resize(target, 0);
        let domain = Domain::new(format!("{}+pad", self.domain.name()), target)
            .expect("target > 0 because it is >= an existing domain");
        Histogram { domain, counts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Histogram {
        let d = Domain::new("src", 4).unwrap();
        Histogram::from_counts(d, vec![2, 0, 10, 2])
    }

    #[test]
    fn from_relation_matches_manual_counts() {
        let d = Domain::new("src", 4).unwrap();
        let r = Relation::from_records(d, vec![0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3]).unwrap();
        assert_eq!(Histogram::from_relation(&r), example());
    }

    #[test]
    fn totals_and_ranges() {
        let h = example();
        assert_eq!(h.total(), 14);
        assert_eq!(h.range_count(Interval::new(2, 3)), 12);
        assert_eq!(h.range_count(Interval::new(0, 0)), 2);
    }

    #[test]
    fn sorted_counts_is_the_unattributed_histogram() {
        // Paper Example 3: L(I) = ⟨2,0,10,2⟩, S(I) = ⟨0,2,2,10⟩.
        assert_eq!(example().sorted_counts(), vec![0, 2, 2, 10]);
    }

    #[test]
    fn distinct_values_and_sparsity() {
        let h = example();
        assert_eq!(h.distinct_count_values(), 3); // {0, 2, 10}
        assert!((h.sparsity() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_padding_preserves_prefix() {
        let h = example().zero_padded(8);
        assert_eq!(h.len(), 8);
        assert_eq!(&h.counts()[..4], &[2, 0, 10, 2]);
        assert_eq!(&h.counts()[4..], &[0, 0, 0, 0]);
        assert_eq!(h.total(), 14);
    }

    #[test]
    #[should_panic(expected = "cover the domain")]
    fn mismatched_counts_panic() {
        let d = Domain::new("x", 3).unwrap();
        let _ = Histogram::from_counts(d, vec![1, 2]);
    }
}
