//! Ordered domains and intervals over them.

use crate::DataError;

/// An ordered, finite domain for the histogram's range attribute.
///
/// Domain elements are identified by their index `0..size`; the paper's
/// `dom = ⟨x₁ … xₙ⟩` maps to indices `0..n`. A human-readable name is kept
/// for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domain {
    name: String,
    size: usize,
}

impl Domain {
    /// Creates a domain with `size` ordered elements.
    pub fn new(name: impl Into<String>, size: usize) -> Result<Self, DataError> {
        if size == 0 {
            return Err(DataError::EmptyDomain);
        }
        Ok(Self {
            name: name.into(),
            size,
        })
    }

    /// The domain's label (e.g. `"src"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of elements.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The full interval `[0, size-1]`.
    pub fn full_interval(&self) -> Interval {
        Interval {
            lo: 0,
            hi: self.size - 1,
        }
    }

    /// Validates and builds an interval `[lo, hi]` (inclusive).
    pub fn interval(&self, lo: usize, hi: usize) -> Result<Interval, DataError> {
        if lo > hi || hi >= self.size {
            return Err(DataError::InvalidInterval {
                lo,
                hi,
                domain: self.size,
            });
        }
        Ok(Interval { lo, hi })
    }

    /// The unit interval `[x, x]`.
    pub fn unit(&self, x: usize) -> Result<Interval, DataError> {
        self.interval(x, x)
    }
}

/// A closed interval `[lo, hi]` of domain indices — the paper's `c([x, y])`
/// predicate range.
///
/// # Range-vocabulary convention
///
/// The workspace has exactly two range types and one conversion boundary:
///
/// * `Interval` (this type) — **inclusive** `[lo, hi]`, structurally
///   non-empty. The inference engines and the subtree folds speak only
///   this.
/// * [`RangeQuery`](crate::RangeQuery) — **half-open** `[lo, hi)`, empties
///   allowed. The service boundary speaks only that, and every prefix read
///   answers through it: an `Interval` enters as `[lo, hi + 1)`.
///
/// All conversions route through [`Interval::half_open`] /
/// [`Interval::to_half_open`] (`RangeQuery`'s `From<Interval>` and
/// `to_interval` delegate here), so the `hi − 1` / `hi + 1` arithmetic
/// lives in exactly one audited place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    lo: usize,
    hi: usize,
}

impl Interval {
    /// Creates an interval without domain validation (bounds must satisfy
    /// `lo <= hi`). Prefer [`Domain::interval`] where a domain is at hand.
    pub fn new(lo: usize, hi: usize) -> Self {
        assert!(lo <= hi, "interval bounds reversed: [{lo}, {hi}]");
        Self { lo, hi }
    }

    /// Builds the inclusive interval covering the half-open range
    /// `[lo, hi)` — `None` when the range is empty (`lo == hi`), since
    /// intervals are structurally non-empty.
    ///
    /// # Panics
    ///
    /// If `lo > hi` (reversed half-open bounds are malformed, not empty).
    pub fn half_open(lo: usize, hi: usize) -> Option<Self> {
        assert!(lo <= hi, "half-open bounds reversed: [{lo}, {hi})");
        (lo < hi).then(|| Self { lo, hi: hi - 1 })
    }

    /// This interval as half-open `(lo, hi_exclusive)` bounds. The one
    /// interval with no half-open form, `hi == usize::MAX`, keeps
    /// `usize::MAX` as its exclusive bound: past every domain (none can
    /// hold that many bins), so a read refuses it as out of range instead
    /// of wrapping it to an empty range.
    #[inline]
    pub fn to_half_open(&self) -> (usize, usize) {
        (self.lo, self.hi.saturating_add(1))
    }

    /// Inclusive lower bound.
    #[inline]
    pub fn lo(&self) -> usize {
        self.lo
    }

    /// Inclusive upper bound.
    #[inline]
    pub fn hi(&self) -> usize {
        self.hi
    }

    /// Number of domain elements covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.hi - self.lo + 1
    }

    /// Intervals are never empty; provided for clippy-idiomatic pairing with
    /// [`Interval::len`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `x` lies inside.
    #[inline]
    pub fn contains(&self, x: usize) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Whether `other` is fully inside `self`.
    pub fn covers(&self, other: &Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Intersection, if non-empty.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }
}

impl core::fmt::Display for Interval {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_domain() {
        assert_eq!(Domain::new("x", 0), Err(DataError::EmptyDomain));
    }

    #[test]
    fn half_open_round_trips_and_rejects_empties() {
        let i = Interval::half_open(2, 6).unwrap();
        assert_eq!(i, Interval::new(2, 5));
        assert_eq!(i.to_half_open(), (2, 6));
        assert_eq!(Interval::half_open(4, 4), None);
        assert_eq!(Interval::half_open(0, 1), Some(Interval::new(0, 0)));
    }

    #[test]
    #[should_panic(expected = "half-open bounds reversed")]
    fn half_open_rejects_reversed_bounds() {
        let _ = Interval::half_open(5, 2);
    }

    #[test]
    fn interval_validation() {
        let d = Domain::new("src", 4).unwrap();
        assert!(d.interval(0, 3).is_ok());
        assert!(d.interval(2, 1).is_err());
        assert!(d.interval(0, 4).is_err());
        assert_eq!(d.full_interval(), Interval::new(0, 3));
    }

    #[test]
    fn interval_len_and_contains() {
        let i = Interval::new(2, 5);
        assert_eq!(i.len(), 4);
        assert!(i.contains(2) && i.contains(5));
        assert!(!i.contains(1) && !i.contains(6));
        assert!(!i.is_empty());
    }

    #[test]
    fn unit_interval() {
        let d = Domain::new("x", 10).unwrap();
        let u = d.unit(7).unwrap();
        assert_eq!((u.lo(), u.hi(), u.len()), (7, 7, 1));
    }

    #[test]
    fn covers_and_intersect() {
        let outer = Interval::new(0, 7);
        let inner = Interval::new(2, 5);
        assert!(outer.covers(&inner));
        assert!(!inner.covers(&outer));
        assert_eq!(inner.intersect(&outer), Some(inner));
        assert_eq!(
            Interval::new(0, 3).intersect(&Interval::new(2, 6)),
            Some(Interval::new(2, 3))
        );
        assert_eq!(Interval::new(0, 1).intersect(&Interval::new(3, 4)), None);
    }

    #[test]
    #[should_panic(expected = "reversed")]
    fn reversed_bounds_panic() {
        let _ = Interval::new(3, 2);
    }
}
