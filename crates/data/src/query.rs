//! The half-open range query every prefix read answers.
//!
//! [`Interval`] is *structurally non-empty* (its constructor asserts
//! `lo <= hi` over inclusive bounds), which is the right invariant for the
//! inference engines but leaves a long-lived service no way to express "a
//! client asked for nothing". [`RangeQuery`] is the half-open `[lo, hi)`
//! form: empty ranges are representable (`lo == hi`) and answered exactly
//! (a sum over nothing is `0.0`). A prefix read answers either type through
//! one conversion, `Into<RangeQuery>`, as `prefix[hi] − prefix[lo]`.
//!
//! # Range-vocabulary convention
//!
//! Inclusive ↔ half-open conversions go through exactly one audited path:
//! [`Interval::half_open`] and [`Interval::to_half_open`]. This module's
//! `From<Interval>` impl and [`RangeQuery::to_interval`] delegate there —
//! no `±1` arithmetic is performed here.

use crate::Interval;

/// A half-open range query `[lo, hi)` over histogram bins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RangeQuery {
    lo: usize,
    hi: usize,
}

impl RangeQuery {
    /// The query `[lo, hi)`. Empty when `lo == hi`.
    ///
    /// # Panics
    ///
    /// If `lo > hi` — malformed on any domain, unlike out-of-domain bounds,
    /// which a reader checks against its own domain (the service reports
    /// them per tenant as a typed error).
    pub fn new(lo: usize, hi: usize) -> Self {
        assert!(lo <= hi, "range query bounds out of order");
        Self { lo, hi }
    }

    /// Inclusive lower bound.
    #[inline]
    pub fn lo(&self) -> usize {
        self.lo
    }

    /// Exclusive upper bound.
    #[inline]
    pub fn hi(&self) -> usize {
        self.hi
    }

    /// Number of bins covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// Whether the query covers no bins.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// Lowers to the inclusive [`Interval`]; `None` when empty.
    #[inline]
    pub fn to_interval(self) -> Option<Interval> {
        Interval::half_open(self.lo, self.hi)
    }
}

impl From<Interval> for RangeQuery {
    /// The inclusive interval `[lo, hi]`, as a half-open `[lo, hi + 1)`.
    #[inline]
    fn from(interval: Interval) -> Self {
        let (lo, hi) = interval.to_half_open();
        Self { lo, hi }
    }
}

impl core::fmt::Display for RangeQuery {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}, {})", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_with_interval() {
        let q = RangeQuery::from(Interval::new(2, 5));
        assert_eq!((q.lo(), q.hi(), q.len()), (2, 6, 4));
        assert_eq!(q.to_interval(), Some(Interval::new(2, 5)));
        assert_eq!(RangeQuery::new(3, 3).to_interval(), None);
        // The one inclusive interval with no half-open form stays past
        // every domain instead of wrapping to an empty query.
        let top = RangeQuery::from(Interval::new(0, usize::MAX));
        assert_eq!((top.hi(), top.is_empty()), (usize::MAX, false));
    }

    #[test]
    fn empty_queries_are_representable() {
        let q = RangeQuery::new(3, 3);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.to_interval(), None);
        // Empty at the domain origin too.
        assert_eq!(RangeQuery::new(0, 0).to_interval(), None);
    }

    #[test]
    #[should_panic(expected = "bounds out of order")]
    fn inverted_bounds_are_rejected() {
        let _ = RangeQuery::new(4, 2);
    }
}
