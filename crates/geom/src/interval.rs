use crate::{GeomError, Scalar};

/// A closed one-dimensional interval `[lo, hi]` with `lo <= hi`.
///
/// Intervals are the per-dimension building block of extended objects: a
/// multidimensional extended object defines one interval per dimension
/// (instead of a single value, as a point would).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    lo: Scalar,
    hi: Scalar,
}

impl Interval {
    /// Creates an interval, validating `lo <= hi` and finiteness.
    pub fn new(lo: Scalar, hi: Scalar) -> Result<Self, GeomError> {
        if !lo.is_finite() || !hi.is_finite() || lo > hi {
            return Err(GeomError::InvalidInterval {
                detail: format!("lo={lo} hi={hi}"),
            });
        }
        Ok(Self { lo, hi })
    }

    /// Creates an interval without validation.
    ///
    /// In debug builds the invariant is still checked. Useful on hot paths
    /// where the bounds were already validated (e.g. decoding a store).
    #[inline]
    pub fn new_unchecked(lo: Scalar, hi: Scalar) -> Self {
        debug_assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
        Self { lo, hi }
    }

    /// A degenerate interval `[v, v]` (used to represent point coordinates).
    #[inline]
    pub fn point(v: Scalar) -> Self {
        Self::new_unchecked(v, v)
    }

    /// Lower bound.
    #[inline]
    pub fn lo(&self) -> Scalar {
        self.lo
    }

    /// Upper bound.
    #[inline]
    pub fn hi(&self) -> Scalar {
        self.hi
    }

    /// Interval length `hi - lo` (zero for point intervals).
    #[inline]
    pub fn length(&self) -> Scalar {
        self.hi - self.lo
    }

    /// Midpoint of the interval.
    #[inline]
    pub fn center(&self) -> Scalar {
        self.lo + 0.5 * (self.hi - self.lo)
    }

    /// Whether the two closed intervals share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Interval) -> bool {
        self.lo <= other.hi && self.hi >= other.lo
    }

    /// Whether `other` lies entirely inside `self`.
    #[inline]
    pub fn contains(&self, other: &Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Whether the scalar `v` lies inside the closed interval.
    #[inline]
    pub fn contains_point(&self, v: Scalar) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Smallest interval covering both `self` and `other`.
    #[inline]
    pub fn union(&self, other: &Interval) -> Interval {
        Interval::new_unchecked(self.lo.min(other.lo), self.hi.max(other.hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_validates_order_and_finiteness() {
        assert!(Interval::new(0.2, 0.1).is_err());
        assert!(Interval::new(Scalar::NAN, 0.5).is_err());
        assert!(Interval::new(0.0, Scalar::INFINITY).is_err());
        let i = Interval::new(0.25, 0.75).unwrap();
        assert_eq!(i.lo(), 0.25);
        assert_eq!(i.hi(), 0.75);
    }

    #[test]
    fn point_interval_has_zero_length() {
        let p = Interval::point(0.4);
        assert_eq!(p.length(), 0.0);
        assert!(p.contains_point(0.4));
        assert!(!p.contains_point(0.40001));
    }

    #[test]
    fn intersects_handles_touching_endpoints() {
        let a = Interval::new(0.0, 0.5).unwrap();
        let b = Interval::new(0.5, 1.0).unwrap();
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        let c = Interval::new(0.6, 1.0).unwrap();
        assert!(!a.intersects(&c));
    }

    #[test]
    fn contains_is_reflexive_and_antisymmetric_on_proper_subsets() {
        let outer = Interval::new(0.1, 0.9).unwrap();
        let inner = Interval::new(0.2, 0.8).unwrap();
        assert!(outer.contains(&outer));
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
    }

    #[test]
    fn union_covers_both() {
        let a = Interval::new(0.1, 0.3).unwrap();
        let b = Interval::new(0.6, 0.8).unwrap();
        let u = a.union(&b);
        assert_eq!(u.lo(), 0.1);
        assert_eq!(u.hi(), 0.8);
    }

    #[test]
    fn center_is_midpoint() {
        let i = Interval::new(0.2, 0.6).unwrap();
        assert!((i.center() - 0.4).abs() < 1e-6);
    }

    fn interval_strategy() -> impl Strategy<Value = Interval> {
        (0.0f32..=1.0, 0.0f32..=1.0).prop_map(|(a, b)| {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            Interval::new_unchecked(lo, hi)
        })
    }

    proptest! {
        #[test]
        fn prop_intersects_symmetric(a in interval_strategy(), b in interval_strategy()) {
            prop_assert_eq!(a.intersects(&b), b.intersects(&a));
        }

        #[test]
        fn prop_contains_implies_intersects(a in interval_strategy(), b in interval_strategy()) {
            if a.contains(&b) {
                prop_assert!(a.intersects(&b));
            }
        }

        #[test]
        fn prop_union_contains_both(a in interval_strategy(), b in interval_strategy()) {
            let u = a.union(&b);
            prop_assert!(u.contains(&a));
            prop_assert!(u.contains(&b));
        }

        #[test]
        fn prop_contains_point_endpoints(a in interval_strategy()) {
            prop_assert!(a.contains_point(a.lo()));
            prop_assert!(a.contains_point(a.hi()));
        }
    }
}
