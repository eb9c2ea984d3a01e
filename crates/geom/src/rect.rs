use crate::{GeomError, Interval, Scalar};

/// A multidimensional extended object: one closed interval per dimension.
///
/// Also called *hyper-interval* or *hyper-rectangle* in the paper. Points
/// are representable as degenerate rectangles (zero-length intervals), but
/// the system is designed for objects with real extensions.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperRect {
    intervals: Box<[Interval]>,
}

impl HyperRect {
    /// Builds a rectangle from per-dimension intervals.
    pub fn new(intervals: Vec<Interval>) -> Result<Self, GeomError> {
        if intervals.is_empty() {
            return Err(GeomError::EmptyRect);
        }
        Ok(Self {
            intervals: intervals.into_boxed_slice(),
        })
    }

    /// Builds a rectangle from parallel lower/upper bound slices.
    pub fn from_bounds(lo: &[Scalar], hi: &[Scalar]) -> Result<Self, GeomError> {
        if lo.len() != hi.len() {
            return Err(GeomError::DimensionMismatch {
                left: lo.len(),
                right: hi.len(),
            });
        }
        let mut intervals = Vec::with_capacity(lo.len());
        for (&l, &h) in lo.iter().zip(hi) {
            intervals.push(Interval::new(l, h)?);
        }
        Self::new(intervals)
    }

    /// Builds a rectangle from a flat `[lo0, hi0, lo1, hi1, …]` slice —
    /// the storage layout used by cluster segments.
    pub fn from_flat(coords: &[Scalar]) -> Result<Self, GeomError> {
        if !coords.len().is_multiple_of(2) {
            return Err(GeomError::OddCoordinateCount { len: coords.len() });
        }
        let mut intervals = Vec::with_capacity(coords.len() / 2);
        for pair in coords.chunks_exact(2) {
            intervals.push(Interval::new(pair[0], pair[1])?);
        }
        Self::new(intervals)
    }

    /// A degenerate rectangle representing a point.
    pub fn from_point(point: &[Scalar]) -> Result<Self, GeomError> {
        if point.is_empty() {
            return Err(GeomError::EmptyRect);
        }
        let mut intervals = Vec::with_capacity(point.len());
        for &p in point {
            intervals.push(Interval::new(p, p)?);
        }
        Self::new(intervals)
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.intervals.len()
    }

    /// The interval in dimension `d`.
    #[inline]
    pub fn interval(&self, d: usize) -> &Interval {
        &self.intervals[d]
    }

    /// All intervals, one per dimension.
    #[inline]
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Whether the two rectangles share at least one point in every
    /// dimension (spatial *intersection*).
    pub fn intersects(&self, other: &HyperRect) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        self.intervals
            .iter()
            .zip(other.intervals.iter())
            .all(|(a, b)| a.intersects(b))
    }

    /// Whether `other` lies entirely inside `self` (`other ⊆ self`).
    pub fn contains(&self, other: &HyperRect) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        self.intervals
            .iter()
            .zip(other.intervals.iter())
            .all(|(a, b)| a.contains(b))
    }

    /// Whether the point lies inside the rectangle (closed bounds).
    pub fn contains_point(&self, point: &[Scalar]) -> bool {
        debug_assert_eq!(self.dims(), point.len());
        self.intervals
            .iter()
            .zip(point.iter())
            .all(|(i, &p)| i.contains_point(p))
    }

    /// Sum of interval lengths — the *margin* used by the R*-tree split.
    pub fn margin(&self) -> f64 {
        self.intervals.iter().map(|i| i.length() as f64).sum()
    }

    /// Smallest rectangle covering both inputs.
    pub fn union(&self, other: &HyperRect) -> HyperRect {
        debug_assert_eq!(self.dims(), other.dims());
        let intervals = self
            .intervals
            .iter()
            .zip(other.intervals.iter())
            .map(|(a, b)| a.union(b))
            .collect::<Vec<_>>();
        HyperRect {
            intervals: intervals.into_boxed_slice(),
        }
    }

    /// Appends the flat `[lo0, hi0, …]` coordinates to `out`.
    pub fn write_flat(&self, out: &mut Vec<Scalar>) {
        out.reserve(self.intervals.len() * 2);
        for i in self.intervals.iter() {
            out.push(i.lo());
            out.push(i.hi());
        }
    }

    /// Returns the flat coordinates as a fresh vector.
    pub fn to_flat(&self) -> Vec<Scalar> {
        let mut v = Vec::with_capacity(self.dims() * 2);
        self.write_flat(&mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rect(lo: &[Scalar], hi: &[Scalar]) -> HyperRect {
        HyperRect::from_bounds(lo, hi).unwrap()
    }

    #[test]
    fn new_rejects_empty() {
        assert_eq!(HyperRect::new(vec![]).unwrap_err(), GeomError::EmptyRect);
    }

    #[test]
    fn from_bounds_rejects_mismatched_lengths() {
        let err = HyperRect::from_bounds(&[0.0], &[1.0, 1.0]).unwrap_err();
        assert_eq!(err, GeomError::DimensionMismatch { left: 1, right: 2 });
    }

    #[test]
    fn from_flat_roundtrip() {
        let r = rect(&[0.1, 0.2, 0.3], &[0.4, 0.5, 0.6]);
        let flat = r.to_flat();
        assert_eq!(flat, vec![0.1, 0.4, 0.2, 0.5, 0.3, 0.6]);
        let r2 = HyperRect::from_flat(&flat).unwrap();
        assert_eq!(r, r2);
    }

    #[test]
    fn from_flat_rejects_odd_length() {
        assert!(matches!(
            HyperRect::from_flat(&[0.0, 1.0, 0.5]),
            Err(GeomError::OddCoordinateCount { len: 3 })
        ));
    }

    #[test]
    fn intersects_requires_overlap_in_all_dims() {
        let a = rect(&[0.0, 0.0], &[0.5, 0.5]);
        let b = rect(&[0.4, 0.4], &[0.9, 0.9]);
        assert!(a.intersects(&b));
        // Disjoint in the second dimension only.
        let c = rect(&[0.4, 0.6], &[0.9, 0.9]);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn containment_is_per_dimension() {
        let outer = rect(&[0.0, 0.0], &[1.0, 0.5]);
        let inner = rect(&[0.1, 0.1], &[0.9, 0.4]);
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        // Sticking out in one dimension breaks containment.
        let poking = rect(&[0.1, 0.1], &[0.9, 0.6]);
        assert!(!outer.contains(&poking));
    }

    #[test]
    fn contains_point_closed_bounds() {
        let r = rect(&[0.25, 0.25], &[0.75, 0.75]);
        assert!(r.contains_point(&[0.25, 0.75]));
        assert!(r.contains_point(&[0.5, 0.5]));
        assert!(!r.contains_point(&[0.76, 0.5]));
    }

    #[test]
    fn volume_and_margin() {
        let r = rect(&[0.0, 0.0], &[0.5, 0.25]);
        assert!((r.margin() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn point_rect_is_degenerate() {
        let p = HyperRect::from_point(&[0.3, 0.7]).unwrap();
        assert_eq!(p.margin(), 0.0);
        assert!(p.contains_point(&[0.3, 0.7]));
    }

    fn rect_strategy(dims: usize) -> impl Strategy<Value = HyperRect> {
        prop::collection::vec((0.0f32..=1.0, 0.0f32..=1.0), dims).prop_map(|pairs| {
            let mut intervals = Vec::with_capacity(pairs.len());
            for (a, b) in pairs {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                intervals.push(Interval::new_unchecked(lo, hi));
            }
            HyperRect::new(intervals).unwrap()
        })
    }

    proptest! {
        #[test]
        fn prop_intersects_symmetric(a in rect_strategy(3), b in rect_strategy(3)) {
            prop_assert_eq!(a.intersects(&b), b.intersects(&a));
        }

        #[test]
        fn prop_union_contains_operands(a in rect_strategy(3), b in rect_strategy(3)) {
            let u = a.union(&b);
            prop_assert!(u.contains(&a));
            prop_assert!(u.contains(&b));
        }

        #[test]
        fn prop_contains_implies_intersects(a in rect_strategy(3), b in rect_strategy(3)) {
            if a.contains(&b) {
                prop_assert!(a.intersects(&b));
            }
        }

        #[test]
        fn prop_flat_roundtrip(a in rect_strategy(5)) {
            let r = HyperRect::from_flat(&a.to_flat()).unwrap();
            prop_assert_eq!(a, r);
        }
    }
}
