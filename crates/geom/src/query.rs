use crate::{HyperRect, Scalar};

/// Result of verifying one object against a query, with early-exit cost
/// accounting.
///
/// The paper observes (footnote 4) that Sequential Scan rejects an object
/// as soon as one dimension fails the selection predicate, so the amount of
/// *verified data* depends on the query selectivity. `dims_checked` is the
/// number of dimensions actually inspected; callers convert it into bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchOutcome {
    /// Whether the object satisfies the query.
    pub matched: bool,
    /// Number of dimensions inspected before acceptance or rejection.
    pub dims_checked: u32,
}

/// A spatial selection: a query object plus the requested relation
/// (or a point for point-enclosing queries).
///
/// ```
/// use acx_geom::{HyperRect, SpatialQuery};
/// let q = SpatialQuery::point_enclosing(vec![0.5, 0.5]);
/// let obj = HyperRect::from_bounds(&[0.4, 0.0], &[0.6, 1.0]).unwrap();
/// assert!(q.matches_rect(&obj));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum SpatialQuery {
    /// Find objects intersecting the window.
    Intersection(HyperRect),
    /// Find objects contained in the window.
    Containment(HyperRect),
    /// Find objects enclosing the window.
    Enclosure(HyperRect),
    /// Find objects containing the point (best case for the index:
    /// high selectivity, see paper §7.2).
    PointEnclosing(Box<[Scalar]>),
}

impl SpatialQuery {
    /// Intersection query over `window`.
    pub fn intersection(window: HyperRect) -> Self {
        SpatialQuery::Intersection(window)
    }

    /// Containment query over `window`.
    pub fn containment(window: HyperRect) -> Self {
        SpatialQuery::Containment(window)
    }

    /// Enclosure query over `window`.
    pub fn enclosure(window: HyperRect) -> Self {
        SpatialQuery::Enclosure(window)
    }

    /// Point-enclosing query at `point`.
    pub fn point_enclosing(point: Vec<Scalar>) -> Self {
        SpatialQuery::PointEnclosing(point.into_boxed_slice())
    }

    /// Dimensionality of the query object.
    pub fn dims(&self) -> usize {
        match self {
            SpatialQuery::Intersection(r)
            | SpatialQuery::Containment(r)
            | SpatialQuery::Enclosure(r) => r.dims(),
            SpatialQuery::PointEnclosing(p) => p.len(),
        }
    }

    /// Verifies a materialized rectangle against the query.
    pub fn matches_rect(&self, object: &HyperRect) -> bool {
        match self {
            SpatialQuery::Intersection(q) => object.intersects(q),
            SpatialQuery::Containment(q) => q.contains(object),
            SpatialQuery::Enclosure(q) => object.contains(q),
            SpatialQuery::PointEnclosing(p) => object.contains_point(p),
        }
    }

    /// Verifies an object stored as flat `[lo0, hi0, lo1, hi1, …]`
    /// coordinates, with early exit on the first failing dimension.
    ///
    /// This is the hot verification path used by every access method
    /// (cluster exploration, sequential scan, R*-tree leaf check); the
    /// returned [`MatchOutcome::dims_checked`] feeds byte-level cost
    /// accounting.
    #[inline]
    pub fn matches_flat(&self, coords: &[Scalar]) -> MatchOutcome {
        debug_assert_eq!(coords.len(), self.dims() * 2);
        let mut checked = 0u32;
        let matched = match self {
            SpatialQuery::Intersection(q) => {
                let mut ok = true;
                for (d, pair) in coords.chunks_exact(2).enumerate() {
                    checked += 1;
                    let qi = q.interval(d);
                    // object [a,b] intersects query [qlo,qhi] iff a<=qhi && b>=qlo
                    if !(pair[0] <= qi.hi() && pair[1] >= qi.lo()) {
                        ok = false;
                        break;
                    }
                }
                ok
            }
            SpatialQuery::Containment(q) => {
                let mut ok = true;
                for (d, pair) in coords.chunks_exact(2).enumerate() {
                    checked += 1;
                    let qi = q.interval(d);
                    if !(pair[0] >= qi.lo() && pair[1] <= qi.hi()) {
                        ok = false;
                        break;
                    }
                }
                ok
            }
            SpatialQuery::Enclosure(q) => {
                let mut ok = true;
                for (d, pair) in coords.chunks_exact(2).enumerate() {
                    checked += 1;
                    let qi = q.interval(d);
                    if !(pair[0] <= qi.lo() && pair[1] >= qi.hi()) {
                        ok = false;
                        break;
                    }
                }
                ok
            }
            SpatialQuery::PointEnclosing(p) => {
                let mut ok = true;
                for (pair, &v) in coords.chunks_exact(2).zip(p.iter()) {
                    checked += 1;
                    if !(pair[0] <= v && v <= pair[1]) {
                        ok = false;
                        break;
                    }
                }
                ok
            }
        };
        MatchOutcome {
            matched,
            dims_checked: checked,
        }
    }

    /// The query window as a rectangle (point queries yield a degenerate
    /// rectangle) — used by baselines that reason over MBBs.
    pub fn window(&self) -> HyperRect {
        match self {
            SpatialQuery::Intersection(r)
            | SpatialQuery::Containment(r)
            | SpatialQuery::Enclosure(r) => r.clone(),
            SpatialQuery::PointEnclosing(p) => {
                HyperRect::from_point(p).expect("point query is non-empty")
            }
        }
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
    fn intersection_semantics() {
        let q = SpatialQuery::intersection(rect(&[0.4, 0.4], &[0.6, 0.6]));
        assert!(q.matches_rect(&rect(&[0.5, 0.5], &[0.9, 0.9])));
        assert!(q.matches_rect(&rect(&[0.0, 0.0], &[0.4, 0.4]))); // touching
        assert!(!q.matches_rect(&rect(&[0.7, 0.0], &[0.9, 1.0])));
    }

    #[test]
    fn containment_semantics() {
        let q = SpatialQuery::containment(rect(&[0.2, 0.2], &[0.8, 0.8]));
        assert!(q.matches_rect(&rect(&[0.3, 0.3], &[0.7, 0.7])));
        assert!(q.matches_rect(&rect(&[0.2, 0.2], &[0.8, 0.8]))); // equal
        assert!(!q.matches_rect(&rect(&[0.1, 0.3], &[0.7, 0.7])));
    }

    #[test]
    fn enclosure_semantics() {
        let q = SpatialQuery::enclosure(rect(&[0.45, 0.45], &[0.55, 0.55]));
        assert!(q.matches_rect(&rect(&[0.4, 0.4], &[0.6, 0.6])));
        assert!(!q.matches_rect(&rect(&[0.5, 0.4], &[0.6, 0.6])));
    }

    #[test]
    fn point_enclosing_semantics() {
        let q = SpatialQuery::point_enclosing(vec![0.5, 0.5]);
        assert!(q.matches_rect(&rect(&[0.5, 0.0], &[0.5, 1.0]))); // boundary
        assert!(!q.matches_rect(&rect(&[0.6, 0.0], &[0.9, 1.0])));
    }

    #[test]
    fn flat_matching_agrees_with_rect_matching() {
        let q = SpatialQuery::intersection(rect(&[0.3, 0.3], &[0.7, 0.7]));
        let obj = rect(&[0.1, 0.5], &[0.2, 0.9]);
        let outcome = q.matches_flat(&obj.to_flat());
        assert_eq!(outcome.matched, q.matches_rect(&obj));
        // First dimension fails (0.1..0.2 vs 0.3..0.7) → early exit.
        assert_eq!(outcome.dims_checked, 1);
    }

    #[test]
    fn flat_matching_checks_all_dims_on_success() {
        let q = SpatialQuery::containment(rect(&[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0]));
        let obj = rect(&[0.1, 0.1, 0.1], &[0.2, 0.2, 0.2]);
        let outcome = q.matches_flat(&obj.to_flat());
        assert!(outcome.matched);
        assert_eq!(outcome.dims_checked, 3);
    }

    #[test]
    fn window_of_point_query_is_degenerate() {
        let q = SpatialQuery::point_enclosing(vec![0.25, 0.75]);
        let w = q.window();
        assert_eq!(w.margin(), 0.0);
        assert!(w.contains_point(&[0.25, 0.75]));
    }

    /// The query over `window` of each relation a window can carry.
    fn window_query(kind: usize, window: HyperRect) -> SpatialQuery {
        [
            SpatialQuery::intersection,
            SpatialQuery::containment,
            SpatialQuery::enclosure,
        ][kind](window)
    }

    fn rect_strategy(dims: usize) -> impl Strategy<Value = HyperRect> {
        prop::collection::vec((0.0f32..=1.0, 0.0f32..=1.0), dims).prop_map(|pairs| {
            let intervals = pairs
                .into_iter()
                .map(|(a, b)| {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    crate::Interval::new_unchecked(lo, hi)
                })
                .collect::<Vec<_>>();
            HyperRect::new(intervals).unwrap()
        })
    }

    proptest! {
        #[test]
        fn prop_flat_agrees_with_rect(
            obj in rect_strategy(4),
            win in rect_strategy(4),
            rel_idx in 0usize..3,
        ) {
            let q = window_query(rel_idx, win);
            prop_assert_eq!(q.matches_flat(&obj.to_flat()).matched, q.matches_rect(&obj));
        }

        #[test]
        fn prop_point_query_equals_degenerate_enclosure(
            obj in rect_strategy(4),
            p in prop::collection::vec(0.0f32..=1.0, 4),
        ) {
            let point_q = SpatialQuery::point_enclosing(p.clone());
            let rect_q = SpatialQuery::enclosure(HyperRect::from_point(&p).unwrap());
            prop_assert_eq!(point_q.matches_rect(&obj), rect_q.matches_rect(&obj));
        }

        #[test]
        fn prop_containment_implies_intersection(
            obj in rect_strategy(4),
            win in rect_strategy(4),
        ) {
            let c = SpatialQuery::containment(win.clone());
            let i = SpatialQuery::intersection(win);
            if c.matches_rect(&obj) {
                prop_assert!(i.matches_rect(&obj));
            }
        }

        #[test]
        fn prop_dims_checked_bounded(
            obj in rect_strategy(4),
            win in rect_strategy(4),
            rel_idx in 0usize..3,
        ) {
            let q = window_query(rel_idx, win);
            let out = q.matches_flat(&obj.to_flat());
            prop_assert!(out.dims_checked >= 1 && out.dims_checked <= 4);
            if out.matched {
                prop_assert_eq!(out.dims_checked, 4);
            }
        }
    }
}
