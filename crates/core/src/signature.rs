//! Cluster signatures (paper §4.1).
//!
//! A cluster groups objects defining *similar intervals*: in each dimension
//! `d`, the member's interval must **start** inside a variation interval
//! `[amin, amax]` and **end** inside `[bmin, bmax]`. The root signature uses
//! the full domain for every variation interval and therefore accepts any
//! object.
//!
//! Subdivision produces half-open subintervals (the paper writes
//! `[0.00, 0.25) : [0.00, 0.25)`), with the last subinterval inheriting the
//! closedness of its parent's upper bound, so membership at boundaries is
//! unambiguous.

use acx_geom::scan::PairedColumns;
use acx_geom::tier::Tier;
use acx_geom::{HyperRect, Scalar, SpatialQuery};

/// A signature variation interval: `[lo, hi)` or `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SigInterval {
    lo: Scalar,
    hi: Scalar,
    hi_open: bool,
}

impl SigInterval {
    /// The full closed domain `[0, 1]`.
    pub fn full() -> Self {
        Self {
            lo: acx_geom::DOMAIN_MIN,
            hi: acx_geom::DOMAIN_MAX,
            hi_open: false,
        }
    }

    /// Builds a variation interval; `hi_open` selects `[lo, hi)`.
    pub fn new(lo: Scalar, hi: Scalar, hi_open: bool) -> Self {
        debug_assert!(lo <= hi);
        Self { lo, hi, hi_open }
    }

    /// Lower bound (always inclusive).
    pub fn lo(&self) -> Scalar {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> Scalar {
        self.hi
    }

    /// Whether the upper bound is exclusive.
    pub fn hi_open(&self) -> bool {
        self.hi_open
    }

    /// Membership test respecting the open/closed upper bound.
    #[inline]
    pub fn contains(&self, v: Scalar) -> bool {
        self.lo <= v && (v < self.hi || (!self.hi_open && v == self.hi))
    }

    /// [`SigInterval::contains`] with the upper bound's closedness fixed
    /// by the caller: `OPEN` must be `self.hi_open()`. Closed, `v <= hi`
    /// is exactly `v < hi || v == hi`, NaN and infinities included.
    #[inline(always)]
    fn contains_as<const OPEN: bool>(&self, v: Scalar) -> bool {
        debug_assert_eq!(OPEN, self.hi_open);
        (self.lo <= v) & if OPEN { v < self.hi } else { v <= self.hi }
    }

    /// Largest value the interval can supply is `hi` (closed) or anything
    /// strictly below `hi` (open). `can_reach(x)` answers whether some
    /// member value `v` satisfies `v >= x`.
    #[inline]
    pub fn can_reach(&self, x: Scalar) -> bool {
        if self.hi_open {
            self.hi > x
        } else {
            self.hi >= x
        }
    }

    /// The `k`-th of `f` equal-width subintervals.
    ///
    /// Interior children are half-open; the last child inherits the
    /// parent's upper-bound closedness.
    pub fn subdivide(&self, f: u8, k: u8) -> SigInterval {
        debug_assert!(k < f);
        let f32f = f as Scalar;
        let width = (self.hi - self.lo) / f32f;
        let lo = self.lo + width * k as Scalar;
        let last = k == f - 1;
        // Use the exact parent bound for the last child to avoid float
        // drift excluding the parent's own upper boundary.
        let hi = if last {
            self.hi
        } else {
            self.lo + width * (k + 1) as Scalar
        };
        SigInterval {
            lo,
            hi,
            hi_open: if last { self.hi_open } else { true },
        }
    }
}

/// The per-dimension part of a cluster signature:
/// starts vary in `start`, ends vary in `end`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DimSignature {
    /// Variation interval `[amin, amax]` for interval starts.
    pub start: SigInterval,
    /// Variation interval `[bmin, bmax]` for interval ends.
    pub end: SigInterval,
}

impl DimSignature {
    fn full() -> Self {
        Self {
            start: SigInterval::full(),
            end: SigInterval::full(),
        }
    }

    /// Whether an object interval `[a, b]` satisfies this dimension.
    #[inline]
    pub fn accepts(&self, a: Scalar, b: Scalar) -> bool {
        self.start.contains(a) && self.end.contains(b)
    }

    /// Clears `accepted[k]` for every member `k` whose bounds `(lo[k],
    /// hi[k])` this dimension rejects, in one branch-free pass over the
    /// two columns. `START_OPEN` and `END_OPEN` are the closedness of
    /// the two upper bounds, which the caller chooses once.
    #[inline(always)]
    fn keep_accepted<const START_OPEN: bool, const END_OPEN: bool>(
        &self,
        lo: &[Scalar],
        hi: &[Scalar],
        accepted: &mut [bool],
    ) {
        for ((ok, &a), &b) in accepted.iter_mut().zip(lo).zip(hi) {
            *ok &= self.start.contains_as::<START_OPEN>(a) & self.end.contains_as::<END_OPEN>(b);
        }
    }

    /// [`Signature::matches_query`] in dimension `d` alone: whether the
    /// query's relation can hold in `d` for some member interval this
    /// part admits. A signature matches iff every dimension does.
    ///
    /// # Panics
    ///
    /// Panics if the query has no dimension `d`.
    #[inline]
    pub fn matches_query(&self, query: &SpatialQuery, d: usize) -> bool {
        match query {
            SpatialQuery::Intersection(w) => {
                let q = w.interval(d);
                self.start.lo() <= q.hi() && self.end.can_reach(q.lo())
            }
            SpatialQuery::Containment(w) => {
                let q = w.interval(d);
                self.start.can_reach(q.lo()) && self.end.lo() <= q.hi()
            }
            SpatialQuery::Enclosure(w) => {
                let q = w.interval(d);
                self.start.lo() <= q.lo() && self.end.can_reach(q.hi())
            }
            SpatialQuery::PointEnclosing(p) => self.start.lo() <= p[d] && self.end.can_reach(p[d]),
        }
    }
}

/// A cluster signature: one [`DimSignature`] per dimension (paper §4.1).
///
/// The signature determines (a) which objects can become members and
/// (b) whether a spatial query has to explore the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    dims: Box<[DimSignature]>,
}

impl Signature {
    /// The root signature: complete domains in all dimensions, accepting
    /// any spatial object.
    pub fn root(dims: usize) -> Self {
        assert!(dims > 0, "signature needs at least one dimension");
        Self {
            dims: vec![DimSignature::full(); dims].into_boxed_slice(),
        }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims.len()
    }

    /// The per-dimension signature parts.
    pub fn dim_signatures(&self) -> &[DimSignature] {
        &self.dims
    }

    /// The signature part of dimension `d`.
    pub fn dim(&self, d: usize) -> &DimSignature {
        &self.dims[d]
    }

    /// Whether an object (flat `[a0, b0, a1, b1, …]` coordinates) can be a
    /// member of the cluster.
    #[inline]
    pub fn accepts_flat(&self, coords: &[Scalar]) -> bool {
        debug_assert_eq!(coords.len(), self.dims.len() * 2);
        self.dims
            .iter()
            .zip(coords.chunks_exact(2))
            .all(|(ds, pair)| ds.accepts(pair[0], pair[1]))
    }

    /// The first of `members` (a segment's columns) that the signature
    /// rejects, by [`Signature::accepts_flat`]'s predicate: one pass per
    /// dimension over its lower- and upper-bound columns on `tier`,
    /// which clears the rejected members' entries of `accepted` (the
    /// caller's reused scratch, one entry per member), instead of
    /// gathering each member into a row.
    ///
    /// # Panics
    ///
    /// Panics if `members` has fewer dimensions than the signature.
    pub fn first_rejected(
        &self,
        tier: Tier,
        members: &PairedColumns<'_>,
        accepted: &mut Vec<bool>,
    ) -> Option<usize> {
        accepted.clear();
        accepted.resize(members.len(), true);
        clear_rejected(tier, self, members, accepted);
        accepted.iter().position(|&ok| !ok)
    }

    /// Whether every object this signature accepts, `outer` accepts too:
    /// per dimension, both variation intervals lie within `outer`'s.
    pub(crate) fn within(&self, outer: &Signature) -> bool {
        let inside = |i: &SigInterval, o: &SigInterval| {
            i.lo >= o.lo && (i.hi < o.hi || (i.hi == o.hi && (i.hi_open || !o.hi_open)))
        };
        self.dims.len() == outer.dims.len()
            && (self.dims.iter().zip(outer.dims.iter()))
                .all(|(d, o)| inside(&d.start, &o.start) && inside(&d.end, &o.end))
    }

    /// Whether a materialized rectangle can be a member of the cluster.
    pub fn accepts_rect(&self, rect: &HyperRect) -> bool {
        debug_assert_eq!(rect.dims(), self.dims.len());
        self.dims
            .iter()
            .zip(rect.intervals())
            .all(|(ds, iv)| ds.accepts(iv.lo(), iv.hi()))
    }

    /// Whether the query **may** match some object satisfying this
    /// signature — the exploration test of §3.6 (no false negatives).
    ///
    /// Per dimension, a member's start `a` ranges over `start` and its end
    /// `b` over `end`; the query matches the signature when the relation's
    /// per-dimension condition is satisfiable by *some* `(a, b)` pair:
    ///
    /// * intersection (`a ≤ q.hi ∧ b ≥ q.lo`):
    ///   `start.lo ≤ q.hi` and `end` can reach `q.lo`;
    /// * containment (`a ≥ q.lo ∧ b ≤ q.hi`):
    ///   `start` can reach `q.lo` and `end.lo ≤ q.hi`;
    /// * enclosure (`a ≤ q.lo ∧ b ≥ q.hi`):
    ///   `start.lo ≤ q.lo` and `end` can reach `q.hi`;
    /// * point-enclosing (`a ≤ p ∧ b ≥ p`):
    ///   `start.lo ≤ p` and `end` can reach `p`.
    ///
    /// # Panics
    ///
    /// Panics if the query has fewer dimensions than the signature
    /// (debug builds: any other number).
    pub fn matches_query(&self, query: &SpatialQuery) -> bool {
        debug_assert_eq!(query.dims(), self.dims.len());
        (self.dims.iter().enumerate()).all(|(d, ds)| ds.matches_query(query, d))
    }

    /// Specializes dimension `d`: replaces the variation pair with the
    /// `i`-th start subinterval and `j`-th end subinterval out of `f`
    /// (the clustering function of §4.2).
    pub fn specialize(&self, d: usize, f: u8, i: u8, j: u8) -> Signature {
        let mut dims = self.dims.to_vec();
        dims[d] = DimSignature {
            start: dims[d].start.subdivide(f, i),
            end: dims[d].end.subdivide(f, j),
        };
        Signature {
            dims: dims.into_boxed_slice(),
        }
    }

    /// Whether the variation pair of dimension `d` after specialization
    /// `(i, j)` can hold any valid object interval (`a ≤ b`), and, in the
    /// symmetric case, survives the paper's de-duplication.
    ///
    /// When the start and end variation intervals of dimension `d` are
    /// identical, only `i ≤ j` combinations are kept — the `f(f+1)/2`
    /// distinct combinations of §4.2. In the general case a combination is
    /// kept when `min(start_i) ≤ max(end_j)`.
    pub fn combination_feasible(&self, d: usize, f: u8, i: u8, j: u8) -> bool {
        let ds = &self.dims[d];
        if ds.start == ds.end {
            return i <= j;
        }
        let start_i = ds.start.subdivide(f, i);
        let end_j = ds.end.subdivide(f, j);
        // Some a in start_i and b in end_j with a <= b must exist.
        if end_j.hi_open() {
            start_i.lo() < end_j.hi()
        } else {
            start_i.lo() <= end_j.hi()
        }
    }

    /// Serializes the signature (used by the persistent store).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + self.dims.len() * 18);
        out.extend_from_slice(&(self.dims.len() as u16).to_le_bytes());
        for ds in self.dims.iter() {
            for iv in [&ds.start, &ds.end] {
                out.extend_from_slice(&iv.lo.to_le_bytes());
                out.extend_from_slice(&iv.hi.to_le_bytes());
                out.push(iv.hi_open as u8);
            }
        }
        out
    }

    /// Deserializes a signature written by [`Signature::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<Signature> {
        if bytes.len() < 2 {
            return None;
        }
        let n = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
        let expected = 2 + n * 18;
        if n == 0 || bytes.len() != expected {
            return None;
        }
        let mut dims = Vec::with_capacity(n);
        let mut at = 2;
        for _ in 0..n {
            let mut ivs = [SigInterval::full(); 2];
            for iv in ivs.iter_mut() {
                let lo = Scalar::from_le_bytes(bytes[at..at + 4].try_into().ok()?);
                let hi = Scalar::from_le_bytes(bytes[at + 4..at + 8].try_into().ok()?);
                let hi_open = match bytes[at + 8] {
                    0 => false,
                    1 => true,
                    _ => return None,
                };
                if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
                    return None;
                }
                *iv = SigInterval::new(lo, hi, hi_open);
                at += 9;
            }
            dims.push(DimSignature {
                start: ivs[0],
                end: ivs[1],
            });
        }
        Some(Signature {
            dims: dims.into_boxed_slice(),
        })
    }
}

impl std::fmt::Display for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (d, ds) in self.dims.iter().enumerate() {
            if d > 0 {
                write!(f, ", ")?;
            }
            let sc = if ds.start.hi_open { ')' } else { ']' };
            let ec = if ds.end.hi_open { ')' } else { ']' };
            write!(
                f,
                "d{}[{:.4},{:.4}{}:[{:.4},{:.4}{}",
                d + 1,
                ds.start.lo,
                ds.start.hi,
                sc,
                ds.end.lo,
                ds.end.hi,
                ec
            )?;
        }
        write!(f, "}}")
    }
}

acx_geom::tiered! {
    /// Clears `accepted[k]` (one entry per member) for every member `k`
    /// of `members` that `sig` rejects: one pass per dimension over its
    /// two bound columns.
    ///
    /// # Panics
    ///
    /// Panics if `members` has fewer dimensions than the signature.
    fn clear_rejected(sig: &Signature, members: &PairedColumns<'_>, accepted: &mut [bool]) {
        for (d, ds) in sig.dims.iter().enumerate() {
            let (lo, hi, ok) = (members.lo_col(d), members.hi_col(d), &mut accepted[..]);
            match (ds.start.hi_open, ds.end.hi_open) {
                (false, false) => ds.keep_accepted::<false, false>(lo, hi, ok),
                (false, true) => ds.keep_accepted::<false, true>(lo, hi, ok),
                (true, false) => ds.keep_accepted::<true, false>(lo, hi, ok),
                (true, true) => ds.keep_accepted::<true, true>(lo, hi, ok),
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use acx_geom::HyperRect;
    use proptest::prelude::*;

    /// Member bounds that sit on no interval's edge but that a pass must
    /// still decide as a comparison does: signed zeros, the smallest and
    /// the largest subnormal of each sign, NaN and the infinities.
    pub(crate) const SPECIALS: [Scalar; 9] = [
        0.0,
        -0.0,
        Scalar::from_bits(1),
        -Scalar::from_bits(1),
        Scalar::from_bits(0x007F_FFFF),
        -Scalar::from_bits(0x007F_FFFF),
        Scalar::NAN,
        Scalar::INFINITY,
        Scalar::NEG_INFINITY,
    ];

    /// `SPECIALS` and every edge of `edges` with one ulp either side.
    pub(crate) fn edge_values(edges: &[Scalar]) -> Vec<Scalar> {
        let near = edges.iter().flat_map(|&v| [v.next_down(), v, v.next_up()]);
        SPECIALS.into_iter().chain(near).collect()
    }

    /// The largest value `iv` holds: `hi`, or the next `f32` below an
    /// open `hi`.
    fn reach(iv: &SigInterval) -> Scalar {
        if iv.hi_open {
            iv.hi.next_down()
        } else {
            iv.hi
        }
    }

    /// Every tier clears what `accepts_flat` rejects, member for member,
    /// and `first_rejected` finds the first of them. The signatures hold
    /// all four open/closed combinations of a dimension's two upper
    /// bounds, zero-width and subnormal-width intervals, and
    /// specializations at `f` = 2, 4 and 255 (those of a few-ulp-wide
    /// interval are zero-width); each column length 0–70 draws every
    /// member bound from its dimension's edges (lower bound and reach,
    /// one ulp either side) and `SPECIALS`.
    #[test]
    fn every_tier_rejects_alike() {
        println!("tiers exercised: {:?}", Tier::all());
        let one = |start: SigInterval, end: SigInterval| Signature {
            dims: Box::new([DimSignature { start, end }]),
        };
        let mut sigs = Vec::new();
        for (start_open, end_open) in [(false, false), (false, true), (true, false), (true, true)] {
            sigs.push(one(
                SigInterval::new(0.25, 0.5, start_open),
                SigInterval::new(0.375, 0.75, end_open),
            ));
            sigs.push(one(
                SigInterval::new(0.5, 0.5, start_open),
                SigInterval::new(0.5, 0.5, end_open),
            ));
            let tiny = Scalar::from_bits(3);
            sigs.push(one(
                SigInterval::new(0.0, tiny, start_open),
                SigInterval::new(-tiny, tiny, end_open),
            ));
        }
        let narrow = one(
            SigInterval::new(0.25, (0.25 as Scalar).next_up().next_up(), false),
            SigInterval::new(0.5, (0.5 as Scalar).next_up(), true),
        );
        for f in [2u8, 4, 255] {
            for (i, j) in [
                (0, 0),
                (0, f - 1),
                (f / 2, f - 1),
                (f - 1, f - 1),
                (1, f / 2),
            ] {
                sigs.push(narrow.specialize(0, f, i, j));
                sigs.push(
                    Signature::root(2)
                        .specialize(0, f, i, j)
                        .specialize(1, f, j, j),
                );
            }
        }
        let (mut kept, mut cleared) = (0, 0);
        for sig in &sigs {
            let pools: Vec<Vec<Scalar>> = (sig.dims.iter())
                .map(|ds| edge_values(&[ds.start.lo, reach(&ds.start), ds.end.lo, reach(&ds.end)]))
                .collect();
            for len in 0..=70usize {
                let cols: Vec<Vec<Scalar>> = (0..2 * sig.dims())
                    .map(|c| {
                        // Strides prime to the pool's 21 values.
                        let (pool, stride) = (&pools[c / 2], [1, 2, 4, 5][c]);
                        (0..len)
                            .map(|k| pool[(k * stride + len * (c + 2)) % pool.len()])
                            .collect()
                    })
                    .collect();
                let members = PairedColumns::of_equal_columns(&cols);
                let verdicts: Vec<bool> = (0..len)
                    .map(|k| {
                        let row: Vec<Scalar> = cols.iter().map(|col| col[k]).collect();
                        sig.accepts_flat(&row)
                    })
                    .collect();
                for &tier in Tier::all() {
                    let mut accepted = Vec::new();
                    let first = sig.first_rejected(tier, &members, &mut accepted);
                    let at = format!("{tier:?}, {sig}, {len} members");
                    assert_eq!(first, verdicts.iter().position(|&ok| !ok), "{at}");
                    assert_eq!(accepted, verdicts, "{at}");
                }
                kept += verdicts.iter().filter(|&&ok| ok).count();
                cleared += verdicts.iter().filter(|&&ok| !ok).count();
            }
        }
        assert!(kept > 0 && cleared > 0, "test premise: both verdicts occur");
    }

    fn rect(lo: &[Scalar], hi: &[Scalar]) -> HyperRect {
        HyperRect::from_bounds(lo, hi).unwrap()
    }

    #[test]
    fn root_accepts_any_object() {
        let sig = Signature::root(3);
        assert!(sig.accepts_rect(&rect(&[0.0, 0.5, 1.0], &[0.0, 0.5, 1.0])));
        assert!(sig.accepts_flat(&[0.0, 1.0, 0.2, 0.8, 0.99, 1.0]));
    }

    #[test]
    fn root_matches_every_query() {
        let sig = Signature::root(2);
        let w = rect(&[0.2, 0.3], &[0.4, 0.5]);
        assert!(sig.matches_query(&SpatialQuery::intersection(w.clone())));
        assert!(sig.matches_query(&SpatialQuery::containment(w.clone())));
        assert!(sig.matches_query(&SpatialQuery::enclosure(w)));
        assert!(sig.matches_query(&SpatialQuery::point_enclosing(vec![0.7, 0.1])));
    }

    #[test]
    fn subdivide_produces_half_open_children() {
        let full = SigInterval::full();
        let c0 = full.subdivide(4, 0);
        assert_eq!(c0.lo(), 0.0);
        assert_eq!(c0.hi(), 0.25);
        assert!(c0.hi_open());
        let c3 = full.subdivide(4, 3);
        assert_eq!(c3.lo(), 0.75);
        assert_eq!(c3.hi(), 1.0);
        assert!(!c3.hi_open(), "last child inherits closed parent bound");
    }

    #[test]
    fn subdivision_partitions_membership() {
        // Every value in [0,1] belongs to exactly one of the f children.
        let full = SigInterval::full();
        for f in [2u8, 4, 8] {
            for v in [0.0f32, 0.1, 0.25, 0.33, 0.5, 0.75, 0.999, 1.0] {
                let owners = (0..f).filter(|&k| full.subdivide(f, k).contains(v)).count();
                assert_eq!(owners, 1, "value {v} with f={f}");
            }
        }
    }

    #[test]
    fn nested_subdivision_keeps_exact_parent_bounds() {
        let full = SigInterval::full();
        let child = full.subdivide(4, 2); // [0.5, 0.75)
        let grandchild = child.subdivide(4, 3); // [..., 0.75) open
        assert_eq!(grandchild.hi(), 0.75);
        assert!(grandchild.hi_open());
        assert!(!grandchild.contains(0.75));
    }

    #[test]
    fn example2_cluster_membership() {
        // Paper Example 2: σ1 = {d1[0,0.25):[0,0.25), d2[0,1]:[0,1]}.
        let sig = Signature::root(2).specialize(0, 4, 0, 0);
        // O1-like object: starts and ends in the first quarter of d1.
        assert!(sig.accepts_rect(&rect(&[0.05, 0.3], &[0.2, 0.9])));
        // Interval ending beyond 0.25 in d1 is rejected.
        assert!(!sig.accepts_rect(&rect(&[0.05, 0.3], &[0.3, 0.9])));
        // Boundary: 0.25 itself is outside the half-open interval.
        assert!(!sig.accepts_rect(&rect(&[0.25, 0.0], &[0.25, 1.0])));
    }

    #[test]
    fn example3_candidate_count_with_symmetry() {
        // Paper Example 3: identical variation intervals on d1, f = 4
        // → 10 valid combinations out of 16.
        let sig = Signature::root(2);
        let valid = (0..4u8)
            .flat_map(|i| (0..4u8).map(move |j| (i, j)))
            .filter(|&(i, j)| sig.combination_feasible(0, 4, i, j))
            .count();
        assert_eq!(valid, 10);
    }

    #[test]
    fn asymmetric_combination_feasibility() {
        // After specializing d1 to start∈[0,0.25), end∈[0.75,1.0], the
        // variation intervals differ; every (i,j) is feasible because all
        // starts are below all ends.
        let sig = Signature::root(2).specialize(0, 4, 0, 3);
        let valid = (0..4u8)
            .flat_map(|i| (0..4u8).map(move |j| (i, j)))
            .filter(|&(i, j)| sig.combination_feasible(0, 4, i, j))
            .count();
        assert_eq!(valid, 16);
    }

    #[test]
    fn infeasible_combination_detected() {
        // start ∈ [0.75,1.0], end ∈ [0,0.25): no a ≤ b exists unless the
        // subintervals touch.
        let sig = Signature {
            dims: Box::new([DimSignature {
                start: SigInterval::new(0.75, 1.0, false),
                end: SigInterval::new(0.0, 0.25, true),
            }]),
        };
        // start sub 3 = [0.9375,1.0], end sub 0 = [0,0.0625): infeasible.
        assert!(!sig.combination_feasible(0, 4, 3, 0));
    }

    #[test]
    fn specialized_signature_narrows_query_matching() {
        // Objects start and end in [0, 0.25) on d1.
        let sig = Signature::root(1).specialize(0, 4, 0, 0);
        // A window beyond the cluster's reach cannot match.
        let far = SpatialQuery::intersection(rect(&[0.5], &[0.9]));
        assert!(!sig.matches_query(&far));
        // A window overlapping [0, 0.25) may match.
        let near = SpatialQuery::intersection(rect(&[0.2], &[0.9]));
        assert!(near.dims() == 1 && sig.matches_query(&near));
    }

    #[test]
    fn point_query_against_open_bound() {
        // Ends vary in [0, 0.25) open: an object can never reach 0.25.
        let sig = Signature::root(1).specialize(0, 4, 0, 0);
        assert!(!sig.matches_query(&SpatialQuery::point_enclosing(vec![0.25])));
        assert!(sig.matches_query(&SpatialQuery::point_enclosing(vec![0.2])));
    }

    #[test]
    fn containment_matching_uses_start_reach() {
        // Starts in [0.75, 1.0]: objects begin late. Containment in a
        // window ending before 0.75 is impossible.
        let sig = Signature::root(1).specialize(0, 4, 3, 3);
        let w = SpatialQuery::containment(rect(&[0.0], &[0.7]));
        assert!(!sig.matches_query(&w));
        let w2 = SpatialQuery::containment(rect(&[0.7], &[1.0]));
        assert!(sig.matches_query(&w2));
    }

    #[test]
    fn enclosure_matching_uses_start_lo() {
        // Starts in [0.25, 0.5): an object cannot enclose a window that
        // starts at 0.2.
        let sig = Signature::root(1).specialize(0, 4, 1, 3);
        let w = SpatialQuery::enclosure(rect(&[0.2], &[0.9]));
        assert!(!sig.matches_query(&w));
        let w2 = SpatialQuery::enclosure(rect(&[0.6], &[0.9]));
        assert!(sig.matches_query(&w2));
    }

    #[test]
    fn serialization_roundtrip() {
        let sig = Signature::root(3)
            .specialize(0, 4, 1, 2)
            .specialize(2, 4, 0, 3);
        let bytes = sig.to_bytes();
        let back = Signature::from_bytes(&bytes).unwrap();
        assert_eq!(sig, back);
    }

    #[test]
    fn deserialization_rejects_garbage() {
        assert!(Signature::from_bytes(&[]).is_none());
        assert!(Signature::from_bytes(&[1, 0, 1, 2, 3]).is_none());
        let mut ok = Signature::root(1).to_bytes();
        ok[10] = 7; // invalid hi_open flag
        assert!(Signature::from_bytes(&ok).is_none());
    }

    #[test]
    fn display_renders_paper_notation() {
        let sig = Signature::root(2).specialize(0, 4, 0, 0);
        let s = sig.to_string();
        assert!(s.contains("d1[0.0000,0.2500)"), "got {s}");
        assert!(s.contains("d2[0.0000,1.0000]"), "got {s}");
    }

    fn arb_object(dims: usize) -> impl Strategy<Value = Vec<Scalar>> {
        prop::collection::vec((0.0f32..=1.0, 0.0f32..=1.0), dims).prop_map(|pairs| {
            let mut flat = Vec::with_capacity(pairs.len() * 2);
            for (a, b) in pairs {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                flat.push(lo);
                flat.push(hi);
            }
            flat
        })
    }

    /// A signature `steps` random specializations below the root: interior
    /// subintervals are open, last ones closed, so both kinds occur.
    fn specialized(dims: usize, steps: &[(usize, u8, u8)]) -> Signature {
        let root = Signature::root(dims);
        (steps.iter()).fold(root, |sig, &(d, i, j)| sig.specialize(d % dims, 4, i, j))
    }

    /// A coordinate for a member of `iv`: kinds 0–7 land on the edges
    /// and on the values no interval holds, any other kind inside.
    fn coordinate(iv: &SigInterval, kind: u8, u: Scalar) -> Scalar {
        match kind {
            0 => iv.lo(),
            1 => iv.lo().next_down(),
            2 => iv.hi(),
            3 => iv.hi().next_down(),
            4 => Scalar::NAN,
            5 => Scalar::INFINITY,
            6 => Scalar::NEG_INFINITY,
            7 => iv.hi().next_up(),
            _ => iv.lo() + u * (iv.hi() - iv.lo()),
        }
    }

    proptest! {
        /// The columnar check finds the member the row-at-a-time one
        /// finds first, and leaves each member's verdict in the scratch.
        /// Members before `clean` land inside their signature, on `lo`
        /// or on `hi.next_down()`, so the first rejection falls anywhere
        /// in the segment.
        #[test]
        fn prop_first_rejected_is_the_first_row_accepts_flat_rejects(
            dims in 1usize..=3,
            steps in prop::collection::vec((0usize..3, 0u8..4, 0u8..4), 0..6),
            draws in prop::collection::vec(
                prop::collection::vec((0u8..64, 0.0f32..=1.0), 6), 0..131),
            clean in 0usize..=130,
            stale in 0usize..8,
        ) {
            let sig = specialized(dims, &steps);
            let rows: Vec<Vec<Scalar>> = draws
                .iter()
                .enumerate()
                .map(|(k, draw)| {
                    (0..2 * dims)
                        .map(|c| {
                            let ds = sig.dim(c / 2);
                            let iv = if c % 2 == 0 { &ds.start } else { &ds.end };
                            let (kind, u) = draw[c];
                            let kind = if k < clean && kind < 8 { 3 * (kind % 2) } else { kind };
                            coordinate(iv, kind, u)
                        })
                        .collect()
                })
                .collect();
            let cols: Vec<Vec<Scalar>> =
                (0..2 * dims).map(|c| rows.iter().map(|row| row[c]).collect()).collect();
            let mut accepted = vec![false; stale];
            let got = sig.first_rejected(Tier::best(), &PairedColumns::new(&cols), &mut accepted);
            prop_assert_eq!(got, rows.iter().position(|row| !sig.accepts_flat(row)));
            let verdicts: Vec<bool> = rows.iter().map(|row| sig.accepts_flat(row)).collect();
            prop_assert_eq!(accepted, verdicts);
        }

        /// Backward compatibility (§3.3): an object accepted by a
        /// specialized signature is accepted by its parent.
        #[test]
        fn prop_specialization_preserves_membership(
            flat in arb_object(3),
            d in 0usize..3,
            i in 0u8..4,
            j in 0u8..4,
        ) {
            let parent = Signature::root(3);
            let child = parent.specialize(d, 4, i, j);
            if child.accepts_flat(&flat) {
                prop_assert!(parent.accepts_flat(&flat));
            }
        }

        /// Exploration safety: if an object is accepted by the signature
        /// and matches the query, the signature must match the query
        /// (no false negatives during cluster pruning).
        #[test]
        fn prop_signature_matching_is_conservative(
            flat in arb_object(3),
            win in arb_object(3),
            d in 0usize..3,
            i in 0u8..4,
            j in 0u8..4,
            rel in 0usize..4,
        ) {
            let sig = Signature::root(3).specialize(d, 4, i, j);
            let query = match rel {
                0 => SpatialQuery::intersection(HyperRect::from_flat(&win).unwrap()),
                1 => SpatialQuery::containment(HyperRect::from_flat(&win).unwrap()),
                2 => SpatialQuery::enclosure(HyperRect::from_flat(&win).unwrap()),
                _ => SpatialQuery::point_enclosing(
                    win.chunks_exact(2).map(|p| p[0]).collect::<Vec<_>>()),
            };
            if sig.accepts_flat(&flat) && query.matches_flat(&flat).matched {
                prop_assert!(
                    sig.matches_query(&query),
                    "signature pruned a cluster containing a match"
                );
            }
        }

        /// Each object belongs to exactly one (i, j) specialization cell
        /// per dimension when feasibility is ignored.
        #[test]
        fn prop_object_in_exactly_one_cell(flat in arb_object(2), d in 0usize..2) {
            let root = Signature::root(2);
            let mut owners = 0;
            for i in 0..4u8 {
                for j in 0..4u8 {
                    if root.specialize(d, 4, i, j).accepts_flat(&flat) {
                        owners += 1;
                    }
                }
            }
            prop_assert_eq!(owners, 1);
        }

        #[test]
        fn prop_serialization_roundtrip(
            d in 0usize..4, i in 0u8..4, j in 0u8..4,
        ) {
            let sig = Signature::root(4).specialize(d, 4, i, j);
            prop_assert_eq!(Signature::from_bytes(&sig.to_bytes()), Some(sig));
        }
    }
}
