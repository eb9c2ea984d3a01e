//! The child table: each cluster lists its children, in their live
//! order, with the dimensions where a child's signature differs from
//! its own. Both descents (§3.5's insert and §3.6's exploration) reach
//! a child only through an accepting parent, and signature tests are
//! per dimension, so a child passes iff it passes in the dimensions of
//! its row: one dimension for a materialized candidate, a few for a
//! child a merge reparented.

use acx_geom::{Scalar, SpatialQuery};

use crate::signature::{DimSignature, Signature};

/// One dimension where a child's signature differs from its parent's,
/// with the child's part there.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DimDiff {
    dim: u32,
    sig: DimSignature,
}

/// Where a row's dimensions end in [`ChildTable::diffs`]; they start
/// where the previous row's end.
#[derive(Debug, Clone, Copy)]
struct RowEnd {
    slot: u32,
    end: u32,
}

/// A cluster's children: one row per child, in live child order (the
/// order `insert`'s tie-break and the checkpoint read), holding the
/// child's slot and its differing dimensions. Rows are appended when a
/// child is materialized or reparented, and removed when it is merged.
#[derive(Debug, Default)]
pub(super) struct ChildTable {
    rows: Vec<RowEnd>,
    /// Every row's differing dimensions, row after row.
    diffs: Vec<DimDiff>,
}

/// One child of a [`ChildTable`].
#[derive(Debug, Clone, Copy)]
pub(super) struct ChildRow<'a> {
    /// The child's cluster slot.
    pub(super) slot: u32,
    diffs: &'a [DimDiff],
}

impl ChildRow<'_> {
    /// Whether the child's signature accepts an object (flat
    /// `[a0, b0, a1, b1, …]` coordinates) its parent's accepts.
    #[inline]
    pub(super) fn accepts_flat(&self, flat: &[Scalar]) -> bool {
        self.diffs.iter().all(|x| {
            let d = x.dim as usize;
            x.sig.accepts(flat[2 * d], flat[2 * d + 1])
        })
    }

    /// Whether `query` may match the child, given that it may match
    /// its parent ([`Signature::matches_query`]).
    #[inline]
    pub(super) fn matches_query(&self, query: &SpatialQuery) -> bool {
        (self.diffs.iter()).all(|x| x.sig.matches_query(query, x.dim as usize))
    }

    /// Whether the row holds exactly the dimensions where `child`
    /// differs from `parent`.
    pub(super) fn is_current(&self, parent: &Signature, child: &Signature) -> bool {
        self.diffs.iter().copied().eq(differing(parent, child))
    }

    /// How many dimensions the row tests.
    #[cfg(test)]
    pub(super) fn dims(&self) -> usize {
        self.diffs.len()
    }
}

/// The dimensions where `child` differs from `parent`, ascending.
fn differing<'a>(
    parent: &'a Signature,
    child: &'a Signature,
) -> impl Iterator<Item = DimDiff> + 'a {
    let parts = parent.dim_signatures().iter().zip(child.dim_signatures());
    (0u32..)
        .zip(parts)
        .filter_map(|(dim, (p, &c))| (*p != c).then_some(DimDiff { dim, sig: c }))
}

impl ChildTable {
    /// Number of children.
    #[inline]
    pub(super) fn len(&self) -> usize {
        self.rows.len()
    }

    /// The children's rows, in live order.
    #[inline]
    pub(super) fn rows(&self) -> impl Iterator<Item = ChildRow<'_>> {
        let mut start = 0;
        self.rows.iter().map(move |row| {
            let end = row.end as usize;
            let diffs = &self.diffs[start..end];
            start = end;
            ChildRow {
                slot: row.slot,
                diffs,
            }
        })
    }

    /// The children's slots, in live order.
    pub(super) fn slots(&self) -> impl DoubleEndedIterator<Item = u32> + '_ {
        self.rows.iter().map(|row| row.slot)
    }

    /// Appends a row for child `slot`, computed from the two signatures.
    pub(super) fn push(&mut self, slot: u32, parent: &Signature, child: &Signature) {
        self.diffs.extend(differing(parent, child));
        let end = u32::try_from(self.diffs.len())
            .expect("a child table holds at most u32::MAX differing dimensions");
        self.rows.push(RowEnd { slot, end });
    }

    /// Removes child `slot`'s row, keeping the others in order.
    ///
    /// # Panics
    ///
    /// Panics if no row holds `slot`.
    pub(super) fn remove(&mut self, slot: u32) {
        let at = (self.rows.iter().position(|row| row.slot == slot))
            .expect("the slot is a child of this cluster");
        let start = if at == 0 { 0 } else { self.rows[at - 1].end };
        let end = self.rows[at].end;
        self.diffs.drain(start as usize..end as usize);
        self.rows.remove(at);
        for row in &mut self.rows[at..] {
            row.end -= end - start;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acx_geom::HyperRect;

    fn sig(dims: usize, specialized: &[(usize, u8, u8)]) -> Signature {
        (specialized.iter()).fold(Signature::root(dims), |s, &(d, i, j)| {
            s.specialize(d, 4, i, j)
        })
    }

    #[test]
    fn a_row_holds_the_differing_dimensions_in_order() {
        let parent = sig(4, &[(1, 0, 3)]);
        let mut table = ChildTable::default();
        table.push(7, &parent, &sig(4, &[(1, 0, 3), (2, 1, 1)]));
        table.push(
            8,
            &parent,
            &sig(4, &[(1, 0, 3), (3, 0, 2), (0, 2, 3), (1, 1, 2)]),
        );
        table.push(9, &parent, &parent);
        let rows: Vec<_> = table.rows().map(|r| (r.slot, r.dims())).collect();
        assert_eq!(rows, [(7, 1), (8, 3), (9, 0)]);
        let dims: Vec<u32> = table.diffs.iter().map(|x| x.dim).collect();
        assert_eq!(dims, [2, 0, 1, 3]);
    }

    #[test]
    fn removing_a_row_keeps_the_others_and_their_dimensions() {
        let root = Signature::root(3);
        let children = [
            sig(3, &[(0, 0, 1)]),
            sig(3, &[(0, 1, 1), (2, 0, 0)]),
            sig(3, &[(1, 2, 3)]),
            sig(3, &[(0, 3, 3), (1, 0, 0), (2, 1, 1)]),
        ];
        let mut table = ChildTable::default();
        for (slot, child) in (1u32..).zip(&children) {
            table.push(slot, &root, child);
        }
        table.remove(2);
        table.remove(1);
        table.push(2, &root, &children[1]);
        assert_eq!(table.slots().collect::<Vec<_>>(), [3, 4, 2]);
        for row in table.rows() {
            let child = &children[row.slot as usize - 1];
            assert!(row.is_current(&root, child), "row {}", row.slot);
        }
        assert_eq!(table.diffs.len(), 1 + 3 + 2);
    }

    /// A row's verdict is the full signature's for every object and
    /// query the parent passes, also where the child re-specializes one
    /// of the parent's dimensions.
    #[test]
    fn row_verdicts_equal_full_signature_verdicts_under_the_parent() {
        let parent = sig(3, &[(0, 0, 3)]);
        let children = [
            sig(3, &[(0, 0, 3), (1, 0, 3), (2, 1, 3)]),
            sig(3, &[(0, 0, 3), (1, 0, 3), (0, 0, 3)]),
        ];
        let mut table = ChildTable::default();
        for (slot, child) in (0u32..).zip(&children) {
            table.push(slot, &parent, child);
        }
        let mut state = 0x5EED_u64;
        let mut coord = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 33) as Scalar / 32.0
        };
        let (mut accepted, mut matched) = ([0; 2], [0; 2]);
        for _ in 0..20_000 {
            let (lo, hi): (Vec<Scalar>, Vec<Scalar>) = (0..3)
                .map(|_| {
                    let (a, b) = (coord(), coord());
                    (a.min(b), a.max(b))
                })
                .unzip();
            let rect = HyperRect::from_bounds(&lo, &hi).unwrap();
            let flat = rect.to_flat();
            let queries = [
                SpatialQuery::intersection(rect.clone()),
                SpatialQuery::containment(rect.clone()),
                SpatialQuery::enclosure(rect.clone()),
                SpatialQuery::point_enclosing(lo.clone()),
            ];
            for row in table.rows() {
                let (child, k) = (&children[row.slot as usize], row.slot as usize);
                if parent.accepts_flat(&flat) {
                    assert_eq!(row.accepts_flat(&flat), child.accepts_flat(&flat));
                    accepted[k] += usize::from(row.accepts_flat(&flat));
                }
                for query in queries.iter().filter(|q| parent.matches_query(q)) {
                    assert_eq!(row.matches_query(query), child.matches_query(query));
                    matched[k] += usize::from(row.matches_query(query));
                }
            }
        }
        assert!(
            accepted.iter().chain(&matched).all(|&n| n > 0),
            "{accepted:?} {matched:?}"
        );
    }
}
