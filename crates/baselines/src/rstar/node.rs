//! R*-tree nodes and flat MBB arithmetic.
//!
//! A node page stores its entries' bounds as `2·dims` columns — the
//! lower and the upper bound of each dimension — beside a pointer array,
//! the layout the member kernel (`acx_geom::scan`) scans, so queries
//! verify leaf entries and prune child boxes without a transpose. The
//! paper's page accounting is per entry and does not depend on the
//! layout: `2·Nd` 4-byte reals plus a 4-byte pointer
//! ([`super::RStarConfig::entry_bytes`]), so fan-out
//! ([`super::RStarConfig::max_entries`]) is unchanged. Insertion, the R*
//! split and forced reinsertion work on flat `[lo0, hi0, lo1, hi1, …]`
//! rows, read through [`Node::row`].

use acx_geom::Scalar;

/// One R*-tree node. `level == 0` marks leaves, whose pointers are object
/// identifiers; internal pointers are node indices.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub level: u16,
    /// Entry bounds, one column per bound: dimension `d`'s lower bounds
    /// at `2·d`, its upper bounds at `2·d + 1`. Every column is as long
    /// as `ptrs`.
    pub cols: Vec<Vec<Scalar>>,
    /// Child node index (internal) or object id (leaf), one per entry.
    pub ptrs: Vec<u32>,
}

impl Node {
    pub fn new(level: u16, dims: usize, capacity: usize) -> Self {
        Self {
            level,
            cols: (0..2 * dims)
                .map(|_| Vec::with_capacity(capacity))
                .collect(),
            ptrs: Vec::with_capacity(capacity),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.ptrs.len()
    }

    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Entry `k`'s bounds as a flat row `[lo0, hi0, lo1, hi1, …]`.
    #[inline]
    pub fn row(&self, k: usize) -> impl Iterator<Item = Scalar> + '_ {
        self.cols.iter().map(move |col| col[k])
    }

    /// Every entry's row, one after another: the flat input of the split,
    /// the reinsert selection and ChooseSubtree.
    pub fn rows(&self) -> Vec<Scalar> {
        let width = self.cols.len();
        let mut flat = vec![0.0; self.len() * width];
        for (c, col) in self.cols.iter().enumerate() {
            for (slot, &v) in flat.iter_mut().skip(c).step_by(width).zip(col) {
                *slot = v;
            }
        }
        flat
    }

    pub fn push(&mut self, mbb: &[Scalar], ptr: u32) {
        debug_assert_eq!(mbb.len(), self.cols.len());
        for (col, &v) in self.cols.iter_mut().zip(mbb) {
            col.push(v);
        }
        self.ptrs.push(ptr);
    }

    /// Removes entry `k`, swapping in the last entry. Returns its pointer.
    pub fn swap_remove(&mut self, k: usize) -> u32 {
        for col in &mut self.cols {
            col.swap_remove(k);
        }
        self.ptrs.swap_remove(k)
    }

    /// Position of the entry pointing at `ptr`.
    pub fn position_of(&self, ptr: u32) -> Option<usize> {
        self.ptrs.iter().position(|&p| p == ptr)
    }

    /// The node's own MBB: the union of all entry MBBs, as a flat row —
    /// the first entry's bounds, widened by each later entry in turn as
    /// [`union_into`] widens them.
    pub fn mbb(&self) -> Vec<Scalar> {
        debug_assert!(!self.ptrs.is_empty());
        let mut acc: Vec<Scalar> = self.row(0).collect();
        for (d, lo_hi) in self.cols.chunks_exact(2).enumerate() {
            for (&lo, &hi) in lo_hi[0].iter().zip(&lo_hi[1]).skip(1) {
                if lo < acc[2 * d] {
                    acc[2 * d] = lo;
                }
                if hi > acc[2 * d + 1] {
                    acc[2 * d + 1] = hi;
                }
            }
        }
        acc
    }

    /// Replaces the MBB of entry `k`.
    pub fn set_entry_mbb(&mut self, k: usize, mbb: &[Scalar]) {
        debug_assert_eq!(mbb.len(), self.cols.len());
        for (col, &v) in self.cols.iter_mut().zip(mbb) {
            col[k] = v;
        }
    }
}

/// Grows `acc` to cover `mbb` (both flat `[lo, hi]` interleaved).
#[inline]
pub(crate) fn union_into(acc: &mut [Scalar], mbb: &[Scalar]) {
    debug_assert_eq!(acc.len(), mbb.len());
    for d in (0..acc.len()).step_by(2) {
        if mbb[d] < acc[d] {
            acc[d] = mbb[d];
        }
        if mbb[d + 1] > acc[d + 1] {
            acc[d + 1] = mbb[d + 1];
        }
    }
}

/// Volume of a flat MBB.
#[inline]
pub(crate) fn area(mbb: &[Scalar]) -> f64 {
    let mut a = 1.0f64;
    for d in (0..mbb.len()).step_by(2) {
        a *= (mbb[d + 1] - mbb[d]) as f64;
    }
    a
}

/// Sum of edge lengths of a flat MBB (the R* margin).
#[inline]
pub(crate) fn margin(mbb: &[Scalar]) -> f64 {
    let mut m = 0.0f64;
    for d in (0..mbb.len()).step_by(2) {
        m += (mbb[d + 1] - mbb[d]) as f64;
    }
    m
}

/// Volume of the intersection of two flat MBBs (0 when disjoint).
#[inline]
pub(crate) fn overlap(a: &[Scalar], b: &[Scalar]) -> f64 {
    let mut v = 1.0f64;
    for d in (0..a.len()).step_by(2) {
        let lo = a[d].max(b[d]);
        let hi = a[d + 1].min(b[d + 1]);
        if hi <= lo {
            return 0.0;
        }
        v *= (hi - lo) as f64;
    }
    v
}

/// Area enlargement needed for `mbb` to cover `add`.
#[inline]
pub(crate) fn enlargement(mbb: &[Scalar], add: &[Scalar]) -> f64 {
    let mut enlarged = 1.0f64;
    for d in (0..mbb.len()).step_by(2) {
        enlarged *= (mbb[d + 1].max(add[d + 1]) - mbb[d].min(add[d])) as f64;
    }
    enlarged - area(mbb)
}

/// Squared distance between the centers of two flat MBBs.
#[inline]
pub(crate) fn center_distance_sq(a: &[Scalar], b: &[Scalar]) -> f64 {
    let mut s = 0.0f64;
    for d in (0..a.len()).step_by(2) {
        let ca = 0.5 * (a[d] + a[d + 1]) as f64;
        let cb = 0.5 * (b[d] + b[d + 1]) as f64;
        s += (ca - cb) * (ca - cb);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_into_expands_bounds() {
        let mut acc = vec![0.2, 0.4, 0.2, 0.4];
        union_into(&mut acc, &[0.1, 0.3, 0.3, 0.6]);
        assert_eq!(acc, vec![0.1, 0.4, 0.2, 0.6]);
    }

    #[test]
    fn area_margin_overlap() {
        let a = [0.0, 0.5, 0.0, 0.4];
        assert!((area(&a) - 0.2).abs() < 1e-6);
        assert!((margin(&a) - 0.9).abs() < 1e-6);
        let b = [0.25, 1.0, 0.2, 1.0];
        assert!((overlap(&a, &b) - 0.25 * 0.2).abs() < 1e-6);
        let c = [0.6, 1.0, 0.0, 1.0];
        assert_eq!(overlap(&a, &c), 0.0);
    }

    #[test]
    fn enlargement_zero_when_contained() {
        let a = [0.0, 1.0, 0.0, 1.0];
        assert_eq!(enlargement(&a, &[0.2, 0.4, 0.3, 0.5]), 0.0);
        let e = enlargement(&[0.0, 0.5, 0.0, 0.5], &[0.0, 1.0, 0.0, 0.5]);
        assert!((e - 0.25).abs() < 1e-6);
    }

    #[test]
    fn node_push_swap_remove() {
        let mut n = Node::new(0, 2, 4);
        assert!(n.rows().is_empty());
        n.push(&[0.1, 0.2, 0.1, 0.2], 1);
        n.push(&[0.3, 0.4, 0.3, 0.4], 2);
        n.push(&[0.5, 0.6, 0.5, 0.6], 3);
        assert_eq!(n.len(), 3);
        assert_eq!(n.swap_remove(0), 1);
        assert_eq!(n.ptrs, vec![3, 2]);
        assert!(n.cols.iter().all(|col| col.len() == 2));
        assert_eq!(n.row(0).collect::<Vec<_>>(), [0.5, 0.6, 0.5, 0.6]);
        assert_eq!(n.rows(), [0.5, 0.6, 0.5, 0.6, 0.3, 0.4, 0.3, 0.4]);
        assert_eq!(n.position_of(2), Some(1));
        assert_eq!(n.position_of(9), None);
    }

    #[test]
    fn node_mbb_covers_entries() {
        let mut n = Node::new(0, 2, 4);
        n.push(&[0.1, 0.2, 0.5, 0.9], 1);
        n.push(&[0.0, 0.4, 0.6, 0.7], 2);
        assert_eq!(n.mbb(), vec![0.0, 0.4, 0.5, 0.9]);
    }

    #[test]
    fn center_distance() {
        let a = [0.0, 0.2, 0.0, 0.2]; // center (0.1, 0.1)
        let b = [0.2, 0.4, 0.4, 0.6]; // center (0.3, 0.5)
        assert!((center_distance_sq(&a, &b) - (0.04 + 0.16)).abs() < 1e-6);
    }
}
