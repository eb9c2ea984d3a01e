use std::time::Instant;

use acx_geom::scan::{scan_columns, PairedColumns, ScanScratch};
use acx_geom::{object_size_bytes, HyperRect, ObjectId, Scalar, SpatialQuery};
use acx_storage::{AccessStats, CostModel, QueryMetrics, QueryResult, StorageScenario};

/// Sequential Scan baseline (paper §7.1).
///
/// The whole database is one sequential segment; every query verifies
/// every object. Quantitatively expensive but with perfect locality: on
/// disk it pays a single seek plus a sustained sequential transfer, which
/// makes it the reference point in high-dimensional spaces.
///
/// Coordinates are stored in dimension-major columns and verified by the
/// same batch kernel ([`acx_geom::scan::scan_columns`]) as the adaptive
/// index's cluster exploration, so the benchmark comparison stays
/// apples-to-apples at the verification level. The paper's footnote 4 is
/// reproduced faithfully: an object stops being counted as soon as one
/// dimension fails the selection, so the *verified* byte count (and the
/// in-memory execution time) grows as query selectivity decreases —
/// bit-identical to object-at-a-time verification.
pub struct SeqScan {
    dims: usize,
    ids: Vec<u32>,
    /// Dimension-major columns: `cols[2d]` = lower bounds of dimension
    /// `d`, `cols[2d + 1]` = upper bounds, each one scalar per object.
    cols: Vec<Vec<Scalar>>,
    model: CostModel,
}

impl SeqScan {
    /// Creates an empty scan baseline priced for the given scenario on
    /// the paper's reference platform.
    pub fn new(dims: usize, scenario: StorageScenario) -> Self {
        assert!(dims > 0, "dims must be positive");
        Self {
            dims,
            ids: Vec::new(),
            cols: vec![Vec::new(); 2 * dims],
            model: CostModel::new(Default::default(), scenario, object_size_bytes(dims)),
        }
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Dimensionality of stored objects.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The cost model pricing this baseline.
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// Appends an object.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle dimensionality differs from the store's.
    pub fn insert(&mut self, id: ObjectId, rect: &HyperRect) {
        assert_eq!(rect.dims(), self.dims, "dimensionality mismatch");
        self.ids.push(id.raw());
        for d in 0..self.dims {
            let iv = rect.interval(d);
            self.cols[2 * d].push(iv.lo());
            self.cols[2 * d + 1].push(iv.hi());
        }
    }

    /// Removes an object by id. Returns whether it was present.
    pub fn remove(&mut self, id: ObjectId) -> bool {
        let Some(idx) = self.ids.iter().position(|&o| o == id.raw()) else {
            return false;
        };
        self.ids.swap_remove(idx);
        for col in &mut self.cols {
            col.swap_remove(idx);
        }
        true
    }

    /// Executes a spatial selection by scanning the entire database.
    ///
    /// # Panics
    ///
    /// Panics if the query dimensionality differs from the store's.
    pub fn execute(&self, query: &SpatialQuery) -> QueryResult {
        let mut scratch = ScanScratch::new();
        self.execute_with(query, &mut scratch)
    }

    /// [`SeqScan::execute`] through a reusable kernel scratch: a
    /// warmed-up scratch lets repeated scans run without growing the
    /// match buffer, leaving the returned match vector as the only
    /// per-query allocation.
    ///
    /// # Panics
    ///
    /// Panics if the query dimensionality differs from the store's.
    pub fn execute_with(&self, query: &SpatialQuery, scratch: &mut ScanScratch) -> QueryResult {
        assert_eq!(query.dims(), self.dims, "dimensionality mismatch");
        let started = Instant::now();
        let n = self.ids.len();
        let outcome = scan_columns(query, &PairedColumns::new(&self.cols), scratch);
        let stats = AccessStats {
            signature_checks: 0,
            clusters_explored: 1,
            seeks: 1,
            objects_verified: n as u64,
            verified_bytes: outcome.verified_bytes(),
            transfer_bytes: (n * self.model.object_bytes()) as u64,
        };
        let matches = scratch
            .matches()
            .iter()
            .map(|&idx| ObjectId(self.ids[idx as usize]))
            .collect();
        let priced_ms = self.model.price(&stats);
        QueryResult {
            matches,
            metrics: QueryMetrics {
                stats,
                priced_ms,
                wall: started.elapsed(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(lo: &[Scalar], hi: &[Scalar]) -> HyperRect {
        HyperRect::from_bounds(lo, hi).unwrap()
    }

    fn populated() -> SeqScan {
        let mut s = SeqScan::new(2, StorageScenario::Memory);
        s.insert(ObjectId(1), &rect(&[0.1, 0.1], &[0.3, 0.3]));
        s.insert(ObjectId(2), &rect(&[0.6, 0.6], &[0.8, 0.8]));
        s.insert(ObjectId(3), &rect(&[0.0, 0.0], &[1.0, 1.0]));
        s
    }

    #[test]
    fn scan_finds_matches_for_all_relations() {
        let s = populated();
        let inter = s.execute(&SpatialQuery::intersection(rect(&[0.2, 0.2], &[0.25, 0.25])));
        let mut got = inter.matches;
        got.sort_unstable();
        assert_eq!(got, vec![ObjectId(1), ObjectId(3)]);

        let cont = s.execute(&SpatialQuery::containment(rect(&[0.5, 0.5], &[0.9, 0.9])));
        assert_eq!(cont.matches, vec![ObjectId(2)]);

        let encl = s.execute(&SpatialQuery::enclosure(rect(&[0.05, 0.05], &[0.9, 0.9])));
        assert_eq!(encl.matches, vec![ObjectId(3)]);

        let point = s.execute(&SpatialQuery::point_enclosing(vec![0.7, 0.7]));
        let mut got = point.matches;
        got.sort_unstable();
        assert_eq!(got, vec![ObjectId(2), ObjectId(3)]);
    }

    #[test]
    fn every_object_is_verified() {
        let s = populated();
        let r = s.execute(&SpatialQuery::point_enclosing(vec![0.0, 0.0]));
        assert_eq!(r.metrics.stats.objects_verified, 3);
        assert_eq!(r.metrics.stats.clusters_explored, 1);
        assert_eq!(r.metrics.stats.seeks, 1);
        assert_eq!(r.metrics.stats.transfer_bytes, 3 * 20);
    }

    #[test]
    fn early_exit_reduces_verified_bytes() {
        let mut s = SeqScan::new(4, StorageScenario::Memory);
        // Object failing in dimension 1 for the point below.
        s.insert(ObjectId(1), &rect(&[0.8, 0.0, 0.0, 0.0], &[0.9, 1.0, 1.0, 1.0]));
        // Object matching in all 4 dimensions.
        s.insert(ObjectId(2), &rect(&[0.0; 4], &[1.0; 4]));
        let r = s.execute(&SpatialQuery::point_enclosing(vec![0.1; 4]));
        // 4 (id) + 8·1 for the early reject, 4 + 8·4 for the full check.
        assert_eq!(r.metrics.stats.verified_bytes, (4 + 8) + (4 + 32));
    }

    #[test]
    fn remove_swaps_and_truncates() {
        let mut s = populated();
        assert!(s.remove(ObjectId(1)));
        assert!(!s.remove(ObjectId(1)));
        assert_eq!(s.len(), 2);
        let r = s.execute(&SpatialQuery::point_enclosing(vec![0.2, 0.2]));
        assert_eq!(r.matches, vec![ObjectId(3)]);
    }

    #[test]
    fn disk_pricing_includes_full_transfer() {
        let mut s = SeqScan::new(16, StorageScenario::Disk);
        for i in 0..1000 {
            s.insert(ObjectId(i), &rect(&[0.0; 16], &[1.0; 16]));
        }
        let r = s.execute(&SpatialQuery::point_enclosing(vec![0.5; 16]));
        // 1000 objects × 132 B at ≈ 4.77e-5 ms/B plus one 15 ms seek.
        assert!(r.metrics.priced_ms > 15.0 + 132_000.0 * 4.5e-5);
        assert_eq!(r.metrics.stats.transfer_bytes, 132_000);
    }

    #[test]
    fn empty_scan_returns_nothing() {
        let s = SeqScan::new(3, StorageScenario::Memory);
        assert!(s.is_empty());
        let r = s.execute(&SpatialQuery::point_enclosing(vec![0.5; 3]));
        assert!(r.matches.is_empty());
        assert_eq!(r.metrics.stats.objects_verified, 0);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn insert_rejects_wrong_dims() {
        let mut s = SeqScan::new(3, StorageScenario::Memory);
        s.insert(ObjectId(1), &rect(&[0.0; 2], &[1.0; 2]));
    }

    #[test]
    fn execute_with_reuses_the_scratch() {
        let s = populated();
        let mut scratch = ScanScratch::new();
        let q = SpatialQuery::point_enclosing(vec![0.7, 0.7]);
        let a = s.execute_with(&q, &mut scratch);
        let b = s.execute_with(&q, &mut scratch);
        assert_eq!(a.matches, b.matches);
        assert_eq!(a.metrics.stats, b.metrics.stats);
    }
}
