//! The matching phase (paper §3.6, Fig. 5) and the statistics recorded
//! over it: one traversal (`explore`) behind every query entry point,
//! which lists the clusters it explored and records nothing, then one
//! per-slot recorder (`record`) that `execute` runs over that list and
//! `apply_stats` over the lists a delta logged.

use std::time::Instant;

use acx_geom::scan::{scan_columns_loaded, QueryBounds, ScanScratch};
use acx_geom::{ObjectId, Scalar, SpatialQuery};
use acx_storage::AccessStats;

use super::AdaptiveClusterIndex;
use crate::batch::StatsDelta;
use crate::candidates::query_sides;
use crate::metrics::{QueryMetrics, QueryResult};
use crate::IndexError;

/// Reusable per-query scratch arena for the matching phase: the query's
/// loaded bounds, the scan kernel's match buffer, the result buffer,
/// the cluster traversal stack and the explored slots. Buffers grow to
/// the workload's high-water mark and are then reused, so a warmed-up
/// scratch lets [`AdaptiveClusterIndex::query_with`] execute without
/// allocating.
///
/// One scratch serves one thread: each concurrent reader brings its
/// own, and the sequential [`AdaptiveClusterIndex::execute`] path keeps
/// one inside the index.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// The query's comparison shape and per-dimension bounds, loaded
    /// once per exploration and shared by every member-kernel call.
    bounds: QueryBounds,
    /// Columnar kernel state (per-segment match indices).
    scan: ScanScratch,
    /// Matches of the last query, across all explored clusters.
    matches: Vec<ObjectId>,
    /// DFS stack over cluster slots.
    stack: Vec<u32>,
    /// Slots of the clusters the last query explored, in exploration
    /// order: what the recording entry points record over.
    explored: Vec<u32>,
}

impl QueryScratch {
    /// An empty scratch; buffers are sized lazily by the first queries.
    pub fn new() -> Self {
        Self::default()
    }

    /// Identifiers of the objects matched by the most recent query run
    /// through this scratch (cluster exploration order).
    pub fn matches(&self) -> &[ObjectId] {
        &self.matches
    }
}

impl AdaptiveClusterIndex {
    /// The matching phase shared by every query entry point (paper
    /// §3.6, Fig. 5): explores every materialized cluster whose
    /// signature matches the query and verifies its members
    /// sequentially, leaving the matches and the explored slots, in
    /// exploration order, in `scratch`. It records nothing; the callers
    /// that keep statistics record over the explored slots afterwards.
    ///
    /// Members are verified by the batch kernel over the store's member
    /// columns, with the query's bounds loaded once. Nothing is
    /// allocated once the scratch's buffers have grown to the
    /// workload's high-water mark.
    fn explore(&self, query: &SpatialQuery, scratch: &mut QueryScratch) -> QueryMetrics {
        let started = Instant::now();
        let mut stats = AccessStats::new();
        let object_bytes = self.store.object_bytes() as u64;
        scratch.matches.clear();
        scratch.explored.clear();
        scratch.bounds.load(query);
        scratch.stack.clear();
        // One signature check per cluster, as the paper prices it: the
        // root's on its whole signature, a child's on its row, the
        // dimensions where it differs from the parent that matched.
        stats.signature_checks += 1;
        if self.cluster(self.root).signature.matches_query(query) {
            scratch.stack.push(self.root);
        }
        while let Some(slot) = scratch.stack.pop() {
            let cluster = self.cluster(slot);
            scratch.explored.push(slot);
            let n = self.store.segment_len(cluster.segment);
            stats.clusters_explored += 1;
            stats.seeks += 1;
            stats.transfer_bytes += n as u64 * object_bytes;
            stats.objects_verified += n as u64;
            let ids = self.store.ids(cluster.segment);
            let columns = self.store.columns(cluster.segment);
            let outcome = scan_columns_loaded(&scratch.bounds, &columns, &mut scratch.scan);
            stats.verified_bytes += outcome.verified_bytes();
            for &idx in scratch.scan.matches() {
                scratch.matches.push(ObjectId(ids[idx as usize]));
            }
            stats.signature_checks += cluster.children.len() as u64;
            for row in cluster.children.rows() {
                let matched = row.matches_query(query);
                debug_assert_eq!(
                    matched,
                    self.cluster(row.slot).signature.matches_query(query),
                    "child row of cluster {} disagrees with its signature",
                    row.slot
                );
                if matched {
                    scratch.stack.push(row.slot);
                }
            }
        }

        let priced_ms = self.model.price(&stats);
        QueryMetrics {
            stats,
            priced_ms,
            wall: started.elapsed(),
        }
    }

    /// Executes a spatial selection **read-only**: identical match set and
    /// access metrics to [`AdaptiveClusterIndex::execute`], but no
    /// statistics are recorded and no reorganization can trigger. Because
    /// it takes `&self`, any number of `query` calls may run concurrently
    /// from threads sharing the index.
    ///
    /// ```
    /// use acx_core::{AdaptiveClusterIndex, IndexConfig};
    /// use acx_geom::{HyperRect, ObjectId, SpatialQuery};
    ///
    /// let mut index = AdaptiveClusterIndex::new(IndexConfig::memory(2)).unwrap();
    /// index.insert(ObjectId(1), HyperRect::from_bounds(&[0.0; 2], &[1.0; 2]).unwrap()).unwrap();
    /// let q = SpatialQuery::point_enclosing(vec![0.5, 0.5]);
    /// let (a, b) = std::thread::scope(|s| {
    ///     let (shared, q) = (&index, &q); // no `mut`: readers share the index
    ///     let a = s.spawn(move || shared.query(q).matches);
    ///     let b = s.spawn(move || shared.query(q).matches);
    ///     (a.join().unwrap(), b.join().unwrap())
    /// });
    /// assert_eq!(a, vec![ObjectId(1)]);
    /// assert_eq!(a, b);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the query dimensionality differs from the index's; use
    /// [`AdaptiveClusterIndex::try_query`] for a fallible variant.
    pub fn query(&self, query: &SpatialQuery) -> QueryResult {
        self.try_query(query)
            .unwrap_or_else(|e| panic!("{}", Self::dims_panic(&e)))
    }

    /// Fallible variant of [`AdaptiveClusterIndex::query`]: returns
    /// [`IndexError::DimensionMismatch`] instead of panicking.
    pub fn try_query(&self, query: &SpatialQuery) -> Result<QueryResult, IndexError> {
        self.check_dims(query.dims())?;
        let mut scratch = QueryScratch::new();
        let metrics = self.explore(query, &mut scratch);
        Ok(QueryResult {
            matches: std::mem::take(&mut scratch.matches),
            metrics,
        })
    }

    /// Zero-allocation variant of [`AdaptiveClusterIndex::query`]: the
    /// matching phase runs entirely inside the caller-provided scratch
    /// arena and the matches are read back through
    /// [`QueryScratch::matches`]. Once the scratch's buffers have grown
    /// to the workload's high-water mark, repeated calls allocate
    /// nothing — the hot serving loop for callers that do not need owned
    /// results.
    ///
    /// ```
    /// use acx_core::{AdaptiveClusterIndex, IndexConfig, QueryScratch};
    /// use acx_geom::{HyperRect, ObjectId, SpatialQuery};
    ///
    /// let mut index = AdaptiveClusterIndex::new(IndexConfig::memory(2)).unwrap();
    /// index.insert(ObjectId(1), HyperRect::from_bounds(&[0.0; 2], &[1.0; 2]).unwrap()).unwrap();
    /// let mut scratch = QueryScratch::new();
    /// let q = SpatialQuery::point_enclosing(vec![0.5, 0.5]);
    /// let metrics = index.query_with(&q, &mut scratch);
    /// assert_eq!(scratch.matches(), &[ObjectId(1)]);
    /// assert_eq!(metrics.stats.objects_verified, 1);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the query dimensionality differs from the index's.
    pub fn query_with(&self, query: &SpatialQuery, scratch: &mut QueryScratch) -> QueryMetrics {
        self.check_dims(query.dims())
            .unwrap_or_else(|e| panic!("{}", Self::dims_panic(&e)));
        self.explore(query, scratch)
    }

    /// Read-only execution that additionally logs the query into
    /// `delta`, matches landing in [`QueryScratch::matches`]. Apply the
    /// delta later with [`AdaptiveClusterIndex::apply_stats`] to make the
    /// adaptive reorganization see the queries exactly as if they had
    /// been run via [`AdaptiveClusterIndex::execute`]. A warmed-up
    /// (scratch, delta) pair logs queries without allocating.
    ///
    /// The first logged query stamps the delta with the index's current
    /// structural epoch, so one delta never mixes queries recorded across
    /// a reorganization that changed the clustering.
    ///
    /// # Panics
    ///
    /// Panics if the query dimensionality differs from the index's, or if
    /// `delta` already holds queries recorded against a different
    /// clustering state.
    pub fn query_recorded_with(
        &self,
        query: &SpatialQuery,
        delta: &mut StatsDelta,
        scratch: &mut QueryScratch,
    ) -> QueryMetrics {
        self.check_dims(query.dims())
            .unwrap_or_else(|e| panic!("{}", Self::dims_panic(&e)));
        match delta.epoch {
            None => delta.epoch = Some(self.clocks.structure_epoch),
            Some(e) => assert_eq!(
                e, self.clocks.structure_epoch,
                "StatsDelta was recorded against a different clustering state"
            ),
        }
        let metrics = self.explore(query, scratch);
        delta.log(query, &scratch.explored);
        delta.verified_bytes += metrics.stats.verified_bytes;
        delta.full_bytes += metrics.stats.objects_verified * self.store.object_bytes() as u64;
        metrics
    }

    /// Replays the queries logged by
    /// [`AdaptiveClusterIndex::query_recorded_with`] over their slots
    /// through `execute`'s own per-slot recorder, then counts them and
    /// runs a reorganization pass if the configured `reorg_period` has
    /// elapsed.
    ///
    /// Apply a delta before the next reorganization. If a reorganization
    /// *changed* the clustering in between, the delta is stale: its
    /// per-cluster part is dropped (merges recycle cluster slots, so
    /// replaying it could credit unrelated clusters), while the global
    /// query and byte totals — which stay meaningful — are still
    /// counted.
    pub fn apply_stats(&mut self, delta: &StatsDelta) {
        if delta.epoch.is_none_or(|e| e == self.clocks.structure_epoch) {
            for (containment, thresholds, slots) in delta.logged(self.dims()) {
                for &slot in slots {
                    self.record(slot, containment, thresholds.iter().copied());
                }
            }
        }
        self.close_queries(delta.queries(), delta.verified_bytes, delta.full_bytes);
    }

    /// The per-slot recorder of every statistics-writing path: catches
    /// the cluster's candidate set up on its skipped decay epochs, notes
    /// the query, given as its `query_sides!`, in the set, and counts it
    /// in the cluster's `q_count`.
    fn record(
        &mut self,
        slot: u32,
        containment: bool,
        thresholds: impl Iterator<Item = (Scalar, Scalar)>,
    ) {
        let stats_epoch = self.clocks.stats_epoch;
        let cands = &mut self.candidates[slot as usize];
        cands.catch_up_to(stats_epoch);
        cands.note_sides(containment, thresholds);
        self.cluster_mut(slot).q_count += 1;
    }

    /// The tail of every statistics-writing path: counts the queries
    /// and the bytes they verified into the running epoch, then runs a
    /// reorganization pass if the configured `reorg_period` has elapsed.
    fn close_queries(&mut self, queries: u64, verified_bytes: u64, full_bytes: u64) {
        let clocks = &mut self.clocks;
        clocks.total_queries += queries;
        clocks.epoch_verified_bytes += verified_bytes;
        clocks.epoch_full_bytes += full_bytes;
        clocks.queries_since_reorg += queries;
        if self.config.reorg_period > 0 && clocks.queries_since_reorg >= self.config.reorg_period {
            self.reorganize();
        }
    }

    fn dims_panic(e: &IndexError) -> String {
        match e {
            IndexError::DimensionMismatch { expected, actual } => {
                format!("query dimensionality {actual} != index dimensionality {expected}")
            }
            other => other.to_string(),
        }
    }

    /// Executes a spatial selection (paper §3.6, Fig. 5) and maintains
    /// the statistics of explored clusters and their candidate
    /// subclusters, in place: the one traversal every entry point
    /// shares, then each explored cluster caught up on its skipped decay
    /// epochs and the query noted in its candidate set
    /// ([`crate::candidates::CandidateSet::note_query`]). It leaves the
    /// index exactly where
    /// [`AdaptiveClusterIndex::query_recorded_with`] followed by
    /// [`AdaptiveClusterIndex::apply_stats`] would: both run one
    /// per-slot recorder.
    ///
    /// When `reorg_period` is non-zero, a cluster reorganization pass runs
    /// automatically every `reorg_period` executed queries.
    ///
    /// # Panics
    ///
    /// Panics if the query dimensionality differs from the index's; use
    /// [`AdaptiveClusterIndex::try_execute`] for a fallible variant.
    pub fn execute(&mut self, query: &SpatialQuery) -> QueryResult {
        self.try_execute(query)
            .unwrap_or_else(|e| panic!("{}", Self::dims_panic(&e)))
    }

    /// Fallible variant of [`AdaptiveClusterIndex::execute`]: returns
    /// [`IndexError::DimensionMismatch`] instead of panicking.
    ///
    /// The matching phase runs through the index-owned scratch arena,
    /// so the only per-query allocation left is the returned match
    /// vector.
    pub fn try_execute(&mut self, query: &SpatialQuery) -> Result<QueryResult, IndexError> {
        self.check_dims(query.dims())?;
        // Move the scratch out (pointer swaps, not allocations): the
        // traversal reads the index, then the record writes it.
        let mut scratch = std::mem::take(&mut self.query_scratch);
        let metrics = self.explore(query, &mut scratch);
        // In exploration order, as `apply_stats` replays a logged query.
        query_sides!(query, |containment, sides| {
            for &slot in &scratch.explored {
                self.record(slot, containment, sides.clone());
            }
        });
        self.close_queries(
            1,
            metrics.stats.verified_bytes,
            metrics.stats.objects_verified * self.store.object_bytes() as u64,
        );
        let matches = scratch.matches.clone();
        self.query_scratch = scratch;
        Ok(QueryResult { matches, metrics })
    }
}
