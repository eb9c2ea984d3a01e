//! The matching phase (paper §3.6, Fig. 5) and the statistics recorded
//! over it: one traversal (`explore`) behind every query entry point,
//! which lists the clusters it explored and records nothing, then a
//! recorder per statistics-keeping entry point that walks that list.

use std::time::Instant;

use acx_geom::scan::{scan_columns_loaded, QueryBounds, ScanScratch};
use acx_geom::{ObjectId, SpatialQuery};
use acx_storage::AccessStats;

use super::AdaptiveClusterIndex;
use crate::batch::StatsDelta;
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

    /// Read-only execution that additionally records the statistics the
    /// query would have written into `delta`. Apply the delta later with
    /// [`AdaptiveClusterIndex::apply_stats`] to make the adaptive
    /// reorganization see the queries exactly as if they had been run via
    /// [`AdaptiveClusterIndex::execute`].
    ///
    /// The first recorded query stamps the delta with the index's current
    /// structural epoch, so one delta never mixes queries recorded across
    /// a reorganization that changed the clustering.
    ///
    /// # Panics
    ///
    /// Panics if the query dimensionality differs from the index's, or if
    /// `delta` already holds queries recorded against a different
    /// clustering state.
    pub fn query_recorded(&self, query: &SpatialQuery, delta: &mut StatsDelta) -> QueryResult {
        let mut scratch = QueryScratch::new();
        let metrics = self.query_recorded_with(query, delta, &mut scratch);
        QueryResult {
            matches: std::mem::take(&mut scratch.matches),
            metrics,
        }
    }

    /// [`AdaptiveClusterIndex::query_recorded`] through a reusable
    /// scratch arena: matches land in [`QueryScratch::matches`] and a
    /// warmed-up (scratch, delta) pair records queries without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Same conditions as [`AdaptiveClusterIndex::query_recorded`].
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
        for &slot in &scratch.explored {
            let cands = &self.candidates[slot as usize];
            let recorded = delta.cluster_mut(slot, cands.len());
            recorded.q_count += 1;
            cands.count_query_into(query, &mut recorded.cand_q[..cands.len()]);
        }
        delta.queries += 1;
        delta.verified_bytes += metrics.stats.verified_bytes;
        delta.full_bytes += metrics.stats.objects_verified * self.store.object_bytes() as u64;
        metrics
    }

    /// Applies statistics recorded by
    /// [`AdaptiveClusterIndex::query_recorded`], then runs a
    /// reorganization pass if the configured `reorg_period` has elapsed.
    ///
    /// Apply a delta before the next reorganization. If a reorganization
    /// *changed* the clustering in between, the delta is stale: its
    /// per-cluster increments are dropped (merges recycle cluster slots,
    /// so applying them could credit unrelated clusters), while the
    /// global query and byte totals — which stay meaningful — are still
    /// counted.
    pub fn apply_stats(&mut self, delta: &StatsDelta) {
        if delta.epoch.is_none_or(|e| e == self.clocks.structure_epoch) {
            // Only the touched list carries increments: a reused delta
            // (see [`StatsDelta::clear`]) may retain zeroed entries for
            // clusters of earlier epochs whose slots were since recycled
            // or freed, but those are not on the list. Each touched
            // cluster replays any lazily skipped decay epochs before the
            // new increments land on it.
            for &slot in &delta.touched {
                let recorded = &delta.clusters[slot as usize];
                let cands = &mut self.candidates[slot as usize];
                cands.catch_up_to(self.clocks.stats_epoch);
                cands.add_q_slice(&recorded.cand_q);
                self.cluster_mut(slot).q_count += recorded.q_count;
            }
        }
        self.close_queries(delta.queries, delta.verified_bytes, delta.full_bytes);
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
    /// [`AdaptiveClusterIndex::apply_stats`] would.
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
        // In exploration order — the order `apply_stats` walks a
        // one-query delta's touched list in.
        let stats_epoch = self.clocks.stats_epoch;
        for &slot in &scratch.explored {
            let cands = &mut self.candidates[slot as usize];
            cands.catch_up_to(stats_epoch);
            cands.note_query(query);
            self.cluster_mut(slot).q_count += 1;
        }
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
