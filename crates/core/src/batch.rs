//! Recorded statistics of read-only query execution.
//!
//! One traversal lists the clusters a query explored, and records
//! nothing; `query` stops there. [`crate::AdaptiveClusterIndex::execute`]
//! holds `&mut self` and records over that list into each explored
//! cluster's candidate set in place; the two-phase path splits that
//! execution in two. Phase one,
//! [`crate::AdaptiveClusterIndex::query_recorded`], matches on `&self`
//! and *records* over the list what an execution would have written —
//! per-cluster matching-query counts, per-candidate matching-query
//! counts (through the same compare-and-count kernel), and the epoch
//! byte counters feeding the early-exit verification fraction — into a
//! [`StatsDelta`].
//! Phase two, [`crate::AdaptiveClusterIndex::apply_stats`], applies it
//! under the exclusive borrow and runs the pass if one is due. Applying
//! a query's delta leaves the index exactly where `execute` leaves it.

/// Statistics recorded by [`crate::AdaptiveClusterIndex::query_recorded`]
/// and applied by [`crate::AdaptiveClusterIndex::apply_stats`].
///
/// A delta is only meaningful against the clustering state it was
/// recorded from, so the index stamps it with its structural epoch at
/// the first recorded query: recording into the same delta after a
/// reorganization changed the clustering panics, and applying a stale
/// delta drops the per-cluster increments (slots may have been recycled
/// for unrelated clusters) while still counting the global query and
/// byte totals. A caller that applies each delta before the next pass
/// never produces a stale one.
///
/// Two deltas compare equal when they hold the same totals and the same
/// **live** per-cluster increments — used by tests proving that the two
/// statistics-writing paths record alike. A cleared, reused delta retains
/// zeroed per-cluster entries for capacity; they are ignored by
/// equality.
#[derive(Debug, Clone, Default)]
pub struct StatsDelta {
    /// Structural epoch of the index when recording started (`None`
    /// until the first query is recorded).
    pub(crate) epoch: Option<u64>,
    /// Queries recorded into this delta.
    pub(crate) queries: u64,
    /// Early-exit-accounted bytes verified by the recorded queries.
    pub(crate) verified_bytes: u64,
    /// Full-object bytes of the objects the recorded queries verified.
    pub(crate) full_bytes: u64,
    /// Per-cluster increments, indexed by cluster slot (slots are small
    /// dense integers, so recording is an array index, not a lookup).
    /// Grown on demand to the highest slot recorded.
    pub(crate) clusters: Vec<ClusterDelta>,
    /// Slots whose entry has recorded something since the last
    /// [`StatsDelta::clear`] — the *dirty list*. Clearing and applying a
    /// delta walk this list instead of the whole vector, so a reused
    /// delta costs O(explored clusters) per query even after it has
    /// grown entries for every cluster of the index.
    pub(crate) touched: Vec<u32>,
}

impl PartialEq for StatsDelta {
    fn eq(&self, other: &Self) -> bool {
        if self.epoch != other.epoch
            || self.queries != other.queries
            || self.verified_bytes != other.verified_bytes
            || self.full_bytes != other.full_bytes
        {
            return false;
        }
        // Dirty entries must agree pairwise; retained zeroed entries and
        // the order slots were first touched in are capacity, not
        // content.
        let mut a = self.touched.clone();
        let mut b = other.touched.clone();
        a.sort_unstable();
        b.sort_unstable();
        a == b
            && a.iter().all(|&slot| {
                let (x, y) = (
                    &self.clusters[slot as usize],
                    &other.clusters[slot as usize],
                );
                x.q_count == y.q_count && cand_eq(&x.cand_q, &y.cand_q)
            })
    }
}

/// Candidate counter vectors compare equal up to trailing zeros (a
/// reused delta may have grown its vector beyond another's).
fn cand_eq(a: &[u32], b: &[u32]) -> bool {
    let shared = a.len().min(b.len());
    a[..shared] == b[..shared]
        && a[shared..].iter().all(|&q| q == 0)
        && b[shared..].iter().all(|&q| q == 0)
}

/// Increments destined for one cluster's statistics.
///
/// Candidate increments are a dense counter vector indexed by candidate
/// position (sized to the cluster's candidate count on first use) — the
/// column the compare-and-count kernel adds into — so a delta's size
/// stays O(explored clusters × candidates) regardless of how many
/// queries it accumulates.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClusterDelta {
    /// Queries whose signature matched the cluster.
    pub(crate) q_count: u64,
    /// Matching-query increments, indexed by candidate position.
    pub(crate) cand_q: Vec<u32>,
    /// Whether the entry recorded anything since the last clear (its
    /// slot is then on [`StatsDelta::touched`]).
    pub(crate) dirty: bool,
}

impl StatsDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queries recorded so far.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Whether no query has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.queries == 0
    }

    /// The slots of the clusters this delta recorded statistics for — the
    /// *dirty list*, in first-touch order.
    ///
    /// Applying a delta walks exactly this list: a cluster absent from
    /// it has its candidate counters neither incremented nor caught up
    /// on lazily skipped decay epochs.
    pub fn touched_slots(&self) -> &[u32] {
        &self.touched
    }

    /// Resets the delta for reuse while keeping its allocations: only
    /// the entries on the dirty list are zeroed (in place, keeping their
    /// counter vectors), so clearing costs O(explored clusters of the
    /// recorded queries) — not O(every cluster the delta ever saw) — and
    /// a scratch delta reused across sequential queries stops allocating
    /// once it has seen every explored cluster.
    /// [`crate::AdaptiveClusterIndex::apply_stats`] walks the same dirty
    /// list, so retained entries whose cluster was since merged away are
    /// harmless.
    pub fn clear(&mut self) {
        self.epoch = None;
        self.queries = 0;
        self.verified_bytes = 0;
        self.full_bytes = 0;
        for slot in self.touched.drain(..) {
            let delta = &mut self.clusters[slot as usize];
            delta.q_count = 0;
            delta.cand_q.iter_mut().for_each(|q| *q = 0);
            delta.dirty = false;
        }
    }

    /// The increment slot for one cluster, with its counter vector sized
    /// for at least `candidates` entries; marks the entry dirty. A
    /// reused entry may be longer — its slot once held a cluster with
    /// more candidates — and the surplus stays zero.
    pub(crate) fn cluster_mut(&mut self, slot: u32, candidates: usize) -> &mut ClusterDelta {
        if self.clusters.len() <= slot as usize {
            self.clusters
                .resize_with(slot as usize + 1, ClusterDelta::default);
        }
        let delta = &mut self.clusters[slot as usize];
        if !delta.dirty {
            delta.dirty = true;
            self.touched.push(slot);
        }
        if delta.cand_q.len() < candidates {
            delta.cand_q.resize(candidates, 0);
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ClusterDelta {
        fn bump_candidate(&mut self, cand: u32) {
            let q = &mut self.cand_q[cand as usize];
            *q = q.saturating_add(1);
        }
    }

    #[test]
    fn new_delta_is_empty() {
        let d = StatsDelta::new();
        assert!(d.is_empty());
        assert_eq!(d.queries(), 0);
        assert_eq!(d.epoch, None);
    }

    #[test]
    fn clear_zeroes_but_keeps_capacity() {
        let mut d = StatsDelta::new();
        d.epoch = Some(4);
        d.queries = 3;
        d.verified_bytes = 10;
        d.full_bytes = 20;
        d.cluster_mut(2, 4).q_count = 3;
        d.cluster_mut(2, 4).bump_candidate(1);
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.epoch, None);
        assert_eq!(d.verified_bytes, 0);
        assert_eq!(d.full_bytes, 0);
        // The per-cluster entry survives, zeroed, with its counter
        // vector, but is off the dirty list.
        assert!(!d.clusters[2].dirty);
        assert!(d.touched.is_empty());
        assert_eq!(d.clusters[2].q_count, 0);
        assert!(d.clusters[2].cand_q.iter().all(|&q| q == 0));
        assert_eq!(d.clusters[2].cand_q.len(), 4);
        // Reuse records into the retained storage and re-dirties it.
        d.cluster_mut(2, 4).q_count = 1;
        assert!(d.clusters[2].dirty);
        assert_eq!(d.touched, vec![2]);
    }

    #[test]
    fn cleared_delta_compares_equal_to_a_fresh_recording() {
        // Equality ignores retained zeroed entries: a reused delta that
        // once saw other clusters equals a fresh delta with the same
        // live increments.
        let mut reused = StatsDelta::new();
        reused.queries = 1;
        reused.cluster_mut(9, 4).q_count = 1; // later cleared away
        reused.clear();
        reused.queries = 2;
        reused.verified_bytes = 7;
        reused.cluster_mut(1, 4).q_count = 2;
        reused.cluster_mut(1, 4).bump_candidate(3);
        let mut fresh = StatsDelta::new();
        fresh.queries = 2;
        fresh.verified_bytes = 7;
        fresh.cluster_mut(1, 4).q_count = 2;
        fresh.cluster_mut(1, 4).bump_candidate(3);
        assert_eq!(reused, fresh);
        fresh.cluster_mut(1, 4).bump_candidate(0);
        assert_ne!(reused, fresh);
    }

    #[test]
    fn candidate_counters_saturate_not_wrap() {
        let mut d = StatsDelta::new();
        d.cluster_mut(0, 2).cand_q[1] = u32::MAX - 1;
        d.cluster_mut(0, 2).bump_candidate(1);
        d.cluster_mut(0, 2).bump_candidate(1);
        assert_eq!(d.clusters[0].cand_q[1], u32::MAX);
    }
}
