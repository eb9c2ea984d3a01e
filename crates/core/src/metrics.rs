pub use acx_storage::{QueryMetrics, QueryResult};

/// Outcome of one reorganization pass (paper Fig. 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReorgReport {
    /// Clusters merged back into their parents.
    pub merges: u64,
    /// Candidate subclusters materialized as new clusters.
    pub splits: u64,
    /// Materialized clusters before the pass.
    pub clusters_before: usize,
    /// Materialized clusters after the pass.
    pub clusters_after: usize,
}

impl ReorgReport {
    /// Whether the pass changed the clustering at all.
    pub fn changed(&self) -> bool {
        self.merges > 0 || self.splits > 0
    }
}

/// Work profile of the most recent reorganization pass — diagnostics,
/// *not* part of its decision surface.
///
/// Unlike [`ReorgReport`], which the equivalence suites compare with the
/// paper's model pass for pass, the profile describes how much work a
/// pass performed — scans the screen skipped, members moved, bytes of
/// candidate statistics — which the model has no counterpart for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReorgProfile {
    /// Clusters that passed the epoch gate and had their merge and
    /// split verdicts evaluated.
    pub evaluated: u64,
    /// Full candidate benefit scans performed (each walks the cluster's
    /// whole `f²·N_d` counter columns, possibly several times when
    /// materializations cascade).
    pub candidate_scans: u64,
    /// Clusters whose O(1) screen proved the candidate scan could not
    /// find a profitable split, skipping it entirely.
    pub screened_out: u64,
    /// Objects the pass's merges and materializations moved from one
    /// cluster to another — what the move margin's per-object cost `M`
    /// is charged for (`scan_bench --cost-terms` divides pass time by
    /// it).
    pub objects_moved: u64,
    /// Materializations this pass that re-created a cluster signature
    /// merged away within the last few passes — one completed
    /// split→merge→split cycle each.
    pub thrash_cycles: u64,
    /// Bytes the live clusters' candidate sets hold at pass end
    /// ([`crate::candidates::CandidateSet::bytes`] summed over the
    /// clusters; a free slot's empty set holds none). The name is the
    /// one the benchmark reports it under.
    pub arena_live_bytes: u64,
}

/// A read-only view of one materialized cluster, for inspection, tests
/// and the experiment harness. Comparable with `==` so tests can assert
/// that two executions leave identical clustering state.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSnapshot {
    /// Dense identifier of the cluster within the index.
    pub id: u32,
    /// Identifier of the parent cluster (`None` for the root).
    pub parent: Option<u32>,
    /// Number of member objects.
    pub objects: usize,
    /// Estimated access probability in the current statistics epoch.
    pub access_probability: f64,
    /// Depth in the cluster tree (root = 0).
    pub depth: usize,
    /// Rendered signature (paper notation).
    pub signature: String,
}

/// Outcome of [`crate::AdaptiveClusterIndex::recover`]: what survived
/// the crash and what it took to come back.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// WAL records replayed on top of the checkpoint.
    pub replayed_records: u64,
    /// Records discarded because the loaded checkpoint already absorbed
    /// them: the crash hit between a checkpoint save and its WAL
    /// truncation, leaving the log stamped with the previous
    /// checkpoint id.
    pub superseded_records: u64,
    /// The torn tail truncated from the log, if the crash left one.
    pub torn_tail: Option<acx_storage::TornTail>,
    /// Materialized clusters after recovery.
    pub clusters: usize,
    /// Indexed objects after recovery.
    pub objects: usize,
    /// Where the restart's time went and which records it replayed.
    pub profile: RecoveryProfile,
}

/// The phases of one [`crate::AdaptiveClusterIndex::recover`], in wall
/// nanoseconds, and its replayed records by kind. Membership records are
/// counted only; the structural ones are timed too, each one clock read
/// either side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryProfile {
    /// Loading the checkpoint, or building the empty index without one.
    pub load_ns: u64,
    /// Replaying the log's records on top of it.
    pub replay_ns: u64,
    /// Putting every segment in key order and `check_invariants`.
    pub audit_ns: u64,
    /// Replayed `Insert` records.
    pub inserts: u64,
    /// Replayed `Remove` records.
    pub removes: u64,
    /// Replayed `Update` records.
    pub updates: u64,
    /// Replayed `Materialize` records.
    pub materializes: u64,
    /// Replayed `Merge` records.
    pub merges: u64,
    /// Replayed `EpochClose` records.
    pub epoch_closes: u64,
    /// Of `replay_ns`, the time in `Materialize` records.
    pub materialize_ns: u64,
    /// Of `replay_ns`, the time in `Merge` records.
    pub merge_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reorg_report_changed() {
        let mut r = ReorgReport::default();
        assert!(!r.changed());
        r.merges = 1;
        assert!(r.changed());
        r = ReorgReport {
            splits: 2,
            ..Default::default()
        };
        assert!(r.changed());
    }

    #[test]
    fn snapshot_fields_are_accessible() {
        let s = ClusterSnapshot {
            id: 1,
            parent: Some(0),
            objects: 10,
            access_probability: 0.5,
            depth: 1,
            signature: "sig".into(),
        };
        assert_eq!(s.parent, Some(0));
        assert_eq!(s.depth, 1);
    }
}
