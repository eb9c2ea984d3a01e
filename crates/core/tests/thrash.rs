//! Split→merge thrash under the oscillating adversary.
//!
//! The adversary alternates the query focus between two disjoint
//! regions: the index materializes clusters for the hot region, merges
//! them back when the heat flips, and re-creates the same signatures
//! when it flips again — completed split→merge→split cycles counted by
//! [`acx_core::ReorgProfile::thrash_cycles`].

use acx_core::{AdaptiveClusterIndex, IndexConfig};
use acx_geom::ObjectId;
use acx_workloads::{AdaptiveScenario, OscillatingHeat, UniformWorkload, WorkloadConfig};

/// Drives the oscillating adversary through 24 explicit reorganization
/// passes and returns `(thrash, merges, splits)` totals.
fn drive_adversary() -> (u64, u64, u64) {
    let dims = 3;
    let cfg = WorkloadConfig::new(dims, 1500, 0x7A5A);
    let objects = UniformWorkload::with_max_length(cfg.clone(), 0.4).generate_objects();
    // The heat flips every 3 passes of 60 queries: clusters built for
    // one phase are merged during the other, then rebuilt — the
    // split→merge→split loop the thrash counter detects.
    let mut scenario = OscillatingHeat::new(&cfg, 180, 0.3, 0.08);
    let mut config = IndexConfig::memory(dims);
    config.reorg_period = 0;
    config.confidence_z = 0.0; // act on any positive benefit: maximal churn
    let mut index = AdaptiveClusterIndex::new(config).unwrap();
    for (i, rect) in objects.iter().enumerate() {
        index.insert(ObjectId(i as u32), rect.clone()).unwrap();
    }
    let mut profile_thrash = 0;
    for _ in 0..24 {
        for _ in 0..60 {
            let q = scenario.next_query();
            index.execute(&q);
        }
        index.reorganize();
        profile_thrash += index.last_reorg_profile().thrash_cycles;
    }
    // The per-pass profile counters must sum to the lifetime total.
    assert_eq!(profile_thrash, index.total_thrash());
    index.check_invariants().unwrap();
    (
        index.total_thrash(),
        index.total_merges(),
        index.total_splits(),
    )
}

/// The adversary forces real thrash cycles, and the counter sees them.
#[test]
fn oscillating_adversary_thrashes_without_hysteresis() {
    let (thrash, merges, splits) = drive_adversary();
    assert!(merges > 0 && splits > 0, "adversary must force churn");
    assert!(
        thrash > 0,
        "oscillating heat must complete split→merge→split cycles (got {merges} merges, \
         {splits} splits, 0 counted cycles)"
    );
}
