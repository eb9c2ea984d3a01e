//! Split→merge thrash under the oscillating adversary, and the
//! [`IndexConfig::merge_cooldown`] hysteresis that caps it.
//!
//! The adversary alternates the query focus between two disjoint
//! regions: without hysteresis the index materializes clusters for the
//! hot region, merges them back when the heat flips, and re-creates
//! the same signatures when it flips again — completed
//! split→merge→split cycles counted by
//! [`acx_core::ReorgProfile::thrash_cycles`]. With the cool-down at
//! least as long as the detection window, re-materializing a
//! just-merged signature is vetoed, so the cycle count must drop to
//! exactly zero while the veto counter shows the hysteresis working.

use acx_core::{AdaptiveClusterIndex, IndexConfig};
use acx_geom::ObjectId;
use acx_workloads::{AdaptiveScenario, OscillatingHeat, UniformWorkload, WorkloadConfig};

/// Drives the oscillating adversary through `passes` explicit
/// reorganization passes and returns `(thrash, blocked, merges,
/// splits)` totals.
fn drive_adversary(merge_cooldown: u64) -> (u64, u64, u64, u64) {
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
    config.merge_cooldown = merge_cooldown;
    let mut index = AdaptiveClusterIndex::new(config).unwrap();
    for (i, rect) in objects.iter().enumerate() {
        index.insert(ObjectId(i as u32), rect.clone()).unwrap();
    }
    let mut blocked = 0;
    let mut profile_thrash = 0;
    for _ in 0..24 {
        for _ in 0..60 {
            let q = scenario.next_query();
            index.execute(&q);
        }
        index.reorganize();
        let profile = index.last_reorg_profile();
        blocked += profile.cooldown_blocked;
        profile_thrash += profile.thrash_cycles;
    }
    // The per-pass profile counters must sum to the lifetime total.
    assert_eq!(profile_thrash, index.total_thrash());
    index.check_invariants().unwrap();
    (
        index.total_thrash(),
        blocked,
        index.total_merges(),
        index.total_splits(),
    )
}

/// Baseline (no hysteresis): the adversary forces real thrash cycles —
/// this documents the failure mode the cool-down exists for.
#[test]
fn oscillating_adversary_thrashes_without_hysteresis() {
    let (thrash, blocked, merges, splits) = drive_adversary(0);
    assert!(merges > 0 && splits > 0, "adversary must force churn");
    assert!(
        thrash > 0,
        "oscillating heat must complete split→merge→split cycles (got {merges} merges, \
         {splits} splits, 0 counted cycles)"
    );
    assert_eq!(blocked, 0, "no veto can fire with the cool-down disabled");
}

/// With the cool-down at least as long as the detection window, a
/// signature merged within the window cannot re-materialize inside it,
/// so the cycle count is exactly zero — the hysteresis caps the cycle
/// budget at 0, not merely reduces it.
#[test]
fn merge_cooldown_eliminates_thrash_cycles() {
    let (baseline_thrash, ..) = drive_adversary(0);
    let (thrash, blocked, merges, splits) = drive_adversary(8);
    assert!(merges > 0 && splits > 0, "hysteresis must not freeze adaptation");
    assert_eq!(
        thrash, 0,
        "a cool-down covering the detection window leaves no countable cycle \
         (baseline had {baseline_thrash})"
    );
    assert!(
        blocked > 0,
        "the adversary must actually exercise the veto (baseline thrash \
         {baseline_thrash})"
    );
}
