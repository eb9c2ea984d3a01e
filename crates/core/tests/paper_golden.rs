//! The paper's platform makes today the decisions it made before the
//! cost model learnt the recording and move terms: under
//! [`IndexConfig::edbt2004`] both terms are `0.0`, and two fixed
//! scenario-zoo streams must repeat, pass by pass, the cluster, split
//! and merge counts and the final checkpoint digest that were recorded
//! at commit db8861a (the last one whose only profile was Table 2) —
//! through the production pass and through the `reference` sweep.

use acx_core::{AdaptiveClusterIndex, IndexConfig};
use acx_geom::{HyperRect, ObjectId};
use acx_storage::{crc32, StorageScenario};
use acx_workloads::{
    AdaptiveScenario, ClusteredObjects, MixedTraffic, OscillatingHeat, UniformWorkload,
    WorkloadConfig,
};

/// `(cluster_count, total_splits, total_merges)` after each explicit
/// pass, and the CRC-32 of the final checkpoint.
fn drive(
    reference: bool,
    mut scenario: Box<dyn AdaptiveScenario>,
    objects: &[HyperRect],
    queries_per_period: usize,
) -> (Vec<(usize, u64, u64)>, u32) {
    let mut index = AdaptiveClusterIndex::new(IndexConfig {
        reorg_period: 0,
        reference,
        ..IndexConfig::edbt2004(scenario.dims(), StorageScenario::Memory)
    })
    .unwrap();
    for (i, rect) in objects.iter().enumerate() {
        index.insert(ObjectId(i as u32), rect.clone()).unwrap();
    }
    let mut trail = Vec::new();
    for period in 0..10 {
        if period == 5 {
            scenario.shift();
        }
        for _ in 0..queries_per_period {
            index.execute(&scenario.next_query());
        }
        index.reorganize();
        trail.push((
            index.cluster_count(),
            index.total_splits(),
            index.total_merges(),
        ));
    }
    let path = std::env::temp_dir().join(format!(
        "acx-golden-{}-{}-{reference}.ckpt",
        std::process::id(),
        scenario.label()
    ));
    index.save(&path).unwrap();
    let digest = crc32(&std::fs::read(&path).unwrap());
    std::fs::remove_file(&path).unwrap();
    (trail, digest)
}

#[test]
fn mixed_traffic_over_clustered_objects_repeats_the_recorded_passes() {
    let cfg = WorkloadConfig::new(5, 1100, 0x31BED);
    let objects = ClusteredObjects::new(cfg.clone(), 6, 0.08, 0.15).generate_objects();
    let golden = [
        (5, 4, 0),
        (11, 10, 0),
        (14, 15, 2),
        (12, 15, 4),
        (17, 20, 4),
        (34, 37, 4),
        (39, 44, 6),
        (43, 48, 6),
        (49, 55, 7),
        (52, 60, 9),
    ];
    for reference in [false, true] {
        let scenario = Box::new(MixedTraffic::new(&cfg, 160, 0.35, 0.08));
        let (trail, digest) = drive(reference, scenario, &objects, 80);
        assert_eq!(trail, golden, "reference = {reference}");
        assert_eq!(digest, 0xc241_f2c5, "reference = {reference}");
    }
}

#[test]
fn oscillating_heat_repeats_the_recorded_passes() {
    let cfg = WorkloadConfig::new(3, 900, 0x05C11);
    let objects = UniformWorkload::with_max_length(cfg.clone(), 0.4).generate_objects();
    let golden = [
        (13, 12, 0),
        (39, 38, 0),
        (87, 97, 11),
        (92, 113, 22),
        (90, 118, 29),
        (92, 123, 32),
        (92, 126, 35),
        (101, 137, 37),
        (94, 137, 44),
        (101, 147, 47),
    ];
    for reference in [false, true] {
        let scenario = Box::new(OscillatingHeat::new(&cfg, 120, 0.3, 0.08));
        let (trail, digest) = drive(reference, scenario, &objects, 60);
        assert_eq!(trail, golden, "reference = {reference}");
        assert_eq!(digest, 0x864a_78f7, "reference = {reference}");
    }
}
