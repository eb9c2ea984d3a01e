//! The paper's platform makes today the decisions it made before the
//! cost model learnt the recording and move terms: under
//! [`IndexConfig::edbt2004`] both terms are `0.0`, and two fixed
//! scenario-zoo streams must repeat, pass by pass, the cluster, split
//! and merge counts and the final checkpoint digest that were recorded
//! at commit db8861a (the last one whose only profile was Table 2). The
//! paper's model (`acx_testkit::model`) replays both streams too and
//! must repeat the recorded trail, with the index's state after every
//! pass.
//!
//! The digest is canonical ([`canonical_digest`], recorded at de6b4c8
//! beside the CRC-32 of the checkpoint file it replaced): members are
//! stored in key order since, and the order they are stored in is no
//! decision. Nor is how lazily a candidate set's decay was applied: the
//! pass leaves the sets its screen rules out as they were, so the
//! digest reads each set caught up to the final pass's epoch
//! ([`ckpt::caught_up`]) — the value an eager decay leaves, in debug
//! and optimized builds alike. Nor is the file format: the digest
//! hashes the bytes each field has always been encoded as, wherever the
//! checkpoint's frames carry them.

use acx_core::{AdaptiveClusterIndex, IndexConfig};
use acx_geom::{HyperRect, ObjectId};
use acx_storage::{crc32, StorageScenario};
use acx_testkit::ckpt::{self, Checkpoint, ClusterFrame};
use acx_testkit::model::{assert_same, Model};
use acx_workloads::{
    AdaptiveScenario, ClusteredObjects, MixedTraffic, OscillatingHeat, UniformWorkload,
    WorkloadConfig,
};

/// CRC-32 of a checkpoint's content in an order no storage layout can
/// move: the clocks frame's index-wide clocks and byte histories, then
/// the clusters depth-first from the root (siblings by signature bytes),
/// each as its depth, its signature, the counters its cluster frame
/// carries (statistics, decay stamp, `n_hi`, candidate counters —
/// caught up to the last pass's epoch) and its `(id, coords)` pairs by
/// ascending id, then the free-slot and recent-merge frames' bodies.
fn canonical_digest(checkpoint: &Checkpoint) -> u32 {
    let clusters = checkpoint.clusters();
    let stats_epoch = checkpoint.clock(ckpt::STATS_EPOCH);
    let children = |of: u32| {
        let mut ks: Vec<&ClusterFrame> = clusters.iter().filter(|c| c.parent == of).collect();
        ks.sort_by_key(|c| &checkpoint.frames[c.frame][c.signature.clone()]);
        ks
    };

    let mut out = checkpoint.frames[0][1..].to_vec();
    let mut stack: Vec<_> = children(u32::MAX).into_iter().map(|c| (c, 0u32)).collect();
    assert_eq!(stack.len(), 1, "one root");
    let mut visited = 0;
    while let Some((cluster, depth)) = stack.pop() {
        visited += 1;
        let payload = &checkpoint.frames[cluster.frame];
        out.extend_from_slice(&depth.to_le_bytes());
        out.extend_from_slice(&payload[cluster.signature.clone()]);
        out.extend(ckpt::caught_up(payload, cluster, stats_epoch - 1));
        let mut members = checkpoint.members(cluster);
        members.sort_by_key(|m| m.0);
        for (id, coords) in members {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend(coords.iter().flat_map(|c| c.to_le_bytes()));
        }
        stack.extend(
            children(cluster.slot)
                .into_iter()
                .rev()
                .map(|c| (c, depth + 1)),
        );
    }
    assert_eq!(visited, clusters.len(), "every cluster hangs off the root");
    for payload in &checkpoint.frames {
        if matches!(payload[0], ckpt::FREE | ckpt::MERGES) {
            out.extend_from_slice(&payload[1..]);
        }
    }
    crc32(&out)
}

/// `(cluster_count, total_splits, total_merges)` after each pass.
type Trail = Vec<(usize, u64, u64)>;

/// The index's trail over the explicit passes, the model's, and the
/// canonical digest of the index's final checkpoint. The model's state
/// is the index's after every pass.
fn drive(
    mut scenario: Box<dyn AdaptiveScenario>,
    objects: &[HyperRect],
    queries_per_period: usize,
) -> (Trail, Trail, u32) {
    let config = IndexConfig {
        reorg_period: 0,
        ..IndexConfig::edbt2004(scenario.dims(), StorageScenario::Memory)
    };
    let mut index = AdaptiveClusterIndex::new(config.clone()).unwrap();
    let mut model = Model::new(config);
    for (i, rect) in objects.iter().enumerate() {
        index.insert(ObjectId(i as u32), rect.clone()).unwrap();
        model.insert(ObjectId(i as u32), rect.clone()).unwrap();
    }
    let (mut trail, mut model_trail) = (Vec::new(), Vec::new());
    for period in 0..10 {
        if period == 5 {
            scenario.shift();
        }
        for _ in 0..queries_per_period {
            let q = scenario.next_query();
            index.execute(&q);
            model.execute(&q);
        }
        index.reorganize();
        model.reorganize();
        trail.push((
            index.cluster_count(),
            index.total_splits(),
            index.total_merges(),
        ));
        model_trail.push((
            model.cluster_count(),
            model.total_splits(),
            model.total_merges(),
        ));
        assert_same(&index, &model, &format!("period {period}"));
    }
    let digest = canonical_digest(&Checkpoint::of(&index));
    (trail, model_trail, digest)
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
    let scenario = Box::new(MixedTraffic::new(&cfg, 160, 0.35, 0.08));
    let (trail, model_trail, canonical) = drive(scenario, &objects, 80);
    assert_eq!(trail, golden, "the index");
    assert_eq!(model_trail, golden, "the model");
    assert_eq!(canonical, 0x049b_ee2c);
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
    let scenario = Box::new(OscillatingHeat::new(&cfg, 120, 0.3, 0.08));
    let (trail, model_trail, canonical) = drive(scenario, &objects, 60);
    assert_eq!(trail, golden, "the index");
    assert_eq!(model_trail, golden, "the model");
    assert_eq!(canonical, 0xd9c9_1b9b);
}
