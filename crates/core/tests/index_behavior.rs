//! Behavioral tests of the adaptive clustering index: CRUD semantics,
//! query correctness against a naive reference, reorganization dynamics
//! (split, merge, stability), persistence, and invariant preservation.

use acx_core::{AdaptiveClusterIndex, IndexConfig, IndexError};
use acx_geom::{HyperRect, ObjectId, SpatialQuery};
use acx_storage::StorageScenario;
use acx_testkit::ckpt::write_tree;
use acx_testkit::{naive_matches, paper, random_rect, rect, small_rect, sorted, TempPath};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn empty_index_answers_empty() {
    let mut index = AdaptiveClusterIndex::new(IndexConfig::memory(4)).unwrap();
    assert!(index.is_empty());
    assert_eq!(index.cluster_count(), 1);
    let r = index.execute(&SpatialQuery::point_enclosing(vec![0.5; 4]));
    assert!(r.matches.is_empty());
    // Even an empty query explores the root.
    assert_eq!(r.metrics.stats.clusters_explored, 1);
}

#[test]
fn insert_then_query_all_relations() {
    let mut index = AdaptiveClusterIndex::new(IndexConfig::memory(2)).unwrap();
    index.insert(ObjectId(1), rect(&[0.2, 0.2], &[0.4, 0.4])).unwrap();
    index.insert(ObjectId(2), rect(&[0.6, 0.6], &[0.9, 0.9])).unwrap();

    let inter = index.execute(&SpatialQuery::intersection(rect(&[0.3, 0.3], &[0.7, 0.7])));
    assert_eq!(sorted(inter.matches), vec![ObjectId(1), ObjectId(2)]);

    let cont = index.execute(&SpatialQuery::containment(rect(&[0.5, 0.5], &[1.0, 1.0])));
    assert_eq!(cont.matches, vec![ObjectId(2)]);

    let encl = index.execute(&SpatialQuery::enclosure(rect(&[0.25, 0.25], &[0.35, 0.35])));
    assert_eq!(encl.matches, vec![ObjectId(1)]);

    let point = index.execute(&SpatialQuery::point_enclosing(vec![0.7, 0.7]));
    assert_eq!(point.matches, vec![ObjectId(2)]);
}

#[test]
fn duplicate_insert_is_rejected() {
    let mut index = AdaptiveClusterIndex::new(IndexConfig::memory(2)).unwrap();
    let r = rect(&[0.1, 0.1], &[0.2, 0.2]);
    index.insert(ObjectId(7), r.clone()).unwrap();
    assert!(matches!(
        index.insert(ObjectId(7), r),
        Err(IndexError::DuplicateObject(7))
    ));
}

#[test]
fn dimension_mismatch_is_rejected() {
    let mut index = AdaptiveClusterIndex::new(IndexConfig::memory(3)).unwrap();
    assert!(matches!(
        index.insert(ObjectId(1), rect(&[0.1], &[0.2])),
        Err(IndexError::DimensionMismatch { expected: 3, actual: 1 })
    ));
}

#[test]
#[should_panic(expected = "query dimensionality")]
fn query_dimension_mismatch_panics() {
    let mut index = AdaptiveClusterIndex::new(IndexConfig::memory(3)).unwrap();
    index.execute(&SpatialQuery::point_enclosing(vec![0.5]));
}

#[test]
fn remove_and_get_roundtrip() {
    let mut index = AdaptiveClusterIndex::new(IndexConfig::memory(2)).unwrap();
    let r = rect(&[0.3, 0.4], &[0.5, 0.6]);
    index.insert(ObjectId(9), r.clone()).unwrap();
    assert_eq!(index.get(ObjectId(9)), Some(r.clone()));
    assert!(index.contains(ObjectId(9)));
    let removed = index.remove(ObjectId(9)).unwrap();
    assert_eq!(removed, r);
    assert!(!index.contains(ObjectId(9)));
    assert!(matches!(
        index.remove(ObjectId(9)),
        Err(IndexError::UnknownObject(9))
    ));
    let q = index.execute(&SpatialQuery::point_enclosing(vec![0.4, 0.5]));
    assert!(q.matches.is_empty());
}

#[test]
fn update_moves_object() {
    let mut index = AdaptiveClusterIndex::new(IndexConfig::memory(2)).unwrap();
    index.insert(ObjectId(1), rect(&[0.0, 0.0], &[0.1, 0.1])).unwrap();
    let old = index
        .update(ObjectId(1), rect(&[0.8, 0.8], &[0.9, 0.9]))
        .unwrap();
    assert_eq!(old, rect(&[0.0, 0.0], &[0.1, 0.1]));
    let hit = index.execute(&SpatialQuery::point_enclosing(vec![0.85, 0.85]));
    assert_eq!(hit.matches, vec![ObjectId(1)]);
    let miss = index.execute(&SpatialQuery::point_enclosing(vec![0.05, 0.05]));
    assert!(miss.matches.is_empty());
}

#[test]
fn query_results_match_naive_reference_before_and_after_reorg() {
    let mut rng = StdRng::seed_from_u64(11);
    let dims = 4;
    let mut config = paper(dims);
    config.reorg_period = 0; // manual reorganizations only
    let mut index = AdaptiveClusterIndex::new(config).unwrap();
    let mut objects = Vec::new();
    for i in 0..1500u32 {
        let r = random_rect(&mut rng, dims);
        index.insert(ObjectId(i), r.clone()).unwrap();
        objects.push((i, r));
    }
    let queries: Vec<SpatialQuery> = (0..150)
        .map(|k| match k % 3 {
            0 => SpatialQuery::intersection(small_rect(&mut rng, dims, 0.1)),
            1 => SpatialQuery::point_enclosing(
                (0..dims).map(|_| rng.gen_range(0.0..=1.0)).collect(),
            ),
            _ => SpatialQuery::containment(small_rect(&mut rng, dims, 0.6)),
        })
        .collect();

    for q in &queries {
        assert_eq!(sorted(index.execute(q).matches), naive_matches(&objects, q));
    }
    let report = index.reorganize();
    assert!(report.splits > 0, "selective workload should split: {report:?}");
    index.check_invariants().unwrap();
    for q in &queries {
        assert_eq!(
            sorted(index.execute(q).matches),
            naive_matches(&objects, q),
            "mismatch after reorganization"
        );
    }
}

#[test]
fn reorganization_reduces_verified_objects_on_selective_workload() {
    let mut rng = StdRng::seed_from_u64(42);
    let dims = 4;
    let mut config = paper(dims);
    config.reorg_period = 0;
    let mut index = AdaptiveClusterIndex::new(config).unwrap();
    for i in 0..3000u32 {
        index.insert(ObjectId(i), random_rect(&mut rng, dims)).unwrap();
    }
    let mut points: Vec<Vec<f32>> = Vec::new();
    for _ in 0..200 {
        points.push((0..dims).map(|_| rng.gen_range(0.0..=1.0)).collect());
    }
    let mut before = 0u64;
    for p in &points {
        before += index
            .execute(&SpatialQuery::point_enclosing(p.clone()))
            .metrics
            .stats
            .objects_verified;
    }
    index.reorganize();
    index.check_invariants().unwrap();
    let mut after = 0u64;
    for p in &points {
        after += index
            .execute(&SpatialQuery::point_enclosing(p.clone()))
            .metrics
            .stats
            .objects_verified;
    }
    assert!(
        after < before / 2,
        "adaptation should at least halve verification work: {before} -> {after}"
    );
}

#[test]
fn broad_queries_trigger_merges_back_to_coarser_clustering() {
    let mut rng = StdRng::seed_from_u64(3);
    let dims = 3;
    let mut config = paper(dims);
    config.reorg_period = 0;
    let mut index = AdaptiveClusterIndex::new(config).unwrap();
    for i in 0..2000u32 {
        index.insert(ObjectId(i), random_rect(&mut rng, dims)).unwrap();
    }
    // Phase 1: selective point queries → splits.
    for _ in 0..100 {
        let p: Vec<f32> = (0..dims).map(|_| rng.gen_range(0.0..=1.0)).collect();
        index.execute(&SpatialQuery::point_enclosing(p));
    }
    index.reorganize();
    let split_clusters = index.cluster_count();
    assert!(split_clusters > 1);
    // Phase 2: only full-domain intersection queries → every cluster is
    // explored by every query, separate management is pure overhead.
    let everything = SpatialQuery::intersection(rect(&vec![0.0; dims], &vec![1.0; dims]));
    let mut merges = 0;
    for _ in 0..10 {
        for _ in 0..100 {
            index.execute(&everything);
        }
        let report = index.reorganize();
        merges += report.merges;
        index.check_invariants().unwrap();
        if index.cluster_count() == 1 {
            break;
        }
    }
    assert!(merges > 0, "shifted query pattern should cause merges");
    assert!(
        index.cluster_count() < split_clusters,
        "cluster count should shrink: {} -> {}",
        split_clusters,
        index.cluster_count()
    );
}

#[test]
fn clustering_reaches_stable_state_under_fixed_distribution() {
    // Paper §7.1: with an unchanged query distribution the clustering
    // stabilizes in fewer than 10 reorganization steps.
    let mut rng = StdRng::seed_from_u64(7);
    let dims = 4;
    let mut config = paper(dims);
    config.reorg_period = 0;
    let mut index = AdaptiveClusterIndex::new(config).unwrap();
    for i in 0..3000u32 {
        index.insert(ObjectId(i), random_rect(&mut rng, dims)).unwrap();
    }
    let mut query_rng = StdRng::seed_from_u64(1234);
    let mut stable_steps = 0;
    let mut steps = 0;
    for _ in 0..15 {
        for _ in 0..100 {
            let w = small_rect(&mut query_rng, dims, 0.05);
            index.execute(&SpatialQuery::intersection(w));
        }
        let report = index.reorganize();
        steps += 1;
        // Stable state: structural churn below 2 % of the clustering.
        let churn = (report.merges + report.splits) as f64 / report.clusters_after.max(1) as f64;
        if churn < 0.02 {
            stable_steps += 1;
            if stable_steps >= 2 {
                break;
            }
        } else {
            stable_steps = 0;
        }
    }
    assert!(
        stable_steps >= 2,
        "clustering did not stabilize within {steps} steps"
    );
    index.check_invariants().unwrap();
}

#[test]
fn automatic_reorganization_fires_every_period() {
    let mut rng = StdRng::seed_from_u64(21);
    let dims = 3;
    let mut config = paper(dims);
    config.reorg_period = 50;
    let mut index = AdaptiveClusterIndex::new(config).unwrap();
    for i in 0..1000u32 {
        index.insert(ObjectId(i), random_rect(&mut rng, dims)).unwrap();
    }
    assert_eq!(index.reorganizations(), 0);
    for _ in 0..49 {
        index.execute(&SpatialQuery::point_enclosing(vec![0.5; 3]));
    }
    assert_eq!(index.reorganizations(), 0);
    index.execute(&SpatialQuery::point_enclosing(vec![0.5; 3]));
    assert_eq!(index.reorganizations(), 1);
    for _ in 0..50 {
        index.execute(&SpatialQuery::point_enclosing(vec![0.5; 3]));
    }
    assert_eq!(index.reorganizations(), 2);
}

#[test]
fn insertion_prefers_lowest_access_probability() {
    let mut rng = StdRng::seed_from_u64(5);
    let dims = 2;
    let mut config = paper(dims);
    config.reorg_period = 0;
    let mut index = AdaptiveClusterIndex::new(config).unwrap();
    // Objects concentrated in the first quarter of d1 → splittable cell.
    for i in 0..800u32 {
        let a: f32 = rng.gen_range(0.0..0.2);
        let b: f32 = a + rng.gen_range(0.0..0.05);
        let c: f32 = rng.gen_range(0.0..=0.5);
        let d: f32 = c + rng.gen_range(0.0f32..=0.5).min(1.0 - c);
        index.insert(ObjectId(i), rect(&[a, c], &[b, d])).unwrap();
    }
    // Queries that *miss* the concentration → the cell is cold.
    for _ in 0..100 {
        index.execute(&SpatialQuery::point_enclosing(vec![0.9, 0.5]));
    }
    index.reorganize();
    assert!(index.cluster_count() > 1, "expected a split");
    // Make the root hot again (epoch restarted at reorganization).
    for _ in 0..50 {
        index.execute(&SpatialQuery::point_enclosing(vec![0.9, 0.5]));
    }
    let before = index.snapshots();
    // New object qualifying for the cold child: must land there.
    index
        .insert(ObjectId(100_000), rect(&[0.05, 0.3], &[0.08, 0.6]))
        .unwrap();
    let after = index.snapshots();
    let grew: Vec<_> = after
        .iter()
        .filter(|s| {
            before
                .iter()
                .find(|b| b.id == s.id)
                .is_none_or(|b| b.objects < s.objects)
        })
        .collect();
    assert_eq!(grew.len(), 1);
    assert!(
        grew[0].parent.is_some(),
        "object should go to the cold child, not the hot root"
    );
    index.check_invariants().unwrap();
}

#[test]
fn mixed_churn_preserves_invariants_and_correctness() {
    let mut rng = StdRng::seed_from_u64(99);
    let dims = 3;
    let mut config = paper(dims);
    config.reorg_period = 40;
    let mut index = AdaptiveClusterIndex::new(config).unwrap();
    let mut objects: Vec<(u32, HyperRect)> = Vec::new();
    let mut next_id = 0u32;
    for round in 0..12 {
        // Insert a batch.
        for _ in 0..150 {
            let r = random_rect(&mut rng, dims);
            index.insert(ObjectId(next_id), r.clone()).unwrap();
            objects.push((next_id, r));
            next_id += 1;
        }
        // Remove a random subset.
        for _ in 0..40 {
            if objects.is_empty() {
                break;
            }
            let k = rng.gen_range(0..objects.len());
            let (id, _) = objects.swap_remove(k);
            index.remove(ObjectId(id)).unwrap();
        }
        // Query (triggers automatic reorganizations).
        for _ in 0..25 {
            let q = if round % 2 == 0 {
                SpatialQuery::intersection(small_rect(&mut rng, dims, 0.15))
            } else {
                SpatialQuery::enclosure(small_rect(&mut rng, dims, 0.01))
            };
            assert_eq!(
                sorted(index.execute(&q).matches),
                naive_matches(&objects, &q),
                "round {round}"
            );
        }
        index.check_invariants().unwrap();
    }
    assert_eq!(index.len(), objects.len());
}

#[test]
fn snapshots_reflect_tree_shape() {
    let mut rng = StdRng::seed_from_u64(17);
    let dims = 3;
    let mut config = paper(dims);
    config.reorg_period = 0;
    let mut index = AdaptiveClusterIndex::new(config).unwrap();
    for i in 0..2000u32 {
        index.insert(ObjectId(i), random_rect(&mut rng, dims)).unwrap();
    }
    for _ in 0..100 {
        let p: Vec<f32> = (0..dims).map(|_| rng.gen_range(0.0..=1.0)).collect();
        index.execute(&SpatialQuery::point_enclosing(p));
    }
    index.reorganize();
    let snaps = index.snapshots();
    assert_eq!(snaps.len(), index.cluster_count());
    let root_count = snaps.iter().filter(|s| s.parent.is_none()).count();
    assert_eq!(root_count, 1);
    let total_objects: usize = snaps.iter().map(|s| s.objects).sum();
    assert_eq!(total_objects, index.len());
    // Depths are consistent with parent links.
    for s in &snaps {
        if let Some(p) = s.parent {
            let parent = snaps.iter().find(|x| x.id == p).unwrap();
            assert_eq!(parent.depth + 1, s.depth);
        } else {
            assert_eq!(s.depth, 0);
        }
        assert!(!s.signature.is_empty());
    }
}

#[test]
fn disk_scenario_produces_fewer_clusters_than_memory() {
    // Paper Fig. 7: the 15 ms seek makes splits far less attractive, so
    // the disk-based index materializes far fewer clusters.
    let dims = 4;
    let build = |config: IndexConfig| {
        let mut rng = StdRng::seed_from_u64(31);
        let mut index = AdaptiveClusterIndex::new(config).unwrap();
        for i in 0..4000u32 {
            index.insert(ObjectId(i), random_rect(&mut rng, dims)).unwrap();
        }
        let mut qrng = StdRng::seed_from_u64(77);
        for _ in 0..3 {
            for _ in 0..200 {
                let p: Vec<f32> = (0..dims).map(|_| qrng.gen_range(0.0..=1.0)).collect();
                index.execute(&SpatialQuery::point_enclosing(p));
            }
            index.reorganize();
        }
        index
    };
    let mut mem_cfg = paper(dims);
    mem_cfg.reorg_period = 0;
    let mut disk_cfg = IndexConfig::edbt2004(dims, StorageScenario::Disk);
    disk_cfg.reorg_period = 0;
    let mem = build(mem_cfg);
    let disk = build(disk_cfg);
    assert!(
        disk.cluster_count() < mem.cluster_count(),
        "disk {} vs memory {}",
        disk.cluster_count(),
        mem.cluster_count()
    );
}

#[test]
fn save_load_roundtrip_preserves_contents_and_results() {
    let mut rng = StdRng::seed_from_u64(55);
    let dims = 3;
    let mut config = paper(dims);
    config.reorg_period = 0;
    let mut index = AdaptiveClusterIndex::new(config.clone()).unwrap();
    let mut objects = Vec::new();
    for i in 0..1200u32 {
        let r = random_rect(&mut rng, dims);
        index.insert(ObjectId(i), r.clone()).unwrap();
        objects.push((i, r));
    }
    for _ in 0..100 {
        let p: Vec<f32> = (0..dims).map(|_| rng.gen_range(0.0..=1.0)).collect();
        index.execute(&SpatialQuery::point_enclosing(p));
    }
    index.reorganize();
    let clusters_saved = index.cluster_count();

    let path = TempPath::new("index-roundtrip");
    index.save(&path).unwrap();
    let mut restored = AdaptiveClusterIndex::load(&path, config).unwrap();

    assert_eq!(restored.len(), index.len());
    assert_eq!(restored.cluster_count(), clusters_saved);
    restored.check_invariants().unwrap();
    for _ in 0..50 {
        let q = SpatialQuery::intersection(small_rect(&mut rng, dims, 0.2));
        assert_eq!(
            sorted(restored.execute(&q).matches),
            naive_matches(&objects, &q)
        );
    }
}

#[test]
fn load_rejects_wrong_dimensionality() {
    let mut index = AdaptiveClusterIndex::new(IndexConfig::memory(2)).unwrap();
    index.insert(ObjectId(1), rect(&[0.1, 0.1], &[0.2, 0.2])).unwrap();
    let path = TempPath::new("index-wrongdims");
    index.save(&path).unwrap();
    let err = AdaptiveClusterIndex::load(&path, IndexConfig::memory(5));
    assert!(matches!(
        err,
        Err(IndexError::DimensionMismatch { expected: 5, actual: 2 })
    ));
}

#[test]
fn priced_cost_drops_after_adaptation() {
    // The headline claim: adaptive clustering beats sequential scan —
    // i.e. the priced execution cost falls below the initial root-only
    // (scan-equivalent) cost once clustering kicks in.
    let mut rng = StdRng::seed_from_u64(2024);
    let dims = 6;
    let mut config = paper(dims);
    config.reorg_period = 0;
    let mut index = AdaptiveClusterIndex::new(config).unwrap();
    for i in 0..5000u32 {
        index.insert(ObjectId(i), random_rect(&mut rng, dims)).unwrap();
    }
    let mut qrng = StdRng::seed_from_u64(9);
    let gen_query = |rng: &mut StdRng| {
        SpatialQuery::point_enclosing((0..dims).map(|_| rng.gen_range(0.0..=1.0)).collect())
    };
    let mut cost_before = 0.0;
    for _ in 0..100 {
        let q = gen_query(&mut qrng);
        cost_before += index.execute(&q).metrics.priced_ms;
    }
    index.reorganize();
    let mut cost_after = 0.0;
    for _ in 0..100 {
        let q = gen_query(&mut qrng);
        cost_after += index.execute(&q).metrics.priced_ms;
    }
    assert!(
        cost_after < cost_before,
        "priced cost should drop: {cost_before:.4} -> {cost_after:.4}"
    );
}

#[test]
fn fresh_child_cluster_beats_root_at_equal_probability() {
    // Paper §3.5: insertion breaks access-probability ties towards the
    // most specific cluster. Build a root + child tree directly as a
    // checkpoint with empty statistics, so both clusters sit at
    // identical access probability.
    use acx_core::Signature;

    let dims = 2;
    let root_sig = Signature::root(dims);
    // Child: dim-0 interval starts and ends both in [0, 0.25).
    let child_sig = root_sig.specialize(0, 4, 0, 0);
    let mut config = paper(dims);
    config.reorg_period = 0;
    let path = TempPath::new("tie-break");
    write_tree(
        &path,
        &config,
        &[
            (None, &root_sig, &[(1, [0.5, 0.9, 0.5, 0.9])]),
            (Some(0), &child_sig, &[(2, [0.1, 0.2, 0.3, 0.8])]),
        ],
    );
    let mut index = AdaptiveClusterIndex::load(&path, config).unwrap();
    assert_eq!(index.cluster_count(), 2);

    let child_objects = |index: &AdaptiveClusterIndex| -> usize {
        index
            .snapshots()
            .iter()
            .filter(|s| s.depth == 1)
            .map(|s| s.objects)
            .sum()
    };

    // Equal (zero) probability: both clusters accept the object, the
    // fresh child is more specific and must host it.
    let before = child_objects(&index);
    index
        .insert(ObjectId(10), rect(&[0.05, 0.4], &[0.15, 0.6]))
        .unwrap();
    assert_eq!(
        child_objects(&index),
        before + 1,
        "fresh child cluster must beat the root at equal probability"
    );

    // Equal *nonzero* probability: point queries with the dim-0
    // coordinate inside the child's variation interval match both
    // signatures, keeping both access probabilities at exactly 1.
    for k in 0..40 {
        let v = 0.01 + (k as f32) * 0.005; // stays below 0.25
        index.execute(&SpatialQuery::point_enclosing(vec![v, 0.5]));
    }
    let before = child_objects(&index);
    index
        .insert(ObjectId(11), rect(&[0.02, 0.3], &[0.2, 0.7]))
        .unwrap();
    assert_eq!(
        child_objects(&index),
        before + 1,
        "the deeper cluster must win nonzero probability ties"
    );
    index.check_invariants().unwrap();
}

#[test]
fn load_rejects_an_object_stored_in_two_clusters() {
    use acx_core::Signature;
    use acx_storage::StoreError;

    let dims = 2;
    let root_sig = Signature::root(dims);
    let child_sig = root_sig.specialize(0, 4, 0, 0);
    let path = TempPath::new("twice");
    write_tree(
        &path,
        &paper(dims),
        &[
            (
                None,
                &root_sig,
                &[(1, [0.5, 0.9, 0.5, 0.9]), (2, [0.1, 0.2, 0.3, 0.8])],
            ),
            (Some(0), &child_sig, &[(2, [0.1, 0.2, 0.3, 0.8])]),
        ],
    );
    match AdaptiveClusterIndex::load(&path, paper(dims)) {
        Err(IndexError::Store(StoreError::Corrupt(c))) => {
            assert!(
                c.reason.contains("object #2 appears in two clusters"),
                "{c}"
            )
        }
        Err(other) => panic!("expected a corrupt-checkpoint error, got {other}"),
        Ok(_) => panic!("a checkpoint holding object #2 twice loaded"),
    }
}
