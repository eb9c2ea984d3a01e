//! R*-tree behavioral tests: correctness against Sequential Scan (the
//! trivially correct reference), structural invariants through heavy
//! insert/delete churn, page-capacity arithmetic from the paper, and
//! pruning effectiveness.

use acx_baselines::{RStarConfig, RStarTree, SeqScan};
use acx_geom::{HyperRect, ObjectId, SpatialQuery};
use acx_storage::StorageScenario;
use acx_testkit::{random_rect, rect, small_rect, sorted};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Small pages force deep trees, exercising splits and reinserts hard.
fn small_page_config(dims: usize) -> RStarConfig {
    RStarConfig {
        page_size: 256,
        ..RStarConfig::memory(dims)
    }
}

#[test]
fn page_capacity_matches_paper() {
    // Paper §7.1: with 16 KiB pages and 70 % utilization, a node holds
    // 86 objects at 16 dimensions and 35 at 40 dimensions.
    let c16 = RStarConfig::memory(16);
    assert_eq!(c16.entry_bytes(), 132);
    assert_eq!((c16.max_entries() as f64 * 0.7) as usize, 86);
    let c40 = RStarConfig::memory(40);
    assert_eq!(c40.entry_bytes(), 324);
    assert_eq!((c40.max_entries() as f64 * 0.7) as usize, 35);
}

#[test]
fn empty_tree_answers_empty() {
    let tree = RStarTree::new(RStarConfig::memory(3));
    assert!(tree.is_empty());
    assert_eq!(tree.height(), 1);
    assert_eq!(tree.node_count(), 1);
    let r = tree.execute(&SpatialQuery::point_enclosing(vec![0.5; 3]));
    assert!(r.matches.is_empty());
    tree.check_invariants().unwrap();
}

#[test]
fn agrees_with_seqscan_on_all_relations() {
    let mut rng = StdRng::seed_from_u64(101);
    let dims = 4;
    let mut tree = RStarTree::new(small_page_config(dims));
    let mut scan = SeqScan::new(dims, StorageScenario::Memory);
    for i in 0..2000u32 {
        let r = random_rect(&mut rng, dims);
        tree.insert(ObjectId(i), &r);
        scan.insert(ObjectId(i), &r);
    }
    tree.check_invariants().unwrap();
    assert!(tree.height() > 2, "small pages should force a deep tree");
    for k in 0..120 {
        let q = match k % 4 {
            0 => SpatialQuery::intersection(small_rect(&mut rng, dims, 0.15)),
            1 => SpatialQuery::containment(small_rect(&mut rng, dims, 0.5)),
            2 => SpatialQuery::enclosure(small_rect(&mut rng, dims, 0.02)),
            _ => SpatialQuery::point_enclosing(
                (0..dims).map(|_| rng.gen_range(0.0..=1.0)).collect(),
            ),
        };
        assert_eq!(
            sorted(tree.execute(&q).matches),
            sorted(scan.execute(&q).matches),
            "query {k} diverged"
        );
    }
}

#[test]
fn delete_then_queries_stay_correct() {
    let mut rng = StdRng::seed_from_u64(7);
    let dims = 3;
    let mut tree = RStarTree::new(small_page_config(dims));
    let mut objects: Vec<(u32, HyperRect)> = Vec::new();
    for i in 0..1200u32 {
        let r = random_rect(&mut rng, dims);
        tree.insert(ObjectId(i), &r);
        objects.push((i, r));
    }
    // Delete 60 % in random order.
    for _ in 0..720 {
        let k = rng.gen_range(0..objects.len());
        let (id, r) = objects.swap_remove(k);
        assert!(tree.remove(ObjectId(id), &r), "object {id} should exist");
    }
    assert_eq!(tree.len(), objects.len());
    tree.check_invariants().unwrap();
    let mut scan = SeqScan::new(dims, StorageScenario::Memory);
    for (id, r) in &objects {
        scan.insert(ObjectId(*id), r);
    }
    for _ in 0..60 {
        let q = SpatialQuery::intersection(small_rect(&mut rng, dims, 0.2));
        assert_eq!(sorted(tree.execute(&q).matches), sorted(scan.execute(&q).matches));
    }
}

#[test]
fn remove_missing_object_returns_false() {
    let mut tree = RStarTree::new(RStarConfig::memory(2));
    let r = rect(&[0.1, 0.1], &[0.2, 0.2]);
    tree.insert(ObjectId(1), &r);
    assert!(!tree.remove(ObjectId(2), &r));
    let other = rect(&[0.5, 0.5], &[0.6, 0.6]);
    assert!(!tree.remove(ObjectId(1), &other), "rect must match too");
    assert!(tree.remove(ObjectId(1), &r));
    assert!(tree.is_empty());
    tree.check_invariants().unwrap();
}

#[test]
fn delete_everything_collapses_tree() {
    let mut rng = StdRng::seed_from_u64(13);
    let dims = 2;
    let mut tree = RStarTree::new(small_page_config(dims));
    let mut objects = Vec::new();
    for i in 0..600u32 {
        let r = random_rect(&mut rng, dims);
        tree.insert(ObjectId(i), &r);
        objects.push((i, r));
    }
    for (id, r) in &objects {
        assert!(tree.remove(ObjectId(*id), r));
    }
    assert!(tree.is_empty());
    assert_eq!(tree.height(), 1);
    assert_eq!(tree.node_count(), 1);
    tree.check_invariants().unwrap();
}

#[test]
fn invariants_hold_through_mixed_churn() {
    let mut rng = StdRng::seed_from_u64(23);
    let dims = 3;
    let mut tree = RStarTree::new(small_page_config(dims));
    let mut live: Vec<(u32, HyperRect)> = Vec::new();
    let mut next = 0u32;
    for _ in 0..10 {
        for _ in 0..200 {
            let r = random_rect(&mut rng, dims);
            tree.insert(ObjectId(next), &r);
            live.push((next, r));
            next += 1;
        }
        for _ in 0..120 {
            if live.is_empty() {
                break;
            }
            let k = rng.gen_range(0..live.len());
            let (id, r) = live.swap_remove(k);
            assert!(tree.remove(ObjectId(id), &r));
        }
        tree.check_invariants().unwrap();
        assert_eq!(tree.len(), live.len());
    }
}

#[test]
fn pruning_beats_full_scan_on_selective_queries() {
    let mut rng = StdRng::seed_from_u64(3);
    let dims = 2; // low dimensionality: the R*-tree's favourable regime
    let mut tree = RStarTree::new(RStarConfig::memory(dims));
    for i in 0..20_000u32 {
        // Small objects spread across space.
        let r = small_rect(&mut rng, dims, 0.01);
        tree.insert(ObjectId(i), &r);
    }
    let q = SpatialQuery::intersection(small_rect(&mut rng, dims, 0.02));
    let res = tree.execute(&q);
    let frac = res.metrics.stats.objects_verified as f64 / 20_000.0;
    assert!(
        frac < 0.2,
        "2-d selective query should prune most leaves, verified {frac:.2}"
    );
}

#[test]
fn node_count_grows_with_dimensionality_at_fixed_cardinality() {
    // Same object count, higher dimensionality → smaller fan-out → more
    // nodes (paper Fig. 8 table: RS nodes grow 12k → 31k from 16d to 40d).
    let count_nodes = |dims: usize| {
        let mut rng = StdRng::seed_from_u64(9);
        let mut tree = RStarTree::new(RStarConfig::memory(dims));
        for i in 0..3000u32 {
            tree.insert(ObjectId(i), &random_rect(&mut rng, dims));
        }
        tree.check_invariants().unwrap();
        tree.node_count()
    };
    let n16 = count_nodes(16);
    let n40 = count_nodes(40);
    assert!(n40 > n16, "node count should grow: {n16} vs {n40}");
}

#[test]
fn disk_pricing_charges_per_node_seek() {
    let mut rng = StdRng::seed_from_u64(4);
    let dims = 8;
    let mut tree = RStarTree::new(RStarConfig::disk(dims));
    for i in 0..5000u32 {
        tree.insert(ObjectId(i), &random_rect(&mut rng, dims));
    }
    let q = SpatialQuery::intersection(small_rect(&mut rng, dims, 0.3));
    let res = tree.execute(&q);
    let nodes = res.metrics.stats.clusters_explored;
    assert!(nodes >= 1);
    assert_eq!(res.metrics.stats.seeks, nodes);
    // Each accessed node costs at least one 15 ms seek.
    assert!(res.metrics.priced_ms >= nodes as f64 * 15.0);
}

#[test]
fn duplicate_rectangles_are_supported() {
    let mut tree = RStarTree::new(small_page_config(2));
    let r = rect(&[0.4, 0.4], &[0.5, 0.5]);
    for i in 0..300u32 {
        tree.insert(ObjectId(i), &r);
    }
    tree.check_invariants().unwrap();
    let res = tree.execute(&SpatialQuery::point_enclosing(vec![0.45, 0.45]));
    assert_eq!(res.matches.len(), 300);
    // Remove one specific duplicate.
    assert!(tree.remove(ObjectId(150), &r));
    let res = tree.execute(&SpatialQuery::point_enclosing(vec![0.45, 0.45]));
    assert_eq!(res.matches.len(), 299);
    assert!(!res.matches.contains(&ObjectId(150)));
}

#[test]
#[should_panic(expected = "dimensionality mismatch")]
fn insert_rejects_wrong_dims() {
    let mut tree = RStarTree::new(RStarConfig::memory(3));
    tree.insert(ObjectId(1), &HyperRect::unit(2));
}

#[test]
fn bulk_load_agrees_with_insertion_built_tree() {
    let mut rng = StdRng::seed_from_u64(88);
    let dims = 4;
    let items: Vec<(ObjectId, HyperRect)> = (0..3000u32)
        .map(|i| (ObjectId(i), random_rect(&mut rng, dims)))
        .collect();
    let bulk = RStarTree::bulk_load(small_page_config(dims), &items);
    bulk.check_invariants().unwrap();
    assert_eq!(bulk.len(), 3000);
    let mut scan = SeqScan::new(dims, StorageScenario::Memory);
    for (id, r) in &items {
        scan.insert(*id, r);
    }
    for _ in 0..60 {
        let q = SpatialQuery::intersection(small_rect(&mut rng, dims, 0.15));
        assert_eq!(sorted(bulk.execute(&q).matches), sorted(scan.execute(&q).matches));
    }
}

#[test]
fn bulk_load_supports_mutation_afterwards() {
    let mut rng = StdRng::seed_from_u64(12);
    let dims = 3;
    let mut items: Vec<(ObjectId, HyperRect)> = (0..1500u32)
        .map(|i| (ObjectId(i), random_rect(&mut rng, dims)))
        .collect();
    let mut tree = RStarTree::bulk_load(small_page_config(dims), &items);
    // Insert more, delete some, then validate against a fresh scan.
    for i in 1500..1800u32 {
        let r = random_rect(&mut rng, dims);
        tree.insert(ObjectId(i), &r);
        items.push((ObjectId(i), r));
    }
    for _ in 0..400 {
        let k = rng.gen_range(0..items.len());
        let (id, r) = items.swap_remove(k);
        assert!(tree.remove(id, &r));
    }
    tree.check_invariants().unwrap();
    let mut scan = SeqScan::new(dims, StorageScenario::Memory);
    for (id, r) in &items {
        scan.insert(*id, r);
    }
    for _ in 0..40 {
        let q = SpatialQuery::intersection(small_rect(&mut rng, dims, 0.2));
        assert_eq!(sorted(tree.execute(&q).matches), sorted(scan.execute(&q).matches));
    }
}

#[test]
fn bulk_load_empty_and_tiny_inputs() {
    let empty = RStarTree::bulk_load(RStarConfig::memory(2), &[]);
    assert!(empty.is_empty());
    empty.check_invariants().unwrap();
    let one = RStarTree::bulk_load(
        RStarConfig::memory(2),
        &[(ObjectId(1), HyperRect::unit(2))],
    );
    assert_eq!(one.len(), 1);
    assert_eq!(one.height(), 1);
    one.check_invariants().unwrap();
}

#[test]
fn bulk_load_produces_fewer_nodes_than_insertion() {
    // STR packs pages ~full, dynamic insertion leaves slack.
    let mut rng = StdRng::seed_from_u64(66);
    let dims = 4;
    let items: Vec<(ObjectId, HyperRect)> = (0..4000u32)
        .map(|i| (ObjectId(i), random_rect(&mut rng, dims)))
        .collect();
    let bulk = RStarTree::bulk_load(small_page_config(dims), &items);
    let mut dynamic = RStarTree::new(small_page_config(dims));
    for (id, r) in &items {
        dynamic.insert(*id, r);
    }
    assert!(
        bulk.node_count() <= dynamic.node_count(),
        "bulk {} vs dynamic {}",
        bulk.node_count(),
        dynamic.node_count()
    );
}
