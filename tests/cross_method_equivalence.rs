//! Cross-crate integration: the three access methods (adaptive
//! clustering, R*-tree, sequential scan) must return identical result
//! sets on identical workloads — the scan is the trivially correct
//! reference.

use acx::prelude::*;
use acx_testkit::sorted;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn queries(workload: &UniformWorkload, rng: &mut StdRng, n: usize) -> Vec<SpatialQuery> {
    (0..n)
        .map(|k| match k % 4 {
            0 => SpatialQuery::intersection(workload.sample_window(rng, 0.2)),
            1 => SpatialQuery::containment(workload.sample_window(rng, 0.7)),
            2 => SpatialQuery::enclosure(workload.sample_window(rng, 0.01)),
            _ => SpatialQuery::point_enclosing(workload.sample_point(rng)),
        })
        .collect()
}

#[test]
fn all_methods_agree_on_uniform_workload() {
    let dims = 5;
    let workload = UniformWorkload::new(WorkloadConfig::new(dims, 3000, 42));
    let objects = workload.generate_objects();

    let mut ac = AdaptiveClusterIndex::new(IndexConfig::memory(dims)).unwrap();
    let mut rs = RStarTree::new(RStarConfig {
        page_size: 512, // deep tree to stress the structure
        ..RStarConfig::memory(dims)
    });
    let mut ss = SeqScan::new(dims, StorageScenario::Memory);
    for (i, rect) in objects.iter().enumerate() {
        ac.insert(ObjectId(i as u32), rect.clone()).unwrap();
        rs.insert(ObjectId(i as u32), rect);
        ss.insert(ObjectId(i as u32), rect);
    }

    let mut rng = StdRng::seed_from_u64(7);
    for (k, q) in queries(&workload, &mut rng, 80).iter().enumerate() {
        let expected = sorted(ss.execute(q).matches);
        assert_eq!(sorted(ac.execute(q).matches), expected, "AC diverged on query {k}");
        assert_eq!(sorted(rs.execute(q).matches), expected, "RS diverged on query {k}");
    }
    // The adaptive index reorganized during the stream; verify and recheck.
    ac.check_invariants().unwrap();
    rs.check_invariants().unwrap();
    let more = queries(&workload, &mut rng, 40);
    for (k, q) in more.iter().enumerate() {
        assert_eq!(
            sorted(ac.execute(q).matches),
            sorted(ss.execute(q).matches),
            "AC diverged after reorganization on query {k}"
        );
    }
}

#[test]
fn all_methods_agree_on_skewed_workload() {
    let dims = 8;
    let workload = SkewedWorkload::new(WorkloadConfig::new(dims, 2500, 5), 0.35);
    let objects = workload.generate_objects();

    let mut ac =
        AdaptiveClusterIndex::new(IndexConfig::edbt2004(dims, StorageScenario::Disk)).unwrap();
    let mut rs = RStarTree::new(RStarConfig::memory(dims));
    let mut ss = SeqScan::new(dims, StorageScenario::Disk);
    for (i, rect) in objects.iter().enumerate() {
        ac.insert(ObjectId(i as u32), rect.clone()).unwrap();
        rs.insert(ObjectId(i as u32), rect);
        ss.insert(ObjectId(i as u32), rect);
    }
    let mut rng = StdRng::seed_from_u64(31);
    for k in 0..60 {
        let q = if k % 2 == 0 {
            SpatialQuery::intersection(workload.sample_unconstrained_window(&mut rng))
        } else {
            SpatialQuery::point_enclosing(
                (0..dims).map(|_| rng.gen_range(0.0..=1.0)).collect(),
            )
        };
        let expected = sorted(ss.execute(&q).matches);
        assert_eq!(sorted(ac.execute(&q).matches), expected, "AC diverged on query {k}");
        assert_eq!(sorted(rs.execute(&q).matches), expected, "RS diverged on query {k}");
    }
    ac.check_invariants().unwrap();
}

#[test]
fn methods_agree_under_concurrent_churn() {
    // Interleave inserts/removes with queries across all three methods.
    let dims = 4;
    let workload = UniformWorkload::new(WorkloadConfig::new(dims, 1, 9));
    let mut rng = StdRng::seed_from_u64(13);

    let mut ac = AdaptiveClusterIndex::new(IndexConfig::memory(dims)).unwrap();
    let mut rs = RStarTree::new(RStarConfig {
        page_size: 512,
        ..RStarConfig::memory(dims)
    });
    let mut ss = SeqScan::new(dims, StorageScenario::Memory);
    let mut live: Vec<(u32, HyperRect)> = Vec::new();
    let mut next_id = 0u32;

    for round in 0..8 {
        for _ in 0..250 {
            let r = workload.sample_object(&mut rng);
            ac.insert(ObjectId(next_id), r.clone()).unwrap();
            rs.insert(ObjectId(next_id), &r);
            ss.insert(ObjectId(next_id), &r);
            live.push((next_id, r));
            next_id += 1;
        }
        for _ in 0..100 {
            if live.is_empty() {
                break;
            }
            let k = rng.gen_range(0..live.len());
            let (id, r) = live.swap_remove(k);
            ac.remove(ObjectId(id)).unwrap();
            assert!(rs.remove(ObjectId(id), &r));
            assert!(ss.remove(ObjectId(id)));
        }
        for k in 0..20 {
            let q = match k % 3 {
                0 => SpatialQuery::intersection(workload.sample_window(&mut rng, 0.15)),
                1 => SpatialQuery::point_enclosing(workload.sample_point(&mut rng)),
                _ => SpatialQuery::containment(workload.sample_window(&mut rng, 0.5)),
            };
            let expected = sorted(ss.execute(&q).matches);
            assert_eq!(
                sorted(ac.execute(&q).matches),
                expected,
                "AC diverged in round {round}"
            );
            assert_eq!(
                sorted(rs.execute(&q).matches),
                expected,
                "RS diverged in round {round}"
            );
        }
        ac.check_invariants().unwrap();
        rs.check_invariants().unwrap();
    }
}
