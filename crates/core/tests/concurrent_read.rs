//! The concurrent read path: `query` takes `&self` (compile-checked by
//! issuing queries from scoped threads over a shared reference),
//! `query_recorded` + `apply_stats` leaves the index where `execute`
//! does, and `get`/`remove` locate objects in O(1) through the store's
//! position map.

use std::time::Instant;

use acx_core::{AdaptiveClusterIndex, IndexConfig, IndexError, StatsDelta};
use acx_geom::{HyperRect, ObjectId, Scalar, SpatialQuery};
use acx_testkit::{paper, random_rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn mixed_queries(rng: &mut StdRng, dims: usize, n: usize) -> Vec<SpatialQuery> {
    (0..n)
        .map(|k| match k % 3 {
            0 => SpatialQuery::point_enclosing(
                (0..dims).map(|_| rng.gen_range(0.0..=1.0)).collect(),
            ),
            1 => {
                let mut lo = Vec::with_capacity(dims);
                let mut hi = Vec::with_capacity(dims);
                for _ in 0..dims {
                    let start: Scalar = rng.gen_range(0.0..=0.9);
                    lo.push(start);
                    hi.push(start + 0.1);
                }
                SpatialQuery::intersection(HyperRect::from_bounds(&lo, &hi).unwrap())
            }
            _ => SpatialQuery::containment(HyperRect::from_bounds(&vec![0.0; dims], &vec![1.0; dims]).unwrap()),
        })
        .collect()
}

fn build(dims: usize, n: usize, seed: u64, config: IndexConfig) -> AdaptiveClusterIndex {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut index = AdaptiveClusterIndex::new(config).unwrap();
    for i in 0..n as u32 {
        index.insert(ObjectId(i), random_rect(&mut rng, dims)).unwrap();
    }
    index
}

#[test]
fn queries_run_concurrently_over_a_shared_reference() {
    let dims = 4;
    let mut index = build(dims, 2000, 1, paper(dims));
    // Warm up so the tree has real clusters, then freeze it.
    let mut rng = StdRng::seed_from_u64(2);
    for q in mixed_queries(&mut rng, dims, 150) {
        index.execute(&q);
    }
    let queries = mixed_queries(&mut rng, dims, 40);
    let sequential: Vec<_> = queries.iter().map(|q| index.query(q).matches).collect();

    // `query` takes `&self`: scoped threads share the index immutably.
    let shared = &index;
    let concurrent: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(10)
            .map(|qs| scope.spawn(move || qs.iter().map(|q| shared.query(q).matches).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });
    assert_eq!(sequential, concurrent);
    // Read-only queries recorded no statistics and triggered no reorg.
    assert_eq!(index.total_queries(), 150);
}

#[test]
fn query_recorded_plus_apply_stats_equals_execute() {
    let dims = 4;
    let mut via_execute = build(dims, 1200, 3, paper(dims));
    let mut via_delta = build(dims, 1200, 3, paper(dims));
    let mut rng = StdRng::seed_from_u64(4);
    // Stay under one reorganization period so manual deltas may be
    // grouped freely before being applied.
    let queries = mixed_queries(&mut rng, dims, 99);

    let mut delta = StatsDelta::new();
    for q in &queries {
        let a = via_execute.execute(q);
        let b = via_delta.query_recorded(q, &mut delta);
        assert_eq!(a.matches, b.matches);
    }
    assert_eq!(delta.queries(), 99);
    assert!(!delta.is_empty());
    via_delta.apply_stats(&delta);

    assert_eq!(via_execute.total_queries(), via_delta.total_queries());
    let r = via_execute.reorganize();
    let d = via_delta.reorganize();
    assert_eq!((r.merges, r.splits), (d.merges, d.splits));
    assert_eq!(via_execute.snapshots(), via_delta.snapshots());
}

#[test]
fn try_query_and_try_execute_report_dimension_mismatch() {
    let mut index = build(3, 50, 5, IndexConfig::memory(3));
    let bad = SpatialQuery::point_enclosing(vec![0.5]);
    assert!(matches!(
        index.try_query(&bad),
        Err(IndexError::DimensionMismatch { expected: 3, actual: 1 })
    ));
    assert!(matches!(
        index.try_execute(&bad),
        Err(IndexError::DimensionMismatch { expected: 3, actual: 1 })
    ));
    let before = index.total_queries();

    let good = SpatialQuery::point_enclosing(vec![0.5, 0.5, 0.5]);
    let q = index.try_query(&good).unwrap();
    let e = index.try_execute(&good).unwrap();
    assert_eq!(q.matches, e.matches);
    assert_eq!(index.total_queries(), before + 1);
}

#[test]
#[should_panic(expected = "query dimensionality")]
fn query_panics_on_dimension_mismatch() {
    let index = build(3, 10, 6, IndexConfig::memory(3));
    index.query(&SpatialQuery::point_enclosing(vec![0.5]));
}

/// Regression for the O(n) `position()` scans `get` used to perform: a
/// lookup must do no per-object work, so its cost cannot scale with the
/// index size. Timing 50× more objects with the same number of lookups
/// in the same process keeps the bound complexity-sensitive but robust:
/// a linear-scan implementation is ~50× slower on the large index, an
/// O(1) map is within noise.
///
/// The same large population under ids strided by 4 096 (`k << 12`)
/// must cost what the dense ids cost: a position map that buckets on the
/// low id bits puts every strided id in a few dozen buckets and probes
/// thousands of entries per lookup.
#[test]
fn get_does_no_per_object_work_at_100k_objects() {
    let dims = 4;
    let lookups = 200_000u32;
    let small_n = 2_000u32;
    let large_n = 100_000u32;
    let stride = 12;
    let config = |dims| {
        let mut c = paper(dims);
        c.reorg_period = 0; // keep every index a single root cluster
        c
    };
    let small = build(dims, small_n as usize, 30, config(dims));
    let large = build(dims, large_n as usize, 31, config(dims));
    let strided = {
        let mut rng = StdRng::seed_from_u64(31);
        let mut index = AdaptiveClusterIndex::new(config(dims)).unwrap();
        for i in 0..large_n {
            index.insert(ObjectId(i << stride), random_rect(&mut rng, dims)).unwrap();
        }
        index
    };

    let time_gets = |index: &AdaptiveClusterIndex, n: u32, shift: u32| {
        let started = Instant::now();
        let mut found = 0u32;
        for k in 0..lookups {
            if index.get(ObjectId((k % n) << shift)).is_some() {
                found += 1;
            }
        }
        assert_eq!(found, lookups);
        started.elapsed()
    };
    // Warm both paths once before timing.
    time_gets(&small, small_n, 0);
    let t_small = time_gets(&small, small_n, 0);
    let t_large = time_gets(&large, large_n, 0);
    let ratio = t_large.as_secs_f64() / t_small.as_secs_f64().max(1e-9);
    assert!(
        ratio < 10.0,
        "get cost scaled with index size (50x objects -> {ratio:.1}x slower): \
         lookups are doing per-object work"
    );
    let t_strided = time_gets(&strided, large_n, stride);
    let ratio = t_strided.as_secs_f64() / t_large.as_secs_f64().max(1e-9);
    assert!(
        ratio < 10.0,
        "ids strided by 1 << {stride} look up {ratio:.1}x slower than dense ids: \
         the position map's hash buckets on the low id bits"
    );
}

#[test]
#[should_panic(expected = "different clustering state")]
fn recording_into_one_delta_across_a_reorganization_panics() {
    let dims = 4;
    let mut config = paper(dims);
    config.reorg_period = 0; // manual reorganizations
    let mut index = build(dims, 1500, 40, config);
    let mut rng = StdRng::seed_from_u64(41);

    let mut delta = StatsDelta::new();
    index.query_recorded(
        &SpatialQuery::point_enclosing(vec![0.5; 4]),
        &mut delta,
    );
    // Selective queries then a reorganization that changes the clustering.
    for q in mixed_queries(&mut rng, dims, 120) {
        index.execute(&q);
    }
    let report = index.reorganize();
    assert!(report.changed(), "test premise: clustering must change");
    // The delta is stamped with the old structural epoch: recording more
    // queries into it must be rejected rather than silently mixed.
    index.query_recorded(
        &SpatialQuery::point_enclosing(vec![0.5; 4]),
        &mut delta,
    );
}

#[test]
fn applying_a_stale_delta_drops_cluster_increments_but_counts_queries() {
    let dims = 4;
    let mut config = paper(dims);
    config.reorg_period = 0;
    let mut index = build(dims, 1500, 42, config);
    let mut rng = StdRng::seed_from_u64(43);

    // Record a delta against the initial single-root clustering.
    let mut stale = StatsDelta::new();
    for _ in 0..10 {
        index.query_recorded(
            &SpatialQuery::point_enclosing(
                (0..dims).map(|_| rng.gen_range(0.0..=1.0)).collect(),
            ),
            &mut stale,
        );
    }
    // Change the clustering: the old slots' statistics may now belong to
    // different (or recycled) clusters.
    for q in mixed_queries(&mut rng, dims, 120) {
        index.execute(&q);
    }
    assert!(index.reorganize().changed());

    let probabilities_before: Vec<f64> = index
        .snapshots()
        .iter()
        .map(|s| s.access_probability)
        .collect();
    let queries_before = index.total_queries();
    index.apply_stats(&stale);
    // Global totals applied, per-cluster increments dropped: every
    // numerator (q_eff + q_count) is unchanged, so no probability rose.
    assert_eq!(index.total_queries(), queries_before + 10);
    for (before, snap) in probabilities_before.iter().zip(index.snapshots()) {
        assert!(
            snap.access_probability <= before + 1e-12,
            "stale delta inflated cluster {}: {} -> {}",
            snap.id,
            before,
            snap.access_probability
        );
    }
    index.check_invariants().unwrap();
}
