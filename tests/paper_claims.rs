//! Integration tests asserting the paper's headline claims hold in this
//! reproduction (at reduced scale — the *shape*, not the 2004 absolute
//! numbers).

use acx::prelude::*;
use acx::workloads::calibrate;
use acx_storage::AccessStats;
use rand::SeedableRng;

struct Measured {
    priced_ms: f64,
    stats: AccessStats,
    units: usize,
}

fn measure_ac(
    scenario: StorageScenario,
    objects: &[HyperRect],
    warmup: &[SpatialQuery],
    measured: &[SpatialQuery],
) -> Measured {
    let dims = objects[0].dims();
    // The paper's claims are priced with the paper's constants.
    let mut index = AdaptiveClusterIndex::new(IndexConfig::edbt2004(dims, scenario)).unwrap();
    for (i, r) in objects.iter().enumerate() {
        index.insert(ObjectId(i as u32), r.clone()).unwrap();
    }
    for q in warmup {
        index.execute(q);
    }
    let mut agg = AccessStats::new();
    let mut priced = 0.0;
    for q in measured {
        let r = index.execute(q);
        agg.merge(&r.metrics.stats);
        priced += r.metrics.priced_ms;
    }
    index.check_invariants().unwrap();
    Measured {
        priced_ms: priced / measured.len() as f64,
        stats: agg,
        units: index.cluster_count(),
    }
}

fn measure_ss(
    scenario: StorageScenario,
    objects: &[HyperRect],
    measured: &[SpatialQuery],
) -> Measured {
    let dims = objects[0].dims();
    let mut ss = SeqScan::new(dims, scenario);
    for (i, r) in objects.iter().enumerate() {
        ss.insert(ObjectId(i as u32), r);
    }
    let mut agg = AccessStats::new();
    let mut priced = 0.0;
    for q in measured {
        let r = ss.execute(q);
        agg.merge(&r.metrics.stats);
        priced += r.metrics.priced_ms;
    }
    Measured {
        priced_ms: priced / measured.len() as f64,
        stats: agg,
        units: 1,
    }
}

/// "Using the cost-based clustering we always guarantee better average
/// performance than Sequential Scan" (§1) — in both storage scenarios,
/// on a selective workload.
#[test]
fn ac_beats_seqscan_on_selective_queries_in_both_scenarios() {
    let dims = 16;
    let n = 15_000;
    let workload = UniformWorkload::with_max_length(WorkloadConfig::new(dims, n, 77), 0.5);
    let objects = workload.generate_objects();
    let extent = calibrate::uniform_query_extent(&workload, 5e-5, 3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let warmup: Vec<_> = (0..600)
        .map(|_| SpatialQuery::intersection(workload.sample_window(&mut rng, extent)))
        .collect();
    let measured: Vec<_> = (0..150)
        .map(|_| SpatialQuery::intersection(workload.sample_window(&mut rng, extent)))
        .collect();

    for scenario in [StorageScenario::Memory, StorageScenario::Disk] {
        let ac = measure_ac(scenario, &objects, &warmup, &measured);
        let ss = measure_ss(scenario, &objects, &measured);
        assert!(
            ac.priced_ms <= ss.priced_ms * 1.05,
            "{scenario}: AC {:.4} ms should not exceed SS {:.4} ms",
            ac.priced_ms,
            ss.priced_ms
        );
        assert!(
            ac.stats.objects_verified < ss.stats.objects_verified,
            "{scenario}: AC must verify fewer objects"
        );
    }
}

/// On non-selective queries AC degenerates gracefully towards a single
/// sequentially scanned cluster rather than falling behind SS (§7.2:
/// "the cost model … always ensures better performance for AC compared
/// to SS").
#[test]
fn ac_degenerates_to_scan_on_non_selective_queries() {
    let dims = 8;
    let n = 10_000;
    let workload = UniformWorkload::with_max_length(WorkloadConfig::new(dims, n, 21), 0.5);
    let objects = workload.generate_objects();
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    // Huge windows: selectivity near 50 %.
    let warmup: Vec<_> = (0..500)
        .map(|_| SpatialQuery::intersection(workload.sample_window(&mut rng, 0.9)))
        .collect();
    let measured: Vec<_> = (0..100)
        .map(|_| SpatialQuery::intersection(workload.sample_window(&mut rng, 0.9)))
        .collect();
    let ac = measure_ac(StorageScenario::Memory, &objects, &warmup, &measured);
    let ss = measure_ss(StorageScenario::Memory, &objects, &measured);
    assert!(
        ac.units <= 4,
        "non-selective workload should keep clustering trivial, got {} clusters",
        ac.units
    );
    assert!(ac.priced_ms <= ss.priced_ms * 1.10);
}

/// The disk cost model produces far fewer clusters than the memory one
/// (Fig. 7: 25,561 memory clusters vs 1,360 disk clusters at the same
/// selectivity) because every exploration pays a 15 ms seek.
#[test]
fn disk_clustering_is_much_coarser_than_memory() {
    let dims = 16;
    let n = 15_000;
    let workload = UniformWorkload::with_max_length(WorkloadConfig::new(dims, n, 4), 0.5);
    let objects = workload.generate_objects();
    let extent = calibrate::uniform_query_extent(&workload, 5e-5, 8);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let warmup: Vec<_> = (0..600)
        .map(|_| SpatialQuery::intersection(workload.sample_window(&mut rng, extent)))
        .collect();
    let measured: Vec<_> = (0..50)
        .map(|_| SpatialQuery::intersection(workload.sample_window(&mut rng, extent)))
        .collect();
    let mem = measure_ac(StorageScenario::Memory, &objects, &warmup, &measured);
    let disk = measure_ac(StorageScenario::Disk, &objects, &warmup, &measured);
    assert!(
        disk.units * 4 < mem.units,
        "disk clusters ({}) should be several times fewer than memory ({})",
        disk.units,
        mem.units
    );
}

/// Point-enclosing queries are the best case (§7.2): AC's advantage over
/// SS is larger than for range queries.
#[test]
fn point_enclosing_is_best_case_for_ac() {
    let dims = 16;
    let n = 15_000;
    let workload = UniformWorkload::with_max_length(WorkloadConfig::new(dims, n, 6), 0.3);
    let objects = workload.generate_objects();
    let mut rng = rand::rngs::StdRng::seed_from_u64(44);
    let warmup: Vec<_> = (0..600)
        .map(|_| SpatialQuery::point_enclosing(workload.sample_point(&mut rng)))
        .collect();
    let measured: Vec<_> = (0..150)
        .map(|_| SpatialQuery::point_enclosing(workload.sample_point(&mut rng)))
        .collect();
    let ac = measure_ac(StorageScenario::Memory, &objects, &warmup, &measured);
    let ss = measure_ss(StorageScenario::Memory, &objects, &measured);
    let speedup = ss.priced_ms / ac.priced_ms;
    assert!(
        speedup > 2.0,
        "point queries should give a clear speedup, got {speedup:.1}x"
    );
}
