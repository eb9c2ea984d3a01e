//! Ablation benches for the index's tunable design choices:
//!
//! * division factor `f` (the paper fixes `f = 4`, §4.2/§6),
//! * reorganization period (the paper uses 100 queries, §7.1),
//! * statistics smoothing and confidence hysteresis (this repo's
//!   additions — `stats_decay = 0 / confidence_z = 0` reproduces the
//!   paper's bare benefit functions).
//!
//! Each variant warms an index to its stable state, then measures query
//! execution, so both the equilibrium clustering quality and the steady
//! -state cost are visible.

use acx_bench::ac_config;
use acx_core::{AdaptiveClusterIndex, IndexConfig};
use acx_geom::{ObjectId, SpatialQuery};
use acx_storage::StorageScenario;
use acx_workloads::{calibrate, UniformWorkload, Workload, WorkloadConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const DIMS: usize = 16;
const OBJECTS: usize = 8_000;

fn warmed_index(config: IndexConfig, queries: &[SpatialQuery]) -> AdaptiveClusterIndex {
    let workload =
        UniformWorkload::with_max_length(WorkloadConfig::new(DIMS, OBJECTS, 0x5EED), 0.5);
    let mut index = AdaptiveClusterIndex::new(config).unwrap();
    for (i, rect) in workload.generate_objects().into_iter().enumerate() {
        index.insert(ObjectId(i as u32), rect).unwrap();
    }
    for q in queries {
        index.execute(q);
    }
    index
}

fn make_queries() -> Vec<SpatialQuery> {
    let workload =
        UniformWorkload::with_max_length(WorkloadConfig::new(DIMS, OBJECTS, 0x5EED), 0.5);
    let extent = calibrate::uniform_query_extent(&workload, 5e-4, 11);
    let mut rng = WorkloadConfig::new(DIMS, OBJECTS, 17).rng();
    (0..600)
        .map(|_| SpatialQuery::intersection(workload.sample_window(&mut rng, extent)))
        .collect()
}

fn bench_division_factor(c: &mut Criterion) {
    let queries = make_queries();
    let mut group = c.benchmark_group("ablation_division_factor");
    group.sample_size(20);
    for f in [2u8, 4, 8] {
        let mut config = ac_config(DIMS, StorageScenario::Memory);
        config.division_factor = f;
        let mut index = warmed_index(config, &queries);
        let mut k = 0usize;
        group.bench_function(BenchmarkId::from_parameter(f), |b| {
            b.iter(|| {
                k = (k + 1) % queries.len();
                index.execute(&queries[k]).matches.len()
            })
        });
    }
    group.finish();
}

fn bench_reorg_period(c: &mut Criterion) {
    let queries = make_queries();
    let mut group = c.benchmark_group("ablation_reorg_period");
    group.sample_size(20);
    for period in [25u64, 100, 400] {
        let mut config = ac_config(DIMS, StorageScenario::Memory);
        config.reorg_period = period;
        let mut index = warmed_index(config, &queries);
        let mut k = 0usize;
        group.bench_function(BenchmarkId::from_parameter(period), |b| {
            b.iter(|| {
                k = (k + 1) % queries.len();
                index.execute(&queries[k]).matches.len()
            })
        });
    }
    group.finish();
}

fn bench_statistics_policy(c: &mut Criterion) {
    let queries = make_queries();
    let mut group = c.benchmark_group("ablation_statistics_policy");
    group.sample_size(20);
    // (decay, confidence): paper-bare vs smoothed+hysteresis (default).
    for (label, decay, z) in [("paper_bare", 0.0, 0.0), ("smoothed", 0.5, 2.0)] {
        let mut config = ac_config(DIMS, StorageScenario::Memory);
        config.stats_decay = decay;
        config.confidence_z = z;
        let mut index = warmed_index(config, &queries);
        let mut k = 0usize;
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                k = (k + 1) % queries.len();
                index.execute(&queries[k]).matches.len()
            })
        });
    }
    group.finish();
}

fn bench_grouping_vs_mbb(c: &mut Criterion) {
    // The paper's claim that signature grouping beats "minimum bounding
    // in all dimensions" is exercised by AC vs the R*-tree (the canonical
    // MBB structure) — see the fig7/fig8 benches. Here we isolate the
    // *pruning test* itself: signature match vs MBB intersection at
    // equal dimensionality.
    use acx_core::Signature;
    use acx_geom::HyperRect;
    let workload =
        UniformWorkload::with_max_length(WorkloadConfig::new(DIMS, OBJECTS, 0x5EED), 0.5);
    let mut rng = WorkloadConfig::new(DIMS, OBJECTS, 23).rng();
    let sig = Signature::root(DIMS).specialize(2, 4, 0, 1).specialize(9, 4, 2, 3);
    let mbb: HyperRect = workload.sample_object(&mut rng);
    let windows: Vec<HyperRect> = (0..256)
        .map(|_| workload.sample_window(&mut rng, 0.2))
        .collect();
    let queries: Vec<SpatialQuery> = windows
        .iter()
        .map(|w| SpatialQuery::intersection(w.clone()))
        .collect();

    let mut group = c.benchmark_group("ablation_grouping_prune_test");
    let mut k = 0usize;
    group.bench_function("signature_match", |b| {
        b.iter(|| {
            k = (k + 1) % queries.len();
            sig.matches_query(&queries[k])
        })
    });
    group.bench_function("mbb_intersection", |b| {
        b.iter(|| {
            k = (k + 1) % windows.len();
            mbb.intersects(&windows[k])
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_division_factor,
    bench_reorg_period,
    bench_statistics_policy,
    bench_grouping_vs_mbb
);
criterion_main!(benches);
