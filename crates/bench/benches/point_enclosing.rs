//! Criterion bench for E9 (§7.2 point-enclosing queries): the index's
//! best case thanks to the queries' high selectivity. `AC` runs the
//! production path, `AC-oracle` the bit-identical reference — their gap
//! is the production path's speedup on the scan-dominated workload.

use acx_bench::{ac_config, build_ac, build_ac_with, build_ss};
use acx_core::IndexConfig;
use acx_geom::SpatialQuery;
use acx_storage::StorageScenario;
use acx_workloads::{UniformWorkload, Workload, WorkloadConfig};
use criterion::{criterion_group, criterion_main, Criterion};

const DIMS: usize = 16;
const OBJECTS: usize = 10_000;

fn bench_point_enclosing(c: &mut Criterion) {
    let workload =
        UniformWorkload::with_max_length(WorkloadConfig::new(DIMS, OBJECTS, 0x5EED), 0.3);
    let data = workload.generate_objects();
    let ss = build_ss(DIMS, &data);
    let mut rng = WorkloadConfig::new(DIMS, OBJECTS, 17).rng();
    let queries: Vec<SpatialQuery> = (0..512)
        .map(|_| SpatialQuery::point_enclosing(workload.sample_point(&mut rng)))
        .collect();
    let mut ac = build_ac(DIMS, StorageScenario::Memory, &data);
    let reference = IndexConfig {
        reference: true,
        ..ac_config(DIMS, StorageScenario::Memory)
    };
    let mut oracle = build_ac_with(reference, &data);
    for q in &queries {
        ac.execute(q);
        oracle.execute(q);
    }

    let mut group = c.benchmark_group("point_enclosing");
    group.sample_size(30);
    let mut k = 0usize;
    group.bench_function("AC", |b| {
        b.iter(|| {
            k = (k + 1) % queries.len();
            ac.execute(&queries[k]).matches.len()
        })
    });
    group.bench_function("AC-oracle", |b| {
        b.iter(|| {
            k = (k + 1) % queries.len();
            oracle.execute(&queries[k]).matches.len()
        })
    });
    group.bench_function("SS", |b| {
        b.iter(|| {
            k = (k + 1) % queries.len();
            ss.execute(&queries[k]).matches.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_point_enclosing);
criterion_main!(benches);
