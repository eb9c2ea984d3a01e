//! Criterion benches for the Fig. 7 experiment family (E1–E4): query
//! execution over the uniform 16-dimensional workload at two
//! representative selectivities, for all three access methods and both
//! AC storage scenarios.
//!
//! The full table regeneration (all seven selectivities, paper-format
//! output) is `cargo run --release -p acx_bench --bin fig7`.

use acx_bench::{build_ac, build_rs, build_ss};
use acx_geom::SpatialQuery;
use acx_storage::StorageScenario;
use acx_workloads::{calibrate, UniformWorkload, Workload, WorkloadConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const DIMS: usize = 16;
const OBJECTS: usize = 10_000;

fn bench_fig7(c: &mut Criterion) {
    let workload =
        UniformWorkload::with_max_length(WorkloadConfig::new(DIMS, OBJECTS, 0x5EED), 0.5);
    let data = workload.generate_objects();
    let rs = build_rs(DIMS, &data);
    let ss = build_ss(DIMS, &data);

    let mut group = c.benchmark_group("fig7");
    group.sample_size(20);
    for selectivity in [5e-5f64, 5e-2] {
        let extent = calibrate::uniform_query_extent(&workload, selectivity, 11);
        let mut rng = WorkloadConfig::new(DIMS, OBJECTS, 17).rng();
        let queries: Vec<SpatialQuery> = (0..512)
            .map(|_| SpatialQuery::intersection(workload.sample_window(&mut rng, extent)))
            .collect();

        // Warm an AC index per scenario (reaches the stable clustering).
        let mut ac_mem = build_ac(DIMS, StorageScenario::Memory, &data);
        let mut ac_disk = build_ac(DIMS, StorageScenario::Disk, &data);
        for q in &queries {
            ac_mem.execute(q);
            ac_disk.execute(q);
        }

        let mut k = 0usize;
        group.bench_function(BenchmarkId::new("AC-memory", selectivity), |b| {
            b.iter(|| {
                k = (k + 1) % queries.len();
                ac_mem.execute(&queries[k]).matches.len()
            })
        });
        group.bench_function(BenchmarkId::new("AC-disk-layout", selectivity), |b| {
            b.iter(|| {
                k = (k + 1) % queries.len();
                ac_disk.execute(&queries[k]).matches.len()
            })
        });
        group.bench_function(BenchmarkId::new("RS", selectivity), |b| {
            b.iter(|| {
                k = (k + 1) % queries.len();
                rs.execute(&queries[k]).matches.len()
            })
        });
        group.bench_function(BenchmarkId::new("SS", selectivity), |b| {
            b.iter(|| {
                k = (k + 1) % queries.len();
                ss.execute(&queries[k]).matches.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig7);
criterion_main!(benches);
