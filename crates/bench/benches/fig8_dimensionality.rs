//! Criterion benches for the Fig. 8 experiment family (E5–E8): query
//! execution over the skewed workload at increasing dimensionality
//! (quarter of dimensions twice as selective, average selectivity 0.05 %).
//!
//! The full table regeneration is `cargo run --release -p acx_bench --bin fig8`.

use acx_bench::{build_ac, build_rs, build_ss};
use acx_geom::SpatialQuery;
use acx_storage::StorageScenario;
use acx_workloads::{calibrate, SkewedWorkload, WorkloadConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const OBJECTS: usize = 8_000;

fn bench_fig8(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8");
    group.sample_size(20);
    for dims in [16usize, 28, 40] {
        let base = calibrate::skewed_base_length(dims, 5e-4, dims as u64);
        let workload = SkewedWorkload::new(WorkloadConfig::new(dims, OBJECTS, 0x5EED), base);
        let data = workload.generate_objects();
        let rs = build_rs(dims, &data);
        let ss = build_ss(dims, &data);
        let mut rng = WorkloadConfig::new(dims, OBJECTS, 17).rng();
        let queries: Vec<SpatialQuery> = (0..512)
            .map(|_| SpatialQuery::intersection(workload.sample_unconstrained_window(&mut rng)))
            .collect();
        let mut ac = build_ac(dims, StorageScenario::Memory, &data);
        for q in &queries {
            ac.execute(q);
        }

        let mut k = 0usize;
        group.bench_function(BenchmarkId::new("AC", dims), |b| {
            b.iter(|| {
                k = (k + 1) % queries.len();
                ac.execute(&queries[k]).matches.len()
            })
        });
        group.bench_function(BenchmarkId::new("RS", dims), |b| {
            b.iter(|| {
                k = (k + 1) % queries.len();
                rs.execute(&queries[k]).matches.len()
            })
        });
        group.bench_function(BenchmarkId::new("SS", dims), |b| {
            b.iter(|| {
                k = (k + 1) % queries.len();
                ss.execute(&queries[k]).matches.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);
