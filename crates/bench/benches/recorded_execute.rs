//! Criterion bench for the **recorded** execution path — the hot loop
//! of adaptive serving: matching plus statistics recording (per-cluster
//! and per-candidate counters), the part of `execute` that the
//! compare-and-count candidate kernel and the bitmask member kernel
//! accelerate. Three rows per strategy: recording into a delta,
//! recording plus `apply_stats` (the two-phase path), and `execute`
//! (the same traversal writing the statistics arena in place); the
//! last two leave the index in the same state and include the
//! amortized periodic pass.
//!
//! The two sides come from [`acx_bench::strategies`] (the same pair the
//! `scan_bench` snapshot measures, so the criterion bench and the
//! committed `BENCH_scan.json` can never drift apart): the production
//! path and the object-at-a-time reference.
//!
//! Both record bit-identical statistics, so their gap is pure kernel
//! speedup.

use acx_bench::{adapted_ac, strategies};
use acx_core::{QueryScratch, StatsDelta};
use acx_geom::SpatialQuery;
use acx_workloads::{UniformWorkload, Workload, WorkloadConfig};
use criterion::{criterion_group, criterion_main, Criterion};

const DIMS: usize = 16;
const OBJECTS: usize = 10_000;

fn bench_recorded_execute(c: &mut Criterion) {
    let workload =
        UniformWorkload::with_max_length(WorkloadConfig::new(DIMS, OBJECTS, 0x5EED), 0.3);
    let data = workload.generate_objects();
    let mut rng = WorkloadConfig::new(DIMS, OBJECTS, 17).rng();
    let queries: Vec<SpatialQuery> = (0..512)
        .map(|_| SpatialQuery::point_enclosing(workload.sample_point(&mut rng)))
        .collect();

    let mut group = c.benchmark_group("recorded_execute");
    group.sample_size(30);
    for (label, config) in strategies(DIMS) {
        let mut index = adapted_ac(config, &data, &queries);
        let mut scratch = QueryScratch::new();
        let mut delta = StatsDelta::new();
        let mut k = 0usize;
        group.bench_function(format!("{label}/recorded"), |b| {
            b.iter(|| {
                k = (k + 1) % queries.len();
                delta.clear();
                let metrics = index.query_recorded_with(&queries[k], &mut delta, &mut scratch);
                metrics.stats.verified_bytes + scratch.matches().len() as u64
            })
        });
        group.bench_function(format!("{label}/recorded+apply"), |b| {
            b.iter(|| {
                k = (k + 1) % queries.len();
                delta.clear();
                let metrics = index.query_recorded_with(&queries[k], &mut delta, &mut scratch);
                index.apply_stats(&delta);
                metrics.stats.verified_bytes + scratch.matches().len() as u64
            })
        });
        group.bench_function(format!("{label}/execute"), |b| {
            b.iter(|| {
                k = (k + 1) % queries.len();
                let result = index.execute(&queries[k]);
                result.metrics.stats.verified_bytes + result.matches.len() as u64
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_recorded_execute);
criterion_main!(benches);
