//! Criterion bench for the periodic **reorganization pass** — the
//! maintenance half of adaptive serving, and (since the bitmask read
//! kernels landed) the dominant non-matching cost of `execute` at scale.
//!
//! The two sides come from [`acx_bench::strategies`] (the same pair
//! the `scan_bench` snapshot measures, so the criterion bench and the
//! committed `BENCH_reorg.json` can never drift apart): the production
//! pass (O(1) no-split screen + columnar split scan) and the
//! reference's decision-identical scalar scan of every cluster.
//!
//! Each iteration replays one full reorganization period — the paper's
//! `reorg_period = 100` queries feeding statistics into an adapted
//! 16-d index — but **only the `reorganize()` call is timed**
//! (`iter_custom`), so the numbers are the per-period maintenance cost
//! alone. Both strategies make identical decisions on this stream, so
//! their gap is pure pass speedup.

use std::time::{Duration, Instant};

use acx_bench::{build_ac_with, strategies};
use acx_geom::SpatialQuery;
use acx_workloads::{UniformWorkload, Workload, WorkloadConfig};
use criterion::{criterion_group, criterion_main, Criterion};

const DIMS: usize = 16;
const OBJECTS: usize = 10_000;
const PERIOD: usize = 100;

fn bench_reorganize(c: &mut Criterion) {
    let workload =
        UniformWorkload::with_max_length(WorkloadConfig::new(DIMS, OBJECTS, 0x5EED), 0.3);
    let data = workload.generate_objects();
    let mut rng = WorkloadConfig::new(DIMS, OBJECTS, 17).rng();
    let queries: Vec<SpatialQuery> = (0..500)
        .map(|_| SpatialQuery::point_enclosing(workload.sample_point(&mut rng)))
        .collect();

    let mut group = c.benchmark_group("reorganize");
    group.sample_size(12);
    for (label, mut config) in strategies(DIMS) {
        // Drive the paper's period explicitly (auto-reorganization off)
        // so the timed call is the pass alone: adaptation replays the
        // stream in period-sized windows exactly as `reorg_period = 100`
        // would, and each bench iteration replays one more period.
        config.reorg_period = 0;
        let mut index = build_ac_with(config, &data);
        for chunk in queries.chunks(PERIOD) {
            for q in chunk {
                index.execute(q);
            }
            index.reorganize();
        }
        let mut k = 0usize;
        group.bench_function(label, |b| {
            b.iter_custom(|iters| {
                let mut in_pass = Duration::ZERO;
                for _ in 0..iters {
                    for _ in 0..PERIOD {
                        k = (k + 1) % queries.len();
                        criterion::black_box(index.execute(&queries[k]).matches.len());
                    }
                    let started = Instant::now();
                    criterion::black_box(index.reorganize());
                    in_pass += started.elapsed();
                }
                in_pass
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_reorganize);
criterion_main!(benches);
