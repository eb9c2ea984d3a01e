//! Serving throughput of the concurrent read path: queries/sec of
//! `AdaptiveClusterIndex::execute_batch` for 1..=N threads against the
//! baselines' shared `BatchExecute::execute_batch` API (`SeqScan` and
//! the R*-tree), on the paper's pub/sub notification workload (§1) and
//! on the skewed workload (§7.3). All three methods batch at the API
//! level — one call per measured stream — so the comparison is
//! apples-to-apples in both verification kernel and interface.
//!
//! Each AC row also reports the reorganization stall inside the
//! measured stream (`reorg_stall`): the batched path closes its window
//! at every pass boundary and used to hide that serving hiccup, and the
//! sharded serving tier (`serve` bin) reports the same counter per
//! shard — one axis, two architectures. A final `serve` row runs the
//! measured stream through the sharded tier configured by `--shards` /
//! `--shard-by` / `--queue-cap` for a direct comparison.
//!
//! Usage:
//! ```text
//! cargo run --release -p acx_bench --bin throughput
//!     [--objects 50000] [--events 2000] [--warmup 600]
//!     [--max-threads 8] [--flexibility 0.0] [--seed 24141]
//!     [--shards N] [--shard-by hash|space] [--queue-cap N]
//!     [--wal PATH] [--flush-policy record|batch[:N]|epoch]
//! ```

use std::time::Instant;

use acx_baselines::BatchExecute;
use acx_bench::args::{Flags, WalFlags};
use acx_bench::{
    ac_config, build_ac_with, build_rs, build_ss, run_ac_batch, run_serve, MethodReport,
};
use acx_serve::{ServeConfig, ShardBy};
use acx_core::IndexConfig;
use acx_geom::{HyperRect, SpatialQuery};
use acx_storage::StorageScenario;
use acx_workloads::{EventStream, PubSubGenerator, SkewedWorkload, Workload, WorkloadConfig};

fn thread_counts(max: usize) -> Vec<usize> {
    let mut counts = vec![1usize];
    while let Some(&last) = counts.last() {
        if last * 2 > max {
            break;
        }
        counts.push(last * 2);
    }
    if counts.last() != Some(&max) && max > 1 {
        counts.push(max);
    }
    counts
}

/// Queries/sec of one timed run.
fn qps(queries: usize, elapsed_secs: f64) -> f64 {
    queries as f64 / elapsed_secs.max(1e-9)
}

/// Measures the adaptive index through the shared runner: fresh build +
/// warm-up per thread count so every measurement starts from the same
/// adapted clustering (the batch path reaches the identical state
/// regardless of `threads`).
fn measure_ac(
    wal: &WalFlags,
    config: IndexConfig,
    objects: &[HyperRect],
    warmup: &[SpatialQuery],
    measured: &[SpatialQuery],
    threads: usize,
) -> MethodReport {
    let mut index = build_ac_with(config, objects);
    wal.attach(&mut index);
    run_ac_batch(&mut index, warmup, measured, threads, objects.len())
}

/// What the command line chose for every workload of the run.
struct Setup {
    wal: WalFlags,
    shards: usize,
    shard_by: ShardBy,
    queue_cap: usize,
}

fn main() {
    let flags = Flags::from_env();
    let objects: usize = flags.get("objects", 50_000);
    let events: usize = flags.get("events", 2_000);
    let warmup_n: usize = flags.get("warmup", 600);
    let max_threads: usize = flags.get("max-threads", 8).max(1);
    let flexibility: f32 = flags.get("flexibility", 0.0);
    let seed: u64 = flags.get("seed", 0x5E41);
    let setup = Setup {
        wal: flags.wal(),
        shards: flags.shards(),
        shard_by: flags.shard_by(),
        queue_cap: flags.queue_cap(),
    };
    flags.finish();

    println!("== Serving throughput: concurrent read path vs baselines ==");
    println!("objects={objects} events={events} warmup={warmup_n} max_threads={max_threads}");

    // Workload 1: pub/sub — subscriptions as objects, offers as queries.
    let generator = PubSubGenerator::apartments();
    let dims = generator.dims();
    let mut rng = WorkloadConfig::new(dims, objects, seed).rng();
    let subscriptions: Vec<HyperRect> = (0..objects as u32)
        .map(|i| generator.subscription(i, &mut rng).ranges)
        .collect();
    let mut stream = EventStream::with_flexibility(generator, seed ^ 0xF00D, flexibility);
    let warmup = stream.next_batch(warmup_n);
    let measured = stream.next_batch(events);
    let ac_cfg = ac_config(dims, StorageScenario::Memory);
    run_workload(
        &setup,
        "pub/sub",
        &ac_cfg,
        &subscriptions,
        &warmup,
        &measured,
        max_threads,
    );

    // Workload 2: skewed objects, point-enclosing events.
    let dims = 16;
    let workload = SkewedWorkload::new(WorkloadConfig::new(dims, objects, seed), 0.3);
    let data = workload.generate_objects();
    let mut qrng = WorkloadConfig::new(dims, objects, seed ^ 0xF1E1D).rng();
    let make = |rng: &mut rand::rngs::StdRng, n: usize| -> Vec<SpatialQuery> {
        (0..n)
            .map(|_| SpatialQuery::point_enclosing(workload.sample_point(rng)))
            .collect()
    };
    let warmup = make(&mut qrng, warmup_n);
    let measured = make(&mut qrng, events);
    let ac_cfg = ac_config(dims, StorageScenario::Memory);
    run_workload(
        &setup,
        "skewed",
        &ac_cfg,
        &data,
        &warmup,
        &measured,
        max_threads,
    );
}

fn run_workload(
    setup: &Setup,
    name: &str,
    config: &IndexConfig,
    objects: &[HyperRect],
    warmup: &[SpatialQuery],
    measured: &[SpatialQuery],
    max_threads: usize,
) {
    let dims = config.dims;
    println!("\n-- {name} workload (dims={dims}) --");

    let counts = thread_counts(max_threads);
    let mut ac_base = 0.0f64;
    let mut clusters = 0usize;
    for &t in &counts {
        let report = measure_ac(&setup.wal, config.clone(), objects, warmup, measured, t);
        let rate = 1000.0 / report.wall_ms.max(1e-12); // wall_ms is per query
        if t == 1 {
            ac_base = rate;
            clusters = report.total_units;
        }
        println!(
            "AC  t={t}: {rate:>12.0} q/s  (speedup {:.2}x vs t=1)  \
             reorg_stall={:.3}ms/{} passes",
            rate / ac_base.max(1e-9),
            report.reorg_stall_ns as f64 / 1e6,
            report.reorg_passes,
        );
    }
    println!("    adapted to {clusters} clusters");

    // The sharded serving tier over the same subscriptions and events:
    // per-event fan-out through bounded queues instead of one batched
    // call, reorganization stalling one shard at a time.
    let serve_cfg = ServeConfig::new(config.clone())
        .with_shards(setup.shards)
        .with_shard_by(setup.shard_by)
        .with_queue_cap(setup.queue_cap);
    let stats = run_serve(serve_cfg, objects, warmup, measured);
    let stall_ms = stats.reorg_stall_ns as f64 / 1e6;
    println!(
        "serve shards={} ({}): {:>12.0} q/s  lat p50={:.1}us p99={:.1}us  \
         reorg_stall={stall_ms:.3}ms/{} passes",
        setup.shards,
        setup.shard_by,
        stats.qps(),
        stats.latency_p50_ns as f64 / 1e3,
        stats.latency_p99_ns as f64 / 1e3,
        stats.reorg_passes,
    );

    // Baselines through the shared batch API: one `execute_batch` call
    // per measured stream, query-level parallelism over shared `&self`.
    let ss = build_ss(dims, objects);
    measure_batch("SS", &ss, measured, &counts);
    let rs = build_rs(dims, objects);
    measure_batch("RS", &rs, measured, &counts);
}

/// Times `BatchExecute::execute_batch` over the stream per thread count.
fn measure_batch<B: BatchExecute>(
    label: &str,
    method: &B,
    measured: &[SpatialQuery],
    counts: &[usize],
) {
    let mut base = 0.0f64;
    for &t in counts {
        let started = Instant::now();
        let results = method.execute_batch(measured, t);
        let rate = qps(results.len(), started.elapsed().as_secs_f64());
        if t == 1 {
            base = rate;
        }
        println!(
            "{label}  t={t}: {rate:>12.0} q/s  (speedup {:.2}x vs t=1)",
            rate / base.max(1e-9)
        );
    }
}
