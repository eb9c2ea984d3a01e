//! Snapshot benchmark of the sharded serving tier, recorded to
//! `BENCH_serve.json` so the repository's perf trajectory is tracked
//! across PRs.
//!
//! The measured axis is architectural: one adaptive index executing the
//! event stream in submission order (the single-index baseline, through
//! the shared runner's per-event path) versus `ShardedIndex` fanning
//! every event out to 1..N partition shards through bounded queues,
//! with reorganization stalling one shard at a time instead of the
//! whole tier. Both the pub/sub notification stream (§1) and the
//! skewed point-enclosing stream (§7.3) from the workload zoo are
//! driven through every (shard count, partitioning strategy) cell, and
//! each cell's union answers are verified against the single index on a
//! stream prefix before anything is timed.
//!
//! Single-core note: on a one-core host every shard worker time-slices
//! the same CPU, so shard scaling cannot show wall-clock speedup here —
//! the committed snapshot demonstrates structure (per-shard stalls,
//! bounded queues, no aggregate regression); the scaling column is
//! hardware-dependent, like the `execute_batch` thread axis of PR 2.
//!
//! Usage:
//! ```text
//! cargo run --release -p acx_bench --bin serve
//!     [--quick] [--out BENCH_serve.json]
//!     [--objects N] [--events N] [--warmup N]
//!     [--shards N] [--shard-by hash|space] [--queue-cap N]
//!     [--flexibility 0.0] [--seed 24141]
//! ```
//! `--shards` sets the largest shard count (the sweep runs 1, 2, 4, ..
//! up to it); `--shard-by` restricts the sweep to one strategy.

use std::fmt::Write as _;

use acx_bench::args::Flags;
use acx_bench::{ac_config, build_ac_with, run_ac, run_serve};
use acx_geom::{HyperRect, ObjectId, SpatialQuery};
use acx_serve::{ServeConfig, ShardBy, ShardedIndex};
use acx_storage::StorageScenario;
use acx_workloads::{EventStream, PubSubGenerator, SkewedWorkload, Workload, WorkloadConfig};

struct ServeRow {
    workload: &'static str,
    shards: usize,
    shard_by: ShardBy,
    qps: f64,
    latency_p50_ns: u64,
    latency_p99_ns: u64,
    max_queue_depth_p99: usize,
    reorg_passes: u64,
    reorg_stall_ns: u64,
    queue_full_rejections: u64,
    submit_stalls: u64,
}

fn shard_counts(max: usize) -> Vec<usize> {
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

/// Asserts the sharded tier's union answers are bit-identical to the
/// single index over a prefix of the measured stream (the full-stream
/// proof lives in `crates/serve/tests/equivalence.rs`; this keeps the
/// committed snapshot honest about the configuration it actually ran).
fn verify_union(
    config: &acx_core::IndexConfig,
    serve_cfg: ServeConfig,
    objects: &[HyperRect],
    prefix: &[SpatialQuery],
) {
    let mut solo = build_ac_with(config.clone(), objects);
    let index = ShardedIndex::new(serve_cfg.retaining_results()).expect("valid serve config");
    index
        .insert_all(
            objects
                .iter()
                .enumerate()
                .map(|(i, rect)| (ObjectId(i as u32), rect.clone())),
        )
        .expect("insertion succeeds");
    for q in prefix {
        index.submit(q.clone());
    }
    index.flush();
    let results = index.drain_results();
    assert_eq!(results.len(), prefix.len(), "every event completed");
    for (k, result) in results.iter().enumerate() {
        let mut expected = solo.execute(&prefix[k]).matches;
        expected.sort_unstable();
        assert_eq!(
            result.matches, expected,
            "sharded union must equal the single index on event {k}"
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn run_workload(
    name: &'static str,
    config: &acx_core::IndexConfig,
    objects: &[HyperRect],
    warmup: &[SpatialQuery],
    measured: &[SpatialQuery],
    counts: &[usize],
    strategies: &[ShardBy],
    queue_cap: usize,
    rows: &mut Vec<ServeRow>,
) -> f64 {
    println!("\n-- {name} workload (dims={}) --", config.dims);

    let mut solo = build_ac_with(config.clone(), objects);
    let report = run_ac(&mut solo, warmup, measured, objects.len());
    let single_qps = 1000.0 / report.wall_ms.max(1e-12);
    println!(
        "single index: {single_qps:>12.0} q/s  reorg_stall={:.3}ms/{} passes  ({} clusters)",
        report.reorg_stall_ns as f64 / 1e6,
        report.reorg_passes,
        report.total_units,
    );

    let verify_len = measured.len().min(200);
    for &by in strategies {
        for &shards in counts {
            let serve_cfg = ServeConfig::new(config.clone())
                .with_shards(shards)
                .with_shard_by(by)
                .with_queue_cap(queue_cap);
            verify_union(config, serve_cfg.clone(), objects, &measured[..verify_len]);
            let stats = run_serve(serve_cfg, objects, warmup, measured);
            let max_depth = stats
                .shards
                .iter()
                .map(|s| s.queue_depth_p99)
                .max()
                .unwrap_or(0);
            println!(
                "serve shards={shards} ({by}): {:>12.0} q/s  lat p50={:.1}us p99={:.1}us  \
                 depth_p99={max_depth}  reorg_stall={:.3}ms/{} passes  \
                 (vs single {:.2}x)",
                stats.qps(),
                stats.latency_p50_ns as f64 / 1e3,
                stats.latency_p99_ns as f64 / 1e3,
                stats.reorg_stall_ns as f64 / 1e6,
                stats.reorg_passes,
                stats.qps() / single_qps.max(1e-9),
            );
            rows.push(ServeRow {
                workload: name,
                shards,
                shard_by: by,
                qps: stats.qps(),
                latency_p50_ns: stats.latency_p50_ns,
                latency_p99_ns: stats.latency_p99_ns,
                max_queue_depth_p99: max_depth,
                reorg_passes: stats.reorg_passes,
                reorg_stall_ns: stats.reorg_stall_ns,
                queue_full_rejections: stats.queue_full_rejections,
                submit_stalls: stats.submit_stalls,
            });
        }
    }
    single_qps
}

fn main() {
    let flags = Flags::from_env();
    let quick = flags.has("quick");
    let out: String = flags.get("out", "BENCH_serve.json".to_string());
    let (default_objects, default_events, default_warmup) = if quick {
        (1_000, 300, 100)
    } else {
        (20_000, 2_000, 600)
    };
    let objects: usize = flags.get("objects", default_objects);
    let events: usize = flags.get("events", default_events);
    let warmup_n: usize = flags.get("warmup", default_warmup);
    let flexibility: f32 = flags.get("flexibility", 0.0);
    let seed: u64 = flags.get("seed", 0x5E41);
    let max_shards = flags.shards().max(if quick { 2 } else { 4 });
    let counts = shard_counts(max_shards);
    let strategies: Vec<ShardBy> = if flags.has("shard-by") {
        vec![flags.shard_by()]
    } else {
        vec![ShardBy::Hash, ShardBy::Space]
    };
    let queue_cap = flags.queue_cap();
    flags.finish();

    println!("== Sharded serving tier vs single index ==");
    println!(
        "objects={objects} events={events} warmup={warmup_n} \
         shards={counts:?} queue_cap={queue_cap}"
    );

    let mut rows = Vec::new();

    // Workload 1: pub/sub — subscriptions as objects, offers as events.
    let generator = PubSubGenerator::apartments();
    let dims = generator.dims();
    let mut rng = WorkloadConfig::new(dims, objects, seed).rng();
    let subscriptions: Vec<HyperRect> = (0..objects as u32)
        .map(|i| generator.subscription(i, &mut rng).ranges)
        .collect();
    let mut stream = EventStream::with_flexibility(generator, seed ^ 0xF00D, flexibility);
    let warmup = stream.next_batch(warmup_n);
    let measured = stream.next_batch(events);
    let pubsub_cfg = ac_config(dims, StorageScenario::Memory);
    let pubsub_single = run_workload(
        "pubsub",
        &pubsub_cfg,
        &subscriptions,
        &warmup,
        &measured,
        &counts,
        &strategies,
        queue_cap,
        &mut rows,
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
    let skewed_cfg = ac_config(dims, StorageScenario::Memory);
    let skewed_single = run_workload(
        "skewed",
        &skewed_cfg,
        &data,
        &warmup,
        &measured,
        &counts,
        &strategies,
        queue_cap,
        &mut rows,
    );

    // Hand-rolled JSON: the workspace is offline, no serde available.
    let mut json = String::from("{\n  \"bench\": \"serve\",\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"objects\": {objects},");
    let _ = writeln!(json, "  \"events\": {events},");
    let _ = writeln!(json, "  \"queue_cap\": {queue_cap},");
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let _ = writeln!(json, "  \"host_cores\": {cores},");
    let _ = writeln!(
        json,
        "  \"single_index_qps\": {{\"pubsub\": {pubsub_single:.0}, \"skewed\": {skewed_single:.0}}},"
    );
    json.push_str("  \"serve\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"shards\": {}, \"shard_by\": \"{}\", \
             \"qps\": {:.0}, \"latency_p50_ns\": {}, \"latency_p99_ns\": {}, \
             \"max_queue_depth_p99\": {}, \"reorg_passes\": {}, \"reorg_stall_ns\": {}, \
             \"queue_full_rejections\": {}, \"submit_stalls\": {}}}",
            r.workload,
            r.shards,
            r.shard_by,
            r.qps,
            r.latency_p50_ns,
            r.latency_p99_ns,
            r.max_queue_depth_p99,
            r.reorg_passes,
            r.reorg_stall_ns,
            r.queue_full_rejections,
            r.submit_stalls,
        );
        json.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ],\n");
    json.push_str(
        "  \"note\": \"every (shards, strategy) cell's union answers are verified \
         bit-identical to the single index on a stream prefix before timing; shard \
         scaling is hardware-dependent — on a one-core host all shard workers \
         time-slice one CPU, so the snapshot demonstrates structure and \
         no-regression, not wall-clock speedup\"\n",
    );
    json.push_str("}\n");
    std::fs::write(&out, &json).expect("write serve snapshot");
    println!("\nwrote {out}");
}
