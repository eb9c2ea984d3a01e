//! Durability overhead and recovery cost of the write-ahead log.
//!
//! Two questions, measured on the same driven workload (bulk load +
//! membership churn + query traffic with periodic reorganizations):
//!
//! 1. What does logging cost per flush policy? The same op stream runs
//!    with no WAL (baseline), then with a [`FileBacking`] WAL under
//!    `record`, `batch:64`, and `epoch` flushing.
//! 2. What does recovery cost as the log grows? The full `record` log
//!    is replayed from byte prefixes of increasing length, plus once
//!    from a mid-stream checkpoint + WAL suffix — the fast path
//!    [`AdaptiveClusterIndex::checkpoint`] exists for.
//!
//! Results are recorded to `BENCH_durability.json` (committed, like the
//! other `BENCH_*.json` snapshots).
//!
//! Usage:
//! ```text
//! cargo run --release -p acx_bench --bin durability
//!     [--objects 8000] [--queries 4000] [--dims 8] [--seed 24029]
//!     [--quick] [--out BENCH_durability.json]
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use acx_bench::args::Flags;
use acx_core::{AdaptiveClusterIndex, IndexConfig};
use acx_geom::{ObjectId, SpatialQuery};
use acx_storage::{FileBacking, FlushPolicy, MemBacking, Wal};
use acx_workloads::{calibrate, UniformWorkload, Workload, WorkloadConfig};

fn temp_file(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "acx-durability-bench-{tag}-{}.wal",
        std::process::id()
    ));
    path
}

struct Driven {
    wall_ms: f64,
    reorgs: u64,
    clusters: usize,
    log_bytes: u64,
    log_records: u64,
}

/// Runs the full op stream — bulk load, 10% churn (remove + update +
/// re-insert), query traffic with automatic reorganizations — against a
/// fresh index, optionally logging to a file-backed WAL.
fn drive(
    config: &IndexConfig,
    objects: &[acx_geom::HyperRect],
    queries: &[SpatialQuery],
    wal: Option<(&PathBuf, FlushPolicy)>,
) -> Driven {
    let mut index = AdaptiveClusterIndex::new(config.clone()).expect("valid config");
    if let Some((path, policy)) = wal {
        let backing = FileBacking::create(path).expect("create wal file");
        let wal = Wal::create(Box::new(backing), policy, config.dims).expect("create wal");
        index.attach_wal(wal).expect("attach wal");
    }
    let start = Instant::now();
    for (i, rect) in objects.iter().enumerate() {
        index
            .insert(ObjectId(i as u32), rect.clone())
            .expect("insert");
    }
    let churn = objects.len() / 10;
    for i in 0..churn {
        let id = ObjectId((i * 7 % objects.len()) as u32);
        let rect = index.get(id).expect("churn target");
        index.remove(id).expect("remove");
        index.insert(id, rect.clone()).expect("re-insert");
        index.update(id, rect).expect("update");
    }
    for q in queries {
        index.execute(q);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(index.wal_failure().is_none(), "log faulted during the run");
    let (log_bytes, log_records) = match index.detach_wal() {
        Some(wal) => {
            let records = wal.records();
            let mut store = wal.into_store();
            (
                store.read_durable().expect("read log").len() as u64,
                records,
            )
        }
        None => (0, 0),
    };
    Driven {
        wall_ms,
        reorgs: index.reorganizations(),
        clusters: index.cluster_count(),
        log_bytes,
        log_records,
    }
}

fn main() {
    let flags = Flags::from_env();
    let quick = flags.has("quick");
    let objects_n: usize = flags.get("objects", if quick { 1_500 } else { 8_000 });
    let queries_n: usize = flags.get("queries", if quick { 800 } else { 4_000 });
    let dims: usize = flags.get("dims", 8);
    let seed: u64 = flags.get("seed", 24_029);
    let out: String = flags.get("out", "BENCH_durability.json".to_string());
    flags.finish();

    let workload =
        UniformWorkload::with_max_length(WorkloadConfig::new(dims, objects_n, seed), 0.3);
    let data = workload.generate_objects();
    let extent = calibrate::uniform_query_extent(&workload, 5e-4, seed);
    let mut qrng = WorkloadConfig::new(dims, objects_n, seed ^ 0xF1E1D).rng();
    let queries: Vec<SpatialQuery> = (0..queries_n)
        .map(|_| SpatialQuery::intersection(workload.sample_window(&mut qrng, extent)))
        .collect();
    let mut config = IndexConfig::memory(dims);
    config.reorg_period = 100;

    // -- 1. logging overhead per flush policy ------------------------
    println!("-- wal overhead ({objects_n} objects, {queries_n} queries, dims={dims}) --");
    let baseline = drive(&config, &data, &queries, None);
    println!(
        "  {:<12} {:>9.1} ms  (reorgs={}, clusters={})",
        "no-wal", baseline.wall_ms, baseline.reorgs, baseline.clusters
    );
    let policies = [
        ("record", FlushPolicy::PerRecord),
        ("batch:64", FlushPolicy::PerBatch(64)),
        ("epoch", FlushPolicy::PerEpoch),
    ];
    let mut rows = Vec::new();
    let wal_path = temp_file("policy");
    for (label, policy) in policies {
        let run = drive(&config, &data, &queries, Some((&wal_path, policy)));
        let overhead = (run.wall_ms - baseline.wall_ms) / baseline.wall_ms * 100.0;
        println!(
            "  {:<12} {:>9.1} ms  (+{overhead:.1}%, {} records, {} KiB)",
            label,
            run.wall_ms,
            run.log_records,
            run.log_bytes / 1024
        );
        rows.push((label, run, overhead));
    }

    // -- 2. recovery time vs. log length -----------------------------
    // Replay byte prefixes of the full per-record log from memory, so
    // the numbers isolate replay work from disk streaming.
    println!("-- recovery vs. log length --");
    let run = drive(
        &config,
        &data,
        &queries,
        Some((&wal_path, FlushPolicy::PerRecord)),
    );
    let log = std::fs::read(&wal_path).expect("read full log");
    assert_eq!(log.len() as u64, run.log_bytes);
    let mut recovery_rows = Vec::new();
    for fraction in [0.25, 0.5, 1.0] {
        let cut = (log.len() as f64 * fraction) as usize;
        let start = Instant::now();
        let (index, report) = AdaptiveClusterIndex::recover(
            None,
            Box::new(MemBacking::from_bytes(log[..cut].to_vec())),
            FlushPolicy::PerRecord,
            config.clone(),
        )
        .expect("recover from prefix");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        index.check_invariants().expect("recovered invariants");
        println!(
            "  {:>5.0}% of log: {:>8} records -> {:>7.1} ms ({} objects, {} clusters)",
            fraction * 100.0,
            report.replayed_records,
            ms,
            report.objects,
            report.clusters
        );
        recovery_rows.push((fraction, report.replayed_records, cut as u64, ms));
    }

    // -- 3. checkpoint + suffix --------------------------------------
    // Same stream, but a checkpoint lands after the load + churn; only
    // the query-phase structural records remain in the log.
    let ckpt_path = temp_file("ckpt");
    let mut index = AdaptiveClusterIndex::new(config.clone()).expect("valid config");
    let backing = FileBacking::create(&wal_path).expect("create wal file");
    index
        .attach_wal(Wal::create(Box::new(backing), FlushPolicy::PerRecord, dims).expect("wal"))
        .expect("attach");
    for (i, rect) in data.iter().enumerate() {
        index
            .insert(ObjectId(i as u32), rect.clone())
            .expect("insert");
    }
    index.checkpoint(&ckpt_path).expect("checkpoint");
    for q in &queries {
        index.execute(q);
    }
    drop(index.detach_wal());
    let suffix = std::fs::read(&wal_path).expect("read suffix log");
    let start = Instant::now();
    let (index, report) = AdaptiveClusterIndex::recover(
        Some(&ckpt_path),
        Box::new(MemBacking::from_bytes(suffix.clone())),
        FlushPolicy::PerRecord,
        config.clone(),
    )
    .expect("recover from checkpoint");
    let ckpt_ms = start.elapsed().as_secs_f64() * 1e3;
    index.check_invariants().expect("recovered invariants");
    println!(
        "  checkpoint + {} suffix records -> {:>7.1} ms",
        report.replayed_records, ckpt_ms
    );
    let _ = std::fs::remove_file(&wal_path);
    let _ = std::fs::remove_file(&ckpt_path);

    // Hand-rolled JSON: the workspace is offline, no serde available.
    let mut json = String::from("{\n  \"bench\": \"durability\",\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(
        json,
        "  \"objects\": {objects_n}, \"queries\": {queries_n}, \"dims\": {dims}, \"reorg_period\": {},",
        config.reorg_period
    );
    let _ = writeln!(
        json,
        "  \"baseline_no_wal\": {{\"wall_ms\": {:.3}, \"reorgs\": {}, \"clusters\": {}}},",
        baseline.wall_ms, baseline.reorgs, baseline.clusters
    );
    json.push_str("  \"flush_policies\": [\n");
    for (i, (label, run, overhead)) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"policy\": \"{label}\", \"wall_ms\": {:.3}, \"overhead_pct\": {overhead:.2}, \"log_records\": {}, \"log_bytes\": {}}}{}",
            run.wall_ms,
            run.log_records,
            run.log_bytes,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n  \"recovery\": [\n");
    for (i, (fraction, records, bytes, ms)) in recovery_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"log_fraction\": {fraction}, \"replayed_records\": {records}, \"log_bytes\": {bytes}, \"recover_ms\": {ms:.3}}}{}",
            if i + 1 == recovery_rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"checkpoint_recovery\": {{\"suffix_records\": {}, \"suffix_bytes\": {}, \"recover_ms\": {ckpt_ms:.3}}},",
        report.replayed_records,
        suffix.len()
    );
    json.push_str(
        "  \"note\": \"overhead is the full driven phase (load + churn + queries) vs the no-wal baseline on the same stream; recovery replays byte prefixes of the per-record log from memory\"\n}\n",
    );
    std::fs::write(&out, &json).expect("write durability snapshot");
    println!("wrote {out}");
}
