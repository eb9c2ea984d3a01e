//! Per-shard durability: WAL attachment, checkpointing and recovery
//! compose with sharding exactly as they do on a single index —
//! disjoint partitions mean each shard's log/checkpoint pair recovers
//! in isolation and the reassembled service is state-identical.

use acx_core::{AdaptiveClusterIndex, ClusterSnapshot, IndexConfig, IndexError};
use acx_geom::{ObjectId, SpatialQuery};
use acx_serve::{ServeConfig, ShardBy, ShardedIndex};
use acx_storage::{FlushPolicy, StorageScenario, StoreError};
use acx_testkit::TempPath;
use acx_workloads::{EventStream, PubSubGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Three shards on the paper's platform, which materializes clusters
/// from a shard's few dozen subscriptions (asserted where a test needs
/// them): what is recovered must be a cluster tree, not a lone root.
fn config() -> ServeConfig {
    let dims = PubSubGenerator::apartments().dims();
    let mut index = IndexConfig::edbt2004(dims, StorageScenario::Memory);
    index.reorg_period = 32;
    ServeConfig::new(index)
        .with_shards(3)
        .with_shard_by(ShardBy::Hash)
        .retaining_results()
}

fn shard_states(index: &ShardedIndex) -> Vec<(Vec<ClusterSnapshot>, usize)> {
    (0..index.shards())
        .map(|s| {
            index.with_shard(s, |i: &mut AdaptiveClusterIndex| {
                (i.snapshots(), i.len())
            })
        })
        .collect()
}

/// Threads of this process named `acx-wal-sync`, where `/proc` lists
/// them. Only one test of this file runs a policy that syncs behind the
/// caller, so the count is that test's.
fn wal_sync_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(Result::ok)
            .filter(|task| {
                std::fs::read_to_string(task.path().join("comm"))
                    .is_ok_and(|name| name.trim_end() == "acx-wal-sync")
            })
            .count(),
    )
}

#[test]
fn wal_checkpoint_recover_roundtrip() {
    roundtrip("roundtrip", FlushPolicy::PerRecord);
}

/// The same round trip with barriers synced behind the callers: every
/// shard's log gets its own sync thread, and dropping the service
/// joins them.
#[test]
fn wal_checkpoint_recover_roundtrip_synced_behind() {
    roundtrip("behind", FlushPolicy::PerBatch(64));
}

fn roundtrip(tag: &str, policy: FlushPolicy) {
    let behind = policy != FlushPolicy::PerRecord;
    let dir = TempPath::new(tag);
    let generator = PubSubGenerator::apartments();
    let mut rng = StdRng::seed_from_u64(31);
    let index = ShardedIndex::new(config()).unwrap();
    index.attach_wal_dir(&dir, policy).unwrap();

    // Phase 1: inserts + events, then a checkpoint.
    index
        .insert_all((0..360).map(|i| (ObjectId(i), generator.subscription(i, &mut rng).ranges)))
        .unwrap();
    let mut stream = EventStream::with_flexibility(PubSubGenerator::apartments(), 8, 0.02);
    for q in stream.next_batch(240) {
        index.submit(q);
    }
    index.flush();
    index.checkpoint_all(&dir).unwrap();

    // Phase 2: more mutations after the checkpoint — these live only
    // in the per-shard logs.
    for i in 360..390 {
        index
            .insert(ObjectId(i), generator.subscription(i, &mut rng).ranges)
            .unwrap();
    }
    for i in (0..30).step_by(3) {
        index.remove(ObjectId(i)).unwrap();
    }
    let before = shard_states(&index);
    assert!(
        before.iter().any(|(snapshots, _)| snapshots.len() > 1),
        "premise: some shard materialized clusters before the crash"
    );
    let survivors = index.object_ids();
    if behind {
        assert_eq!(wal_sync_threads().unwrap_or(3), 3, "one per shard");
    }
    drop(index); // "crash": queues close, workers drain, logs stay
    if behind {
        assert_eq!(wal_sync_threads().unwrap_or(0), 0, "joined on drop");
    }

    let (recovered, reports) = ShardedIndex::recover(&dir, policy, config()).unwrap();
    assert_eq!(reports.len(), 3);
    assert!(
        reports.iter().any(|r| r.replayed_records > 0),
        "phase-2 mutations were beyond the checkpoint"
    );
    assert_eq!(recovered.object_ids(), survivors);
    assert_eq!(
        shard_states(&recovered),
        before,
        "recovered shards must be state-identical"
    );

    // The recovered service still serves and still routes mutations.
    let probe = recovered.submit(SpatialQuery::point_enclosing(
        generator.event(&mut rng),
    ));
    recovered.flush();
    assert_eq!(recovered.drain_results().last().unwrap().seq, probe);
    recovered
        .insert(ObjectId(9000), generator.subscription(9000, &mut rng).ranges)
        .unwrap();
    assert!(recovered.contains(ObjectId(9000)));
}

#[test]
fn recovery_without_checkpoint_replays_the_whole_log() {
    let dir = TempPath::new("no-ckpt");
    let generator = PubSubGenerator::apartments();
    let mut rng = StdRng::seed_from_u64(77);
    let index = ShardedIndex::new(config()).unwrap();
    index.attach_wal_dir(&dir, FlushPolicy::PerRecord).unwrap();
    index
        .insert_all((0..40).map(|i| (ObjectId(i), generator.subscription(i, &mut rng).ranges)))
        .unwrap();
    let before = shard_states(&index);
    drop(index);

    let (recovered, reports) =
        ShardedIndex::recover(&dir, FlushPolicy::PerRecord, config()).unwrap();
    assert_eq!(
        reports.iter().map(|r| r.replayed_records).sum::<u64>(),
        40,
        "every insert came back from a log"
    );
    assert_eq!(shard_states(&recovered), before);
    assert_eq!(recovered.len(), 40);
}

#[test]
fn a_checkpoint_directory_that_cannot_be_created_is_a_store_error() {
    let dir = TempPath::new("under-a-file");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("plain-file");
    std::fs::write(&file, b"not a directory").unwrap();
    let index = ShardedIndex::new(config()).unwrap();
    match index.checkpoint_all(&file.join("checkpoints")) {
        Err(IndexError::Store(e @ StoreError::Io(_))) => {
            assert_eq!(e.io_kind(), Some(std::io::ErrorKind::NotADirectory))
        }
        other => panic!("expected a checkpoint i/o error, got {other:?}"),
    }
}

/// A directory recovers only under the shard count that wrote it: with
/// one shard fewer a shard's files would be ignored, with one more a
/// log would be created for a shard that never wrote. Both are refused
/// and leave every file as it was; the right count then brings back
/// every object. Files swapped between two shards put objects on shards
/// that do not own them, which is refused too.
#[test]
fn recovering_with_another_shard_count_is_refused() {
    let dir = TempPath::new("shard-count");
    let generator = PubSubGenerator::apartments();
    let mut rng = StdRng::seed_from_u64(5);
    let index = ShardedIndex::new(config()).unwrap();
    index.attach_wal_dir(&dir, FlushPolicy::PerRecord).unwrap();
    let mut subscribe = |ids: std::ops::Range<u32>| {
        index
            .insert_all(ids.map(|i| (ObjectId(i), generator.subscription(i, &mut rng).ranges)))
            .unwrap()
    };
    subscribe(0..40);
    index.checkpoint_all(&dir).unwrap();
    subscribe(40..60);
    let survivors = index.object_ids();
    assert_eq!(survivors.len(), 60);
    drop(index);

    let files = || {
        let mut files: Vec<_> = std::fs::read_dir(&*dir)
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                (path.clone(), std::fs::read(path).unwrap())
            })
            .collect();
        files.sort();
        files
    };
    let written = files();
    assert_eq!(written.len(), 6, "a log and a checkpoint per shard");
    for shards in [2, 4] {
        assert!(
            matches!(
                ShardedIndex::recover(&dir, FlushPolicy::PerRecord, config().with_shards(shards)),
                Err(IndexError::InvalidConfig(_))
            ),
            "{shards} shards"
        );
        assert!(files() == written, "{shards} shards: the directory changed");
    }

    let (recovered, _) = ShardedIndex::recover(&dir, FlushPolicy::PerRecord, config()).unwrap();
    assert_eq!(recovered.object_ids(), survivors);
    drop(recovered);

    for ext in ["wal", "ckpt"] {
        let (zero, one) = (dir.join(format!("shard-0.{ext}")), dir.join(format!("shard-1.{ext}")));
        let swap = dir.join("swap");
        std::fs::rename(&zero, &swap).unwrap();
        std::fs::rename(&one, &zero).unwrap();
        std::fs::rename(&swap, &one).unwrap();
    }
    assert!(matches!(
        ShardedIndex::recover(&dir, FlushPolicy::PerRecord, config()),
        Err(IndexError::InvalidConfig(_))
    ));
}
