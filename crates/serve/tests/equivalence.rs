//! Sharded serving must be answer-identical to single-index execution.
//!
//! Three contracts:
//!
//! * **Union**: for every event, the sorted union of per-shard matches
//!   equals the match set of one index holding *all* subscriptions —
//!   for 1, 2 and 4 shards, so the answer is independent of the shard
//!   count.
//! * **Per-shard identity**: each shard's index ends in exactly the
//!   state (every [`ClusterSnapshot`], every counter) of an index built
//!   independently over that shard's subscription partition and driven
//!   with the same event sequence — the shard *is* a single index, the
//!   serving tier adds nothing to its decision surface.
//! * **Mutations mid-stream** keep the union contract: routed inserts
//!   and removes interleaved with events answer like a single index
//!   applying the same interleaving.

use acx_core::{AdaptiveClusterIndex, ClusterSnapshot, IndexConfig};
use acx_geom::{HyperRect, ObjectId, SpatialQuery};
use acx_serve::{ServeConfig, ShardedIndex};
use acx_storage::StorageScenario;
use acx_testkit::sorted;
use acx_workloads::{EventStream, PubSubGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

fn subscriptions(n: u32) -> Vec<(ObjectId, HyperRect)> {
    let generator = PubSubGenerator::apartments();
    let mut rng = StdRng::seed_from_u64(0xACE5);
    (0..n)
        .map(|i| (ObjectId(i), generator.subscription(i, &mut rng).ranges))
        .collect()
}

/// Frequent reorganizations so passes fire mid-stream on every shard,
/// on the paper's platform so that they materialize clusters from a
/// shard's hundred-odd subscriptions (each test asserts that they did).
fn config() -> IndexConfig {
    let dims = PubSubGenerator::apartments().dims();
    let mut config = IndexConfig::edbt2004(dims, StorageScenario::Memory);
    config.reorg_period = 64;
    config
}

fn events(n: usize, seed: u64) -> Vec<SpatialQuery> {
    EventStream::with_flexibility(PubSubGenerator::apartments(), seed, 0.02).next_batch(n)
}

#[test]
fn union_is_identical_across_shard_counts_and_strategies() {
    let subs = subscriptions(600);
    let stream = events(400, 42);

    let mut reference = AdaptiveClusterIndex::new(config()).unwrap();
    for (id, rect) in &subs {
        reference.insert(*id, rect.clone()).unwrap();
    }
    let expected: Vec<Vec<ObjectId>> = stream
        .iter()
        .map(|q| sorted(reference.execute(q).matches))
        .collect();
    assert!(
        expected.iter().any(|m| !m.is_empty()),
        "premise: some events must match"
    );
    assert!(reference.reorganizations() > 0, "premise: reorgs fired");
    assert!(reference.total_splits() > 0, "premise: clusters materialized");

    for shards in [1usize, 2, 4] {
        let index = ShardedIndex::new(
            ServeConfig::new(config())
                .with_shards(shards)
                .retaining_results(),
        )
        .unwrap();
        index.insert_all(subs.iter().cloned()).unwrap();
        for q in &stream {
            index.submit(q.clone());
        }
        index.flush();
        let results = index.drain_results();
        assert_eq!(results.len(), stream.len(), "{shards} shards");
        for (k, result) in results.iter().enumerate() {
            assert_eq!(result.seq, k as u64);
            assert_eq!(
                result.matches, expected[k],
                "event {k} diverged under {shards} shards"
            );
        }
        let stats = index.stats();
        assert_eq!(stats.events_completed, stream.len() as u64);
    }
}

#[test]
fn each_shard_is_bit_identical_to_an_index_over_its_partition() {
    let subs = subscriptions(400);
    let stream = events(300, 7);

    let index = ShardedIndex::new(ServeConfig::new(config()).with_shards(4)).unwrap();
    index.insert_all(subs.iter().cloned()).unwrap();
    for q in &stream {
        index.submit(q.clone());
    }
    index.flush();

    let mut resident = 0usize;
    for shard in 0..4 {
        let owned: HashSet<u32> = index.with_shard(shard, |i: &mut AdaptiveClusterIndex| {
            i.object_ids().map(|id| id.0).collect()
        });
        resident += owned.len();
        // An independent index over the same partition, same
        // insertion order, same event sequence.
        let mut solo = AdaptiveClusterIndex::new(config()).unwrap();
        for (id, rect) in &subs {
            if owned.contains(&id.0) {
                solo.insert(*id, rect.clone()).unwrap();
            }
        }
        for q in &stream {
            solo.execute(q);
        }
        assert!(
            solo.total_splits() > 0,
            "premise: shard {shard} materialized clusters"
        );
        let shard_state = index.with_shard(
            shard,
            |i: &mut AdaptiveClusterIndex| -> (Vec<ClusterSnapshot>, u64, u64, usize) {
                (
                    i.snapshots(),
                    i.total_queries(),
                    i.reorganizations(),
                    i.cluster_count(),
                )
            },
        );
        assert_eq!(
            shard_state,
            (
                solo.snapshots(),
                solo.total_queries(),
                solo.reorganizations(),
                solo.cluster_count()
            ),
            "shard {shard} diverged from its solo twin"
        );
        index
            .with_shard(shard, |i: &mut AdaptiveClusterIndex| i.check_invariants())
            .unwrap();
    }
    assert_eq!(resident, subs.len(), "partition covers every subscription");
}

#[test]
fn mutations_mid_stream_keep_the_union_contract() {
    let subs = subscriptions(300);
    let stream = events(200, 99);
    let extra = subscriptions(360); // ids 300.. are fresh inserts
    let fresh = &extra[300..];

    let mut reference = AdaptiveClusterIndex::new(config()).unwrap();
    let index = ShardedIndex::new(
        ServeConfig::new(config())
            .with_shards(4)
            .retaining_results(),
    )
    .unwrap();
    for (id, rect) in &subs {
        reference.insert(*id, rect.clone()).unwrap();
    }
    index.insert_all(subs.iter().cloned()).unwrap();

    let mut expected = Vec::new();
    let mut next_fresh = fresh.iter();
    for (k, q) in stream.iter().enumerate() {
        // Every 20 events: remove one subscription, insert a fresh
        // one, through both paths in the same order.
        if k % 20 == 10 {
            let victim = ObjectId((k as u32 / 20) * 13 % 300);
            if index.contains(victim) {
                let a = reference.remove(victim).unwrap();
                let b = index.remove(victim).unwrap();
                assert_eq!(a, b);
            }
            if let Some((id, rect)) = next_fresh.next() {
                reference.insert(*id, rect.clone()).unwrap();
                index.insert(*id, rect.clone()).unwrap();
            }
        }
        expected.push(sorted(reference.execute(q).matches));
        index.submit(q.clone());
    }
    index.flush();
    let results = index.drain_results();
    assert_eq!(results.len(), stream.len());
    for (k, result) in results.iter().enumerate() {
        assert_eq!(
            result.matches, expected[k],
            "event {k} diverged with mutations in flight"
        );
    }
    assert_eq!(index.len(), reference.len());
    assert!(
        reference.total_splits() > 0,
        "premise: clusters materialized"
    );
}

#[test]
fn repeated_runs_are_deterministic() {
    let subs = subscriptions(200);
    let stream = events(150, 5);
    let run = || {
        let index = ShardedIndex::new(
            ServeConfig::new(config())
                .with_shards(2)
                .retaining_results(),
        )
        .unwrap();
        index.insert_all(subs.iter().cloned()).unwrap();
        for q in &stream {
            index.submit(q.clone());
        }
        index.flush();
        index.drain_results()
    };
    assert_eq!(run(), run());
}
