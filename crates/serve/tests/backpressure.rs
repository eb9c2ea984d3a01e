//! Backpressure: a full queue rejects cleanly — the rolled-back event
//! reaches no shard, nothing is dropped, nothing is double-counted —
//! and the blocking path waits instead, accounting its stall.

use acx_core::{AdaptiveClusterIndex, IndexConfig};
use acx_geom::{HyperRect, ObjectId, SpatialQuery};
use acx_serve::{ServeConfig, ShardedIndex, SubmitError};
use std::sync::mpsc;
use std::time::Duration;

const CAP: usize = 4;

fn query() -> SpatialQuery {
    SpatialQuery::point_enclosing(vec![0.3, 0.3, 0.3])
}

fn build() -> ShardedIndex {
    let index = ShardedIndex::new(
        ServeConfig::new(IndexConfig::memory(3))
            .with_shards(2)
            .with_queue_cap(CAP)
            .retaining_results(),
    )
    .unwrap();
    index
        .insert(
            ObjectId(1),
            HyperRect::from_bounds(&[0.2, 0.2, 0.2], &[0.4, 0.4, 0.4]).unwrap(),
        )
        .unwrap();
    index
}

/// Parks shard 0's worker inside a closure until the returned sender is
/// signalled, leaving its queue to fill up behind it. Returns only once
/// the worker is inside the closure (i.e. the closure no longer
/// occupies a queue slot).
fn park_shard_zero(index: &ShardedIndex) -> (mpsc::Sender<()>, mpsc::Receiver<()>) {
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let parked = index.with_shard_deferred(0, move |_: &mut AdaptiveClusterIndex| {
        let _ = entered_tx.send(());
        let _ = gate_rx.recv();
    });
    entered_rx.recv().expect("worker reaches the parked closure");
    (gate_tx, parked)
}

#[test]
fn full_queue_rejects_and_loses_nothing() {
    let index = build();
    let (gate, parked) = park_shard_zero(&index);

    // The worker is parked *outside* the queue (the closure has been
    // dequeued), so exactly `CAP` events fit.
    for k in 0..CAP {
        index.try_submit(query()).unwrap_or_else(|e| {
            panic!("event {k} must be admitted below the cap: {e}");
        });
    }
    assert_eq!(
        index.try_submit(query()),
        Err(SubmitError::QueueFull),
        "event CAP must be rejected while the worker is parked"
    );
    // The rejection rolled back shard 1's reservation too: shard 1
    // still accepts a full fan-out after shard 0 resumes. (The flush
    // waits for the resumed worker to drain its full queue; submitting
    // straight away would race it for the first free slot.)
    gate.send(()).unwrap();
    parked.recv().expect("worker resumes");
    index.flush();
    index.try_submit(query()).unwrap();
    index.flush();

    let results = index.drain_results();
    assert_eq!(results.len(), CAP + 1, "accepted events all completed");
    let mut seqs: Vec<u64> = results.iter().map(|r| r.seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(
        seqs,
        (0..=CAP as u64).collect::<Vec<_>>(),
        "no event dropped, none double-counted"
    );
    for result in &results {
        assert_eq!(result.matches, vec![ObjectId(1)]);
    }

    let stats = index.stats();
    assert_eq!(stats.events_submitted, CAP as u64 + 1);
    assert_eq!(stats.events_completed, CAP as u64 + 1);
    assert_eq!(stats.queue_full_rejections, 1);
    assert_eq!(stats.submit_stalls, 0, "try_submit never blocks");
    for shard in &stats.shards {
        assert_eq!(
            shard.events,
            CAP as u64 + 1,
            "every accepted event reached shard {} exactly once",
            shard.shard
        );
    }
    // The rejected fan-out observed depth CAP on shard 0.
    assert_eq!(stats.shards[0].queue_depth_p99, CAP);
}

#[test]
fn blocking_submit_waits_and_accounts_the_stall() {
    let index = build();
    let (gate, parked) = park_shard_zero(&index);
    for _ in 0..CAP {
        index.try_submit(query()).unwrap();
    }

    std::thread::scope(|scope| {
        let blocked = scope.spawn(|| index.submit(query()));
        // Only the parked worker can free a slot, so the submit is
        // stalled until the gate opens no matter how long we wait.
        std::thread::sleep(Duration::from_millis(25));
        gate.send(()).unwrap();
        let seq = blocked.join().expect("blocked submitter");
        assert_eq!(seq, CAP as u64);
    });
    parked.recv().expect("worker resumes");
    index.flush();

    let stats = index.stats();
    assert_eq!(stats.events_completed, CAP as u64 + 1);
    assert_eq!(stats.queue_full_rejections, 0);
    assert_eq!(stats.submit_stalls, 1, "the blocking submit stalled once");
    assert!(
        stats.submit_stall_ns >= Duration::from_millis(20).as_nanos() as u64,
        "stall covers the parked interval, got {}ns",
        stats.submit_stall_ns
    );
    assert_eq!(index.drain_results().len(), CAP + 1);
}
